"""Schema-driven tabular data model and CSV interchange.

A :class:`Dataset` couples an ordered column schema with column-major
storage: numeric columns are float64 arrays, categorical columns are int64
arrays of level indices. Instances are immutable after construction and can
be shared freely across parallel evaluation code; all parsing is
single-threaded.

The CSV dialect is fixed so interchange is bit-stable: comma separated,
double-quote quoting, UTF-8, header row mandatory. Numeric cells are
written with 12 significant digits, which is the precision the round trip
guarantees. Missing values are rejected at ingestion.

:func:`write_csv` writes the bytes a per-cell :class:`csv.writer` pass
with ``QUOTE_MINIMAL`` and ``FLOAT_FORMAT`` writes, built as numpy byte
arrays: the text of each level comes from :class:`csv.writer` itself, and
the text of a numeric value from its 12 decimal digits, computed in numpy
wherever the rounding can be proven exact (1e-4 <= |v| < 1e12, no tie) in
a table of over ``_PERCENT_CELLS`` values; every other value is formatted
by ``%``. :func:`number_path` picks the
cheapest of three paths per column; a path changes speed, never bytes.

:func:`read_csv` converts the file's bytes in numpy, a block of
``8 * CHUNK_ROWS`` rows at a time: a level is found by its UTF-8 bytes, and
a number in fixed notation is its digits read as an integer ``m < 2**53``,
divided by ``10**k`` for its ``k`` decimals, which is ``float(text)`` bit
for bit. A file holding input the writer does not produce (quotes after
the header, a line end other than the header's, blank or ragged rows,
cells that do not convert) is read by :mod:`csv` and ``float()`` instead,
so values and error messages are those of a cell-by-cell :mod:`csv` pass
either way.

An encoded CSV holds a code matrix (:mod:`synthbank.binning`): categorical
columns with the levels ``"0"`` to ``"d-1"``. :func:`write_codes` and
:func:`read_codes` write and read it on the same header, tables and line
blocks as :func:`write_csv` and :func:`read_csv`.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from itertools import islice

import numpy as np

__all__ = [
    "TabularError",
    "ColumnSpec",
    "Dataset",
    "read_csv",
    "write_csv",
    "read_codes",
    "write_codes",
    "load_schema",
    "save_schema",
]

NUMERIC = "numeric"
CATEGORICAL = "categorical"

#: numeric cells survive a write/read cycle to this many significant digits
FLOAT_FORMAT = "{:.12g}"
# the same format for the ``%`` operator: the writer's fallback, once per value
_FLOAT_PERCENT = "%.12g"

#: rows per step of the CSV layer: the writers assemble, and the readers
#: convert in numpy, ``8 * CHUNK_ROWS`` rows at a time; the readers' text
#: paths convert ``CHUNK_ROWS`` rows at a time, bounding the per-cell string
#: objects they hold at once
CHUNK_ROWS = 1024

#: evenly spaced cells in which the writer looks for a repeated value
_PROBE_CELLS = 256
#: most values the writer formats with ``%`` alone: on a 2-vCPU x86_64 VM ``%``
#: took about 0.5 µs a value and ``_decimal_text`` about 110 µs a call, and the
#: two crossed at 300-400 values
_PERCENT_CELLS = 128

#: widest cell the readers' numpy paths read as digits: an integer below
#: ``10**18``, which int64 holds (the widest ``FLOAT_FORMAT`` text in fixed
#: notation is 18 bytes, ``-0.000123456789012``)
_MAX_DIGITS = 18


class TabularError(ValueError):
    """Schema violation or malformed tabular input."""


@dataclass(frozen=True)
class ColumnSpec:
    """Declared name, kind, and (for categorical columns) level labels.

    ``levels`` takes a list or tuple of strings and is stored as a tuple.
    """

    name: str
    kind: str
    levels: tuple[str, ...] = ()
    units: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise TabularError(f"column name must be a non-empty string, got {self.name!r}")
        if "\r" in self.name or "\n" in self.name:
            # the CSV readers take the header as one line
            raise TabularError(f"column name must not hold CR or LF, got {self.name!r}")
        if not isinstance(self.levels, (list, tuple)) or not all(
            isinstance(label, str) for label in self.levels
        ):
            raise TabularError(
                f"column '{self.name}': levels must be a list of strings, got {self.levels!r}"
            )
        if not isinstance(self.units, str):
            raise TabularError(f"column '{self.name}': units must be a string, got {self.units!r}")
        object.__setattr__(self, "levels", tuple(self.levels))
        if self.kind not in (NUMERIC, CATEGORICAL):
            raise TabularError(
                f"column '{self.name}': unknown kind '{self.kind}' "
                f"(expected '{NUMERIC}' or '{CATEGORICAL}')"
            )
        if self.kind == NUMERIC and self.levels:
            raise TabularError(f"numeric column '{self.name}' must not declare levels")
        if self.kind == CATEGORICAL:
            if not self.levels:
                raise TabularError(f"categorical column '{self.name}' needs at least one level")
            if len(set(self.levels)) != len(self.levels):
                raise TabularError(f"column '{self.name}': level labels must be unique")
            if any("\x00" in label for label in self.levels):
                raise TabularError(
                    f"column '{self.name}': level labels cannot contain NUL "
                    "(not representable in CSV)"
                )

    @property
    def is_categorical(self) -> bool:
        return self.kind == CATEGORICAL


class Dataset:
    """Immutable table of numeric values and categorical level indices.

    ``columns`` must align with ``schema``; categorical columns hold integer
    indices into the column's declared levels. Construction validates every cell,
    so no out-of-range index or non-finite numeric value survives it.
    """

    def __init__(self, schema, columns):
        schema = tuple(schema)
        if len(schema) != len(columns):
            raise TabularError(
                f"schema has {len(schema)} columns but {len(columns)} arrays were given"
            )
        names = [spec.name for spec in schema]
        if len(set(names)) != len(names):
            raise TabularError("duplicate column names in schema")

        stored: list[np.ndarray] = []
        n_records = None
        for spec, raw in zip(schema, columns):
            if spec.is_categorical:
                arr = np.asarray(raw)
                if arr.size and not np.issubdtype(arr.dtype, np.integer):
                    flo = np.asarray(raw, dtype=np.float64)
                    if not np.all(flo == np.floor(flo)):
                        raise TabularError(
                            f"column '{spec.name}': categorical cells must be level indices"
                        )
                arr = arr.astype(np.int64) if arr.size else np.zeros(0, dtype=np.int64)
                if arr.size and (arr.min() < 0 or arr.max() >= len(spec.levels)):
                    raise TabularError(
                        f"column '{spec.name}': level index out of range "
                        f"(domain size {len(spec.levels)})"
                    )
            else:
                arr = np.asarray(raw, dtype=np.float64)
                if arr.size and not np.all(np.isfinite(arr)):
                    bad = int(np.flatnonzero(~np.isfinite(arr))[0]) + 1
                    raise TabularError(
                        f"row {bad}, column '{spec.name}': non-finite numeric value"
                    )
            if arr.ndim != 1:
                raise TabularError(f"column '{spec.name}': expected 1-D data")
            if n_records is None:
                n_records = arr.shape[0]
            elif arr.shape[0] != n_records:
                raise TabularError(
                    f"column '{spec.name}' has {arr.shape[0]} cells, expected {n_records}"
                )
            arr.setflags(write=False)
            stored.append(arr)

        self._schema = schema
        self._columns = tuple(stored)
        self._index = {spec.name: i for i, spec in enumerate(schema)}

    @property
    def schema(self) -> tuple[ColumnSpec, ...]:
        return self._schema

    @property
    def n_records(self) -> int:
        return 0 if not self._columns else int(self._columns[0].shape[0])

    @property
    def n_columns(self) -> int:
        return len(self._schema)

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(spec.name for spec in self._schema)

    def spec(self, name: str) -> ColumnSpec:
        return self._schema[self._column_index(name)]

    def column(self, name: str) -> np.ndarray:
        """Read-only array for one column (values or level indices)."""
        return self._columns[self._column_index(name)]

    def labels(self, name: str) -> np.ndarray:
        """Categorical column as an array of level labels."""
        spec = self.spec(name)
        if not spec.is_categorical:
            raise TabularError(f"column '{name}' is numeric, has no labels")
        return np.asarray(spec.levels, dtype=object)[self.column(name)]

    def _column_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise TabularError(f"no column named '{name}'") from None

    def __len__(self) -> int:
        return self.n_records


def read_csv(path, schema) -> Dataset:
    """Parse a CSV file against ``schema``.

    The header row must match the schema names in order. Categorical cells
    are resolved to level indices; numeric cells must parse as finite
    floats. Every error names the offending data row (1-based) and column;
    when a file has several faults, the first one in row order is reported.

    The file is read as bytes and converted in numpy, ``8 * CHUNK_ROWS``
    rows at a time (:func:`cell_blocks`). A categorical cell is matched
    against the level labels' UTF-8 bytes. A numeric cell of the form
    ``-?D+(.D+)?`` with at most ``_MAX_DIGITS`` bytes after its sign, whose
    digits, read without the point, make an integer ``m < 2**53``, is
    ``m / 10.0**k`` for its ``k`` decimals, sign applied. Both operands are
    exact doubles (``10**k`` is, up to ``k = 22``), so the one correctly
    rounded division equals the correctly rounded ``float(text)`` bit for
    bit, ``-0`` included (Clinger's fast path). Every ``FLOAT_FORMAT`` text
    in fixed notation qualifies. In a numeric column whose every cell is 1 to
    ``_MAX_DIGITS`` digits, with no sign or point (counts, ages, durations),
    each cell is its integer, below ``10**18``, converted to a double: that
    one conversion rounds correctly too, so it equals ``float(text)`` bit for
    bit, leading zeros and integers above ``2**53`` included. Any other
    numeric cell goes through ``float()`` once per distinct text.

    :mod:`csv` with ``float()`` per cell reads the whole file instead when
    :func:`numpy_head` leaves it to a text reader, or a block holds a line
    end other than the header's, an empty line, a row without
    ``len(schema) - 1`` commas, a cell longer than
    :func:`csv.field_size_limit` or a cell that does not convert. It returns
    the same arrays, or raises the error, converting ``CHUNK_ROWS`` rows at
    a time so that no whole-file list of cell strings is held at once.
    """
    schema = tuple(schema)
    levels = [_level_index(spec.levels) if spec.is_categorical else None for spec in schema]
    # room before each block for the widest label's window
    pad = max([1] + [index[0].dtype.itemsize for index in levels if index is not None])
    data, n_rows, blocks = _numpy_blocks(path, [spec.name for spec in schema], pad)
    columns = [np.empty(n_rows, np.int64 if spec.is_categorical else np.float64) for spec in schema]
    for first, block, edges in blocks:
        if block is None or not _convert_block(block, edges, levels, [c[first:] for c in columns]):
            columns = _read_text(path, data, schema)
            break
    return Dataset(schema, columns)


def read_codes(path, names, sizes) -> np.ndarray:
    """The ``(n, len(names))`` int64 code matrix of an encoded CSV.

    Its columns ``names`` are categorical, column ``j`` with the levels
    ``"0"`` to ``str(sizes[j] - 1)``. Codes, errors and row numbers are those
    of :func:`read_csv` on that schema, so a sign, a space, a leading zero,
    a code not below its domain size or a blank line names its row. The
    blocks :func:`_block_codes` converts are read in numpy; a file with any
    other block is read by :func:`read_csv`.
    """
    _, n_rows, blocks = _numpy_blocks(path, names)
    codes = np.empty((n_rows, len(names)), dtype=np.int64)
    for first, block, edges in blocks:
        if block is None or not _block_codes(block, edges, sizes, codes[first:]):
            labels = [ColumnSpec(n, CATEGORICAL, tuple(map(str, range(d)))) for n, d in zip(names, sizes)]
            dataset = read_csv(path, labels)
            return np.transpose([dataset.column(name) for name in names])
    return codes


def _numpy_blocks(path, names, pad=1):
    """The bytes of the file at ``path``, its data line count and its
    :func:`cell_blocks` of ``8 * CHUNK_ROWS`` lines; a missing file is a
    :class:`TabularError`. A file :func:`numpy_head` leaves to a text
    reader, or whose lines hold another line end (a bare CR, or a bare LF in
    a CRLF file), has the one block ``(0, None, None)``, the block that
    hands a file on."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        raise TabularError(f"no such file: {path}") from None
    head = numpy_head(path, data, names)
    if head is not None:
        body, crlf = head
        buf = np.frombuffer(data, dtype=np.uint8)
        lf = np.flatnonzero(buf[body:] == ord("\n")) + body
        if np.count_nonzero(buf[body:] == ord("\r")) == (lf.size if crlf else 0) and not (
            crlf and (buf[lf - 1] != ord("\r")).any()
        ):
            # the LF offsets, plus a last line without one
            n_lines = lf.size + (body < len(data) and data[-1:] != b"\n")
            return data, n_lines, cell_blocks(
                buf, body, lf, n_lines, crlf, len(names), 8 * CHUNK_ROWS, pad
            )
    return data, 0, [(0, None, None)]


def numpy_head(path, data, names):
    """``(offset of the first data line, crlf)`` of a file the numpy readers may read.

    ``crlf`` tells whether the header line ends in CRLF rather than LF. The
    header record, parsed by :mod:`csv`, must list ``names``, else the
    readers' header mismatch error is raised. None leaves the file to a text
    reader: ``names`` or the file is empty, the file is not UTF-8 or holds a
    NUL byte, or a double quote after the header, or its header record is
    not its first line ended by LF or CRLF.
    """
    if not names or not data or b"\0" in data:
        return None
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError:
            return None
    end = data.find(b"\n")
    end = len(data) if end < 0 else end
    crlf = data[end - 1 : end + 1] == b"\r\n"
    line = data[: end - crlf]
    body = min(end + 1, len(data))
    if b"\r" in line:
        return None
    reader = csv.reader([line.decode("utf-8"), ""])
    header = next(reader)
    if reader.line_num > 1 or data.find(b'"', body) >= 0:
        return None
    _check_header(path, header, names)
    return body, crlf


def cell_blocks(buf, body, lf, n_lines, crlf, n_cells, step, pad=1):
    """Yield ``(first, block, edges)`` for each block of ``step`` lines.

    ``buf`` holds a file's bytes as ``uint8``. Its ``n_lines`` lines start
    at offset ``body`` and end in CRLF (``crlf``) or LF, at the offsets
    ``lf`` of its LF bytes; the last may have no line end. ``first`` is the
    index of the block's first line. ``block`` is a ``uint8`` array of the
    lines after ``pad`` more bytes (of the line before, or NUL), and
    ``edges`` a list of ``n_cells + 1`` arrays of offsets into it, so that
    cell ``j`` of line ``i`` is ``block[edges[j][i] + 1 : edges[j + 1][i]]``:
    the byte before the line, the line's commas, then its line end.

    ``block`` and ``edges`` are None, and no block follows, when the block
    holds an empty line or a line without ``n_cells - 1`` commas: a text
    reader then reads the file.
    """
    for first in range(0, n_lines, step):
        offset = int(lf[first - 1]) + 1 if first else body
        # the line the file's end ends, if any, is in the last block
        last = n_lines > lf.size and first + step >= n_lines
        stop = buf.size if last else int(lf[min(first + step, lf.size) - 1]) + 1
        if offset >= pad:
            block = buf[offset - pad : stop]
        else:
            block = np.concatenate([np.zeros(pad - offset, dtype=np.uint8), buf[:stop]])
        line_ends = lf[first : first + step] + (pad - offset)
        ends = np.append(line_ends - crlf, block.size) if last else line_ends - crlf
        before = np.concatenate([[pad - 1], line_ends])[: ends.size]
        commas = np.flatnonzero(block[pad:] == ord(","))
        commas += pad
        fits = commas.size == ends.size * (n_cells - 1)
        if fits:
            commas = commas.reshape(ends.size, n_cells - 1)
            # each line's share of the commas lies inside it, so it has n_cells - 1
            fits = n_cells == 1 or ((commas[:, 0] > before).all() and (commas[:, -1] < ends).all())
        if not fits or (ends == before + 1).any():
            yield first, None, None
            return
        yield first, block, [before, *commas.T, ends]


def digit_sum(digits, before, ends, base=10) -> np.ndarray:
    """The integer each cell's digits spell in ``base``, in int64.

    ``digits`` holds each byte's digit, and 0 at offsets ``before``. Cell
    ``i`` is the bytes between offsets ``before[i]`` and ``ends[i]``, at most
    ``_MAX_DIGITS`` of them, so that the integer is below ``base**18``. They
    are summed by place value from the cell's end, the byte at
    ``before[i]`` standing in for those before it.
    """
    total = np.take(digits, ends - 1).astype(np.int64)
    for place in range(1, int((ends - before).max()) - 1):
        total += np.take(digits, np.maximum(ends - 1 - place, before)) * np.int64(base**place)
    return total


def _check_header(path, header, names) -> None:
    """Raise the readers' header mismatch error unless ``header`` lists ``names``."""
    if header != list(names):
        raise TabularError(f"{path}: header mismatch: expected {list(names)}, found {header}")


def _read_text(path, data, schema) -> list[np.ndarray]:
    """The columns of the file ``data`` as :mod:`csv` reads them, ``CHUNK_ROWS`` rows at a time."""
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=""))
    row = next(reader, None)
    if row is None:
        raise TabularError(f"{path}: empty file, header row is mandatory")
    _check_header(path, row, [spec.name for spec in schema])
    level_maps = [
        {label: i for i, label in enumerate(spec.levels)} if spec.is_categorical else None
        for spec in schema
    ]
    chunks: list[list[np.ndarray]] = [[] for _ in schema]
    first_row = 1
    while rows := list(islice(reader, CHUNK_ROWS)):
        for j, col in enumerate(_parse_rows(rows, schema, level_maps, first_row)):
            chunks[j].append(col)
        first_row += len(rows)
    return [
        np.concatenate(parts)
        if parts
        else np.zeros(0, dtype=np.int64 if spec.is_categorical else np.float64)
        for spec, parts in zip(schema, chunks)
    ]


def _level_index(levels):
    """The labels' UTF-8 bytes as sorted right-aligned ``S`` values, and their level indices."""
    encoded = [label.encode("utf-8") for label in levels]
    width = max(map(len, encoded), default=0) or 1
    labels = np.array([text.rjust(width, b"\0") for text in encoded], dtype=f"S{width}")
    order = np.argsort(labels)
    return labels[order], order


def _convert_block(block, edges, levels, out) -> bool:
    """Write a block's columns to the heads of ``out``; False if a cell does not convert."""
    limit = csv.field_size_limit()
    kinds = None
    for j, index in enumerate(levels):
        starts, ends = edges[j] + 1, edges[j + 1]
        if (ends - starts).max() > limit:
            return False
        if index is not None:
            col = _level_codes(block, starts, ends, *index)
        else:
            if kinds is None:
                kinds = _digit_kinds(block)
            col = _decimal_values(block, starts, ends, *kinds)
        if col is None:
            return False
        out[j][: col.size] = col
    return True


def _digit_kinds(block):
    """``(digits, kinds)`` of a block's bytes, for :func:`_decimal_values` and
    :func:`_block_codes`.

    ``digits`` holds each byte's digit, and 0 for every byte that is no
    digit; ``kinds`` holds 0 for a digit, 1 for a point and 3 for any other
    byte.
    """
    digits = block - np.uint8(ord("0"))
    kinds = np.uint8(3) * (digits > 9)
    np.putmask(digits, kinds, np.uint8(0))
    np.putmask(kinds, block == ord("."), np.uint8(1))
    return digits, kinds


def _block_codes(block, edges, sizes, out) -> bool:
    """Write a block's codes to the head of ``out``; False if a cell is no code of its column.

    A code of column ``j`` is the decimal text of an integer below
    ``sizes[j]``, 1 to ``_MAX_DIGITS`` digits without a leading zero: a cell
    that :func:`read_csv` reads as a code label. Its value is its
    :func:`digit_sum`, which int64 holds exactly.
    """
    digits, kinds = _digit_kinds(block)
    # from the block's first line on, the bytes that are no digit are the separators
    start = int(edges[0][0]) + 1
    n_cell_bytes = (edges[-1] - edges[0] - 1).sum() - len(edges[0]) * (len(edges) - 2)
    if block.size - start - np.count_nonzero(kinds[start:]) != n_cell_bytes:
        return False
    for j, (before, ends, size) in enumerate(zip(edges, edges[1:], sizes)):
        widths = ends - before - 1
        widest = widths.max()
        if widths.min() < 1 or widest > _MAX_DIGITS:
            return False
        if widest > 1 and ((digits[before + 1] == 0) & (widths > 1)).any():
            return False  # a leading zero
        codes = digit_sum(digits, before, ends)
        if codes.max() >= size:
            return False
        out[: ends.size, j] = codes
    return True


def _level_codes(block, starts, ends, labels, order):
    """Level index of each cell, or None if a cell is no level's label.

    ``block`` holds at least as many bytes up to each cell's end as the
    widest label.
    """
    width = labels.dtype.itemsize
    widths = ends - starts
    if widths.max() > width:
        return None
    # each cell's last `width` bytes, those before its start set to NUL
    windows = np.ndarray((block.size - width + 1,), dtype=labels.dtype, buffer=block, strides=(1,))
    cells = windows[ends - width]
    cells.view(np.uint8).reshape(-1, width)[np.arange(-width, 0) < -widths[:, None]] = 0
    found = np.searchsorted(labels, cells).clip(max=labels.size - 1)
    if (labels[found] != cells).any():
        return None
    return order[found]


def _decimal_values(block, starts, ends, digits, kinds):
    """``float(text)`` of each cell, or None if a cell is not a finite float.

    A cell ``-?D+(.D+)?`` with 1 to ``_MAX_DIGITS`` bytes after its sign
    whose digits make an integer ``mantissa < 2**53`` is
    ``mantissa / 10**k``, ``k`` its decimals: its bytes are summed by place
    value (:func:`digit_sum`) with the point read as ``0``, and the digits
    before the point are then moved one place down. The byte kinds
    (:func:`_digit_kinds`), summed in base 4, tell its form: 0 when every
    byte is a digit, ``4**k`` when one is a point and the others digits.
    A column whose every cell is 1 to ``_MAX_DIGITS`` digits, with no sign,
    is read as integers: an int64 below ``10**18`` converts to the correctly
    rounded double, so each cell's :func:`digit_sum` is ``float(text)``,
    above ``2**53`` too. Every other cell goes through ``float()`` once per
    distinct text.
    """
    if (ends == starts).any():
        return None  # float("") fails
    negative = block[starts] == ord("-")
    before = starts + negative - 1  # a separator or the sign
    width = ends - before - 1
    kinds[before] = 0  # as digits[before] is
    # a cell of more bytes is not summed whole: it goes through float()
    before = np.maximum(before, ends - 1 - _MAX_DIGITS)
    form = digit_sum(kinds, before, ends, base=4)
    whole = digit_sum(digits, before, ends)
    if not (negative.any() or form.any()) and width.max() <= _MAX_DIGITS:
        return whole.astype(np.float64)  # all digits, each cell below 10**18
    point = form > 0
    decimals = (np.frexp(form)[1] // 2).astype(np.intp)  # k of form == 4**k
    low = whole % np.int64(10) ** decimals
    mantissa = np.where(point, (whole - low) // 10 + low, whole)
    fast = (
        # all digits, or one point with digits on both sides
        (~point | ((form == np.int64(4) ** decimals) & (decimals > 0) & (decimals < width - 1)))
        & (width >= 1)
        & (width <= _MAX_DIGITS)
        & (mantissa < 2**53)
    )
    values = mantissa.astype(np.float64) / _EXACT_POW10[decimals]
    np.negative(values, out=values, where=negative)
    slow = np.flatnonzero(~fast)
    if slow.size:
        texts = [block[s:e].tobytes() for s, e in zip(starts[slow].tolist(), ends[slow].tolist())]
        parsed = {}
        for cell in set(texts):
            try:
                parsed[cell] = float(cell.decode("utf-8"))
            except ValueError:
                return None
        values[slow] = [parsed[cell] for cell in texts]
        if not np.isfinite(values[slow]).all():
            return None
    return values


def _parse_rows(rows, schema, level_maps, first_row) -> list[np.ndarray]:
    """Convert one chunk of tokenised rows into one array per column.

    ``first_row`` is the 1-based data row number of ``rows[0]``. On bad
    input, raises the error of the first faulty row, and within that row of
    the first faulty cell, as a cell-by-cell scan would.
    """
    n_cells = len(schema)
    ragged = None
    if set(map(len, rows)) != {n_cells}:
        ragged = next(i for i, row in enumerate(rows) if len(row) != n_cells)
        found = len(rows[ragged])
        rows = rows[:ragged]  # rows before the ragged one are checked first
    faults = []
    arrays = []
    for spec, level_map, cells in zip(schema, level_maps, zip(*rows)):
        try:
            arrays.append(_convert_column(cells, level_map))
        except (KeyError, ValueError):
            faults.append((*_first_bad_cell(cells, level_map), spec.name))
    if faults:
        index, reason, name = min(faults, key=lambda fault: fault[0])
        raise TabularError(f"row {first_row + index}, column '{name}': {reason}")
    if ragged is not None:
        raise TabularError(
            f"row {first_row + ragged}: expected {n_cells} cells, found {found}"
        )
    return arrays


def _convert_column(cells, level_map) -> np.ndarray:
    """Level indices (``level_map`` given) or finite floats, in one C-level pass.

    Raises KeyError or ValueError on any bad cell.
    """
    if level_map is not None:
        return np.fromiter(map(level_map.__getitem__, cells), np.int64, len(cells))
    values = np.fromiter(map(float, cells), np.float64, len(cells))
    if not np.isfinite(values).all():
        raise ValueError("non-finite value")
    return values


def _first_bad_cell(cells, level_map) -> tuple[int, str]:
    """Index and reason of the first cell that :func:`_convert_column` rejects."""
    for index, cell in enumerate(cells):
        if level_map is not None:
            if cell not in level_map:
                return index, f"unknown level '{cell}'"
            continue
        text = cell.strip()
        if not text:
            return index, "missing value"
        try:
            value = float(text)
        except ValueError:
            return index, f"unparseable numeric cell '{cell}'"
        if not np.isfinite(value):
            return index, f"non-finite value '{cell}'"
    raise AssertionError("the column failed to convert, yet every cell converts")


def write_csv(dataset: Dataset, path) -> None:
    """Write ``dataset`` in the fixed CSV dialect.

    The bytes are fixed: UTF-8, the header row of column names, then one
    row per record, every row ended by CRLF, cells separated by commas and
    quoted only when they hold a comma, a double quote, CR or LF (quotes
    doubled inside), as :class:`csv.writer` does with ``QUOTE_MINIMAL``.
    Categorical cells are written as their level labels, numeric cells as
    ``FLOAT_FORMAT`` writes them (12 significant digits, ``-0`` kept), so
    ``read_csv(write_csv(d))`` reproduces ``d`` cell-for-cell at that
    precision.

    The cell texts are built into byte tables, and :func:`_write_rows`
    gathers the table rows of every record: one row per level
    (:func:`_level_table`), and for a numeric column one of three paths
    (:func:`number_path`), which differ in speed, never in bytes:

    * ``"integer"``: the texts of every integer in the column's span
      (:func:`_integer_table`), indexed by ``value - min``;
    * ``"distinct"``: the values formatted in row order, with no gather;
    * ``"dedup"``: each distinct value formatted once.

    The bytes are those a per-cell :class:`csv.writer` pass writes.
    """
    names = dataset.column_names
    tables, indices = [], []
    for j, spec in enumerate(dataset.schema):
        end = "\r\n" if j == len(names) - 1 else ","
        col = dataset.column(spec.name)
        if spec.is_categorical:
            tables.append(_level_table(spec.levels, len(names), end))
            indices.append(col)
        elif (way := number_path(col)) == "integer":
            low = int(col.min())
            span = int(col.max()) - low + 1
            tables.append(_integer_table(low, span, end))
            indices.append((col - low).astype(np.min_scalar_type(span - 1)))
        elif way == "distinct":
            tables.append(_number_table(col, end))
            indices.append(None)
        else:
            # distinct bit patterns, so that -0.0 and 0.0 stay apart; the
            # row indices are held until the file is written, so in the
            # smallest integer type that fits them
            bits, inverse = np.unique(col.view(np.int64), return_inverse=True)
            tables.append(_number_table(bits.view(np.float64), end))
            indices.append(inverse.astype(np.min_scalar_type(bits.size)))
    _write_rows(path, _csv_line(names), tables, indices)


def write_codes(codes, names, path) -> None:
    """Write the ``(n, len(names))`` code matrix ``codes`` as an encoded CSV.

    The bytes are fixed: UTF-8, the header row of ``names`` as
    :func:`write_csv` writes it, then one row per record of decimal codes
    joined by commas, every line ended by LF. The code texts come from two
    tables of every code up to the largest (:func:`_integer_table`), one
    with a comma after each code and one, for the last column, with LF.
    """
    span = int(codes.max(initial=0)) + 1
    tables = [_integer_table(0, span, ",")] * (len(names) - 1) + [_integer_table(0, span, "\n")]
    _write_rows(path, _csv_line(names)[:-2] + "\n", tables, list(codes.T))


def _write_rows(path, header, tables, indices) -> None:
    """Write ``header``, then record ``i`` as the bytes of ``tables[j][indices[j][i]]``.

    Each table is a ``uint8`` array holding one cell text per row, its
    separator or line end included; an index of None stands for ``i``. NUL
    bytes, anywhere in a row, stand for nothing and are dropped on output,
    so no cell text may hold one. Records are gathered, masked and written
    ``8 * CHUNK_ROWS`` at a time, so the whole file is never held in memory.
    A path that cannot be opened for writing is a :class:`TabularError`.
    """
    try:
        fh = open(path, "wb")
    except OSError as exc:
        raise TabularError(f"cannot write {path}: {exc}") from None
    n_records = len(tables[0] if indices[0] is None else indices[0]) if indices else 0
    step = 8 * CHUNK_ROWS
    with fh:
        fh.write(header.encode("utf-8"))
        for start in range(0, n_records, step):
            block = np.concatenate(
                [
                    table[start : start + step]
                    if index is None
                    else np.take(table, index[start : start + step], axis=0)
                    for table, index in zip(tables, indices)
                ],
                axis=1,
            )
            fh.write(block[block != 0])


def _csv_line(cells) -> str:
    """``cells`` as one :class:`csv.writer` row (``QUOTE_MINIMAL``, CRLF)."""
    buf = io.StringIO()
    csv.writer(buf, quoting=csv.QUOTE_MINIMAL, doublequote=True).writerow(cells)
    return buf.getvalue()


def text_table(texts) -> np.ndarray:
    """``(len(texts), width)`` ``uint8`` table of the UTF-8 texts, NUL padded."""
    fixed = np.array([text.encode("utf-8") for text in texts], dtype=bytes)
    return fixed.view(np.uint8).reshape(len(texts), fixed.dtype.itemsize)


def _level_table(levels, n_columns, end) -> np.ndarray:
    """Byte table of each level's cell text followed by ``end``.

    The text is cut from the :class:`csv.writer` row that has the file's
    arity, the level first and the other cells empty: :mod:`csv` writes a
    row of one empty cell as ``""``, so a one-column file writes an empty
    label that way.
    """
    empty = [""] * (n_columns - 1)
    cut = n_columns + 1  # the empty cells' commas and the CRLF
    return text_table([_csv_line([label, *empty])[:-cut] + end for label in levels])


def number_path(col) -> str:
    """How :func:`write_csv` writes the numeric column ``col``: ``"integer"``
    when it holds integers in ``[0, 1e12)``, no ``-0``, spanning at most twice
    its length; else ``"distinct"`` when no bit pattern repeats among every
    ``len(col) // _PROBE_CELLS``-th cell (or every cell); else ``"dedup"``."""
    if col.size and not np.signbit(col).any():
        low, high = col.min(), col.max()
        if high < 1e12 and high - low <= 2 * col.size and (col == np.floor(col)).all():
            return "integer"
    probe = col[:: max(1, col.size // _PROBE_CELLS)].view(np.int64)
    return "distinct" if probe.size and np.unique(probe).size == probe.size else "dedup"


def _integer_table(low, span, end) -> np.ndarray:
    """Byte table of the ``FLOAT_FORMAT`` texts, each followed by ``end``, of the
    integers ``low`` to ``low + span - 1`` in ``[0, 1e12)``: their digits, NUL-padded."""
    values = np.arange(low, low + span, dtype=np.int64)
    width = len(str(low + span - 1))
    table = np.empty((span, width + len(end)), dtype=np.uint8)
    for place in range(width - 1, -1, -1):
        tens = values // 10
        table[:, place] = values - 10 * tens + ord("0")
        values = tens
    for digits in range(1, width):  # the rows below 10**digits have fewer
        table[: max(0, 10**digits - low), width - 1 - digits] = 0
    table[:, width:] = np.frombuffer(end.encode("ascii"), dtype=np.uint8)
    return table


def _number_table(values, end) -> np.ndarray:
    """Byte table of each value's ``FLOAT_FORMAT`` text followed by ``end``.

    Values with ``1e-4 <= |v| < 1e12`` take their text from
    :func:`_decimal_text` when it can prove the rounding; every other value
    (``0``, ``-0``, exponent notation, subnormals, unproven cases) is
    formatted by ``%`` with the same 12 digits. Values are converted
    ``8 * CHUNK_ROWS`` at a time. The table leaves out the columns that are
    NUL in every row: each text is copied once, into a table of its final
    width. A table of at most ``_PERCENT_CELLS`` values is formatted by ``%`` alone.
    """
    if values.size <= _PERCENT_CELLS:
        return text_table([_FLOAT_PERCENT % v + end for v in values.tolist()])
    pieces = []  # (rows, their texts)
    step = 8 * CHUNK_ROWS
    for start in range(0, values.size, step):
        part = values[start : start + step]
        mag = np.abs(part)
        fast = np.flatnonzero((mag >= 1e-4) & (mag < 1e12))
        proven, text = _decimal_text(part[fast])
        rest = np.ones(part.size, dtype=bool)
        rest[fast[proven]] = False
        rest = np.flatnonzero(rest)
        pieces.append((start + fast[proven], text))
        pieces.append((start + rest, text_table([_FLOAT_PERCENT % v for v in part[rest].tolist()])))
    pieces = [(rows, text) for rows, text in pieces if rows.size]  # most chunks have no rest
    used = np.zeros(max((text.shape[1] for _, text in pieces), default=0), dtype=bool)
    for _, text in pieces:
        used[: text.shape[1]] |= (text != 0).any(axis=0)
    keep = np.flatnonzero(used)
    table = np.zeros((values.size, keep.size + len(end)), dtype=np.uint8)
    for rows, text in pieces:
        cols = keep[keep < text.shape[1]]
        table[rows, : cols.size] = text[:, cols]
    table[:, keep.size :] = np.frombuffer(end.encode("ascii"), dtype=np.uint8)
    return table


# 10**k for k in [0, 22], each an exact double: the writer's scales k = 11 - x0
# of x0 in [-4, 11] and the reader's decimal counts
_EXACT_POW10 = np.array([float(10**k) for k in range(23)])
# 12 digits are read as four groups of three; row i of _DIGIT_TRIPLES holds
# digit i of each of 000 to 999
_GROUP_POW10 = np.array([10**9, 10**6, 10**3, 1], dtype=np.intp)
_DIGIT_TRIPLES = (np.arange(1000) // np.array([[100], [10], [1]]) % 10 + ord("0")).astype(
    np.uint8
)


def _decimal_text(values):
    """``FLOAT_FORMAT`` text of the values it can prove, all ``1e-4 <= |v| < 1e12``.

    Returns the mask of proven values and a ``uint8`` table of their texts,
    in which NUL bytes stand for nothing. ``x0`` estimates the decimal
    exponent ``floor(log10|v|)`` and ``10**(11 - x0)`` is an exact double,
    so ``scaled = |v| * 10**(11 - x0)`` is the exact product rounded once.
    The 12 significant digits ``%g`` prints are the exact product rounded
    to an integer, ``rint(scaled)``, whenever

    * ``scaled`` is not a half-integer: half-integers below ``1e12`` are
      doubles, so the exact product lies strictly on the same side of each
      of them as ``scaled``, and no tie is possible;
    * ``scaled >= 1e11``, so that ``x0`` is not too high (``log10`` is not
      trusted). A product just below ``1e11`` that rounds to it lies within
      half an ulp of it, and its 12-digit text equals that of ``1e11``;
    * ``rint(scaled) < 1e12``, so that ``x0`` is not too low and the
      rounding does not carry into a 13th digit.

    ``%g`` prints such a value in fixed notation with ``11 - x0`` decimals,
    then drops the trailing zeros and a bare point.
    """
    mag = np.abs(values)
    x0 = np.clip(np.floor(np.log10(mag)), -4, 11).astype(np.intp)
    scaled = mag * _EXACT_POW10[11 - x0]
    rounded = np.rint(scaled)
    proven = (np.abs(scaled - rounded) < 0.5) & (scaled >= 1e11) & (rounded < 1e12)

    # one column per value from here on, so that numpy works along long rows
    groups = rounded[proven].astype(np.intp) // _GROUP_POW10[:, None]
    groups[1:] -= 1000 * groups[:-1]
    n = groups.shape[1]
    # four bytes of padding, then the 12 digits, the first of which is not 0
    stream = np.full((17, n), ord("0"), dtype=np.uint8)
    stream[4:16] = np.take(_DIGIT_TRIPLES, groups, axis=1).transpose(1, 0, 2).reshape(12, n)
    # the stream with the point after its first 5 + x0 bytes
    at = np.arange(17, dtype=np.int8)[:, None]
    point = (x0[proven] + 5).astype(np.int8)
    text = np.where(at < point, stream, np.roll(stream, 1, axis=0))
    text[at == point] = ord(".")
    # NUL out what %g leaves out: the padding before the integer part (all
    # of it, or all but the 0 before the point), the zeros after the last
    # nonzero decimal, and a point with no decimals after it
    last = (16 - np.argmax(stream[15:3:-1] != ord("0"), axis=0)).astype(np.int8)
    padding = at < np.minimum(point - 1, 4)
    trailing = (at > point) & (at > last)
    bare_point = (at == point) & (last <= point)
    text[padding | trailing | bare_point] = 0
    sign = np.where(np.signbit(values[proven]), ord("-"), 0).astype(np.uint8)
    return proven, np.concatenate([sign[None, :], text]).T


def load_schema(path) -> tuple[ColumnSpec, ...]:
    """Read a schema JSON document: a list of {name, kind, levels?, units?}."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, list):
        raise TabularError(f"{path}: schema document must be a JSON list")
    specs = []
    for i, entry in enumerate(doc):
        if not isinstance(entry, dict) or "name" not in entry or "kind" not in entry:
            raise TabularError(f"{path}: schema entry {i} needs 'name' and 'kind'")
        specs.append(
            ColumnSpec(
                name=entry["name"],
                kind=entry["kind"],
                levels=entry.get("levels", ()),
                units=entry.get("units", ""),
            )
        )
    return tuple(specs)


def save_schema(schema, path) -> None:
    doc = []
    for spec in schema:
        entry: dict = {"name": spec.name, "kind": spec.kind}
        if spec.levels:
            entry["levels"] = list(spec.levels)
        if spec.units:
            entry["units"] = spec.units
        doc.append(entry)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")

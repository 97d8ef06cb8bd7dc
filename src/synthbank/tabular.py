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
the text of each distinct numeric value from its 12 decimal digits,
computed in numpy wherever the rounding can be proven exact (1e-4 <= |v|
< 1e12, no tie); every other value is formatted by ``%`` once.
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
    "load_schema",
    "save_schema",
]

NUMERIC = "numeric"
CATEGORICAL = "categorical"

#: numeric cells survive a write/read cycle to this many significant digits
FLOAT_FORMAT = "{:.12g}"
# the same format for the ``%`` operator: the writer's fallback, once per value
_FLOAT_PERCENT = "%.12g"

#: rows converted per step by :func:`read_csv` and by the encoded-CSV reader
#: in :mod:`synthbank.binning`, bounding the per-cell string objects they
#: hold at once; the writers assemble ``8 * CHUNK_ROWS`` rows per step
CHUNK_ROWS = 1024


class TabularError(ValueError):
    """Schema violation or malformed tabular input."""


@dataclass(frozen=True)
class ColumnSpec:
    """Declared name, kind, and (for categorical columns) level labels."""

    name: str
    kind: str
    levels: tuple[str, ...] = ()
    units: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "levels", tuple(self.levels))
        if not self.name:
            raise TabularError("column name must be non-empty")
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

    def __init__(self, schema, columns, provenance: str = ""):
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
        self.provenance = provenance

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

    Rows are tokenised by :mod:`csv` and converted a column at a time, in
    chunks of :data:`CHUNK_ROWS` rows so that no whole-file list of cell
    strings is held at once.
    """
    schema = tuple(schema)
    try:
        fh = open(path, newline="", encoding="utf-8")
    except FileNotFoundError:
        raise TabularError(f"no such file: {path}") from None
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise TabularError(f"{path}: empty file, header row is mandatory")
        expected = [spec.name for spec in schema]
        if header != expected:
            raise TabularError(f"{path}: header mismatch: expected {expected}, found {header}")

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

    columns = [
        np.concatenate(parts)
        if parts
        else np.zeros(0, dtype=np.int64 if spec.is_categorical else np.float64)
        for spec, parts in zip(schema, chunks)
    ]
    return Dataset(schema, columns, provenance=str(path))


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

    The text of each level, and of each distinct numeric value, is built
    once into a byte table (:func:`_level_table`, :func:`_number_table`);
    :func:`write_rows` then gathers the table rows of every record. The
    bytes are those a per-cell :class:`csv.writer` pass writes.
    """
    names = dataset.column_names
    tables, indices = [], []
    for j, spec in enumerate(dataset.schema):
        end = "\r\n" if j == len(names) - 1 else ","
        col = dataset.column(spec.name)
        if spec.is_categorical:
            tables.append(_level_table(spec.levels, len(names), end))
            indices.append(col)
        else:
            # distinct bit patterns, so that -0.0 and 0.0 stay apart; the
            # row indices are held until the file is written, so in the
            # smallest integer type that fits them
            bits, inverse = np.unique(col.view(np.int64), return_inverse=True)
            tables.append(_number_table(bits.view(np.float64), end))
            indices.append(inverse.astype(np.min_scalar_type(bits.size)))
    try:
        fh = open(path, "wb")
    except OSError as exc:
        raise TabularError(f"cannot write {path}: {exc}") from None
    with fh:
        fh.write(_csv_line(names).encode("utf-8"))
        write_rows(fh, tables, indices, CHUNK_ROWS)


def write_rows(fh, tables, indices, chunk_rows) -> None:
    """Write record ``i`` as the bytes of ``tables[j][indices[j][i]]``, ``j`` in order.

    Each table is a ``uint8`` array holding one cell text per row, its
    separator or line end included. NUL bytes, anywhere in a row, stand for
    nothing and are dropped on output, so no cell text may hold one.
    Records are gathered, masked and written ``8 * chunk_rows`` at a time,
    so the whole file is never held in memory.
    """
    n_records = len(indices[0]) if indices else 0
    step = 8 * chunk_rows
    for start in range(0, n_records, step):
        block = np.concatenate(
            [
                np.take(table, index[start : start + step], axis=0)
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


def _number_table(values, end) -> np.ndarray:
    """Byte table of each value's ``FLOAT_FORMAT`` text followed by ``end``.

    Values with ``1e-4 <= |v| < 1e12`` take their text from
    :func:`_decimal_text` when it can prove the rounding; every other value
    (``0``, ``-0``, exponent notation, subnormals, unproven cases) is
    formatted by ``%`` with the same 12 digits. Values are converted
    ``8 * CHUNK_ROWS`` at a time, and columns that are NUL in every row are
    dropped at the end.
    """
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
    width = max((text.shape[1] for _, text in pieces), default=0)
    table = np.zeros((values.size, width + len(end)), dtype=np.uint8)
    for rows, text in pieces:
        table[rows, : text.shape[1]] = text
    table[:, width:] = np.frombuffer(end.encode("ascii"), dtype=np.uint8)
    # compress keeps C order (fancy indexing would not), so that the row
    # gathers of write_rows copy whole rows
    return np.compress((table != 0).any(axis=0), table, axis=1)


# 10**k for the scales k = 11 - x0 of x0 in [-4, 11]; each one is exact
_EXACT_POW10 = np.array([float(10**k) for k in range(16)])
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
                levels=tuple(entry.get("levels", ())),
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

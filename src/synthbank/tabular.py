"""Schema-driven tabular data model and CSV interchange.

A :class:`Dataset` couples an ordered column schema with column-major
storage: numeric columns are float64 arrays, categorical columns are int64
arrays of level indices. Instances are immutable after construction and can
be shared freely across parallel evaluation code; all parsing is
single-threaded.

The CSV dialect is fixed so interchange is bit-stable: comma separated,
double-quote quoting, UTF-8, header row mandatory. Numeric cells are
written with 12 significant digits, which is the precision the round trip
guarantees. Missing values are rejected at ingestion; use
:func:`filter_rows` to drop out-of-range rows up front.
"""

from __future__ import annotations

import csv
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
    "filter_rows",
]

NUMERIC = "numeric"
CATEGORICAL = "categorical"

#: numeric cells survive a write/read cycle to this many significant digits
FLOAT_FORMAT = "{:.12g}"
# the same format for the ``%`` operator, which is faster on plain floats
_FLOAT_PERCENT = "%.12g"

#: rows converted per step by :func:`read_csv` and by the encoded-CSV reader
#: and writer in :mod:`synthbank.binning`, bounding the per-cell string
#: objects they hold at once
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

    def take(self, row_indices) -> "Dataset":
        """New dataset holding the selected rows (in the given order)."""
        idx = np.asarray(row_indices)
        return Dataset(self._schema, [col[idx] for col in self._columns], self.provenance)

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
    """
    try:
        fh = open(path, "w", newline="", encoding="utf-8")
    except OSError as exc:
        raise TabularError(f"cannot write {path}: {exc}") from None
    with fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL, doublequote=True)
        writer.writerow(dataset.column_names)
        text_columns = []
        for spec in dataset.schema:
            col = dataset.column(spec.name)
            if spec.is_categorical:
                text_columns.append(list(map(spec.levels.__getitem__, col.tolist())))
            else:
                text_columns.append(_format_numeric(col))
        writer.writerows(zip(*text_columns))


def _format_numeric(col: np.ndarray) -> list[str]:
    """``FLOAT_FORMAT`` text of every cell, formatting each distinct value once.

    Values are deduplicated on their bit pattern, so ``-0.0`` and ``0.0``
    stay apart. Whole values below ``1e12`` in magnitude, ``-0.0`` aside, are
    written by ``int -> str``, which for them gives exactly the
    ``FLOAT_FORMAT`` text; the rest go through ``%`` formatting with the
    same 12 digits.
    """
    bits, inverse = np.unique(col.view(np.int64), return_inverse=True)
    distinct = bits.view(np.float64)
    integral = (
        (distinct == np.floor(distinct))
        & (np.abs(distinct) < 1e12)
        & ~((distinct == 0) & np.signbit(distinct))
    )
    text = np.empty(distinct.size, dtype=object)
    whole = distinct[integral].astype(np.int64).tolist()
    others = distinct[~integral].tolist()
    text[integral] = np.array(list(map(str, whole)), dtype=object)
    text[~integral] = np.array(list(map(_FLOAT_PERCENT.__mod__, others)), dtype=object)
    return text[inverse].tolist()


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


def filter_rows(dataset: Dataset, bounds: dict) -> tuple[Dataset, int]:
    """Drop rows outside per-column inclusive numeric ranges.

    ``bounds`` maps column name to ``(lo, hi)``; either end may be None.
    Returns the filtered dataset and the number of rows dropped, mirroring
    the ingestion rule that inconsistent rows are excluded rather than
    imputed.
    """
    mask = np.ones(dataset.n_records, dtype=bool)
    for name, (lo, hi) in bounds.items():
        spec = dataset.spec(name)
        if spec.is_categorical:
            raise TabularError(f"range filter on categorical column '{name}'")
        col = dataset.column(name)
        if lo is not None:
            mask &= col >= lo
        if hi is not None:
            mask &= col <= hi
    kept = dataset.take(np.flatnonzero(mask))
    return kept, int(dataset.n_records - kept.n_records)

"""Numeric feature discretization and the codebook needed to decode it.

Two strategy families produce the all-categorical representation the
marginal mechanisms require: explicit domain cut-offs mirroring an
institution's reporting taxonomy, and data-driven rules (equal-frequency,
uniform width, exact 1-D k-means). Every binned column follows one interval
convention: half-open ``[a, b)`` bins with the final bin closed at its
upper edge, which keeps encode/decode bijective on bins.

All operations are pure functions over immutable inputs; per-column
encoding could run in parallel, though the implementation is
single-threaded.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .checks import is_bool, is_int, is_real, reject_bools
from .tabular import (
    CHUNK_ROWS,
    Dataset,
    TabularError,
    cell_blocks,
    check_header,
    count_lines,
    digit_sum,
    read_bytes,
    split_header,
    text_table,
    write_rows,
)

__all__ = [
    "BinningError",
    "BinningRule",
    "ColumnCodec",
    "Codebook",
    "EncodedDataset",
    "assign_codes",
    "explicit_bins",
    "equal_frequency_bins",
    "uniform_width_bins",
    "kmeans_1d",
    "log_pretransform",
    "encode_dataset",
    "write_encoded_csv",
    "read_encoded_csv",
]

EXPLICIT = "explicit_cutoffs"
EQUAL_FREQUENCY = "equal_frequency"
UNIFORM_WIDTH = "uniform_width"
KMEANS = "kmeans_1d"
_METHODS = (EXPLICIT, EQUAL_FREQUENCY, UNIFORM_WIDTH, KMEANS)


class BinningError(ValueError):
    """Invalid discretization rule or value outside the declared domain."""


@dataclass(frozen=True)
class BinningRule:
    """Per-column discretization recipe.

    ``cutoffs`` drives the explicit method (strictly increasing, final value
    is the closed domain maximum); ``k`` drives the data-driven methods.
    ``floor`` is decode-time metadata for explicit bins: the left edge of
    the open-below first bin. ``log_pretransform`` bins in natural-log space
    and is only legal on strictly positive features.
    """

    method: str
    cutoffs: tuple[float, ...] | None = None
    k: int | None = None
    log_pretransform: bool = False
    floor: float = 0.0

    def __post_init__(self) -> None:
        if self.method not in _METHODS:
            raise BinningError(f"unknown binning method '{self.method}'")
        reject_bools(BinningError, floor=self.floor)
        if not is_real(self.floor):
            raise BinningError(f"floor must be a finite number, got {self.floor!r}")
        if not is_bool(self.log_pretransform):
            raise BinningError(
                f"log_pretransform must be true or false, got {self.log_pretransform!r}"
            )
        if self.method == EXPLICIT:
            if not self.cutoffs:
                raise BinningError("explicit_cutoffs needs a cut-off list")
            if not isinstance(self.cutoffs, (tuple, list)) or not all(map(is_real, self.cutoffs)):
                raise BinningError(f"cut-offs must be finite numbers, got {self.cutoffs!r}")
            object.__setattr__(self, "cutoffs", tuple(float(c) for c in self.cutoffs))
            arr = np.asarray(self.cutoffs)
            if arr.size > 1 and not np.all(np.diff(arr) > 0):
                raise BinningError("cut-offs must be strictly increasing")
            if self.floor >= arr[0]:
                raise BinningError(
                    f"floor {self.floor} must lie below the first cut-off {arr[0]}"
                )
        elif not is_int(self.k) or self.k < 1:
            raise BinningError(f"{self.method} needs k >= 1, got {self.k!r}")


@dataclass(frozen=True)
class ColumnCodec:
    """Decode metadata for one encoded column.

    Binned columns carry ``edges`` (``domain_size + 1`` strictly increasing
    boundaries, in log space when ``log_flag``); categorical columns carry
    their level labels. A column's codes are ``0`` to ``domain_size - 1``;
    :class:`EncodedDataset` checks them.
    """

    name: str
    kind: str  # "binned" | "categorical"
    edges: tuple[float, ...] | None = None
    labels: tuple[str, ...] | None = None
    log_flag: bool = False
    method: str = ""
    # not a field: the benchmark's PAC span counter (``perfbench/spans.py``,
    # ``_kept_rows``) reads it to count the rows kept, which are all of them
    has_suppressed = False

    def __post_init__(self) -> None:
        if self.kind == "binned":
            if not self.edges or len(self.edges) < 2:
                raise BinningError(f"column '{self.name}': needs at least two bin edges")
            object.__setattr__(self, "edges", tuple(float(e) for e in self.edges))
            if not np.all(np.diff(np.asarray(self.edges)) > 0):
                raise BinningError(f"column '{self.name}': edges must be strictly increasing")
        elif self.kind == "categorical":
            if not self.labels:
                raise BinningError(f"column '{self.name}': categorical codec needs labels")
            object.__setattr__(self, "labels", tuple(self.labels))
        else:
            raise BinningError(f"column '{self.name}': unknown codec kind '{self.kind}'")

    @property
    def domain_size(self) -> int:
        if self.kind == "binned":
            return len(self.edges) - 1
        return len(self.labels)


class Codebook:
    """Ordered collection of column codecs, addressable by name or index."""

    def __init__(self, codecs):
        self.codecs = tuple(codecs)
        names = [c.name for c in self.codecs]
        if len(set(names)) != len(names):
            raise BinningError("duplicate column names in codebook")
        self._index = {name: i for i, name in enumerate(names)}

    def __len__(self) -> int:
        return len(self.codecs)

    def __iter__(self):
        return iter(self.codecs)

    def __getitem__(self, key) -> ColumnCodec:
        if isinstance(key, str):
            try:
                return self.codecs[self._index[key]]
            except KeyError:
                raise BinningError(f"no codec for column '{key}'") from None
        return self.codecs[key]

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise BinningError(f"no codec for column '{name}'") from None

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.codecs)

    @property
    def domain_sizes(self) -> tuple[int, ...]:
        return tuple(c.domain_size for c in self.codecs)

    def to_json(self, path) -> None:
        doc = {}
        for c in self.codecs:
            entry: dict = {"kind": c.kind, "method": c.method, "log_flag": c.log_flag}
            if c.kind == "binned":
                entry["edges"] = list(c.edges)
            else:
                entry["labels"] = list(c.labels)
            doc[c.name] = entry
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": list(self.names), "codecs": doc}, fh, indent=2)
            fh.write("\n")

    @classmethod
    def from_json(cls, path) -> "Codebook":
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        codecs = []
        for name in doc["columns"]:
            entry = doc["codecs"][name]
            codecs.append(
                ColumnCodec(
                    name=name,
                    kind=entry["kind"],
                    edges=tuple(entry.get("edges", ())) or None,
                    labels=tuple(entry.get("labels", ())) or None,
                    log_flag=entry.get("log_flag", False),
                    method=entry.get("method", ""),
                )
            )
        return cls(codecs)


class EncodedDataset:
    """All-categorical code matrix plus the codebook that decodes it."""

    def __init__(self, codes, codebook: Codebook, provenance: str = ""):
        codes = np.asarray(codes, dtype=np.int64)
        if codes.ndim != 2:
            codes = codes.reshape(len(codes), len(codebook)) if codes.size else codes.reshape(0, len(codebook))
        if codes.shape[1] != len(codebook):
            raise BinningError(
                f"code matrix has {codes.shape[1]} columns, codebook has {len(codebook)}"
            )
        for j, codec in enumerate(codebook):
            if codes.shape[0] == 0:
                continue
            col = codes[:, j]
            if col.min() < 0 or col.max() >= codec.domain_size:
                raise BinningError(
                    f"column '{codec.name}': code out of range (domain size {codec.domain_size})"
                )
        codes.setflags(write=False)
        self.codes = codes
        self.codebook = codebook
        self.provenance = provenance

    @property
    def n_records(self) -> int:
        return int(self.codes.shape[0])

    @property
    def n_columns(self) -> int:
        return int(self.codes.shape[1])

    def column_codes(self, name: str) -> np.ndarray:
        return self.codes[:, self.codebook.index_of(name)]

    def __len__(self) -> int:
        return self.n_records


def assign_codes(values, edges) -> np.ndarray:
    """Bin index per value for half-open ``[a, b)`` bins, final bin closed.

    Values below the first edge fall into bin 0 (the first bin is open
    below); values above the last edge clamp to the final bin, so callers
    that must reject out-of-domain values check before assigning.
    """
    edges = np.asarray(edges, dtype=np.float64)
    idx = np.searchsorted(edges, np.asarray(values, dtype=np.float64), side="right") - 1
    return np.clip(idx, 0, len(edges) - 2).astype(np.int64)


def explicit_bins(values, cutoffs, floor: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Encode against explicit cut-offs; one bin per cut-off.

    Bin ``i >= 1`` is ``[cutoffs[i-1], cutoffs[i])``; bin 0 is open below
    its upper cut-off; the final bin is closed at the stated maximum.
    Values above the final cut-off are out of domain.
    """
    cut = np.asarray(cutoffs, dtype=np.float64)
    if cut.ndim != 1 or cut.size == 0:
        raise BinningError("cut-offs must be a non-empty list")
    if cut.size > 1 and not np.all(np.diff(cut) > 0):
        raise BinningError("cut-offs must be strictly increasing")
    vals = np.asarray(values, dtype=np.float64)
    if vals.size:
        above = vals > cut[-1]
        if np.any(above):
            i = int(np.flatnonzero(above)[0])
            raise BinningError(
                f"value {vals[i]:g} (row {i + 1}) above the final cut-off {cut[-1]:g}"
            )
    lo = floor
    if vals.size:
        lo = min(lo, float(vals.min()))
    if lo >= cut[0]:
        raise BinningError(f"floor {lo:g} must lie below the first cut-off {cut[0]:g}")
    edges = np.concatenate([[lo], cut])
    return assign_codes(vals, edges), edges


def equal_frequency_bins(values, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Quantile bins holding (near-)equal record counts.

    Boundaries follow the nearest-rank definition: bin ``i`` starts at
    sorted rank ``ceil(i*n/k)``. Ties go to the lower bin, so identical
    values never straddle a boundary; with heavy ties this can leave fewer
    than ``k`` non-empty bins, which are compressed out of the returned
    domain. Edges are ``[min, boundary values..., max]``.
    """
    vals = np.asarray(values, dtype=np.float64)
    if vals.size == 0:
        raise BinningError("equal-frequency binning needs at least one value")
    if k < 1:
        raise BinningError("k must be >= 1")
    n_distinct = np.unique(vals).size
    if k > n_distinct:
        raise BinningError(
            f"k={k} exceeds the {n_distinct} distinct values; use a smaller k"
        )

    n = vals.size
    order = np.argsort(vals, kind="stable")
    sv = vals[order]
    prelim = (np.arange(n, dtype=np.int64) * k) // n
    # first occurrence index of each distinct value; min prelim code within a
    # tie group is the code at its first occurrence (prelim is non-decreasing)
    firsts = np.concatenate([[0], np.flatnonzero(np.diff(sv)) + 1])
    group = np.searchsorted(firsts, np.arange(n), side="right") - 1
    merged = prelim[firsts[group]]
    used = np.unique(merged)
    codes_sorted = np.searchsorted(used, merged)
    m = used.size

    starts = np.searchsorted(codes_sorted, np.arange(1, m), side="left")
    boundaries = sv[starts]
    edges = np.concatenate([[sv[0]], boundaries, [sv[-1]]])
    if m == 1:
        if edges[-1] == edges[0]:
            edges[-1] = np.nextafter(edges[0], np.inf)
    elif edges[-1] == edges[-2]:
        # single-distinct-value top bin: place the boundary midway between
        # the previous bin's largest value and the maximum
        prev_last = sv[starts[-1] - 1]
        edges[-2] = 0.5 * (prev_last + edges[-1])

    return assign_codes(vals, edges), edges


def uniform_width_bins(values, k: int) -> tuple[np.ndarray, np.ndarray]:
    """k equal-width bins spanning [min, max]."""
    vals = np.asarray(values, dtype=np.float64)
    if vals.size == 0:
        raise BinningError("uniform-width binning needs at least one value")
    if k < 1:
        raise BinningError("k must be >= 1")
    lo, hi = float(vals.min()), float(vals.max())
    if hi == lo:
        hi = np.nextafter(lo, np.inf)
    edges = np.linspace(lo, hi, k + 1)
    return assign_codes(vals, edges), edges


def kmeans_1d(values, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Globally optimal 1-D k-means partition.

    Optimal 1-D clusters are contiguous on the sorted axis, so the exact
    optimum is found by dynamic programming over sorted distinct values,
    avoiding the initialization nondeterminism of Lloyd iteration.
    Minimizing within-cluster sum of squared deviations is equivalent to
    minimizing the size-normalized pairwise squared distances, which differ
    by a constant factor of two. Edges are placed at midpoints between
    adjacent clusters.

    Each DP layer is solved by divide and conquer over the monotone split
    points (Grønlund et al. 2017; Wang & Song 2011), run level-synchronously:
    all nodes of one recursion depth are evaluated in a single vectorized
    pass, so a layer costs about log2(m) passes of O(m) work for m distinct
    values. Among candidate splits of equal cost the smallest split index
    wins, as with ``np.argmin``.
    """
    vals = np.asarray(values, dtype=np.float64)
    if vals.size == 0:
        raise BinningError("k-means binning needs at least one value")
    uniq, counts = np.unique(vals, return_counts=True)
    m = uniq.size
    if k < 1:
        raise BinningError("k must be >= 1")
    if k > m:
        raise BinningError(f"k={k} exceeds the {m} distinct values")

    # centering keeps the SSE prefix arithmetic well conditioned for
    # money-scale magnitudes; the optimal partition is shift invariant
    centered = uniq - uniq.mean()
    cw = np.concatenate([[0.0], np.cumsum(counts)])
    cs = np.concatenate([[0.0], np.cumsum(counts * centered)])
    cq = np.concatenate([[0.0], np.cumsum(counts * centered * centered)])

    def seg_cost(i_arr, j_arr):
        # weighted SSE of distinct-value blocks [i, j], elementwise
        w = cw[j_arr + 1] - cw[i_arr]
        s = cs[j_arr + 1] - cs[i_arr]
        q = cq[j_arr + 1] - cq[i_arr]
        return q - s * s / w

    # single-cluster layer: cost of the prefix block [0, j]
    prev = cq[1:] - cs[1:] * cs[1:] / cw[1:]
    split_at = np.zeros((k, m), dtype=np.int64)

    for layer in range(1, k):
        cur = np.full(m, np.inf)
        arg = np.zeros(m, dtype=np.int64)
        # frontier of pending nodes: target rows [jlo, jhi] whose best
        # split lies in [ilo, ihi]; ilo <= jlo holds for every node, so no
        # candidate range [ilo, min(ihi, jm)] is empty
        jlo = np.array([layer], dtype=np.int64)
        jhi = np.array([m - 1], dtype=np.int64)
        ilo = jlo.copy()
        ihi = jhi.copy()
        while jlo.size:
            jm = (jlo + jhi) // 2
            lens = np.minimum(ihi, jm) - ilo + 1
            starts = np.cumsum(lens) - lens
            cand = np.arange(int(lens.sum()), dtype=np.int64) + np.repeat(ilo - starts, lens)
            seg = np.repeat(np.arange(jm.size), lens)
            costs = prev[cand - 1] + seg_cost(cand, jm[seg])
            mins = np.minimum.reduceat(costs, starts)
            # first position of each node's minimum (np.argmin's tie rule,
            # including its preference for the first NaN)
            hit = costs == mins[seg]
            if np.isnan(mins).any():
                hit |= np.isnan(costs)
            pos = np.flatnonzero(hit)
            pos = pos[np.concatenate([[True], seg[pos[1:]] != seg[pos[:-1]]])]
            best = cand[pos]
            cur[jm] = mins
            arg[jm] = best
            jlo = np.concatenate([jlo, jm + 1])
            jhi = np.concatenate([jm - 1, jhi])
            ilo = np.concatenate([ilo, best])
            ihi = np.concatenate([best, ihi])
            keep = jlo <= jhi
            jlo, jhi, ilo, ihi = jlo[keep], jhi[keep], ilo[keep], ihi[keep]
        prev = cur
        split_at[layer] = arg

    # backtrack the first distinct-value index of every cluster
    bounds = [0] * k
    j = m - 1
    for layer in range(k - 1, 0, -1):
        i = int(split_at[layer][j])
        bounds[layer] = i
        j = i - 1

    cluster_starts = uniq[bounds]
    inner = 0.5 * (uniq[np.asarray(bounds[1:], dtype=np.int64) - 1] + cluster_starts[1:])
    top = uniq[-1]
    lo = uniq[0]
    if m == 1:
        top = np.nextafter(lo, np.inf)
    edges = np.concatenate([[lo], inner, [top]])
    return assign_codes(vals, edges), edges


def log_pretransform(values) -> np.ndarray:
    """Natural log, elementwise; rejects non-positive values by row."""
    vals = np.asarray(values, dtype=np.float64)
    if vals.size:
        bad = vals <= 0
        if np.any(bad):
            i = int(np.flatnonzero(bad)[0])
            raise BinningError(
                f"row {i + 1}: log pre-transform needs positive values, got {vals[i]:g}"
            )
    return np.log(vals)


def encode_dataset(dataset: Dataset, rules: dict) -> EncodedDataset:
    """Discretize every numeric column; categorical columns pass through.

    ``rules`` maps numeric column names to :class:`BinningRule`. The
    returned codebook records edges, log flags and level labels, so
    decoding and re-encoding round-trip on bins. Record count and column
    order are preserved.
    """
    code_columns = []
    codecs = []
    for spec in dataset.schema:
        col = dataset.column(spec.name)
        if spec.is_categorical:
            code_columns.append(col.astype(np.int64))
            codecs.append(ColumnCodec(name=spec.name, kind="categorical", labels=spec.levels))
            continue
        rule = rules.get(spec.name)
        if rule is None:
            raise BinningError(f"numeric column '{spec.name}' has no binning rule")
        vals = col
        try:
            if rule.log_pretransform:
                vals = log_pretransform(vals)
            if rule.method == EXPLICIT:
                codes, edges = explicit_bins(vals, rule.cutoffs, floor=rule.floor)
            elif rule.method == EQUAL_FREQUENCY:
                codes, edges = equal_frequency_bins(vals, rule.k)
            elif rule.method == UNIFORM_WIDTH:
                codes, edges = uniform_width_bins(vals, rule.k)
            else:
                codes, edges = kmeans_1d(vals, rule.k)
        except BinningError as exc:
            raise BinningError(f"column '{spec.name}': {exc}") from None
        code_columns.append(codes)
        codecs.append(
            ColumnCodec(
                name=spec.name,
                kind="binned",
                edges=tuple(edges),
                log_flag=rule.log_pretransform,
                method=rule.method,
            )
        )
    codes = (
        np.column_stack(code_columns)
        if code_columns and len(code_columns[0])
        else np.zeros((0, len(codecs)), dtype=np.int64)
    )
    return EncodedDataset(codes, Codebook(codecs), provenance=dataset.provenance)


def write_encoded_csv(encoded: EncodedDataset, path) -> None:
    """Persist the code matrix as integer CSV with a header row.

    The bytes are fixed: UTF-8, the header row of codebook names as
    :class:`csv.writer` writes them (quoted only when they hold a comma, a
    double quote, CR or LF), then one row per record of decimal codes
    joined by commas, every line ended by LF.
    :func:`synthbank.tabular.write_rows` assembles the rows from the code
    strings, each followed by a comma or, in the last column, by LF.
    """
    codes = encoded.codes
    strings = [str(c) for c in range(int(codes.max(initial=0)) + 1)]
    tables = [text_table([s + "," for s in strings])] * (codes.shape[1] - 1)
    tables.append(text_table([s + "\n" for s in strings]))
    header = io.StringIO()
    csv.writer(header, lineterminator="\n").writerow(encoded.codebook.names)
    with open(path, "wb") as fh:
        fh.write(header.getvalue().encode("utf-8"))
        write_rows(fh, tables, list(codes.T), CHUNK_ROWS)


def read_encoded_csv(path, codebook: Codebook) -> EncodedDataset:
    """Parse a file written by :func:`write_encoded_csv` against ``codebook``.

    Blank lines are skipped. Errors name the file and the data row, counted
    1-based from the line after the header, blank lines included; a missing
    file is a :class:`TabularError`.

    The file is read as bytes and converted in numpy, ``8 * CHUNK_ROWS``
    lines at a time (:func:`synthbank.tabular.cell_blocks`): a code of 1 to
    18 ASCII digits is the sum of its digits times their place values,
    counted from its end (:func:`synthbank.tabular.digit_sum`), an integer
    below ``10**18`` that int64 holds exactly. The text reader, which
    converts stripped lines ``CHUNK_ROWS`` at a time with one integer
    conversion per chunk, reads the whole file instead when it is not
    UTF-8, its header line holds a CR that does not end it in CRLF, or a
    block holds a line end other than the header's (LF or CRLF), a blank
    line, a row without ``len(codebook) - 1`` commas, or a cell that is not
    1 to 18 digits. It returns the same codes, or raises the error.
    """
    n_cells = len(codebook)
    data = read_bytes(path)
    head = split_header(data) if n_cells else None
    if head is None:
        return EncodedDataset(_read_code_text(path, data, codebook), codebook, provenance=str(path))
    line, body, crlf = head
    check_header(path, _header_cells(line), codebook.names)
    codes = np.empty((count_lines(data, body), n_cells), dtype=np.int64)
    for first, block, edges in cell_blocks(data, body, crlf, n_cells, 8 * CHUNK_ROWS):
        if block is None or not _block_codes(block, edges, codes[first:]):
            codes = _read_code_text(path, data, codebook)
            break
    return EncodedDataset(codes, codebook, provenance=str(path))


def _read_code_text(path, data, codebook) -> np.ndarray:
    """The code matrix of the file ``data``, read as text ``CHUNK_ROWS`` lines at a time."""
    n_cells = len(codebook)
    chunks = [np.zeros((0, n_cells), dtype=np.int64)]
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8") as fh:
        check_header(path, _header_cells(fh.readline()), codebook.names)
        first_row = 1
        while lines := list(map(str.strip, islice(fh, CHUNK_ROWS))):
            chunks.append(_parse_code_lines(lines, n_cells, path, first_row))
            first_row += len(lines)
    return np.concatenate(chunks)


def _header_cells(line) -> list:
    """The names in the header line of an encoded CSV, as :mod:`csv` reads them."""
    return next(csv.reader([line.strip()]))


def _block_codes(block, edges, out) -> bool:
    """Write a block's codes to the head of ``out``; False if a cell is not 1 to 18 digits."""
    digits = block - np.uint8(ord("0"))  # a digit's value, 10 or more for any other byte
    is_digit = digits < 10
    # commas, CRs and LFs are no digits: every byte from the block's first
    # line on that is one must be a cell byte
    n_cell_bytes = (edges[-1] - edges[0] - 1).sum() - len(edges[0]) * (len(edges) - 2)
    if np.count_nonzero(is_digit[int(edges[0][0]) + 1 :]) != n_cell_bytes:
        return False
    digits *= is_digit
    for j, (before, ends) in enumerate(zip(edges, edges[1:])):
        widths = ends - before - 1
        if widths.min() < 1 or widths.max() > 18:
            return False
        out[: ends.size, j] = digit_sum(digits, before, ends)
    return True


def _parse_code_lines(lines, n_cells, path, first_row) -> np.ndarray:
    """Code matrix of one chunk of stripped lines, blank ones skipped.

    ``first_row`` is the data row number of ``lines[0]``. The comma count of
    every line is checked, then the whole chunk goes through one split and
    one integer conversion; only when that fails are the cells converted one
    by one, to locate the first bad one.
    """
    rows = [line for line in lines if line]
    if {line.count(",") for line in rows} - {n_cells - 1}:
        index, line = next(
            (i, line) for i, line in enumerate(lines) if line and line.count(",") != n_cells - 1
        )
        raise TabularError(
            f"{path}: row {first_row + index}: "
            f"expected {n_cells} cells, found {line.count(',') + 1}"
        )
    cells = ",".join(rows).split(",") if rows else []
    try:
        return np.asarray(cells, dtype=np.int64).reshape(len(rows), n_cells)
    except (ValueError, OverflowError):
        for index, line in enumerate(lines):
            for cell in line.split(",") if line else ():
                try:
                    np.asarray([cell], dtype=np.int64)
                except (ValueError, OverflowError):
                    raise TabularError(
                        f"{path}: row {first_row + index}: invalid integer code '{cell}'"
                    ) from None
        raise  # unreachable: the chunk fails to convert only if one of its cells does

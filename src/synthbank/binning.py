"""Numeric feature discretization and the codebook needed to decode it.

Two strategy families produce the all-categorical representation the
marginal mechanisms require: explicit domain cut-offs mirroring an
institution's reporting taxonomy, and data-driven rules (equal-frequency,
uniform width, exact 1-D k-means). Every binned column follows one interval
convention: half-open ``[a, b)`` bins with the final bin closed at its
upper edge, which keeps encode/decode bijective on bins.

An :class:`EncodedDataset` is stored as an encoded CSV of its codes;
:func:`write_encoded_csv` and :func:`read_encoded_csv` hand the codebook's
names and domain sizes to :mod:`synthbank.tabular`, which owns the bytes.

All operations are pure functions over immutable inputs; per-column
encoding could run in parallel, though the implementation is
single-threaded.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import tabular
from .checks import is_bool, is_int, is_real, reject_bools
from .tabular import Dataset

__all__ = [
    "BinningError",
    "BinningRule",
    "ColumnCodec",
    "Codebook",
    "EncodedDataset",
    "assign_codes",
    "table_rank",
    "draw_index",
    "explicit_bins",
    "equal_frequency_bins",
    "uniform_width_bins",
    "kmeans_1d",
    "log_pretransform",
    "check_rules",
    "encode_dataset",
    "write_encoded_csv",
    "read_encoded_csv",
]

EXPLICIT = "explicit_cutoffs"
EQUAL_FREQUENCY = "equal_frequency"
UNIFORM_WIDTH = "uniform_width"
KMEANS = "kmeans_1d"
_METHODS = (EXPLICIT, EQUAL_FREQUENCY, UNIFORM_WIDTH, KMEANS)
# the data-driven methods as their messages name them
_METHOD_NAMES = {EQUAL_FREQUENCY: "equal-frequency", UNIFORM_WIDTH: "uniform-width", KMEANS: "k-means"}

#: most entries a table may hold for :func:`table_rank` to rank by counting:
#: on a 2-vCPU x86_64 VM, with uniform values on 2-32 entries, counting took
#: 0.1-0.25 of ``np.searchsorted``'s time at 15k-40k values, 0.5-0.85 at
#: 3k-4k values, and 1.2-2.5 times it at 2k values
_COUNT_LIMIT = 32


class BinningError(ValueError):
    """Invalid discretization rule or value outside the declared domain."""


@dataclass(frozen=True)
class BinningRule:
    """Per-column discretization recipe.

    ``cutoffs`` drives the explicit method (strictly increasing, final value
    is the closed domain maximum); ``k`` drives the data-driven methods.
    ``floor`` is the first edge of explicit bins: the left edge of the
    open-below first bin, which the left-edge decoder returns for it; values
    below it still fall into that bin. ``log_pretransform`` bins in
    natural-log space and is only legal on strictly positive features.
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

    @property
    def value_edges(self) -> np.ndarray:
        """The bin edges in the column's own units: ``edges``, exponentiated
        for a log-flagged column."""
        edges = np.asarray(self.edges)
        return np.exp(edges) if self.log_flag else edges


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
    """All-categorical code matrix plus the codebook that decodes it.

    The ``(n, d)`` matrix is stored column-major (Fortran order), so each
    column's codes are one contiguous array: every reader of the codes (the
    marginal counts, the apps, decoding, the encoded CSV writer) reads them
    a column at a time. Codes of any order, or a 1-D array of rows, are
    accepted and stored so.
    """

    def __init__(self, codes, codebook: Codebook):
        codes = np.asarray(codes, dtype=np.int64)
        if codes.ndim != 2:
            codes = codes.reshape(len(codes), len(codebook)) if codes.size else codes.reshape(0, len(codebook))
        codes = np.asfortranarray(codes)
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
    idx = table_rank(edges, np.asarray(values, dtype=np.float64)) - 1
    return np.clip(idx, 0, len(edges) - 2).astype(np.int64)


def table_rank(table, values) -> np.ndarray:
    """``np.searchsorted(table, values, side="right")``: per value, the number
    of entries of the sorted, NaN-free ``table`` at or below it, with NaN
    ranked after every entry.

    A table of at most ``_COUNT_LIMIT`` entries is ranked by counting: each
    rank starts at ``len(table)`` and loses one for every entry its value
    lies below. ``values < entry`` is false for a NaN value and for ``-0.0``
    against ``0.0``, so NaN and ±0 rank as ``np.searchsorted`` ranks them.
    """
    table = np.asarray(table)
    values = np.asarray(values)
    if table.size > _COUNT_LIMIT:
        return np.searchsorted(table, values, side="right")
    below = np.zeros(values.shape, dtype=np.uint8)
    mask = np.empty(values.shape, dtype=bool)
    for entry in table.tolist():
        np.less(values, entry, out=mask)
        below += mask.view(np.uint8)
    return np.subtract(table.size, below, dtype=np.intp)


def draw_index(rng: np.random.Generator, p, size) -> np.ndarray:
    """``rng.choice(len(p), size=size, p=p)``, value for value, leaving ``rng``
    in the same state.

    A 1-D non-negative ``p`` that sums to 1 within 1e-10 takes
    ``Generator.choice``'s own steps faster: one ``rng.random(size)`` ranked
    (:func:`table_rank`) against the cumulative sums of ``p`` divided by
    their last. Any other ``p`` goes to ``rng.choice`` itself, which draws
    the same values or raises NumPy's own error.
    """
    q = np.asarray(p, dtype=np.float64)
    if q.ndim == 1 and q.size and q.min() >= 0:
        cdf = q.cumsum()
        # Generator.choice rejects a p whose Kahan sum is further than
        # sqrt(eps) = 1.5e-8 from 1. For non-negative p that sum and cdf[-1]
        # differ by under len(p) * eps, so a cdf[-1] within 1e-10 of 1
        # passes the check for any p short of tens of millions of entries.
        if abs(cdf[-1] - 1.0) <= 1e-10:
            cdf /= cdf[-1]
            return table_rank(cdf, rng.random(size))
    return rng.choice(len(p), size=size, p=p)


def explicit_bins(values, cutoffs, floor: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Encode against explicit cut-offs; one bin per cut-off.

    Bin ``i >= 1`` is ``[cutoffs[i-1], cutoffs[i])``; bin 0 is open below
    its upper cut-off; the final bin is closed at the stated maximum.
    Values above the final cut-off are out of domain. The edges are
    ``[floor, *cutoffs]``, taken from the rule alone: a value below the
    floor falls into bin 0 and moves no edge.
    """
    cut = np.asarray(cutoffs, dtype=np.float64)
    if cut.ndim != 1 or cut.size == 0:
        raise BinningError("cut-offs must be a non-empty list")
    if cut.size > 1 and not np.all(np.diff(cut) > 0):
        raise BinningError("cut-offs must be strictly increasing")
    vals = np.asarray(values, dtype=np.float64)
    _check_final_cutoff(vals, cut[-1])
    if floor >= cut[0]:
        raise BinningError(f"floor {floor:g} must lie below the first cut-off {cut[0]:g}")
    edges = np.concatenate([[floor], cut])
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
    _check_values(vals, EQUAL_FREQUENCY)
    if k < 1:
        raise BinningError("k must be >= 1")
    n = vals.size
    # the default sort may reorder -0.0 and 0.0, the only equal values whose
    # bits differ; writing the zeros back in input order gives the bits of
    # a stable sort
    sv = np.sort(vals)
    zero = vals == 0
    if zero.any():
        negative = np.count_nonzero(vals < 0)
        sv[negative : negative + np.count_nonzero(zero)] = vals[zero]
    # first occurrence index of each distinct value
    firsts = np.concatenate([[0], np.flatnonzero(np.diff(sv)) + 1])
    _check_k(k, firsts.size, EQUAL_FREQUENCY)

    # a tie group takes the bin of its first occurrence, rank * k // n, so a
    # bin starts at each group whose first rank enters a later bin
    starts = firsts[1:][np.diff((firsts * k) // n) > 0]
    m = starts.size + 1
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
    _check_values(vals, UNIFORM_WIDTH)
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

    Each DP layer but the last is solved by divide and conquer over the
    monotone split points (Grønlund et al. 2017; Wang & Song 2011), run
    level-synchronously: all nodes of one recursion depth are evaluated in a
    single vectorized pass, so a layer costs about log2(m) passes of O(m)
    work for m distinct values. The last layer is one O(m) pass over the
    splits of the whole range. Among candidate splits of equal cost the
    smallest split index wins, as with ``np.argmin``.
    """
    vals = np.asarray(values, dtype=np.float64)
    _check_values(vals, KMEANS)
    uniq, counts = np.unique(vals, return_counts=True)
    m = uniq.size
    if k < 1:
        raise BinningError("k must be >= 1")
    _check_k(k, m, KMEANS)

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

    for layer in range(1, k - 1):
        cur = np.full(m, np.inf)
        arg = np.zeros(m, dtype=np.int64)
        # prev shifted by one: shifted[i] is the cost of the prefix before i
        shifted = np.concatenate([[np.inf], prev])
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
            # seg_cost(cand, jm) with each node's right-end sums gathered once
            w = np.repeat(cw[jm + 1], lens) - cw[cand]
            s = np.repeat(cs[jm + 1], lens) - cs[cand]
            q = np.repeat(cq[jm + 1], lens) - cq[cand]
            costs = shifted[cand] + (q - s * s / w)
            mins = np.minimum.reduceat(costs, starts)
            # first position of each node's minimum (np.argmin's tie rule,
            # including its preference for the first NaN)
            hit = costs == np.repeat(mins, lens)
            if np.isnan(mins).any():
                hit |= np.isnan(costs)
            pos = np.flatnonzero(hit)
            best = cand[pos[np.searchsorted(pos, starts)]]
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
    if k > 1:
        # the backtrack reads only target m - 1 of the last layer
        cand = np.arange(k - 1, m)
        split_at[k - 1, m - 1] = k - 1 + np.argmin(prev[cand - 1] + seg_cost(cand, m - 1))

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


def check_rules(dataset: Dataset, rules: dict) -> None:
    """Raise the :class:`BinningError` :func:`encode_dataset` raises on
    ``dataset`` with ``rules``, if any, without binning.

    A numeric column needs a rule whose input checks its values pass: all
    positive under a log pre-transform, none above an explicit rule's final
    cut-off, and for a data-driven rule at least one value, and at least
    ``k`` distinct ones for equal-frequency and k-means bins.
    """
    for spec in dataset.schema:
        if spec.is_categorical:
            continue
        rule, vals = _rule_input(spec.name, dataset.column(spec.name), rules)
        try:
            if rule.method == EXPLICIT:
                _check_final_cutoff(vals, rule.cutoffs[-1])
            else:
                _check_values(vals, rule.method)
                if rule.method != UNIFORM_WIDTH:
                    _check_k(rule.k, np.unique(vals).size, rule.method)
        except BinningError as exc:
            raise BinningError(f"column '{spec.name}': {exc}") from None


def _rule_input(name, col, rules):
    """The rule of numeric column ``name`` and the values it bins: their logs
    under a log pre-transform. A missing rule or a failed log names the
    column; the rule's other input checks are :func:`check_rules`' and the
    bin functions'."""
    rule = rules.get(name)
    if rule is None:
        raise BinningError(f"numeric column '{name}' has no binning rule")
    if not rule.log_pretransform:
        return rule, col
    try:
        return rule, log_pretransform(col)
    except BinningError as exc:
        raise BinningError(f"column '{name}': {exc}") from None


def _check_final_cutoff(vals, last) -> None:
    """Raise unless every value lies at or below the final cut-off ``last``."""
    above = vals > last
    if np.any(above):
        i = int(np.flatnonzero(above)[0])
        raise BinningError(f"value {vals[i]:g} (row {i + 1}) above the final cut-off {last:g}")


def _check_values(vals, method) -> None:
    """Raise unless the data-driven ``method`` has a value to bin."""
    if vals.size == 0:
        raise BinningError(f"{_METHOD_NAMES[method]} binning needs at least one value")


def _check_k(k, distinct, method) -> None:
    """Raise unless ``distinct`` values are enough for ``method``'s ``k`` bins."""
    if k > distinct:
        hint = "; use a smaller k" if method == EQUAL_FREQUENCY else ""
        raise BinningError(f"k={k} exceeds the {distinct} distinct values{hint}")


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
        rule, vals = _rule_input(spec.name, col, rules)
        try:
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
    codes = np.empty((dataset.n_records, len(codecs)), dtype=np.int64, order="F")
    for j, column in enumerate(code_columns):
        codes[:, j] = column
    return EncodedDataset(codes, Codebook(codecs))


def write_encoded_csv(encoded: EncodedDataset, path) -> None:
    """Write the code matrix as an encoded CSV (:func:`synthbank.tabular.write_codes`)."""
    tabular.write_codes(encoded.codes, encoded.codebook.names, encoded.codebook.domain_sizes, path)


def read_encoded_csv(path, codebook: Codebook) -> EncodedDataset:
    """Parse an encoded CSV of ``codebook``'s columns (:func:`synthbank.tabular.read_codes`)."""
    return EncodedDataset(tabular.read_codes(path, codebook.names, codebook.domain_sizes), codebook)

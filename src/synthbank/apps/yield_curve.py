"""Term-deposit yield-curve evaluator.

Builds capital-weighted average rates per term bin from numeric microdata
(original, or synthetic after decoding), scores synthetic curves by the
maximum RMSE over periods, and fits two trend models: locally weighted
scatterplot smoothing and the six-parameter Svensson term structure.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ..binning import Codebook, assign_codes
from ..tabular import Dataset

__all__ = [
    "YieldError",
    "YieldPoint",
    "YieldCurve",
    "YieldRmseReport",
    "NssParams",
    "weighted_avg_rate",
    "build_yield_curves",
    "yield_rmse",
    "lowess",
    "nss_eval",
    "nss_fit",
    "DEFAULT_TAU_GRID",
]


class YieldError(ValueError):
    """Invalid yield-curve input."""


@dataclass(frozen=True)
class YieldPoint:
    """One term bin: weighted average rate, total capital, deposit count."""

    wai: float
    total_capital: float
    count: int


@dataclass(frozen=True)
class YieldCurve:
    """Curve for one (institution type, currency, period) group.

    ``points`` maps term-bin code to :class:`YieldPoint`; bins with no data
    are simply absent (missing, not zero).
    """

    key: tuple
    points: dict
    n_term_bins: int

    def terms(self) -> list[int]:
        return sorted(self.points)


def weighted_avg_rate(capitals, rates) -> float:
    """Capital-weighted average interest rate of one group of deposits."""
    capitals = np.asarray(capitals, dtype=np.float64)
    rates = np.asarray(rates, dtype=np.float64)
    if capitals.size == 0:
        raise YieldError("empty group has no weighted average rate")
    if np.any(capitals <= 0):
        raise YieldError("capitals must be positive")
    return float(np.sum(capitals * rates) / np.sum(capitals))


def build_yield_curves(
    data: Dataset,
    codebook: Codebook,
    *,
    type_column: str = "typeFI",
    period_column: str = "Period",
    currency_column: str = "Currency",
    capital_column: str = "Capital",
    term_column: str = "Term",
    rate_column: str = "InterestRate",
) -> dict:
    """Curves keyed by (type, currency, period), term-binned via the codebook.

    ``data`` holds numeric capital/term/rate cells: the original microdata,
    or synthetic microdata after decoding (the release pipeline decodes
    with the left bin edge). Total capital is conserved across bins.
    """
    for name in (type_column, period_column, currency_column, capital_column, term_column, rate_column):
        if name not in data.column_names:
            raise YieldError(f"required feature '{name}' missing from dataset")
    term_codec = codebook[term_column]
    terms = data.column(term_column)
    if term_codec.log_flag:
        terms = np.log(terms)
    term_codes = assign_codes(terms, term_codec.edges)
    n_bins = term_codec.domain_size

    # one stable sort by (type, currency, period, term code), each label
    # keyed by its rank among its column's sorted labels, so groups come
    # out in sorted label order and keep their rows in data order
    key = np.zeros(data.n_records, dtype=np.int64)
    group_labels = []
    for name in (type_column, currency_column, period_column):
        levels = data.spec(name).levels
        if not levels:
            raise YieldError(f"feature '{name}' must be categorical")
        by_label = sorted(range(len(levels)), key=levels.__getitem__)
        rank = np.empty(len(levels), dtype=np.int64)
        rank[by_label] = np.arange(len(levels))
        key = key * len(levels) + rank[data.column(name)]
        group_labels.append([levels[i] for i in by_label])
    key = key * n_bins + term_codes
    order = np.argsort(key, kind="stable")
    key = key[order]
    capital = data.column(capital_column)[order]
    rates = data.column(rate_column)[order]

    types, currencies, periods = group_labels
    points_by_group: dict[tuple, dict] = {}
    bounds = [0, *(np.flatnonzero(np.diff(key)) + 1).tolist(), key.size] if key.size else []
    for start, stop in zip(bounds, bounds[1:]):
        group, code = divmod(int(key[start]), n_bins)
        group, period = divmod(group, len(periods))
        type_, currency = divmod(group, len(currencies))
        points = points_by_group.setdefault((types[type_], currencies[currency], periods[period]), {})
        points[code] = YieldPoint(
            wai=weighted_avg_rate(capital[start:stop], rates[start:stop]),
            total_capital=float(capital[start:stop].sum()),
            count=stop - start,
        )
    return {
        group_key: YieldCurve(key=group_key, points=points, n_term_bins=n_bins)
        for group_key, points in points_by_group.items()
    }


@dataclass(frozen=True)
class YieldRmseReport:
    """Per-period RMSE over shared term bins, plus the maximum."""

    per_period: dict
    maximum: float
    excluded_bins: dict
    field: str


def yield_rmse(per_period_s: dict, per_period_o: dict, field: str = "wai") -> YieldRmseReport:
    """Max-over-periods RMSE between synthetic and original curves.

    Curves are compared over the term bins present in both; bins present on
    only one side are excluded and counted. Periods must match; a period
    with no overlapping bins is an error.
    """
    if set(per_period_s) != set(per_period_o):
        raise YieldError(
            f"period sets differ: {sorted(per_period_s)} vs {sorted(per_period_o)}"
        )
    if not per_period_s:
        raise YieldError("no periods to compare")
    per_period = {}
    excluded = {}
    for period in sorted(per_period_s):
        cs, co = per_period_s[period], per_period_o[period]
        common = sorted(set(cs.points) & set(co.points))
        excluded[period] = len(set(cs.points) ^ set(co.points))
        if not common:
            raise YieldError(f"period '{period}': no overlapping term bins")
        diffs = [
            getattr(cs.points[b], "wai" if field == "wai" else "total_capital")
            - getattr(co.points[b], "wai" if field == "wai" else "total_capital")
            for b in common
        ]
        per_period[period] = float(np.sqrt(np.mean(np.square(diffs))))
    return YieldRmseReport(
        per_period=per_period,
        maximum=max(per_period.values()),
        excluded_bins=excluded,
        field=field,
    )


def lowess(x, y, frac: float = 2.0 / 3.0, iters: int = 3) -> np.ndarray:
    """Locally weighted scatterplot smoothing (tricube + bisquare).

    Conventions, pinned for reproducibility: the window holds the
    ``r = max(2, ceil(frac * n))`` nearest neighbours of each point;
    tricube weights use the distance to the r-th nearest; the local model
    is a weighted least-squares line (weighted mean when the window is
    degenerate); ``iters`` bisquare reweightings follow the initial fit,
    scaled by six times the median absolute residual.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = x.size
    if n < 3:
        raise YieldError("lowess needs at least 3 points")
    if np.any(np.diff(x) < 0):
        raise YieldError("x must be sorted ascending")
    if x[0] == x[-1]:
        raise YieldError("degenerate input: all x equal")
    r = int(np.ceil(frac * n))
    r = max(2, min(r, n))
    if frac * n < 2:
        raise YieldError("frac too small: window must hold at least 2 points")

    dist = np.abs(x[:, None] - x[None, :])
    h = np.sort(dist, axis=1)[:, r - 1]
    base = np.zeros_like(dist)
    for i in range(n):
        if h[i] == 0:
            base[i] = (dist[i] == 0).astype(np.float64)
        else:
            u = np.clip(dist[i] / h[i], 0.0, 1.0)
            base[i] = (1.0 - u**3) ** 3

    delta = np.ones(n)
    fitted = np.zeros(n)
    for _ in range(iters + 1):
        for i in range(n):
            w = base[i] * delta
            sw = w.sum()
            swx = (w * x).sum()
            swx2 = (w * x * x).sum()
            swy = (w * y).sum()
            swxy = (w * x * y).sum()
            det = sw * swx2 - swx * swx
            if abs(det) <= 1e-12 * max(sw * swx2, 1e-300):
                fitted[i] = swy / sw if sw > 0 else y[i]
            else:
                slope = (sw * swxy - swx * swy) / det
                intercept = (swy - slope * swx) / sw
                fitted[i] = intercept + slope * x[i]
        residuals = y - fitted
        s = float(np.median(np.abs(residuals)))
        if s == 0:
            break
        u = np.clip(residuals / (6.0 * s), -1.0, 1.0)
        delta = (1.0 - u**2) ** 2
    return fitted


@dataclass(frozen=True)
class NssParams:
    """Svensson term-structure coefficients (rates in % p.a., taus in days)."""

    beta0: float
    beta1: float
    beta2: float
    beta3: float
    tau1: float
    tau2: float

    def __post_init__(self) -> None:
        if self.tau1 <= 0 or self.tau2 <= 0:
            raise YieldError("decay times must be positive")


def _nss_basis(t: np.ndarray, tau1: float, tau2: float) -> np.ndarray:
    u1 = t / tau1
    u2 = t / tau2
    f1 = -np.expm1(-u1) / u1
    f2 = f1 - np.exp(-u1)
    f3 = -np.expm1(-u2) / u2 - np.exp(-u2)
    return np.column_stack([np.ones_like(t), f1, f2, f3])


def nss_eval(params: NssParams, t) -> np.ndarray | float:
    """Svensson rate at maturity ``t`` (days, positive).

    The short end tends to ``beta0 + beta1`` and the long end to ``beta0``;
    both limits are handled by the numerically stable basis.
    """
    arr = np.asarray(t, dtype=np.float64)
    if np.any(arr <= 0):
        raise YieldError("maturity must be positive")
    basis = _nss_basis(np.atleast_1d(arr), params.tau1, params.tau2)
    coef = np.array([params.beta0, params.beta1, params.beta2, params.beta3])
    out = basis @ coef
    return float(out[0]) if np.isscalar(t) or arr.ndim == 0 else out


#: doubling tau grid, in days, capped at the longest reported tenor
DEFAULT_TAU_GRID = (15.0, 30.0, 60.0, 120.0, 240.0, 480.0, 960.0, 1920.0, 3600.0)


def nss_fit(
    terms,
    rates,
    weights=None,
    tau_grid=DEFAULT_TAU_GRID,
    refine_rounds: int = 2,
) -> tuple[NssParams, float]:
    """Profile grid search: betas solve by weighted linear least squares.

    The model is linear in the betas given the decay times, so every
    ``(tau1, tau2)`` grid cell is a least-squares solve; the best cell is
    refined by two rounds of local geometric search and only accepted when
    it improves. Returns the parameters and the weighted fit RMSE.

    Ill-conditioned cells (near-equal decay times, or very long decay
    times that make a factor collinear with the level) produce huge
    offsetting coefficients under plain least squares; a cell's solution
    is only accepted when every coefficient magnitude stays within a
    generous rate-unit bound, otherwise the fit falls back through the
    nested bases (drop the second hump, then the first, then slope).
    A rank-deficient four-factor basis additionally warns.
    """
    t = np.asarray(terms, dtype=np.float64)
    y = np.asarray(rates, dtype=np.float64)
    if t.size < 6:
        raise YieldError("need at least 6 points to fit the term structure")
    if np.unique(t).size < 3:
        raise YieldError("need at least 3 distinct terms")
    if np.any(t <= 0):
        raise YieldError("maturities must be positive")
    w = np.ones_like(t) if weights is None else np.asarray(weights, dtype=np.float64)
    if np.any(w <= 0):
        raise YieldError("weights must be positive")
    sw = np.sqrt(w / w.sum())

    saw_rank_deficiency = False
    beta_cap = 50.0  # rates live in percent; honest curve shapes stay far below

    # weighted basis columns of one decay time, by the expressions of
    # _nss_basis: [1, f1, f2] serve as tau1's first three columns and f2
    # as tau2's f3
    columns = {}

    def tau_columns(tau: float) -> np.ndarray:
        if tau not in columns:
            u = t / tau
            f1 = -np.expm1(-u) / u
            columns[tau] = np.column_stack([np.ones_like(t), f1, f1 - np.exp(-u)]) * sw[:, None]
        return columns[tau]

    def solve(tau1: float, tau2: float):
        nonlocal saw_rank_deficiency
        basis_w = np.concatenate([tau_columns(tau1), tau_columns(tau2)[:, 2:]], axis=1)
        yw = y * sw
        widths = (4, 3, 2, 1) if tau1 != tau2 else (3, 2, 1)
        beta = np.zeros(4)
        for ncols in widths:
            sub, _, rank, _ = np.linalg.lstsq(basis_w[:, :ncols], yw, rcond=None)
            if ncols == 4 and rank < 4:
                saw_rank_deficiency = True
                continue
            if np.max(np.abs(sub)) <= beta_cap:
                beta[:ncols] = sub
                break
        else:
            # intercept-only: the weighted mean rate, always within the cap
            beta[0] = float(np.sum(yw * sw))
        rmse = float(np.sqrt(np.sum((basis_w @ beta - yw) ** 2)))
        return beta, rmse

    # a cell solved again gives the same rmse, which cannot beat the best
    # by the 1e-15 margin, so every cell is solved at most once
    solved = set()
    best = None  # (rmse, tau1, tau2, beta)

    def consider(tau1: float, tau2: float) -> None:
        nonlocal best
        if (tau1, tau2) in solved:
            return
        solved.add((tau1, tau2))
        beta, rmse = solve(tau1, tau2)
        if best is None or rmse < best[0] - 1e-15:
            best = (rmse, tau1, tau2, beta)

    for tau1 in tau_grid:
        for tau2 in tau_grid:
            consider(tau1, tau2)
    grid_best = best[0]

    tau_lo, tau_hi = min(tau_grid) / 2.0, max(tau_grid) * 2.0
    for _ in range(refine_rounds):
        factors = np.geomspace(0.6, 1.0 / 0.6, 7)
        for tau1 in np.clip(best[1] * factors, tau_lo, tau_hi):
            for tau2 in np.clip(best[2] * factors, tau_lo, tau_hi):
                consider(float(tau1), float(tau2))

    assert best[0] <= grid_best + 1e-12  # refinement only ever improves
    if saw_rank_deficiency:
        warnings.warn("rank-deficient term-structure basis; dropped beta3", stacklevel=2)
    rmse, tau1, tau2, beta = best
    params = NssParams(
        beta0=float(beta[0]),
        beta1=float(beta[1]),
        beta2=float(beta[2]),
        beta3=float(beta[3]),
        tau1=tau1,
        tau2=tau2,
    )
    return params, rmse

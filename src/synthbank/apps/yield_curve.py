"""Term-deposit yield-curve evaluator.

Builds capital-weighted average rates per term bin from numeric microdata
(original, or synthetic after decoding) and the term codes of its rows,
scores synthetic curves by the maximum RMSE over periods, and fits two
trend models: locally weighted scatterplot smoothing and the six-parameter
Svensson term structure.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.linalg._umath_linalg import lstsq as _lstsq_gufunc

from ..binning import EncodedDataset
from ..population import DepositMarketConfig, generate_term_deposits, svensson_loadings
from ..presets import deposit_rules
from ..tabular import Dataset, load_schema, read_csv

__all__ = [
    "YieldError",
    "YieldPoint",
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


def weighted_avg_rate(capitals, rates) -> float:
    """Capital-weighted average interest rate of one group of deposits."""
    capitals = np.asarray(capitals, dtype=np.float64)
    rates = np.asarray(rates, dtype=np.float64)
    if capitals.size == 0:
        raise YieldError("empty group has no weighted average rate")
    if np.any(capitals <= 0):
        raise YieldError("capitals must be positive")
    return float(np.sum(capitals * rates) / np.sum(capitals))


def build_yield_curves(data: Dataset, codes: EncodedDataset) -> dict:
    """Curves keyed by (typeFI, Currency, Period), each a dict from term
    code to :class:`YieldPoint`; a term bin with no deposits is absent
    (missing, not zero).

    ``data`` holds numeric Capital and InterestRate cells: the original
    microdata, or synthetic microdata after decoding. ``codes`` is the
    encoded dataset of the same rows (``encoded`` for the original rows,
    ``synthetic`` for the decoded ones), whose ``Term`` codes bin each row:
    the ``Term`` values are not read. Total capital is conserved across bins.
    """
    for name in ("typeFI", "Period", "Currency", "Capital", "InterestRate"):
        if name not in data.column_names:
            raise YieldError(f"required feature '{name}' missing from dataset")
    if codes.n_records != data.n_records:
        raise YieldError(f"{codes.n_records} coded rows for {data.n_records} data rows")
    term_codes = codes.column_codes("Term")
    n_bins = codes.codebook["Term"].domain_size

    # one stable sort by (type, currency, period, term code), each label
    # keyed by its rank among its column's sorted labels, so groups come
    # out in sorted label order and keep their rows in data order; the keys
    # are sorted in their smallest unsigned type, which NumPy radix-sorts up
    # to 16 bits, and a stable sort's order is the same in any type
    key = np.zeros(data.n_records, dtype=np.int64)
    group_labels = []
    for name in ("typeFI", "Currency", "Period"):
        levels = data.spec(name).levels
        if not levels:
            raise YieldError(f"feature '{name}' must be categorical")
        by_label = sorted(range(len(levels)), key=levels.__getitem__)
        rank = np.empty(len(levels), dtype=np.int64)
        rank[by_label] = np.arange(len(levels))
        key = key * len(levels) + rank[data.column(name)]
        group_labels.append([levels[i] for i in by_label])
    key = key * n_bins + term_codes
    order = np.argsort(key.astype(np.min_scalar_type(int(key.max(initial=0)))), kind="stable")
    key = key[order]
    capital = data.column("Capital")[order]
    if np.any(capital <= 0):
        raise YieldError("capitals must be positive")
    weighted = capital * data.column("InterestRate")[order]

    types, currencies, periods = group_labels
    curves: dict[tuple, dict] = {}
    bounds = [0, *(np.flatnonzero(np.diff(key)) + 1).tolist(), key.size] if key.size else []
    for start, stop in zip(bounds, bounds[1:]):
        group, code = divmod(int(key[start]), n_bins)
        group, period = divmod(group, len(periods))
        type_, currency = divmod(group, len(currencies))
        points = curves.setdefault((types[type_], currencies[currency], periods[period]), {})
        total = np.sum(capital[start:stop])  # weighted_avg_rate's sums, made once
        points[code] = YieldPoint(
            wai=float(np.sum(weighted[start:stop]) / total), total_capital=float(total), count=stop - start
        )
    return curves


@dataclass(frozen=True)
class YieldRmseReport:
    """Per-period RMSE over shared term bins, plus the maximum."""

    per_period: dict
    maximum: float
    excluded_bins: dict


def yield_rmse(per_period_s: dict, per_period_o: dict, field: str = "wai") -> YieldRmseReport:
    """Max-over-periods RMSE between synthetic and original curves.

    Each argument maps a period to its curve, a dict from term code to
    :class:`YieldPoint` as :func:`build_yield_curves` returns it. Curves
    are compared over the term bins present in both; bins present on
    only one side are excluded and counted. Periods must match; a period
    with no overlapping bins is an error. ``field`` is ``"wai"`` or
    ``"total_capital"``.
    """
    if field not in ("wai", "total_capital"):
        raise YieldError(f"unknown field '{field}': expected 'wai' or 'total_capital'")
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
        common = sorted(set(cs) & set(co))
        excluded[period] = len(set(cs) ^ set(co))
        if not common:
            raise YieldError(f"period '{period}': no overlapping term bins")
        diffs = [getattr(cs[b], field) - getattr(co[b], field) for b in common]
        per_period[period] = float(np.sqrt(np.mean(np.square(diffs))))
    return YieldRmseReport(
        per_period=per_period, maximum=max(per_period.values()), excluded_bins=excluded
    )


def _check_lowess(x: np.ndarray, frac: float = 2.0 / 3.0) -> None:
    """Raise :class:`YieldError` unless :func:`lowess` can smooth the curves at ``x``."""
    n = x.shape[-1]
    if n < 3:
        raise YieldError("lowess needs at least 3 points")
    if np.any(np.diff(x) < 0):
        raise YieldError("x must be sorted ascending")
    if np.any(x[..., 0] == x[..., -1]):
        raise YieldError("degenerate input: all x equal")
    if frac * n < 2:
        raise YieldError("frac too small: window must hold at least 2 points")


def lowess(x, y, frac: float = 2.0 / 3.0, iters: int = 3) -> np.ndarray:
    """Locally weighted scatterplot smoothing (tricube + bisquare).

    Conventions, pinned for reproducibility: the window holds the
    ``r = max(2, ceil(frac * n))`` nearest neighbours of each point;
    tricube weights use the distance to the r-th nearest; the local model
    is a weighted least-squares line (weighted mean when the window is
    degenerate); ``iters`` bisquare reweightings follow the initial fit,
    scaled by six times the median absolute residual.

    Given ``(k, n)`` arrays, one curve per row, it smooths them all in one
    pass per iteration, each row bit for bit the fit of its curve alone: a
    curve stops iterating on its own when its residual median reaches 0.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _check_lowess(x, frac)
    stacked = x.ndim == 2
    x, y = np.atleast_2d(x, y)
    n = x.shape[1]
    r = max(2, min(int(np.ceil(frac * n)), n))
    fitted = np.zeros_like(x)

    dist = np.abs(x[:, :, None] - x[:, None, :])
    h = np.sort(dist, axis=2)[:, :, r - 1 : r]
    # a row whose window has zero width weights its ties alone; each
    # division is made only on the rows whose branch takes it
    u = np.clip(np.divide(dist, h, out=np.zeros_like(dist), where=h > 0), 0.0, 1.0)
    base = np.where(h == 0, (dist == 0).astype(np.float64), (1.0 - u**3) ** 3)

    live = np.arange(len(x))  # the curves still iterating, with their rows below
    delta = np.ones_like(y)
    for _ in range(iters + 1):
        w = base * delta[:, None, :]
        xj, yj = x[:, None, :], y[:, None, :]
        sw = w.sum(axis=2)
        swx = (w * xj).sum(axis=2)
        swx2 = (w * xj * xj).sum(axis=2)
        swy = (w * yj).sum(axis=2)
        swxy = (w * xj * yj).sum(axis=2)
        det = sw * swx2 - swx * swx
        degenerate = np.abs(det) <= 1e-12 * np.maximum(sw * swx2, 1e-300)
        # a degenerate window takes the weighted mean, and the point's own
        # rate when it has no weight at all
        mean = np.divide(swy, sw, out=y.copy(), where=sw > 0)
        line = ~degenerate
        slope = np.divide(sw * swxy - swx * swy, det, out=np.zeros_like(y), where=line)
        intercept = np.divide(swy - slope * swx, sw, out=np.zeros_like(y), where=line)
        fit = np.where(degenerate, mean, intercept + slope * x)
        fitted[live] = fit
        residuals = y - fit
        s = np.median(np.abs(residuals), axis=1)
        go = s != 0
        live, x, y, base, residuals, s = (a[go] for a in (live, x, y, base, residuals, s))
        u = np.clip(residuals / (6.0 * s[:, None]), -1.0, 1.0)
        delta = (1.0 - u**2) ** 2
    return fitted if stacked else fitted[0]


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
    f1, f2 = svensson_loadings(t / tau1)
    return np.column_stack([np.ones_like(t), f1, f2, svensson_loadings(t / tau2)[1]])


def nss_eval(params: NssParams, t) -> np.ndarray | float:
    """Svensson rate at maturity ``t`` (days, positive).

    The short end tends to ``beta0 + beta1`` and the long end to ``beta0``;
    both limits are handled by the numerically stable basis. Each rate is
    its own 1-row product, so a vector call gives every maturity the bits
    of a scalar call.
    """
    arr = np.asarray(t, dtype=np.float64)
    if np.any(arr <= 0):
        raise YieldError("maturity must be positive")
    basis = _nss_basis(np.atleast_1d(arr), params.tau1, params.tau2)
    coef = np.array([params.beta0, params.beta1, params.beta2, params.beta3])
    out = (basis[:, None, :] @ coef)[:, 0]
    return float(out[0]) if np.isscalar(t) or arr.ndim == 0 else out


#: doubling tau grid, in days, capped at the longest reported tenor
DEFAULT_TAU_GRID = (15.0, 30.0, 60.0, 120.0, 240.0, 480.0, 960.0, 1920.0, 3600.0)


def _raise_lstsq_error(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def _lstsq_stack(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares solutions and ranks of a stack of systems in one call.

    ``a`` is ``(k, m, n)`` and ``b`` holds one right-hand side per matrix,
    ``(k, m)``, or one for all of them, ``(m,)``; returns the ``(k, n)``
    solutions and the ``(k,)`` ranks. This is the gufunc call of
    ``np.linalg.lstsq`` with its default ``rcond``, made once for the whole
    stack: every matrix gets the bits and the rank of its own
    ``np.linalg.lstsq(a[i], b[i], rcond=None)``, and an SVD that does not
    converge raises ``LinAlgError`` in the same way.
    """
    m, n = a.shape[-2:]
    rcond = np.finfo(np.float64).eps * max(m, n)
    with np.errstate(
        call=_raise_lstsq_error, invalid="call", over="ignore", divide="ignore", under="ignore"
    ):
        x, _, rank, _ = _lstsq_gufunc(a, b[..., None], rcond, signature="ddd->ddid")
    return x[..., 0], rank


def _check_curve(t: np.ndarray, w: np.ndarray) -> None:
    """Raise :class:`YieldError` unless :func:`nss_fit` can fit this curve."""
    if t.size < 6:
        raise YieldError("need at least 6 points to fit the term structure")
    if np.unique(t).size < 3:
        raise YieldError("need at least 3 distinct terms")
    if np.any(t <= 0):
        raise YieldError("maturities must be positive")
    if np.any(w <= 0):
        raise YieldError("weights must be positive")


#: a cell's coefficients must stay within this many rate units (percent):
#: honest curve shapes stay far below it
_BETA_CAP = 50.0
#: a cell replaces the best only when its rmse is lower by more than this
_MARGIN = 1e-15
#: the screen's rounding slack per point and unit of scale, 256 machine
#: epsilons (see nss_fit)
_SCREEN_SLACK = 2.0**-44
#: the least Gram-Schmidt column norm, as a fraction of the level column's,
#: of a four-factor cell that the screen may leave unsolved (see nss_fit)
_SCREEN_GUARD = 2.0**-20
# 1 where a row of the inverse has no entry left of its diagonal: its
# coefficient is 0 there, and so is its excess
_BELOW_DIAGONAL = np.tri(4, k=-1)[:, :, None]


def _nss_columns(t: np.ndarray, sw: np.ndarray, tau1: np.ndarray, tau2: np.ndarray) -> list:
    # each cell's weighted [1, f1, f2] columns of tau1, as in _nss_basis,
    # and f2 of tau2, which is the basis's f3: four (cells, points) arrays
    f1, f2 = svensson_loadings(t / tau1[:, None])
    return [sw, f1 * sw, f2 * sw, svensson_loadings(t / tau2[:, None])[1] * sw]


def _screen(a: np.ndarray, full: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each cell's lower bound on its rmse, whichever basis it ends with,
    and the four-factor cells that the rank guard keeps (see :func:`nss_fit`).

    ``a`` is ``(5, points, cells)``: the four weighted columns of each
    cell, then its weighted rates. It is overwritten.
    """
    n = a.shape[2]
    # modified Gram-Schmidt: the triangular factor of each cell's columns,
    # with the rates' coordinates along the orthonormal columns as column 4
    r = np.zeros((4, 5, n))
    outside = np.empty((4, n))  # squared residual of the rates outside the first 1-4 columns
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(4):
            np.sqrt(np.einsum("in,in->n", a[k], a[k]), out=r[k, k])
            q = np.divide(a[k], r[k, k], out=a[k])
            np.einsum("in,jin->jn", q, a[k + 1 :], out=r[k, k + 1 :])
            a[k + 1 :] -= r[k, k + 1 :, None] * q
            if k >= 2:
                np.einsum("in,in->n", a[4], a[4], out=outside[k])
        outside[1] = outside[2] + r[2, 4] ** 2
        outside[0] = outside[1] + r[1, 4] ** 2
        # the rows x of the factor's inverse, each by forward substitution
        # in x R = e_i, so that x R - e_i stays small whatever R's condition
        inverse = np.zeros((4, 4, n))
        for j in range(4):
            np.divide(1.0, r[j, j], out=inverse[j, j])
            if j:
                np.einsum("iln,ln->in", inverse[:j, :j], r[:j, j], out=inverse[:j, j])
                inverse[:j, j] *= -inverse[j, j]
        # [i, w - 1]: coefficient i of the least-squares fit on the first w
        # columns, and the squared norm of row i of their factor's inverse
        beta = inverse * r[:, 4]
        norm = inverse**2
        for j in range(1, 4):
            beta[:, j] += beta[:, j - 1]
            norm[:, j] += norm[:, j - 1]
        excess = (np.maximum(np.abs(beta) - _BETA_CAP, 0.0) ** 2 / (norm + _BELOW_DIAGONAL)).max(axis=0)
        within = outside[1:] + excess[1:]
        within[2] = np.where(full, within[2], np.inf)
        bound = np.minimum(outside[0], within.min(axis=0))
    diagonal = r[np.arange(4), np.arange(4)]
    guard = full & ~(diagonal.min(axis=0) >= _SCREEN_GUARD * diagonal[0])
    return np.sqrt(bound), guard


def nss_fit(
    terms,
    rates,
    weights=None,
    tau_grid=DEFAULT_TAU_GRID,
    refine_rounds: int = 2,
) -> tuple[NssParams, float] | list[tuple[NssParams, float]]:
    """Profile grid search: betas solve by weighted linear least squares.

    The model is linear in the betas given the decay times, so every
    ``(tau1, tau2)`` grid cell is a least-squares solve; the best cell is
    refined by two rounds of local geometric search and only accepted when
    it improves. Returns the parameters and the weighted fit RMSE. Given
    ``(k, m)`` arrays, one curve per row, it returns ``k`` such pairs, each
    bit for bit the pair of its row fitted alone.

    Ill-conditioned cells (near-equal decay times, or very long decay
    times that make a factor collinear with the level) produce huge
    offsetting coefficients under plain least squares; a cell's solution
    is only accepted when every coefficient magnitude stays within a
    generous rate-unit bound, otherwise the fit falls back through the
    nested bases (drop the second hump, then the first, then slope).
    Each curve whose four-factor basis is ever rank-deficient warns once.

    All curves are searched in step: the grid is one step, and each
    refinement round is one step per ``tau1`` row. A round's ``tau1`` values
    come from each curve's best cell at the start of the round and a row's
    ``tau2`` values from its best cell after the previous row, as in a
    cell-by-cell search, where the first cell to beat the best by more than
    1e-15 wins.

    **Screen.** Most cells cannot win, and a bound proves it before any
    solve. Modified Gram-Schmidt on each cell's weighted columns, then its
    weighted rates, in plain ufuncs over all cells of a step, gives the
    triangular factor ``R`` of the first ``w`` columns, the rates'
    coordinates and their residual ``rho_w`` outside those columns, for
    ``w`` = 1 to 4. Whatever a cell ends with has coefficients ``b`` within
    the cap on some width ``w`` (``rank == 4`` too at width 4), or is the
    intercept-only mean, whose residual is ``rho_1``. For such ``b``,
    ``|B b - y|**2 = rho_w**2 + |R (b - x)|**2`` with ``x`` the width's
    least-squares coefficients, and ``|R (b - x)|`` is at least
    ``(|x_i| - cap) / |row i of R^-1|`` for every ``i``. So the least over
    the widths (4 only with two decay times) of ``rho_w`` and that excess,
    and ``rho_1``, bounds the cell's rmse from below: ``rho_4`` (``rho_3``
    when ``tau1 == tau2``) for a cell within the cap, and about its
    fallback's rmse for one past it. The rows of ``R^-1`` come from forward
    substitution in ``x R = e_i``, so that any error in them only scales
    the excess by ``1 + O(eps)``.

    **Slack.** Gram-Schmidt on ``[B y]`` is backward stable for ``R``, the
    coordinates and ``rho`` (Bjorck and Paige 1992): the computed bound is
    the exact bound of columns and rates moved by a few ``m * eps`` times
    their norms. The weights are normalised, so no column's norm exceeds 1,
    and ``b`` stays in the cap's box, so that moves the bound by at most a
    few ``m * eps * (cap + |y|)``; the rmse's own rounding is of the same
    size. The slack, ``2**-44 * (m + 8) * 8 * (cap + |y|)``, is 256 machine
    epsilons per point and unit of that scale: on 480,000 random cells
    (terms of 1 to 4,000 days, weights over ten decades, rates from noise
    to exact Svensson curves) the bound never came above the rmse by more
    than 1e-5 of it.

    **Which cells are solved.** In the grid step, no curve has a best yet,
    so each first solves one witness, its cell of least bound. Then each
    step solves, through :func:`_lstsq_stack` and the fallbacks, every cell
    whose bound minus the slack is not above the best so far (the witness,
    or the best before the step) plus 1e-15, and every cell the guard
    keeps. A cell visited again is screened again: its bound rules it out
    unless it ties the best, and solved again it cannot win. Only a strict
    prefix minimum of the solved rmses in visit order can replace the best,
    and the last of them wins unless two of them are within 1e-15, where
    the margin rule is replayed among them.

    **Exactness.** A skipped cell's bound minus the slack is above
    ``M + 1e-15``, ``M`` the best before the step or, in the grid step, the
    least rmse of the cells solved first; so its rmse exceeds ``M + 1e-15``
    by more than the slack's second part, ``(n + 2) * (1e-15 + 2**-51 *
    |y|)``, ``n`` the cells a curve visits in the step. If ``M`` is the best
    before the step, no skipped cell can beat it by the margin. If ``M`` is
    the rmse of a solved cell ``c``, a skipped cell may win in the
    cell-by-cell search before ``c``, and the two searches then part. But a
    cell that wins in one search and not the other is within the margin,
    plus rounding, of the other's best, so fewer than ``n`` such steps
    cannot bring either best down to ``c``'s level plus the margin: ``c``
    wins in both, or they already agree, and after ``c`` no skipped cell
    can win. So both searches end with the same best.

    **Guard.** ``_lstsq_stack`` calls a basis rank-deficient when its
    smallest singular value is below about ``m * eps`` times its largest
    (which is 1 to 2 here). A cell whose Gram-Schmidt column norms all stay
    above ``2**-20`` of the level column's is far from that: on 243,000
    random cells, every rank-deficient basis had a column norm below
    ``3.3e-10`` of the level's. The cells below the guard are solved, so
    every curve that had a rank-deficient basis still warns. On the
    benchmark's yield curves the guard keeps about 1 cell in 2,000.
    """
    t = np.asarray(terms, dtype=np.float64)
    y = np.asarray(rates, dtype=np.float64)
    w = np.ones_like(t) if weights is None else np.asarray(weights, dtype=np.float64)
    if t.ndim not in (1, 2) or not t.shape == y.shape == w.shape:
        raise YieldError("terms, rates and weights must be 1-D or 2-D arrays of one shape")
    t, y, w = np.atleast_2d(t, y, w)
    for row_t, row_w in zip(t, w):
        _check_curve(row_t, row_w)
    sw = np.sqrt(w / w.sum(axis=1, keepdims=True))
    yw = y * sw
    k, m = t.shape
    # each curve's rounding slack, and the part that grows with the number
    # of cells a step visits (see the docstring)
    size = np.sqrt(np.sum(yw**2, axis=1))
    slack = _SCREEN_SLACK * (m + 8) * 8.0 * (_BETA_CAP + size)
    per_cell = _MARGIN + 2.0**-51 * size

    rank_deficient = np.zeros(k, dtype=bool)
    best_rmse = np.full(k, np.inf)
    best_beta = np.zeros((k, 4))
    best_tau = np.zeros((k, 2))
    best_grid = np.full(k, -1)  # the grid cell of each best, -1 once refined

    def solve(basis, yw_cells, curve, tau1, full):
        """The rmse and betas of the given cells, each from the first basis
        width whose coefficients stay within the cap."""
        betas = np.zeros((len(curve), 4))
        accepted = np.zeros(len(curve), dtype=bool)
        if full.any():
            sub, rank = _lstsq_stack(basis[full], yw_cells[full])
            rank_deficient[curve[full][rank < 4]] = True
            betas[full] = sub
            accepted[full] = (rank == 4) & (np.max(np.abs(sub), axis=1) <= _BETA_CAP)
        rejected = np.flatnonzero(~accepted)
        if rejected.size:
            # widths 3 and 2 use tau1's columns alone, and width 1 no decay
            # time: each curve and tau1 falls back once
            _, first, back = np.unique(
                curve[rejected] + 1j * tau1[rejected], return_index=True, return_inverse=True
            )
            rows = rejected[first]
            fallback = np.zeros((rows.size, 4))
            pending = np.arange(rows.size)
            for ncols in (3, 2, 1):
                if not pending.size:
                    break
                sub, _ = _lstsq_stack(basis[rows[pending], :, :ncols], yw_cells[rows[pending]])
                within = np.max(np.abs(sub), axis=1) <= _BETA_CAP
                fallback[pending[within], :ncols] = sub[within]
                pending = pending[~within]
            # intercept only: the weighted mean rate
            c = curve[rows[pending]]
            fallback[pending, 0] = np.sum(yw[c] * sw[c], axis=1)
            betas[rejected] = fallback[back]
        residuals = (basis @ betas[:, :, None])[:, :, 0] - yw_cells
        return np.sqrt(np.sum(residuals**2, axis=1)), betas

    def consider(tau1: np.ndarray, tau2: np.ndarray, from_grid: bool = False) -> None:
        """Visit each curve's cells ``(tau1, tau2)`` in order along the rows:
        ``(k, n)`` arrays, or ``(1, n)`` for every curve alike."""
        n = tau2.shape[1]
        tau1, tau2 = (np.broadcast_to(a, (k, n)).ravel() for a in (tau1, tau2))
        curve = np.repeat(np.arange(k), n)
        basis = np.stack(_nss_columns(t[curve], sw[curve], tau1, tau2), axis=2)
        yw_cells = yw[curve]
        full = tau1 != tau2
        bound, guard = _screen(np.concatenate([basis, yw_cells[:, :, None]], axis=2).T.copy(), full)
        bound -= np.repeat(slack + (n + 2) * per_cell, n)
        rmse = np.full(k * n, np.inf)  # of the cells solved
        betas = np.zeros((k * n, 4))
        table = rmse.reshape(k, n)  # the same, by curve and visit order

        def solve_rows(rows):
            rmse[rows], betas[rows] = solve(basis[rows], yw_cells[rows], curve[rows], tau1[rows], full[rows])

        rest = np.ones(k * n, dtype=bool)
        if from_grid:
            # no curve has a best yet: each first solves its witness, the
            # cell of least bound, with the cells the guard keeps
            rest = ~guard
            rest[np.argmin(np.where(guard, np.inf, bound).reshape(k, n), axis=1) + n * np.arange(k)] = False
            solve_rows(np.flatnonzero(~rest))
        # then every cell whose bound the best so far does not rule out
        bar = np.minimum(best_rmse, table.min(axis=1)) + _MARGIN
        rows = np.flatnonzero(rest & (guard | ~(bound > np.repeat(bar, n))))
        if rows.size:
            solve_rows(rows)
        elif not from_grid:
            return  # nothing solved, so nothing can win

        # only a strict prefix minimum in visit order can replace the best;
        # when each beats the one before by the margin, the last one wins
        before = np.minimum.accumulate(np.concatenate([best_rmse[:, None], table[:, :-1]], axis=1), axis=1)
        candidate = table < before
        winner = np.where(candidate.any(axis=1), np.argmin(table, axis=1), -1)
        for c in np.flatnonzero((candidate & ~(table < before - _MARGIN)).any(axis=1)):
            best, winner[c] = best_rmse[c], -1  # a near tie: replay the margin rule
            for j in np.flatnonzero(candidate[c]):
                if table[c, j] < best - _MARGIN:
                    best, winner[c] = table[c, j], j
        won = np.flatnonzero(winner >= 0)
        i = n * won + winner[won]
        best_rmse[won] = rmse[i]
        best_beta[won] = betas[i]
        best_tau[won] = np.stack([tau1[i], tau2[i]], axis=1)
        best_grid[won] = winner[won] if from_grid else -1

    grid = np.asarray(tau_grid, dtype=np.float64)
    consider(np.repeat(grid, grid.size)[None], np.tile(grid, grid.size)[None], from_grid=True)
    grid_best = best_rmse.copy()

    tau_lo, tau_hi = min(tau_grid) / 2.0, max(tau_grid) * 2.0
    factors = np.geomspace(0.6, 1.0 / 0.6, 7)

    def around(i: int) -> np.ndarray:  # each curve's best tau_i, scaled by each factor
        return np.clip(best_tau[:, i, None] * factors, tau_lo, tau_hi)

    for _ in range(refine_rounds):
        for tau1 in around(0).T:
            consider(tau1[:, None], around(1))

    # refinement only ever improves
    assert np.all(best_rmse <= grid_best + 1e-12)
    for _ in range(np.count_nonzero(rank_deficient)):
        warnings.warn("rank-deficient term-structure basis; dropped beta3", stacklevel=2)
    cells = [(tau1, tau2) for tau1 in tau_grid for tau2 in tau_grid]
    fits = [
        (
            NssParams(*(float(b) for b in beta), *(cells[j] if j >= 0 else map(float, taus))),
            float(rmse),
        )
        for rmse, beta, taus, j in zip(best_rmse, best_beta, best_tau, best_grid)
    ]
    return fits if np.ndim(terms) == 2 else fits[0]


# ---------------------------------------------- the yield application (see apps)

POPULATION = DepositMarketConfig
INPUT_FILES = ("data", "schema")
EXTRA = None
rules = deposit_rules
PAIRED = ()
#: the rate against every other column, plus term against capital
WORKLOAD = [
    ("Term", "InterestRate"),
    ("Capital", "InterestRate"),
    ("Term", "Capital"),
    ("Period", "InterestRate"),
    ("Currency", "InterestRate"),
    ("typeFI", "InterestRate"),
]


def prepare(population: DepositMarketConfig, files: dict, rng: np.random.Generator):
    """The term-deposit microdata, read from ``files`` or generated."""
    if files:
        return read_csv(files["data"], load_schema(files["schema"])), None
    return generate_term_deposits(population, rng), None


def evaluate(original, extra, encoded, synthetic, decoded, strategy):
    """Max WAI RMSE per (type, currency) group between the original and the
    decoded synthetic curves, plus LOWESS and Svensson fits of each
    synthetic curve for the plot table: one call of each fits every curve of
    one length that passes its checks, and a curve that fails them is left
    without that fit."""
    curves_o = build_yield_curves(original, encoded)
    curves_s = build_yield_curves(decoded, synthetic)
    term_edges = encoded.codebook["Term"].value_edges

    groups: dict = {}
    group_keys = sorted({(k[0], k[1]) for k in curves_o} | {(k[0], k[1]) for k in curves_s})
    wai_max_overall = None
    for gkey in group_keys:
        per_period_o = {k[2]: c for k, c in curves_o.items() if (k[0], k[1]) == gkey}
        per_period_s = {k[2]: c for k, c in curves_s.items() if (k[0], k[1]) == gkey}
        shared_periods = sorted(set(per_period_o) & set(per_period_s))
        entry: dict = {"periods_excluded": len(set(per_period_o) ^ set(per_period_s))}
        try:
            if not shared_periods:
                raise YieldError("no shared periods with data")
            sub_o = {p: per_period_o[p] for p in shared_periods}
            sub_s = {p: per_period_s[p] for p in shared_periods}
            wai = yield_rmse(sub_s, sub_o, field="wai")
            tc = yield_rmse(sub_s, sub_o, field="total_capital")
            entry.update(
                {
                    "wai_rmse_per_period": wai.per_period,
                    "wai_rmse_max": wai.maximum,
                    "tc_rmse_max": tc.maximum,
                    "excluded_bins": wai.excluded_bins,
                }
            )
            if wai_max_overall is None or wai.maximum > wai_max_overall:
                wai_max_overall = wai.maximum
        except YieldError as exc:
            entry["error"] = str(exc)
        groups["|".join(gkey)] = entry

    # plot-ready points with trend fits per synthetic curve
    rows = [
        (
            "type,currency,period,term_bin,term_left_days,"
            "wai_original,tc_original,count_original,"
            "wai_synthetic,tc_synthetic,count_synthetic,lowess_synthetic,nss_synthetic"
        ).split(",")
    ]
    smooth: dict = {}  # key -> {term bin: LOWESS value}
    fits: dict = {}  # key -> (params, rmse), or the error text
    fit_terms: dict = {}  # key -> the maturities the fit used
    to_smooth: dict = {}
    to_fit: dict = {}
    for key, cs in sorted(curves_s.items()):
        terms = sorted(cs)
        xs = term_edges[terms]
        ys = np.array([cs[b].wai for b in terms])
        try:
            _check_lowess(xs)
            to_smooth.setdefault(xs.size, []).append((key, xs, ys))
        except YieldError:
            pass  # the curve is left unsmoothed
        if len(cs) >= 6:
            ts = np.maximum(xs, 1.0)
            ws = np.array([max(cs[b].total_capital, 1.0) for b in terms])
            try:
                _check_curve(ts, ws)
            except YieldError as exc:
                fits[key] = str(exc)
                continue
            fit_terms[key] = ts
            to_fit.setdefault(ts.size, []).append((key, ts, ys, ws))
    for group in to_smooth.values():
        keys, xs, ys = zip(*group)
        for key, fitted in zip(keys, lowess(np.stack(xs), np.stack(ys))):
            smooth[key] = dict(zip(sorted(curves_s[key]), fitted))
    for group in to_fit.values():
        keys, xs, ys, ws = zip(*group)
        fits.update(zip(keys, nss_fit(np.stack(xs), np.stack(ys), weights=np.stack(ws))))

    nss_report: dict = {}
    for key in sorted(set(curves_o) | set(curves_s)):
        co = curves_o.get(key, {})
        cs = curves_s.get(key, {})
        bins = sorted(set(co) | set(cs))
        smoothed = smooth.get(key, {})
        nss_values: dict = {}
        fit = fits.get(key)
        if isinstance(fit, str):
            nss_report["|".join(key)] = {"error": fit}
        elif fit is not None:
            params, fit_rmse = fit
            nss_report["|".join(key)] = {
                "beta0": params.beta0,
                "beta1": params.beta1,
                "beta2": params.beta2,
                "beta3": params.beta3,
                "tau1": params.tau1,
                "tau2": params.tau2,
                "fit_rmse": fit_rmse,
            }
            nss_values = dict(zip(sorted(cs), nss_eval(params, fit_terms[key])))
        for b in bins:
            po = co.get(b)
            ps = cs.get(b)
            rows.append(
                [
                    *key,
                    b,
                    f"{term_edges[b]:.6g}",
                    f"{po.wai:.6f}" if po else "",
                    f"{po.total_capital:.6g}" if po else "",
                    po.count if po else "",
                    f"{ps.wai:.6f}" if ps else "",
                    f"{ps.total_capital:.6g}" if ps else "",
                    ps.count if ps else "",
                    f"{smoothed[b]:.6f}" if b in smoothed else "",
                    f"{nss_values[b]:.6f}" if b in nss_values else "",
                ]
            )

    mean_wai = float(
        np.mean([p.wai for c in curves_o.values() for p in c.values()])
    ) if curves_o else float("nan")
    relative = (wai_max_overall / mean_wai) if (wai_max_overall is not None and mean_wai > 0) else None
    metrics = {
        "groups": groups,
        "wai_rmse_max_overall": wai_max_overall,
        "mean_original_wai": mean_wai,
        "nss": nss_report,
        "relative_error": relative,
    }
    return metrics, {"plot_yield_points.csv": rows}


def headline(metrics: dict) -> dict:
    return {"wai_rmse_max": metrics["wai_rmse_max_overall"]}

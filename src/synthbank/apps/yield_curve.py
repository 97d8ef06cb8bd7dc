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


def _nss_columns(t: np.ndarray, sw: np.ndarray, tau: np.ndarray) -> np.ndarray:
    # weighted [1, f1, f2] columns of each row's decay time, as in
    # _nss_basis; f2 of tau2 is the basis's f3
    f1, f2 = svensson_loadings(t / tau[:, None])
    return np.stack([np.ones_like(f1), f1, f2], axis=2) * sw[:, :, None]


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

    All curves are searched in step, and each step solves its cells of
    every curve in one stacked LAPACK call (:func:`_lstsq_stack`): the
    grid is one step, and each refinement round is one step per ``tau1``
    row. A round's ``tau1`` values come from each curve's best cell at the
    start of the round and a row's ``tau2`` values from its best cell after
    the previous row, so a round cannot be one step without changing which
    cells are tried. A step's narrower bases are stacked across curves
    too; they depend on ``tau1`` alone (width 1 on no decay time at all),
    so each is solved at most once per curve. Each curve skips the cells it
    has solved before and compares the rest in the order a cell-by-cell
    search visits them: the first cell to beat its best by more than 1e-15
    wins.
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

    rank_deficient = np.zeros(len(t), dtype=bool)
    beta_cap = 50.0  # rates live in percent; honest curve shapes stay far below
    # the betas of a cell whose four-factor solve is rejected, by (curve,
    # tau1): the first of widths 3, 2, 1 within the cap. Widths 3 and 2 use
    # tau1's columns alone, and width 1 no decay time, so its betas are
    # kept under (curve, None).
    fallbacks = {}
    # a cell solved again gives the same rmse, which cannot beat the best
    # by the 1e-15 margin, so every cell is solved at most once per curve
    solved = [set() for _ in t]
    best = [None] * len(t)  # (rmse, tau1, tau2, beta) of each curve

    def consider(cells_by_curve) -> None:
        curve, cells = [], []
        for c, row in enumerate(cells_by_curve):
            for cell in row:
                if cell not in solved[c]:
                    solved[c].add(cell)
                    curve.append(c)
                    cells.append(cell)
        if not cells:
            return
        tau1, tau2 = np.array(cells, dtype=np.float64).T
        t_cells, sw_cells, yw_cells = t[curve], sw[curve], yw[curve]
        basis_w = np.concatenate(
            [_nss_columns(t_cells, sw_cells, tau1), _nss_columns(t_cells, sw_cells, tau2)[:, :, 2:]],
            axis=2,
        )
        betas = np.zeros((len(cells), 4))
        accepted = np.zeros(len(cells), dtype=bool)
        full = tau1 != tau2
        if full.any():
            sub, rank = _lstsq_stack(basis_w[full], yw_cells[full])
            rank_deficient[np.asarray(curve)[full][rank < 4]] = True
            betas[full] = sub
            accepted[full] = (rank == 4) & (np.max(np.abs(sub), axis=1) <= beta_cap)
        rejected = np.flatnonzero(~accepted).tolist()  # their betas are replaced
        keys = [(curve[i], cells[i][0]) for i in rejected]
        # (curve, tau1) -> a rejected cell of that curve and tau1, for its columns
        pending = {key: i for key, i in zip(keys, rejected) if key not in fallbacks}
        for ncols in (3, 2):
            rows = list(pending.values())
            if rows:
                sub, _ = _lstsq_stack(basis_w[rows, :, :ncols], yw_cells[rows])
                for key, beta, ok in zip(list(pending), sub, np.max(np.abs(sub), axis=1) <= beta_cap):
                    if ok:
                        fallbacks[key] = np.concatenate([beta, np.zeros(4 - ncols)])
                        del pending[key]
        level = {c: i for (c, _), i in pending.items() if (c, None) not in fallbacks}
        if level:
            rows = list(level.values())
            sub, _ = _lstsq_stack(basis_w[rows, :, :1], yw_cells[rows])
            for c, (beta,) in zip(level, sub):
                if abs(beta) > beta_cap:
                    # intercept-only: the weighted mean rate, always within the cap
                    beta = np.sum(yw[c] * sw[c])
                fallbacks[c, None] = np.array([beta, 0.0, 0.0, 0.0])
        for c, tau in pending:
            fallbacks[c, tau] = fallbacks[c, None]
        for i, key in zip(rejected, keys):
            betas[i] = fallbacks[key]
        residuals = (basis_w @ betas[:, :, None])[:, :, 0] - yw_cells
        rmses = np.sqrt(np.sum(residuals**2, axis=1)).tolist()
        for c, (tau1, tau2), beta, rmse in zip(curve, cells, betas, rmses):
            if best[c] is None or rmse < best[c][0] - 1e-15:
                best[c] = (rmse, tau1, tau2, beta)

    consider([[(tau1, tau2) for tau1 in tau_grid for tau2 in tau_grid]] * len(t))
    grid_best = [rmse for rmse, *_ in best]

    tau_lo, tau_hi = min(tau_grid) / 2.0, max(tau_grid) * 2.0
    factors = np.geomspace(0.6, 1.0 / 0.6, 7)

    def around(i: int) -> list:  # each curve's best tau_i, scaled by each factor
        taus = np.array([fit[i] for fit in best], dtype=np.float64)
        return np.clip(taus[:, None] * factors, tau_lo, tau_hi).tolist()

    for _ in range(refine_rounds):
        for tau1s in zip(*around(1)):
            consider([[(tau1, tau2) for tau2 in row] for tau1, row in zip(tau1s, around(2))])

    # refinement only ever improves
    assert all(fit[0] <= rmse + 1e-12 for fit, rmse in zip(best, grid_best))
    for _ in range(np.count_nonzero(rank_deficient)):
        warnings.warn("rank-deficient term-structure basis; dropped beta3", stacklevel=2)
    fits = [
        (NssParams(*(float(b) for b in beta), tau1=tau1, tau2=tau2), rmse)
        for rmse, tau1, tau2, beta in best
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

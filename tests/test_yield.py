"""Yield curves, LOWESS smoothing, and the Svensson fit."""

import csv
import dataclasses
import json
import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synthbank.apps import yield_curve
from synthbank.apps.yield_curve import (
    DEFAULT_TAU_GRID,
    NssParams,
    YieldError,
    YieldPoint,
    _lstsq_stack,
    _nss_basis,
    build_yield_curves,
    lowess,
    nss_eval,
    nss_fit,
    weighted_avg_rate,
    yield_rmse,
)
from synthbank.binning import BinningRule, Codebook, ColumnCodec, EncodedDataset, encode_dataset
from synthbank.pipeline import Pipeline, PipelineConfig
from synthbank.population import DepositMarketConfig, generate_term_deposits, planted_rate_curve
from synthbank.presets import deposit_rules
from synthbank.tabular import CATEGORICAL, NUMERIC, ColumnSpec, Dataset


def test_weighted_avg_rate_hand_case():
    assert weighted_avg_rate([100.0, 300.0], [5.0, 7.0]) == pytest.approx(6.5)


def test_weighted_avg_rate_uniform_weights():
    assert weighted_avg_rate([10.0, 10.0, 10.0], [1.0, 2.0, 6.0]) == pytest.approx(3.0)


def test_weighted_avg_rate_single():
    assert weighted_avg_rate([42.0], [3.3]) == pytest.approx(3.3)


def test_weighted_avg_rate_empty_is_missing():
    with pytest.raises(YieldError, match="empty group"):
        weighted_avg_rate([], [])


def deposit_dataset(terms, rates, capitals, period="2023-12"):
    n = len(terms)
    schema = (
        ColumnSpec("typeFI", CATEGORICAL, levels=("Bank", "Nonbank")),
        ColumnSpec("Period", CATEGORICAL, levels=(period,)),
        ColumnSpec("Currency", CATEGORICAL, levels=("PYG",)),
        ColumnSpec("Capital", NUMERIC),
        ColumnSpec("Term", NUMERIC),
        ColumnSpec("InterestRate", NUMERIC),
    )
    return Dataset(
        schema,
        [
            np.zeros(n, dtype=np.int64),
            np.zeros(n, dtype=np.int64),
            np.zeros(n, dtype=np.int64),
            np.asarray(capitals, dtype=float),
            np.asarray(terms, dtype=float),
            np.asarray(rates, dtype=float),
        ],
    )


def test_build_curves_singleton_groups_reproduce_raw_rates():
    ds = deposit_dataset([15.0, 45.0, 100.0], [2.0, 3.0, 4.0], [1e6, 2e6, 3e6])
    enc = encode_dataset(ds, deposit_rules("cbp"))
    curves = build_yield_curves(ds, enc)
    (curve,) = curves.values()
    rates = [curve[b].wai for b in sorted(curve)]
    assert rates == [2.0, 3.0, 4.0]
    assert len(curve) == 3


def test_build_curves_missing_bins_and_capital_conservation():
    config = DepositMarketConfig(n_deposits=3000)
    ds = generate_term_deposits(config, np.random.default_rng(5))
    enc = encode_dataset(ds, deposit_rules("cbp"))
    curves = build_yield_curves(ds, enc)
    total_capital = sum(p.total_capital for curve in curves.values() for p in curve.values())
    assert total_capital == pytest.approx(ds.column("Capital").sum(), rel=1e-9)
    for curve in curves.values():
        assert len(curve) <= 28


def make_curve(points):
    return {b: YieldPoint(wai=w, total_capital=c, count=1) for b, (w, c) in points.items()}


def test_yield_rmse_identity():
    curve = make_curve({0: (2.0, 1e6), 1: (3.0, 1e6)})
    report = yield_rmse({"p1": curve}, {"p1": curve})
    assert report.maximum == 0.0


def test_yield_rmse_hand_case():
    a = make_curve({0: (2.0, 1.0), 1: (3.0, 1.0)})
    b = make_curve({0: (3.0, 1.0), 1: (2.0, 1.0)})
    report = yield_rmse({"p1": a}, {"p1": b})
    assert report.maximum == pytest.approx(1.0)


def test_yield_rmse_max_over_periods_and_exclusions():
    s = {
        "p1": make_curve({0: (2.0, 1.0), 1: (3.0, 1.0), 5: (4.0, 1.0)}),
        "p2": make_curve({0: (2.0, 1.0)}),
    }
    o = {
        "p1": make_curve({0: (2.5, 1.0), 1: (3.0, 1.0)}),
        "p2": make_curve({0: (2.2, 1.0)}),
    }
    report = yield_rmse(s, o)
    assert report.maximum == max(report.per_period.values())
    assert report.excluded_bins["p1"] == 1  # bin 5 present on one side only


def test_yield_rmse_period_mismatch():
    curve = make_curve({0: (2.0, 1.0)})
    with pytest.raises(YieldError, match="period sets differ"):
        yield_rmse({"p1": curve}, {"p2": curve})


def test_yield_rmse_no_overlap():
    a = make_curve({0: (2.0, 1.0)})
    b = make_curve({5: (2.0, 1.0)})
    with pytest.raises(YieldError, match="no overlapping"):
        yield_rmse({"p1": a}, {"p1": b})


def test_yield_rmse_scores_total_capital_and_rejects_unknown_fields():
    a = make_curve({0: (2.0, 1.0), 1: (3.0, 4.0)})
    b = make_curve({0: (2.0, 3.0), 1: (3.0, 4.0)})
    assert yield_rmse({"p1": a}, {"p1": b}, field="total_capital").maximum == pytest.approx(np.sqrt(2.0))
    for field in ("count", "WAI", ""):
        with pytest.raises(YieldError, match=f"unknown field '{field}'"):
            yield_rmse({"p1": a}, {"p1": b}, field=field)


# ------------------------------------------------------------------ LOWESS

def test_lowess_reproduces_line():
    x = np.linspace(0, 10, 25)
    y = 2.5 * x - 1.0
    fitted = lowess(x, y, frac=0.5, iters=3)
    assert np.max(np.abs(fitted - y)) < 1e-9


def test_lowess_constant():
    x = np.linspace(0, 5, 12)
    y = np.full(12, 3.25)
    assert np.max(np.abs(lowess(x, y) - 3.25)) < 1e-12


def independent_lowess(x, y, frac, iters):
    """Independently coded dense implementation of the same conventions."""
    n = len(x)
    r = max(2, min(n, int(math.ceil(frac * n))))
    fitted = np.zeros(n)
    delta = np.ones(n)
    for _ in range(iters + 1):
        for i in range(n):
            d = np.abs(x - x[i])
            h = sorted(d)[r - 1]
            if h == 0:
                w = (d == 0).astype(float)
            else:
                w = (1 - np.clip(d / h, 0, 1) ** 3) ** 3
            w = w * delta
            A = np.array([[w.sum(), (w * x).sum()], [(w * x).sum(), (w * x * x).sum()]])
            b = np.array([(w * y).sum(), (w * x * y).sum()])
            det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
            if abs(det) <= 1e-12 * max(A[0, 0] * A[1, 1], 1e-300):
                fitted[i] = b[0] / A[0, 0]
            else:
                slope = (A[0, 0] * b[1] - A[0, 1] * b[0]) / det
                intercept = (b[0] - slope * A[0, 1]) / A[0, 0]
                fitted[i] = intercept + slope * x[i]
        res = y - fitted
        s = np.median(np.abs(res))
        if s == 0:
            break
        u = np.clip(res / (6 * s), -1, 1)
        delta = (1 - u**2) ** 2
    return fitted


def test_lowess_matches_reference_on_noisy_sine():
    rng = np.random.default_rng(7)
    x = np.sort(rng.uniform(0, 4 * np.pi, 80))
    y = np.sin(x) + rng.normal(0, 0.3, 80)
    got = lowess(x, y, frac=0.4, iters=3)
    want = independent_lowess(x, y, 0.4, 3)
    assert np.max(np.abs(got - want)) < 1e-6


def test_lowess_shift_and_scale_invariance():
    rng = np.random.default_rng(9)
    x = np.sort(rng.uniform(0, 10, 40))
    y = np.cos(x) + rng.normal(0, 0.2, 40)
    base = lowess(x, y, frac=0.5, iters=2)
    shifted = lowess(x, y + 5.0, frac=0.5, iters=2)
    scaled = lowess(x, y * 3.0, frac=0.5, iters=2)
    assert np.max(np.abs(shifted - base - 5.0)) < 1e-9
    assert np.max(np.abs(scaled - base * 3.0)) < 1e-9


def test_lowess_degenerate_x():
    with pytest.raises(YieldError, match="all x equal"):
        lowess(np.zeros(5), np.arange(5.0))


# --------------------------------------------------------------------- NSS

def test_nss_eval_limits():
    params = NssParams(beta0=3.0, beta1=1.5, beta2=2.0, beta3=-1.0, tau1=365.0, tau2=900.0)
    assert nss_eval(params, 1e-8) == pytest.approx(params.beta0 + params.beta1, abs=1e-6)
    assert nss_eval(params, 1e10) == pytest.approx(params.beta0, abs=1e-6)


def test_nss_eval_hand_case():
    params = NssParams(beta0=3.0, beta1=1.0, beta2=2.0, beta3=0.0, tau1=365.0, tau2=365.0)
    f1 = (1 - math.exp(-1)) / 1
    want = 3.0 + f1 + 2.0 * (f1 - math.exp(-1))
    assert nss_eval(params, 365.0) == pytest.approx(want, abs=1e-12)
    assert abs(want - 4.1606) < 1e-4


@settings(max_examples=100, deadline=None)
@given(
    betas=st.lists(st.floats(-20.0, 20.0), min_size=4, max_size=4),
    taus=st.lists(st.floats(1.0, 5000.0), min_size=2, max_size=2),
    terms=st.lists(st.floats(1e-3, 1e4), min_size=1, max_size=40),
)
def test_nss_eval_of_a_vector_equals_scalar_calls(betas, taus, terms):
    params = NssParams(*betas, *taus)
    got = nss_eval(params, np.array(terms))
    want = np.array([nss_eval(params, term) for term in terms])
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_nss_fit_recovers_planted_curve():
    planted = NssParams(beta0=6.0, beta1=-3.5, beta2=1.0, beta3=0.8, tau1=240.0, tau2=960.0)
    terms = np.array([30, 60, 90, 180, 270, 360, 540, 720, 1080, 1440, 2160, 3600], dtype=float)
    rates = nss_eval(planted, terms)
    params, rmse = nss_fit(terms, rates)
    assert rmse < 1e-6
    check_terms = np.array([45.0, 400.0, 1500.0, 3000.0])
    assert np.max(np.abs(nss_eval(params, check_terms) - nss_eval(planted, check_terms))) < 1e-4


def test_nss_fit_flat_curve():
    terms = np.array([30, 90, 180, 360, 720, 1800], dtype=float)
    params, rmse = nss_fit(terms, np.full(6, 5.0))
    assert params.beta0 == pytest.approx(5.0, abs=1e-6)
    assert abs(params.beta1) < 1e-6
    assert abs(params.beta2) < 1e-4
    assert abs(params.beta3) < 1e-4
    assert rmse < 1e-9


def test_nss_fit_never_worse_than_pure_nelson_siegel():
    rng = np.random.default_rng(11)
    terms = np.sort(rng.uniform(20, 3600, 16))
    rates = 4 + 0.5 * np.log(terms / 100.0) + rng.normal(0, 0.2, 16)
    weights = rng.uniform(1, 10, 16)
    _, nss_rmse = nss_fit(terms, rates, weights=weights)

    # nested-model oracle: best three-factor fit over the same tau grid
    sw = np.sqrt(weights / weights.sum())
    best_ns = np.inf
    for tau1 in DEFAULT_TAU_GRID:
        u = terms / tau1
        f1 = -np.expm1(-u) / u
        f2 = f1 - np.exp(-u)
        design = np.column_stack([np.ones_like(terms), f1, f2]) * sw[:, None]
        beta, *_ = np.linalg.lstsq(design, rates * sw, rcond=None)
        best_ns = min(best_ns, float(np.sqrt(np.sum((design @ beta - rates * sw) ** 2))))
    assert nss_rmse <= best_ns + 1e-12


def test_nss_fit_preconditions():
    with pytest.raises(YieldError, match="6 points"):
        nss_fit([30.0, 60.0, 90.0], [1.0, 2.0, 3.0])
    with pytest.raises(YieldError, match="distinct terms"):
        nss_fit([30.0] * 6, [1.0] * 6)


def test_planted_deposit_curve_recovered_without_noise():
    config = DepositMarketConfig(
        n_deposits=4000,
        rate_noise=0.0,
        usd_shift=0.0,
        nonbank_shift=0.0,
        period_shift_step=0.0,
        capital_discount=0.0,
    )
    ds = generate_term_deposits(config, np.random.default_rng(13))
    enc = encode_dataset(ds, deposit_rules("cbp"))
    curves = build_yield_curves(ds, enc)
    term_edges = np.asarray(enc.codebook["Term"].edges)
    for curve in curves.values():
        for code, point in curve.items():
            left = max(term_edges[code], 7.0)
            right = term_edges[code + 1]
            grid = planted_rate_curve(config, np.linspace(left, right, 64))
            assert grid.min() - 1e-9 <= point.wai <= grid.max() + 1e-9


# ------------------------------------------- reference implementations


def reference_build_yield_curves(data, codes):
    """One full-length mask per group and per term code, in data order."""
    term_codes = codes.column_codes("Term")
    capital = data.column("Capital")
    rates = data.column("InterestRate")
    types = data.labels("typeFI")
    currencies = data.labels("Currency")
    periods = data.labels("Period")
    curves = {}
    for key in sorted({(t, c, p) for t, c, p in zip(types, currencies, periods)}):
        mask = (types == key[0]) & (currencies == key[1]) & (periods == key[2])
        points = {}
        for code in np.unique(term_codes[mask]):
            sel = mask & (term_codes == code)
            points[int(code)] = YieldPoint(
                wai=weighted_avg_rate(capital[sel], rates[sel]),
                total_capital=float(capital[sel].sum()),
                count=int(sel.sum()),
            )
        curves[key] = points
    return curves


def reference_lowess(x, y, frac=2.0 / 3.0, iters=3):
    """The point-by-point loop: one weighted line fit per point and pass."""
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


def outcome(fn, *args, **kwargs):
    """The bytes of a call's result, or its error, and the kinds of warning it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fn(*args, **kwargs).tobytes()
        except YieldError as exc:
            result = str(exc)
    return result, {w.category for w in caught}


@settings(max_examples=200, deadline=None)
@given(
    x=st.lists(
        st.floats(0.0, 4000.0) | st.sampled_from([0.0, 1.0, 30.0, 365.0]), min_size=3, max_size=40
    ),
    data=st.data(),
    frac=st.floats(0.05, 1.0),
    iters=st.integers(0, 4),
)
def test_lowess_equals_reference_bit_for_bit(x, data, frac, iters):
    # repeated x values give windows of zero width and degenerate line fits
    x = np.sort(x)
    y = data.draw(st.lists(st.floats(-20.0, 20.0) | st.just(3.0), min_size=x.size, max_size=x.size))
    assert outcome(lowess, x, y, frac=frac, iters=iters) == outcome(
        reference_lowess, x, y, frac=frac, iters=iters
    )


@settings(max_examples=150, deadline=None)
@given(
    k=st.integers(1, 6),
    n=st.integers(3, 14),
    data=st.data(),
    frac=st.floats(0.05, 1.0),
    iters=st.integers(0, 4),
)
def test_lowess_of_stacked_curves_equals_reference_per_curve(k, n, data, frac, iters):
    # a constant power-of-two curve is fitted exactly, so its residual median
    # is 0 after the first pass; it stops there, next to noisy curves that
    # keep iterating
    points = st.floats(0.0, 4000.0) | st.sampled_from([0.0, 1.0, 30.0, 365.0])
    noisy = st.lists(st.floats(-20.0, 20.0) | st.just(3.0), min_size=n, max_size=n)
    flat = st.sampled_from([0.0, 1.0, 0.5, -2.0]).map(lambda c: [c] * n)
    x = [np.sort(data.draw(st.lists(points, min_size=n, max_size=n))) for _ in range(k + 1)]
    y = [data.draw(noisy | flat) for _ in range(k)]
    y.insert(data.draw(st.integers(0, k)), data.draw(flat))
    want = [outcome(reference_lowess, xi, yi, frac=frac, iters=iters) for xi, yi in zip(x, y)]
    got, caught = outcome(lowess, np.stack(x), np.array(y), frac=frac, iters=iters)
    errors = {result for result, _ in want if isinstance(result, str)}
    if errors:
        # a curve lowess cannot smooth fails the whole stack before any
        # arithmetic, so the warnings the other curves give alone do not arise
        assert got in errors and caught == set()
    else:
        assert got == b"".join(result for result, _ in want)
        assert caught == set().union(*(kinds for _, kinds in want))


def reference_nss_fit(terms, rates, weights=None, tau_grid=DEFAULT_TAU_GRID, refine_rounds=2):
    """Every grid and refinement cell solved from a freshly built basis."""
    t = np.asarray(terms, dtype=np.float64)
    y = np.asarray(rates, dtype=np.float64)
    w = np.ones_like(t) if weights is None else np.asarray(weights, dtype=np.float64)
    sw = np.sqrt(w / w.sum())
    saw_rank_deficiency = False

    def solve(tau1, tau2):
        nonlocal saw_rank_deficiency
        basis_w = _nss_basis(t, tau1, tau2) * sw[:, None]
        yw = y * sw
        widths = (4, 3, 2, 1) if tau1 != tau2 else (3, 2, 1)
        beta = np.zeros(4)
        for ncols in widths:
            sub, _, rank, _ = np.linalg.lstsq(basis_w[:, :ncols], yw, rcond=None)
            if ncols == 4 and rank < 4:
                saw_rank_deficiency = True
                continue
            if np.max(np.abs(sub)) <= 50.0:
                beta[:ncols] = sub
                break
        else:
            beta[0] = float(np.sum(yw * sw))
        return beta, float(np.sqrt(np.sum((basis_w @ beta - yw) ** 2)))

    best = None
    for tau1 in tau_grid:
        for tau2 in tau_grid:
            beta, rmse = solve(tau1, tau2)
            if best is None or rmse < best[0] - 1e-15:
                best = (rmse, tau1, tau2, beta)
    tau_lo, tau_hi = min(tau_grid) / 2.0, max(tau_grid) * 2.0
    for _ in range(refine_rounds):
        factors = np.geomspace(0.6, 1.0 / 0.6, 7)
        for tau1 in np.clip(best[1] * factors, tau_lo, tau_hi):
            for tau2 in np.clip(best[2] * factors, tau_lo, tau_hi):
                beta, rmse = solve(float(tau1), float(tau2))
                if rmse < best[0] - 1e-15:
                    best = (rmse, float(tau1), float(tau2), beta)
    if saw_rank_deficiency:
        warnings.warn("rank-deficient term-structure basis; dropped beta3", stacklevel=2)
    rmse, tau1, tau2, beta = best
    return NssParams(*(float(b) for b in beta), tau1=tau1, tau2=tau2), rmse


def with_warnings(fn, *args, **kwargs):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(*args, **kwargs)
    return result, [str(w.message) for w in caught]


@settings(max_examples=60, deadline=None)
@given(
    terms=st.lists(st.floats(1.0, 4000.0), min_size=6, max_size=30),
    data=st.data(),
    tau_grid=st.sampled_from([DEFAULT_TAU_GRID, (30.0, 30.0, 400.0, 15.0), (15, 3600)]),
    refine_rounds=st.integers(0, 3),
)
def test_nss_fit_equals_reference_bit_for_bit(terms, data, tau_grid, refine_rounds):
    n = len(terms)
    if np.unique(terms).size < 3:
        terms = [*terms[:-3], 10.0, 100.0, 1000.0]
    rates = data.draw(st.lists(st.floats(-5.0, 20.0), min_size=n, max_size=n))
    weights = data.draw(st.none() | st.lists(st.floats(1e-3, 1e7), min_size=n, max_size=n))
    kwargs = dict(weights=weights, tau_grid=tau_grid, refine_rounds=refine_rounds)
    got = with_warnings(nss_fit, terms, rates, **kwargs)
    want = with_warnings(reference_nss_fit, terms, rates, **kwargs)
    # repr tells -0.0 from 0.0 and 15 from 15.0, and round-trips every float
    assert repr(got) == repr(want)


def fallback_curve(seed=126):
    """Short terms make every factor nearly collinear with the level: some
    cells keep four factors, some fall back to widths 3, 2 and 1, and some
    four-factor bases are rank-deficient (at the default seed)."""
    rng = np.random.default_rng(seed)
    return np.round(rng.uniform(1.0, 30.0, 8)), rng.uniform(-5.0, 20.0, 8)


def test_nss_fit_fallbacks_and_rank_deficiency_equal_reference(monkeypatch):
    terms, rates = fallback_curve()
    got = with_warnings(nss_fit, terms, rates)

    solves = []
    lstsq = np.linalg.lstsq

    def recording_lstsq(a, b, rcond):
        sub, residuals, rank, sv = lstsq(a, b, rcond=rcond)
        solves.append((a.shape[1], rank, np.max(np.abs(sub)) <= 50.0))
        return sub, residuals, rank, sv

    monkeypatch.setattr(np.linalg, "lstsq", recording_lstsq)
    want = with_warnings(reference_nss_fit, terms, rates)
    assert repr(got) == repr(want)
    assert got[1] == ["rank-deficient term-structure basis; dropped beta3"]
    # a width is solved only when every wider one was rejected
    accepted = {
        width for width, rank, within_cap in solves if within_cap and (width < 4 or rank == 4)
    }
    assert accepted == {4, 3, 2, 1}
    assert any(width == 4 and rank < 4 for width, rank, _ in solves)


def reference_fits(terms, rates, weights=None, **kwargs):
    """``reference_nss_fit`` of each row, one after another."""
    rows = [None] * len(terms) if weights is None else weights
    return [reference_nss_fit(t, y, weights=w, **kwargs) for t, y, w in zip(terms, rates, rows)]


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(1, 6),
    m=st.integers(6, 16),
    data=st.data(),
    tau_grid=st.sampled_from([DEFAULT_TAU_GRID, (30.0, 30.0, 400.0, 15.0), (15, 3600)]),
    refine_rounds=st.integers(0, 3),
)
def test_nss_fit_of_stacked_curves_equals_reference_per_curve(k, m, data, tau_grid, refine_rounds):
    terms = [data.draw(st.lists(st.floats(1.0, 4000.0), min_size=m, max_size=m)) for _ in range(k)]
    terms = [row if np.unique(row).size >= 3 else [*row[:-3], 10.0, 100.0, 1000.0] for row in terms]
    rates = [data.draw(st.lists(st.floats(-5.0, 20.0), min_size=m, max_size=m)) for _ in range(k)]
    weights = data.draw(
        st.none() | st.lists(st.lists(st.floats(1e-3, 1e7), min_size=m, max_size=m), min_size=k, max_size=k)
    )
    kwargs = dict(tau_grid=tau_grid, refine_rounds=refine_rounds)
    got = with_warnings(nss_fit, np.array(terms), np.array(rates), weights=weights, **kwargs)
    want = with_warnings(reference_fits, terms, rates, weights, **kwargs)
    assert repr(got) == repr(want)


def test_nss_fit_batches_fallback_curves_with_ordinary_ones():
    rng = np.random.default_rng(11)
    ordinary = [(np.sort(rng.uniform(7.0, 3600.0, 8)), rng.uniform(1.0, 9.0, 8)) for _ in range(3)]
    curves = [ordinary[0], fallback_curve(), ordinary[1], fallback_curve(127), ordinary[2]]
    terms, rates = (np.array(rows) for rows in zip(*curves))
    got = with_warnings(nss_fit, terms, rates)
    want = with_warnings(reference_fits, terms, rates)
    assert repr(got) == repr(want)
    # one warning for each rank-deficient curve, none for the others
    deficient = [with_warnings(reference_nss_fit, t, y)[1] for t, y in zip(terms, rates)]
    assert [len(messages) for messages in deficient] == [0, 1, 1, 1, 0]
    assert got[1] == ["rank-deficient term-structure basis; dropped beta3"] * 3


def near_exact_rates(data, terms):
    """An exact Svensson curve at ``terms``, plus noise of 3e-10 down to
    1e-14, or none: with zero betas or decay times on the search's lattice,
    many cells then fit within rounding of each other."""
    betas = data.draw(st.lists(st.sampled_from([0.0, 1.0, -2.5]) | st.floats(-10.0, 10.0), min_size=4, max_size=4))
    if data.draw(st.booleans()):
        betas[1:] = [0.0, 0.0, 0.0]  # flat: every cell fits
    lattice = st.sampled_from([15.0, 30.0, 60.0, 240.0, 960.0, 3600.0, 15.0 / 0.6, 960.0 * 0.6 ** (2 / 3)])
    taus = data.draw(st.lists(lattice | st.floats(10.0, 5000.0), min_size=2, max_size=2))
    scale = data.draw(st.sampled_from([0.0, 1e-14, 1e-13, 1e-12, 1e-12, 3e-10]))
    noise = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=len(terms), max_size=len(terms)))
    return nss_eval(NssParams(*betas, *taus), np.asarray(terms, dtype=np.float64)) + scale * np.array(noise)


@settings(max_examples=80, deadline=None)
@given(
    terms=st.lists(st.floats(1.0, 4000.0), min_size=6, max_size=30),
    data=st.data(),
    tau_grid=st.sampled_from([DEFAULT_TAU_GRID, (30.0, 30.0, 400.0, 15.0), (15, 3600)]),
    refine_rounds=st.integers(0, 3),
)
def test_nss_fit_of_near_exact_curves_equals_reference_bit_for_bit(terms, data, tau_grid, refine_rounds):
    if np.unique(terms).size < 3:
        terms = [*terms[:-3], 10.0, 100.0, 1000.0]
    rates = near_exact_rates(data, terms)
    weights = data.draw(st.none() | st.lists(st.floats(1e-3, 1e7), min_size=len(terms), max_size=len(terms)))
    kwargs = dict(weights=weights, tau_grid=tau_grid, refine_rounds=refine_rounds)
    got = with_warnings(nss_fit, terms, rates, **kwargs)
    want = with_warnings(reference_nss_fit, terms, rates, **kwargs)
    assert repr(got) == repr(want)


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(2, 6),
    m=st.integers(6, 12),
    data=st.data(),
    refine_rounds=st.integers(0, 2),
)
def test_nss_fit_of_stacked_duplicate_curves_equals_reference_per_curve(k, m, data, refine_rounds):
    # a few distinct curves, near-exact or noisy, each stacked several times
    distinct = []
    for _ in range(data.draw(st.integers(1, 3))):
        terms = data.draw(st.lists(st.floats(1.0, 4000.0), min_size=m, max_size=m))
        if np.unique(terms).size < 3:
            terms = [*terms[:-3], 10.0, 100.0, 1000.0]
        noisy = st.lists(st.floats(-5.0, 20.0), min_size=m, max_size=m).map(np.array)
        rates = data.draw(st.just(None) | noisy)
        rates = near_exact_rates(data, terms) if rates is None else rates
        distinct.append((terms, rates, data.draw(st.lists(st.floats(1e-3, 1e7), min_size=m, max_size=m))))
    rows = data.draw(st.lists(st.integers(0, len(distinct) - 1), min_size=k, max_size=k))
    terms, rates, weights = (np.array([distinct[i][j] for i in rows]) for j in range(3))
    got = with_warnings(nss_fit, terms, rates, weights=weights, refine_rounds=refine_rounds)
    want = with_warnings(reference_fits, terms, rates, weights, refine_rounds=refine_rounds)
    assert repr(got) == repr(want)


def test_nss_fit_of_flat_curves_with_rounding_noise_equals_reference():
    # flat rates plus noise near rounding: every cell fits within rounding
    # of the others, so the screen's slack decides which of them it solves
    rng = np.random.default_rng(5)
    terms = rng.uniform(1.0, 4000.0, (60, 24))
    rates = rng.choice([1.5, -9.7, 4.0], (60, 1)) + 1e-13 * rng.uniform(-1.0, 1.0, (60, 24))
    got = with_warnings(nss_fit, terms, rates)
    want = with_warnings(reference_fits, terms, rates)
    assert repr(got) == repr(want)


def test_nss_fit_solves_at_most_a_fifth_of_the_cells_it_visits(tmp_path, monkeypatch):
    # a cell-by-cell search visits the 81 grid cells and 2 rounds of 7 x 7
    # refinement cells per curve; the screen leaves most of them unsolved
    visited, solved = [], []

    def counting_nss_fit(terms, *args, **kwargs):
        visited.append(len(terms) * (len(DEFAULT_TAU_GRID) ** 2 + 2 * 7 * 7))
        return nss_fit(terms, *args, **kwargs)

    def counting_lstsq_stack(a, b):
        solved.append(len(a))
        return _lstsq_stack(a, b)

    monkeypatch.setattr(yield_curve, "nss_fit", counting_nss_fit)
    monkeypatch.setattr(yield_curve, "_lstsq_stack", counting_lstsq_stack)
    Pipeline(PipelineConfig.from_dict(yield_term8_config(tmp_path))).run()
    assert sum(visited) >= 1000
    assert sum(solved) <= 0.2 * sum(visited)


def yield_term8_config(output):
    return {
        "application": "yield",
        "strategy": "data_driven",
        "mechanism": {"name": "mst"},
        "decode": {"mode": "left_edge"},
        "input": {"datagen": {"n_deposits": 3000}},
        "rule_overrides": {"Term": {"method": "equal_frequency", "k": 8}},
        "seed": 7,
        "output": str(output),
    }


def test_evaluate_fits_each_curve_length_in_one_call(tmp_path, monkeypatch):
    calls = []
    smooth_calls = []

    def recording_nss_fit(terms, *args, **kwargs):
        calls.append(np.shape(terms))
        return nss_fit(terms, *args, **kwargs)

    def recording_lowess(x, *args, **kwargs):
        smooth_calls.append(np.shape(x))
        return lowess(x, *args, **kwargs)

    monkeypatch.setattr(yield_curve, "nss_fit", recording_nss_fit)
    monkeypatch.setattr(yield_curve, "lowess", recording_lowess)
    pipeline = Pipeline(PipelineConfig.from_dict(yield_term8_config(tmp_path)))
    pipeline.run()
    term_edges = np.asarray(pipeline.encoded.codebook["Term"].edges)
    curves = build_yield_curves(pipeline.decoded, pipeline.synthetic)
    fitted = {key: curve for key, curve in sorted(curves.items()) if len(curve) >= 6}
    lengths = sorted({len(curve) for curve in fitted.values()})
    assert len(lengths) >= 2
    assert sorted(m for _, m in calls) == lengths
    # one lowess call per length of 3 points or more, stacking every curve
    # of that length
    smoothed = {key: curve for key, curve in sorted(curves.items()) if len(curve) >= 3}
    by_length = Counter(len(curve) for curve in smoothed.values())
    assert sorted(smooth_calls) == sorted((count, m) for m, count in by_length.items())
    assert max(by_length.values()) >= 2

    report = json.loads((tmp_path / "report.json").read_text())["metrics"]["nss"]
    assert list(report) == ["|".join(key) for key in fitted]
    with (tmp_path / "plot_yield_points.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    want_column = {(row["type"], row["currency"], row["period"], int(row["term_bin"])): "" for row in rows}
    for key, curve in fitted.items():
        terms = np.array([max(term_edges[b], 1.0) for b in sorted(curve)])
        rates = np.array([curve[b].wai for b in sorted(curve)])
        weights = np.array([max(curve[b].total_capital, 1.0) for b in sorted(curve)])
        params, rmse = reference_nss_fit(terms, rates, weights)
        assert report["|".join(key)] == {**dataclasses.asdict(params), "fit_rmse": rmse}
        for b, term in zip(sorted(curve), terms):
            want_column[(*key, b)] = f"{nss_eval(params, term):.6f}"
    assert [row["nss_synthetic"] for row in rows] == list(want_column.values())
    want_column = dict.fromkeys(want_column, "")
    for key, curve in smoothed.items():
        rates = [curve[b].wai for b in sorted(curve)]
        for b, value in zip(sorted(curve), reference_lowess(term_edges[sorted(curve)], rates)):
            want_column[(*key, b)] = f"{value:.6f}"
    assert [row["lowess_synthetic"] for row in rows] == list(want_column.values())


def test_evaluate_leaves_a_rejected_curve_unsmoothed_and_smooths_its_stack(tmp_path, monkeypatch):
    def plot_rows(output):
        with (output / "plot_yield_points.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        return {(row["type"], row["currency"], row["period"], row["term_bin"]): row for row in rows}

    pipeline = Pipeline(PipelineConfig.from_dict(yield_term8_config(tmp_path / "all")))
    pipeline.run()
    curves = sorted(build_yield_curves(pipeline.decoded, pipeline.synthetic).items())
    # a curve that shares its length with other curves of 3 points or more
    lengths = [len(curve) for _, curve in curves]
    target = next(i for i, m in enumerate(lengths) if m >= 3 and lengths.count(m) >= 2)
    check = yield_curve._check_lowess
    seen = []

    def rejecting_check(x, *args):
        if x.ndim == 1:  # evaluate's check of one curve, in key order
            seen.append(x)
            if len(seen) == target + 1:
                raise YieldError("rejected for the test")
        return check(x, *args)

    monkeypatch.setattr(yield_curve, "_check_lowess", rejecting_check)
    Pipeline(PipelineConfig.from_dict(yield_term8_config(tmp_path / "one_rejected"))).run()
    assert len(seen) == len(curves)
    smoothed, rejected = plot_rows(tmp_path / "all"), plot_rows(tmp_path / "one_rejected")
    assert list(smoothed) == list(rejected)
    emptied = 0
    for cell, row in smoothed.items():
        if cell[:3] == curves[target][0] and row["wai_synthetic"]:
            assert row["lowess_synthetic"] != "" and rejected[cell]["lowess_synthetic"] == ""
            rejected[cell]["lowess_synthetic"] = row["lowess_synthetic"]
            emptied += 1
        assert rejected[cell] == row
    assert emptied == lengths[target]


def test_nss_fit_rejects_mismatched_shapes():
    terms = np.geomspace(7.0, 3600.0, 8)
    with pytest.raises(YieldError, match="one shape"):
        nss_fit(terms, np.ones(7))
    with pytest.raises(YieldError, match="one shape"):
        nss_fit(np.stack([terms, terms]), np.ones(8))
    with pytest.raises(YieldError, match="at least 3 distinct terms"):
        nss_fit(np.stack([terms, np.full(8, 30.0)]), np.ones((2, 8)))


def test_lstsq_stack_matches_numpy_lstsq_per_matrix():
    rng = np.random.default_rng(5)
    m = 9
    b = rng.normal(size=m)
    for n in (1, 2, 3, 4):
        stack = [rng.normal(size=(m, n)) for _ in range(4)]
        stack.append(np.zeros((m, n)))  # rank 0
        if n > 1:
            repeated = rng.normal(size=(m, n))
            repeated[:, -1] = repeated[:, 0]  # repeated column: rank-deficient
            stack.append(repeated)
            near = rng.normal(size=(m, n))
            near[:, -1] = near[:, 0] * (1 + 1e-9)  # solutions far over the cap
            stack.append(near)
        t = np.geomspace(1.0, 30.0, m)
        svensson_like = [np.ones(m), *(np.exp(-t / tau) for tau in (3600, 1920, 960))]
        stack.append(np.column_stack(svensson_like)[:, :n])
        # one right-hand side for the whole stack, and one for each matrix
        per_matrix = rng.normal(size=(len(stack), m))
        for rhs in (b, per_matrix):
            x, rank = _lstsq_stack(np.stack(stack), rhs)
            assert x.shape == (len(stack), n)
            for a, bi, xi, ri in zip(stack, np.broadcast_to(rhs, per_matrix.shape), x, rank):
                want, _, want_rank, _ = np.linalg.lstsq(a, bi, rcond=None)
                assert xi.tobytes() == want.tobytes()
                assert ri == want_rank
            assert rank.min() < n
            assert np.max(np.abs(x)) > 50.0 or n == 1


def test_lstsq_stack_raises_when_the_svd_fails():
    a = np.random.default_rng(6).normal(size=(2, 8, 4))
    a[1, 3, 2] = np.nan
    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        np.linalg.lstsq(a[1], np.ones(8), rcond=None)
    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        _lstsq_stack(a, np.ones(8))


LEVELS = {
    "typeFI": ("Nonbank", "Bank", "Cooperative"),
    "Currency": ("USD", "PYG"),
    "Period": ("2023-12", "2019-12", "2021-12"),
}


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 300), data=st.data())
def test_build_yield_curves_equals_reference_bit_for_bit(n, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    # levels listed out of sorted order, some of them never used
    schema = tuple(ColumnSpec(name, CATEGORICAL, levels=levels) for name, levels in LEVELS.items()) + (
        ColumnSpec("Capital", NUMERIC),
        ColumnSpec("Term", NUMERIC),
        ColumnSpec("InterestRate", NUMERIC),
    )
    used = {name: data.draw(st.integers(1, len(levels))) for name, levels in LEVELS.items()}
    ds = Dataset(
        schema,
        [rng.integers(0, used[name], n) for name in LEVELS]
        + [np.exp(rng.normal(15, 3, n)), rng.integers(1, 3600, n).astype(float), rng.normal(6, 2, n)],
    )
    n_bins = data.draw(st.integers(1, 11))
    edges = np.sort(rng.choice(np.arange(1.0, 4000.0), n_bins + 1, replace=False))
    codebook = Codebook([ColumnCodec(name="Term", kind="binned", edges=tuple(edges))])
    # the upper term bins may stay empty
    codes = EncodedDataset(rng.integers(0, data.draw(st.integers(1, n_bins)), (n, 1)), codebook)
    got = build_yield_curves(ds, codes)
    want = reference_build_yield_curves(ds, codes)
    assert repr(list(got.items())) == repr(list(want.items()))


def test_build_yield_curves_reads_term_bins_from_the_codes_not_the_values():
    ds = generate_term_deposits(DepositMarketConfig(n_deposits=2000), np.random.default_rng(4))
    enc = encode_dataset(ds, deposit_rules("cbp"))
    columns = [ds.column(spec.name) for spec in ds.schema]
    columns[ds.column_names.index("Term")] = np.full(ds.n_records, 7200.0)
    overwritten = Dataset(ds.schema, columns)
    got = build_yield_curves(overwritten, enc)
    assert repr(list(got.items())) == repr(list(build_yield_curves(ds, enc).items()))
    assert len({code for curve in got.values() for code in curve}) > 1


def test_build_yield_curves_rejects_codes_of_other_rows():
    ds = deposit_dataset([15.0, 45.0, 100.0], [2.0, 3.0, 4.0], [1e6, 2e6, 3e6])
    enc = encode_dataset(ds, deposit_rules("cbp"))
    fewer = EncodedDataset(enc.codes[:2], enc.codebook)
    with pytest.raises(YieldError, match="2 coded rows for 3 data rows"):
        build_yield_curves(ds, fewer)


def test_build_yield_curves_rejects_non_positive_capital():
    for capital in (0.0, -5.0):
        ds = deposit_dataset([15.0, 45.0, 100.0], [2.0, 3.0, 4.0], [1e6, capital, 3e6])
        enc = encode_dataset(ds, deposit_rules("cbp"))
        with pytest.raises(YieldError, match="capitals must be positive"):
            build_yield_curves(ds, enc)


def test_build_yield_curves_rejects_numeric_group_column():
    ds = deposit_dataset([15.0, 45.0, 100.0], [2.0, 3.0, 4.0], [1e6, 2e6, 3e6])
    enc = encode_dataset(ds, deposit_rules("cbp"))
    schema = tuple(ColumnSpec(s.name, NUMERIC) if s.name == "typeFI" else s for s in ds.schema)
    numeric = Dataset(schema, [ds.column(s.name).astype(float) for s in ds.schema])
    with pytest.raises(YieldError, match="'typeFI' must be categorical"):
        build_yield_curves(numeric, enc)


def test_term_maturities_are_days_under_a_log_rule():
    # a log rule bins ln(Term) at the same ranks as Term, so the curves,
    # their maturities and their Svensson fits are those of the plain rule
    deposits = generate_term_deposits(DepositMarketConfig(n_deposits=3000), np.random.default_rng(31))
    outputs = []
    for log in (False, True):
        rules = deposit_rules("data_driven")
        rules["Term"] = BinningRule("equal_frequency", k=8, log_pretransform=log)
        encoded = encode_dataset(deposits, rules)
        assert encoded.codebook["Term"].log_flag == log
        outputs.append(yield_curve.evaluate(deposits, None, encoded, encoded, deposits, "data_driven"))
    (plain, plain_tables), (logged, logged_tables) = outputs
    column = plain_tables["plot_yield_points.csv"][0].index("term_left_days")
    days = [row[column] for row in plain_tables["plot_yield_points.csv"][1:]]
    assert [row[column] for row in logged_tables["plot_yield_points.csv"][1:]] == days
    assert min(float(day) for day in days) == deposits.column("Term").min()
    assert plain["nss"] and set(logged["nss"]) == set(plain["nss"])
    for key, fit in plain["nss"].items():
        assert "error" not in fit
        assert logged["nss"][key] == pytest.approx(fit, rel=1e-6), key

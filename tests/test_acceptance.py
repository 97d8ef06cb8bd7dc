"""Acceptance suite: one test per criterion, printed pass/fail per line.

Headline published numbers are not reproducible without the confidential
source microdata; acceptance is therefore property-based plus
planted-oracle end-to-end checks at desk scale, each at its stated
tolerance and runtime budget.
"""

import functools
import math
import time
from itertools import combinations

import numpy as np

from synthbank.apps.credit import active_both_filter, frobenius_error, transition_matrix
from synthbank.apps.usage_index import (
    UsageIndicators,
    build_usage_indicators,
    pca_usage_component,
    tau_metric,
)
from synthbank.apps.yield_curve import NssParams, build_yield_curves, lowess, nss_eval, nss_fit
from synthbank.binning import assign_codes, encode_dataset, kmeans_1d
from synthbank.decoding import KdeSpec, decode_dataset
from synthbank.mechanisms import (
    PacConfig,
    compute_marginal,
    maximum_spanning_tree,
    pac_aggregate,
    pac_threshold,
    run_mechanism,
    uniform_synthesize,
)
from synthbank.pipeline import PipelineConfig, compare_strategies, run_pipeline
from synthbank.population import (
    CreditPortfolioConfig,
    DepositMarketConfig,
    FiPopulationConfig,
    generate_credit_cards,
    generate_fi_population,
    generate_term_deposits,
)
from synthbank.presets import credit_rules, deposit_rules, fi_rules
from synthbank.privacy import PrivacyParams, gaussian_sigma

from util import make_encoded


def criterion(number: int, description: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} [FAIL] {description}")
                raise
            print(f"ACCEPTANCE {number} [PASS] {description}")
            return result

        return wrapper

    return decorate


# --------------------------------------------------------------- criterion 1

@criterion(1, "noise calibration formula and monotonicity")
def test_criterion_1_sigma_calibration():
    started = time.perf_counter()
    sigma = gaussian_sigma(PrivacyParams(1.0, 1e-10))
    assert abs(sigma - 9.7001) < 1e-3
    eps_grid = np.geomspace(0.05, 20, 15)
    delta_grid = np.geomspace(1e-12, 0.5, 15)
    for d in delta_grid:
        s = [gaussian_sigma(PrivacyParams(e, d)) for e in eps_grid]
        assert np.all(np.diff(s) < 0)
    for e in eps_grid:
        s = [gaussian_sigma(PrivacyParams(e, d)) for d in delta_grid]
        assert np.all(np.diff(s) < 0)
    assert time.perf_counter() - started < 1.0


# --------------------------------------------------------------- criterion 2

def _oracle_kmeans_cost(values: np.ndarray, k: int) -> float:
    """Plain quadratic DP, independent of the divide-and-conquer path."""
    sv = np.sort(values - values.mean())
    n = sv.size
    ps = np.concatenate([[0.0], np.cumsum(sv)])
    pq = np.concatenate([[0.0], np.cumsum(sv * sv)])

    def block_cost(i_arr, j):
        w = j + 1 - i_arr
        s = ps[j + 1] - ps[i_arr]
        return (pq[j + 1] - pq[i_arr]) - s * s / w

    prev = pq[1:] - ps[1:] * ps[1:] / np.arange(1, n + 1)
    for layer in range(2, k + 1):
        cur = np.full(n, np.inf)
        for j in range(layer - 1, n):
            i_arr = np.arange(layer - 1, j + 1)
            cur[j] = np.min(prev[i_arr - 1] + block_cost(i_arr, j))
        prev = cur
    return float(prev[n - 1])


def _cost_from_codes(values, codes) -> float:
    total = 0.0
    for c in np.unique(codes):
        block = values[codes == c]
        total += float(np.sum((block - block.mean()) ** 2))
    return total


@criterion(2, "exact-oracle equivalences (k-means, spanning tree, marginals)")
def test_criterion_2_exact_oracles():
    started = time.perf_counter()

    rng = np.random.default_rng(20240801)
    for _ in range(200):
        n = int(rng.integers(2, 201))
        values = np.round(rng.normal(0.0, 50.0, n), 3)
        k = int(rng.integers(1, min(8, np.unique(values).size) + 1))
        codes, _ = kmeans_1d(values, k)
        got = _cost_from_codes(values, codes)
        want = _oracle_kmeans_cost(values, k)
        assert got <= want + 1e-7 * (1.0 + abs(want))

    for _ in range(200):
        n = int(rng.integers(2, 7))
        weights = {pair: float(rng.normal()) for pair in combinations(range(n), 2)}
        tree = maximum_spanning_tree(weights)
        got = sum(weights[e] for e in tree)
        best = -np.inf
        for subset in combinations(sorted(weights), n - 1):
            adj = {}
            for a, b in subset:
                adj.setdefault(a, []).append(b)
                adj.setdefault(b, []).append(a)
            seen, frontier = {0}, [0]
            while frontier:
                x = frontier.pop()
                for y in adj.get(x, []):
                    if y not in seen:
                        seen.add(y)
                        frontier.append(y)
            if len(seen) == n:
                best = max(best, sum(weights[e] for e in subset))
        assert math.isclose(got, best, rel_tol=1e-12)

    for _ in range(20):
        domain = tuple(int(rng.integers(2, 5)) for _ in range(4))
        codes = np.column_stack([rng.integers(0, c, 300) for c in domain])
        data = make_encoded(codes, domain)
        attrs = tuple(sorted(rng.choice(4, size=2, replace=False)))
        marg = compute_marginal(data, attrs)
        tally = {}
        for row in codes:
            key = tuple(int(row[a]) for a in attrs)
            tally[key] = tally.get(key, 0) + 1
        for key, count in tally.items():
            assert marg.counts[key] == count
        assert marg.counts.sum() == 300

    assert time.perf_counter() - started < 30.0


# --------------------------------------------------------------- criterion 3

@criterion(3, "noiseless-limit pipeline identity (credit, FI, yield)")
def test_criterion_3_noiseless_pipeline():
    started = time.perf_counter()

    # credit: sigma = 0 spanning tree on ~1e5 joined cards
    credit_config = CreditPortfolioConfig(n_cards=125_000, persistence=0.8)
    cards_2020, cards_2021 = generate_credit_cards(credit_config, np.random.default_rng(101))
    joined, _ = active_both_filter(cards_2020, cards_2021)
    assert joined.n_records >= 95_000
    encoded = encode_dataset(joined, credit_rules("cbp"))
    synth, _, _ = run_mechanism(encoded, "mst", None, encoded.n_records, np.random.default_rng(102))
    tm_o = transition_matrix(
        encoded.column_codes("Delinquency2020"), encoded.column_codes("Delinquency2021"), 6
    )
    tm_s = transition_matrix(
        synth.column_codes("Delinquency2020"), synth.column_codes("Delinquency2021"), 6
    )
    frob = frobenius_error(tm_s, tm_o).value
    assert frob < 0.05, f"noiseless delinquency Frobenius {frob}"

    # financial inclusion: per-cell usage component difference
    fi_config = FiPopulationConfig(n_individuals=400_000, periods=("2021", "2022"))
    fi_data, unbanked = generate_fi_population(fi_config, np.random.default_rng(103))
    fi_encoded = encode_dataset(fi_data, fi_rules("cbp"))
    fi_synth, _, _ = run_mechanism(
        fi_encoded, "mst", None, fi_encoded.n_records, np.random.default_rng(104)
    )
    fi_decoded = decode_dataset(fi_synth, mode="left_edge")
    comp_o = pca_usage_component(build_usage_indicators(fi_data, unbanked), "original")
    comp_s = pca_usage_component(build_usage_indicators(fi_decoded, unbanked), "synthetic")
    tau = tau_metric(comp_s, comp_o)
    assert tau.overall < 0.02, f"noiseless FI tau {tau.overall}"

    # yield: per-bin weighted-average gap bounded by decode quantization
    dep_config = DepositMarketConfig(n_deposits=100_000, bank_share=1.0, pyg_share=1.0,
                                     periods=("2023-12",))
    deposits = generate_term_deposits(dep_config, np.random.default_rng(105))
    dep_encoded = encode_dataset(deposits, deposit_rules("cbp"))
    dep_synth, _, _ = run_mechanism(
        dep_encoded, "mst", None, dep_encoded.n_records, np.random.default_rng(106)
    )
    dep_decoded = decode_dataset(dep_synth, mode="left_edge")
    curves_o = build_yield_curves(deposits, dep_encoded.codebook)
    curves_s = build_yield_curves(dep_decoded, dep_encoded.codebook)
    assert set(curves_o) == set(curves_s)
    worst_gap = 0.0
    for key, curve_o in curves_o.items():
        curve_s = curves_s[key]
        for b in set(curve_o.points) & set(curve_s.points):
            gap = abs(curve_o.points[b].wai - curve_s.points[b].wai)
            worst_gap = max(worst_gap, gap)
    assert worst_gap < 0.5, f"noiseless yield per-bin WAI gap {worst_gap}"

    assert time.perf_counter() - started < 60.0


# --------------------------------------------------------------- criterion 4

@criterion(4, "DP-regime transition errors beat the uniform baseline")
def test_criterion_4_dp_regime_sanity():
    started = time.perf_counter()
    config = CreditPortfolioConfig(n_cards=125_000, persistence=0.8)
    cards_2020, cards_2021 = generate_credit_cards(config, np.random.default_rng(201))
    joined, _ = active_both_filter(cards_2020, cards_2021)
    encoded = encode_dataset(joined, credit_rules("cbp"))
    params = PrivacyParams(1.0, 1e-10)
    tm_o = transition_matrix(
        encoded.column_codes("Delinquency2020"), encoded.column_codes("Delinquency2021"), 6
    )
    workload = [
        (("Delinquency2020", "Delinquency2021"), 1.0),
        (("Debt2020", "Debt2021"), 1.0),
        (("Age2020", "Gender"), 1.0),
    ]

    def frob_of(synth):
        tm_s = transition_matrix(
            synth.column_codes("Delinquency2020"), synth.column_codes("Delinquency2021"), 6
        )
        return frobenius_error(tm_s, tm_o).value

    n = encoded.n_records
    wins = {"mst": 0, "aim": 0}
    for seed in range(10):
        baseline = frob_of(uniform_synthesize(encoded.codebook, n, np.random.default_rng(9000 + seed)))
        mst_rng = np.random.default_rng(1000 + seed)
        mst_err = frob_of(run_mechanism(encoded, "mst", params, n, mst_rng)[0])
        aim_rng = np.random.default_rng(2000 + seed)
        aim_synth, _, _ = run_mechanism(
            encoded, "aim", params, n, aim_rng, rounds=6, workload=workload
        )
        aim_err = frob_of(aim_synth)
        assert mst_err < 1.0 and aim_err < 1.0, (mst_err, aim_err)
        wins["mst"] += mst_err < baseline
        wins["aim"] += aim_err < baseline
    assert wins["mst"] >= 9, f"MST beat the uniform baseline on {wins['mst']}/10 seeds"
    assert wins["aim"] >= 9, f"AIM beat the uniform baseline on {wins['aim']}/10 seeds"
    assert time.perf_counter() - started < 300.0


# --------------------------------------------------------------- criterion 5

@criterion(5, "aggregate suppression of a planted singleton; threshold arithmetic")
def test_criterion_5_pac_suppression():
    rho = pac_threshold(PacConfig(k=2, eta=0.025, delta_k=3.0), 1.0, 10, 10)
    assert abs(rho - math.sqrt(3.0) * 1.959964) < 1e-4
    assert abs(pac_threshold(PacConfig(k=2, eta=0.5, delta_k=3.0), 1.0, 10, 10)) < 1e-4

    rng = np.random.default_rng(301)
    n = 100_000
    a = rng.integers(0, 3, n)
    b = rng.integers(0, 3, n)
    a[0], b[0] = 2, 2
    collision = (a == 2) & (b == 2)
    collision[0] = False
    a[collision] = 0  # the (2, 2) combination occurs exactly once
    data = make_encoded(np.column_stack([a, b]), (3, 3))
    params = PrivacyParams(1.0, 1e-10)
    absent = 0
    for seed in range(100):
        levels = pac_aggregate(data, PacConfig(k=2), params, np.random.default_rng(400 + seed))
        if levels[1].weights[(0, 1)][2, 2] == 0:
            absent += 1
    assert absent >= 95, f"singleton absent in only {absent}/100 runs"


# --------------------------------------------------------------- criterion 6

@criterion(6, "numerical fitting: Svensson, LOWESS, principal component")
def test_criterion_6_numerical_fitting():
    planted = NssParams(beta0=6.0, beta1=-3.5, beta2=1.0, beta3=0.8, tau1=240.0, tau2=960.0)
    terms = np.array([30, 60, 90, 180, 270, 360, 540, 720, 1080, 1440, 2160, 3600], dtype=float)
    _, rmse = nss_fit(terms, nss_eval(planted, terms))
    assert rmse < 1e-6

    x = np.linspace(0.0, 20.0, 30)
    y = -1.25 * x + 4.0
    assert np.max(np.abs(lowess(x, y) - y)) < 1e-9

    rng = np.random.default_rng(601)
    base = rng.uniform(0.2, 0.8, 12)
    indicators = [
        UsageIndicators(
            key=(str(i),),
            alpha=float(np.clip(v + rng.normal(0, 0.04), 0, 1)),
            beta=float(np.clip(0.7 * v + rng.normal(0, 0.04), 0, 1)),
            gamma=float(np.clip(0.4 * v + rng.normal(0, 0.04), 0, 1)),
            population=10,
        )
        for i, v in enumerate(base)
    ]
    comp = pca_usage_component(indicators)
    X = np.vstack([ind.vector for ind in indicators])
    Z = (X - X.mean(axis=0)) / X.std(axis=0)
    corr = Z.T @ Z / X.shape[0]
    v = np.ones(3) / 3.0
    for _ in range(5000):
        w = corr @ v
        w /= np.linalg.norm(w)
        v = w
    if v[np.argmax(np.abs(v))] < 0:
        v = -v
    assert np.allclose(comp.weights, v / v.sum(), atol=1e-6)

    symmetric = [
        UsageIndicators(key=(str(i),), alpha=val, beta=val, gamma=val, population=10)
        for i, val in enumerate((0.2, 0.4, 0.6, 0.8))
    ]
    assert pca_usage_component(symmetric).weights == (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)


# --------------------------------------------------------------- criterion 7

@criterion(7, "invariant suites: stochastic rows, re-encode, round trip, determinism")
def test_criterion_7_invariants(tmp_path):
    rng = np.random.default_rng(701)
    tm = transition_matrix(rng.integers(0, 6, 5000), rng.integers(0, 6, 5000), 6)
    assert np.all(np.abs(tm.probs[tm.defined].sum(axis=1) - 1.0) <= 1e-12)

    deposits = generate_term_deposits(DepositMarketConfig(n_deposits=5000), np.random.default_rng(702))
    for strategy in ("cbp", "data_driven"):
        enc = encode_dataset(deposits, deposit_rules(strategy))
        for mode in ("left_edge", "kde"):
            decoded = decode_dataset(
                enc, mode=mode, source=deposits, kde_spec=KdeSpec(grid_points=256),
                rng=np.random.default_rng(703),
            )
            for name in ("Capital", "Term", "InterestRate"):
                codec = enc.codebook[name]
                vals = decoded.column(name)
                if codec.log_flag:
                    vals = np.log(vals)
                assert np.array_equal(
                    assign_codes(vals, codec.edges), enc.column_codes(name)
                ), (strategy, mode, name)

    from synthbank.tabular import read_csv, write_csv

    path = tmp_path / "roundtrip.csv"
    write_csv(deposits, path)
    again = read_csv(path, deposits.schema)
    for spec in deposits.schema:
        a, b = deposits.column(spec.name), again.column(spec.name)
        if spec.is_categorical:
            assert np.array_equal(a, b)
        else:
            assert ["{:.12g}".format(v) for v in a] == ["{:.12g}".format(v) for v in b]

    doc = {
        "application": "credit",
        "strategy": "cbp",
        "mechanism": {"name": "mst"},
        "privacy": {"epsilon": 1.0, "delta": 1e-10},
        "decode": {"mode": "left_edge"},
        "input": {"datagen": {"n_cards": 3000}},
        "seed": 77,
        "output": str(tmp_path / "d1"),
    }
    run_pipeline(PipelineConfig.from_dict(doc))
    doc["output"] = str(tmp_path / "d2")
    run_pipeline(PipelineConfig.from_dict(doc))
    names_1 = {p.name for p in (tmp_path / "d1").iterdir()} - {"manifest.json"}
    names_2 = {p.name for p in (tmp_path / "d2").iterdir()} - {"manifest.json"}
    assert names_1 == names_2
    for name in sorted(names_1):  # manifest carries wall-clock timings
        assert (tmp_path / "d1" / name).read_bytes() == (tmp_path / "d2" / name).read_bytes(), name


# --------------------------------------------------------------- criterion 8

@criterion(8, "frequency-table product beats the decode-dependent product")
def test_criterion_8_relative_error_ordering(tmp_path):
    shared = {
        "strategy": "cbp",
        "mechanism": {"name": "mst"},
        "privacy": {"epsilon": 1.0, "delta": 1e-10},
        "decode": {"mode": "left_edge"},
        "seed": 4242,
    }
    credit_doc = dict(
        shared,
        application="credit",
        input={"datagen": {"n_cards": 150_000}},
        output=str(tmp_path / "credit_cmp"),
    )
    yield_doc = dict(
        shared,
        application="yield",
        input={"datagen": {"n_deposits": 20_000, "bank_share": 1.0, "pyg_share": 1.0}},
        output=str(tmp_path / "yield_cmp"),
    )
    credit_cmp = compare_strategies(PipelineConfig.from_dict(credit_doc))
    yield_cmp = compare_strategies(PipelineConfig.from_dict(yield_doc))
    for strategy in ("cbp", "data_driven"):
        credit_rel = credit_cmp["rows"]["relative_error"][strategy]
        yield_rel = yield_cmp["rows"]["relative_error"][strategy]
        assert credit_rel is not None and yield_rel is not None
        assert credit_rel < yield_rel, (
            f"{strategy}: credit relative error {credit_rel} "
            f"should undercut yield relative error {yield_rel}"
        )

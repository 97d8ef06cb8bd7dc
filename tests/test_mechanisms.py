"""Marginal computation, tree selection, and the three synthesizers."""

import math
from itertools import combinations, product

import numpy as np
import pytest
from scipy.special import ndtr

from synthbank.binning import encode_dataset
from synthbank.mechanisms import (
    MECHANISMS,
    MechanismError,
    PacConfig,
    compute_marginal,
    fit_aim_model,
    fit_mst_model,
    maximum_spanning_tree,
    mutual_information,
    pac_aggregate,
    pac_synthesize,
    pac_threshold,
    parse_workload,
    run_mechanism,
    uniform_synthesize,
)
from synthbank.population import DepositMarketConfig, generate_term_deposits
from synthbank.presets import deposit_rules
from synthbank.privacy import PrivacyParams

from util import make_encoded, tv_distance


# ------------------------------------------------------------- marginals

def test_marginal_count_conservation():
    data = make_encoded([[0], [1], [1], [0]], (2,))
    marg = compute_marginal(data, (0,))
    assert marg.counts.sum() == 4
    assert list(marg.counts) == [2, 2]


def test_marginal_perfect_dependence_diagonal():
    codes = np.array([[0, 0], [1, 1], [0, 0], [1, 1]])
    data = make_encoded(codes, (2, 2))
    marg = compute_marginal(data, (0, 1))
    assert marg.counts[0, 1] == 0 and marg.counts[1, 0] == 0
    assert marg.counts[0, 0] == 2 and marg.counts[1, 1] == 2


def test_marginal_matches_brute_force_tally():
    rng = np.random.default_rng(2)
    domain = (3, 2, 4, 2, 3, 2)
    codes = np.column_stack([rng.integers(0, c, 200) for c in domain])
    data = make_encoded(codes, domain)
    attrs = (0, 2, 4)
    marg = compute_marginal(data, attrs)
    tally = {}
    for row in codes:
        key = tuple(row[a] for a in attrs)
        tally[key] = tally.get(key, 0) + 1
    for key in product(range(3), range(4), range(3)):
        assert marg.counts[key] == tally.get(key, 0)


def test_marginal_rejects_duplicates_and_range():
    data = make_encoded([[0, 1]], (2, 2))
    with pytest.raises(MechanismError, match="duplicate"):
        compute_marginal(data, (0, 0))
    with pytest.raises(MechanismError, match="out of range"):
        compute_marginal(data, (0, 5))


def test_mutual_information_independent_zero():
    # product-count table: every combination appears exactly once
    codes = np.array(list(product(range(2), range(3))))
    data = make_encoded(codes, (2, 3))
    assert mutual_information(data, 0, 1) == 0.0


def test_mutual_information_copy_ln2():
    codes = np.array([[0, 0], [1, 1]] * 50)
    data = make_encoded(codes, (2, 2))
    assert math.isclose(mutual_information(data, 0, 1), math.log(2), rel_tol=1e-12)


def test_mutual_information_symmetric():
    rng = np.random.default_rng(3)
    codes = np.column_stack([rng.integers(0, 3, 300), rng.integers(0, 4, 300)])
    data = make_encoded(codes, (3, 4))
    assert math.isclose(
        mutual_information(data, 0, 1), mutual_information(data, 1, 0), rel_tol=1e-12
    )


# ------------------------------------------------------------- spanning tree

def test_mst_two_attributes_forced():
    assert maximum_spanning_tree({(0, 1): 0.3}) == [(0, 1)]


def test_mst_three_attributes():
    weights = {(0, 1): 0.5, (1, 2): 0.9, (0, 2): 0.1}
    assert sorted(maximum_spanning_tree(weights)) == [(0, 1), (1, 2)]


def test_mst_disconnected_errors():
    with pytest.raises(MechanismError, match="connect"):
        maximum_spanning_tree({(0, 1): 1.0, (2, 3): 1.0})


def oracle_best_tree_weight(weights, nodes):
    """Enumerate all spanning trees; return the maximum total weight."""
    edges = sorted(weights)
    best = -np.inf
    for subset in combinations(edges, len(nodes) - 1):
        seen = {nodes[0]}
        frontier = [nodes[0]]
        adj = {}
        for a, b in subset:
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        while frontier:
            x = frontier.pop()
            for y in adj.get(x, []):
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        if len(seen) == len(nodes):
            best = max(best, sum(weights[e] for e in subset))
    return best


def test_mst_matches_enumeration():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(3, 7))
        nodes = list(range(n))
        weights = {(a, b): float(rng.normal()) for a, b in combinations(nodes, 2)}
        tree = maximum_spanning_tree(weights)
        got = sum(weights[e] for e in tree)
        want = oracle_best_tree_weight(weights, nodes)
        assert math.isclose(got, want, rel_tol=1e-12)


# ------------------------------------------------------------------- MST

def test_mst_noiseless_copy_column():
    rng = np.random.default_rng(7)
    a = rng.integers(0, 4, 2000)
    data = make_encoded(np.column_stack([a, a]), (4, 4))
    synth, _, _ = run_mechanism(data, "mst", None, 2000, np.random.default_rng(1))
    assert np.array_equal(synth.codes[:, 0], synth.codes[:, 1])


def test_mst_noiseless_single_column_frequencies():
    rng = np.random.default_rng(11)
    probs = np.array([0.5, 0.3, 0.15, 0.05])
    a = rng.choice(4, size=20_000, p=probs)
    data = make_encoded(a, (4,))
    n_out = 100_000
    synth, _, _ = run_mechanism(data, "mst", None, n_out, np.random.default_rng(2))
    source_freq = np.bincount(a, minlength=4) / a.size
    synth_freq = np.bincount(synth.codes[:, 0], minlength=4) / n_out
    for p, phat in zip(source_freq, synth_freq):
        ci = 3 * math.sqrt(p * (1 - p) / n_out)
        assert abs(phat - p) <= ci


def test_mst_n_out_zero():
    data = make_encoded([[0, 1], [1, 0]], (2, 2))
    synth, _, _ = run_mechanism(data, "mst", None, 0, np.random.default_rng(3))
    assert synth.n_records == 0
    assert synth.codebook.domain_sizes == data.codebook.domain_sizes


def test_mst_empty_noiseless_errors():
    data = make_encoded(np.zeros((0, 2), dtype=np.int64), (2, 2))
    with pytest.raises(MechanismError, match="empty input"):
        fit_mst_model(data, None, np.random.default_rng(4))


def test_mst_noiseless_model_marginals_exact():
    rng = np.random.default_rng(13)
    a = rng.integers(0, 3, 5000)
    b = (a + rng.integers(0, 2, 5000)) % 3
    c = rng.integers(0, 2, 5000)
    data = make_encoded(np.column_stack([a, b, c]), (3, 3, 2))
    model = fit_mst_model(data, None, np.random.default_rng(5))
    n = data.n_records
    for item in model.measured:
        attrs = tuple(item["attrs"])
        exact = compute_marginal(data, attrs).counts / n
        assert np.allclose(model.marginal(attrs), exact, atol=1e-12)


def test_tree_conditionals_row_stochastic():
    rng = np.random.default_rng(17)
    codes = np.column_stack([rng.integers(0, 4, 3000), rng.integers(0, 5, 3000)])
    data = make_encoded(codes, (4, 5))
    model = fit_mst_model(data, PrivacyParams(1.0, 1e-10), np.random.default_rng(6))
    for cond in model.conditionals.values():
        assert np.allclose(cond.sum(axis=1), 1.0, atol=1e-12)
    for dist in model.attr_dist.values():
        assert abs(dist.sum() - 1.0) < 1e-12


def test_mechanisms_deterministic_under_seed():
    rng = np.random.default_rng(19)
    codes = np.column_stack([rng.integers(0, 3, 800), rng.integers(0, 4, 800)])
    data = make_encoded(codes, (3, 4))
    params = PrivacyParams(1.0, 1e-10)
    runs = [
        lambda s, name=name: run_mechanism(
            data, name, params, 500, np.random.default_rng(s),
            rounds=3, workload=[(("a0", "a1"), 1.0)],
        )[0]
        for name in MECHANISMS
    ]
    runs.append(lambda s: uniform_synthesize(data.codebook, 500, np.random.default_rng(s)))
    for fn in runs:
        first = fn(123)
        second = fn(123)
        assert np.array_equal(first.codes, second.codes)


# ------------------------------------------------------------------- AIM

def chain_fixture(n=20_000, seed=23):
    """A -> B -> C noisy channels; the population factorizes over a chain."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 3, n)
    flip_b = rng.random(n) < 0.3
    b = np.where(flip_b, rng.integers(0, 3, n), a)
    flip_c = rng.random(n) < 0.3
    c = np.where(flip_c, rng.integers(0, 3, n), b)
    return make_encoded(np.column_stack([a, b, c]), (3, 3, 3))


def test_aim_single_round_single_marginal():
    data = chain_fixture(2000)
    model = fit_aim_model(
        data, [((0, 1), 1.0)], PrivacyParams(1.0, 1e-10), 1, np.random.default_rng(7)
    )
    assert len(model.measured) == 1
    assert tuple(model.measured[0]["attrs"]) == (0, 1)


def test_aim_high_budget_recovers_all_pairs():
    data = chain_fixture()
    workload = [(0, 1), (0, 2), (1, 2)]
    params = PrivacyParams(1e6, 1e-10)
    synth, _, _ = run_mechanism(
        data, "aim", params, data.n_records, np.random.default_rng(8), rounds=8,
        workload=[((f"a{a}", f"a{b}"), 1.0) for a, b in workload],
    )
    for attrs in workload:
        tv = tv_distance(
            compute_marginal(data, attrs).counts, compute_marginal(synth, attrs).counts
        )
        assert tv < 0.02, f"pair {attrs} TV {tv}"


def test_aim_invalid_workload():
    data = chain_fixture(100)
    with pytest.raises(MechanismError, match="out of range"):
        fit_aim_model(data, [((0, 9), 1.0)], None, 1, np.random.default_rng(9))
    with pytest.raises(MechanismError, match="non-empty"):
        fit_aim_model(data, [], None, 1, np.random.default_rng(9))


def test_aim_prioritized_pair_beats_mst():
    """Workload-aware budget spend wins on the prioritized pair (20 seeds)."""
    config = DepositMarketConfig(n_deposits=4000, period_shift_step=0.8)
    ds = generate_term_deposits(config, np.random.default_rng(31))
    enc = encode_dataset(ds, deposit_rules("cbp"))
    pair = (enc.codebook.index_of("Period"), enc.codebook.index_of("InterestRate"))
    exact = compute_marginal(enc, pair).counts
    params = PrivacyParams(1.0, 1e-10)
    n = enc.n_records
    aim_tv, mst_tv = [], []
    for seed in range(20):
        synth_a, _, _ = run_mechanism(
            enc, "aim", params, n, np.random.default_rng(1000 + seed),
            rounds=1, workload=[(("Period", "InterestRate"), 1.0)],
        )
        synth_m, _, _ = run_mechanism(enc, "mst", params, n, np.random.default_rng(2000 + seed))
        aim_tv.append(tv_distance(exact, compute_marginal(synth_a, pair).counts))
        mst_tv.append(tv_distance(exact, compute_marginal(synth_m, pair).counts))
    assert np.mean(aim_tv) <= np.mean(mst_tv), (np.mean(aim_tv), np.mean(mst_tv))


# ------------------------------------------------------------------- PAC

def test_pac_threshold_median_case():
    cfg = PacConfig(k=2, eta=0.5, delta_k=3.0)
    assert abs(pac_threshold(cfg, 1.0, 10, 10)) < 1e-12  # quantile 0.5 -> 0


def test_pac_threshold_normal_quantile():
    cfg = PacConfig(k=2, eta=0.025, delta_k=3.0)
    rho = pac_threshold(cfg, 1.0, 10, 10)
    assert abs(rho - math.sqrt(3.0) * 1.959964) < 1e-4


def test_pac_threshold_spurious_bound_consistency():
    for eta in (0.5, 0.025):
        cfg = PacConfig(k=2, eta=eta, delta_k=3.0)
        rho = pac_threshold(cfg, 1.0, 10, 10)
        bound = 1.0 - ndtr(rho / (1.0 * math.sqrt(cfg.delta_k)))
        assert abs(bound - eta) < 1e-10


def test_pac_all_identical_rows_noiseless():
    codes = np.tile([1, 0, 2], (500, 1))
    data = make_encoded(codes, (3, 2, 4))
    synth = pac_synthesize(data, PacConfig(k=2), None, 200, np.random.default_rng(11))
    assert np.all(synth.codes == np.array([1, 0, 2]))


def test_pac_rare_combination_suppressed():
    """A singleton combination should rarely survive aggregation at eps=1."""
    rng = np.random.default_rng(13)
    n = 20_000
    a = rng.integers(0, 3, n)
    b = rng.integers(0, 3, n)
    a[0], b[0] = 2, 2
    a[1:][(a[1:] == 2) & (b[1:] == 2)] = 0  # make (2, 2) unique to row 0
    data = make_encoded(np.column_stack([a, b]), (3, 3))
    params = PrivacyParams(1.0, 1e-10)
    survived = 0
    for seed in range(25):
        levels = pac_aggregate(data, PacConfig(k=2), params, np.random.default_rng(seed))
        if levels[1].weights[(0, 1)][2, 2] > 0:
            survived += 1
    assert survived <= 1  # >= 96% suppression on this slice


def test_pac_suppresses_more_combinations_than_mst():
    rng = np.random.default_rng(17)
    n = 3000
    a = rng.integers(0, 10, n)
    b = np.minimum((a + rng.poisson(1.0, n)) % 8, 7)
    c = rng.integers(0, 6, n)
    data = make_encoded(np.column_stack([a, b, c]), (10, 8, 6))
    params = PrivacyParams(1.0, 1e-10)
    pac_out = pac_synthesize(data, PacConfig(k=2), params, n, np.random.default_rng(18))
    mst_out, _, _ = run_mechanism(data, "mst", params, n, np.random.default_rng(18))
    pac_distinct = len({tuple(r) for r in pac_out.codes.tolist()})
    mst_distinct = len({tuple(r) for r in mst_out.codes.tolist()})
    assert pac_distinct < mst_distinct


def test_pac_reserved_code_marked():
    data = make_encoded([[0, 1], [1, 0]], (2, 2))
    synth = pac_synthesize(data, PacConfig(k=2), PrivacyParams(1.0, 1e-10), 50,
                           np.random.default_rng(19))
    # base domains unchanged; suppressed sentinel allowed but outside them
    assert synth.codebook.domain_sizes == data.codebook.domain_sizes
    for codec in synth.codebook:
        assert codec.suppressed_code == codec.domain_size


def test_pac_k_exceeds_attrs():
    data = make_encoded([[0, 1]], (2, 2))
    with pytest.raises(MechanismError, match="reporting length"):
        pac_synthesize(data, PacConfig(k=3), None, 5, np.random.default_rng(20))


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"k": 0}, "k must be an integer >= 1, got 0"),
        ({"k": 2.0}, "k must be an integer >= 1, got 2.0"),
        ({"k": "2"}, "k must be an integer >= 1, got '2'"),
        ({"eta": "x"}, "eta must lie in"),
        ({"delta_k": None}, "delta_k must be >= 1, got None"),
    ],
)
def test_pac_config_rejects_bad_fields(fields, message):
    with pytest.raises(MechanismError, match=message):
        PacConfig(**fields)


def test_aim_weight_prioritizes_marginal():
    rng = np.random.default_rng(29)
    a = rng.integers(0, 3, 4000)
    b = (a + rng.integers(0, 2, 4000)) % 3
    c = (a + rng.integers(0, 2, 4000)) % 3
    data = make_encoded(np.column_stack([a, b, c]), (3, 3, 3))
    # comparable true gaps; the heavy weight decides the first measurement
    model = fit_aim_model(
        data, [((0, 1), 1.0), ((0, 2), 10.0)], None, 1, np.random.default_rng(30)
    )
    assert tuple(model.measured[0]["attrs"]) == (0, 2)


def test_aim_weight_must_be_positive():
    with pytest.raises(MechanismError, match="weight must be positive"):
        parse_workload([{"attrs": ["a0", "a1"], "weight": 0.0}])


def test_parse_workload_normalises_and_drops_repeats():
    workload = parse_workload(
        [{"attrs": ["a2", "a0"], "weight": 3}, ["a1"], ["a0", "a2"], {"attrs": ["a1", "a2"]}]
    )
    assert workload == [(("a2", "a0"), 3.0), (("a1",), 1.0), (("a1", "a2"), 1.0)]


def test_run_mechanism_resolves_workload_names_in_any_order():
    data = chain_fixture(2000)
    workload = [(("a2", "a0"), 1.0), (("a1",), 1.0)]
    _, sigma, details = run_mechanism(
        data, "aim", None, 10, np.random.default_rng(32), rounds=2, workload=workload
    )
    model = fit_aim_model(
        data, [((0, 2), 1.0), ((1,), 1.0)], None, 2, np.random.default_rng(32)
    )
    names = data.codebook.names
    assert sigma == 0.0
    assert details["measured"] == [
        {"attrs": [names[a] for a in item["attrs"]], "sigma": 0.0} for item in model.measured
    ]
    assert details["tree_edges"] == [[names[a], names[b]] for a, b in model.edges]

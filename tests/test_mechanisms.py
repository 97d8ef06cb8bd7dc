"""Marginal computation, tree selection, and the three synthesizers."""

import math
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri

from synthbank.binning import BinningError, encode_dataset
from synthbank.mechanisms import (
    MECHANISMS,
    SELECTION_FRACTION,
    _build_tree_model,
    _clean_distribution,
    _contributions,
    _plug_in_mi,
    MechanismError,
    PacConfig,
    PacLevel,
    compute_marginal,
    fit_aim_model,
    fit_mst_model,
    maximum_spanning_tree,
    mutual_information,
    pac_aggregate,
    pac_sigma,
    pac_synthesize,
    pac_threshold,
    parse_workload,
    run_mechanism,
    uniform_synthesize,
)
from synthbank.population import DepositMarketConfig, generate_term_deposits
from synthbank.presets import deposit_rules
from synthbank.privacy import PrivacyParams, add_gaussian_noise, split_budget

from util import make_encoded, tv_distance


# ------------------------------------------------------------- marginals

def test_marginal_count_conservation():
    data = make_encoded([[0], [1], [1], [0]], (2,))
    marg = compute_marginal(data, (0,))
    assert marg.sum() == 4
    assert list(marg) == [2, 2]


def test_marginal_perfect_dependence_diagonal():
    codes = np.array([[0, 0], [1, 1], [0, 0], [1, 1]])
    data = make_encoded(codes, (2, 2))
    marg = compute_marginal(data, (0, 1))
    assert marg[0, 1] == 0 and marg[1, 0] == 0
    assert marg[0, 0] == 2 and marg[1, 1] == 2


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
        assert marg[key] == tally.get(key, 0)


def test_marginal_rejects_duplicates_and_range():
    data = make_encoded([[0, 1]], (2, 2))
    with pytest.raises(MechanismError, match="duplicate"):
        compute_marginal(data, (0, 0))
    with pytest.raises(MechanismError, match="out of range"):
        compute_marginal(data, (0, 5))


def test_marginal_rejects_no_attributes():
    data = make_encoded([[0, 1]], (2, 2))
    with pytest.raises(MechanismError, match=r"at least one attribute, got \(\)"):
        compute_marginal(data, ())


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


# ------------------------------------------------------------- tree model

class ReferenceUnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def reference_forest(weights, n_nodes):
    """Kruskal with a union-find object over canonical pairs."""
    canon = {(min(a, b), max(a, b)): float(w) for (a, b), w in weights.items()}
    ordered = sorted(canon, key=lambda e: (-canon[e], e))
    uf = ReferenceUnionFind(n_nodes)
    return [(a, b) for a, b in ordered if uf.union(a, b)]


class ReferenceTreeModel:
    """A forest given by oriented edges and roots: the path between two
    attributes is found by breadth-first search, and sampling re-derives the
    breadth-first order from the edges."""

    def __init__(self, domain, edges, attr_dist, conditionals, roots):
        self.domain = tuple(domain)
        self.edges = list(edges)
        self.attr_dist = attr_dist
        self.conditionals = conditionals
        self.roots = list(roots)

    def sample(self, n_out, rng):
        codes = np.zeros((n_out, len(self.domain)), dtype=np.int64)
        children = {}
        for parent, child in self.edges:
            children.setdefault(parent, []).append(child)
        for root in self.roots:
            codes[:, root] = rng.choice(self.domain[root], size=n_out, p=self.attr_dist[root])
            stack = [root]
            while stack:
                parent = stack.pop(0)
                for child in sorted(children.get(parent, [])):
                    cond = self.conditionals[(parent, child)]
                    for value in range(self.domain[parent]):
                        idx = np.flatnonzero(codes[:, parent] == value)
                        if idx.size:
                            codes[idx, child] = rng.choice(
                                self.domain[child], size=idx.size, p=cond[value]
                            )
                    stack.append(child)
        return codes

    def marginal(self, attrs):
        attrs = tuple(sorted(attrs))
        if len(attrs) == 1:
            return self.attr_dist[attrs[0]].copy()
        a, b = attrs
        path = self._path(a, b)
        if path is None:
            return np.outer(self.attr_dist[a], self.attr_dist[b])
        joint = np.diag(self.attr_dist[a])
        for u, v in zip(path, path[1:]):
            joint = joint @ self._transition(u, v)
        return joint

    def _transition(self, u, v):
        if (u, v) in self.conditionals:
            return self.conditionals[(u, v)]
        cond = self.conditionals[(v, u)]
        joint = self.attr_dist[v][:, None] * cond
        pu = joint.sum(axis=0)
        out = np.zeros((self.domain[u], self.domain[v]))
        nz = pu > 0
        out[nz] = joint.T[nz] / pu[nz, None]
        return out

    def _path(self, a, b):
        adj = {}
        for p, c in self.edges:
            adj.setdefault(p, []).append(c)
            adj.setdefault(c, []).append(p)
        seen = {a: None}
        frontier = [a]
        while frontier:
            node = frontier.pop(0)
            if node == b:
                path = [b]
                while seen[path[-1]] is not None:
                    path.append(seen[path[-1]])
                return path[::-1]
            for nxt in sorted(adj.get(node, [])):
                if nxt not in seen:
                    seen[nxt] = node
                    frontier.append(nxt)
        return None


def reference_tree_model(domain, one_way, pairs, edge_list=None):
    """The forest fit of ``_build_tree_model``, as oriented edges and roots."""
    d = len(domain)
    pair_tables = {tuple(sorted(k)): np.asarray(v, dtype=np.float64) for k, v in pairs.items()}
    if edge_list is None:
        weights = {
            key: _plug_in_mi(_clean_distribution(table, table.size).reshape(table.shape))
            for key, table in sorted(pair_tables.items())
        }
        edge_list = reference_forest(weights, d)
    adj = {i: [] for i in range(d)}
    for a, b in edge_list:
        adj[a].append(b)
        adj[b].append(a)

    def base_dist(attr):
        if attr in one_way:
            return _clean_distribution(one_way[attr], domain[attr])
        for (a, b), table in sorted(pair_tables.items()):
            if attr == a:
                return _clean_distribution(table.sum(axis=1), domain[attr])
            if attr == b:
                return _clean_distribution(table.sum(axis=0), domain[attr])
        return np.full(domain[attr], 1.0 / domain[attr])

    attr_dist, conditionals, oriented, roots, visited = {}, {}, [], [], set()
    for root in range(d):
        if root in visited:
            continue
        roots.append(root)
        visited.add(root)
        attr_dist[root] = base_dist(root)
        frontier = [root]
        while frontier:
            parent = frontier.pop(0)
            for child in sorted(adj[parent]):
                if child in visited:
                    continue
                visited.add(child)
                table = pair_tables[(min(parent, child), max(parent, child))]
                if parent > child:
                    table = table.T
                table = np.clip(table, 0.0, None)
                fallback = _clean_distribution(table.sum(axis=0), domain[child])
                cond = np.empty((domain[parent], domain[child]))
                row_sums = table.sum(axis=1)
                for v in range(domain[parent]):
                    cond[v] = table[v] / row_sums[v] if row_sums[v] > 0 else fallback
                conditionals[(parent, child)] = cond
                attr_dist[child] = attr_dist[parent] @ cond
                oriented.append((parent, child))
                frontier.append(child)
    return ReferenceTreeModel(domain, oriented, attr_dist, conditionals, roots)


def noisy_table(rng, shape, kind, shared):
    """Noisy counts with some negative cells; ``kind`` 1 zeroes some rows of
    the first axis, 2 the whole table, and 3 repeats the table of ``shared``
    for this shape, which ties the mutual information of the pairs using it."""
    if kind == 3:
        return shared.setdefault(shape, noisy_table(rng, shape, 0, shared)).copy()
    table = rng.integers(0, 30, size=shape) + rng.normal(0.0, 4.0, size=shape)
    if kind == 1:
        table[rng.random(shape[0]) < 0.5] = 0.0
    elif kind == 2:
        table[...] = 0.0
    return table


@st.composite
def forest_fits(draw):
    """Domain, one-way and pair tables, and an edge list (None for the
    mutual-information forest) of one ``_build_tree_model`` call."""
    domain = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=8)))
    d = len(domain)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    all_pairs = list(combinations(range(d), 2))
    if draw(st.booleans()):
        # a random forest: each attribute hangs under an earlier one or
        # starts a component; edges are given in either orientation
        edge_list = []
        for child in range(1, d):
            parent = draw(st.integers(-1, child - 1))
            if parent >= 0:
                edge_list.append((parent, child) if draw(st.booleans()) else (child, parent))
        draw(st.randoms()).shuffle(edge_list)
        measured = sorted({tuple(sorted(e)) for e in edge_list})
    else:
        edge_list = None
        measured = draw(st.lists(st.sampled_from(all_pairs), unique=True)) if all_pairs else []
    shared = {}
    pairs = {
        (a, b): noisy_table(rng, (domain[a], domain[b]), draw(st.integers(0, 3)), shared)
        for a, b in measured
    }
    one_way = {
        a: noisy_table(rng, (domain[a],), draw(st.integers(0, 3)), shared)
        for a in draw(st.lists(st.integers(0, d - 1), unique=True))
    }
    return domain, one_way, pairs, edge_list


@settings(max_examples=50, deadline=None)
@given(fit=forest_fits(), n_out=st.integers(0, 40), seed=st.integers(0, 2**32 - 1))
def test_tree_model_matches_breadth_first_reference(fit, n_out, seed):
    domain, one_way, pairs, edge_list = fit
    model = _build_tree_model(domain, one_way, pairs, edge_list=edge_list)
    ref = reference_tree_model(domain, one_way, pairs, edge_list=edge_list)
    assert model.edges == ref.edges
    assert model.roots == ref.roots
    d = len(domain)
    for attrs in [(a,) for a in range(d)] + list(combinations(range(d), 2)):
        got, want = model.marginal(attrs), ref.marginal(attrs)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), attrs
    rng_model, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    assert np.array_equal(model.sample(n_out, rng_model), ref.sample(n_out, rng_ref))
    assert rng_model.random() == rng_ref.random()


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
        exact = compute_marginal(data, attrs) / n
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
            compute_marginal(data, attrs), compute_marginal(synth, attrs)
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
    exact = compute_marginal(enc, pair)
    params = PrivacyParams(1.0, 1e-10)
    n = enc.n_records
    aim_tv, mst_tv = [], []
    for seed in range(20):
        synth_a, _, _ = run_mechanism(
            enc, "aim", params, n, np.random.default_rng(1000 + seed),
            rounds=1, workload=[(("Period", "InterestRate"), 1.0)],
        )
        synth_m, _, _ = run_mechanism(enc, "mst", params, n, np.random.default_rng(2000 + seed))
        aim_tv.append(tv_distance(exact, compute_marginal(synth_a, pair)))
        mst_tv.append(tv_distance(exact, compute_marginal(synth_m, pair)))
    assert np.mean(aim_tv) <= np.mean(mst_tv), (np.mean(aim_tv), np.mean(mst_tv))


# ------------------------------------------- MST and AIM selection noise

def reference_split(params, m, selection_fraction):
    """The measurement scale and the whole selection epsilon (None without
    one) of ``m`` measurements, split by ``split_budget`` with the selection
    taken as one; (0, None) noiseless."""
    eps_selection, sigma = split_budget(params, m, 1, selection_fraction)
    return sigma, eps_selection


def reference_fit_mst_model(data, params, rng, selection_fraction):
    """``fit_mst_model`` with one scalar Gumbel draw per pair, in sorted pair
    order; returns the forest and the measured marginals."""
    d, n = data.n_columns, data.n_records
    sigma, eps_selection = reference_split(params, d, selection_fraction)
    if n == 0 and sigma == 0:
        raise MechanismError("empty input in noiseless mode")
    edges = []
    if d >= 2:
        scores = {pair: mutual_information(data, *pair) for pair in combinations(range(d), 2)}
        if eps_selection is not None:
            eps_per_edge = eps_selection / (d - 1)
            sensitivity = 2.0 * math.log(max(n, 2)) / max(n, 1)
            scale = 2.0 * sensitivity / eps_per_edge
            for pair in sorted(scores):
                scores[pair] += rng.gumbel(0.0, scale)
        edges = reference_forest(scores, d)
    measured = [(0,), *sorted(edges)]
    noisy = {
        attrs: add_gaussian_noise(compute_marginal(data, attrs), sigma, rng).counts
        for attrs in measured
    }
    pairs = {attrs: counts for attrs, counts in noisy.items() if len(attrs) == 2}
    model = reference_tree_model(data.codebook.domain_sizes, {0: noisy[(0,)]}, pairs, edges)
    return model, [{"attrs": attrs, "sigma": sigma} for attrs in measured]


def reference_fit_aim_model(data, workload, params, rounds, rng, selection_fraction):
    """``fit_aim_model`` with one scalar Gumbel draw per workload entry and a
    strict ``>`` pick, so the first maximum wins; returns the forest and the
    measured marginals."""
    n = data.n_records
    sigma, eps_selection = reference_split(params, rounds, selection_fraction)
    if n == 0 and sigma == 0:
        raise MechanismError("empty input in noiseless mode")
    domain = data.codebook.domain_sizes
    sums, hits, measured = {}, {}, []
    model = reference_tree_model(domain, {}, {}, edge_list=[])
    exact = {attrs: compute_marginal(data, attrs) for attrs, _ in workload}
    max_weight = max(weight for _, weight in workload)
    for _ in range(rounds):
        best_attrs, best_score = None, -np.inf
        for attrs, weight in workload:
            estimate = model.marginal(attrs) * n
            gap = float(np.abs(estimate - exact[attrs]).sum())
            score = weight * (gap - sigma * math.sqrt(2.0 / math.pi) * estimate.size)
            if eps_selection is not None:
                score += rng.gumbel(0.0, 2.0 * 2.0 * max_weight / (eps_selection / rounds))
            if score > best_score:
                best_attrs, best_score = attrs, score
        noisy = add_gaussian_noise(exact[best_attrs], sigma, rng)
        if best_attrs in sums:
            sums[best_attrs] = sums[best_attrs] + noisy.counts
            hits[best_attrs] += 1
        else:
            sums[best_attrs] = noisy.counts.copy()
            hits[best_attrs] = 1
        measured.append({"attrs": best_attrs, "sigma": sigma})
        one_way = {k[0]: sums[k] / hits[k] for k in sums if len(k) == 1}
        pairs = {k: sums[k] / hits[k] for k in sums if len(k) == 2}
        model = reference_tree_model(domain, one_way, pairs)
    return model, measured


@st.composite
def tied_tables(draw):
    """Up to 40 records over 1 to 5 columns; a column may copy an earlier
    one, which ties the scores of the marginals that use either."""
    domain, copies = [], []
    for j in range(draw(st.integers(1, 5))):
        source = draw(st.integers(0, j))
        copies.append(source)
        domain.append(domain[source] if source < j else draw(st.integers(1, 4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 40))
    codes = np.empty((n, len(domain)), dtype=np.int64)
    for j, source in enumerate(copies):
        codes[:, j] = codes[:, source] if source < j else rng.integers(0, domain[j], n)
    return make_encoded(codes, domain)


#: noiseless, a small and a large budget
EPSILONS = st.sampled_from([None, 0.05, 50.0])
FRACTIONS = st.sampled_from([SELECTION_FRACTION, 0.0, 0.5])


def assert_same_fit(fit, reference, params, seed, n_out):
    """``fit`` and ``reference``, each from a generator of ``seed``, give the
    same forest, measurements, samples and generator state, or both reject
    an empty input in noiseless mode."""
    rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    try:
        model = fit(rng)
    except MechanismError as exc:
        assert params is None and "empty input" in str(exc)
        with pytest.raises(MechanismError, match="empty input"):
            reference(rng_ref)
        return
    ref, measured = reference(rng_ref)
    assert model.edges == ref.edges
    assert model.measured == measured
    assert np.array_equal(model.sample(n_out, rng), ref.sample(n_out, rng_ref))
    assert rng.bit_generator.state == rng_ref.bit_generator.state


@settings(max_examples=150, deadline=None)
@given(data=tied_tables(), epsilon=EPSILONS, fraction=FRACTIONS,
       seed=st.integers(0, 2**32 - 1), n_out=st.integers(0, 20))
def test_fit_mst_model_matches_scalar_draw_reference(data, epsilon, fraction, seed, n_out):
    params = None if epsilon is None else PrivacyParams(epsilon, 1e-6)
    assert_same_fit(
        lambda rng: fit_mst_model(data, params, rng, fraction),
        lambda rng: reference_fit_mst_model(data, params, rng, fraction),
        params, seed, n_out,
    )


@settings(max_examples=150, deadline=None)
@given(data=tied_tables(), epsilon=EPSILONS, fraction=FRACTIONS, rounds=st.integers(1, 4),
       picks=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4),
                                st.sampled_from([0.5, 1.0, 2.0])), min_size=1, max_size=6),
       seed=st.integers(0, 2**32 - 1), n_out=st.integers(0, 20))
def test_fit_aim_model_matches_scalar_draw_reference(
    data, epsilon, fraction, rounds, picks, seed, n_out
):
    d = data.n_columns
    workload, seen = [], set()
    for a, b, weight in picks:
        attrs = tuple(sorted({a % d, b % d}))
        if attrs not in seen:
            seen.add(attrs)
            workload.append((attrs, weight))
    params = None if epsilon is None else PrivacyParams(epsilon, 1e-6)
    assert_same_fit(
        lambda rng: fit_aim_model(data, workload, params, rounds, rng, fraction),
        lambda rng: reference_fit_aim_model(data, workload, params, rounds, rng, fraction),
        params, seed, n_out,
    )


# ------------------------------------------------------------------- PAC

def test_pac_threshold_median_case():
    cfg = PacConfig(eta=0.5)
    assert abs(pac_threshold(cfg, math.sqrt(3.0), 10, 10)) < 1e-12  # quantile 0.5 -> 0


def test_pac_threshold_normal_quantile():
    cfg = PacConfig(eta=0.025)
    rho = pac_threshold(cfg, math.sqrt(3.0), 10, 10)
    assert abs(rho - math.sqrt(3.0) * 1.959964) < 1e-4


def test_pac_threshold_spurious_bound_consistency():
    cell_scale = math.sqrt(3.0)
    for eta in (0.5, 0.025):
        rho = pac_threshold(PacConfig(eta=eta), cell_scale, 10, 10)
        bound = 1.0 - ndtr(rho / cell_scale)
        assert abs(bound - eta) < 1e-10


def test_pac_threshold_matches_scipy_ndtri():
    """The standard library's normal quantile gives scipy's threshold to 2e-15."""
    rng = np.random.default_rng(1988)
    for _ in range(10_000):
        eta = float(rng.uniform(1e-9, 1.0))
        cell_scale = float(rng.uniform(0.01, 1500.0))
        v_k = int(rng.integers(1, 1_000_000))
        s_prev = int(rng.integers(0, 2 * v_k))
        quantile = 1.0 - eta * min(1.0, s_prev / v_k)
        want = cell_scale * float(ndtri(quantile))
        got = pac_threshold(PacConfig(eta=eta), cell_scale, s_prev, v_k)
        assert got == want or abs(got - want) <= 2e-15 * abs(want), (eta, s_prev, v_k)
    for cell_scale in (1e-6, 1.0, 250.0):
        assert pac_threshold(PacConfig(), cell_scale, 0, 17) == math.inf


def test_pac_all_identical_rows_noiseless():
    codes = np.tile([1, 0, 2], (500, 1))
    data = make_encoded(codes, (3, 2, 4))
    synth = pac_synthesize(data, PacConfig(), None, 200, np.random.default_rng(11))
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
        levels = pac_aggregate(data, PacConfig(), params, np.random.default_rng(seed))
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
    pac_out = pac_synthesize(data, PacConfig(), params, n, np.random.default_rng(18))
    mst_out, _, _ = run_mechanism(data, "mst", params, n, np.random.default_rng(18))
    pac_distinct = len({tuple(r) for r in pac_out.codes.tolist()})
    mst_distinct = len({tuple(r) for r in mst_out.codes.tolist()})
    assert pac_distinct < mst_distinct


def test_pac_reserved_code_marked():
    # PAC marks no reserved code: its output keeps the input codebook, and
    # every code lies inside its column's domain
    rng = np.random.default_rng(17)
    a = rng.integers(0, 4, 3000)
    b = (a + rng.integers(0, 2, 3000)) % 4
    data = make_encoded(np.column_stack([a, b]), (4, 4))
    synth = pac_synthesize(data, PacConfig(), PrivacyParams(1.0, 1e-10), 500,
                           np.random.default_rng(19))
    assert synth.codebook is data.codebook
    assert not any(codec.has_suppressed for codec in synth.codebook)
    assert (synth.codes >= 0).all()
    assert (synth.codes < np.array(data.codebook.domain_sizes)).all()


def test_pac_one_column_draws_only_surviving_one_way_values():
    # on one column the pair level is empty, so every value is drawn from
    # the one-way survivors: values 2 to 4 are too rare to survive at eps=1
    data = make_encoded([0] * 1000 + [1] * 500 + [2] + [4] * 2, (5,))
    config, params = PacConfig(), PrivacyParams(1.0, 1e-10)
    one_way, pair = pac_aggregate(data, config, params, np.random.default_rng(20))
    assert (pair.n_candidates, pair.n_survivors, pair.rho, pair.weights) == (0, 0, math.inf, {})
    assert np.flatnonzero(one_way.weights[(0,)]).tolist() == [0, 1]
    synth = pac_synthesize(data, config, params, 500, np.random.default_rng(20))
    assert set(synth.codes[:, 0].tolist()) == {0, 1}


def test_pac_noise_scale_counts_the_subsets_a_record_adds_to():
    # two columns with delta_k = 3: a record adds to both one-way cells
    # and the one pair cell, so the noise s.d. is sigma * sqrt(2) for a
    # one-way cell and sigma for a pair cell
    rng = np.random.default_rng(21)
    data = make_encoded(rng.integers(0, 3, (3000, 2)), (3, 3))
    config, params = PacConfig(delta_k=3), PrivacyParams(1.0, 1e-10)
    scales = []

    class Recording:
        def normal(self, loc, scale, size):
            scales.append(scale)
            return rng.normal(loc, scale, size)

    one_way, pair = pac_aggregate(data, config, params, Recording())
    sigma = pac_sigma(params)
    assert scales == [sigma * math.sqrt(2.0)] * 2 + [sigma]
    assert one_way.rho == pac_threshold(config, sigma * math.sqrt(2.0), 1, 6)
    assert pair.rho == pac_threshold(config, sigma, one_way.n_survivors, pair.n_candidates)


@pytest.mark.parametrize(
    "fields, message",
    [
        # each message is matched as a pattern inside the raised one
        ({"delta_k": 0}, "k must be an integer >= 1, got 0"),
        ({"delta_k": 2.0}, "k must be an integer >= 1, got 2.0"),
        ({"delta_k": "2"}, "k must be an integer >= 1, got '2'"),
        ({"eta": "x"}, "eta must lie in"),
        ({"delta_k": None}, "delta_k must be an integer >= 1, got None"),
        ({"delta_k": 2.5}, "delta_k must be an integer >= 1, got 2.5"),
        ({"delta_k": True}, "delta_k must not be a boolean, got True"),
    ],
)
def test_pac_config_rejects_bad_fields(fields, message):
    with pytest.raises(MechanismError, match=message):
        PacConfig(**fields)


def reference_pac_aggregate(data, config, params, rng):
    """``pac_aggregate`` as one weight table per subset from a copy of the
    contributing rows, with ``argsort``'s picks for every record."""
    d = data.n_columns
    sigma = pac_sigma(params)
    domain = data.codebook.domain_sizes
    n = data.n_records
    cap = config.delta_k

    levels = []
    kept_masks = {}
    s_prev = 1
    for length in (1, 2):
        subsets = list(combinations(range(d), length))
        contrib = None
        if len(subsets) > cap and n > 0:
            picks = np.argsort(rng.random((n, len(subsets))), axis=1)[:, :cap]
            contrib = np.zeros((n, len(subsets)), dtype=bool)
            contrib[np.arange(n)[:, None], picks] = True

        tables = {}
        for si, attrs in enumerate(subsets):
            rows = data.codes if contrib is None else data.codes[contrib[:, si]]
            shape = tuple(domain[a] for a in attrs)
            flat = np.ravel_multi_index([rows[:, a] for a in attrs], shape)
            counts = np.bincount(flat, minlength=math.prod(shape)).reshape(shape)
            tables[attrs] = counts.astype(np.float64)

        if length == 1:
            cand_masks = {attrs: np.ones(tables[attrs].shape, dtype=bool) for attrs in subsets}
        else:
            cand_masks = {(a, b): kept_masks[(a,)][:, None] & kept_masks[(b,)][None, :]
                          for a, b in subsets}
        total_candidates = sum(int(mask.sum()) for mask in cand_masks.values())

        if total_candidates == 0:
            levels.append(PacLevel(length, sigma, math.inf, 0, 0,
                                   {attrs: np.zeros(tables[attrs].shape) for attrs in subsets}))
            kept_masks = cand_masks
            s_prev = 0
            continue

        # a record adds 1 to one cell of each subset it contributes to
        cell_scale = sigma * math.sqrt(min(cap, len(subsets)))
        rho = pac_threshold(config, cell_scale, s_prev, total_candidates)
        weights = {}
        kept_masks = {}
        n_survivors = 0
        for attrs in subsets:
            mask = cand_masks[attrs]
            counts = tables[attrs]
            idx = np.flatnonzero(mask.ravel())
            noisy = counts.ravel()[idx]
            if cell_scale > 0 and idx.size:
                noisy = noisy + rng.normal(0.0, cell_scale, size=idx.size)
            keep = (noisy >= rho) & (noisy > 0)
            warr = np.zeros(counts.size)
            warr[idx[keep]] = noisy[keep]
            weights[attrs] = warr.reshape(counts.shape)
            kept = np.zeros(counts.size, dtype=bool)
            kept[idx[keep]] = True
            kept_masks[attrs] = kept.reshape(counts.shape)
            n_survivors += int(keep.sum())
        levels.append(PacLevel(length, sigma, rho, total_candidates, n_survivors, weights))
        s_prev = n_survivors
    return levels


def reference_pac_synthesize(data, config, params, n_out, rng):
    """``pac_synthesize`` with one weight row per synthetic row."""
    if n_out < 0:
        raise MechanismError("n_out must be non-negative")
    levels = reference_pac_aggregate(data, config, params, rng)
    d = data.n_columns
    domain = data.codebook.domain_sizes
    one_way = {a: levels[0].weights[(a,)] for a in range(d)}
    pair_w = levels[1].weights

    order = sorted(range(d), key=lambda a: (-float(one_way[a].sum()), a))
    out = np.empty((n_out, d), dtype=np.int64)
    out[:] = domain  # a code no value resolved

    fixed = []
    for a in order:
        dom_a = domain[a]
        weights = np.zeros((n_out, dom_a))
        for b in fixed:
            key = (min(a, b), max(a, b))
            table = pair_w.get(key)
            if table is None:
                continue
            valid = out[:, b] < domain[b]
            if not valid.any():
                continue
            if a < b:
                gathered = table[:, out[valid, b]].T
            else:
                gathered = table[out[valid, b], :]
            weights[valid] += gathered
        totals = weights.sum(axis=1)
        no_pair = totals <= 0
        if no_pair.any():
            weights[no_pair] = one_way[a]
            totals = weights.sum(axis=1)
        unresolved = totals <= 0
        cum = np.cumsum(weights, axis=1)
        draws = rng.random(n_out) * cum[:, -1]
        codes_a = (cum <= draws[:, None]).sum(axis=1).astype(np.int64)
        codes_a = np.minimum(codes_a, dom_a - 1)
        codes_a[unresolved] = dom_a
        out[:, a] = codes_a
        fixed.append(a)
    return out


def same_float(x, y) -> bool:
    return np.float64(x).tobytes() == np.float64(y).tobytes()


def assert_same_levels(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        counts = (g.length, g.n_candidates, g.n_survivors)
        assert counts == (w.length, w.n_candidates, w.n_survivors)
        assert same_float(g.sigma, w.sigma) and same_float(g.rho, w.rho)
        assert list(g.weights) == list(w.weights)
        for attrs, table in g.weights.items():
            assert table.dtype == w.weights[attrs].dtype and table.shape == w.weights[attrs].shape
            assert table.tobytes() == w.weights[attrs].tobytes(), (g.length, attrs)


@st.composite
def pac_inputs(draw):
    """An encoded dataset and the PAC settings of one synthesis."""
    domain = tuple(draw(st.lists(st.integers(1, 9), min_size=1, max_size=7)))
    n = draw(st.integers(0, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # skewed codes, so some tuples are rare and some common
    codes = np.column_stack([
        np.minimum(rng.geometric(draw(st.sampled_from([0.2, 0.5, 0.9])), n) - 1, size - 1)
        for size in domain
    ]) if n else np.zeros((0, len(domain)), dtype=np.int64)
    data = make_encoded(codes, domain)
    config = PacConfig(delta_k=draw(st.sampled_from([1, 2, 3, 50])))
    params = draw(st.sampled_from([None, PrivacyParams(1.0, 1e-9), PrivacyParams(20.0, 1e-6)]))
    n_out = draw(st.sampled_from([0, 1, 7, 300]))
    return data, config, params, n_out


def pac_error(names) -> str:
    return (f"no value of column(s) {', '.join(map(repr, names))} survived PAC's "
            "one-way threshold; no row can be drawn")


def assert_pac_matches_reference(data, config, params, n_out, make_rng):
    """``pac_synthesize`` raises, before it draws any row, exactly when the
    reference aggregation keeps no one-way value of some column; otherwise
    its codes are the reference's, each inside its domain."""
    levels = reference_pac_aggregate(data, config, params, make_rng())
    names = data.codebook.names
    empty = [names[a] for a in range(len(names)) if not levels[0].weights[(a,)].any()]
    rng, ref_rng = make_rng(), make_rng()
    if empty:
        with pytest.raises(MechanismError) as info:
            pac_synthesize(data, config, params, n_out, rng)
        assert str(info.value) == pac_error(empty)
        reference_pac_aggregate(data, config, params, ref_rng)
    else:
        synth = pac_synthesize(data, config, params, n_out, rng)
        want = reference_pac_synthesize(data, config, params, n_out, ref_rng)
        assert synth.codebook is data.codebook
        assert synth.codes.dtype == want.dtype and np.array_equal(synth.codes, want)
        assert (synth.codes < np.array(data.codebook.domain_sizes)).all()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@settings(max_examples=150, deadline=None)
@given(inputs=pac_inputs(), seed=st.integers(0, 2**32 - 1))
def test_pac_matches_per_row_reference(inputs, seed):
    data, config, params, n_out = inputs
    assert_pac_matches_reference(data, config, params, n_out,
                                 lambda: np.random.default_rng(seed))
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert_same_levels(pac_aggregate(data, config, params, rng),
                       reference_pac_aggregate(data, config, params, ref_rng))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


class PlantedTies:
    """A generator whose matrices of uniform draws take five values only,
    so most records tie at the contribution cap."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def random(self, size):
        u = self.rng.random(size)
        return np.round(u * 4) / 4 if np.ndim(u) == 2 else u

    def normal(self, *args, **kwargs):
        return self.rng.normal(*args, **kwargs)

    @property
    def bit_generator(self):
        return self.rng.bit_generator


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pac_ties_at_the_cap_pick_what_argsort_picks(seed):
    u = np.array([
        [0.5, 0.5, 0.5, 0.5, 0.5, 0.5],  # all tied
        [0.1, 0.7, 0.3, 0.3, 0.9, 0.3],  # three tied across the cap of 3
        [0.3, 0.2, 0.2, 0.8, 0.2, 0.1],  # the cap-th and next value equal
        [0.4, 0.1, 0.1, 0.6, 0.6, 0.1],  # tied below the cap only
        [0.9, 0.8, 0.7, 0.6, 0.5, 0.4],  # no tie
    ])
    for cap in (1, 2, 3, 5):
        want = np.zeros(u.shape, dtype=bool)
        want[np.arange(len(u))[:, None], np.argsort(u, axis=1)[:, :cap]] = True
        got = _contributions(u, cap)
        assert np.array_equal(got, want), cap
        assert (got.sum(axis=1) == cap).all()
    rng = np.random.default_rng(seed)
    data = make_encoded(rng.integers(0, 4, (300, 6)), (4, 4, 4, 4, 4, 4))
    config = PacConfig(delta_k=3)
    params = PrivacyParams(5.0, 1e-9)
    assert_pac_matches_reference(data, config, params, 200, lambda: PlantedTies(seed))
    assert_same_levels(pac_aggregate(data, config, params, PlantedTies(seed)),
                       reference_pac_aggregate(data, config, params, PlantedTies(seed)))


def test_pac_raises_when_a_column_keeps_no_value():
    # no value of two records clears the one-way threshold at epsilon = 1
    data = make_encoded([[0, 1], [1, 0]], (2, 2))
    config, params = PacConfig(), PrivacyParams(1.0, 1e-10)
    rng = np.random.default_rng(19)
    with pytest.raises(MechanismError) as info:
        pac_synthesize(data, config, params, 50, rng)
    assert str(info.value) == pac_error(["a0", "a1"])
    # no row was drawn: the generator stands where the aggregation left it
    after = np.random.default_rng(19)
    pac_aggregate(data, config, params, after)
    assert rng.bit_generator.state == after.bit_generator.state


def test_pac_level_without_candidates_has_no_threshold_and_no_weights():
    # no one-way value of two records survives at epsilon = 1, so the pair
    # level has no candidate: no cell is noised and none survives
    data = make_encoded([[0, 1], [1, 0]], (2, 2))
    config, params = PacConfig(), PrivacyParams(1.0, 1e-10)
    rng, ref_rng = np.random.default_rng(19), np.random.default_rng(19)
    levels = pac_aggregate(data, config, params, rng)
    assert (levels[0].n_candidates, levels[0].n_survivors) == (4, 0)
    pair = levels[1]
    assert (pair.rho, pair.n_candidates, pair.n_survivors) == (math.inf, 0, 0)
    assert list(pair.weights) == [(0, 1)] and not pair.weights[(0, 1)].any()
    assert_same_levels(levels, reference_pac_aggregate(data, config, params, ref_rng))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_pac_rejects_the_suppressed_code():
    # the code one past the domain, once PAC's suppressed code, cannot reach
    # pac_aggregate: the encoded dataset refuses it
    with pytest.raises(BinningError, match="column 'a1': code out of range"):
        make_encoded([[0, 2], [1, 0]], (2, 2))
    # and PAC raises rather than emit it when a column keeps no value
    data = make_encoded([[0, 1], [1, 0]], (2, 2))
    with pytest.raises(MechanismError, match="no row can be drawn"):
        pac_synthesize(data, PacConfig(), PrivacyParams(1.0, 1e-10), 50,
                       np.random.default_rng(19))


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
    _, privacy, details = run_mechanism(
        data, "aim", None, 10, np.random.default_rng(32), rounds=2, workload=workload
    )
    model = fit_aim_model(
        data, [((0, 2), 1.0), ((1,), 1.0)], None, 2, np.random.default_rng(32)
    )
    names = data.codebook.names
    assert privacy == {"selection_fraction": SELECTION_FRACTION, "sigma_per_measurement": 0.0}
    assert details["measured"] == [
        {"attrs": [names[a] for a in item["attrs"]], "sigma": 0.0} for item in model.measured
    ]
    assert details["tree_edges"] == [[names[a], names[b]] for a, b in model.edges]


@pytest.mark.parametrize("d, delta_k", [(1, 3), (2, 3), (4, 2)])
def test_run_mechanism_records_the_noise_pac_added(d, delta_k):
    # the manifest's privacy record must hold the scale each PAC level
    # added to its cells, and no selection share: PAC spends none
    rng = np.random.default_rng(33)
    data = make_encoded(rng.integers(0, 3, (2000, d)), (3,) * d)
    params = PrivacyParams(1.0, 1e-10)
    scales = []

    class Recording:
        def __getattr__(self, name):
            return getattr(rng, name)

        def normal(self, loc, scale, size):
            scales.append(scale)
            return rng.normal(loc, scale, size)

    _, privacy, details = run_mechanism(
        data, "pac", params, 500, Recording(), pac=PacConfig(delta_k=delta_k)
    )
    one_way, pair = privacy["sigma_per_measurement"]
    pairs = math.comb(d, 2)
    # one normal draw per subset: d one-way subsets, then the pairs
    assert scales == [one_way] * d + [pair] * pairs
    assert one_way == pac_sigma(params) * math.sqrt(min(delta_k, d))
    assert pair == pac_sigma(params) * math.sqrt(min(delta_k, pairs))
    assert privacy["selection_fraction"] == 0.0
    assert details == {"pac": {"eta": 0.01, "delta_k": delta_k}}

"""Marginal-based synthesizers over encoded (all-categorical) data.

``run_mechanism`` runs any of the three ``MECHANISMS`` end to end. They
share the same measurement primitives:

* ``mst`` (``fit_mst_model``) scores attribute pairs by mutual information,
  perturbs the scores with Gumbel noise (report-noisy-max style) under the
  selection budget, keeps the maximum spanning tree, measures the root's
  one-way and every edge's two-way marginal with Gaussian noise, and
  samples rows from the fitted tree model.
* ``aim`` (``fit_aim_model``) is a workload-aware greedy loop: each round
  scores every workload marginal (see ``parse_workload``) by the L1 gap
  between the current model estimate and the exact data marginal minus an
  expected-noise penalty, selects the max-score marginal via the selection
  budget, measures it, and refits.
* ``pac`` (``pac_synthesize``) extracts one-way and pair tuple counts
  with a per-record contribution cap, adds Gaussian noise, suppresses
  tuples whose noisy count falls below the spurious-tuple threshold, and
  assembles rows greedily from surviving tuples. A column none of whose
  values survives raises ``MechanismError``.

Every noise scale comes from :mod:`synthbank.privacy` (``split_budget``,
``noisy_max``); this module supplies only the sensitivities.

Tree fitting is exact closed-form inference (root marginal plus edge
conditionals), which is correct for the tree-structured measurement sets
these mechanisms produce; no iterative graphical-model estimation is
needed. A fitted forest is one list of sampling steps, ``(None, root)``
for each component and ``(parent, child)`` for each edge in breadth-first
order: sampling walks the steps, and a two-way model marginal multiplies
the edge tables along the parent links between its attributes. Passing
``params=None`` runs any mechanism in the noiseless diagnostic mode
(sigma = 0, exact selection).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from itertools import combinations
from statistics import NormalDist

import numpy as np

from .binning import Codebook, EncodedDataset, draw_index
from .checks import is_int, is_real, reject_bools
from .privacy import PrivacyParams, add_gaussian_noise, noisy_max, split_budget

__all__ = [
    "MECHANISMS",
    "SELECTION_FRACTION",
    "ROUNDS",
    "MechanismError",
    "TreeModel",
    "PacConfig",
    "PacLevel",
    "compute_marginal",
    "mutual_information",
    "maximum_spanning_tree",
    "fit_mst_model",
    "parse_workload",
    "fit_aim_model",
    "pac_sigma",
    "pac_threshold",
    "pac_aggregate",
    "pac_synthesize",
    "uniform_synthesize",
    "run_mechanism",
]

MECHANISMS = ("mst", "aim", "pac")
#: the default share of the budget spent on selection (MST and AIM)
SELECTION_FRACTION = 1.0 / 3.0
#: the default number of AIM rounds
ROUNDS = 10


class MechanismError(ValueError):
    """Invalid mechanism input or configuration."""


def _count(columns: np.ndarray, attrs, domain, weights=None) -> np.ndarray:
    """Contingency table over ``attrs`` of the codes ``columns`` (one row per
    attribute, of ``domain`` sizes), each record adding 1 or its ``weights``."""
    flat = columns[attrs[0]]
    for a in attrs[1:]:
        flat = flat * domain[a] + columns[a]
    shape = [domain[a] for a in attrs]
    return np.bincount(flat, weights, math.prod(shape)).reshape(shape)


def compute_marginal(data: EncodedDataset, attrs) -> np.ndarray:
    """Exact, read-only contingency table of the records over ``attrs``.

    Axes follow ascending attribute order regardless of the order given.
    """
    attrs = tuple(attrs)
    if not attrs:
        raise MechanismError("a marginal needs at least one attribute, got ()")
    if len(set(attrs)) != len(attrs):
        raise MechanismError(f"duplicate attribute in {attrs}")
    d = data.n_columns
    if any(a < 0 or a >= d for a in attrs):
        raise MechanismError(f"attribute out of range in {attrs} (have {d} columns)")
    counts = _count(data.codes.T, sorted(attrs), data.codebook.domain_sizes)
    counts.setflags(write=False)
    return counts


def mutual_information(data: EncodedDataset, a: int, b: int) -> float:
    """Plug-in mutual information (nats) from the exact two-way marginal."""
    if a == b:
        raise MechanismError("mutual information needs two distinct attributes")
    counts = compute_marginal(data, (a, b)).astype(np.float64)
    n = counts.sum()
    if n == 0:
        return 0.0
    return max(_plug_in_mi(counts / n), 0.0)


def _plug_in_mi(p: np.ndarray) -> float:
    """Mutual information (nats) of a normalised two-way probability table."""
    px = p.sum(axis=1, keepdims=True)
    py = p.sum(axis=0, keepdims=True)
    mask = p > 0
    return float(np.sum(p[mask] * np.log(p[mask] / (px @ py)[mask])))


def _kruskal(weights: dict, nodes) -> list[tuple[int, int]]:
    """Maximum spanning forest of ``nodes``: Kruskal over the sorted pairs of
    ``weights`` by descending weight, ties broken lexicographically."""
    root = {node: node for node in nodes}

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    edges = []
    for a, b in sorted(weights, key=lambda e: (-weights[e], e)):
        ra, rb = find(a), find(b)
        if ra != rb:
            root[rb] = ra
            edges.append((a, b))
    return edges


def maximum_spanning_tree(weights: dict) -> list[tuple[int, int]]:
    """Spanning tree maximizing total weight; lexicographic tie-break.

    ``weights`` maps attribute pairs to symmetric weights. Raises if the
    weight map does not connect all attributes.
    """
    canon = {}
    for (a, b), w in weights.items():
        if a == b:
            raise MechanismError("self-loop in weight map")
        canon[(min(a, b), max(a, b))] = float(w)
    nodes = sorted({v for e in canon for v in e})
    if len(nodes) < 2:
        raise MechanismError("spanning tree needs at least two attributes")
    edges = _kruskal(canon, nodes)
    if len(edges) != len(nodes) - 1:
        raise MechanismError("weight map does not connect all attributes")
    return edges


def _clean_distribution(counts, size: int) -> np.ndarray:
    """Clip negatives, normalize to a probability vector; uniform fallback."""
    arr = np.clip(np.asarray(counts, dtype=np.float64), 0.0, None)
    total = arr.sum()
    if total <= 0:
        return np.full(size, 1.0 / size)
    return arr / total


class TreeModel:
    """Fitted forest of measured marginals, ready to sample.

    ``steps`` lists the forest in sampling order: each component's smallest
    attribute as a ``(None, root)`` step, then one ``(parent, child)`` step
    per edge, breadth first from the root with siblings in ascending order.
    The oriented ``edges``, the component ``roots`` and the parent links
    follow from the steps. Holds a probability distribution per attribute
    and a row-stochastic conditional table per oriented edge.
    """

    def __init__(self, domain, steps, attr_dist, conditionals, measured):
        self.domain = tuple(domain)
        self.steps = list(steps)
        self.edges = [(p, c) for p, c in self.steps if p is not None]
        self.roots = [c for p, c in self.steps if p is None]
        self.parent = {c: p for p, c in self.steps}
        self.attr_dist = attr_dist
        self.conditionals = conditionals
        self.measured = measured  # list of {"attrs": ..., "sigma": ...}

    def sample(self, n_out: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n_out`` rows step by step: roots from their marginals,
        children from their edge conditionals. Deterministic for a fixed
        generator state."""
        if n_out < 0:
            raise MechanismError("n_out must be non-negative")
        codes = np.zeros((n_out, len(self.domain)), dtype=np.int64, order="F")
        for parent, child in self.steps:
            if parent is None:
                dist = self.attr_dist[child]
                codes[:, child] = draw_index(rng, dist, n_out)
                continue
            cond = self.conditionals[(parent, child)]
            # a value no row holds draws nothing: a size-0 draw leaves the generator as it was
            for value in range(self.domain[parent]):
                idx = np.flatnonzero(codes[:, parent] == value)
                codes[idx, child] = draw_index(rng, cond[value], idx.size)
        return codes

    def marginal(self, attrs) -> np.ndarray:
        """Model probability table over one or two attributes."""
        attrs = tuple(sorted(attrs))
        if len(attrs) == 1:
            return self.attr_dist[attrs[0]].copy()
        if len(attrs) != 2:
            raise MechanismError("tree model exposes 1- and 2-way marginals only")
        a, b = attrs
        up, down = self._ancestors(a), self._ancestors(b)
        if up[-1] != down[-1]:  # different components
            return np.outer(self.attr_dist[a], self.attr_dist[b])
        # the tree path: up from a to the common ancestor, then down to b
        while len(up) > 1 and len(down) > 1 and up[-2] == down[-2]:
            up.pop()
            down.pop()
        path = up + down[-2::-1]
        joint = np.diag(self.attr_dist[a])
        for u, v in zip(path, path[1:]):
            joint = joint @ self._transition(u, v)
        return joint

    def _ancestors(self, attr: int) -> list[int]:
        """``attr``, its parent, and so on up to its component's root."""
        chain = [attr]
        while self.parent[chain[-1]] is not None:
            chain.append(self.parent[chain[-1]])
        return chain

    def _transition(self, u: int, v: int) -> np.ndarray:
        """Row-stochastic P(v | u) derived from the oriented edge tables."""
        if (u, v) in self.conditionals:
            return self.conditionals[(u, v)]
        cond = self.conditionals[(v, u)]  # P(u | v)
        joint = self.attr_dist[v][:, None] * cond  # (v, u)
        pu = joint.sum(axis=0)
        out = np.zeros((self.domain[u], self.domain[v]))
        nz = pu > 0
        out[nz] = (joint.T[nz] / pu[nz, None])
        return out


def _build_tree_model(domain, one_way: dict, pairs: dict, edge_list=None, measured=None) -> TreeModel:
    """Fit a forest model from cleaned noisy marginals.

    ``one_way`` maps attribute -> noisy counts, ``pairs`` maps sorted pairs
    -> noisy tables. When ``edge_list`` is None a maximum spanning forest
    over the measured pairs (weighted by the mutual information of their
    cleaned tables) decides the structure. Attributes without any
    measurement fall back to uniform distributions. Each component is
    walked breadth first from its smallest attribute, which orients every
    edge away from that root and gives the model's sampling steps.
    """
    domain = tuple(domain)
    d = len(domain)
    pair_tables = {tuple(sorted(k)): np.asarray(v, dtype=np.float64) for k, v in pairs.items()}
    if edge_list is None:
        weights = {
            key: _plug_in_mi(_clean_distribution(table, table.size).reshape(table.shape))
            for key, table in sorted(pair_tables.items())
        }
        edge_list = _kruskal(weights, range(d))

    adj: dict[int, list[int]] = {i: [] for i in range(d)}
    for a, b in edge_list:
        adj[a].append(b)
        adj[b].append(a)

    def base_dist(attr: int) -> np.ndarray:
        if attr in one_way:
            return _clean_distribution(one_way[attr], domain[attr])
        for (a, b), table in sorted(pair_tables.items()):
            if attr == a:
                return _clean_distribution(table.sum(axis=1), domain[attr])
            if attr == b:
                return _clean_distribution(table.sum(axis=0), domain[attr])
        return np.full(domain[attr], 1.0 / domain[attr])

    attr_dist: dict[int, np.ndarray] = {}
    conditionals: dict[tuple[int, int], np.ndarray] = {}
    steps: list[tuple[int | None, int]] = []
    visited: set[int] = set()
    for root in range(d):
        if root in visited:
            continue
        steps.append((None, root))
        visited.add(root)
        attr_dist[root] = base_dist(root)
        frontier = [root]
        while frontier:
            parent = frontier.pop(0)
            for child in sorted(adj[parent]):
                if child in visited:
                    continue
                visited.add(child)
                key = (min(parent, child), max(parent, child))
                table = pair_tables[key]
                if parent > child:
                    table = table.T  # axes -> (parent, child)
                table = np.clip(table, 0.0, None)
                # rows without mass take the child's distribution; cond is
                # C-ordered, as the product below rounds by memory layout
                row_sums = table.sum(axis=1)[:, None]
                cond = np.empty((domain[parent], domain[child]))
                cond[:] = _clean_distribution(table.sum(axis=0), domain[child])
                np.divide(table, row_sums, out=cond, where=row_sums > 0)
                conditionals[(parent, child)] = cond
                attr_dist[child] = attr_dist[parent] @ cond
                steps.append((parent, child))
                frontier.append(child)
    return TreeModel(domain, steps, attr_dist, conditionals, measured or [])


def fit_mst_model(
    data: EncodedDataset,
    params: PrivacyParams | None,
    rng: np.random.Generator,
    selection_fraction: float = SELECTION_FRACTION,
) -> TreeModel:
    """Select a maximum spanning tree and measure its marginals.

    With a budget, the pairwise mutual-information scores get Gumbel noise
    in one draw, scaled for the selection epsilon split equally across the
    tree's edges (exponential-mechanism equivalent); the ``d`` measurements
    use the Gaussian scale of their share (``split_budget``). ``params=None``
    is the exact noiseless mode, which needs records.
    """
    d = data.n_columns
    n = data.n_records
    if d < 1:
        raise MechanismError("need at least one attribute")
    eps_per_edge, sigma = split_budget(params, d, d - 1, selection_fraction)
    if params is None and n == 0:
        raise MechanismError("empty input in noiseless mode")

    edges: list[tuple[int, int]] = []
    if d >= 2:
        pairs = list(combinations(range(d), 2))
        scores = np.array([mutual_information(data, *pair) for pair in pairs])
        # plug-in MI sensitivity heuristic for one substituted record
        sensitivity = 2.0 * math.log(max(n, 2)) / max(n, 1)
        scores = noisy_max(scores, sensitivity, eps_per_edge, rng)
        edges = maximum_spanning_tree(dict(zip(pairs, scores)))

    # the root's one-way marginal, then every edge's two-way one
    measured = [(0,), *sorted(edges)]
    noisy = {
        attrs: add_gaussian_noise(compute_marginal(data, attrs), sigma, rng).counts
        for attrs in measured
    }
    return _build_tree_model(
        data.codebook.domain_sizes,
        {0: noisy[(0,)]},
        {attrs: counts for attrs, counts in noisy.items() if len(attrs) == 2},
        edge_list=edges,
        measured=[{"attrs": attrs, "sigma": sigma} for attrs in measured],
    )


def parse_workload(items) -> list[tuple[tuple, float]]:
    """An AIM workload as ``(attrs, weight)`` pairs.

    Each item is a list of one or two distinct column names, or an
    ``{"attrs": [...], "weight": w}`` object with a positive weight (1 when
    left out). A repeat of an earlier marginal, in any column order, is
    dropped.
    """
    if not isinstance(items, (list, tuple)):
        raise MechanismError(f"must be a list, got {items!r}")
    pairs, seen = [], set()
    for item in items:
        attrs, weight = item, 1.0
        if isinstance(item, dict):
            attrs, weight = item.get("attrs"), item.get("weight", 1.0)
        if not isinstance(attrs, (list, tuple)) or not all(isinstance(a, str) for a in attrs):
            raise MechanismError(f"entry {item!r}: needs a list of column names")
        if len(attrs) not in (1, 2):
            raise MechanismError(f"entry {item!r}: only 1- and 2-way marginals are supported")
        if len(set(attrs)) != len(attrs):
            raise MechanismError(f"entry {item!r}: duplicate column")
        if not is_real(weight) or not weight > 0:
            raise MechanismError(f"entry {item!r}: weight must be positive and finite")
        if frozenset(attrs) not in seen:
            seen.add(frozenset(attrs))
            pairs.append((tuple(attrs), float(weight)))
    return pairs


def fit_aim_model(
    data: EncodedDataset,
    workload,
    params: PrivacyParams | None,
    rounds: int,
    rng: np.random.Generator,
    selection_fraction: float = SELECTION_FRACTION,
) -> TreeModel:
    """Workload-aware greedy measurement loop (AIM-lite).

    Round scores are ``weight * (L1(model estimate, exact marginal) -
    sigma * sqrt(2/pi) * cells)``, i.e. the gap a measurement could close
    minus the expected noise it would introduce, scaled by the workload
    weight. Each round adds Gumbel noise for its share of the selection
    epsilon (``noisy_max``) to all scores in one draw and picks the first
    maximum; the chosen marginal is measured and the forest model refitted.
    Re-measured marginals are averaged. ``workload`` holds distinct
    ``(attrs, weight)`` pairs with sorted attribute indices and positive
    weights. ``params=None`` is the exact noiseless mode, which needs records.
    """
    if rounds < 1:
        raise MechanismError("rounds must be >= 1")
    if not workload:
        raise MechanismError("workload must be non-empty")
    n = data.n_records
    eps_sel_round, sigma = split_budget(params, rounds, rounds, selection_fraction)
    if params is None and n == 0:
        raise MechanismError("empty input in noiseless mode")

    domain = data.codebook.domain_sizes
    sums: dict[tuple[int, ...], np.ndarray] = {}
    hits: dict[tuple[int, ...], int] = {}
    measured = []
    model = _build_tree_model(domain, {}, {}, edge_list=[])
    exact = {attrs: compute_marginal(data, attrs) for attrs, _ in workload}
    max_weight = max(weight for _, weight in workload)

    for _ in range(rounds):
        scores = np.empty(len(workload))
        for i, (attrs, weight) in enumerate(workload):
            estimate = model.marginal(attrs) * n
            gap = float(np.abs(estimate - exact[attrs]).sum())
            penalty = sigma * math.sqrt(2.0 / math.pi) * estimate.size
            scores[i] = weight * (gap - penalty)
        # a weighted L1 gap moves by at most 2 * max_weight per record
        scores = noisy_max(scores, 2.0 * max_weight, eps_sel_round, rng)
        best_attrs = workload[int(np.argmax(scores))][0]
        noisy = add_gaussian_noise(exact[best_attrs], sigma, rng)
        sums[best_attrs] = sums.get(best_attrs, 0.0) + noisy.counts
        hits[best_attrs] = hits.get(best_attrs, 0) + 1
        measured.append({"attrs": best_attrs, "sigma": sigma})
        one_way = {k[0]: sums[k] / hits[k] for k in sums if len(k) == 1}
        pairs = {k: sums[k] / hits[k] for k in sums if len(k) == 2}
        model = _build_tree_model(domain, one_way, pairs, edge_list=None, measured=measured)
    return model


@dataclass(frozen=True)
class PacConfig:
    """Aggregate-seeded synthesiser settings.

    ``eta`` is the target spurious proportion and ``delta_k`` the number of
    attribute subsets a record may add to at each of the two levels, the
    one-way values and the pairs.
    """

    eta: float = 0.01
    delta_k: int = 3

    def __post_init__(self) -> None:
        reject_bools(MechanismError, eta=self.eta, delta_k=self.delta_k)
        if not is_real(self.eta) or not 0 < self.eta < 1:
            raise MechanismError(f"eta must lie in (0, 1), got {self.eta!r}")
        if not is_int(self.delta_k) or self.delta_k < 1:
            raise MechanismError(f"delta_k must be an integer >= 1, got {self.delta_k!r}")


def pac_threshold(config: PacConfig, cell_scale: float, s_prev: int, v_k: int) -> float:
    """Suppression threshold rho_k for one level whose cells get Gaussian
    noise of scale ``cell_scale``.

    ``rho_k = cell_scale * Phi^-1(1 - eta * min(1, s_prev/v_k))`` with Phi
    the standard normal CDF; a spurious tuple then survives with
    probability at most ``1 - Phi(rho_k / cell_scale)``.
    """
    if v_k <= 0:
        raise MechanismError("candidate tuple count must be positive")
    quantile = 1.0 - config.eta * min(1.0, s_prev / v_k)
    # inv_cdf (Wichura's AS241) takes p in (0, 1); Phi^-1(1) is +inf
    z = NormalDist().inv_cdf(quantile) if quantile < 1.0 else math.inf
    return cell_scale * z


@dataclass
class PacLevel:
    """Surviving aggregates for one tuple length."""

    length: int
    sigma: float
    rho: float
    n_candidates: int
    n_survivors: int
    weights: dict  # attrs tuple -> dense weight array over the subset domain


def pac_sigma(params: PrivacyParams | None) -> float:
    """Per-level base noise scale: ``split_budget``'s sigma for two levels
    and no selection (0 without a budget)."""
    return split_budget(params, 2, 0, 0.0)[1]


def _pac_cell_scales(params: PrivacyParams | None, config: PacConfig, d: int) -> tuple[float, float]:
    """The noise scale of every candidate cell at the one-way and at the
    pair level of ``d`` columns: a record adds 1 to at most ``min(delta_k,
    subsets at the level)`` cells, so ``pac_sigma`` times the square root
    of that."""
    sigma = pac_sigma(params)
    return tuple(sigma * math.sqrt(min(config.delta_k, math.comb(d, length))) for length in (1, 2))


def _contributions(u: np.ndarray, cap: int) -> np.ndarray:
    """Mark the ``cap`` smallest values of each row of ``u``: the columns
    that ``np.argsort(u, axis=1)[:, :cap]`` picks.

    The sorted rows give each row's ``cap``-th and next smallest value.
    Where the two differ, the picks are the values up to the ``cap``-th,
    whichever sort found them. A row with a tie at the cap takes
    ``argsort``'s own picks, since which of the tied values ``argsort`` puts
    first is up to its sort.
    """
    ordered = np.sort(u, axis=1)
    last = ordered[:, cap - 1]
    contrib = u <= last[:, None]
    tied = np.flatnonzero(ordered[:, cap] == last)
    if tied.size:
        picks = np.argsort(u[tied], axis=1)[:, :cap]
        contrib[tied] = False
        contrib[tied[:, None], picks] = True
    return contrib


def pac_aggregate(
    data: EncodedDataset,
    config: PacConfig,
    params: PrivacyParams | None,
    rng: np.random.Generator,
) -> list[PacLevel]:
    """Noisy tuple aggregation with spurious-tuple suppression, at two
    levels: the one-way values and the pairs.

    Every value of every column is a one-way candidate; a pair of values is
    a candidate when both of its values survived. Counts are extracted
    with each record contributing to at most ``delta_k`` attribute subsets
    per level. A record then adds 1 to at most ``min(delta_k, subsets at
    the level)`` cells, so Gaussian noise of cell scale ``pac_sigma`` times
    the square root of that (``_pac_cell_scales``) is added to every
    candidate, and candidates below the level threshold are suppressed. A
    level with no candidate (as the pair level of one column) has threshold
    ``inf``, all-zero weights, and draws nothing from ``rng``.

    A record contributes to the ``delta_k`` subsets with the smallest of
    its uniform draws, found by sorting each record's draws; a record with
    a tie at the cap takes ``argsort``'s picks (see ``_contributions``).
    Each subset's counts are one ``_count`` of all records, the kernel of
    ``compute_marginal``, weighted 1 where a record contributes, else 0.
    """
    d = data.n_columns
    sigma = pac_sigma(params)
    domain = data.codebook.domain_sizes
    n = data.n_records
    cap = config.delta_k
    columns = data.codes.T

    levels: list[PacLevel] = []
    s_prev = 1  # |S_0|: the empty tuple
    for length, cell_scale in zip((1, 2), _pac_cell_scales(params, config, d)):
        subsets = list(combinations(range(d), length))
        contrib = None
        if len(subsets) > cap and n > 0:
            # one row per subset, so each subset reads its weights in one run
            contrib = np.ascontiguousarray(_contributions(rng.random((n, len(subsets))), cap).T)
        if length == 1:
            masks = {(a,): np.ones(domain[a], dtype=bool) for (a,) in subsets}
        else:
            # a pair is a candidate when both of its values survived; every
            # kept noisy count is above 0, so the survivors are the positive
            # weights
            survived = [levels[0].weights[(a,)] > 0 for a in range(d)]
            masks = {(a, b): np.outer(survived[a], survived[b]) for a, b in subsets}
        total_candidates = sum(int(mask.sum()) for mask in masks.values())

        # with no candidate, no cell is noised and none survives
        rho = math.inf
        if total_candidates:
            rho = pac_threshold(config, cell_scale, s_prev, total_candidates)
        weights = {}
        n_survivors = 0
        for si, attrs in enumerate(subsets):
            # a record's weight is 1 where it contributes to attrs, else 0
            counts = _count(columns, attrs, domain, None if contrib is None else contrib[si])
            idx = np.flatnonzero(masks[attrs].ravel())
            noisy = counts.ravel()[idx].astype(np.float64)
            if cell_scale > 0:
                noisy = noisy + rng.normal(0.0, cell_scale, size=idx.size)
            keep = (noisy >= rho) & (noisy > 0)
            warr = np.zeros(counts.size)
            warr[idx[keep]] = noisy[keep]
            weights[attrs] = warr.reshape(counts.shape)
            n_survivors += int(keep.sum())
        levels.append(PacLevel(length, sigma, rho, total_candidates, n_survivors, weights))
        s_prev = n_survivors
    return levels


def pac_synthesize(
    data: EncodedDataset,
    config: PacConfig,
    params: PrivacyParams | None,
    n_out: int,
    rng: np.random.Generator,
) -> EncodedDataset:
    """Aggregate-seeded row synthesis from surviving tuples.

    Attributes are fixed in descending order of surviving one-way mass
    (ties lexicographic). Each attribute's value is sampled with weights
    summed from surviving pair tuples consistent with the already-fixed
    attributes, falling back to surviving one-way weights. A column with
    no surviving one-way value has nothing to sample from: that raises
    :class:`MechanismError`, naming the column, before any row is drawn.
    The rows are returned with the input codebook.

    The weights depend on a row only through its fixed values, so rows are
    kept in groups, one per distinct combination of fixed values. Each
    attribute builds one weight row and cumulative sum per group; every row
    draws against its group's cumulative sum, and the groups are then
    split by the code drawn.
    """
    if n_out < 0:
        raise MechanismError("n_out must be non-negative")
    levels = pac_aggregate(data, config, params, rng)
    d = data.n_columns
    domain = data.codebook.domain_sizes
    one_way = {a: levels[0].weights[(a,)] for a in range(d)}
    pair_w = levels[1].weights
    empty = [data.codebook.names[a] for a in range(d) if not one_way[a].any()]
    if empty:
        raise MechanismError(
            f"no value of column(s) {', '.join(map(repr, empty))} survived PAC's "
            "one-way threshold; no row can be drawn"
        )

    order = sorted(range(d), key=lambda a: (-float(one_way[a].sum()), a))
    out = np.empty((n_out, d), dtype=np.int64, order="F")

    # group[i] is row i's group; prefix[b][g] is group g's code of the fixed
    # attribute b, in the order the attributes were fixed
    group = np.zeros(n_out, dtype=np.int64)
    n_groups = 1
    prefix: dict[int, np.ndarray] = {}
    for a in order:
        dom_a = domain[a]
        weights = np.zeros((n_groups, dom_a))
        for b, values in prefix.items():
            table = pair_w.get((min(a, b), max(a, b)))
            if table is not None:
                weights += table[:, values].T if a < b else table[values, :]
        no_pair = weights.sum(axis=1) <= 0
        if no_pair.any():
            weights[no_pair] = one_way[a]
        cum = np.cumsum(weights, axis=1)
        draws = rng.random(n_out) * cum[group, -1]
        # the code is the number of cumulative weights <= the draw, capped
        # at dom_a - 1; the weights are >= 0, so the last cumulative weight
        # counts only when all others do, and the cap takes it off again
        codes_a = np.zeros(n_out, dtype=np.int64)
        for column in cum.T[:-1]:
            codes_a += column[group] <= draws
        out[:, a] = codes_a
        if len(prefix) == d - 1:
            break  # every attribute is fixed
        # split each group by the code drawn, keeping the groups in
        # (group, code) order
        key = group * dom_a + codes_a
        present = np.bincount(key, minlength=n_groups * dom_a) > 0
        group = (np.cumsum(present) - 1)[key]
        parent, code = np.divmod(np.flatnonzero(present), dom_a)
        prefix = {b: values[parent] for b, values in prefix.items()}
        prefix[a] = code
        n_groups = len(code)
    return EncodedDataset(out, data.codebook)


def uniform_synthesize(codebook: Codebook, n_out: int, rng: np.random.Generator) -> EncodedDataset:
    """Uniform-random baseline synthesiser (utility floor for comparisons)."""
    codes = np.empty((n_out, len(codebook)), dtype=np.int64, order="F")
    for j, codec in enumerate(codebook):
        codes[:, j] = rng.integers(0, codec.domain_size, size=n_out)
    return EncodedDataset(codes, codebook)


def run_mechanism(
    data: EncodedDataset,
    mechanism: str,
    params: PrivacyParams | None,
    n_out: int,
    rng: np.random.Generator,
    *,
    selection_fraction: float = SELECTION_FRACTION,
    rounds: int = ROUNDS,
    workload=(),
    pac: PacConfig = PacConfig(),
) -> tuple[EncodedDataset, dict, dict]:
    """Run ``mechanism`` on ``data`` and draw ``n_out`` synthetic rows.

    ``workload`` holds AIM's ``(column names, weight)`` pairs. Returns the
    rows, the privacy record of a run manifest and the details it records:
    the PAC settings, or the tree edges and the measured marginals by column
    name. The privacy record holds the share of the budget spent on
    selection and ``sigma_per_measurement``, the noise scale each
    measurement added: one number for MST and AIM, whose marginals all
    share it, and for PAC, which selects nothing, the scale of every
    candidate cell at each of its two levels.
    """
    if mechanism == "pac":
        synthetic = pac_synthesize(data, pac, params, n_out, rng)
        privacy = {
            "selection_fraction": 0.0,
            "sigma_per_measurement": list(_pac_cell_scales(params, pac, data.n_columns)),
        }
        return synthetic, privacy, {"pac": dataclasses.asdict(pac)}
    if mechanism == "mst":
        model = fit_mst_model(data, params, rng, selection_fraction)
    elif mechanism == "aim":
        indexed = [
            (tuple(sorted(data.codebook.index_of(name) for name in attrs)), weight)
            for attrs, weight in workload
        ]
        model = fit_aim_model(data, indexed, params, rounds, rng, selection_fraction)
    else:
        raise MechanismError(f"unknown mechanism {mechanism!r} (allowed: {', '.join(MECHANISMS)})")
    names = data.codebook.names
    details = {
        "tree_edges": [[names[a], names[b]] for a, b in model.edges],
        "measured": [
            {"attrs": [names[a] for a in item["attrs"]], "sigma": item["sigma"]}
            for item in model.measured
        ],
    }
    synthetic = EncodedDataset(model.sample(n_out, rng), data.codebook)
    privacy = {
        "selection_fraction": selection_fraction,
        "sigma_per_measurement": model.measured[0]["sigma"],
    }
    return synthetic, privacy, details


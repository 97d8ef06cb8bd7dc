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
* ``pac`` (``pac_synthesize``) extracts tuple counts per reporting length
  with a per-record contribution cap, adds Gaussian noise, suppresses
  tuples whose noisy count falls below the spurious-tuple threshold, and
  assembles rows greedily from surviving tuples. A column none of whose
  values survives raises ``MechanismError``.

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

from .binning import Codebook, EncodedDataset
from .checks import is_int, is_real, reject_bools
from .privacy import PrivacyParams, add_gaussian_noise, gaussian_sigma, split_budget

__all__ = [
    "MECHANISMS",
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


class MechanismError(ValueError):
    """Invalid mechanism input or configuration."""


def _count(codes: np.ndarray, attrs, shape) -> np.ndarray:
    """Contingency table of the rows of ``codes`` over the columns ``attrs``."""
    if codes.shape[0] == 0:
        return np.zeros(shape, dtype=np.int64)
    flat = np.ravel_multi_index([codes[:, a] for a in attrs], shape)
    return np.bincount(flat, minlength=int(np.prod(shape))).reshape(shape)


def compute_marginal(data: EncodedDataset, attrs) -> np.ndarray:
    """Exact, read-only contingency table of the records over ``attrs``.

    Axes follow ascending attribute order regardless of the order given.
    """
    attrs = tuple(attrs)
    if len(set(attrs)) != len(attrs):
        raise MechanismError(f"duplicate attribute in {attrs}")
    d = data.n_columns
    if any(a < 0 or a >= d for a in attrs):
        raise MechanismError(f"attribute out of range in {attrs} (have {d} columns)")
    attrs = tuple(sorted(attrs))
    counts = _count(data.codes, attrs, tuple(data.codebook[a].domain_size for a in attrs))
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
        codes = np.zeros((n_out, len(self.domain)), dtype=np.int64)
        for parent, child in self.steps:
            if parent is None:
                dist = self.attr_dist[child]
                codes[:, child] = rng.choice(self.domain[child], size=n_out, p=dist)
                continue
            cond = self.conditionals[(parent, child)]
            for value in range(self.domain[parent]):
                idx = np.flatnonzero(codes[:, parent] == value)
                if idx.size:
                    codes[idx, child] = rng.choice(self.domain[child], size=idx.size, p=cond[value])
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
                child_fallback = _clean_distribution(table.sum(axis=0), domain[child])
                cond = np.empty((domain[parent], domain[child]))
                row_sums = table.sum(axis=1)
                for v in range(domain[parent]):
                    if row_sums[v] > 0:
                        cond[v] = table[v] / row_sums[v]
                    else:
                        cond[v] = child_fallback
                conditionals[(parent, child)] = cond
                attr_dist[child] = attr_dist[parent] @ cond
                steps.append((parent, child))
                frontier.append(child)
    return TreeModel(domain, steps, attr_dist, conditionals, measured or [])


def _budget(
    params: PrivacyParams | None, n_measurements: int, selection_fraction: float, n_records: int
) -> tuple[PrivacyParams | None, float]:
    """The selection budget (None without one) and the noise scale of each of
    ``n_measurements`` measurements; ``params=None`` is the noiseless mode,
    which needs records to measure."""
    if params is None:
        selection, sigma = None, 0.0
    else:
        selection, per_measurement = split_budget(params, n_measurements, selection_fraction)
        sigma = gaussian_sigma(per_measurement)
    if n_records == 0 and sigma == 0:
        raise MechanismError("empty input in noiseless mode")
    return selection, sigma


def fit_mst_model(
    data: EncodedDataset,
    params: PrivacyParams | None,
    rng: np.random.Generator,
    selection_fraction: float = 1.0 / 3.0,
) -> TreeModel:
    """Select a maximum spanning tree and measure its marginals.

    With a budget, pairwise mutual-information scores get Gumbel noise
    scaled for the selection budget split equally across the tree's edges
    (exponential-mechanism equivalent); measurements use the Gaussian
    scale from the per-measurement budget. ``params=None`` is the exact
    noiseless mode.
    """
    d = data.n_columns
    n = data.n_records
    if d < 1:
        raise MechanismError("need at least one attribute")
    selection, sigma = _budget(params, d, selection_fraction, n)

    edges: list[tuple[int, int]] = []
    if d >= 2:
        scores = {
            pair: mutual_information(data, *pair) for pair in combinations(range(d), 2)
        }
        if selection is not None:
            eps_per_edge = selection.epsilon / (d - 1)
            # plug-in MI sensitivity heuristic for one substituted record
            sensitivity = 2.0 * math.log(max(n, 2)) / max(n, 1)
            scale = 2.0 * sensitivity / eps_per_edge
            for pair in sorted(scores):
                scores[pair] += rng.gumbel(0.0, scale)
        edges = maximum_spanning_tree(scores)

    # the root's one-way marginal, then every edge's two-way one
    measured = [(0,), *sorted(edges)]
    noisy = {
        attrs: add_gaussian_noise(attrs, compute_marginal(data, attrs), sigma, rng).counts
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
    selection_fraction: float = 1.0 / 3.0,
) -> TreeModel:
    """Workload-aware greedy measurement loop (AIM-lite).

    Round scores are ``weight * (L1(model estimate, exact marginal) -
    sigma * sqrt(2/pi) * cells)``, i.e. the gap a measurement could close
    minus the expected noise it would introduce, scaled by the workload
    weight. Selection adds Gumbel noise under the per-round selection
    budget; the chosen marginal is measured and the forest model refitted.
    Re-measured marginals are averaged. ``workload`` holds distinct
    ``(attrs, weight)`` pairs with sorted attribute indices and positive
    weights.
    """
    if rounds < 1:
        raise MechanismError("rounds must be >= 1")
    if not workload:
        raise MechanismError("workload must be non-empty")
    n = data.n_records
    selection, sigma = _budget(params, rounds, selection_fraction, n)
    eps_sel_round = selection.epsilon / rounds if selection is not None else None

    domain = data.codebook.domain_sizes
    sums: dict[tuple[int, ...], np.ndarray] = {}
    hits: dict[tuple[int, ...], int] = {}
    measured = []
    model = _build_tree_model(domain, {}, {}, edge_list=[])
    exact = {attrs: compute_marginal(data, attrs) for attrs, _ in workload}
    max_weight = max(weight for _, weight in workload)

    for _ in range(rounds):
        best_attrs, best_score = None, -np.inf
        for attrs, weight in workload:
            estimate = model.marginal(attrs) * n
            gap = float(np.abs(estimate - exact[attrs]).sum())
            penalty = sigma * math.sqrt(2.0 / math.pi) * estimate.size
            score = weight * (gap - penalty)
            if eps_sel_round is not None:
                # report-noisy-max; a weighted L1 gap moves by at most
                # 2 * max_weight per record
                score += rng.gumbel(0.0, 2.0 * 2.0 * max_weight / eps_sel_round)
            if score > best_score:
                best_attrs, best_score = attrs, score
        noisy = add_gaussian_noise(best_attrs, exact[best_attrs], sigma, rng)
        if best_attrs in sums:
            sums[best_attrs] = sums[best_attrs] + noisy.counts
            hits[best_attrs] += 1
        else:
            sums[best_attrs] = noisy.counts.copy()
            hits[best_attrs] = 1
        measured.append({"attrs": best_attrs, "sigma": sigma})
        one_way = {k[0]: sums[k] / hits[k] for k in sums if len(k) == 1}
        pairs = {k: sums[k] / hits[k] for k in sums if len(k) == 2}
        model = _build_tree_model(domain, one_way, pairs, edge_list=None, measured=measured)
    return model


@dataclass(frozen=True)
class PacConfig:
    """Aggregate-seeded synthesiser settings.

    ``k`` is the reporting length, ``eta`` the target spurious proportion
    and ``delta_k`` the per-record contribution cap per tuple length.
    """

    k: int = 2
    eta: float = 0.01
    delta_k: float = 3.0

    def __post_init__(self) -> None:
        reject_bools(MechanismError, eta=self.eta, delta_k=self.delta_k)
        if not is_int(self.k) or self.k < 1:
            raise MechanismError(f"reporting length k must be an integer >= 1, got {self.k!r}")
        if not is_real(self.eta) or not 0 < self.eta < 1:
            raise MechanismError(f"eta must lie in (0, 1), got {self.eta!r}")
        if not is_real(self.delta_k) or self.delta_k < 1:
            raise MechanismError(f"delta_k must be >= 1, got {self.delta_k!r}")


def pac_threshold(config: PacConfig, sigma_k: float, s_prev: int, v_k: int) -> float:
    """Suppression threshold rho_k for one reporting level of base noise
    scale ``sigma_k``.

    ``rho_k = sqrt(delta_k) * sigma_k * Phi^-1(1 - eta * min(1,
    s_prev/v_k))`` with Phi the standard normal CDF; a spurious tuple then
    survives with probability at most ``1 - Phi(rho_k / (sigma_k *
    sqrt(delta_k)))``.
    """
    if v_k <= 0:
        raise MechanismError("candidate tuple count must be positive")
    quantile = 1.0 - config.eta * min(1.0, s_prev / v_k)
    # inv_cdf (Wichura's AS241) takes p in (0, 1); Phi^-1(1) is +inf
    z = NormalDist().inv_cdf(quantile) if quantile < 1.0 else math.inf
    return math.sqrt(config.delta_k) * sigma_k * z


@dataclass
class PacLevel:
    """Surviving aggregates for one tuple length."""

    length: int
    sigma: float
    rho: float
    n_candidates: int
    n_survivors: int
    weights: dict  # attrs tuple -> dense weight array over the subset domain


def pac_sigma(config: PacConfig, params: PrivacyParams | None) -> float:
    """Per-level base noise scale: the Gaussian scale of the budget split
    equally across the ``k`` levels (0 without a budget)."""
    if params is None:
        return 0.0
    _, per_level = split_budget(params, config.k, 0.0)
    return gaussian_sigma(per_level)


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
    """Noisy tuple aggregation with spurious-tuple suppression.

    For each length 1..k: candidate tuples are every value combination
    whose (length-1)-sub-tuples all survived the previous level; counts are
    extracted with each record contributing to at most ``delta_k``
    attribute subsets per level; Gaussian noise with cell scale
    ``pac_sigma * sqrt(delta_k)`` is added to every candidate; candidates
    below the level threshold are suppressed.

    A record contributes to the ``delta_k`` subsets with the smallest of
    its uniform draws, found by sorting each record's draws; a record with
    a tie at the cap takes ``argsort``'s picks (see ``_contributions``).
    Each subset's counts are one ``bincount`` of the flat cell index of all
    records, weighted 1 where a record contributes and 0 elsewhere.
    """
    d = data.n_columns
    if config.k > d:
        raise MechanismError(f"reporting length {config.k} exceeds {d} attributes")
    sigma = pac_sigma(config, params)
    domain = data.codebook.domain_sizes
    n = data.n_records
    cap = int(config.delta_k)
    cell_scale = sigma * math.sqrt(config.delta_k)
    columns = np.ascontiguousarray(data.codes.T)

    levels: list[PacLevel] = []
    prev_masks: dict | None = None
    s_prev = 1  # |S_0|: the empty tuple
    for length in range(1, config.k + 1):
        subsets = list(combinations(range(d), length))
        contrib = None
        if len(subsets) > cap and n > 0:
            # one row per subset, so each subset reads its weights in one run
            contrib = np.ascontiguousarray(_contributions(rng.random((n, len(subsets))), cap).T)

        tables = {}
        for si, attrs in enumerate(subsets):
            # the flat cell index of every record; codes lie in their domains
            flat = columns[attrs[0]]
            for a in attrs[1:]:
                flat = flat * domain[a] + columns[a]
            # a record's weight is 1 where it contributes to attrs, else 0
            weight = None if contrib is None else contrib[si]
            counts = np.bincount(flat, weight, math.prod(domain[a] for a in attrs))
            tables[attrs] = counts.reshape([domain[a] for a in attrs]).astype(np.float64)

        cand_masks = {}
        total_candidates = 0
        for attrs in subsets:
            shape = tuple(domain[a] for a in attrs)
            mask = np.ones(shape, dtype=bool)
            if length > 1:
                for drop in range(length):
                    sub = attrs[:drop] + attrs[drop + 1 :]
                    surv = prev_masks.get(sub)
                    if surv is None or not surv.any():
                        mask[:] = False
                        break
                    mask &= np.expand_dims(surv, axis=drop)
            cand_masks[attrs] = mask
            total_candidates += int(mask.sum())

        if total_candidates == 0:
            levels.append(PacLevel(length, sigma, math.inf, 0, 0,
                                   {attrs: np.zeros(tables[attrs].shape) for attrs in subsets}))
            prev_masks = {attrs: cand_masks[attrs] for attrs in subsets}
            s_prev = 0
            continue

        rho = pac_threshold(config, sigma, s_prev, total_candidates)
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
        prev_masks = kept_masks
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
    pair_w = levels[1].weights if len(levels) > 1 else {}
    empty = [data.codebook.names[a] for a in range(d) if not one_way[a].any()]
    if empty:
        raise MechanismError(
            f"no value of column(s) {', '.join(map(repr, empty))} survived PAC's "
            "one-way threshold; no row can be drawn"
        )

    order = sorted(range(d), key=lambda a: (-float(one_way[a].sum()), a))
    out = np.empty((n_out, d), dtype=np.int64)

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
    return EncodedDataset(out, data.codebook, provenance="pac")


def uniform_synthesize(codebook: Codebook, n_out: int, rng: np.random.Generator) -> EncodedDataset:
    """Uniform-random baseline synthesiser (utility floor for comparisons)."""
    codes = np.column_stack(
        [rng.integers(0, codec.domain_size, size=n_out) for codec in codebook]
    ) if len(codebook) else np.zeros((n_out, 0), dtype=np.int64)
    return EncodedDataset(codes.astype(np.int64), codebook, provenance="uniform")


def run_mechanism(
    data: EncodedDataset,
    mechanism: str,
    params: PrivacyParams | None,
    n_out: int,
    rng: np.random.Generator,
    *,
    selection_fraction: float = 1.0 / 3.0,
    rounds: int = 10,
    workload=(),
    pac: PacConfig = PacConfig(),
) -> tuple[EncodedDataset, float, dict]:
    """Run ``mechanism`` on ``data`` and draw ``n_out`` synthetic rows.

    ``workload`` holds AIM's ``(column names, weight)`` pairs. Returns the
    rows, the noise scale of every measurement, and the details a run
    manifest records: the PAC settings, or the tree edges and the measured
    marginals by column name.
    """
    if mechanism == "pac":
        synthetic = pac_synthesize(data, pac, params, n_out, rng)
        return synthetic, pac_sigma(pac, params), {"pac": dataclasses.asdict(pac)}
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
    synthetic = EncodedDataset(model.sample(n_out, rng), data.codebook, mechanism)
    return synthetic, model.measured[0]["sigma"], details


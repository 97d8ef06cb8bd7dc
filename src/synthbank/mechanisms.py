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
  assembles rows greedily from surviving tuples.

Tree fitting is exact closed-form inference (root marginal plus edge
conditionals), which is correct for the tree-structured measurement sets
these mechanisms produce; no iterative graphical-model estimation is
needed. Passing ``params=None`` runs any mechanism in the noiseless
diagnostic mode (sigma = 0, exact selection).
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.special import ndtri

from .binning import Codebook, EncodedDataset
from .privacy import PrivacyParams, add_gaussian_noise, gaussian_sigma, split_budget

__all__ = [
    "MECHANISMS",
    "MechanismError",
    "Marginal",
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
    "synthetic_codebook",
]

MECHANISMS = ("mst", "aim", "pac")


class MechanismError(ValueError):
    """Invalid mechanism input or configuration."""


@dataclass(frozen=True)
class Marginal:
    """Exact contingency table over an attribute subset (sorted axes)."""

    attrs: tuple[int, ...]
    counts: np.ndarray

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts)
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "attrs", tuple(self.attrs))


def compute_marginal(data: EncodedDataset, attrs) -> Marginal:
    """Exact contingency table of the records over ``attrs``.

    Axes follow ascending attribute order regardless of the order given.
    """
    attrs = tuple(attrs)
    if len(set(attrs)) != len(attrs):
        raise MechanismError(f"duplicate attribute in {attrs}")
    d = data.n_columns
    if any(a < 0 or a >= d for a in attrs):
        raise MechanismError(f"attribute out of range in {attrs} (have {d} columns)")
    attrs = tuple(sorted(attrs))
    shape = tuple(data.codebook[a].domain_size for a in attrs)
    if data.n_records == 0:
        return Marginal(attrs, np.zeros(shape, dtype=np.int64))
    flat = np.ravel_multi_index([data.codes[:, a] for a in attrs], shape)
    counts = np.bincount(flat, minlength=int(np.prod(shape))).reshape(shape)
    return Marginal(attrs, counts)


def mutual_information(data: EncodedDataset, a: int, b: int) -> float:
    """Plug-in mutual information (nats) from the exact two-way marginal."""
    if a == b:
        raise MechanismError("mutual information needs two distinct attributes")
    counts = compute_marginal(data, (a, b)).counts.astype(np.float64)
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


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def _kruskal(weights: dict, nodes) -> list[tuple[int, int]]:
    index = {node: i for i, node in enumerate(nodes)}
    ordered = sorted(
        ((min(a, b), max(a, b)) for a, b in weights),
        key=lambda e: (-weights.get(e, weights.get((e[1], e[0]))), e),
    )
    uf = _UnionFind(len(nodes))
    edges = []
    for a, b in ordered:
        if uf.union(index[a], index[b]):
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


def _maximum_spanning_forest(weights: dict, n_nodes: int) -> list[tuple[int, int]]:
    canon = {(min(a, b), max(a, b)): float(w) for (a, b), w in weights.items()}
    return _kruskal(canon, list(range(n_nodes)))


def _clean_distribution(counts, size: int) -> np.ndarray:
    """Clip negatives, normalize to a probability vector; uniform fallback."""
    arr = np.clip(np.asarray(counts, dtype=np.float64), 0.0, None)
    total = arr.sum()
    if total <= 0:
        return np.full(size, 1.0 / size)
    return arr / total


class TreeModel:
    """Fitted forest of measured marginals, ready to sample.

    Holds a probability distribution per attribute and a row-stochastic
    conditional table per oriented edge. Component roots are the smallest
    attribute index of each connected component.
    """

    def __init__(self, domain, edges, attr_dist, conditionals, roots, measured):
        self.domain = tuple(domain)
        self.edges = list(edges)  # oriented (parent, child)
        self.attr_dist = attr_dist
        self.conditionals = conditionals
        self.roots = list(roots)
        self.measured = measured  # list of {"attrs": ..., "sigma": ...}

    def sample(self, n_out: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n_out`` rows: roots from their marginals, children from
        edge conditionals along the forest. Deterministic for a fixed
        generator state."""
        if n_out < 0:
            raise MechanismError("n_out must be non-negative")
        d = len(self.domain)
        codes = np.zeros((n_out, d), dtype=np.int64)
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

    def marginal(self, attrs) -> np.ndarray:
        """Model probability table over one or two attributes."""
        attrs = tuple(sorted(attrs))
        if len(attrs) == 1:
            return self.attr_dist[attrs[0]].copy()
        if len(attrs) != 2:
            raise MechanismError("tree model exposes 1- and 2-way marginals only")
        a, b = attrs
        path = self._path(a, b)
        if path is None:
            return np.outer(self.attr_dist[a], self.attr_dist[b])
        joint = np.diag(self.attr_dist[a])
        for u, v in zip(path, path[1:]):
            joint = joint @ self._transition(u, v)
        return joint

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

    def _path(self, a: int, b: int) -> list[int] | None:
        adj: dict[int, list[int]] = {}
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


def _build_tree_model(domain, one_way: dict, pairs: dict, edge_list=None, measured=None) -> TreeModel:
    """Fit a forest model from cleaned noisy marginals.

    ``one_way`` maps attribute -> noisy counts, ``pairs`` maps sorted pairs
    -> noisy tables. When ``edge_list`` is None a maximum spanning forest
    over the measured pairs (weighted by the mutual information of their
    cleaned tables) decides the structure. Attributes without any
    measurement fall back to uniform distributions.
    """
    domain = tuple(domain)
    d = len(domain)
    pair_tables = {tuple(sorted(k)): np.asarray(v, dtype=np.float64) for k, v in pairs.items()}
    if edge_list is None:
        weights = {
            key: _plug_in_mi(_clean_distribution(table, table.size).reshape(table.shape))
            for key, table in sorted(pair_tables.items())
        }
        edge_list = _maximum_spanning_forest(weights, d) if weights else []

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

    # one breadth-first walk per connected component, rooted at its smallest
    # attribute, orients every edge away from the root
    attr_dist: dict[int, np.ndarray] = {}
    conditionals: dict[tuple[int, int], np.ndarray] = {}
    oriented: list[tuple[int, int]] = []
    roots: list[int] = []
    visited: set[int] = set()
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
                oriented.append((parent, child))
                frontier.append(child)
    return TreeModel(domain, oriented, attr_dist, conditionals, roots, measured or [])


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
    if params is None:
        selection, sigma = None, 0.0
    else:
        selection, per_measurement = split_budget(params, max(d, 1), selection_fraction)
        sigma = gaussian_sigma(per_measurement)
    if n == 0 and sigma == 0:
        raise MechanismError("empty input in noiseless mode")

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

    root = 0
    measured = []
    root_noisy = add_gaussian_noise((root,), compute_marginal(data, (root,)).counts, sigma, rng)
    measured.append({"attrs": (root,), "sigma": sigma})
    pair_noisy = {}
    for a, b in sorted(edges):
        pair_noisy[(a, b)] = add_gaussian_noise(
            (a, b), compute_marginal(data, (a, b)).counts, sigma, rng
        )
        measured.append({"attrs": (a, b), "sigma": sigma})
    return _build_tree_model(
        data.codebook.domain_sizes,
        {root: root_noisy.counts},
        {k: v.counts for k, v in pair_noisy.items()},
        edge_list=edges,
        measured=measured,
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
        if isinstance(weight, bool) or not isinstance(weight, numbers.Real) or not weight > 0:
            raise MechanismError(f"entry {item!r}: weight must be positive")
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
    if params is None:
        selection, sigma = None, 0.0
    else:
        selection, per_measurement = split_budget(params, rounds, selection_fraction)
        sigma = gaussian_sigma(per_measurement)
    if n == 0 and sigma == 0:
        raise MechanismError("empty input in noiseless mode")
    eps_sel_round = selection.epsilon / rounds if selection is not None else None

    domain = data.codebook.domain_sizes
    sums: dict[tuple[int, ...], np.ndarray] = {}
    hits: dict[tuple[int, ...], int] = {}
    measured = []
    model = _build_tree_model(domain, {}, {}, edge_list=[])
    exact = {attrs: compute_marginal(data, attrs).counts for attrs, _ in workload}
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
        if not isinstance(self.k, numbers.Integral) or self.k < 1:
            raise MechanismError(f"reporting length k must be an integer >= 1, got {self.k!r}")
        if not isinstance(self.eta, numbers.Real) or not 0 < self.eta < 1:
            raise MechanismError(f"eta must lie in (0, 1), got {self.eta!r}")
        if not isinstance(self.delta_k, numbers.Real) or self.delta_k < 1:
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
    return math.sqrt(config.delta_k) * sigma_k * float(ndtri(quantile))


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
    """
    d = data.n_columns
    if config.k > d:
        raise MechanismError(f"reporting length {config.k} exceeds {d} attributes")
    sigma = pac_sigma(config, params)
    domain = data.codebook.domain_sizes
    n = data.n_records
    cap = int(config.delta_k)
    cell_scale = sigma * math.sqrt(config.delta_k)

    levels: list[PacLevel] = []
    prev_masks: dict | None = None
    s_prev = 1  # |S_0|: the empty tuple
    for length in range(1, config.k + 1):
        subsets = list(combinations(range(d), length))
        contrib = None
        if len(subsets) > cap and n > 0:
            picks = np.argsort(rng.random((n, len(subsets))), axis=1)[:, :cap]
            contrib = np.zeros((n, len(subsets)), dtype=bool)
            contrib[np.arange(n)[:, None], picks] = True

        tables = {}
        for si, attrs in enumerate(subsets):
            shape = tuple(domain[a] for a in attrs)
            rows = data.codes if contrib is None else data.codes[contrib[:, si]]
            if rows.shape[0] == 0:
                tables[attrs] = np.zeros(shape, dtype=np.float64)
                continue
            flat = np.ravel_multi_index([rows[:, a] for a in attrs], shape)
            tables[attrs] = (
                np.bincount(flat, minlength=int(np.prod(shape)))
                .reshape(shape)
                .astype(np.float64)
            )

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
    attributes, falling back to surviving one-way weights, and finally to
    the reserved suppressed code when nothing survives. The returned
    codebook marks every column as suppression-capable; base domain sizes
    are unchanged.
    """
    if n_out < 0:
        raise MechanismError("n_out must be non-negative")
    levels = pac_aggregate(data, config, params, rng)
    d = data.n_columns
    domain = data.codebook.domain_sizes
    one_way = {a: levels[0].weights[(a,)] for a in range(d)}
    pair_w = levels[1].weights if len(levels) > 1 else {}

    order = sorted(range(d), key=lambda a: (-float(one_way[a].sum()), a))
    codebook = data.codebook.with_suppressed()
    out = np.empty((n_out, d), dtype=np.int64)
    for j, codec in enumerate(codebook):
        out[:, j] = codec.suppressed_code

    fixed: list[int] = []
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
        codes_a[unresolved] = dom_a  # reserved suppressed code
        out[:, a] = codes_a
        fixed.append(a)
    return EncodedDataset(out, codebook, provenance="pac")


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


def synthetic_codebook(mechanism: str, codebook: Codebook) -> Codebook:
    """The codebook of ``mechanism``'s output for input ``codebook``: PAC
    output may hold the reserved suppressed code in every column."""
    return codebook.with_suppressed() if mechanism == "pac" else codebook

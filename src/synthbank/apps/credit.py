"""Credit-card risk evaluator.

Transition matrices between two yearly states (delinquency bands or debt
bands), demographic delinquency rates, and the Frobenius norm of the
difference between synthetic and original matrices as the utility error.
Matrices are computed on codes directly; frequency-table products incur no
decode step.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..binning import EncodedDataset
from ..population import CreditPortfolioConfig, generate_credit_cards
from ..presets import AGE_BAND_LABELS, CBP_AGE_CUTOFFS, credit_rules
from ..tabular import Dataset, load_schema, read_csv

__all__ = [
    "CreditError",
    "TransitionMatrix",
    "FrobeniusResult",
    "transition_matrix",
    "frobenius_error",
    "delinquency_rate",
    "active_both_filter",
]


class CreditError(ValueError):
    """Invalid credit-evaluator input."""


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic transition probabilities with their source counts.

    Rows without any observation are flagged undefined: their probability
    rows are zero and they are excluded from norms rather than imputed.
    """

    states: tuple[str, ...]
    counts: np.ndarray
    probs: np.ndarray
    defined: np.ndarray

    def __post_init__(self) -> None:
        for arr in (self.counts, self.probs, self.defined):
            np.asarray(arr).setflags(write=False)
        n = len(self.states)
        if self.counts.shape != (n, n) or self.probs.shape != (n, n):
            raise CreditError("matrix shape must match the state labels")
        sums = self.probs.sum(axis=1)
        if not np.all(np.abs(sums[self.defined] - 1.0) <= 1e-12):
            raise CreditError("defined rows must sum to 1")


def transition_matrix(states_t0, states_t1, n_states: int, states=None) -> TransitionMatrix:
    """Counts and row-normalized probabilities of state transitions."""
    t0 = np.asarray(states_t0, dtype=np.int64)
    t1 = np.asarray(states_t1, dtype=np.int64)
    if t0.shape != t1.shape:
        raise CreditError(f"length mismatch: {t0.shape[0]} vs {t1.shape[0]}")
    if t0.size and (min(t0.min(), t1.min()) < 0 or max(t0.max(), t1.max()) >= n_states):
        raise CreditError(f"state code out of range (n_states={n_states})")
    counts = (
        np.bincount(t0 * n_states + t1, minlength=n_states * n_states)
        .reshape(n_states, n_states)
        .astype(np.int64)
    )
    row_totals = counts.sum(axis=1)
    defined = row_totals > 0
    probs = np.zeros((n_states, n_states))
    probs[defined] = counts[defined] / row_totals[defined, None]
    labels = tuple(states) if states else tuple(f"s{i}" for i in range(n_states))
    if len(labels) != n_states:
        raise CreditError("state label count must equal n_states")
    return TransitionMatrix(states=labels, counts=counts, probs=probs, defined=defined)


@dataclass(frozen=True)
class FrobeniusResult:
    """Frobenius norm of the difference over rows defined in both matrices;
    ``value`` is None when no row is."""

    value: float | None
    excluded_rows: int


def frobenius_error(a: TransitionMatrix, b: TransitionMatrix) -> FrobeniusResult:
    """sqrt of the summed squared entry differences, undefined rows excluded."""
    if a.states != b.states:
        raise CreditError(f"state sets differ: {a.states} vs {b.states}")
    included = a.defined & b.defined
    diff = a.probs[included] - b.probs[included]
    value = float(np.sqrt(np.sum(diff * diff))) if included.any() else None
    return FrobeniusResult(value=value, excluded_rows=int((~included).sum()))


def delinquency_rate(encoded: EncodedDataset) -> dict:
    """Share of cards with a 2021 delinquency code > 0 (``Delinquency2021``)
    per (``Age2020`` code, ``Gender``).

    Keys are ``(age_code, gender_label)`` over the full group domain;
    groups without generated rows map to None (missing, not zero).
    """
    age_codec = encoded.codebook["Age2020"]
    gender_codec = encoded.codebook["Gender"]
    if gender_codec.kind != "categorical":
        raise CreditError("column 'Gender' must be categorical")
    del_codes = encoded.column_codes("Delinquency2021")
    age_codes = encoded.column_codes("Age2020")
    gender_codes = encoded.column_codes("Gender")

    # rows and delinquent rows of each group, (age, g) counted at age * len(labels) + g
    labels = gender_codec.labels
    n_groups = age_codec.domain_size * len(labels)
    groups = age_codes * len(labels) + gender_codes
    totals = np.bincount(groups, minlength=n_groups).tolist()
    late = np.bincount(groups[del_codes > 0], minlength=n_groups).tolist()
    return {
        (i // len(labels), labels[i % len(labels)]): late[i] / totals[i] if totals[i] else None
        for i in range(n_groups)
    }


def active_both_filter(data_2020: Dataset, data_2021: Dataset) -> tuple[Dataset, dict]:
    """Inner join on ``CardId``; one record per card active in both years.

    Returns the joined microdata (Gender, Age2020, Debt2020, Debt2021,
    Delinquency2020, Delinquency2021, ordered by card id), each column with
    the spec it has in its year's dataset, and its coverage of the 2020
    portfolio: ``count_fraction`` and ``debt_fraction`` of the 2020 cards
    and debt, and ``n_joined``. Duplicate ids within a year are an error.
    """
    ids_a = data_2020.column("CardId")
    ids_b = data_2021.column("CardId")
    for year, ids in (("2020", ids_a), ("2021", ids_b)):
        if np.unique(ids).size != ids.size:
            raise CreditError(f"duplicate card ids in the {year} dataset")
    # the check above proved the ids of each year unique
    common, idx_a, idx_b = np.intersect1d(ids_a, ids_b, assume_unique=True, return_indices=True)

    # each joined column, its spec and its rows come from the year it belongs to
    picks = (
        (data_2020, idx_a, "Gender"),
        (data_2020, idx_a, "Age2020"),
        (data_2020, idx_a, "Debt2020"),
        (data_2021, idx_b, "Debt2021"),
        (data_2020, idx_a, "Delinquency2020"),
        (data_2021, idx_b, "Delinquency2021"),
    )
    joined = Dataset(
        tuple(data.spec(name) for data, _, name in picks),
        [data.column(name)[idx] for data, idx, name in picks],
    )
    total_debt = float(data_2020.column("Debt2020").sum())
    joined_debt = float(data_2020.column("Debt2020")[idx_a].sum())
    n_2020 = data_2020.n_records
    coverage = {
        "count_fraction": 0.0 if n_2020 == 0 else common.size / n_2020,
        "debt_fraction": 0.0 if total_debt == 0 else joined_debt / total_debt,
        "n_joined": int(common.size),
    }
    return joined, coverage


# --------------------------------------------- the credit application (see apps)

CARD_YEARS = (2020, 2021)
POPULATION = CreditPortfolioConfig
INPUT_FILES = tuple(f"{kind}_{year}" for year in CARD_YEARS for kind in ("cards", "schema"))
EXTRA = "coverage.json"
rules = credit_rules
#: the two transitions, plus age and gender against each other and the 2020 states
WORKLOAD = [
    ("Delinquency2020", "Delinquency2021"),
    ("Debt2020", "Debt2021"),
    ("Age2020", "Gender"),
    ("Gender", "Delinquency2020"),
    ("Age2020", "Debt2020"),
]
#: the year-to-year transitions scored, by the state each one follows
TRANSITIONS = {
    "delinquency": ("Delinquency2020", "Delinquency2021"),
    "debt": ("Debt2020", "Debt2021"),
}
#: each transition's two years are binned into one state space, by one rule
PAIRED = tuple(TRANSITIONS.values())


def prepare(population: CreditPortfolioConfig, files: dict, rng: np.random.Generator):
    """The cards active in both years and their coverage, from the yearly
    card files or generated."""
    if files:
        cards = [
            read_csv(files[f"cards_{year}"], load_schema(files[f"schema_{year}"]))
            for year in CARD_YEARS
        ]
    else:
        cards = generate_credit_cards(population, rng)
    return active_both_filter(*cards)


def save_extra(coverage: dict, path) -> None:
    Path(path).write_text(json.dumps(coverage, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def load_extra(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def evaluate(original, coverage, encoded, synthetic, decoded, strategy):
    """Frobenius errors of the synthetic transition matrices and the
    delinquency rates per (age band, gender), all on codes."""
    codebook = encoded.codebook
    metrics: dict = {"frobenius": {}}
    tables = {}
    norms = {}
    for kind, (c0, c1) in TRANSITIONS.items():
        n_states = codebook[c0].domain_size
        edges = codebook[c0].value_edges
        labels = tuple(f"[{edges[i]:g},{edges[i + 1]:g})" for i in range(n_states))
        tm_o = transition_matrix(
            encoded.column_codes(c0), encoded.column_codes(c1), n_states, states=labels
        )
        tm_s = transition_matrix(
            synthetic.column_codes(c0), synthetic.column_codes(c1), n_states, states=labels
        )
        result = frobenius_error(tm_s, tm_o)
        metrics["frobenius"][kind] = {"value": result.value, "excluded_rows": result.excluded_rows}
        norms[kind] = float(np.sqrt(np.sum(tm_o.probs[tm_o.defined] ** 2)))
        for tag, tm in (("original", tm_o), ("synthetic", tm_s)):
            rows = [["state", *tm.states]]
            for state, probs in zip(tm.states, tm.probs):
                rows.append([state, *(f"{v:.6f}" for v in probs)])
            tables[f"transition_{kind}_{tag}.csv"] = rows

    rates_o = delinquency_rate(encoded)
    rates_s = delinquency_rate(synthetic)
    # band names when the codes are the reporting age bands
    named = codebook["Age2020"].edges[1:] == CBP_AGE_CUTOFFS
    rows = [["age_band", "gender", "rate_original", "rate_synthetic"]]
    for key in sorted(rates_o):
        band = AGE_BAND_LABELS[key[0]] if named else f"bin{key[0]}"
        ro = rates_o[key]
        rs = rates_s.get(key)
        rows.append(
            [band, key[1], "" if ro is None else f"{ro:.6f}", "" if rs is None else f"{rs:.6f}"]
        )
    tables["plot_delinquency_rates.csv"] = rows

    frob_del = metrics["frobenius"]["delinquency"]["value"]
    metrics["coverage"] = coverage
    metrics["missing_rate_groups_synthetic"] = sum(1 for v in rates_s.values() if v is None)
    metrics["relative_error"] = (
        frob_del / norms["delinquency"]
        if frob_del is not None and norms["delinquency"] > 0
        else None
    )
    return metrics, tables


def headline(metrics: dict) -> dict:
    return {f"frobenius_{kind}": metrics["frobenius"][kind]["value"] for kind in TRANSITIONS}

"""Financial-usage index evaluator.

Builds account/savings/loan penetration indicators from microdata plus an
unbanked count table, combines them into a single usage component via the
first principal component of the standardized indicators, and scores
synthetic data by the maximum absolute difference of the component across
groups. A separate view splits each indicator's banked population into
low/medium/high usage levels.

The unbanked population enters as an explicit count table (period, age
band, gender) sourced from a public registry; unbanked individuals
contribute to denominators only.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, replace

import numpy as np

from ..binning import EncodedDataset
from ..population import FiPopulationConfig, generate_fi_population
from ..presets import AGE_BAND_LABELS, age_bands, fi_rules
from ..tabular import Dataset, TabularError, load_schema, read_csv

__all__ = [
    "UsageError",
    "UsageIndicators",
    "UsageComponent",
    "TauReport",
    "build_usage_indicators",
    "pca_usage_component",
    "tau_metric",
    "usage_levels",
    "load_unbanked_csv",
    "save_unbanked_csv",
]

INDICATOR_COLUMNS = ("nFI", "nSavings", "nLoans")
LEVEL_LABELS = ("low", "medium", "high")


class UsageError(ValueError):
    """Invalid usage-index input."""


@dataclass(frozen=True)
class UsageIndicators:
    """Penetration rates for one group (or aggregate).

    ``alpha``: share with at least one financial-institution relationship;
    ``beta``: share with at least one savings account; ``gamma``: share with
    at least one loan. The population includes the unbanked.
    """

    key: tuple
    alpha: float
    beta: float
    gamma: float

    def __post_init__(self) -> None:
        for name, v in (("alpha", self.alpha), ("beta", self.beta), ("gamma", self.gamma)):
            if not (0.0 <= v <= 1.0):
                raise UsageError(f"{name} must lie in [0, 1], got {v}")

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.alpha, self.beta, self.gamma])


@dataclass(frozen=True)
class UsageComponent:
    """PCA-weighted usage component per group."""

    weights: tuple[float, float, float]
    values: dict
    recon_error: float

    def __post_init__(self) -> None:
        w = np.asarray(self.weights)
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-9:
            raise UsageError("weights must be non-negative and sum to 1")
        for key, value in self.values.items():
            if not (-1e-9 <= value <= 1.0 + 1e-9):
                raise UsageError(f"component for {key} outside [0, 1]: {value}")


def build_usage_indicators(data: Dataset, unbanked: dict) -> list[UsageIndicators]:
    """Penetration indicators per (period, age band, gender) cell, from
    microdata plus unbanked counts.

    ``unbanked`` maps ``(period, age_band_label, gender)`` to counts. Ages
    fall into the reporting age bands, named by ``AGE_BAND_LABELS``. Cells
    with zero total population are an error.
    """
    for name in ("Period", "Age", "Gender", *INDICATOR_COLUMNS):
        if name not in data.column_names:
            raise UsageError(f"required feature '{name}' missing from dataset")

    for name in ("Period", "Gender"):
        if not data.spec(name).is_categorical:
            raise TabularError(f"column '{name}' is numeric, has no labels")
    periods = data.spec("Period").levels
    genders = data.spec("Gender").levels
    bands = age_bands(data.column("Age"))

    # rows, and rows with each indicator, per (period, age band, gender) cell
    n_bands, n_genders = len(AGE_BAND_LABELS), len(genders)
    cell = (data.column("Period") * n_bands + bands) * n_genders + data.column("Gender")
    n_cells = len(periods) * n_bands * n_genders
    flagged = [cell[data.column(name) > 0] for name in INDICATOR_COLUMNS]
    counts = np.stack([np.bincount(rows, minlength=n_cells) for rows in (cell, *flagged)], axis=1)
    banked: dict[tuple, np.ndarray] = {}
    for index in np.flatnonzero(counts[:, 0]).tolist():
        period, rest = divmod(index, n_bands * n_genders)
        band, gender = divmod(rest, n_genders)
        banked[(periods[period], AGE_BAND_LABELS[band], genders[gender])] = counts[index]

    extra: dict[tuple, float] = {}
    for cell_key, count in unbanked.items():
        if count < 0:
            raise UsageError(f"unbanked count for {cell_key} is negative")
        group = tuple(cell_key)
        extra[group] = extra.get(group, 0.0) + count

    out = []
    for group in sorted(set(banked) | {g for g, c in extra.items() if c > 0}):
        stats = banked.get(group, np.zeros(4))
        population = stats[0] + extra.get(group, 0.0)
        if population <= 0:
            raise UsageError(f"group {group} has zero total population")
        out.append(
            UsageIndicators(
                key=group,
                alpha=float(stats[1] / population),
                beta=float(stats[2] / population),
                gamma=float(stats[3] / population),
            )
        )
    return out


def _leading_eigenvector(matrix: np.ndarray) -> tuple[np.ndarray, float]:
    """Power iteration from the uniform vector; exact on symmetric inputs."""
    m = matrix.shape[0]
    v = np.full(m, 1.0 / m)
    for _ in range(10_000):
        w = matrix @ v
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            return v, 0.0
        w = w / norm
        if float(np.max(np.abs(w - v))) < 1e-15:
            v = w
            break
        v = w
    return v, float(v @ matrix @ v)


def pca_usage_component(indicators) -> UsageComponent:
    """First-principal-component weights over standardized indicators.

    Loadings are sign-fixed so the largest-magnitude loading is positive,
    clipped to non-negative (degenerate anticorrelation warns), and
    normalized to sum to one. The component applies the weights to the raw
    indicators, so it stays inside [0, 1]. Zero-variance indicators receive
    their equal share of the weight with a warning. The component's values
    are keyed by the indicators' keys.
    """
    indicators = list(indicators)
    if len(indicators) < 3:
        raise UsageError("need at least 3 groups for the principal component")
    X = np.vstack([ind.vector for ind in indicators])
    sd = X.std(axis=0)
    live = np.flatnonzero(sd > 0)
    dead = np.flatnonzero(sd == 0)
    if dead.size:
        warnings.warn(
            f"zero-variance indicator column(s) {dead.tolist()}; assigning equal-share weight",
            stacklevel=2,
        )

    weights = np.zeros(3)
    recon_error = 0.0
    if live.size == 0:
        weights[:] = 1.0 / 3.0
    else:
        Z = (X[:, live] - X[:, live].mean(axis=0)) / sd[live]
        corr = (Z.T @ Z) / X.shape[0]
        vec, lam = _leading_eigenvector(corr)
        if vec[np.argmax(np.abs(vec))] < 0:
            vec = -vec
        if np.any(vec < 0):
            warnings.warn(
                "mixed-sign principal loadings clipped to zero", stacklevel=2
            )
            vec = np.clip(vec, 0.0, None)
        if vec.sum() == 0:
            vec = np.full(live.size, 1.0 / live.size)
        share_dead = dead.size / 3.0
        weights[dead] = 1.0 / 3.0
        weights[live] = (vec / vec.sum()) * (1.0 - share_dead)
        recon_error = float(max(0.0, 1.0 - lam / np.trace(corr))) if live.size else 0.0

    values = {ind.key: float(weights @ ind.vector) for ind in indicators}
    return UsageComponent(weights=tuple(weights), values=values, recon_error=recon_error)


@dataclass(frozen=True)
class TauReport:
    """Maximum absolute component difference per group and overall."""

    per_group: dict
    overall: float


def tau_metric(component_s: UsageComponent, component_o: UsageComponent) -> TauReport:
    """Max |B_s - B_o| per (age band, gender) group, maximized over periods."""
    keys_s, keys_o = set(component_s.values), set(component_o.values)
    if keys_s != keys_o:
        missing = sorted(keys_s ^ keys_o)
        raise UsageError(f"group keys do not match, e.g. {missing[:4]}")
    per_group: dict[tuple, float] = {}
    for key in keys_s:
        group = key[1:]  # (band, gender) of (period, band, gender)
        diff = abs(component_s.values[key] - component_o.values[key])
        per_group[group] = max(per_group.get(group, 0.0), diff)
    overall = max(per_group.values()) if per_group else 0.0
    return TauReport(per_group=per_group, overall=overall)


def usage_levels(encoded: EncodedDataset) -> dict:
    """Population share per (indicator, low/medium/high) level, for each of
    ``INDICATOR_COLUMNS``.

    Levels split each indicator's code domain into contiguous thirds;
    shares per indicator sum to one.
    """
    out = {}
    for name in INDICATOR_COLUMNS:
        codec = encoded.codebook[name]
        dom = codec.domain_size
        if dom < 3:
            raise UsageError(f"column '{name}': need at least 3 codes for levels, got {dom}")
        codes = encoded.column_codes(name)
        if codes.size == 0:
            raise UsageError(f"column '{name}': no rows left to level")
        levels = np.minimum((codes * 3) // dom, 2)
        out[name] = np.bincount(levels, minlength=3) / codes.size
    return out


def load_unbanked_csv(path) -> dict:
    """Read the (period, age_band, gender, count) table; each ``age_band``
    is one of ``AGE_BAND_LABELS``, each count is a non-negative integer,
    and no (period, age_band, gender) key repeats, so key ``i`` of the dict
    is data row ``i + 1``."""
    unbanked = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["period", "age_band", "gender", "count"]:
            raise TabularError(f"{path}: expected header period,age_band,gender,count")
        for rownum, row in enumerate(reader, start=1):
            if len(row) != 4:
                raise TabularError(f"{path}: row {rownum}: expected 4 cells")
            if row[1] not in AGE_BAND_LABELS:
                raise TabularError(f"{path}: row {rownum}: unknown age band '{row[1]}'")
            try:
                count = int(row[3])
            except ValueError:
                raise TabularError(
                    f"{path}: row {rownum}: unparseable count '{row[3]}'"
                ) from None
            if count < 0:
                raise TabularError(f"{path}: row {rownum}: count {count} is negative")
            key = (row[0], row[1], row[2])
            if key in unbanked:
                raise TabularError(
                    f"{path}: row {rownum}: period, age band and gender "
                    f"{','.join(key)} repeat an earlier row"
                )
            unbanked[key] = count
    return unbanked


def save_unbanked_csv(unbanked: dict, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["period", "age_band", "gender", "count"])
        for key in sorted(unbanked):
            writer.writerow([key[0], key[1], key[2], int(unbanked[key])])


# ------------------------------------------------- the fi application (see apps)

POPULATION = FiPopulationConfig
INPUT_FILES = ("data", "schema", "unbanked")
EXTRA = "unbanked.csv"
rules = fi_rules
PAIRED = ()
#: each indicator against each demographic, plus two demographic pairs
WORKLOAD = [
    (demo, indicator) for indicator in INDICATOR_COLUMNS for demo in ("Period", "Age", "Gender")
] + [("Age", "Gender"), ("Period", "Age")]
load_extra = load_unbanked_csv
save_extra = save_unbanked_csv


def prepare(population: FiPopulationConfig, files: dict, rng: np.random.Generator):
    """The fi microdata and its unbanked table, read from ``files`` or generated."""
    if files:
        dataset = read_csv(files["data"], load_schema(files["schema"]))
        unbanked = load_unbanked_csv(files["unbanked"])
        # a period or gender the microdata lacks would add an unbanked-only group
        for rownum, (period, _, gender) in enumerate(unbanked, start=1):
            for name, label in (("Period", period), ("Gender", gender)):
                if label not in dataset.spec(name).levels:
                    raise TabularError(
                        f"{files['unbanked']}: row {rownum}: {name} '{label}' "
                        "is no level of the microdata"
                    )
        return dataset, unbanked
    return generate_fi_population(population, rng)


def evaluate(original, unbanked, encoded, synthetic, decoded, strategy):
    """Tau between the usage components of the original and the decoded
    synthetic data over their shared groups, plus, for data-driven bins,
    the usage-level shares of the codes. Without synthetic rows there is no
    synthetic component, and the tau and the synthetic weights are None."""
    comp_o = pca_usage_component(build_usage_indicators(original, unbanked))
    comp_s = tau = None
    if decoded.n_records:
        comp_s = pca_usage_component(build_usage_indicators(decoded, unbanked))
    shared = sorted(set(comp_o.values) & set(comp_s.values if comp_s else ()))
    if comp_s:
        tau = tau_metric(
            replace(comp_s, values={k: comp_s.values[k] for k in shared}),
            replace(comp_o, values={k: comp_o.values[k] for k in shared}),
        )
    rows = [["period", "age_band", "gender", "b_original", "b_synthetic"]]
    for key in shared:
        rows.append([*key, f"{comp_o.values[key]:.6f}", f"{comp_s.values[key]:.6f}"])
    tables = {"plot_usage_components.csv": rows}

    metrics = {
        "tau_overall": tau.overall if tau else None,
        "tau_per_group": {"|".join(k): v for k, v in sorted(tau.per_group.items())} if tau else {},
        "cells_excluded": len(set(comp_o.values) ^ set(comp_s.values if comp_s else ())),
        "weights_original": list(comp_o.weights),
        "weights_synthetic": list(comp_s.weights) if comp_s else None,
        "pca_recon_error_original": comp_o.recon_error,
        "pca_recon_error_synthetic": comp_s.recon_error if comp_s else None,
        "relative_error": tau.overall if tau else None,
    }
    if strategy == "data_driven":
        try:
            lo = usage_levels(encoded)
            ls = usage_levels(synthetic)
        except UsageError as exc:  # under three codes, or no rows
            metrics["usage_levels"] = {"error": str(exc)}
        else:
            metrics["usage_levels"] = {
                name: {"original": lo[name].tolist(), "synthetic": ls[name].tolist()}
                for name in lo
            }
            levels = [["indicator", "level", "share_original", "share_synthetic"]]
            for name in sorted(lo):
                for level, label in enumerate(LEVEL_LABELS):
                    levels.append([name, label, f"{lo[name][level]:.6f}", f"{ls[name][level]:.6f}"])
            tables["plot_usage_levels.csv"] = levels
    return metrics, tables


def headline(metrics: dict) -> dict:
    return {"tau_overall": metrics["tau_overall"]}

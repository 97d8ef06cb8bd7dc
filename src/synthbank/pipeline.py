"""Config-driven pipeline: generate, encode, synthesize, decode, evaluate.

One JSON config document drives the whole chain. Every stage writes its
artifacts into the output directory and appends to the run manifest, so a
failed run leaves the manifest up to the failing stage. Outputs are
deterministic for a fixed (config, seed): each stage derives its generator
from ``(seed, stage_tag)``, so running stages separately or through
``run_pipeline`` produces identical bytes. Stage timings live only in the
manifest, which is excluded from byte-for-byte determinism.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .apps.credit import active_both_filter, delinquency_rate, frobenius_error, transition_matrix
from .apps.usage_index import (
    build_usage_indicators,
    load_unbanked_csv,
    pca_usage_component,
    save_unbanked_csv,
    tau_metric,
    usage_levels,
)
from .apps.yield_curve import YieldError, build_yield_curves, lowess, nss_eval, nss_fit, yield_rmse
from .binning import (
    BinningRule,
    Codebook,
    EncodedDataset,
    drop_suppressed_rows,
    encode_dataset,
    read_encoded_csv,
    write_encoded_csv,
)
from .decoding import KdeSpec, decode_dataset
from .mechanisms import PacConfig, fit_aim_model, fit_mst_model, pac_synthesize
from .population import (
    CreditPortfolioConfig,
    DepositMarketConfig,
    FiPopulationConfig,
    generate_credit_cards,
    generate_fi_population,
    generate_term_deposits,
)
from .presets import AGE_BAND_LABELS, default_workload, rules_for
from .privacy import PrivacyParams, gaussian_sigma, split_budget
from .tabular import Dataset, load_schema, read_csv, save_schema, write_csv

__all__ = [
    "PipelineConfigError",
    "PipelineConfig",
    "Pipeline",
    "run_pipeline",
    "compare_strategies",
]

APPLICATIONS = ("fi", "yield", "credit")
MECHANISMS = ("mst", "aim", "pac")
DECODE_MODES = ("left_edge", "midpoint", "kde")
# privacy section used when a config has none; ``privacy: null`` means no noise
DEFAULT_PRIVACY = {"epsilon": 1.0, "delta": 1e-10}

# stage tags mixed into the seed sequence; stable across releases
_STAGE_SEEDS = {"datagen": 0, "synth": 1, "decode": 2}


class PipelineConfigError(ValueError):
    """All config validation problems, collected into one message."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid pipeline configuration:\n" + "\n".join(self.errors))


@dataclass
class PipelineConfig:
    """Validated pipeline settings (see ``PipelineConfig.from_json``)."""

    application: str
    strategy: str
    mechanism: str
    output: str
    seed: int = 1
    epsilon: float | None = 1.0
    delta: float | None = 1e-10
    selection_fraction: float = 1.0 / 3.0
    rounds: int = 10
    workload: list | None = None
    pac_k: int = 2
    pac_eta: float = 0.01
    pac_delta_k: float = 3.0
    decode_mode: str = "left_edge"
    kde_bandwidth: float | str = "scott"
    kde_grid_points: int = 512
    n_synthetic: int | None = None
    datagen: dict = field(default_factory=dict)
    files: dict = field(default_factory=dict)
    rule_overrides: dict = field(default_factory=dict)

    @property
    def privacy(self) -> PrivacyParams | None:
        if self.epsilon is None:
            return None
        return PrivacyParams(self.epsilon, self.delta)

    @classmethod
    def from_dict(cls, doc: dict) -> "PipelineConfig":
        errors = []

        def pick(section, key, default=None):
            return section.get(key, default) if isinstance(section, dict) else default

        application = doc.get("application")
        if application not in APPLICATIONS:
            errors.append(
                f"application: unknown value {application!r} (allowed: {', '.join(APPLICATIONS)})"
            )
        strategy = doc.get("strategy", "cbp")
        if strategy not in ("cbp", "data_driven"):
            errors.append(
                f"strategy: unknown value {strategy!r} (allowed: cbp, data_driven)"
            )
        mech_section = doc.get("mechanism", {})
        if isinstance(mech_section, str):
            mech_section = {"name": mech_section}
        mechanism = pick(mech_section, "name")
        if mechanism not in MECHANISMS:
            errors.append(
                f"mechanism.name: unknown value {mechanism!r} (allowed: {', '.join(MECHANISMS)})"
            )
        privacy = doc.get("privacy", DEFAULT_PRIVACY)
        epsilon = delta = None
        if privacy is not None:
            epsilon = pick(privacy, "epsilon")
            delta = pick(privacy, "delta")
            if epsilon is None or not epsilon > 0:
                errors.append(f"privacy.epsilon: must be positive, got {epsilon!r}")
            if delta is None or not 0 < delta < 1:
                errors.append(f"privacy.delta: must lie in (0, 1), got {delta!r}")
        decode = doc.get("decode", {})
        decode_mode = pick(decode, "mode", "left_edge")
        if decode_mode not in DECODE_MODES:
            errors.append(
                f"decode.mode: unknown value {decode_mode!r} (allowed: {', '.join(DECODE_MODES)})"
            )
        output = doc.get("output")
        if not output:
            errors.append("output: an output directory is required")
        seed = doc.get("seed", 1)
        if not isinstance(seed, int) or seed < 0:
            errors.append(f"seed: must be a non-negative integer, got {seed!r}")

        input_section = doc.get("input", {"datagen": {}})
        datagen = input_section.get("datagen") if isinstance(input_section, dict) else None
        files = input_section.get("files") if isinstance(input_section, dict) else None
        if datagen is None and files is None:
            errors.append("input: needs a 'datagen' or 'files' section")

        selection_fraction = pick(mech_section, "selection_fraction", 1.0 / 3.0)
        if not 0 <= selection_fraction < 1:
            errors.append(
                f"mechanism.selection_fraction: must lie in [0, 1), got {selection_fraction!r}"
            )
        rounds = pick(mech_section, "rounds", 10)
        if not isinstance(rounds, int) or rounds < 1:
            errors.append(f"mechanism.rounds: must be a positive integer, got {rounds!r}")
        workload = pick(mech_section, "workload")
        if workload is not None:
            parsed_workload = []
            for item in workload:
                if isinstance(item, dict):
                    if "attrs" not in item:
                        errors.append(f"mechanism.workload: entry {item!r} needs 'attrs'")
                        continue
                    parsed_workload.append(
                        {"attrs": list(item["attrs"]), "weight": float(item.get("weight", 1.0))}
                    )
                else:
                    parsed_workload.append(list(item))
            workload = parsed_workload
        pac = pick(mech_section, "pac", {}) or {}
        rule_overrides = doc.get("rule_overrides", {}) or {}
        parsed_overrides = {}
        for name, spec in rule_overrides.items():
            try:
                parsed_overrides[name] = BinningRule(
                    method=spec.get("method"),
                    cutoffs=tuple(spec["cutoffs"]) if "cutoffs" in spec else None,
                    k=spec.get("k"),
                    log_pretransform=spec.get("log_pretransform", False),
                    floor=spec.get("floor", 0.0),
                )
            except Exception as exc:
                errors.append(f"rule_overrides.{name}: {exc}")

        n_synthetic = doc.get("n_synthetic")
        if n_synthetic is not None and (not isinstance(n_synthetic, int) or n_synthetic < 0):
            errors.append(f"n_synthetic: must be a non-negative integer, got {n_synthetic!r}")

        if errors:
            raise PipelineConfigError(errors)
        return cls(
            application=application,
            strategy=strategy,
            mechanism=mechanism,
            output=output,
            seed=seed,
            epsilon=epsilon,
            delta=delta,
            selection_fraction=float(selection_fraction),
            rounds=rounds,
            workload=workload,
            pac_k=int(pac.get("k", 2)),
            pac_eta=float(pac.get("eta", 0.01)),
            pac_delta_k=float(pac.get("delta_k", 3.0)),
            decode_mode=decode_mode,
            kde_bandwidth=pick(decode, "bandwidth", "scott"),
            kde_grid_points=int(pick(decode, "grid_points", 512)),
            n_synthetic=n_synthetic,
            datagen=dict(datagen or {}),
            files=dict(files or {}),
            rule_overrides=parsed_overrides,
        )

    @classmethod
    def from_json(cls, path) -> "PipelineConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_snapshot(self) -> dict:
        doc = dataclasses.asdict(self)
        doc["rule_overrides"] = {
            name: {
                "method": rule.method,
                "cutoffs": list(rule.cutoffs) if rule.cutoffs else None,
                "k": rule.k,
                "log_pretransform": rule.log_pretransform,
                "floor": rule.floor,
            }
            for name, rule in self.rule_overrides.items()
        }
        return doc


def _dataclass_with_overrides(base, overrides: dict, label: str):
    if not overrides:
        return base
    valid = {f.name for f in dataclasses.fields(base)}
    unknown = sorted(set(overrides) - valid)
    if unknown:
        raise PipelineConfigError([f"input.datagen.{label}: unknown keys {unknown}"])
    fixed = {}
    for key, value in overrides.items():
        if isinstance(value, list):
            value = tuple(tuple(v) if isinstance(v, list) else v for v in value)
        fixed[key] = value
    return dataclasses.replace(base, **fixed)


def _json_dump(doc, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _key_str(key) -> str:
    return "|".join(str(part) for part in key)


def _age_band_label(code: int, domain: int) -> str:
    if domain == len(AGE_BAND_LABELS):
        return AGE_BAND_LABELS[code]
    return f"bin{code}"


def _bin_labels(codebook: Codebook, column: str) -> list[str]:
    codec = codebook[column]
    edges = codec.edges
    return [f"[{edges[i]:g},{edges[i + 1]:g})" for i in range(codec.domain_size)]


@dataclass
class SourceBundle:
    """The prepared original microdata plus application-specific extras."""

    dataset: Dataset
    unbanked: dict | None = None
    cards: tuple | None = None
    coverage: dict | None = None


class Pipeline:
    """Stage runner; every stage persists artifacts and manifest progress."""

    def __init__(self, config: PipelineConfig):
        self.config = config
        self.outdir = Path(config.output)
        self.outdir.mkdir(parents=True, exist_ok=True)
        self.manifest: dict = {
            "package_version": __version__,
            "config": config.to_snapshot(),
            "stages": [],
            "privacy": {
                "epsilon": config.epsilon,
                "delta": config.delta,
                "selection_fraction": config.selection_fraction,
            },
            "mechanism": {"name": config.mechanism},
            "metrics_summary": {},
            "artifacts": {},
        }
        self.source: SourceBundle | None = None
        self.encoded: EncodedDataset | None = None
        self.synthetic: EncodedDataset | None = None
        self.decoded: Dataset | None = None
        self.suppressed_dropped = 0
        self.report: dict | None = None

    # ------------------------------------------------------------- helpers

    def _rng(self, stage: str) -> np.random.Generator:
        return np.random.default_rng([self.config.seed, _STAGE_SEEDS[stage]])

    def _register(self, filename: str) -> None:
        digest = hashlib.sha256((self.outdir / filename).read_bytes()).hexdigest()
        self.manifest["artifacts"][filename] = digest

    def _stage(self, name: str, started: float) -> None:
        self.manifest["stages"].append(
            {"name": name, "seconds": round(time.perf_counter() - started, 6)}
        )
        self.write_manifest()

    def write_manifest(self) -> None:
        _json_dump(self.manifest, self.outdir / "manifest.json")

    def _write_dataset(self, dataset: Dataset, name: str, schema_name: str | None = None) -> None:
        write_csv(dataset, self.outdir / name)
        self._register(name)
        if schema_name:
            save_schema(dataset.schema, self.outdir / schema_name)
            self._register(schema_name)

    # -------------------------------------------------------------- stages

    def gen_data(self) -> SourceBundle:
        """Generate (or load) the original microdata and write it out."""
        started = time.perf_counter()
        config = self.config
        rng = self._rng("datagen")
        app = config.application
        if config.files:
            self.source = self._load_input_files()
        elif app == "fi":
            fi_config = _dataclass_with_overrides(FiPopulationConfig(), config.datagen, "fi")
            dataset, unbanked = generate_fi_population(fi_config, rng)
            self.source = SourceBundle(dataset=dataset, unbanked=unbanked)
        elif app == "yield":
            dep_config = _dataclass_with_overrides(DepositMarketConfig(), config.datagen, "yield")
            self.source = SourceBundle(dataset=generate_term_deposits(dep_config, rng))
        else:
            credit_config = _dataclass_with_overrides(
                CreditPortfolioConfig(), config.datagen, "credit"
            )
            cards_2020, cards_2021 = generate_credit_cards(credit_config, rng)
            joined, coverage = active_both_filter(cards_2020, cards_2021)
            self.source = SourceBundle(
                dataset=joined,
                cards=(cards_2020, cards_2021),
                coverage={
                    "count_fraction": coverage.count_fraction,
                    "debt_fraction": coverage.debt_fraction,
                    "n_joined": coverage.n_joined,
                },
            )

        self._write_dataset(self.source.dataset, "original.csv", "schema.json")
        if self.source.unbanked is not None:
            save_unbanked_csv(self.source.unbanked, self.outdir / "unbanked.csv")
            self._register("unbanked.csv")
        if self.source.cards is not None:
            self._write_dataset(self.source.cards[0], "cards_2020.csv", "schema_2020.json")
            self._write_dataset(self.source.cards[1], "cards_2021.csv", "schema_2021.json")
        if self.source.coverage is not None:
            _json_dump(self.source.coverage, self.outdir / "coverage.json")
            self._register("coverage.json")
        self._stage("gen-data", started)
        return self.source

    def _load_input_files(self) -> SourceBundle:
        config = self.config
        app = config.application
        files = config.files
        if app == "credit":
            needed = ("cards_2020", "schema_2020", "cards_2021", "schema_2021")
            missing = [k for k in needed if k not in files]
            if missing:
                raise PipelineConfigError([f"input.files: missing keys {missing}"])
            cards_2020 = read_csv(files["cards_2020"], load_schema(files["schema_2020"]))
            cards_2021 = read_csv(files["cards_2021"], load_schema(files["schema_2021"]))
            joined, coverage = active_both_filter(cards_2020, cards_2021)
            return SourceBundle(
                dataset=joined,
                cards=(cards_2020, cards_2021),
                coverage={
                    "count_fraction": coverage.count_fraction,
                    "debt_fraction": coverage.debt_fraction,
                    "n_joined": coverage.n_joined,
                },
            )
        needed = ("data", "schema") + (("unbanked",) if app == "fi" else ())
        missing = [k for k in needed if k not in files]
        if missing:
            raise PipelineConfigError([f"input.files: missing keys {missing}"])
        dataset = read_csv(files["data"], load_schema(files["schema"]))
        unbanked = load_unbanked_csv(files["unbanked"]) if app == "fi" else None
        return SourceBundle(dataset=dataset, unbanked=unbanked)

    def _require_source(self) -> SourceBundle:
        if self.source is None:
            dataset = read_csv(self.outdir / "original.csv", load_schema(self.outdir / "schema.json"))
            unbanked = None
            cards = None
            coverage = None
            if self.config.application == "fi":
                unbanked = load_unbanked_csv(self.outdir / "unbanked.csv")
            if self.config.application == "credit":
                cards_2020 = read_csv(
                    self.outdir / "cards_2020.csv", load_schema(self.outdir / "schema_2020.json")
                )
                cards_2021 = read_csv(
                    self.outdir / "cards_2021.csv", load_schema(self.outdir / "schema_2021.json")
                )
                cards = (cards_2020, cards_2021)
                coverage_path = self.outdir / "coverage.json"
                if coverage_path.exists():
                    coverage = json.loads(coverage_path.read_text(encoding="utf-8"))
                else:
                    _, cov = active_both_filter(cards_2020, cards_2021)
                    coverage = {
                        "count_fraction": cov.count_fraction,
                        "debt_fraction": cov.debt_fraction,
                        "n_joined": cov.n_joined,
                    }
            self.source = SourceBundle(
                dataset=dataset, unbanked=unbanked, cards=cards, coverage=coverage
            )
        return self.source

    def encode(self) -> EncodedDataset:
        started = time.perf_counter()
        source = self._require_source()
        rules = dict(rules_for(self.config.application, self.config.strategy))
        rules.update(self.config.rule_overrides)
        self.encoded = encode_dataset(source.dataset, rules)
        write_encoded_csv(self.encoded, self.outdir / "encoded.csv")
        self._register("encoded.csv")
        self.encoded.codebook.to_json(self.outdir / "codebook.json")
        self._register("codebook.json")
        self._stage("encode", started)
        return self.encoded

    def _require_encoded(self) -> EncodedDataset:
        if self.encoded is None:
            codebook = Codebook.from_json(self.outdir / "codebook.json")
            self.encoded = read_encoded_csv(self.outdir / "encoded.csv", codebook)
        return self.encoded

    def synthesize(self) -> EncodedDataset:
        started = time.perf_counter()
        config = self.config
        encoded = self._require_encoded()
        rng = self._rng("synth")
        n_out = config.n_synthetic if config.n_synthetic is not None else encoded.n_records
        params = config.privacy
        details: dict = {}
        if config.mechanism == "mst":
            model = fit_mst_model(encoded, params, rng, config.selection_fraction)
            self.synthetic = EncodedDataset(model.sample(n_out, rng), encoded.codebook, "mst")
            details["tree_edges"] = [
                [encoded.codebook.names[a], encoded.codebook.names[b]] for a, b in model.edges
            ]
            details["measured"] = [
                {
                    "attrs": [encoded.codebook.names[a] for a in item["attrs"]],
                    "sigma": item["sigma"],
                }
                for item in model.measured
            ]
        elif config.mechanism == "aim":
            names = encoded.codebook.names
            workload_names = config.workload or default_workload(config.application)
            workload = []
            for item in workload_names:
                if isinstance(item, dict):
                    attrs = tuple(names.index(n) for n in item["attrs"])
                    workload.append((attrs, float(item.get("weight", 1.0))))
                else:
                    workload.append(tuple(names.index(n) for n in item))
            model = fit_aim_model(
                encoded, workload, params, config.rounds, rng, config.selection_fraction
            )
            self.synthetic = EncodedDataset(model.sample(n_out, rng), encoded.codebook, "aim")
            details["measured"] = [
                {
                    "attrs": [names[a] for a in item["attrs"]],
                    "sigma": item["sigma"],
                }
                for item in model.measured
            ]
        else:
            pac_config = PacConfig(
                k=config.pac_k, eta=config.pac_eta, delta_k=config.pac_delta_k
            )
            self.synthetic = pac_synthesize(encoded, pac_config, params, n_out, rng)
            details["pac"] = {"k": config.pac_k, "eta": config.pac_eta, "delta_k": config.pac_delta_k}

        if params is not None:
            if config.mechanism == "mst":
                m = max(encoded.n_columns, 1)
            elif config.mechanism == "aim":
                m = config.rounds
            else:
                m = config.pac_k
            _, per_measurement = split_budget(params, m,
                0.0 if config.mechanism == "pac" else config.selection_fraction)
            self.manifest["privacy"]["sigma_per_measurement"] = gaussian_sigma(per_measurement)
        else:
            self.manifest["privacy"]["sigma_per_measurement"] = 0.0
        self.manifest["mechanism"].update(details)
        write_encoded_csv(self.synthetic, self.outdir / "synthetic_encoded.csv")
        self._register("synthetic_encoded.csv")
        self._stage("synth", started)
        return self.synthetic

    def _require_synthetic(self) -> EncodedDataset:
        if self.synthetic is None:
            codebook = Codebook.from_json(self.outdir / "codebook.json")
            if self.config.mechanism == "pac":
                codebook = codebook.with_suppressed()
            self.synthetic = read_encoded_csv(self.outdir / "synthetic_encoded.csv", codebook)
        return self.synthetic

    def decode(self) -> Dataset:
        started = time.perf_counter()
        config = self.config
        synthetic = self._require_synthetic()
        source = self._require_source()
        clean, dropped = drop_suppressed_rows(synthetic)
        self.suppressed_dropped = dropped
        rng = self._rng("decode")
        kde_spec = KdeSpec(bandwidth=config.kde_bandwidth, grid_points=config.kde_grid_points)
        self.decoded = decode_dataset(
            clean,
            mode=config.decode_mode,
            source=source.dataset,
            kde_spec=kde_spec,
            rng=rng,
        )
        self._write_dataset(self.decoded, "synthetic_decoded.csv")
        self._stage("decode", started)
        return self.decoded

    def _require_decoded(self) -> Dataset:
        if self.decoded is None:
            source = self._require_source()
            self.decoded = read_csv(
                self.outdir / "synthetic_decoded.csv", self._decoded_schema(source)
            )
            synthetic = self._require_synthetic()
            clean, dropped = drop_suppressed_rows(synthetic)
            self.suppressed_dropped = dropped
        return self.decoded

    def _decoded_schema(self, source: SourceBundle):
        from .tabular import NUMERIC, ColumnSpec

        specs = []
        for spec in source.dataset.schema:
            if spec.is_categorical:
                specs.append(spec)
            else:
                specs.append(ColumnSpec(spec.name, NUMERIC, units=spec.units))
        return tuple(specs)

    def evaluate(self) -> dict:
        started = time.perf_counter()
        config = self.config
        source = self._require_source()
        encoded = self._require_encoded()
        synthetic = self._require_synthetic()
        decoded = self._require_decoded()
        clean_synth, _ = drop_suppressed_rows(synthetic)

        if config.application == "fi":
            metrics = self._evaluate_fi(source, encoded, clean_synth, decoded)
        elif config.application == "yield":
            metrics = self._evaluate_yield(source, encoded, decoded)
        else:
            metrics = self._evaluate_credit(source, encoded, clean_synth)

        self.report = {
            "application": config.application,
            "strategy": config.strategy,
            "mechanism": config.mechanism,
            "privacy": {"epsilon": config.epsilon, "delta": config.delta},
            "seed": config.seed,
            "n_original": source.dataset.n_records,
            "n_synthetic": synthetic.n_records,
            "suppressed_rows_dropped": self.suppressed_dropped,
            "metrics": metrics,
        }
        _json_dump(self.report, self.outdir / "report.json")
        self._register("report.json")
        self.manifest["metrics_summary"] = {
            "relative_error": metrics.get("relative_error"),
        }
        self._stage("eval", started)
        return self.report

    # ------------------------------------------------------ app evaluators

    def _evaluate_fi(self, source, encoded, clean_synth, decoded) -> dict:
        indicators_o = build_usage_indicators(source.dataset, source.unbanked)
        indicators_s = build_usage_indicators(decoded, source.unbanked)
        comp_o = pca_usage_component(indicators_o, variant="original")
        comp_s = pca_usage_component(indicators_s, variant="synthetic")
        shared = sorted(set(comp_o.values) & set(comp_s.values))
        excluded_cells = len(set(comp_o.values) ^ set(comp_s.values))
        comp_o_shared = dataclasses.replace(
            comp_o, values={k: comp_o.values[k] for k in shared}
        )
        comp_s_shared = dataclasses.replace(
            comp_s, values={k: comp_s.values[k] for k in shared}
        )
        tau = tau_metric(comp_s_shared, comp_o_shared)

        rows = ["period,age_band,gender,b_original,b_synthetic"]
        for key in shared:
            rows.append(
                f"{key[0]},{key[1]},{key[2]},{comp_o.values[key]:.6f},{comp_s.values[key]:.6f}"
            )
        (self.outdir / "plot_usage_components.csv").write_text(
            "\n".join(rows) + "\n", encoding="utf-8"
        )
        self._register("plot_usage_components.csv")

        metrics = {
            "tau_overall": tau.overall,
            "tau_per_group": {_key_str(k): v for k, v in sorted(tau.per_group.items())},
            "cells_excluded": excluded_cells,
            "weights_original": list(comp_o.weights),
            "weights_synthetic": list(comp_s.weights),
            "pca_recon_error_original": comp_o.recon_error,
            "pca_recon_error_synthetic": comp_s.recon_error,
            "relative_error": tau.overall,
        }
        if self.config.strategy == "data_driven":
            levels_report = {}
            try:
                lo = usage_levels(encoded)
                ls = usage_levels(clean_synth)
                for name in lo:
                    levels_report[name] = {
                        "original": lo[name].tolist(),
                        "synthetic": ls[name].tolist(),
                    }
                lines = ["indicator,level,share_original,share_synthetic"]
                for name in sorted(lo):
                    for level, label in enumerate(("low", "medium", "high")):
                        lines.append(
                            f"{name},{label},{lo[name][level]:.6f},{ls[name][level]:.6f}"
                        )
                (self.outdir / "plot_usage_levels.csv").write_text(
                    "\n".join(lines) + "\n", encoding="utf-8"
                )
                self._register("plot_usage_levels.csv")
            except Exception as exc:  # suppression can empty a column
                levels_report = {"error": str(exc)}
            metrics["usage_levels"] = levels_report
        return metrics

    def _evaluate_yield(self, source, encoded, decoded) -> dict:
        codebook = encoded.codebook
        curves_o = build_yield_curves(source.dataset, codebook)
        curves_s = build_yield_curves(decoded, codebook)
        term_edges = np.asarray(codebook["Term"].edges)

        groups: dict = {}
        group_keys = sorted({(k[0], k[1]) for k in curves_o} | {(k[0], k[1]) for k in curves_s})
        wai_max_overall = None
        for gkey in group_keys:
            per_period_o = {k[2]: c for k, c in curves_o.items() if (k[0], k[1]) == gkey}
            per_period_s = {k[2]: c for k, c in curves_s.items() if (k[0], k[1]) == gkey}
            shared_periods = sorted(set(per_period_o) & set(per_period_s))
            entry: dict = {
                "periods_excluded": len(set(per_period_o) ^ set(per_period_s)),
            }
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
            groups[_key_str(gkey)] = entry

        # plot-ready points with trend fits per synthetic curve
        lines = [
            "type,currency,period,term_bin,term_left_days,"
            "wai_original,tc_original,count_original,"
            "wai_synthetic,tc_synthetic,count_synthetic,lowess_synthetic,nss_synthetic"
        ]
        nss_report: dict = {}
        for key in sorted(set(curves_o) | set(curves_s)):
            co = curves_o.get(key)
            cs = curves_s.get(key)
            bins = sorted(set(co.points if co else ()) | set(cs.points if cs else ()))
            smooth: dict = {}
            nss_values: dict = {}
            if cs is not None and len(cs.points) >= 3:
                xs = np.array([term_edges[b] for b in cs.terms()])
                ys = np.array([cs.points[b].wai for b in cs.terms()])
                try:
                    fitted = lowess(xs, ys)
                    smooth = dict(zip(cs.terms(), fitted))
                except YieldError:
                    smooth = {}
            if cs is not None and len(cs.points) >= 6:
                xs = np.array([max(term_edges[b], 1.0) for b in cs.terms()])
                ys = np.array([cs.points[b].wai for b in cs.terms()])
                ws = np.array([max(cs.points[b].total_capital, 1.0) for b in cs.terms()])
                try:
                    params, fit_rmse = nss_fit(xs, ys, weights=ws)
                    nss_report[_key_str(key)] = {
                        "beta0": params.beta0,
                        "beta1": params.beta1,
                        "beta2": params.beta2,
                        "beta3": params.beta3,
                        "tau1": params.tau1,
                        "tau2": params.tau2,
                        "fit_rmse": fit_rmse,
                    }
                    nss_values = {b: float(nss_eval(params, max(term_edges[b], 1.0))) for b in cs.terms()}
                except YieldError as exc:
                    nss_report[_key_str(key)] = {"error": str(exc)}
            for b in bins:
                po = co.points.get(b) if co else None
                ps = cs.points.get(b) if cs else None
                lines.append(
                    ",".join(
                        [
                            key[0],
                            key[1],
                            key[2],
                            str(b),
                            f"{term_edges[b]:.6g}",
                            f"{po.wai:.6f}" if po else "",
                            f"{po.total_capital:.6g}" if po else "",
                            str(po.count) if po else "",
                            f"{ps.wai:.6f}" if ps else "",
                            f"{ps.total_capital:.6g}" if ps else "",
                            str(ps.count) if ps else "",
                            f"{smooth[b]:.6f}" if b in smooth else "",
                            f"{nss_values[b]:.6f}" if b in nss_values else "",
                        ]
                    )
                )
        (self.outdir / "plot_yield_points.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        self._register("plot_yield_points.csv")

        mean_wai = float(
            np.mean([p.wai for c in curves_o.values() for p in c.points.values()])
        ) if curves_o else float("nan")
        relative = (wai_max_overall / mean_wai) if (wai_max_overall is not None and mean_wai > 0) else None
        return {
            "groups": groups,
            "wai_rmse_max_overall": wai_max_overall,
            "mean_original_wai": mean_wai,
            "nss": nss_report,
            "relative_error": relative,
        }

    def _evaluate_credit(self, source, encoded, clean_synth) -> dict:
        codebook = encoded.codebook
        metrics: dict = {"frobenius": {}}
        norms = {}
        for kind, (c0, c1) in {
            "delinquency": ("Delinquency2020", "Delinquency2021"),
            "debt": ("Debt2020", "Debt2021"),
        }.items():
            n_states = codebook[c0].domain_size
            labels = tuple(_bin_labels(codebook, c0))
            tm_o = transition_matrix(
                encoded.column_codes(c0), encoded.column_codes(c1), n_states, states=labels
            )
            tm_s = transition_matrix(
                clean_synth.column_codes(c0), clean_synth.column_codes(c1), n_states, states=labels
            )
            result = frobenius_error(tm_s, tm_o)
            metrics["frobenius"][kind] = {
                "value": result.value,
                "excluded_rows": result.excluded_rows,
            }
            norms[kind] = float(np.sqrt(np.sum(tm_o.probs[tm_o.defined] ** 2)))
            for tag, tm in (("original", tm_o), ("synthetic", tm_s)):
                lines = ["state," + ",".join(tm.states)]
                for i, state in enumerate(tm.states):
                    lines.append(
                        state + "," + ",".join(f"{v:.6f}" for v in tm.probs[i])
                    )
                name = f"transition_{kind}_{tag}.csv"
                (self.outdir / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
                self._register(name)

        rates_o = delinquency_rate(encoded, delinquency_column="Delinquency2021")
        rates_s = delinquency_rate(clean_synth, delinquency_column="Delinquency2021")
        age_domain = codebook["Age2020"].domain_size
        lines = ["age_band,gender,rate_original,rate_synthetic"]
        for key in sorted(rates_o):
            label = _age_band_label(key[0], age_domain)
            ro = rates_o[key]
            rs = rates_s.get(key)
            lines.append(
                f"{label},{key[1]},"
                f"{'' if ro is None else f'{ro:.6f}'},"
                f"{'' if rs is None else f'{rs:.6f}'}"
            )
        (self.outdir / "plot_delinquency_rates.csv").write_text(
            "\n".join(lines) + "\n", encoding="utf-8"
        )
        self._register("plot_delinquency_rates.csv")

        frob_del = metrics["frobenius"]["delinquency"]["value"]
        metrics["coverage"] = source.coverage
        metrics["missing_rate_groups_synthetic"] = sum(
            1 for v in rates_s.values() if v is None
        )
        metrics["relative_error"] = (
            frob_del / norms["delinquency"] if norms["delinquency"] > 0 else None
        )
        return metrics

    # ----------------------------------------------------------- pipelines

    def run(self) -> dict:
        self.gen_data()
        self.encode()
        self.synthesize()
        self.decode()
        report = self.evaluate()
        self.write_manifest()
        return report


def run_pipeline(config_or_path) -> dict:
    """Run the full chain; returns the metric report."""
    config = (
        config_or_path
        if isinstance(config_or_path, PipelineConfig)
        else PipelineConfig.from_json(config_or_path)
    )
    return Pipeline(config).run()


def compare_strategies(config_or_path) -> dict:
    """Run both pre-processing strategies with a shared seed; emit a paired report.

    The comparison table carries one row per headline metric with the two
    strategies side by side and a winner flag per row (lower error wins).
    """
    base = (
        config_or_path
        if isinstance(config_or_path, PipelineConfig)
        else PipelineConfig.from_json(config_or_path)
    )
    outdir = Path(base.output)
    outdir.mkdir(parents=True, exist_ok=True)
    reports = {}
    for strategy in ("cbp", "data_driven"):
        sub = dataclasses.replace(base, strategy=strategy, output=str(outdir / strategy))
        reports[strategy] = Pipeline(sub).run()

    def rows_for(app: str) -> dict:
        rows = {}
        if app == "credit":
            for kind in ("delinquency", "debt"):
                rows[f"frobenius_{kind}"] = {
                    s: reports[s]["metrics"]["frobenius"][kind]["value"]
                    for s in ("cbp", "data_driven")
                }
        elif app == "yield":
            rows["wai_rmse_max"] = {
                s: reports[s]["metrics"]["wai_rmse_max_overall"] for s in ("cbp", "data_driven")
            }
        else:
            rows["tau_overall"] = {
                s: reports[s]["metrics"]["tau_overall"] for s in ("cbp", "data_driven")
            }
        rows["relative_error"] = {
            s: reports[s]["metrics"]["relative_error"] for s in ("cbp", "data_driven")
        }
        return rows

    rows = rows_for(base.application)
    table = {}
    for metric, values in rows.items():
        cbp_v, dd_v = values["cbp"], values["data_driven"]
        if cbp_v is None or dd_v is None:
            winner = "undefined"
        elif abs(cbp_v - dd_v) < 1e-15:
            winner = "tie"
        else:
            winner = "cbp" if cbp_v < dd_v else "data_driven"
        table[metric] = {"cbp": cbp_v, "data_driven": dd_v, "winner": winner}

    comparison = {
        "application": base.application,
        "mechanism": base.mechanism,
        "privacy": {"epsilon": base.epsilon, "delta": base.delta},
        "seed": base.seed,
        "rows": table,
        "suppressed_rows_dropped": {
            s: reports[s]["suppressed_rows_dropped"] for s in ("cbp", "data_driven")
        },
    }
    _json_dump(comparison, outdir / "comparison.json")
    return comparison

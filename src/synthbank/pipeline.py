"""Config-driven pipeline: generate, encode, synthesize, decode, evaluate.

One JSON config document drives the whole chain. Every stage writes its
artifacts into the output directory and appends to the run manifest, so a
failed run leaves the manifest up to the failing stage. Outputs are
deterministic for a fixed (config, seed): each stage derives its generator
from ``(seed, stage_tag)``, so running stages separately or through
``run_pipeline`` draws the same random numbers. A stage run on its own
reads what it needs back from the output directory, where numbers carry
12 significant digits. Stage timings live only in the manifest, which is
excluded from byte-for-byte determinism.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import numbers
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
from .decoding import KdeSpec, decode_dataset, decoded_schema
from .mechanisms import (
    MECHANISMS,
    MechanismError,
    PacConfig,
    parse_workload,
    run_mechanism,
    synthetic_codebook,
)
from .population import (
    CreditPortfolioConfig,
    DepositMarketConfig,
    FiPopulationConfig,
    generate_credit_cards,
    generate_fi_population,
    generate_term_deposits,
)
from .presets import AGE_BAND_LABELS, default_workload, rules_for
from .privacy import PrivacyParams
from .tabular import Dataset, load_schema, read_csv, save_schema, write_csv

__all__ = [
    "PipelineConfigError",
    "PipelineConfig",
    "Pipeline",
    "run_pipeline",
    "compare_strategies",
]

# population settings of each application, overridden by ``input.datagen``
POPULATION_CONFIGS = {
    "fi": FiPopulationConfig,
    "yield": DepositMarketConfig,
    "credit": CreditPortfolioConfig,
}
APPLICATIONS = tuple(POPULATION_CONFIGS)
DECODE_MODES = ("left_edge", "midpoint", "kde")
# privacy section used when a config has none; ``privacy: null`` means no noise
DEFAULT_PRIVACY = {"epsilon": 1.0, "delta": 1e-10}
# config keys of the decode section that build its ``KdeSpec``
KDE_KEYS = ("bandwidth", "grid_points")
CARD_YEARS = (2020, 2021)
INPUT_FILES = {
    "fi": ("data", "schema", "unbanked"),
    "yield": ("data", "schema"),
    "credit": tuple(f"{kind}_{year}" for year in CARD_YEARS for kind in ("cards", "schema")),
}

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
    pac: PacConfig = field(default_factory=PacConfig)
    decode_mode: str = "left_edge"
    kde: KdeSpec = field(default_factory=KdeSpec)
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
        if not isinstance(doc, dict):
            raise PipelineConfigError(
                [f"config: the top level must be a JSON object, got {type(doc).__name__}"]
            )
        errors = []

        def pick(section, key, default=None):
            return section.get(key, default) if isinstance(section, dict) else default

        def build(factory, label, section, keys=None):
            """``factory`` called with the given keys of ``section`` (by default the
            fields of ``factory``); errors are collected."""
            keys = keys or [f.name for f in dataclasses.fields(factory)]
            section = {} if section is None else section
            if not isinstance(section, dict):
                errors.append(f"{label}: must be an object, got {section!r}")
                return None
            try:
                return factory(**{key: section[key] for key in keys if key in section})
            except (TypeError, ValueError, OverflowError) as exc:
                errors.append(f"{label}: {exc}")
                return None

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
            if not isinstance(epsilon, numbers.Real) or not epsilon > 0:
                errors.append(f"privacy.epsilon: must be positive, got {epsilon!r}")
            if not isinstance(delta, numbers.Real) or not 0 < delta < 1:
                errors.append(f"privacy.delta: must lie in (0, 1), got {delta!r}")
        decode = doc.get("decode", {})
        decode_mode = pick(decode, "mode", "left_edge")
        if decode_mode not in DECODE_MODES:
            errors.append(
                f"decode.mode: unknown value {decode_mode!r} (allowed: {', '.join(DECODE_MODES)})"
            )
        kde = build(KdeSpec, "decode", decode, KDE_KEYS)
        output = doc.get("output")
        if not output:
            errors.append("output: an output directory is required")
        seed = doc.get("seed", 1)
        if not isinstance(seed, int) or seed < 0:
            errors.append(f"seed: must be a non-negative integer, got {seed!r}")

        input_section = doc.get("input", {"datagen": {}})
        datagen = pick(input_section, "datagen")
        files = pick(input_section, "files")
        if datagen is None and files is None:
            errors.append("input: needs a 'datagen' or 'files' section")
        for key, section in (("datagen", datagen), ("files", files)):
            if section is not None and not isinstance(section, dict):
                errors.append(f"input.{key}: must be an object, got {section!r}")
        if isinstance(datagen, dict) and application in APPLICATIONS:
            known = {f.name for f in dataclasses.fields(POPULATION_CONFIGS[application])}
            unknown = sorted(set(datagen) - known)
            if unknown:
                errors.append(f"input.datagen: unknown keys {unknown} for {application}")
        if isinstance(files, dict) and application in APPLICATIONS:
            missing = [key for key in INPUT_FILES[application] if key not in files]
            if missing:
                errors.append(f"input.files: missing keys {missing}")

        selection_fraction = pick(mech_section, "selection_fraction", 1.0 / 3.0)
        if not isinstance(selection_fraction, numbers.Real) or not 0 <= selection_fraction < 1:
            errors.append(
                f"mechanism.selection_fraction: must lie in [0, 1), got {selection_fraction!r}"
            )
        rounds = pick(mech_section, "rounds", 10)
        if not isinstance(rounds, int) or rounds < 1:
            errors.append(f"mechanism.rounds: must be a positive integer, got {rounds!r}")
        workload = pick(mech_section, "workload")
        if workload is not None:
            try:
                workload = parse_workload(workload)
            except MechanismError as exc:
                errors.append(f"mechanism.workload: {exc}")
        pac = build(PacConfig, "mechanism.pac", pick(mech_section, "pac"))
        rule_overrides = doc.get("rule_overrides") or {}
        if not isinstance(rule_overrides, dict):
            errors.append(f"rule_overrides: must be an object, got {rule_overrides!r}")
            rule_overrides = {}
        parsed_overrides = {
            name: build(BinningRule, f"rule_overrides.{name}", spec)
            for name, spec in rule_overrides.items()
        }

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
            pac=pac,
            decode_mode=decode_mode,
            kde=kde,
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
        """The config as JSON: ``kde`` holds only its config keys."""
        doc = dataclasses.asdict(self)
        doc["kde"] = {key: doc["kde"][key] for key in KDE_KEYS}
        return doc


def _population_config(application: str, overrides: dict):
    """The application's population settings with ``input.datagen`` applied."""
    fixed = {}
    for key, value in overrides.items():
        if isinstance(value, list):
            value = tuple(tuple(v) if isinstance(v, list) else v for v in value)
        fixed[key] = value
    return dataclasses.replace(POPULATION_CONFIGS[application](), **fixed)


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
    coverage: dict | None = None


class Pipeline:
    """Stage runner; every stage persists artifacts and manifest progress.

    ``gen_data`` starts a new manifest. Every later stage extends the one in
    memory or, in a fresh runner, the ``manifest.json`` of the output
    directory, so a run done stage by stage records what a one-shot run does.
    """

    def __init__(self, config: PipelineConfig):
        self.config = config
        self.outdir = Path(config.output)
        self.outdir.mkdir(parents=True, exist_ok=True)
        self._manifest: dict | None = None
        self.source: SourceBundle | None = None
        self.encoded: EncodedDataset | None = None
        self.synthetic: EncodedDataset | None = None
        self.decoded: Dataset | None = None
        self.report: dict | None = None

    # ------------------------------------------------------------- helpers

    @property
    def manifest(self) -> dict:
        if self._manifest is None:
            path = self.outdir / "manifest.json"
            self._manifest = json.loads(path.read_text(encoding="utf-8"))
        return self._manifest

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

    def _write_json(self, doc, name: str) -> None:
        _json_dump(doc, self.outdir / name)
        self._register(name)

    def _write_lines(self, lines: list[str], name: str) -> None:
        """One plot or transition CSV: the lines joined by LF, LF-terminated."""
        (self.outdir / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
        self._register(name)

    # -------------------------------------------------------------- stages

    def gen_data(self) -> SourceBundle:
        """Generate (or load) the original microdata and write it out."""
        started = time.perf_counter()
        config = self.config
        self._manifest = {
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
        rng = self._rng("datagen")
        app = config.application
        files = config.files
        population = _population_config(app, config.datagen)
        cards = None
        if app == "credit":
            if files:
                cards = [
                    read_csv(files[f"cards_{year}"], load_schema(files[f"schema_{year}"]))
                    for year in CARD_YEARS
                ]
            else:
                cards = generate_credit_cards(population, rng)
            joined, coverage = active_both_filter(*cards)
            self.source = SourceBundle(dataset=joined, coverage=dataclasses.asdict(coverage))
        elif files:
            self.source = SourceBundle(
                dataset=read_csv(files["data"], load_schema(files["schema"])),
                unbanked=load_unbanked_csv(files["unbanked"]) if app == "fi" else None,
            )
        elif app == "fi":
            dataset, unbanked = generate_fi_population(population, rng)
            self.source = SourceBundle(dataset=dataset, unbanked=unbanked)
        else:
            self.source = SourceBundle(dataset=generate_term_deposits(population, rng))

        self._write_dataset(self.source.dataset, "original.csv", "schema.json")
        if self.source.unbanked is not None:
            save_unbanked_csv(self.source.unbanked, self.outdir / "unbanked.csv")
            self._register("unbanked.csv")
        if cards is not None:
            for year, dataset in zip(CARD_YEARS, cards):
                self._write_dataset(dataset, f"cards_{year}.csv", f"schema_{year}.json")
        if self.source.coverage is not None:
            self._write_json(self.source.coverage, "coverage.json")
        self._stage("gen-data", started)
        return self.source

    def _require_source(self) -> SourceBundle:
        if self.source is None:
            out = self.outdir
            schema = load_schema(out / "schema.json")
            self.source = SourceBundle(read_csv(out / "original.csv", schema))
            if self.config.application == "fi":
                self.source.unbanked = load_unbanked_csv(out / "unbanked.csv")
            if self.config.application == "credit":
                coverage = (out / "coverage.json").read_text(encoding="utf-8")
                self.source.coverage = json.loads(coverage)
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

    def _workload(self, names: tuple[str, ...]) -> list:
        """The AIM workload: the config's, its columns checked against
        ``names``, or else the application preset."""
        for attrs, _ in self.config.workload or ():
            for name in attrs:
                if name not in names:
                    raise PipelineConfigError([
                        f"mechanism.workload: unknown column {name!r} "
                        f"(columns: {', '.join(names)})"
                    ])
        return self.config.workload or parse_workload(default_workload(self.config.application))

    def synthesize(self) -> EncodedDataset:
        started = time.perf_counter()
        config = self.config
        encoded = self._require_encoded()
        n_out = config.n_synthetic if config.n_synthetic is not None else encoded.n_records
        self.synthetic, sigma, details = run_mechanism(
            encoded, config.mechanism, config.privacy, n_out, self._rng("synth"),
            selection_fraction=config.selection_fraction, rounds=config.rounds,
            workload=self._workload(encoded.codebook.names), pac=config.pac,
        )
        self.manifest["privacy"]["sigma_per_measurement"] = sigma
        self.manifest["mechanism"].update(details)
        write_encoded_csv(self.synthetic, self.outdir / "synthetic_encoded.csv")
        self._register("synthetic_encoded.csv")
        self._stage("synth", started)
        return self.synthetic

    def _require_synthetic(self) -> EncodedDataset:
        if self.synthetic is None:
            codebook = synthetic_codebook(
                self.config.mechanism, Codebook.from_json(self.outdir / "codebook.json")
            )
            self.synthetic = read_encoded_csv(self.outdir / "synthetic_encoded.csv", codebook)
        return self.synthetic

    def decode(self) -> Dataset:
        started = time.perf_counter()
        config = self.config
        clean, _ = drop_suppressed_rows(self._require_synthetic())
        # only KDE decode fits the original values
        source = self._require_source().dataset if config.decode_mode == "kde" else None
        self.decoded = decode_dataset(
            clean, mode=config.decode_mode, source=source, kde_spec=config.kde,
            rng=self._rng("decode"),
        )
        self._write_dataset(self.decoded, "synthetic_decoded.csv")
        self._stage("decode", started)
        return self.decoded

    def _require_decoded(self) -> Dataset:
        if self.decoded is None:
            schema = decoded_schema(self._require_encoded().codebook)
            self.decoded = read_csv(self.outdir / "synthetic_decoded.csv", schema)
        return self.decoded

    def evaluate(self) -> dict:
        started = time.perf_counter()
        config = self.config
        source = self._require_source()
        encoded = self._require_encoded()
        synthetic = self._require_synthetic()
        decoded = self._require_decoded()
        clean_synth, dropped = drop_suppressed_rows(synthetic)

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
            "suppressed_rows_dropped": dropped,
            "metrics": metrics,
        }
        self._write_json(self.report, "report.json")
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
        self._write_lines(rows, "plot_usage_components.csv")

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
                self._write_lines(lines, "plot_usage_levels.csv")
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
        self._write_lines(lines, "plot_yield_points.csv")

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
                self._write_lines(lines, f"transition_{kind}_{tag}.csv")

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
        self._write_lines(lines, "plot_delinquency_rates.csv")

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
        return self.evaluate()


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

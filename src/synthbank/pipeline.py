"""Config-driven pipeline: generate, encode, synthesize, decode, evaluate.

One JSON config document drives the whole chain. Every stage writes its
artifacts into the output directory and appends to the run manifest, so a
failed run leaves the manifest up to the failing stage. Outputs are
deterministic for a fixed (config, seed): each stage derives its generator
from ``(seed, stage_tag)``, so running stages separately or through
``run_pipeline`` draws the same random numbers. A stage run on its own
reads what it needs back from the output directory, where numbers carry
12 significant digits; ``eval`` decodes the synthetic codes again, exactly
as the decode stage did, rather than parse ``synthetic_decoded.csv``.
Stage timings live only in the manifest, which is excluded from
byte-for-byte determinism.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from . import __version__
from .apps import APPS
from .binning import (
    BinningRule,
    Codebook,
    EncodedDataset,
    encode_dataset,
    read_encoded_csv,
    write_encoded_csv,
)
from .checks import is_int, is_real
from .decoding import DECODE_MODES, KdeSpec, decode_dataset
from .mechanisms import (
    MECHANISMS,
    ROUNDS,
    SELECTION_FRACTION,
    MechanismError,
    PacConfig,
    parse_workload,
    run_mechanism,
)
from .presets import STRATEGIES
from .privacy import PrivacyParams
from .tabular import Dataset, TabularError, load_schema, read_csv, save_schema, write_csv

__all__ = [
    "PipelineConfigError",
    "PipelineConfig",
    "Pipeline",
    "run_pipeline",
    "compare_strategies",
]

# config keys of the decode section that build its ``KdeSpec``
KDE_KEYS = ("bandwidth", "grid_points")
# keys of the config sections whose keys are fixed; ``mechanism.pac`` and
# ``rule_overrides.<column>`` take the fields of their dataclass, and
# ``input.datagen`` and ``input.files`` depend on the application
SECTION_KEYS = {
    "config": (
        "application", "strategy", "mechanism", "privacy", "decode", "input",
        "rule_overrides", "n_synthetic", "seed", "output",
    ),
    "mechanism": ("name", "selection_fraction", "rounds", "workload", "pac"),
    "privacy": ("epsilon", "delta"),
    "decode": ("mode", *KDE_KEYS),
    "input": ("datagen", "files"),
}

# stage tags mixed into the seed sequence; stable across releases
_STAGE_SEEDS = {"datagen": 0, "synth": 1, "decode": 2}


class PipelineConfigError(ValueError):
    """All config validation problems, collected into one message."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid pipeline configuration:\n" + "\n".join(self.errors))


def _unknown_keys(label, mapping, keys, suffix="") -> list:
    """The message for the keys of ``mapping`` that ``keys`` lacks, if any."""
    unknown = sorted(set(mapping) - set(keys), key=str)
    return [f"{label}: unknown keys {unknown}{suffix}"] if unknown else []


def _application(name):
    """The ``apps`` module of the application config name ``name``, or None."""
    return APPS.get(name) if isinstance(name, str) else None


def _tuples(value):
    """``value`` with every JSON list in it turned into a tuple."""
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


def _is_workload(value) -> bool:
    """Whether ``value`` is a workload as ``parse_workload`` returns it: a
    list of (column names, weight) tuples."""
    try:
        items = [{"attrs": list(attrs), "weight": weight} for attrs, weight in value]
        return isinstance(value, (list, tuple)) and parse_workload(items) == list(value)
    except (TypeError, ValueError):
        return False


# ``from_dict``'s stand-in for a rule it did not build: its message is
# recorded already, so the rule checks leave it out
_UNBUILT = object()


@dataclass
class PipelineConfig:
    """Validated pipeline settings (see ``PipelineConfig.from_json``).

    Every setting is checked when the config is built, in Python, by
    :meth:`from_dict` or by :func:`dataclasses.replace`: the application,
    strategy, mechanism and decode mode names, the top-level numbers and the
    output path, the ``rule_overrides`` columns and pairs, and the
    ``files`` keys and paths. Each message names the setting's config key,
    and all of them come in one :class:`PipelineConfigError`, so Python and
    JSON reject the same values with the same messages.

    ``epsilon=None`` turns the noise off, and sets ``delta`` to None too, as
    ``privacy: null`` does. ``datagen=None`` becomes the application's
    default population settings, and an empty ``files`` reads no files.
    """

    application: str
    mechanism: str
    output: str
    strategy: str = STRATEGIES[0]
    seed: int = 1
    epsilon: float | None = 1.0
    delta: float | None = 1e-10
    selection_fraction: float = SELECTION_FRACTION
    rounds: int = ROUNDS
    workload: list | None = None
    pac: PacConfig = field(default_factory=PacConfig)
    decode_mode: str = "left_edge"
    kde: KdeSpec = field(default_factory=KdeSpec)
    n_synthetic: int | None = None
    datagen: object = None  # the application's ``POPULATION`` settings
    files: dict = field(default_factory=dict)
    rule_overrides: dict = field(default_factory=dict)  # column -> ``BinningRule``

    def __post_init__(self) -> None:
        if self.epsilon is None:
            self.delta = None
        errors = [
            f"{key}: unknown value {value!r} (allowed: {', '.join(names)})"
            for key, value, names in (
                ("application", self.application, tuple(APPS)),
                ("strategy", self.strategy, STRATEGIES),
                ("mechanism.name", self.mechanism, MECHANISMS),
                ("decode.mode", self.decode_mode, DECODE_MODES),
            )
            if value not in names
        ]
        noise = self.epsilon is not None
        epsilon, delta, fraction = self.epsilon, self.delta, self.selection_fraction
        errors += [
            f"{key}: {rule}, got {value!r}"
            for key, value, valid, rule in (
                ("privacy.epsilon", epsilon, not noise or is_real(epsilon) and epsilon > 0,
                 "must be positive"),
                ("privacy.delta", delta, not noise or is_real(delta) and 0 < delta < 1,
                 "must lie in (0, 1)"),
                ("output", self.output, isinstance(self.output, str) and self.output != "",
                 "an output directory path is required"),
                ("seed", self.seed, is_int(self.seed) and self.seed >= 0,
                 "must be a non-negative integer"),
                ("mechanism.selection_fraction", fraction, is_real(fraction) and 0 <= fraction < 1,
                 "must lie in [0, 1)"),
                ("mechanism.rounds", self.rounds, is_int(self.rounds) and self.rounds >= 1,
                 "must be a positive integer"),
                ("n_synthetic", self.n_synthetic,
                 self.n_synthetic is None or is_int(self.n_synthetic) and self.n_synthetic >= 0,
                 "must be a non-negative integer"),
            )
            if not valid
        ]
        errors += [
            f"{key}: must be a {kind.__name__}, got {value!r}"
            for key, value, kind in (("mechanism.pac", self.pac, PacConfig),
                                     ("decode", self.kde, KdeSpec))
            if not isinstance(value, kind)
        ]
        if self.workload is not None and not _is_workload(self.workload):
            errors.append(
                "mechanism.workload: must be a list of (column names, weight) pairs, "
                f"got {self.workload!r}"
            )
        overrides = self.rule_overrides
        if not isinstance(overrides, dict):
            errors.append(f"rule_overrides: must be a dict, got {overrides!r}")
            overrides = {}
        errors += [
            f"rule_overrides.{name}: must be a BinningRule, got {rule!r}"
            for name, rule in overrides.items()
            if not isinstance(rule, BinningRule) and rule is not _UNBUILT
        ]
        app = _application(self.application)
        if app is not None:
            if self.datagen is not None and not isinstance(self.datagen, app.POPULATION):
                errors.append(
                    f"input.datagen: must be a {app.POPULATION.__name__} for "
                    f"{self.application}, got {self.datagen!r}"
                )
            if self.strategy in STRATEGIES:
                binned = list(app.rules(self.strategy))
                unbinned = [name for name in overrides if name not in binned]
                if unbinned:
                    errors.append(
                        f"rule_overrides: {unbinned} are not binned columns of "
                        f"{self.application} (binned: {', '.join(binned)})"
                    )
            # the presets give both columns of a pair one rule under every
            # strategy, so equal overrides keep it one in each arm of a compare;
            # a value that is no rule has its own message
            if all(isinstance(rule, BinningRule) for rule in overrides.values()):
                errors += [
                    f"rule_overrides: {first} and {second} must share one binning rule; "
                    "override both alike"
                    for first, second in app.PAIRED
                    if overrides.get(first) != overrides.get(second)
                ]
            if self.files:
                errors += _unknown_keys("input.files", self.files, app.INPUT_FILES)
                missing = [key for key in app.INPUT_FILES if key not in self.files]
                if missing:
                    errors.append(f"input.files: missing keys {missing}")
                paths = {key: self.files[key] for key in app.INPUT_FILES if key in self.files}
                errors += [
                    f"input.files.{key}: must be a file path, got {path!r}"
                    for key, path in paths.items()
                    if not isinstance(path, str) or not path
                ]
        if errors:
            raise PipelineConfigError(errors)
        self.selection_fraction = float(fraction)
        if self.datagen is None:
            self.datagen = app.POPULATION()

    @property
    def privacy(self) -> PrivacyParams | None:
        if self.epsilon is None:
            return None
        return PrivacyParams(self.epsilon, self.delta)

    @classmethod
    def from_dict(cls, doc: dict) -> "PipelineConfig":
        """The config that the JSON document ``doc`` describes.

        Only the JSON is handled here. A section that is not an object, or
        that holds a key it does not define, is an error; a null section
        reads as an empty one, except that ``privacy: null`` turns the noise
        off. JSON lists become tuples, and the settings objects are built,
        each one's message under its section. Only the settings the document
        gives are passed on, so the class supplies every default and makes
        every other check. A settings object whose section has an unknown key
        is not built, and one that fails to build is left at its default, so
        each mistake has one message, the other settings are still checked,
        and every message, the document's and the class's, comes in one
        :class:`PipelineConfigError`.
        """
        if not isinstance(doc, dict):
            raise PipelineConfigError(
                [f"config: the top level must be a JSON object, got {type(doc).__name__}"]
            )
        errors = _unknown_keys("config", doc, SECTION_KEYS["config"])

        def section(label, value, keys=None, suffix=""):
            """The object ``value``, its keys checked against ``keys`` unless
            that is None; {} for None; None, reported, for anything else."""
            if value is None:
                return {}
            if not isinstance(value, dict):
                errors.append(f"{label}: must be an object, got {value!r}")
                return None
            if keys is not None:
                errors.extend(_unknown_keys(label, value, keys, suffix))
            return value

        def build(factory, label, value, suffix=""):
            """``factory`` built from the section ``value``, which holds some
            of its fields; None, with its message recorded, if that fails.
            A section with unknown keys is not built: its one message says so."""
            names = [f.name for f in dataclasses.fields(factory)]
            reported = len(errors)
            fields = section(label, value, names, suffix)
            try:
                return None if fields is None or len(errors) > reported else factory(**fields)
            except (TypeError, ValueError, OverflowError) as exc:
                errors.append(f"{label}: {exc}")
                return None

        args = {key: doc.get(key) for key in ("application", "output")}
        args.update((key, doc[key]) for key in ("strategy", "seed", "n_synthetic") if key in doc)
        mechanism = section("mechanism", doc.get("mechanism"), SECTION_KEYS["mechanism"]) or {}
        args["mechanism"] = mechanism.get("name")
        args.update(
            (key, mechanism[key]) for key in ("selection_fraction", "rounds") if key in mechanism
        )
        if mechanism.get("workload") is not None:
            try:
                args["workload"] = parse_workload(mechanism["workload"])
            except MechanismError as exc:
                errors.append(f"mechanism.workload: {exc}")
        if "privacy" in doc and doc["privacy"] is None:
            args["epsilon"] = None
        elif "privacy" in doc:
            privacy = section("privacy", doc["privacy"], SECTION_KEYS["privacy"]) or {}
            args["delta"] = privacy.get("delta")
            if privacy.get("epsilon") is None:  # only ``privacy: null`` turns the noise off
                errors.append("privacy.epsilon: must be positive, got None")
            else:
                args["epsilon"] = privacy["epsilon"]
        decode = section("decode", doc.get("decode"), SECTION_KEYS["decode"]) or {}
        if "mode" in decode:
            args["decode_mode"] = decode["mode"]
        # the settings objects; one that fails to build keeps its default
        kde = {key: decode[key] for key in KDE_KEYS if key in decode}
        parts = {
            "pac": build(PacConfig, "mechanism.pac", mechanism.get("pac")),
            "kde": build(KdeSpec, "decode", kde),
        }

        inputs = section("input", doc.get("input", {"datagen": {}}), SECTION_KEYS["input"]) or {}
        datagen = inputs.get("datagen")
        files = section("input.files", inputs.get("files"))
        if datagen is None and not files:
            errors.append("input: needs a 'datagen' or 'files' section")
        if files:
            args["files"] = dict(files)
        if isinstance(datagen, dict):
            datagen = {key: _tuples(value) for key, value in datagen.items()}
        app = _application(args["application"])
        if app is None:
            section("input.datagen", datagen)  # its keys depend on the application
        elif datagen is not None:
            parts["datagen"] = build(
                app.POPULATION, "input.datagen", datagen, f" for {args['application']}"
            )
        rule_overrides = section("rule_overrides", doc.get("rule_overrides"))
        if rule_overrides:
            args["rule_overrides"] = {
                name: build(BinningRule, f"rule_overrides.{name}", spec) or _UNBUILT
                for name, spec in rule_overrides.items()
            }
        args.update((key, part) for key, part in parts.items() if part is not None)
        try:
            config = cls(**args)
        except PipelineConfigError as exc:
            raise PipelineConfigError(errors + exc.errors) from None
        if errors:
            raise PipelineConfigError(errors)
        return config

    @classmethod
    def from_json(cls, path) -> "PipelineConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_snapshot(self) -> dict:
        """The config as JSON: ``kde`` holds only its config keys."""
        doc = dataclasses.asdict(self)
        doc["kde"] = {key: doc["kde"][key] for key in KDE_KEYS}
        return doc


def _json_dump(doc, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


class Pipeline:
    """Stage runner; every stage persists artifacts and manifest progress.

    ``gen_data`` starts a new manifest. Every later stage extends the one in
    memory or, in a fresh runner, the ``manifest.json`` of the output
    directory, so a run done stage by stage records what a one-shot run does.
    """

    def __init__(self, config: PipelineConfig):
        self.config = config
        self.app = APPS[config.application]
        self.outdir = Path(config.output)
        self.outdir.mkdir(parents=True, exist_ok=True)
        self._manifest: dict | None = None
        self.source: Dataset | None = None
        self.extra = None  # the application's extra input (see ``apps``)
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

    def _write_table(self, rows: list[list], name: str) -> None:
        """One plot or transition table as CSV, rows LF-terminated, cells
        quoted where they hold a comma or a quote."""
        with open(self.outdir / name, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        self._register(name)

    # -------------------------------------------------------------- stages

    def gen_data(self) -> Dataset:
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
        self.source, self.extra, written = self.app.prepare(
            config.datagen, config.files, self._rng("datagen")
        )
        self._write_dataset(self.source, "original.csv", "schema.json")
        for args in written:
            self._write_dataset(*args)
        if self.app.EXTRA is not None:
            self.app.save_extra(self.extra, self.outdir / self.app.EXTRA)
            self._register(self.app.EXTRA)
        self._stage("gen-data", started)
        return self.source

    def _require_source(self) -> Dataset:
        """The original microdata, read back together with the extra input."""
        if self.source is None:
            out = self.outdir
            self.source = read_csv(out / "original.csv", load_schema(out / "schema.json"))
            if self.app.EXTRA is not None:
                self.extra = self.app.load_extra(out / self.app.EXTRA)
        return self.source

    def encode(self) -> EncodedDataset:
        started = time.perf_counter()
        source = self._require_source()
        rules = dict(self.app.rules(self.config.strategy))
        rules.update(self.config.rule_overrides)
        self.encoded = encode_dataset(source, rules)
        write_encoded_csv(self.encoded, self.outdir / "encoded.csv")
        self._register("encoded.csv")
        self.encoded.codebook.to_json(self.outdir / "codebook.json")
        self._register("codebook.json")
        self._stage("encode", started)
        return self.encoded

    @cached_property
    def _codebook(self) -> Codebook:
        """``codebook.json``, parsed once for every code CSV a later stage reads."""
        return Codebook.from_json(self.outdir / "codebook.json")

    def _require_encoded(self) -> EncodedDataset:
        if self.encoded is None:
            self.encoded = read_encoded_csv(self.outdir / "encoded.csv", self._codebook)
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
        return self.config.workload or parse_workload(self.app.WORKLOAD)

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
            self.synthetic = read_encoded_csv(self.outdir / "synthetic_encoded.csv", self._codebook)
        return self.synthetic

    def _decode(self) -> Dataset:
        """The synthetic codes decoded as the decode stage does: the same
        inputs and generator give the same values."""
        config = self.config
        # only KDE decode fits the original values
        source = self._require_source() if config.decode_mode == "kde" else None
        return decode_dataset(
            self._require_synthetic(), mode=config.decode_mode, source=source,
            kde_spec=config.kde, rng=self._rng("decode"),
        )

    def decode(self) -> Dataset:
        started = time.perf_counter()
        self.decoded = self._decode()
        self._write_dataset(self.decoded, "synthetic_decoded.csv")
        self._stage("decode", started)
        return self.decoded

    def _require_decoded(self) -> Dataset:
        """The decoded synthetic data, decoded again rather than parsed back
        from ``synthetic_decoded.csv``, which must exist: the decode stage
        has to have run."""
        if self.decoded is None:
            path = self.outdir / "synthetic_decoded.csv"
            if not path.exists():
                raise TabularError(f"no such file: {path}")
            self.decoded = self._decode()
        return self.decoded

    def evaluate(self) -> dict:
        started = time.perf_counter()
        config = self.config
        source = self._require_source()
        encoded = self._require_encoded()
        synthetic = self._require_synthetic()
        decoded = self._require_decoded()

        metrics, tables = self.app.evaluate(
            source, self.extra, encoded, synthetic, decoded, config.strategy
        )
        for name, rows in tables.items():
            self._write_table(rows, name)

        self.report = {
            "application": config.application,
            "strategy": config.strategy,
            "mechanism": config.mechanism,
            "privacy": {"epsilon": config.epsilon, "delta": config.delta},
            "seed": config.seed,
            "n_original": source.n_records,
            "n_synthetic": synthetic.n_records,
            "metrics": metrics,
        }
        self._write_json(self.report, "report.json")
        self.manifest["metrics_summary"] = {
            "relative_error": metrics.get("relative_error"),
        }
        self._stage("eval", started)
        return self.report

    # ----------------------------------------------------------- pipelines

    def run(self) -> dict:
        self.gen_data()
        self.encode()
        self.synthesize()
        self.decode()
        return self.evaluate()


def _as_config(config_or_path) -> PipelineConfig:
    if isinstance(config_or_path, PipelineConfig):
        return config_or_path
    return PipelineConfig.from_json(config_or_path)


def run_pipeline(config_or_path) -> dict:
    """Run the full chain; returns the metric report."""
    return Pipeline(_as_config(config_or_path)).run()


def compare_strategies(config_or_path) -> dict:
    """Run both pre-processing strategies with a shared seed; emit a paired report.

    The comparison table carries one row per headline metric with the two
    strategies side by side and a winner flag per row (lower error wins).
    Both runs read the same original rows, so by basic composition they
    spend (2ε, 2δ) together: ``privacy.total``, None without noise.
    """
    base = _as_config(config_or_path)
    outdir = Path(base.output)
    outdir.mkdir(parents=True, exist_ok=True)
    app = APPS[base.application]
    reports = {}
    values = {}
    for strategy in STRATEGIES:
        sub = dataclasses.replace(base, strategy=strategy, output=str(outdir / strategy))
        reports[strategy] = Pipeline(sub).run()
        metrics = reports[strategy]["metrics"]
        values[strategy] = {**app.headline(metrics), "relative_error": metrics["relative_error"]}

    first, second = STRATEGIES
    table = {}
    for metric in values[first]:
        a, b = values[first][metric], values[second][metric]
        if a is None or b is None:
            winner = "undefined"
        elif abs(a - b) < 1e-15:
            winner = "tie"
        else:
            winner = first if a < b else second
        table[metric] = {first: a, second: b, "winner": winner}

    total = None
    if base.epsilon is not None:
        total = {"epsilon": 2 * base.epsilon, "delta": 2 * base.delta}
    comparison = {
        "application": base.application,
        "mechanism": base.mechanism,
        "privacy": {"epsilon": base.epsilon, "delta": base.delta, "total": total},
        "seed": base.seed,
        "rows": table,
    }
    _json_dump(comparison, outdir / "comparison.json")
    return comparison

"""End-to-end pipeline and CLI behaviour."""

import csv
import dataclasses
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import synthbank
import synthbank.pipeline as pipeline_module
from synthbank.apps import APPS
from synthbank.binning import BinningError, BinningRule, Codebook, check_rules, encode_dataset
from synthbank.cli import main as cli_main
from synthbank.decoding import DecodeError, KdeSpec
from synthbank.mechanisms import MechanismError, PacConfig, parse_workload
from synthbank.pipeline import (
    Pipeline,
    PipelineConfig,
    PipelineConfigError,
    compare_strategies,
    run_pipeline,
)
from synthbank.population import (
    CreditPortfolioConfig,
    DepositMarketConfig,
    FiPopulationConfig,
    generate_credit_cards,
)
from synthbank.presets import AGE_BAND_LABELS, CBP_DEBT_CUTOFFS, STRATEGIES
from synthbank.privacy import PrivacyError, PrivacyParams
from synthbank.tabular import (
    CATEGORICAL,
    ColumnSpec,
    Dataset,
    load_schema,
    read_csv,
    save_schema,
    write_csv,
)


def credit_config(tmp_path, subdir="run", **overrides):
    doc = {
        "application": "credit",
        "strategy": "cbp",
        "mechanism": {"name": "mst"},
        "privacy": {"epsilon": 1.0, "delta": 1e-10},
        "decode": {"mode": "left_edge"},
        "input": {"datagen": {"n_cards": 4000}},
        "seed": 11,
        "output": str(tmp_path / subdir),
    }
    doc.update(overrides)
    return doc


# a small population for each application
DATAGEN = {
    "credit": {"n_cards": 4000},
    "fi": {"n_individuals": 8000},
    "yield": {"n_deposits": 3000},
}


def app_config(tmp_path, application, subdir="run", **overrides):
    """``credit_config`` with another application and its small population."""
    doc = {"application": application, "input": {"datagen": dict(DATAGEN[application])}}
    return credit_config(tmp_path, subdir, **{**doc, **overrides})


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_credit_pipeline_smoke(tmp_path):
    path = write_config(tmp_path, credit_config(tmp_path))
    report = run_pipeline(path)
    frob = report["metrics"]["frobenius"]
    assert set(frob) == {"delinquency", "debt"}
    for kind in frob:
        assert frob[kind]["value"] >= 0.0
    assert report["metrics"]["coverage"]["count_fraction"] > 0.5
    outdir = tmp_path / "run"
    for name in (
        "original.csv",
        "encoded.csv",
        "codebook.json",
        "synthetic_encoded.csv",
        "synthetic_decoded.csv",
        "report.json",
        "manifest.json",
        "transition_delinquency_original.csv",
        "plot_delinquency_rates.csv",
    ):
        assert (outdir / name).exists(), name


def test_unknown_mechanism_named_with_allowed_values(tmp_path):
    doc = credit_config(tmp_path, mechanism={"name": "gan"})
    with pytest.raises(PipelineConfigError) as err:
        PipelineConfig.from_dict(doc)
    message = str(err.value)
    assert "mechanism.name" in message
    assert "gan" in message
    assert "mst" in message and "aim" in message and "pac" in message


def test_config_errors_collected_all_at_once(tmp_path):
    doc = credit_config(tmp_path, mechanism={"name": "gan"}, strategy="bogus")
    doc["privacy"] = {"epsilon": -1, "delta": 2}
    with pytest.raises(PipelineConfigError) as err:
        PipelineConfig.from_dict(doc)
    assert len(err.value.errors) >= 4


def artifact_bytes(outdir: Path) -> dict:
    return {
        p.name: p.read_bytes()
        for p in sorted(outdir.iterdir())
        if p.name != "manifest.json"  # stage timings are not byte-stable
    }


def test_same_config_seed_byte_identical(tmp_path):
    a = write_config(tmp_path, credit_config(tmp_path, subdir="a"), "a.json")
    b = write_config(tmp_path, credit_config(tmp_path, subdir="b"), "b.json")
    run_pipeline(a)
    run_pipeline(b)
    bytes_a = artifact_bytes(tmp_path / "a")
    bytes_b = artifact_bytes(tmp_path / "b")
    assert set(bytes_a) == set(bytes_b)
    for name in bytes_a:
        assert bytes_a[name] == bytes_b[name], name


def test_manifest_lists_every_artifact_with_hash(tmp_path):
    import hashlib

    path = write_config(tmp_path, credit_config(tmp_path, subdir="m"), "m.json")
    run_pipeline(path)
    outdir = tmp_path / "m"
    manifest = json.loads((outdir / "manifest.json").read_text())
    files = {p.name for p in outdir.iterdir()} - {"manifest.json"}
    assert set(manifest["artifacts"]) == files
    for name, digest in manifest["artifacts"].items():
        assert hashlib.sha256((outdir / name).read_bytes()).hexdigest() == digest
    stage_names = [s["name"] for s in manifest["stages"]]
    assert stage_names == ["gen-data", "encode", "synth", "decode", "eval"]


@pytest.mark.parametrize(
    "application, strategy",
    [("credit", "cbp"), ("fi", "cbp"), ("fi", "data_driven")],
    ids=["credit-cbp", "fi-cbp", "fi-data_driven"],
)
def test_cli_staged_run_matches_pipeline_command(tmp_path, application, strategy):
    # a staged fi run reads unbanked.csv back for its evaluation
    doc_a = app_config(tmp_path, application, "staged", strategy=strategy)
    doc_b = app_config(tmp_path, application, "oneshot", strategy=strategy)
    path_a = write_config(tmp_path, doc_a, "staged.json")
    path_b = write_config(tmp_path, doc_b, "oneshot.json")
    for command in ("gen-data", "encode", "synth", "decode", "eval"):
        assert cli_main([command, "--config", str(path_a)]) == 0
    assert cli_main(["pipeline", "--config", str(path_b)]) == 0
    bytes_a = artifact_bytes(tmp_path / "staged")
    bytes_b = artifact_bytes(tmp_path / "oneshot")
    assert bytes_a == bytes_b


def test_staged_eval_parses_the_codebook_once(tmp_path, monkeypatch):
    # eval reads encoded.csv and synthetic_encoded.csv on one parsed codebook
    path = write_config(tmp_path, credit_config(tmp_path))
    for command in ("gen-data", "encode", "synth", "decode"):
        assert cli_main([command, "--config", str(path)]) == 0
    parsed = []
    from_json = Codebook.from_json
    monkeypatch.setattr(
        Codebook, "from_json", lambda path: parsed.append(Path(path).name) or from_json(path)
    )
    assert cli_main(["eval", "--config", str(path)]) == 0
    assert parsed == ["codebook.json"]


def test_cli_validation_exit_code(tmp_path, capsys):
    path = write_config(tmp_path, credit_config(tmp_path, mechanism={"name": "gan"}))
    assert cli_main(["pipeline", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "mechanism.name" in err and "mst" in err


def test_cli_mechanism_flag_needs_a_mechanism_object(tmp_path, capsys):
    path = write_config(tmp_path, credit_config(tmp_path, mechanism="mst"))
    assert cli_main(["pipeline", "--config", str(path), "--mechanism", "aim"]) == 2
    err = capsys.readouterr().err
    assert "config error: mechanism: must be an object, got 'mst'" in err
    assert "failed" not in err
    assert not (tmp_path / "run").exists()


def test_cli_eval_without_artifacts_fails_cleanly(tmp_path, capsys):
    path = write_config(tmp_path, credit_config(tmp_path, subdir="missing"))
    assert cli_main(["eval", "--config", str(path)]) == 1
    assert "failed" in capsys.readouterr().err


def test_cli_eval_before_decode_fails_cleanly(tmp_path, capsys):
    path = write_config(tmp_path, credit_config(tmp_path))
    for command in ("gen-data", "encode", "synth"):
        assert cli_main([command, "--config", str(path)]) == 0
    capsys.readouterr()
    assert cli_main(["eval", "--config", str(path)]) == 1
    missing = tmp_path / "run" / "synthetic_decoded.csv"
    assert f"stage 'eval' failed: no such file: {missing}" in capsys.readouterr().err
    assert not (tmp_path / "run" / "report.json").exists()


def test_cli_pac_with_no_surviving_value_fails_at_synth(tmp_path, capsys):
    # at epsilon = 0.01 no one-way value of 3,000 cards clears PAC's threshold
    doc = credit_config(
        tmp_path, mechanism={"name": "pac"}, privacy={"epsilon": 0.01, "delta": 1e-10}, seed=3
    )
    doc["input"]["datagen"]["n_cards"] = 3000
    path = write_config(tmp_path, doc)
    for command in ("gen-data", "encode"):
        assert cli_main([command, "--config", str(path)]) == 0
    capsys.readouterr()
    assert cli_main(["synth", "--config", str(path)]) == 1
    columns = "'Gender', 'Age2020', 'Debt2020', 'Debt2021', 'Delinquency2020', 'Delinquency2021'"
    assert capsys.readouterr().err == (
        f"stage 'synth' failed: no value of column(s) {columns} survived PAC's "
        "one-way threshold; no row can be drawn\n"
    )
    assert cli_main(["pipeline", "--config", str(path)]) == 1
    assert "no value of column(s) 'Gender'" in capsys.readouterr().err
    for name in ("synthetic_encoded.csv", "synthetic_decoded.csv", "report.json"):
        assert not (tmp_path / "run" / name).exists()


def test_cli_synth_names_the_row_and_column_of_a_code_outside_the_domain(tmp_path, capsys):
    path = write_config(tmp_path, credit_config(tmp_path))
    for command in ("gen-data", "encode"):
        assert cli_main([command, "--config", str(path)]) == 0
    capsys.readouterr()
    run = tmp_path / "run"
    codec = Codebook.from_json(run / "codebook.json")[-1]
    name, size = codec.name, codec.domain_size
    lines = (run / "encoded.csv").read_text(encoding="utf-8").split("\n")
    lines[3] = lines[3].rsplit(",", 1)[0] + f",{size}"
    (run / "encoded.csv").write_text("\n".join(lines), encoding="utf-8")
    assert cli_main(["synth", "--config", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"stage 'synth' failed: row 3, column '{name}': unknown level '{size}'\n"
    )
    assert not (run / "synthetic_encoded.csv").exists()


@pytest.mark.parametrize("mode", ["left_edge", "midpoint", "kde"])
def test_eval_decodes_what_the_decode_stage_wrote(tmp_path, monkeypatch, mode):
    # a staged eval decodes the synthetic codes again instead of parsing
    # synthetic_decoded.csv
    doc = app_config(
        tmp_path, "yield", strategy="data_driven", mechanism={"name": "pac"},
        decode={"mode": mode},
    )
    path = write_config(tmp_path, doc)
    for command in ("gen-data", "encode", "synth", "decode"):
        assert cli_main([command, "--config", str(path)]) == 0
    read = []

    def recording_read_csv(csv_path, schema):
        read.append(Path(csv_path).name)
        return read_csv(csv_path, schema)

    monkeypatch.setattr(pipeline_module, "read_csv", recording_read_csv)
    pipeline = Pipeline(PipelineConfig.from_dict(doc))
    pipeline.evaluate()
    assert read == ["original.csv"]
    write_csv(pipeline.decoded, tmp_path / "redecoded.csv")
    written = (tmp_path / "run" / "synthetic_decoded.csv").read_bytes()
    assert (tmp_path / "redecoded.csv").read_bytes() == written


@pytest.mark.parametrize(
    "argv",
    [
        ["bogus", "--config", "run.json"],
        ["eval"],
        ["eval", "--config", "run.json", "--seed", "x"],
        ["pipeline", "--config", "run.json", "--epsilon", "much"],
    ],
    ids=["unknown-command", "missing-config", "string-seed", "string-epsilon"],
)
def test_cli_bad_usage_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exited:
        cli_main(argv)
    assert exited.value.code == 2
    assert "usage: synthbank" in capsys.readouterr().err


def test_cli_overrides(tmp_path):
    path = write_config(tmp_path, credit_config(tmp_path, subdir="ov"))
    assert (
        cli_main(
            [
                "pipeline",
                "--config",
                str(path),
                "--seed",
                "99",
                "--epsilon",
                "2.5",
                "--out",
                str(tmp_path / "ov2"),
                "--strategy",
                "data_driven",
            ]
        )
        == 0
    )
    report = json.loads((tmp_path / "ov2" / "report.json").read_text())
    assert report["seed"] == 99
    assert report["privacy"]["epsilon"] == 2.5
    assert report["strategy"] == "data_driven"  # the config says "cbp"


def test_cli_compare_prints_one_winner_line_per_headline_metric(tmp_path, capsys):
    doc = credit_config(tmp_path, subdir="cmp")
    doc["input"]["datagen"]["n_cards"] = 2000
    assert cli_main(["compare", "--config", str(write_config(tmp_path, doc))]) == 0
    lines = capsys.readouterr().out.splitlines()
    metrics = ["frobenius_delinquency", "frobenius_debt", "relative_error"]
    assert [line.split(":")[0] for line in lines] == metrics
    rows = json.loads((tmp_path / "cmp" / "comparison.json").read_text())["rows"]
    assert sorted(rows) == sorted(metrics)  # the file's keys are sorted
    for line, metric in zip(lines, metrics):
        assert line.endswith(f" winner={rows[metric]['winner']}") and line.count("winner=") == 1
    for strategy in STRATEGIES:
        report = json.loads((tmp_path / "cmp" / strategy / "report.json").read_text())
        assert report["strategy"] == strategy


@pytest.mark.parametrize(
    "privacy, flags, message",
    [
        ({"epsilon": 1.0, "delta": 1e-10}, ["--epsilon", "-1"], "privacy.epsilon: must be positive"),
        ({"epsilon": 1.0, "delta": 1e-10}, ["--delta", "5"], "privacy.delta: must lie in (0, 1)"),
        ({"epsilon": 1.0, "delta": 1e-10}, ["--mechanism", "gan"], "mechanism.name: unknown value 'gan'"),
    ],
    ids=["negative-epsilon", "delta-above-one", "unknown-mechanism"],
)
def test_cli_bad_flags_are_config_errors(tmp_path, capsys, privacy, flags, message):
    path = write_config(tmp_path, credit_config(tmp_path, privacy=privacy))
    assert cli_main(["pipeline", "--config", str(path), *flags]) == 2
    err = capsys.readouterr().err
    assert f"config error: {message}" in err
    assert "failed" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "section, flags, mechanism, privacy",
    [
        ({"mechanism": None}, ["--mechanism", "aim"], "aim", {"epsilon": 1.0, "delta": 1e-10}),
        ({"privacy": None}, ["--epsilon", "0.5"], "mst", {"epsilon": 0.5, "delta": 1e-10}),
        ({"privacy": None}, ["--delta", "1e-6"], "mst", {"epsilon": 1.0, "delta": 1e-6}),
    ],
    ids=["mechanism-on-null-mechanism", "epsilon-on-null-privacy", "delta-on-null-privacy"],
)
def test_cli_flags_on_a_null_section(tmp_path, section, flags, mechanism, privacy):
    # a null section reads as an empty one, as in the loader, and a budget
    # flag on ``privacy: null`` starts from the default budget
    path = write_config(tmp_path, credit_config(tmp_path, **section))
    assert cli_main(["pipeline", "--config", str(path), *flags]) == 0
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert report["mechanism"] == mechanism
    assert report["privacy"] == privacy


@pytest.mark.parametrize(
    "doc, flags, message",
    [
        ({"mechanism": 3}, [], "mechanism: must be an object, got 3"),
        ({"privacy": 3}, [], "privacy: must be an object, got 3"),
        ({"input": 3}, [], "input: must be an object, got 3"),
        ({"input": {"files": 3}}, [], "input.files: must be an object, got 3"),
        ({"mechanism": 3}, ["--mechanism", "mst"], "mechanism: must be an object, got 3"),
        ({"privacy": 3}, ["--epsilon", "1"], "privacy: must be an object, got 3"),
    ],
    ids=["mechanism", "privacy", "input", "input-files", "mechanism-flag", "epsilon-flag"],
)
def test_a_section_that_is_not_an_object_has_one_error(tmp_path, capsys, doc, flags, message):
    # the checks of the settings in a section that is not an object are
    # skipped, so the section's shape error is the one message
    doc = credit_config(tmp_path, **doc)
    if not flags:
        with pytest.raises(PipelineConfigError) as err:
            PipelineConfig.from_dict(doc)
        assert err.value.errors == [message]
    path = write_config(tmp_path, doc)
    assert cli_main(["pipeline", "--config", str(path), *flags]) == 2
    assert capsys.readouterr().err.splitlines() == [f"config error: {message}"]
    assert not (tmp_path / "run").exists()


def test_fi_pipeline_smoke(tmp_path):
    doc = {
        "application": "fi",
        "strategy": "cbp",
        "mechanism": {"name": "mst"},
        "privacy": None,
        "decode": {"mode": "left_edge"},
        "input": {"datagen": {"n_individuals": 8000, "periods": ["2020"]}},
        "seed": 3,
        "output": str(tmp_path / "fi"),
    }
    report = run_pipeline(write_config(tmp_path, doc, "fi.json"))
    assert report["metrics"]["tau_overall"] < 0.2
    assert (tmp_path / "fi" / "unbanked.csv").exists()
    assert (tmp_path / "fi" / "plot_usage_components.csv").exists()


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("application", sorted(APPS))
def test_every_table_artifact_parses_as_csv_as_wide_as_its_header(tmp_path, application, strategy):
    # credit's state labels, such as [0,61), hold a comma
    run_pipeline(write_config(tmp_path, app_config(tmp_path, application, strategy=strategy)))
    outdir = tmp_path / "run"
    tables = sorted(outdir.glob("plot_*.csv")) + sorted(outdir.glob("transition_*.csv"))
    assert tables
    for path in tables:
        with path.open(newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        assert [len(row) for row in rows] == [len(header)] * len(rows), path.name


def test_fi_usage_levels_error_is_reported_without_a_plot(tmp_path):
    # two nFI codes cannot be split into three levels
    doc = app_config(
        tmp_path, "fi", "fi2", strategy="data_driven",
        rule_overrides={"nFI": {"method": "kmeans_1d", "k": 2}},
    )
    report = run_pipeline(write_config(tmp_path, doc, "fi2.json"))
    assert report["metrics"]["usage_levels"] == {
        "error": "column 'nFI': need at least 3 codes for levels, got 2"
    }
    assert not (tmp_path / "fi2" / "plot_usage_levels.csv").exists()
    assert (tmp_path / "fi2" / "plot_usage_components.csv").exists()


def test_fi_data_driven_reports_usage_levels(tmp_path):
    doc = {
        "application": "fi",
        "strategy": "data_driven",
        "mechanism": {"name": "mst"},
        "privacy": None,
        "decode": {"mode": "left_edge"},
        "input": {"datagen": {"n_individuals": 20000, "periods": ["2020"]}},
        "seed": 5,
        "output": str(tmp_path / "fidd"),
    }
    report = run_pipeline(write_config(tmp_path, doc, "fidd.json"))
    levels = report["metrics"]["usage_levels"]
    assert set(levels) == {"nFI", "nSavings", "nLoans"}
    assert (tmp_path / "fidd" / "plot_usage_levels.csv").exists()


def test_yield_pipeline_pac_keeps_every_row(tmp_path):
    doc = {
        "application": "yield",
        "strategy": "cbp",
        "mechanism": {"name": "pac"},
        "privacy": {"epsilon": 1.0, "delta": 1e-10},
        "decode": {"mode": "left_edge"},
        "input": {"datagen": {"n_deposits": 3000}},
        "seed": 7,
        "output": str(tmp_path / "ypac"),
    }
    report = run_pipeline(write_config(tmp_path, doc, "ypac.json"))
    assert "groups" in report["metrics"]
    # every drawn row is decoded and scored; no field counts dropped rows
    assert list(report) == [
        "application", "strategy", "mechanism", "privacy", "seed",
        "n_original", "n_synthetic", "metrics",
    ]
    assert report["n_synthetic"] == report["n_original"]
    decoded = (tmp_path / "ypac" / "synthetic_decoded.csv").read_text(encoding="utf-8")
    assert len(decoded.splitlines()) == 1 + report["n_synthetic"]
    assert (tmp_path / "ypac" / "plot_yield_points.csv").exists()


def test_yield_pipeline_kde_decode(tmp_path):
    doc = {
        "application": "yield",
        "strategy": "data_driven",
        "mechanism": {"name": "mst"},
        "privacy": None,
        "decode": {"mode": "kde", "grid_points": 128},
        "input": {"datagen": {"n_deposits": 2000}},
        "seed": 9,
        "output": str(tmp_path / "ykde"),
    }
    report = run_pipeline(write_config(tmp_path, doc, "ykde.json"))
    assert report["metrics"]["wai_rmse_max_overall"] is not None


@pytest.mark.parametrize(
    "application, headline",
    [
        ("credit", ["frobenius_delinquency", "frobenius_debt"]),
        ("fi", ["tau_overall"]),
        ("yield", ["wai_rmse_max"]),
    ],
    ids=["credit", "fi", "yield"],
)
def test_compare_emits_winner_flags(tmp_path, application, headline):
    doc = app_config(tmp_path, application, "cmp")
    comparison = compare_strategies(PipelineConfig.from_dict(doc))
    rows = comparison["rows"]
    assert list(rows) == [*headline, "relative_error"]
    for row in rows.values():
        assert set(row) == {"cbp", "data_driven", "winner"}
        assert row["winner"] in ("cbp", "data_driven", "tie", "undefined")
    assert (tmp_path / "cmp" / "comparison.json").exists()
    assert (tmp_path / "cmp" / "cbp" / "report.json").exists()


@pytest.mark.parametrize(
    "privacy, total",
    [({"epsilon": 0.5, "delta": 1e-9}, {"epsilon": 1.0, "delta": 2e-9}), (None, None)],
    ids=["budget", "no-noise"],
)
def test_compare_records_the_budget_both_runs_spend(tmp_path, privacy, total):
    # both strategies read the same original rows: together they spend (2ε, 2δ)
    doc = credit_config(tmp_path, subdir="cmp", privacy=privacy)
    doc["input"]["datagen"]["n_cards"] = 2000
    compare_strategies(PipelineConfig.from_dict(doc))
    recorded = json.loads((tmp_path / "cmp" / "comparison.json").read_text())["privacy"]
    assert recorded == {**(privacy or {"epsilon": None, "delta": None}), "total": total}


@pytest.mark.parametrize(
    "strategy, overrides, names",
    [
        ("cbp", {}, list(AGE_BAND_LABELS)),
        ("data_driven", {"Age2020": {"method": "kmeans_1d", "k": 7}},
         [f"bin{i}" for i in range(7)]),
    ],
    ids=["cbp", "kmeans-seven-bins"],
)
def test_credit_rates_name_reporting_bands_only_on_their_edges(tmp_path, strategy, overrides,
                                                               names):
    # seven k-means bins have edges other than the reporting cut-offs, so
    # their rate groups are named by bin, not by reporting band
    doc = credit_config(tmp_path, strategy=strategy, rule_overrides=overrides, seed=3)
    run_pipeline(write_config(tmp_path, doc))
    with open(tmp_path / "run" / "plot_delinquency_rates.csv", newline="") as fh:
        bands = [row["age_band"] for row in csv.DictReader(fh)]
    assert sorted(set(bands)) == sorted(names)


def test_credit_without_synthetic_rows_scores_undefined(tmp_path):
    # no transition row is defined in an empty synthetic matrix, so no error
    # can be computed: each is None, not a perfect 0
    doc = credit_config(tmp_path, subdir="empty", n_synthetic=0)
    comparison = compare_strategies(PipelineConfig.from_dict(doc))
    assert [row["winner"] for row in comparison["rows"].values()] == ["undefined"] * 3
    for strategy in STRATEGIES:
        report = json.loads((tmp_path / "empty" / strategy / "report.json").read_text())
        assert report["n_synthetic"] == 0
        metrics = report["metrics"]
        assert {kind: entry["value"] for kind, entry in metrics["frobenius"].items()} == {
            "delinquency": None, "debt": None,
        }
        assert metrics["relative_error"] is None
    assert "suppressed_rows_dropped" not in comparison


def test_fi_without_synthetic_rows_scores_undefined(tmp_path):
    # an empty synthetic dataset has no usage component, so there is no tau;
    # scoring the unbanked counts alone would warn about zero variance
    for strategy in STRATEGIES:
        doc = app_config(tmp_path, "fi", subdir=strategy, strategy=strategy, n_synthetic=0)
        report = run_pipeline(write_config(tmp_path, doc))
        assert report["n_synthetic"] == 0
        metrics = report["metrics"]
        assert metrics["relative_error"] is None and metrics["tau_overall"] is None
        assert metrics["tau_per_group"] == {}
        assert metrics["weights_synthetic"] is None and metrics["pca_recon_error_synthetic"] is None
        assert metrics["cells_excluded"] > 0  # every group of the original data
        plot = (tmp_path / strategy / "plot_usage_components.csv").read_text().splitlines()
        assert plot == ["period,age_band,gender,b_original,b_synthetic"]


def test_compare_identical_rules_identical_columns(tmp_path):
    # overriding every numeric column makes both strategy arms identical
    doc = credit_config(tmp_path, subdir="cmpid")
    doc["input"]["datagen"]["n_cards"] = 2000
    doc["rule_overrides"] = {
        name: {"method": "kmeans_1d", "k": 4}
        for name in ("Age2020", "Debt2020", "Debt2021", "Delinquency2020", "Delinquency2021")
    }
    comparison = compare_strategies(PipelineConfig.from_dict(doc))
    for row in comparison["rows"].values():
        assert row["cbp"] == row["data_driven"]
        assert row["winner"] == "tie"


# the ``input.files`` keys of fi and yield, and the gen-data artifact each
# one names; credit's card files are no artifact
SOURCE_FILES = {
    "fi": {"data": "original.csv", "schema": "schema.json", "unbanked": "unbanked.csv"},
    "yield": {"data": "original.csv", "schema": "schema.json"},
}


@pytest.mark.parametrize("application", ["credit", "fi", "yield"])
def test_file_input_round_trip(tmp_path, application):
    # generate with datagen, then re-run from files of the same data
    gen_doc = app_config(tmp_path, application, "src")
    run_pipeline(write_config(tmp_path, gen_doc, "gen.json"))
    src = tmp_path / "src"
    if application == "credit":
        # the cards the datagen run drew, written through the library
        config = PipelineConfig.from_dict(gen_doc)
        cards = generate_credit_cards(config.datagen, Pipeline(config)._rng("datagen"))
        files = {}
        for year, data in zip((2020, 2021), cards):
            files[f"cards_{year}"] = str(tmp_path / f"cards_{year}.csv")
            files[f"schema_{year}"] = str(tmp_path / f"schema_{year}.json")
            write_csv(data, files[f"cards_{year}"])
            save_schema(data.schema, files[f"schema_{year}"])
    else:
        files = {key: str(src / name) for key, name in SOURCE_FILES[application].items()}
    file_doc = app_config(tmp_path, application, "fromfiles", input={"files": files})
    report = run_pipeline(write_config(tmp_path, file_doc, "fromfiles.json"))
    assert report["metrics"]["relative_error"] >= 0.0
    # the files run writes the artifacts of the datagen run, no copy of its
    # inputs among them, and the data it read byte for byte (credit's
    # coverage.json is not compared: its debt share is recomputed from the
    # debts as written, to 12 significant digits)
    generated = artifact_bytes(src)
    reread = artifact_bytes(tmp_path / "fromfiles")
    assert set(reread) == set(generated)
    for name in {"original.csv", "schema.json", *SOURCE_FILES.get(application, {}).values()}:
        assert reread[name] == generated[name], name


# what ``gen-data`` writes for each application: each file is one that a
# later stage reads, so a new artifact has to be declared here
GEN_DATA_ARTIFACTS = {
    "credit": {"original.csv", "schema.json", "coverage.json"},
    "fi": {"original.csv", "schema.json", "unbanked.csv"},
    "yield": {"original.csv", "schema.json"},
}


@pytest.mark.parametrize("application", sorted(GEN_DATA_ARTIFACTS))
def test_gen_data_writes_only_what_later_stages_read(tmp_path, application):
    path = write_config(tmp_path, app_config(tmp_path, application))
    assert cli_main(["gen-data", "--config", str(path)]) == 0
    outdir = tmp_path / "run"
    expected = GEN_DATA_ARTIFACTS[application]
    assert {p.name for p in outdir.iterdir()} == expected | {"manifest.json"}
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert set(manifest["artifacts"]) == expected


def without_seconds(doc):
    if isinstance(doc, dict):
        return {k: without_seconds(v) for k, v in doc.items() if k != "seconds"}
    if isinstance(doc, list):
        return [without_seconds(v) for v in doc]
    return doc


STAGES = ("gen-data", "encode", "synth", "decode", "eval")


@pytest.mark.parametrize("mechanism", ["mst", "aim", "pac"])
def test_staged_manifest_equals_one_shot_manifest(tmp_path, mechanism):
    path = write_config(tmp_path, credit_config(tmp_path, mechanism={"name": mechanism}))
    manifest_path = tmp_path / "run" / "manifest.json"
    assert cli_main(["pipeline", "--config", str(path)]) == 0
    one_shot = json.loads(manifest_path.read_text())
    for command in STAGES:
        assert cli_main([command, "--config", str(path)]) == 0
    staged = json.loads(manifest_path.read_text())
    assert [stage["name"] for stage in staged["stages"]] == list(STAGES)
    assert "sigma_per_measurement" in staged["privacy"]
    assert without_seconds(staged) == without_seconds(one_shot)


# Runs in a fresh interpreter in which every scipy import fails; prints the
# exit codes of the given CLI commands and the scipy modules left loaded.
NO_SCIPY_SNIPPET = """
import json, sys
sys.modules["scipy"] = None
sys.path.insert(0, sys.argv[1])
from synthbank.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[2])]
loaded = [name for name in sys.modules if name.startswith("scipy") and name != "scipy"]
print(json.dumps({"codes": codes, "loaded": loaded, "blocked": sys.modules["scipy"] is None}))
"""


def test_runs_need_no_scipy(tmp_path):
    configs = [
        app_config(tmp_path, "yield", "yield", mechanism={"name": "pac"},
                   decode={"mode": "kde"}),
        credit_config(tmp_path, "credit"),
        app_config(tmp_path, "fi", "fi", mechanism={"name": "aim"}),
    ]
    paths = [str(write_config(tmp_path, doc, f"{i}.json")) for i, doc in enumerate(configs)]
    commands = [["pipeline", "--config", paths[0]], ["pipeline", "--config", paths[1]]]
    commands += [[stage, "--config", paths[2]] for stage in STAGES]
    src = str(Path(synthbank.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SNIPPET, src, json.dumps(commands)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result == {"codes": [0] * len(commands), "loaded": [], "blocked": True}, done.stderr
    for name in ("yield", "credit", "fi"):
        assert (tmp_path / name / "report.json").is_file()


def test_stages_read_only_what_they_use(tmp_path):
    staged = write_config(tmp_path, credit_config(tmp_path, subdir="staged"), "staged.json")
    one_shot = write_config(tmp_path, credit_config(tmp_path, subdir="oneshot"), "oneshot.json")
    for command in STAGES:
        assert cli_main([command, "--config", str(staged)]) == 0
    assert cli_main(["pipeline", "--config", str(one_shot)]) == 0
    assert artifact_bytes(tmp_path / "staged") == artifact_bytes(tmp_path / "oneshot")


@pytest.mark.parametrize("mechanism", ["mst", "aim", "pac"])
def test_manifest_sigma_is_the_measured_sigma(tmp_path, mechanism):
    import math

    from synthbank.mechanisms import SELECTION_FRACTION, pac_sigma

    doc = credit_config(tmp_path, mechanism={"name": mechanism})
    run_pipeline(PipelineConfig.from_dict(doc))
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    privacy = manifest["privacy"]
    sigma = privacy["sigma_per_measurement"]
    if mechanism == "pac":
        # PAC selects nothing, and each of its two levels adds pac_sigma
        # times sqrt(min(delta_k, subsets)) to every candidate cell: with
        # delta_k 3 and credit's six columns, sqrt(3) at both levels
        cell = pac_sigma(PrivacyParams(1.0, 1e-10)) * math.sqrt(3)
        assert cell > 0 and sigma == [cell, cell]
        assert privacy["selection_fraction"] == 0.0
    else:
        assert sigma > 0
        measured = manifest["mechanism"]["measured"]
        assert measured and all(item["sigma"] == sigma for item in measured)
        assert manifest["mechanism"]["tree_edges"]
        assert privacy["selection_fraction"] == SELECTION_FRACTION


def test_unknown_workload_column_is_named(tmp_path, capsys):
    doc = credit_config(
        tmp_path, mechanism={"name": "aim", "workload": [["Gender", "Income"]]}
    )
    with pytest.raises(PipelineConfigError) as err:
        run_pipeline(PipelineConfig.from_dict(doc))
    message = str(err.value)
    assert "mechanism.workload: unknown column 'Income'" in message
    assert "Delinquency2021" in message and "Gender" in message
    # the columns are known only after encode, so the CLI reports it from a stage
    assert cli_main(["pipeline", "--config", str(write_config(tmp_path, doc))]) == 2
    err = capsys.readouterr().err
    assert "config error: mechanism.workload: unknown column 'Income'" in err
    assert "failed" not in err


@pytest.mark.parametrize(
    "doc, message",
    [
        ([1, 2], "config: the top level must be a JSON object, got list"),
        ({"mechanism": {"name": "pac", "pac": 3}}, "mechanism.pac: must be an object, got 3"),
        ({"mechanism": {"name": "pac", "pac": {"k": 0}}}, "mechanism.pac: unknown keys ['k']"),
        ({"rule_overrides": [1]}, "rule_overrides: must be an object, got [1]"),
        (
            {"mechanism": {"name": "mst", "selection_fraction": "x"}},
            "mechanism.selection_fraction: must lie in [0, 1), got 'x'",
        ),
        (
            {"privacy": {"epsilon": "x", "delta": 1e-10}},
            "privacy.epsilon: must be positive, got 'x'",
        ),
        ({"decode": {"grid_points": "abc"}}, "decode: grid_points must be an integer >= 16"),
        ({"decode": {"mode": "kde", "bandwidth": -1}}, "decode: bandwidth must be positive"),
        (
            {"input": {"datagen": {"n_card": 100}}},
            "input.datagen: unknown keys ['n_card'] for credit",
        ),
        (
            {"input": {"files": {"cards_2020": "a.csv"}}},
            "input.files: missing keys ['schema_2020', 'cards_2021', 'schema_2021']",
        ),
        (
            {"mechanism": {"name": "aim", "workload": "Gender"}},
            "mechanism.workload: must be a list, got 'Gender'",
        ),
        (
            {"mechanism": {"name": "aim", "workload": [{"weight": 2.0}]}},
            "mechanism.workload: entry {'weight': 2.0}: needs a list of column names",
        ),
        (
            {"mechanism": {"name": "aim", "workload": [["Gender", "Age2020", "Debt2020"]]}},
            "mechanism.workload: entry ['Gender', 'Age2020', 'Debt2020']: "
            "only 1- and 2-way marginals are supported",
        ),
        (
            {"mechanism": {"name": "aim", "workload": [["Gender", "Gender"]]}},
            "mechanism.workload: entry ['Gender', 'Gender']: duplicate column",
        ),
        (
            {"mechanism": {"name": "aim", "workload": [{"attrs": ["Gender"], "weight": -1}]}},
            "mechanism.workload: entry {'attrs': ['Gender'], 'weight': -1}: "
            "weight must be positive",
        ),
        ({"mechanism": {"name": "aim", "round": 3}}, "mechanism: unknown keys ['round']"),
        (
            {"mechanism": {"name": "pac", "pac": {"etaa": 0.5}}},
            "mechanism.pac: unknown keys ['etaa']",
        ),
        ({"decode": {"mode": "kde", "bandwith": 0.1}}, "decode: unknown keys ['bandwith']"),
        ({"sed": 3, "outptu": "x"}, "config: unknown keys ['outptu', 'sed']"),
        (
            {"privacy": {"epsilon": 1.0, "delta": 1e-10, "eps": 2.0}},
            "privacy: unknown keys ['eps']",
        ),
        ({"input": {"datagen": {}, "file": {}}}, "input: unknown keys ['file']"),
        (
            {"input": {"files": {"cards_2020": "a", "schema_2020": "b", "cards_2021": "c",
                                 "schema_2021": "d", "data": "e"}}},
            "input.files: unknown keys ['data']",
        ),
        (
            {"rule_overrides": {"Debt2020": {"method": "equal_frequency", "k": 4, "bins": 5}}},
            "rule_overrides.Debt2020: unknown keys ['bins']",
        ),
        (
            {"input": {"datagen": {"n_cards": -5}}},
            "input.datagen: n_cards must be a non-negative integer, got -5",
        ),
        (
            # the planted shares, rates, spreads and kernel are model constants
            {"input": {"datagen": {"band_shares": [0.5, 0.5]}}},
            "input.datagen: unknown keys ['band_shares'] for credit",
        ),
        (
            {"application": "yield", "input": {"datagen": {"curve_tau": [0, 5]}}},
            "input.datagen: unknown keys ['curve_tau'] for yield",
        ),
        (
            {"input": {"datagen": {"n_cards": 2000.5}}},
            "input.datagen: n_cards must be a non-negative integer, got 2000.5",
        ),
        (
            {"input": {"datagen": {"n_cards": "many"}}},
            "input.datagen: n_cards must be a non-negative integer, got 'many'",
        ),
        (
            {"rule_overrides": {"NoSuchCol": {"method": "equal_frequency", "k": 4}}},
            "rule_overrides: ['NoSuchCol'] are not binned columns of credit (binned: Age2020, "
            "Debt2020, Debt2021, Delinquency2020, Delinquency2021)",
        ),
        (
            {"rule_overrides": {"Gender": {"method": "equal_frequency", "k": 2}}},
            "rule_overrides: ['Gender'] are not binned columns of credit",
        ),
        ({"seed": True}, "seed: must be a non-negative integer, got True"),
        (
            {"mechanism": {"name": "aim", "rounds": True}},
            "mechanism.rounds: must be a positive integer, got True",
        ),
        (
            {"mechanism": {"name": "pac", "pac": {"k": True}}},
            "mechanism.pac: unknown keys ['k']",
        ),
        ({"n_synthetic": False}, "n_synthetic: must be a non-negative integer, got False"),
        ({"mechanism": "mst"}, "mechanism: must be an object, got 'mst'"),
        (
            {"privacy": {"epsilon": True, "delta": 1e-10}},
            "privacy.epsilon: must be positive, got True",
        ),
        (
            {"mechanism": {"name": "mst", "selection_fraction": False}},
            "mechanism.selection_fraction: must lie in [0, 1), got False",
        ),
        (
            {"mechanism": {"name": "pac", "pac": {"delta_k": True}}},
            "mechanism.pac: delta_k must not be a boolean, got True",
        ),
        (
            {"mechanism": {"name": "pac", "pac": {"delta_k": 2.5}}},
            "mechanism.pac: delta_k must be an integer >= 1, got 2.5",
        ),
        (
            {"decode": {"mode": "kde", "bandwidth": True}},
            "decode: bandwidth must not be a boolean, got True",
        ),
        (
            {"input": {"datagen": {"gender_split": True}}},
            "input.datagen: unknown keys ['gender_split'] for credit",
        ),
        (
            {"rule_overrides": {"Debt2020": {"method": "explicit_cutoffs",
                                             "cutoffs": [1e5, 1e6], "floor": False}}},
            "rule_overrides.Debt2020: floor must not be a boolean, got False",
        ),
        (
            {"input": {"datagen": {"band_shares": [True, 0, 0, 0, 0, 0, 0]}}},
            "input.datagen: unknown keys ['band_shares'] for credit",
        ),
        (
            {"application": "yield", "input": {"datagen": {"curve_beta": [1, 2]}}},
            "input.datagen: curve_beta needs 4 entries, got (1, 2)",
        ),
        (
            {"application": "yield", "input": {"datagen": {"capital_range": [5e5, 1e5]}}},
            "input.datagen: unknown keys ['capital_range'] for yield",
        ),
        (
            {"application": "yield", "input": {"datagen": {"term_range": [7, "x"]}}},
            "input.datagen: unknown keys ['term_range'] for yield",
        ),
        (
            {"application": "yield", "input": {"datagen": {"periods": []}}},
            "input.datagen: periods must be a non-empty list of distinct names, got ()",
        ),
        (
            {"application": "fi", "input": {"datagen": {"periods": ["2020", "2020"]}}},
            "input.datagen: periods must be a non-empty list of distinct names, "
            "got ('2020', '2020')",
        ),
        (
            {"application": "fi", "input": {"datagen": {"nzs_lambda": [1.0, 2.0]}}},
            "input.datagen: unknown keys ['nzs_lambda'] for fi",
        ),
        (
            {"application": "fi", "input": {"datagen": {"loan_extra_lambda": -0.5}}},
            "input.datagen: unknown keys ['loan_extra_lambda'] for fi",
        ),
        (
            {"input": {"datagen": {"debt_range": [1e4]}}},
            "input.datagen: unknown keys ['debt_range'] for credit",
        ),
        (
            # the planted clip ranges and count means are model constants
            {"application": "yield", "strategy": "cbp",
             "input": {"datagen": {"rate_range": [0.05, 30], "curve_beta": [18, -3.5, 1, 0.8]}}},
            "input.datagen: unknown keys ['rate_range'] for yield",
        ),
        (
            {"application": "fi", "input": {"datagen": {"fi_extra_lambda": [0.6] * 7}}},
            "input.datagen: unknown keys ['fi_extra_lambda'] for fi",
        ),
        (
            {"application": "fi", "input": {"datagen": {"savings_extra_lambda": 0.8}}},
            "input.datagen: unknown keys ['savings_extra_lambda'] for fi",
        ),
        (
            {"application": "fi", "input": {"datagen": {"ccards_lambda": [100] * 7}}},
            "input.datagen: unknown keys ['ccards_lambda'] for fi",
        ),
        (
            {"rule_overrides": {"Debt2020": {"method": "equal_frequency", "k": True}}},
            "rule_overrides.Debt2020: equal_frequency needs k >= 1, got True",
        ),
        (
            {"rule_overrides": {"Debt2020": {"method": "equal_frequency", "k": 2.5}}},
            "rule_overrides.Debt2020: equal_frequency needs k >= 1, got 2.5",
        ),
        (
            {"application": "yield", "input": {"datagen": {"rate_noise": "x"}}},
            "input.datagen: rate_noise must be a finite number, got 'x'",
        ),
        (
            {"application": "yield", "input": {"datagen": {"rate_noise": -1}}},
            "input.datagen: rate_noise must be >= 0, got -1",
        ),
        (
            {"application": "yield", "input": {"datagen": {"usd_shift": float("inf")}}},
            "input.datagen: usd_shift must be a finite number, got inf",
        ),
        (
            {"input": {"datagen": {"debt_log_sd": -1}}},
            "input.datagen: unknown keys ['debt_log_sd'] for credit",
        ),
        (
            {"input": {"datagen": {"gender_split": 1.5}}},
            "input.datagen: unknown keys ['gender_split'] for credit",
        ),
        (
            {"input": {"datagen": {"persistence": 1.5}}},
            "input.datagen: persistence entries must lie in [0, 1]",
        ),
        (
            {"input": {"datagen": {"persistence": True}}},
            "input.datagen: persistence must not be a boolean, got True",
        ),
        (
            {"input": {"datagen": {"delinquency_dist_male": [0.2] * 5}}},
            "input.datagen: delinquency_dist_male needs 6 entries, got (0.2, 0.2, 0.2, 0.2, 0.2)",
        ),
        (
            {"input": {"datagen": {"delinquency_dist_female": [True, 0, 0, 0, 0, 0]}}},
            "input.datagen: delinquency_dist_female must be a list of numbers, "
            "got (True, 0, 0, 0, 0, 0)",
        ),
        (
            {"privacy": {"epsilon": float("inf"), "delta": 1e-10}},
            "privacy.epsilon: must be positive, got inf",
        ),
        (
            {"application": "yield",
             "input": {"datagen": {"curve_beta": [float("nan"), -3.5, 1.0, 0.8]}}},
            "input.datagen: curve_beta must be a list of numbers, got (nan, -3.5, 1.0, 0.8)",
        ),
        (
            {"mechanism": {"name": "aim",
                           "workload": [{"attrs": ["Gender"], "weight": float("inf")}]}},
            "mechanism.workload: entry {'attrs': ['Gender'], 'weight': inf}: "
            "weight must be positive and finite",
        ),
        ({"output": 5}, "output: an output directory path is required, got 5"),
        (
            {"input": {"files": {"cards_2020": 5, "schema_2020": "b", "cards_2021": "c",
                                 "schema_2021": None}}},
            "input.files.cards_2020: must be a file path, got 5",
        ),
        (
            {"input": {"files": {"cards_2020": "a", "schema_2020": "b", "cards_2021": "c",
                                 "schema_2021": None}}},
            "input.files.schema_2021: must be a file path, got None",
        ),
        (
            {"rule_overrides": {"Debt2020": {"method": "equal_frequency", "k": 4,
                                             "log_pretransform": "no"}}},
            "rule_overrides.Debt2020: log_pretransform must be true or false, got 'no'",
        ),
        (
            {"strategy": "data_driven",
             "rule_overrides": {"Debt2020": {"method": "equal_frequency", "k": 4}}},
            "rule_overrides: Debt2020 and Debt2021 must share one binning rule; "
            "override both alike",
        ),
        (
            {"rule_overrides": {
                "Delinquency2020": {"method": "kmeans_1d", "k": 6},
                "Delinquency2021": {"method": "kmeans_1d", "k": 5},
            }},
            "rule_overrides: Delinquency2020 and Delinquency2021 must share one binning rule; "
            "override both alike",
        ),
        (
            # the cbp preset's own rule: one state space under cbp, but two
            # in the data-driven arm of a compare
            {"rule_overrides": {"Debt2020": {"method": "explicit_cutoffs",
                                             "cutoffs": list(CBP_DEBT_CUTOFFS)}}},
            "rule_overrides: Debt2020 and Debt2021 must share one binning rule; "
            "override both alike",
        ),
    ],
    ids=["top-level-list", "pac-not-object", "pac-k-zero", "rule-overrides-list",
         "selection-fraction-string", "epsilon-string", "grid-points-string", "negative-bandwidth",
         "unknown-datagen-key", "missing-input-files", "workload-not-list",
         "workload-entry-without-attrs", "workload-three-way", "workload-repeated-column",
         "workload-negative-weight", "unknown-mechanism-key", "unknown-pac-key",
         "unknown-decode-key", "unknown-top-level-keys", "unknown-privacy-key",
         "unknown-input-key", "unknown-input-files-key", "unknown-rule-override-key",
         "negative-n-cards", "short-band-shares", "zero-curve-tau", "fractional-n-cards",
         "string-n-cards", "override-unknown-column", "override-unbinned-column",
         "boolean-seed", "boolean-rounds", "boolean-pac-k", "boolean-n-synthetic",
         "mechanism-string", "boolean-epsilon", "boolean-selection-fraction",
         "boolean-pac-delta-k", "fractional-pac-delta-k", "boolean-bandwidth",
         "boolean-gender-split", "boolean-override-floor", "boolean-band-share", "short-curve-beta",
         "decreasing-capital-range", "string-in-term-range", "empty-yield-periods",
         "repeated-fi-periods", "short-fi-lambda", "negative-fi-lambda", "short-debt-range",
         "rate-range-past-cbp-cut-off", "fi-extra-lambda", "savings-extra-lambda",
         "ccards-lambda-past-cbp-cut-off",
         "boolean-override-k", "fractional-override-k", "string-rate-noise",
         "negative-rate-noise", "infinite-usd-shift", "negative-debt-log-sd",
         "credit-gender-split-above-one", "persistence-above-one", "boolean-persistence",
         "short-delinquency-dist", "boolean-in-delinquency-dist", "infinite-epsilon", "nan-curve-beta",
         "infinite-workload-weight", "numeric-output", "numeric-input-file",
         "null-input-file", "string-log-pretransform", "one-year-debt-override",
         "unequal-delinquency-overrides", "one-year-override-equal-to-preset"],
)
def test_cli_bad_config_fields_are_config_errors(tmp_path, capsys, doc, message):
    if isinstance(doc, dict):
        doc = credit_config(tmp_path, **doc)
    path = write_config(tmp_path, doc)
    assert cli_main(["pipeline", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"config error: {message}" in err
    assert "failed" not in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


# settings that load, yet give data the encode rules cannot bin: gen-data
# checks the rules first, so each exits 2 with encode's message, unwritten
DATA_THE_RULES_REJECT = [
    pytest.param(
        "yield", {"n_deposits": 3000, "curve_beta": [100, 0, 0, 0]},
        "column 'InterestRate': k=5 exceeds the 1 distinct values", id="flat-curve",
    ),
    pytest.param(
        "yield", {"n_deposits": 4},
        "column 'Capital': k=5 exceeds the 4 distinct values; use a smaller k", id="four-deposits",
    ),
    pytest.param(
        "credit", {"n_cards": 4000, "persistence": 0},
        "column 'Age2020': k-means binning needs at least one value", id="no-persistent-card",
    ),
]


@pytest.mark.parametrize("application, datagen, message", DATA_THE_RULES_REJECT)
def test_cli_data_the_encode_rules_reject_is_a_config_error(tmp_path, capsys, application, datagen, message):
    doc = credit_config(
        tmp_path, application=application, strategy="data_driven", input={"datagen": datagen}
    )
    for command in ("pipeline", "gen-data"):
        assert cli_main([command, "--config", str(write_config(tmp_path, doc))]) == 2
        assert capsys.readouterr().err.splitlines() == [f"config error: {message}"]
        assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("application, datagen, message", DATA_THE_RULES_REJECT)
def test_check_rules_raises_the_encode_error(tmp_path, application, datagen, message):
    doc = credit_config(
        tmp_path, application=application, strategy="data_driven", input={"datagen": datagen}
    )
    config = PipelineConfig.from_dict(doc)
    pipeline = Pipeline(config)
    source, _ = pipeline.app.prepare(config.datagen, config.files, pipeline._rng("datagen"))
    for check in (check_rules, encode_dataset):
        with pytest.raises(BinningError) as caught:
            check(source, pipeline._rules)
        assert str(caught.value) == message


def test_cli_reports_each_unknown_key_once(tmp_path, capsys):
    # a section with an unknown key is not built, so its class adds no
    # second message; the two overrides, left out, take no part in the pair
    # rule, although their known keys give the pair two rules
    doc = credit_config(
        tmp_path,
        mechanism={"name": "pac", "pac": {"k": 2}},
        input={"datagen": {"n_cards": 4000, "n_card": 5}},
        rule_overrides={
            "Debt2020": {"method": "equal_frequency", "k": 4, "bins": 5},
            "Debt2021": {"method": "equal_frequency", "k": 5, "bins": 5},
        },
    )
    assert cli_main(["pipeline", "--config", str(write_config(tmp_path, doc))]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: mechanism.pac: unknown keys ['k']",
        "config error: input.datagen: unknown keys ['n_card'] for credit",
        "config error: rule_overrides.Debt2020: unknown keys ['bins']",
        "config error: rule_overrides.Debt2021: unknown keys ['bins']",
    ]
    assert not (tmp_path / "run").exists()


def test_paired_columns_share_one_rule_in_every_preset():
    # the loader compares only the overrides of a pair, which keeps the pair
    # on one rule as long as every preset gives both of its columns one rule
    assert APPS["credit"].PAIRED
    for app in APPS.values():
        for strategy in STRATEGIES:
            rules = app.rules(strategy)
            for first, second in app.PAIRED:
                assert rules[first] == rules[second]


# each settings class with valid arguments, its error, the config holding
# the given arguments and the loader's message for one of the class's messages
SETTINGS = {
    "privacy": (
        PrivacyParams, {"epsilon": 1.0, "delta": 1e-10}, PrivacyError,
        lambda tmp_path, fields: credit_config(tmp_path, privacy=fields),
        lambda message: "privacy." + message.replace(" ", ": ", 1),
    ),
    "pac": (
        PacConfig, {}, MechanismError,
        lambda tmp_path, fields: credit_config(tmp_path, mechanism={"name": "pac", "pac": fields}),
        lambda message: f"mechanism.pac: {message}",
    ),
    "kde": (
        KdeSpec, {}, DecodeError,
        lambda tmp_path, fields: credit_config(tmp_path, decode={"mode": "kde", **fields}),
        lambda message: f"decode: {message}",
    ),
    "rule": (
        BinningRule, {"method": "equal_frequency", "k": 4}, BinningError,
        lambda tmp_path, fields: credit_config(tmp_path, rule_overrides={"Debt2020": fields}),
        lambda message: f"rule_overrides.Debt2020: {message}",
    ),
    **{
        application: (
            factory, {}, ValueError,
            lambda tmp_path, fields, application=application: app_config(
                tmp_path, application, input={"datagen": fields}
            ),
            lambda message: f"input.datagen: {message}",
        )
        for application, factory in (
            ("fi", FiPopulationConfig),
            ("yield", DepositMarketConfig),
            ("credit", CreditPortfolioConfig),
        )
    },
}


@pytest.mark.parametrize("name", list(SETTINGS))
def test_settings_reject_booleans_in_every_number_field(tmp_path, name):
    factory, base, error, config, loaded_message = SETTINGS[name]
    # fields annotated ``int`` or ``float``, alone or with another type
    numbers = [
        f.name for f in dataclasses.fields(factory)
        if re.fullmatch(r"(int|float)( \| \w+)?", f.type)
    ]
    assert numbers
    for field_name in numbers:
        for value in (True, False):
            fields = {**base, field_name: value}
            with pytest.raises(error) as built:
                factory(**fields)
            with pytest.raises(PipelineConfigError) as loaded:
                PipelineConfig.from_dict(config(tmp_path, fields))
            assert loaded.value.errors == [loaded_message(str(built.value))]


# each top-level setting with a bad value, as a ``PipelineConfig`` argument
# and as the config keys that hold it
TOP_LEVEL = {
    "seed": ({"seed": True}, {"seed": True}),
    "epsilon": ({"epsilon": -1.0}, {"privacy": {"epsilon": -1.0, "delta": 1e-10}}),
    "delta": ({"delta": 1.5}, {"privacy": {"epsilon": 1.0, "delta": 1.5}}),
    "selection_fraction": (
        {"selection_fraction": 1.0}, {"mechanism": {"name": "mst", "selection_fraction": 1.0}}
    ),
    "rounds": ({"rounds": 0}, {"mechanism": {"name": "mst", "rounds": 0}}),
    "n_synthetic": ({"n_synthetic": -1}, {"n_synthetic": -1}),
    "output": ({"output": 5}, {"output": 5}),
    "application": ({"application": "bogus"}, {"application": "bogus"}),
    "strategy": ({"strategy": "bogus"}, {"strategy": "bogus"}),
    "mechanism": ({"mechanism": "gan"}, {"mechanism": {"name": "gan"}}),
    "decode_mode": ({"decode_mode": "bogus"}, {"decode": {"mode": "bogus"}}),
    "non-binned-override": (
        {"rule_overrides": {"Gender": BinningRule("equal_frequency", k=2)}},
        {"rule_overrides": {"Gender": {"method": "equal_frequency", "k": 2}}},
    ),
    "one-year-override": (
        {"rule_overrides": {"Debt2020": BinningRule("equal_frequency", k=4)}},
        {"rule_overrides": {"Debt2020": {"method": "equal_frequency", "k": 4}}},
    ),
    "missing-input-file": (
        {"files": {"cards_2020": "a.csv"}}, {"input": {"files": {"cards_2020": "a.csv"}}}
    ),
}


@pytest.mark.parametrize("name", list(TOP_LEVEL))
def test_config_built_in_python_checks_top_level_fields(tmp_path, name):
    arguments, doc = TOP_LEVEL[name]
    base = {
        "application": "credit", "strategy": "cbp", "mechanism": "mst",
        "output": str(tmp_path / "run"), "datagen": CreditPortfolioConfig(n_cards=3000),
    }
    with pytest.raises(PipelineConfigError) as built:
        run_pipeline(PipelineConfig(**{**base, **arguments}))
    with pytest.raises(PipelineConfigError) as loaded:
        PipelineConfig.from_dict(credit_config(tmp_path, **doc))
    assert len(built.value.errors) == 1
    assert built.value.errors == loaded.value.errors
    assert not (tmp_path / "run").exists()


# a settings object of the wrong type, as a ``PipelineConfig`` argument, and
# its one message; JSON cannot spell these, since ``from_dict`` builds the
# settings objects itself
SETTINGS_OBJECTS = {
    "pac": ({"mechanism": "pac", "pac": 3}, "mechanism.pac: must be a PacConfig, got 3"),
    "kde": ({"kde": {"bandwidth": 1.0}},
            "decode: must be a KdeSpec, got {'bandwidth': 1.0}"),
    "datagen": (
        {"datagen": FiPopulationConfig(n_individuals=100)},
        f"input.datagen: must be a CreditPortfolioConfig for credit, "
        f"got {FiPopulationConfig(n_individuals=100)!r}",
    ),
    "none-overrides": (
        {"rule_overrides": {"Debt2020": None, "Debt2021": None}},
        "rule_overrides.Debt2020: must be a BinningRule, got None",
        "rule_overrides.Debt2021: must be a BinningRule, got None",
    ),
    "override-spec": (
        {"rule_overrides": {"Age2020": {"method": "equal_frequency", "k": 4}}},
        "rule_overrides.Age2020: must be a BinningRule, got {'method': 'equal_frequency', 'k': 4}",
    ),
    "overrides-list": ({"rule_overrides": [1]}, "rule_overrides: must be a dict, got [1]"),
    "workload": (
        {"mechanism": "aim", "workload": [["Age2020", "Debt2020"]]},
        "mechanism.workload: must be a list of (column names, weight) pairs, "
        "got [['Age2020', 'Debt2020']]",
    ),
}


@pytest.mark.parametrize("name", list(SETTINGS_OBJECTS))
def test_config_built_in_python_checks_settings_object_types(tmp_path, name):
    arguments, *messages = SETTINGS_OBJECTS[name]
    base = {
        "application": "credit", "strategy": "cbp", "mechanism": "mst",
        "output": str(tmp_path / "run"), "datagen": CreditPortfolioConfig(n_cards=3000),
    }
    with pytest.raises(PipelineConfigError) as built:
        run_pipeline(PipelineConfig(**{**base, **arguments}))
    assert built.value.errors == messages
    assert not (tmp_path / "run").exists()


def test_parsed_workload_passes_the_shape_check(tmp_path):
    workload = parse_workload([["Age2020", "Debt2020"], {"attrs": ["Gender"], "weight": 2}])
    config = PipelineConfig(application="credit", mechanism="aim", output=str(tmp_path / "run"),
                            workload=workload)
    assert config.workload == [(("Age2020", "Debt2020"), 1.0), (("Gender",), 2.0)]


def test_replaced_config_is_checked_again(tmp_path):
    valid = PipelineConfig(application="credit", mechanism="mst", output=str(tmp_path / "run"))
    with pytest.raises(PipelineConfigError) as err:
        dataclasses.replace(valid, mechanism="gan")
    assert err.value.errors == ["mechanism.name: unknown value 'gan' (allowed: mst, aim, pac)"]


def test_python_config_without_datagen_uses_the_default_population(tmp_path):
    built = PipelineConfig(
        application="yield", mechanism="mst", output=str(tmp_path / "python"), seed=11
    )
    assert built.datagen == DepositMarketConfig()
    loaded = PipelineConfig.from_dict(app_config(tmp_path, "yield", "json", input={"datagen": {}}))
    for config in (built, loaded):
        run_pipeline(config)
    assert artifact_bytes(tmp_path / "python") == artifact_bytes(tmp_path / "json")


def test_staged_run_reads_a_column_name_with_a_comma(tmp_path):
    # encoded.csv quotes such a name in its header, as the other CSVs do
    gen = write_config(tmp_path, app_config(tmp_path, "yield", "src"), "gen.json")
    assert cli_main(["gen-data", "--config", str(gen)]) == 0
    src = tmp_path / "src"
    source = read_csv(src / "original.csv", load_schema(src / "schema.json"))
    branch = ColumnSpec("Branch, city", CATEGORICAL, levels=("A", "B"))
    columns = [source.column(spec.name) for spec in source.schema]
    columns.append([i % 2 for i in range(source.n_records)])
    extended = Dataset((*source.schema, branch), columns)
    write_csv(extended, tmp_path / "data.csv")
    save_schema(extended.schema, tmp_path / "schema.json")
    files = {"data": str(tmp_path / "data.csv"), "schema": str(tmp_path / "schema.json")}
    for run in ("staged", "oneshot"):
        doc = app_config(tmp_path, "yield", run, input={"files": files})
        write_config(tmp_path, doc, f"{run}.json")
    for command in STAGES:
        assert cli_main([command, "--config", str(tmp_path / "staged.json")]) == 0
    assert cli_main(["pipeline", "--config", str(tmp_path / "oneshot.json")]) == 0
    assert artifact_bytes(tmp_path / "staged") == artifact_bytes(tmp_path / "oneshot")


def test_noiseless_config_records_the_same_privacy_from_python_and_json(tmp_path):
    built = PipelineConfig(
        application="credit", strategy="cbp", mechanism="mst", output=str(tmp_path / "python"),
        seed=11, epsilon=None, datagen=CreditPortfolioConfig(n_cards=3000),
    )
    doc = credit_config(tmp_path, subdir="json", privacy=None, seed=11)
    doc["input"]["datagen"]["n_cards"] = 3000
    loaded = PipelineConfig.from_dict(doc)
    assert built.delta is None and loaded.delta is None
    for config in (built, loaded):
        run_pipeline(config)
    for name in ("manifest.json", "report.json"):
        python_doc, json_doc = (
            json.loads((tmp_path / run / name).read_text(encoding="utf-8"))
            for run in ("python", "json")
        )
        assert python_doc["privacy"] == json_doc["privacy"]
        assert python_doc["privacy"]["delta"] is None

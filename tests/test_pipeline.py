"""End-to-end pipeline and CLI behaviour."""

import json
from pathlib import Path

import pytest

from synthbank.cli import main as cli_main
from synthbank.pipeline import (
    PipelineConfig,
    PipelineConfigError,
    compare_strategies,
    run_pipeline,
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


def test_cli_staged_run_matches_pipeline_command(tmp_path):
    doc_a = credit_config(tmp_path, subdir="staged")
    doc_b = credit_config(tmp_path, subdir="oneshot")
    path_a = write_config(tmp_path, doc_a, "staged.json")
    path_b = write_config(tmp_path, doc_b, "oneshot.json")
    for command in ("gen-data", "encode", "synth", "decode", "eval"):
        assert cli_main([command, "--config", str(path_a)]) == 0
    assert cli_main(["pipeline", "--config", str(path_b)]) == 0
    bytes_a = artifact_bytes(tmp_path / "staged")
    bytes_b = artifact_bytes(tmp_path / "oneshot")
    assert bytes_a == bytes_b


def test_cli_validation_exit_code(tmp_path, capsys):
    path = write_config(tmp_path, credit_config(tmp_path, mechanism={"name": "gan"}))
    assert cli_main(["pipeline", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "mechanism.name" in err and "mst" in err


def test_cli_eval_without_artifacts_fails_cleanly(tmp_path, capsys):
    path = write_config(tmp_path, credit_config(tmp_path, subdir="missing"))
    assert cli_main(["eval", "--config", str(path)]) == 1
    assert "failed" in capsys.readouterr().err


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
            ]
        )
        == 0
    )
    report = json.loads((tmp_path / "ov2" / "report.json").read_text())
    assert report["seed"] == 99
    assert report["privacy"]["epsilon"] == 2.5


@pytest.mark.parametrize(
    "privacy, flags, message",
    [
        (None, ["--epsilon", "0.5"], "privacy.delta: must lie in (0, 1), got None"),
        ({"epsilon": 1.0, "delta": 1e-10}, ["--epsilon", "-1"], "privacy.epsilon: must be positive"),
        ({"epsilon": 1.0, "delta": 1e-10}, ["--delta", "5"], "privacy.delta: must lie in (0, 1)"),
        ({"epsilon": 1.0, "delta": 1e-10}, ["--mechanism", "gan"], "mechanism.name: unknown value 'gan'"),
    ],
    ids=["epsilon-on-null-privacy", "negative-epsilon", "delta-above-one", "unknown-mechanism"],
)
def test_cli_bad_flags_are_config_errors(tmp_path, capsys, privacy, flags, message):
    path = write_config(tmp_path, credit_config(tmp_path, privacy=privacy))
    assert cli_main(["pipeline", "--config", str(path), *flags]) == 2
    err = capsys.readouterr().err
    assert f"config error: {message}" in err
    assert "failed" not in err
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


def test_yield_pipeline_pac_shows_suppression(tmp_path):
    doc = {
        "application": "yield",
        "strategy": "cbp",
        "mechanism": {"name": "pac", "pac": {"k": 2}},
        "privacy": {"epsilon": 1.0, "delta": 1e-10},
        "decode": {"mode": "left_edge"},
        "input": {"datagen": {"n_deposits": 3000}},
        "seed": 7,
        "output": str(tmp_path / "ypac"),
    }
    report = run_pipeline(write_config(tmp_path, doc, "ypac.json"))
    assert "groups" in report["metrics"]
    assert report["suppressed_rows_dropped"] >= 0
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


def test_compare_emits_winner_flags(tmp_path):
    doc = credit_config(tmp_path, subdir="cmp")
    doc["input"]["datagen"]["n_cards"] = 3000
    comparison = compare_strategies(PipelineConfig.from_dict(doc))
    rows = comparison["rows"]
    assert "frobenius_delinquency" in rows and "frobenius_debt" in rows
    for row in rows.values():
        assert set(row) == {"cbp", "data_driven", "winner"}
        assert row["winner"] in ("cbp", "data_driven", "tie", "undefined")
    assert (tmp_path / "cmp" / "comparison.json").exists()
    assert (tmp_path / "cmp" / "cbp" / "report.json").exists()


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


def test_file_input_round_trip(tmp_path):
    # stage 1: generate with datagen, then re-run from the emitted files
    gen_doc = credit_config(tmp_path, subdir="src")
    gen_doc["input"]["datagen"]["n_cards"] = 2500
    run_pipeline(write_config(tmp_path, gen_doc, "gen.json"))
    src = tmp_path / "src"
    file_doc = credit_config(tmp_path, subdir="fromfiles")
    file_doc["input"] = {
        "files": {
            "cards_2020": str(src / "cards_2020.csv"),
            "schema_2020": str(src / "schema_2020.json"),
            "cards_2021": str(src / "cards_2021.csv"),
            "schema_2021": str(src / "schema_2021.json"),
        }
    }
    report = run_pipeline(write_config(tmp_path, file_doc, "fromfiles.json"))
    assert report["metrics"]["frobenius"]["delinquency"]["value"] >= 0.0


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


def test_stages_read_only_what_they_use(tmp_path):
    staged = write_config(tmp_path, credit_config(tmp_path, subdir="staged"), "staged.json")
    one_shot = write_config(tmp_path, credit_config(tmp_path, subdir="oneshot"), "oneshot.json")
    assert cli_main(["gen-data", "--config", str(staged)]) == 0
    for name in ("cards_2020.csv", "cards_2021.csv"):
        (tmp_path / "staged" / name).unlink()
    for command in STAGES[1:]:
        assert cli_main([command, "--config", str(staged)]) == 0
    assert cli_main(["pipeline", "--config", str(one_shot)]) == 0
    expected = artifact_bytes(tmp_path / "oneshot")
    del expected["cards_2020.csv"], expected["cards_2021.csv"]
    assert artifact_bytes(tmp_path / "staged") == expected


@pytest.mark.parametrize("mechanism", ["mst", "aim", "pac"])
def test_manifest_sigma_is_the_measured_sigma(tmp_path, mechanism):
    from synthbank.mechanisms import PacConfig, pac_sigma
    from synthbank.privacy import PrivacyParams

    doc = credit_config(tmp_path, mechanism={"name": mechanism})
    run_pipeline(PipelineConfig.from_dict(doc))
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    sigma = manifest["privacy"]["sigma_per_measurement"]
    assert sigma > 0
    if mechanism == "pac":
        assert sigma == pac_sigma(PacConfig(), PrivacyParams(1.0, 1e-10))
    else:
        measured = manifest["mechanism"]["measured"]
        assert measured and all(item["sigma"] == sigma for item in measured)
        assert manifest["mechanism"]["tree_edges"]


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
        ({"mechanism": {"name": "pac", "pac": {"k": 0}}}, "mechanism.pac: reporting length k"),
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
    ],
    ids=["top-level-list", "pac-not-object", "pac-k-zero", "rule-overrides-list",
         "selection-fraction-string", "epsilon-string", "grid-points-string", "negative-bandwidth",
         "unknown-datagen-key", "missing-input-files", "workload-not-list",
         "workload-entry-without-attrs", "workload-three-way", "workload-repeated-column",
         "workload-negative-weight"],
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

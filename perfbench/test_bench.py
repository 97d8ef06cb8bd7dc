"""Checks of the benchmark itself, on small inputs."""

from __future__ import annotations

import dataclasses
import json
import math

import pytest

import bench
import spans


def small(name: str, rows: int = 10_000) -> bench.Workload:
    """The named workload with its population shrunk to ``rows``."""
    workload = bench.WORKLOADS[name]
    config = json.loads(json.dumps(workload.config))
    datagen = config["input"]["datagen"]
    (key,) = datagen
    datagen[key] = rows
    return dataclasses.replace(workload, config=config, subseeds=1)


def test_staged_run_matches_one_shot_run(tmp_path):
    staged = small("fi-dd-aim-staged")
    one_shot = dataclasses.replace(staged, staged=False)
    hashes = {}
    for label, workload in (("staged", staged), ("one_shot", one_shot)):
        workdir = tmp_path / label
        workdir.mkdir()
        runner = bench.Runner(workload, workdir, bench.write_configs(workload, workdir, 7))
        result = runner.run(next(iter(runner.configs)))
        assert result is not None, f"{label} run failed"
        hashes[label] = result[1]["hashes"]
    assert "report.json" in hashes["staged"]
    assert "manifest.json" not in hashes["staged"]
    assert hashes["staged"] == hashes["one_shot"]


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_traced_run_records_expected_layers_and_same_outputs(tmp_path, name):
    workload = small(name)
    runner = bench.Runner(
        workload, tmp_path, bench.write_configs(workload, tmp_path, 3), bench.expected_layers(name)
    )
    subseed = next(iter(runner.configs))
    tracer = spans.Tracer()
    assert runner.run(subseed) is not None
    # the traced run is checked against the untraced one's artifacts, and
    # against the prediction table's expected layers
    result = runner.run(subseed, tracer=tracer, run_id=0)
    assert result is not None and runner.failed == 0
    times, counts, calls = result[1]["layers"]

    one_shot = not workload.staged
    assert (calls["tabular.read_csv"] == 0) == one_shot
    assert (calls["binning.read_encoded_csv"] == 0) == one_shot
    assert (calls["decoding.kde_decode"] > 0) == (name == "yield-dd-pac-kde")
    assert counts["privacy.noised_cells"] > 0
    assert all(value >= 0 for value in times.values())

    # tracing is off again once the run ends
    import synthbank.pipeline
    import synthbank.tabular

    assert synthbank.pipeline.write_csv is synthbank.tabular.write_csv
    assert not hasattr(synthbank.tabular.write_csv, "__wrapped__")


def test_self_time_subtracts_children_and_their_counting():
    recorded = [
        {"id": 0, "name": "binning.encode_dataset", "parent": None,
         "start": 0.0, "end": 10.0, "count_s": 0.0},
        {"id": 1, "name": "binning.kmeans_1d", "parent": 0,
         "start": 1.0, "end": 4.0, "count_s": 0.5},
        {"id": 2, "name": "binning.kmeans_1d", "parent": 0,
         "start": 5.0, "end": 7.0, "count_s": 0.5},
    ]
    selfs = spans.self_times(recorded)
    assert selfs["binning.encode_dataset"] == pytest.approx(10.0 - 3.0 - 2.0 - 1.0)
    assert selfs["binning.kmeans_1d"] == pytest.approx(5.0)
    assert selfs["tabular.read_csv"] == 0.0


def test_per_layer_names_agree_across_benchmark_json_layers_json_and_spans():
    listed = set(bench.metric_units(1))
    table = json.loads((bench.BENCH_DIR / "layers.json").read_text())
    predicted = {name for row in table["predictions"] for name in row["metrics"]}
    times, counts, _ = spans.layer_metrics([])
    traced = {"trace.wall_s", "trace.overhead_s"}  # measured by bench.py, not per layer
    assert predicted == set(times) | set(counts)
    assert listed == predicted | traced


def _fake_run(outdir, relative_error=0.5, payload="a"):
    outdir.mkdir(exist_ok=True)
    report = {"n_original": 10, "metrics": {"relative_error": relative_error}}
    (outdir / "report.json").write_text(json.dumps(report))
    (outdir / "decoded.csv").write_text(payload)
    (outdir / "manifest.json").write_text(str(payload) * 3)


def test_output_check_ignores_manifest_and_rejects_changes(tmp_path):
    _fake_run(tmp_path)
    reference = bench.check_outputs(tmp_path, None)
    (tmp_path / "manifest.json").write_text("other timings")
    assert bench.check_outputs(tmp_path, reference)["hashes"] == reference["hashes"]

    _fake_run(tmp_path, payload="b")
    with pytest.raises(bench.CheckFailed, match="decoded.csv"):
        bench.check_outputs(tmp_path, reference)
    (tmp_path / "decoded.csv").unlink()
    _fake_run(tmp_path)
    (tmp_path / "extra.csv").write_text("x")
    with pytest.raises(bench.CheckFailed, match="extra.csv"):
        bench.check_outputs(tmp_path, reference)


@pytest.mark.parametrize("bad", [None, math.nan, math.inf, "0.1"])
def test_output_check_requires_finite_relative_error(tmp_path, bad):
    _fake_run(tmp_path, relative_error=bad)
    with pytest.raises(bench.CheckFailed, match="relative_error"):
        bench.check_outputs(tmp_path, None)

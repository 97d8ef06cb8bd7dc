"""The statistics and parsing of the benchmark record writer, on fixed inputs."""

from __future__ import annotations

from pathlib import Path

import pytest

import bench_record


def test_spread_uses_inclusive_quartiles():
    assert bench_record.spread([5.0, 1.0, 4.0, 2.0, 3.0]) == {
        "median": 3.0, "q1": 2.0, "q3": 4.0, "iqr": 2.0,
    }
    assert bench_record.spread([10.0, 11.0, 12.0, 13.0]) == {
        "median": 11.5, "q1": 10.75, "q3": 12.25, "iqr": 1.5,
    }
    assert bench_record.spread([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0, "iqr": 0.0}


def test_compare_counts_wins_and_ties_in_the_better_direction():
    parent, change = [1.0, 2.0, 3.0, 4.0, 5.0], [0.5, 2.0, 2.5, 3.0, 6.0]
    lower = bench_record.compare(parent, change, better="lower")
    assert (lower["pair_wins"], lower["pair_ties"], lower["pairs"]) == (3, 1, 5)
    assert lower["parent"]["median"] == 3.0 and lower["change"]["median"] == 2.5
    assert lower["change"]["iqr"] == 1.0
    assert lower["median_change"] == pytest.approx(-1 / 6)
    higher = bench_record.compare(parent, change, better="higher")
    assert (higher["pair_wins"], higher["pair_ties"]) == (1, 1)


def test_claim_needs_nine_tenths_of_the_pairs_and_a_gap_above_the_parent_iqr():
    missed = bench_record.claim_result(
        bench_record.compare([1.0, 2.0, 3.0, 4.0, 5.0], [0.5, 2.0, 2.5, 3.0, 6.0], "lower")
    )
    assert missed["pair_wins"] == 3 and missed["median_gap"] == 0.5
    assert missed["parent_iqr"] == 2.0 and not missed["met"]
    met = bench_record.claim_result(
        bench_record.compare([10.0, 11.0, 12.0, 13.0], [8.0, 8.5, 9.0, 9.5], "lower")
    )
    assert met["pair_wins"] == 4 and met["median_gap"] == 2.75 and met["met"]
    # every pair won, but by less than the parent's spread
    small = bench_record.claim_result(
        bench_record.compare([10.0, 11.0, 12.0, 13.0], [9.9, 10.9, 11.9, 12.9], "lower")
    )
    assert small["pair_wins"] == 4 and not small["met"]


def test_parsing_of_seeds_runs_and_test_summaries():
    assert bench_record.parse_seeds("501-503,7") == [501, 502, 503, 7]
    line = (
        '{"correct": true, "attempted": 3, "failed": 0, '
        '"metrics": {"wall_s": {"value": 0.1, "unit": "s"}}}'
    )
    result = {"exit_code": 0, **bench_record.last_json_line("workload ...\n" + line + "\n")}
    assert bench_record.flat_run(9, result) == {
        "seed": 9, "exit_code": 0, "correct": True, "attempted": 3, "failed": 0, "wall_s": 0.1,
    }
    assert bench_record.last_json_line("Traceback ...") == {"correct": False, "metrics": {}}
    summary = "1 failed, 395 passed, 2 errors in 76.00s (0:01:16)"
    assert bench_record.tier1_summary(summary, 80.0) == {
        "passed": 395, "failed": 3, "wall_s": 76.0,
    }
    assert bench_record.tier1_summary("", 80.0) == {"passed": 0, "failed": 0, "wall_s": 80.0}


def test_three_traced_windows_per_side_and_workload(monkeypatch):
    root = Path(bench_record.__file__).resolve().parents[1]
    calls = []

    def fake_bench_run(checkout, workload, seed, seconds, trace):
        calls.append((workload, seed, trace))
        # a traced layer's self time by seed, and a layer that seed 2 does not record
        metrics = {"wall_s": {"value": 1.0}}
        if trace:
            metrics["tabular.write_csv.s"] = {"value": {1: 0.5, 2: 0.125, 3: 0.25}[seed]}
            if seed != 2:
                metrics["apps.yield_curve.nss_fit.s"] = {"value": 0.5}
        return {"exit_code": 0, "correct": True, "metrics": metrics}

    monkeypatch.setattr(bench_record, "bench_run", fake_bench_run)
    workloads = ["credit-cbp-mst", "yield-dd-pac-kde", "fi-dd-aim-staged"]
    argv = [
        "--parent", str(root), "--change", str(root), "--out", "unused.json", "--seeds", "1",
        "--no-tier1", "--workloads", *workloads,
    ]
    for extra in ([], ["--claim", "wall_s:yield-dd-pac-kde"]):
        calls.clear()
        doc = bench_record.record(bench_record.parse_args(argv + extra))
        assert list(doc["trace"]) == workloads
        for workload, trace in doc["trace"].items():
            assert f"--workload {workload} " in trace["command"]
            assert trace["seeds"] == [1, 2, 3]
            assert trace["correct"] == {"parent": True, "change": True}
            layer = trace["layers"]["tabular.write_csv.s"]
            assert layer["parent"] == layer["change"] == 0.25  # the median
            assert layer["spread"]["parent"] == {
                "median": 0.25, "q1": 0.1875, "q3": 0.375, "iqr": 0.1875,
            }
            assert trace["layers"]["apps.yield_curve.nss_fit.s"]["change"] == 0.5
            assert trace["layers"]["mechanisms.fit_aim_model.s"]["change"] is None
        traced = [(name, seed) for name, seed, trace in calls if trace]
        # each seed traced once per side
        assert traced == [
            (w, seed) for w in workloads for seed in (1, 2, 3) for _ in bench_record.SIDES
        ]
        assert sorted(name for name, _, trace in calls if not trace) == sorted(workloads * 2)

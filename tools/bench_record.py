#!/usr/bin/env python3
"""Benchmark a change against its parent and write the record as JSON.

Run from anywhere, with one checkout of each revision:

    python3 tools/bench_record.py --parent ../parent --change . --out BENCH_17.json \\
        --workloads credit-cbp-mst fi-dd-aim-staged yield-dd-pac-kde \\
        --seeds 501-510 --seconds 30 --claim wall_s:credit-cbp-mst

For each workload and seed it runs ``perfbench/bench.py --trace 0`` once in
each checkout, parent first on odd seeds and change first on even ones, and
keeps every run's last JSON line. It then adds three traced windows per side
and workload (``--trace 1`` at ``TRACE_SEEDS``, in the same alternating
order), of which it keeps each layer's median and quartiles, and one Tier-1
test run per side, and writes the revisions, seeds, runs, per-metric
medians, quartiles and pair wins, and, with ``--claim``, whether the
claimed gain was met: won in at least nine tenths of the pairs, by a
median gap larger than the parent's IQR.
Metric names, units, bounds and directions come from the change's
``BENCHMARK.json``. Nothing here changes what ``bench.py`` measures. Use
two fresh clones: a checkout with bytecode caches where the other has none
is refused.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from importlib.metadata import version
from pathlib import Path

SIDES = ("parent", "change")
BENCH = ["perfbench/bench.py"]
# the seeds of the traced windows, each traced on both sides
TRACE_SEEDS = (1, 2, 3)
TIER1 = [
    "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
]


def spread(values) -> dict:
    """Median, first and third quartile (inclusive method) and IQR of ``values``."""
    values = list(values)
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def compare(parent, change, better: str) -> dict:
    """Spread of each side, relative median change and pair wins of one metric.

    ``parent`` and ``change`` hold one value per pair, in pair order; a pair is
    won when the change's value is better, and ties count for neither side.
    """
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    stats = {"parent": spread(parent), "change": spread(change)}
    base = stats["parent"]["median"]
    stats["median_change"] = (stats["change"]["median"] - base) / base if base else 0.0
    stats.update(pair_wins=wins, pair_ties=ties, pairs=len(parent))
    return stats


def claim_result(stats: dict) -> dict:
    """Whether a claimed gain was met: nine tenths of the pairs won, and a
    median gap larger than the parent's IQR."""
    gap = abs(stats["change"]["median"] - stats["parent"]["median"])
    met = (
        stats["pair_wins"] >= 0.9 * stats["pairs"]
        and gap > stats["parent"]["iqr"]
    )
    return {
        "median_change": stats["median_change"],
        "pair_wins": stats["pair_wins"],
        "pairs": stats["pairs"],
        "median_gap": gap,
        "parent_iqr": stats["parent"]["iqr"],
        "met": met,
    }


def trace_layer(traced: dict, name: str, unit: str) -> dict:
    """One layer of the traced windows: its unit, each side's median over
    the windows that recorded it (None if none did) and each side's spread."""
    layer = {"unit": unit, "spread": {}}
    for side in SIDES:
        values = [
            run["metrics"][name]["value"] for run in traced[side]
            if run.get("metrics", {}).get(name, {}).get("value") is not None
        ]
        layer["spread"][side] = spread(values) if values else None
        layer[side] = layer["spread"][side]["median"] if values else None
    return layer


def parse_seeds(text: str) -> list[int]:
    """``"501-510"`` or ``"3,5,17"`` as a list of seeds."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def last_json_line(stdout: str) -> dict:
    """The last line of ``bench.py``'s output, which is one JSON object."""
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "metrics": {}}


def bench_run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``bench.py`` invocation in ``checkout``: its exit code and last line."""
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(
        [sys.executable, *BENCH, *args, "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True,
    )
    if done.returncode != 0:
        print(done.stderr[-2000:], file=sys.stderr)
    return {"exit_code": done.returncode, **last_json_line(done.stdout)}


def flat_run(seed: int, result: dict) -> dict:
    """A run as one flat record: seed, exit code, checks, then each metric's value."""
    record = {"seed": seed, "exit_code": result["exit_code"]}
    for key in ("correct", "attempted", "failed"):
        record[key] = result.get(key)
    record.update({name: m["value"] for name, m in result.get("metrics", {}).items()})
    return record


def tier1_run(checkout: Path) -> dict:
    """Passed and failed counts and the run time of one Tier-1 run."""
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, *TIER1], cwd=checkout, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(checkout / "src")},
    )
    lines = done.stdout.strip().splitlines()
    return tier1_summary(lines[-1] if lines else "", time.perf_counter() - started)


def tier1_summary(line: str, elapsed: float) -> dict:
    """Counts and run time from pytest's last line, e.g. ``"1 failed, 395
    passed in 76.00s (0:01:16)"``; errors count as failed, and ``elapsed``
    stands in for a time the line does not give."""
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (passed|failed|error)", line)}
    timed = re.search(r" in ([\d.]+)s", line)
    return {
        "passed": counts.get("passed", 0),
        "failed": counts.get("failed", 0) + counts.get("error", 0),
        "wall_s": float(timed.group(1)) if timed else elapsed,
    }


def revision(checkout: Path) -> str:
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True, text=True
    )
    return done.stdout.strip() or "unknown"


def record(args) -> dict:
    checkouts = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    # a bytecode cache on one side only spares that side compiling, so its
    # setup_s reads lower; the two sides must start alike
    cached = {side: any(path.glob("src/**/__pycache__")) for side, path in checkouts.items()}
    if len(set(cached.values())) > 1:
        raise SystemExit(f"only one checkout holds __pycache__ directories: {cached}")
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {row["name"]: row for row in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    doc = {
        "benchmark": "perfbench/bench.py of each checkout; metrics and bounds as in BENCHMARK.json",
        "parent": revision(checkouts["parent"]),
        "change": revision(checkouts["change"]),
        "host": f"{os.cpu_count()}-CPU {platform.machine()} host; Python "
        f"{platform.python_version()}, NumPy {version('numpy')}; times scaled by bench.py "
        "to its reference speed",
        "command": f"python3 perfbench/bench.py --workload <workload> --seed <seed> "
        f"--seconds {args.seconds:g} --trace 0",
        "checkouts": "each side run from its own checkout of its revision",
        "order": "alternating pairs: parent first on odd seeds, change first on even seeds",
        "quartiles": "statistics.quantiles(n=4, method='inclusive') over the per-run values",
        "pair_wins": "pairs (same workload and seed) in which the change's value is better "
        "than the parent's; ties count for neither",
        "workloads": {},
    }
    for workload in args.workloads:
        runs = {side: [] for side in SIDES}
        for seed in seeds:
            for side in SIDES if seed % 2 else SIDES[::-1]:
                result = bench_run(checkouts[side], workload, seed, args.seconds, 0)
                runs[side].append(flat_run(seed, result))
                print(f"{workload} seed {seed} {side}: {runs[side][-1]}", file=sys.stderr)
        table = {}
        for name, row in metrics.items():
            pairs = [
                (p[name], c[name]) for p, c in zip(runs["parent"], runs["change"])
                if name in p and name in c
            ]
            if pairs:
                stats = compare(*zip(*pairs), better=row["better"])
                table[name] = {"unit": row["unit"], "better": row["better"],
                               "bound": row["bound"], **stats}
        doc["workloads"][workload] = {"seeds": seeds, "runs": runs, "metrics": table}
    if args.claim:
        metric, _, workload = args.claim.partition(":")
        stats = doc["workloads"][workload]["metrics"][metric]
        doc["claim"] = {"metric": metric, "workload": workload,
                        "needs": "won in at least nine tenths of the pairs, median gap "
                        "larger than the parent's IQR", "result": claim_result(stats)}
    units = {row["name"]: row["unit"] for row in spec["per_layer"]}
    doc["trace"] = {}
    for workload in args.workloads:
        traced = {side: [] for side in SIDES}
        for seed in TRACE_SEEDS:
            for side in SIDES if seed % 2 else SIDES[::-1]:
                traced[side].append(
                    bench_run(checkouts[side], workload, seed, args.trace_seconds, 1)
                )
        doc["trace"][workload] = {
            "command": f"python3 perfbench/bench.py --workload {workload} --seed <seed> "
            f"--seconds {args.trace_seconds:g} --trace 1",
            "seeds": list(TRACE_SEEDS),
            "note": "one traced window per side and seed, parent first on odd seeds and "
            "change first on even ones; each side's value is the median over the seeds, "
            "and spread gives its quartiles; self times (.s) are scaled to the reference "
            "speed like wall_s, counts are exact",
            "correct": {side: all(run.get("correct") for run in traced[side]) for side in SIDES},
            "layers": {name: trace_layer(traced, name, unit) for name, unit in units.items()},
        }
    if args.tier1:
        doc["tier1"] = {
            "command": "PYTHONPATH=src python -m pytest -q --continue-on-collection-errors "
            "-p no:cacheprovider",
            "note": "one run per side, parent first, after the benchmark runs; "
            "pytest's reported run time",
            **{side: tier1_run(checkouts[side]) for side in SIDES},
        }
    return doc


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent revision")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", required=True, help='e.g. "501-510" or "3,5,17"')
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--claim", help="METRIC:WORKLOAD of a claimed gain")
    parser.add_argument("--trace-seconds", type=float, default=10.0)
    parser.add_argument("--tier1", action=argparse.BooleanOptionalAction, default=True,
                        help="run the Tier-1 tests once per side (default: yes)")
    args = parser.parse_args(argv)
    if args.claim and (":" not in args.claim or args.claim.split(":")[1] not in args.workloads):
        parser.error("--claim needs METRIC:WORKLOAD, with a workload of --workloads")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    doc = record(args)
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    correct = all(
        ok for trace in doc["trace"].values() for ok in trace["correct"].values()
    ) and all(
        run["exit_code"] == 0 and run["correct"]
        for entry in doc["workloads"].values() for side in SIDES for run in entry["runs"][side]
    )
    print(f"wrote {args.out}; every run correct: {correct}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

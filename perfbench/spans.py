"""Per-layer spans recorded from outside the package.

The tracer wraps the public functions of each synthbank module and records
one span per call: name, start, end, parent span and run id, plus exact work
counts taken from the call's arguments and result. Spans stay in memory;
the caller writes them out when the benchmark ends.

``pipeline.py`` binds most functions with ``from ... import``, so a wrapper
on the defining module alone would see none of the pipeline's calls. Each
wrapper is therefore installed on every module attribute that holds the
original function, and taken off again when tracing stops.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time


def _arg(fn, args, kwargs, name):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _bytes_written(fn, args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(fn, args, kwargs, "path"))}


def _rows_and_bytes_read(fn, args, kwargs, result):
    return {"rows": result.n_records, "bytes": os.path.getsize(_arg(fn, args, kwargs, "path"))}


def _rows_read(fn, args, kwargs, result):
    return {"rows": result.n_records}


def _rows_generated(fn, args, kwargs, result):
    parts = result if isinstance(result, tuple) else (result,)
    return {"rows": sum(part.n_records for part in parts if hasattr(part, "n_records"))}


def _distinct_values(fn, args, kwargs, result):
    import numpy as np

    values = np.asarray(_arg(fn, args, kwargs, "values"), dtype=np.float64)
    return {"distinct_values": int(np.unique(values).size)}


def _kernel_evals(fn, args, kwargs, result):
    spec = _arg(fn, args, kwargs, "spec")
    n_values = len(_arg(fn, args, kwargs, "original_values"))
    return {"kernel_evals": spec.grid_points * n_values}


def _noised_cells(fn, args, kwargs, result):
    sigma = _arg(fn, args, kwargs, "sigma")
    return {"noised_cells": int(result.counts.size) if sigma > 0 else 0}


def _rows_sampled(fn, args, kwargs, result):
    return {"rows": int(result.shape[0])}


def _aim_rounds(fn, args, kwargs, result):
    # a measured marginal is used when the final forest keeps its pair as
    # an edge, or its attribute as a component root
    edges = {tuple(sorted(edge)) for edge in result.edges}
    used = sum(
        1
        for item in result.measured
        if (len(item["attrs"]) == 2 and tuple(sorted(item["attrs"])) in edges)
        or (len(item["attrs"]) == 1 and item["attrs"][0] in result.roots)
    )
    return {"rounds": len(result.measured), "used": used}


def _pac_levels(fn, args, kwargs, result):
    candidates = sum(level.n_candidates for level in result)
    noised = candidates if any(level.sigma > 0 for level in result) else 0
    return {
        "candidates": candidates,
        "survivors": sum(level.n_survivors for level in result),
        "noised_cells": noised,
    }


def _kept_rows(fn, args, kwargs, result):
    import numpy as np

    kept = np.ones(result.n_records, dtype=bool)
    for j, codec in enumerate(result.codebook):
        if codec.has_suppressed:
            kept &= result.codes[:, j] != codec.suppressed_code
    return {"rows": result.n_records, "kept_rows": int(kept.sum())}


# (span name, module, attribute, counter); the span name is the layer
# metric prefix, so several functions may share one layer
LAYERS = (
    ("pipeline.gen_data", "synthbank.pipeline", "Pipeline.gen_data", None),
    ("pipeline.encode", "synthbank.pipeline", "Pipeline.encode", None),
    ("pipeline.synth", "synthbank.pipeline", "Pipeline.synthesize", None),
    ("pipeline.decode", "synthbank.pipeline", "Pipeline.decode", None),
    ("pipeline.eval", "synthbank.pipeline", "Pipeline.evaluate", None),
    ("population.generate", "synthbank.population", "generate_fi_population", _rows_generated),
    ("population.generate", "synthbank.population", "generate_term_deposits", _rows_generated),
    ("population.generate", "synthbank.population", "generate_credit_cards", _rows_generated),
    ("tabular.write_csv", "synthbank.tabular", "write_csv", _bytes_written),
    ("tabular.read_csv", "synthbank.tabular", "read_csv", _rows_and_bytes_read),
    ("binning.write_encoded_csv", "synthbank.binning", "write_encoded_csv", _bytes_written),
    ("binning.read_encoded_csv", "synthbank.binning", "read_encoded_csv", _rows_read),
    ("binning.encode_dataset", "synthbank.binning", "encode_dataset", None),
    ("binning.kmeans_1d", "synthbank.binning", "kmeans_1d", _distinct_values),
    ("binning.equal_frequency_bins", "synthbank.binning", "equal_frequency_bins", None),
    ("binning.explicit_bins", "synthbank.binning", "explicit_bins", None),
    ("binning.uniform_width_bins", "synthbank.binning", "uniform_width_bins", None),
    ("decoding.decode_dataset", "synthbank.decoding", "decode_dataset", None),
    ("decoding.kde_decode", "synthbank.decoding", "kde_decode", _kernel_evals),
    ("mechanisms.mutual_information", "synthbank.mechanisms", "mutual_information", None),
    ("mechanisms.fit_mst_model", "synthbank.mechanisms", "fit_mst_model", None),
    ("mechanisms.fit_aim_model", "synthbank.mechanisms", "fit_aim_model", _aim_rounds),
    ("mechanisms.TreeModel.sample", "synthbank.mechanisms", "TreeModel.sample", _rows_sampled),
    ("mechanisms.pac_aggregate", "synthbank.mechanisms", "pac_aggregate", _pac_levels),
    ("mechanisms.pac_synthesize", "synthbank.mechanisms", "pac_synthesize", _kept_rows),
    ("privacy.add_gaussian_noise", "synthbank.privacy", "add_gaussian_noise", _noised_cells),
    ("apps.credit", "synthbank.apps.credit", "active_both_filter", None),
    ("apps.credit", "synthbank.apps.credit", "transition_matrix", None),
    ("apps.credit", "synthbank.apps.credit", "frobenius_error", None),
    ("apps.credit", "synthbank.apps.credit", "delinquency_rate", None),
    ("apps.yield_curve.build_yield_curves", "synthbank.apps.yield_curve", "build_yield_curves", None),
    ("apps.yield_curve.lowess", "synthbank.apps.yield_curve", "lowess", None),
    ("apps.yield_curve.nss_fit", "synthbank.apps.yield_curve", "nss_fit", None),
    ("apps.usage_index.build_usage_indicators", "synthbank.apps.usage_index",
     "build_usage_indicators", None),
    ("apps.usage_index.pca_usage_component", "synthbank.apps.usage_index",
     "pca_usage_component", None),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, *_ in LAYERS))


class TracerError(RuntimeError):
    """The tracer was installed twice."""


class Tracer:
    """Records spans for every layer in ``LAYERS`` while installed."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._run = None
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrapping

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "run": self._run,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "count_s": 0.0,
            }
            self.spans.append(span)
            self._stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                # counting runs after the span closes; its time is charged
                # to no layer, so it does not inflate the parent's self time
                span.update(counter(fn, args, kwargs, result))
                span["count_s"] = time.perf_counter() - span["end"]
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every binding of every layer function in the loaded package."""
        if self._patches:
            raise TracerError("tracer already installed")
        for name, module_name, attr, counter in LAYERS:
            module = importlib.import_module(module_name)
            if "." in attr:
                owner_name, method = attr.split(".")
                owner = getattr(module, owner_name)
                self._patch(owner, method, self._wrap(name, getattr(owner, method), counter))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, counter)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or mod_name.split(".")[0] != "synthbank":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, key, wrapper) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def traced_run(self, run_id, fn):
        """Call ``fn()`` with the wrappers installed, tagging spans with ``run_id``."""
        self.install()
        self._run = run_id
        try:
            return fn()
        finally:
            self._run = None
            self.uninstall()

    # ------------------------------------------------------------ analysis

    def run_spans(self, run_id) -> list[dict]:
        return [span for span in self.spans if span["run"] == run_id]


def self_times(spans) -> dict:
    """Self time per span name: duration minus the time covered by children.

    Calls are sequential, so children of one span never overlap; a child's
    counting time lies inside the parent's interval too and is subtracted.
    """
    covered = {span["id"]: 0.0 for span in spans}
    for span in spans:
        if span["parent"] is not None and span["parent"] in covered:
            covered[span["parent"]] += span["end"] - span["start"] + span["count_s"]
    totals = {name: 0.0 for name in SPAN_NAMES}
    for span in spans:
        totals[span["name"]] += span["end"] - span["start"] - covered[span["id"]]
    return totals


def layer_metrics(spans) -> tuple[dict, dict, dict]:
    """Per-layer times and exact counts of one traced run.

    Returns ``(times, counts, calls)``: self times in seconds and counts
    (integers, or ratios of integers) keyed by per-layer metric name, and
    the number of spans per span name.
    """
    selfs = self_times(spans)
    calls = {name: 0 for name in SPAN_NAMES}
    sums: dict = {}
    for span in spans:
        calls[span["name"]] += 1
        for key, value in span.items():
            if key not in ("id", "name", "run", "parent", "start", "end", "count_s"):
                sums[(span["name"], key)] = sums.get((span["name"], key), 0) + value

    def total(name, key):
        return sums.get((name, key), 0)

    def ratio(num, den):
        return num / den if den else 0.0

    times = {f"{name}.s": selfs[name] for name in SPAN_NAMES if not name.startswith(
        ("privacy.", "mechanisms.pac_synthesize"))}
    times["mechanisms.pac_synthesize.assembly_s"] = selfs["mechanisms.pac_synthesize"]
    counts = {
        "population.rows": total("population.generate", "rows"),
        "tabular.write_csv.bytes": total("tabular.write_csv", "bytes"),
        "tabular.write_csv.calls": calls["tabular.write_csv"],
        "tabular.read_csv.rows": total("tabular.read_csv", "rows"),
        "tabular.read_csv.bytes": total("tabular.read_csv", "bytes"),
        "tabular.read_csv.calls": calls["tabular.read_csv"],
        "binning.read_encoded_csv.rows": total("binning.read_encoded_csv", "rows"),
        "binning.read_encoded_csv.calls": calls["binning.read_encoded_csv"],
        "binning.write_encoded_csv.bytes": total("binning.write_encoded_csv", "bytes"),
        "binning.kmeans_1d.distinct_values": total("binning.kmeans_1d", "distinct_values"),
        "decoding.kde_decode.kernel_evals": total("decoding.kde_decode", "kernel_evals"),
        "decoding.kde_decode.calls": calls["decoding.kde_decode"],
        "mechanisms.mutual_information.calls": calls["mechanisms.mutual_information"],
        "mechanisms.aim.used_ratio": ratio(
            total("mechanisms.fit_aim_model", "used"), total("mechanisms.fit_aim_model", "rounds")
        ),
        "mechanisms.TreeModel.sample.rows": total("mechanisms.TreeModel.sample", "rows"),
        "mechanisms.pac_aggregate.candidates": total("mechanisms.pac_aggregate", "candidates"),
        "mechanisms.pac_aggregate.survivors": total("mechanisms.pac_aggregate", "survivors"),
        "mechanisms.pac_aggregate.survivor_ratio": ratio(
            total("mechanisms.pac_aggregate", "survivors"),
            total("mechanisms.pac_aggregate", "candidates"),
        ),
        "mechanisms.pac.kept_row_ratio": ratio(
            total("mechanisms.pac_synthesize", "kept_rows"),
            total("mechanisms.pac_synthesize", "rows"),
        ),
        # PAC adds its Gaussian noise inline, so its noised candidate
        # cells are counted next to the add_gaussian_noise cells
        "privacy.noised_cells": total("privacy.add_gaussian_noise", "noised_cells")
        + total("mechanisms.pac_aggregate", "noised_cells"),
    }
    return times, counts, calls

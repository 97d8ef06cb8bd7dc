"""Bin-edge and KDE decoding."""

import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from synthbank.binning import (
    BinningRule,
    Codebook,
    ColumnCodec,
    EncodedDataset,
    assign_codes,
    encode_dataset,
)
from synthbank.decoding import (
    DecodeError,
    KdeSpec,
    decode_dataset,
    decode_left_edge,
    decode_midpoint,
    decoded_schema,
    kde_decode,
)
from synthbank.tabular import NUMERIC, ColumnSpec, Dataset


def codebook_with_edges(edges, log_flag=False, name="x"):
    return Codebook([ColumnCodec(name=name, kind="binned", edges=tuple(edges), log_flag=log_flag)])


def test_left_edge_lookup():
    cb = codebook_with_edges([0.0, 10.0, 20.0, 30.0])
    assert decode_left_edge([2], cb, "x")[0] == 20.0


def test_left_edge_first_bin():
    cb = codebook_with_edges([0.0, 10.0, 20.0])
    assert decode_left_edge([0], cb, "x")[0] == 0.0


def test_left_edge_log_flagged():
    cb = codebook_with_edges([math.log(100.0), math.log(1000.0)], log_flag=True)
    value = decode_left_edge([0], cb, "x")[0]
    assert abs(value - 100.0) / 100.0 < 1e-9


def test_left_edge_out_of_domain():
    cb = codebook_with_edges([0.0, 10.0])
    with pytest.raises(DecodeError, match="out of domain"):
        decode_left_edge([1], cb, "x")


def test_midpoint_basic():
    cb = codebook_with_edges([0.0, 10.0])
    assert decode_midpoint([0], cb, "x")[0] == 5.0


def test_midpoint_single_bin_column():
    cb = codebook_with_edges([2.0, 8.0])
    assert decode_midpoint([0], cb, "x")[0] == 5.0


def test_midpoint_unbounded_final_bin_convention():
    cb = codebook_with_edges([0.0, 10.0, 30.0, np.inf])
    # final bin: left edge 30 plus half the previous width (20) -> 40
    assert decode_midpoint([2], cb, "x")[0] == 40.0


def test_kde_point_mass_concentrates():
    cb = codebook_with_edges([0.0, 10.0])
    original = np.full(500, 5.0)
    out = kde_decode(np.zeros(200, dtype=int), cb, "x", original, KdeSpec(), np.random.default_rng(1))
    assert np.all(out == 5.0)


def test_kde_outputs_stay_in_bin():
    rng = np.random.default_rng(2)
    original = rng.normal(50.0, 20.0, 4000).clip(1, 99)
    schema = (ColumnSpec("x", NUMERIC),)
    ds = Dataset(schema, [original])
    enc = encode_dataset(ds, {"x": BinningRule("equal_frequency", k=6)})
    codes = enc.column_codes("x")
    out = kde_decode(codes, enc.codebook, "x", original, KdeSpec(), np.random.default_rng(3))
    edges = np.asarray(enc.codebook["x"].edges)
    assert np.all(out >= edges[codes])
    assert np.all(out <= edges[codes + 1])
    assert np.all((out >= original.min()) & (out <= original.max()))
    # bin consistency: decoded values re-encode to their source codes
    assert np.array_equal(assign_codes(out, edges), codes)


def test_kde_bimodal_ks_statistic():
    rng = np.random.default_rng(5)
    original = np.concatenate([rng.normal(0, 1, 5000), rng.normal(10, 1, 5000)])
    schema = (ColumnSpec("x", NUMERIC),)
    ds = Dataset(schema, [original])
    enc = encode_dataset(ds, {"x": BinningRule("equal_frequency", k=8)})
    codes = enc.column_codes("x")
    out = kde_decode(codes, enc.codebook, "x", original, KdeSpec(), np.random.default_rng(6))
    stat = ks_2samp(out, original).statistic
    assert stat < 0.1, stat


def test_kde_deterministic_under_seed():
    rng = np.random.default_rng(7)
    original = rng.uniform(0, 1, 1000)
    schema = (ColumnSpec("x", NUMERIC),)
    ds = Dataset(schema, [original])
    enc = encode_dataset(ds, {"x": BinningRule("equal_frequency", k=4)})
    codes = enc.column_codes("x")
    a = kde_decode(codes, enc.codebook, "x", original, KdeSpec(), np.random.default_rng(9))
    b = kde_decode(codes, enc.codebook, "x", original, KdeSpec(), np.random.default_rng(9))
    assert np.array_equal(a, b)


def test_kde_empty_bin_falls_back_to_left_edge():
    # data bounds [0, 1]; the second bin [50, 100) holds no grid point
    cb = codebook_with_edges([0.0, 50.0, 100.0])
    original = np.linspace(0.0, 1.0, 100)
    with pytest.warns(UserWarning, match="no grid point"):
        out = kde_decode([1, 1], cb, "x", original, KdeSpec(), np.random.default_rng(10))
    assert np.all(out == 50.0)


def test_decode_dataset_round_trip_consistency():
    rng = np.random.default_rng(11)
    schema = (
        ColumnSpec("gender", "categorical", levels=("M", "F")),
        ColumnSpec("cap", NUMERIC),
        ColumnSpec("days", NUMERIC),
    )
    ds = Dataset(
        schema,
        [
            rng.integers(0, 2, 800),
            np.exp(rng.normal(10, 2, 800)),
            rng.uniform(1, 3000, 800),
        ],
    )
    rules = {
        "cap": BinningRule("kmeans_1d", k=5, log_pretransform=True),
        "days": BinningRule("equal_frequency", k=6),
    }
    enc = encode_dataset(ds, rules)
    for mode in ("left_edge", "midpoint", "kde"):
        decoded = decode_dataset(enc, mode=mode, source=ds, rng=np.random.default_rng(12))
        assert decoded.n_records == ds.n_records
        assert decoded.schema == decoded_schema(enc.codebook)
        assert np.array_equal(decoded.column("gender"), ds.column("gender"))
        re_encoded = encode_dataset(decoded, rules)
        if mode == "kde":
            # same bins, though data-driven edges are refit on decoded values
            codec = enc.codebook["cap"]
            vals = np.log(decoded.column("cap"))
            assert np.array_equal(
                assign_codes(vals, codec.edges), enc.column_codes("cap")
            )
        del re_encoded


def test_decode_dataset_rejects_suppressed():
    codecs = [ColumnCodec(name="x", kind="binned", edges=(0.0, 1.0), has_suppressed=True)]
    enc = EncodedDataset(np.array([[1]]), Codebook(codecs))
    with pytest.raises(DecodeError, match="suppressed"):
        decode_dataset(enc, mode="left_edge")


def test_midpoint_and_left_edge_give_different_curependencies():
    rng = np.random.default_rng(13)
    values = rng.uniform(0, 29.9, 500)
    schema = (ColumnSpec("x", NUMERIC),)
    ds = Dataset(schema, [values])
    enc = encode_dataset(ds, {"x": BinningRule("explicit_cutoffs", cutoffs=(10.0, 20.0, 30.0))})
    left = decode_left_edge(enc.column_codes("x"), enc.codebook, "x")
    mid = decode_midpoint(enc.column_codes("x"), enc.codebook, "x")
    assert np.all(mid > left)
    assert np.mean(np.abs(mid - values)) < np.mean(np.abs(left - values))


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"grid_points": "abc"}, "grid_points must be an integer >= 16, got 'abc'"),
        ({"grid_points": 64.0}, "grid_points must be an integer"),
        ({"bandwidth": "1"}, "unknown bandwidth rule"),
        ({"bandwidth": [1]}, "bandwidth must be positive, got [1]"),
    ],
)
def test_kde_spec_rejects_wrong_types(spec, message):
    with pytest.raises(DecodeError, match=message.replace("[", r"\[").replace("]", r"\]")):
        KdeSpec(**spec)

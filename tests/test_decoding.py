"""Bin-edge and KDE decoding."""

import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from synthbank import decoding

from synthbank.binning import (
    BinningRule,
    Codebook,
    ColumnCodec,
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
from synthbank.population import DepositMarketConfig, generate_term_deposits
from synthbank.presets import deposit_rules
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


def reference_kde_density(values, first, step, grid_n, bandwidth):
    """The direct O(G n) Gaussian sum that the binned FFT estimate replaced."""
    grid = first + step * np.arange(grid_n)
    density = np.zeros(grid_n)
    chunk = max(1, int(2_000_000 // max(values.size, 1)))
    for start in range(0, grid_n, chunk):
        block = grid[start : start + chunk, None] - values[None, :]
        density[start : start + chunk] = np.exp(-0.5 * (block / bandwidth) ** 2).sum(axis=1)
    return density / (values.size * bandwidth * np.sqrt(2.0 * np.pi))


def total_variation(p, q):
    return 0.5 * np.abs(p / p.sum() - q / q.sum()).sum()


def deposit_log_capitals(n):
    deposits = generate_term_deposits(DepositMarketConfig(n_deposits=n), np.random.default_rng(21))
    return np.log(deposits.column("Capital"))


@pytest.mark.parametrize(
    "values",
    [
        np.random.default_rng(14).normal(0.0, 1.0, 15_000),
        np.random.default_rng(15).uniform(0.0, 1.0, 15_000),
        deposit_log_capitals(15_000),
    ],
    ids=["normal", "uniform", "log-capital"],
)
@pytest.mark.parametrize("steps, tolerance", [(2.0, 1e-3), (0.5, 1e-2)])
def test_binned_density_matches_direct_sum(values, steps, tolerance):
    # 15k values on 512 points, as in a yield run; the binning error falls
    # as the bandwidth grows and as values per grid step grow
    grid_n = 512
    lo, hi = values.min(), values.max()
    step = (hi - lo) / grid_n
    for offset in np.random.default_rng(16).uniform(0.0, step, 4):
        args = (values, lo + offset, step, grid_n, steps * step)
        binned = decoding._kde_density(*args)
        assert np.all(binned >= 0.0)
        assert total_variation(binned, reference_kde_density(*args)) <= tolerance


def test_binned_density_with_bounds_narrower_than_the_data():
    values = np.random.default_rng(17).normal(0.0, 1.0, 15_000)
    grid_n, bandwidth = 512, 0.3  # reaches far past the bounds
    lo, hi = -0.5, 0.5
    step = (hi - lo) / grid_n
    args = (values, lo + 0.3 * step, step, grid_n, bandwidth)
    assert total_variation(decoding._kde_density(*args), reference_kde_density(*args)) <= 1e-3

    cb = codebook_with_edges([-4.0, -0.2, 0.1, 4.0])
    codes = np.repeat([0, 1, 2], 50)
    spec = KdeSpec(bandwidth=bandwidth, bounds=(lo, hi))
    out = kde_decode(codes, cb, "x", values, spec, np.random.default_rng(18))
    assert np.all((out >= lo) & (out <= hi))
    assert np.array_equal(assign_codes(out, cb["x"].edges), codes)


def test_kde_bin_beyond_kernel_reach_is_sampled_uniformly():
    # values in [0, 1], kernel sd 0.1: the grid points of [50, 100] are
    # hundreds of bandwidths away and have density exactly 0
    cb = codebook_with_edges([0.0, 50.0, 100.0])
    values = np.random.default_rng(19).uniform(0.0, 1.0, 1000)
    spec = KdeSpec(bandwidth=0.1, grid_points=64, bounds=(0.0, 100.0))
    out = kde_decode(np.ones(40, dtype=int), cb, "x", values, spec, np.random.default_rng(20))

    replay = np.random.default_rng(20)
    step = 100.0 / 64
    grid = replay.uniform(0.0, step) + step * np.arange(64)
    points = grid[grid >= 50.0]
    expected = replay.choice(points, size=40, replace=True, p=np.full(points.size, 1.0 / points.size))
    assert np.array_equal(out, expected)


def direct_sum_decode(monkeypatch, decode):
    """Run ``decode`` with kde_decode's density taken from the direct sum."""
    with monkeypatch.context() as patch:
        patch.setattr(decoding, "_kde_density", reference_kde_density)
        return decode()


def test_kde_decode_consumes_the_same_rng_stream_as_the_direct_sum(monkeypatch):
    rng = np.random.default_rng(22)
    original = np.concatenate([rng.normal(0, 1, 3000), rng.normal(6, 2, 3000)])
    ds = Dataset((ColumnSpec("x", NUMERIC),), [original])
    enc = encode_dataset(ds, {"x": BinningRule("equal_frequency", k=7)})
    codes = enc.column_codes("x")[::3]

    def decode(rng):
        return kde_decode(codes, enc.codebook, "x", original, KdeSpec(), rng)

    binned_rng, direct_rng = np.random.default_rng(23), np.random.default_rng(23)
    decode(binned_rng)
    direct_sum_decode(monkeypatch, lambda: decode(direct_rng))
    assert binned_rng.bit_generator.state == direct_rng.bit_generator.state


def test_kde_decoded_deposits_match_the_direct_sum_but_for_few_cells(monkeypatch):
    deposits = generate_term_deposits(DepositMarketConfig(n_deposits=15_000), np.random.default_rng(24))
    enc = encode_dataset(deposits, deposit_rules("data_driven"))

    def decode():
        return decode_dataset(enc, mode="kde", source=deposits, rng=np.random.default_rng(25))

    binned, direct = decode(), direct_sum_decode(monkeypatch, decode)
    cells = differ = 0
    for name in ("Capital", "Term", "InterestRate"):
        cells += deposits.n_records
        differ += int(np.sum(binned.column(name) != direct.column(name)))
    assert differ < 1e-3 * cells, (differ, cells)


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
        ({"bandwidth": True}, "bandwidth must not be a boolean, got True"),
    ],
)
def test_kde_spec_rejects_wrong_types(spec, message):
    with pytest.raises(DecodeError, match=message.replace("[", r"\[").replace("]", r"\]")):
        KdeSpec(**spec)

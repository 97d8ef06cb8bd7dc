"""Discretization operators against exact oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synthbank.binning import (
    BinningError,
    BinningRule,
    assign_codes,
    encode_dataset,
    equal_frequency_bins,
    explicit_bins,
    kmeans_1d,
    log_pretransform,
    read_encoded_csv,
    uniform_width_bins,
    write_encoded_csv,
)
from synthbank.presets import CBP_AGE_CUTOFFS, deposit_rules
from synthbank.tabular import CATEGORICAL, NUMERIC, ColumnSpec, Dataset, TabularError
from util import make_encoded


# ---------------------------------------------------------------- explicit

def test_explicit_age_band_paper_example():
    codes, edges = explicit_bins([30.0], CBP_AGE_CUTOFFS)
    assert codes[0] == 1  # 25-35 band
    assert len(edges) == 8


def test_explicit_first_bin():
    codes, _ = explicit_bins([24.0], CBP_AGE_CUTOFFS)
    assert codes[0] == 0


def test_explicit_above_max_errors():
    with pytest.raises(BinningError, match="111"):
        explicit_bins([111.0], CBP_AGE_CUTOFFS)


def test_explicit_max_value_closed():
    codes, _ = explicit_bins([110.0], CBP_AGE_CUTOFFS)
    assert codes[0] == 6


def test_explicit_bin_count_equals_cutoff_count():
    codes, edges = explicit_bins([0.0, 5.0, 10.0], (2.0, 6.0, 10.0))
    assert len(edges) - 1 == 3
    assert list(codes) == [0, 1, 2]


def test_explicit_order_preserving_property():
    rng = np.random.default_rng(5)
    values = rng.uniform(0, 110, size=500)
    codes, _ = explicit_bins(values, CBP_AGE_CUTOFFS)
    order = np.argsort(values)
    assert np.all(np.diff(codes[order]) >= 0)


# ---------------------------------------------------------- equal frequency

def brute_counts(codes, k):
    return np.bincount(codes, minlength=k)


def test_equal_frequency_balanced():
    codes, edges = equal_frequency_bins(np.arange(1, 9, dtype=float), 4)
    assert list(brute_counts(codes, 4)) == [2, 2, 2, 2]
    assert edges[0] == 1.0 and edges[-1] == 8.0


def test_equal_frequency_k1():
    codes, edges = equal_frequency_bins([5.0, 2.0, 9.0], 1)
    assert np.all(codes == 0)
    assert edges[0] == 2.0 and edges[-1] == 9.0


def test_equal_frequency_ties_share_bin():
    values = np.array([1.0, 1.0, 1.0, 1.0, 2.0, 3.0])
    codes, _ = equal_frequency_bins(values, 2)
    ones = codes[values == 1.0]
    assert len(set(ones.tolist())) == 1  # exhaustive: every 1 in one bin
    assert list(brute_counts(codes, 2)) == [4, 2]


def test_equal_frequency_too_many_bins():
    with pytest.raises(BinningError, match="smaller k"):
        equal_frequency_bins([1.0, 1.0, 2.0], 3)


def test_equal_frequency_codes_consistent_with_edges():
    rng = np.random.default_rng(11)
    values = rng.normal(size=300)
    codes, edges = equal_frequency_bins(values, 7)
    assert np.array_equal(codes, assign_codes(values, edges))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=2,
        max_size=60,
        unique=True,
    ),
    st.integers(1, 8),
)
def test_equal_frequency_balance_property(values, k):
    values = np.asarray(values)
    if k > len(values):
        k = len(values)
    codes, _ = equal_frequency_bins(values, k)
    counts = brute_counts(codes, codes.max() + 1)
    assert counts.max() - counts.min() <= 1


# ------------------------------------------------------------------ k-means

def sse_of_partition(sorted_vals, boundaries):
    """Within-cluster sum of squares for contiguous clusters."""
    total = 0.0
    for lo, hi in zip(boundaries[:-1], boundaries[1:]):
        block = sorted_vals[lo:hi]
        if len(block):
            total += float(np.sum((block - block.mean()) ** 2))
    return total


def oracle_kmeans_cost(values, k):
    """Exact quadratic DP over sorted values (independent of the D&C path)."""
    values = np.asarray(values, dtype=np.float64)
    sv = np.sort(values - values.mean())  # SSE is shift invariant
    n = len(sv)
    ps = np.concatenate([[0.0], np.cumsum(sv)])
    pq = np.concatenate([[0.0], np.cumsum(sv * sv)])

    def cost(i, j):  # inclusive index range
        w = j - i + 1
        s = ps[j + 1] - ps[i]
        return (pq[j + 1] - pq[i]) - s * s / w

    dp = np.full((k + 1, n), np.inf)
    for j in range(n):
        dp[1][j] = cost(0, j)
    for layer in range(2, k + 1):
        for j in range(layer - 1, n):
            cands = [dp[layer - 1][i - 1] + cost(i, j) for i in range(layer - 1, j + 1)]
            dp[layer][j] = min(cands)
    return dp[k][n - 1]


def kmeans_cost_from_codes(values, codes):
    values = np.asarray(values, dtype=np.float64)
    total = 0.0
    for c in np.unique(codes):
        block = values[codes == c]
        total += float(np.sum((block - block.mean()) ** 2))
    return total


def test_kmeans_two_clear_clusters():
    values = np.array([1.0, 2.0, 10.0, 11.0])
    codes, edges = kmeans_1d(values, 2)
    assert list(codes) == [0, 0, 1, 1]
    assert 2.0 < edges[1] < 10.0  # midpoint boundary


def test_kmeans_saturated_k_zero_cost():
    values = np.array([3.0, 1.0, 7.0, 5.0])
    codes, _ = kmeans_1d(values, 4)
    assert kmeans_cost_from_codes(values, codes) == 0.0
    assert len(set(codes.tolist())) == 4


def test_kmeans_skewed_sample_isolates_high_cluster():
    rng = np.random.default_rng(17)
    values = np.concatenate([rng.normal(0.0, 1.0, 1000), rng.normal(1e6, 10.0, 10)])
    codes, edges = kmeans_1d(values, 2)
    assert np.all(codes[-10:] == 1)
    assert np.all(codes[:1000] == 0)
    assert math.isclose(
        kmeans_cost_from_codes(values, codes), oracle_kmeans_cost(values, 2), rel_tol=1e-5
    )


def test_kmeans_k_exceeds_distinct():
    with pytest.raises(BinningError, match="distinct"):
        kmeans_1d([1.0, 1.0, 2.0], 3)


def test_kmeans_matches_quadratic_oracle():
    rng = np.random.default_rng(23)
    for trial in range(40):
        n = int(rng.integers(2, 120))
        values = np.round(rng.normal(0, 100, n), 2)
        k = int(rng.integers(1, min(6, np.unique(values).size) + 1))
        codes, _ = kmeans_1d(values, k)
        got = kmeans_cost_from_codes(values, codes)
        want = oracle_kmeans_cost(values, k)
        assert got <= want + 1e-7 * (1 + abs(want)), f"trial {trial}: {got} > {want}"


def test_kmeans_matches_exhaustive_enumeration_tiny():
    from itertools import combinations

    rng = np.random.default_rng(31)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        values = rng.integers(0, 20, n).astype(float)
        uniq = np.unique(values)
        k = int(rng.integers(1, len(uniq) + 1))
        codes, _ = kmeans_1d(values, k)
        got = kmeans_cost_from_codes(values, codes)
        # enumerate all contiguous partitions of the distinct values
        best = np.inf
        sv = np.sort(values)
        firsts = np.searchsorted(sv, uniq)
        for cuts in combinations(range(1, len(uniq)), k - 1):
            bounds = [0] + [firsts[c] for c in cuts] + [n]
            best = min(best, sse_of_partition(sv, bounds))
        assert got <= best + 1e-9


def test_kmeans_codes_consistent_with_edges():
    rng = np.random.default_rng(41)
    values = rng.normal(size=200)
    codes, edges = kmeans_1d(values, 5)
    assert np.array_equal(codes, assign_codes(values, edges))


# ------------------------------------------- node-by-node k-means reference
#
# kmeans_1d as it was before it solved each recursion depth in one
# vectorized pass: one Python iteration per divide-and-conquer node. The
# cost oracles above accept any optimal partition; this one pins the tie
# break too, and with it the codes and edge bytes.


def reference_kmeans_1d(values, k):
    vals = np.asarray(values, dtype=np.float64)
    uniq, counts = np.unique(vals, return_counts=True)
    m = uniq.size
    centered = uniq - uniq.mean()
    cw = np.concatenate([[0.0], np.cumsum(counts)])
    cs = np.concatenate([[0.0], np.cumsum(counts * centered)])
    cq = np.concatenate([[0.0], np.cumsum(counts * centered * centered)])

    def seg_cost(i_arr, j):
        w = cw[j + 1] - cw[i_arr]
        s = cs[j + 1] - cs[i_arr]
        q = cq[j + 1] - cq[i_arr]
        return q - s * s / w

    prev = cq[1:] - cs[1:] * cs[1:] / cw[1:]
    split_at = np.zeros((k, m), dtype=np.int64)
    for layer in range(1, k):
        cur = np.full(m, np.inf)
        arg = np.zeros(m, dtype=np.int64)
        stack = [(layer, m - 1, layer, m - 1)]
        while stack:
            jlo, jhi, ilo, ihi = stack.pop()
            if jlo > jhi:
                continue
            jm = (jlo + jhi) // 2
            cand = np.arange(ilo, min(ihi, jm) + 1)
            costs = prev[cand - 1] + seg_cost(cand, jm)
            best = int(np.argmin(costs))
            cur[jm] = costs[best]
            arg[jm] = cand[best]
            stack.append((jlo, jm - 1, ilo, int(cand[best])))
            stack.append((jm + 1, jhi, int(cand[best]), ihi))
        prev = cur
        split_at[layer] = arg

    bounds = [0] * k
    j = m - 1
    for layer in range(k - 1, 0, -1):
        i = int(split_at[layer][j])
        bounds[layer] = i
        j = i - 1
    cluster_starts = uniq[bounds]
    inner = 0.5 * (uniq[np.asarray(bounds[1:], dtype=np.int64) - 1] + cluster_starts[1:])
    top = uniq[-1]
    lo = uniq[0]
    if m == 1:
        top = np.nextafter(lo, np.inf)
    edges = np.concatenate([[lo], inner, [top]])
    return assign_codes(vals, edges), edges


@st.composite
def nextafter_runs(draw):
    # a run of adjacent doubles, each value repeated a few times
    x = draw(st.floats(-1e6, 1e6, allow_nan=False))
    steps = draw(st.lists(st.integers(0, 3), min_size=1, max_size=30))
    out = []
    for repeat in steps:
        out.extend([x] * (repeat + 1))
        x = float(np.nextafter(x, np.inf))
    return out


KMEANS_VALUES = st.one_of(
    # heavy ties: few distinct values, many repeats
    st.lists(st.integers(0, 6).map(float), min_size=1, max_size=80),
    # a single distinct value
    st.tuples(st.floats(-1e9, 1e9), st.integers(1, 20)).map(lambda t: [t[0]] * t[1]),
    # money-scale amounts in cents
    st.lists(
        st.integers(-10**11, 10**11).map(lambda c: c / 100.0), min_size=1, max_size=80
    ),
    # log-pretransformed positive amounts
    st.lists(st.floats(1e-3, 1e9), min_size=1, max_size=80).map(
        lambda v: log_pretransform(v).tolist()
    ),
    nextafter_runs(),
    # magnitudes whose squares overflow: NaN costs, which np.argmin ranks first
    st.lists(
        st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from([-1.0, 1.0]), st.floats(160, 300)),
        min_size=1,
        max_size=40,
    ),
)


@settings(max_examples=300, deadline=None)
@given(values=KMEANS_VALUES, data=st.data())
def test_kmeans_bytes_match_node_by_node_reference(values, data):
    m = len(set(values))
    k = data.draw(st.one_of(st.just(1), st.just(m), st.integers(1, m)), label="k")
    with np.errstate(over="ignore", invalid="ignore"):
        codes, edges = kmeans_1d(values, k)
        ref_codes, ref_edges = reference_kmeans_1d(values, k)
    assert np.array_equal(codes, ref_codes)
    assert edges.tobytes() == ref_edges.tobytes()


# --------------------------------------------------------------------- log

def test_log_analytic():
    out = log_pretransform([1.0, math.e, math.e**2])
    assert np.allclose(out, [0.0, 1.0, 2.0], atol=1e-12)


def test_log_large_domain():
    assert math.isclose(log_pretransform([1e11])[0], 25.328436022934504, rel_tol=1e-12)


def test_log_rejects_zero():
    with pytest.raises(BinningError, match="row 1"):
        log_pretransform([0.0])


# ------------------------------------------------------------------ encode

def deposit_fixture(n=400, seed=3):
    rng = np.random.default_rng(seed)
    schema = (
        ColumnSpec("typeFI", CATEGORICAL, levels=("Bank", "Nonbank")),
        ColumnSpec("Period", CATEGORICAL, levels=("2019-12", "2020-12", "2021-12", "2022-12", "2023-12")),
        ColumnSpec("Currency", CATEGORICAL, levels=("USD", "PYG")),
        ColumnSpec("Capital", NUMERIC, units="PYG"),
        ColumnSpec("Term", NUMERIC, units="days"),
        ColumnSpec("InterestRate", NUMERIC, units="% p.a."),
    )
    columns = [
        rng.integers(0, 2, n),
        rng.integers(0, 5, n),
        rng.integers(0, 2, n),
        np.exp(rng.normal(np.log(5e7), 1.5, n)).clip(1e5, 2.5e10),
        np.exp(rng.normal(np.log(200), 1.0, n)).clip(7, 7000),
        rng.uniform(0.1, 14.5, n),
    ]
    return Dataset(schema, columns)


def test_encode_cbp_strategy_domain_sizes():
    ds = deposit_fixture()
    enc = encode_dataset(ds, deposit_rules("cbp"))
    assert enc.codebook.domain_sizes == (2, 5, 2, 9, 28, 16)
    assert enc.n_records == ds.n_records


def test_encode_data_driven_domain_sizes():
    ds = deposit_fixture()
    enc = encode_dataset(ds, deposit_rules("data_driven"))
    assert enc.codebook.domain_sizes == (2, 5, 2, 5, 5, 5)


def test_encode_categorical_pass_through_identity():
    schema = (ColumnSpec("Gender", CATEGORICAL, levels=("M", "F")),)
    ds = Dataset(schema, [np.array([0, 1, 1, 0])])
    enc = encode_dataset(ds, {})
    assert np.array_equal(enc.column_codes("Gender"), ds.column("Gender"))
    assert enc.codebook["Gender"].labels == ("M", "F")


def test_encode_missing_rule_names_column():
    schema = (ColumnSpec("Capital", NUMERIC),)
    ds = Dataset(schema, [np.array([1.0])])
    with pytest.raises(BinningError, match="Capital"):
        encode_dataset(ds, {})


def test_encode_error_carries_column_name():
    schema = (ColumnSpec("Debt", NUMERIC),)
    ds = Dataset(schema, [np.array([0.0, 2.0])])
    rules = {"Debt": BinningRule("equal_frequency", k=2, log_pretransform=True)}
    with pytest.raises(BinningError, match="column 'Debt'"):
        encode_dataset(ds, rules)


def test_encode_decode_left_edge_bracket_invariant():
    ds = deposit_fixture(seed=9)
    for strategy in ("cbp", "data_driven"):
        enc = encode_dataset(ds, deposit_rules(strategy))
        for name in ("Capital", "Term", "InterestRate"):
            codec = enc.codebook[name]
            edges = np.asarray(codec.edges)
            vals = ds.column(name)
            if codec.log_flag:
                vals = np.log(vals)
            codes = enc.column_codes(name)
            assert np.all(edges[codes] <= vals + 1e-12)
            assert np.all(vals <= edges[codes + 1] + 1e-12)


def test_uniform_width_bins():
    codes, edges = uniform_width_bins([0.0, 2.5, 5.0, 10.0], 4)
    assert list(codes) == [0, 1, 2, 3]
    assert np.allclose(edges, [0.0, 2.5, 5.0, 7.5, 10.0])


def test_binning_rule_validation():
    with pytest.raises(BinningError):
        BinningRule("explicit_cutoffs", cutoffs=(5.0, 3.0))
    with pytest.raises(BinningError):
        BinningRule("kmeans_1d")
    with pytest.raises(BinningError):
        BinningRule("nope", k=2)
    with pytest.raises(BinningError, match=r"equal_frequency needs k >= 1, got 2\.5"):
        BinningRule("equal_frequency", k=2.5)
    with pytest.raises(BinningError, match="log_pretransform must be true or false, got 'no'"):
        BinningRule("equal_frequency", k=2, log_pretransform="no")


def test_codebook_json_round_trip(tmp_path):
    ds = deposit_fixture(seed=21)
    enc = encode_dataset(ds, deposit_rules("data_driven"))
    path = tmp_path / "codebook.json"
    enc.codebook.to_json(path)
    from synthbank.binning import Codebook

    again = Codebook.from_json(path)
    assert again.names == enc.codebook.names
    assert again.domain_sizes == enc.codebook.domain_sizes
    for a, b in zip(again, enc.codebook):
        assert a == b


# ------------------------------------------------------------ encoded CSV

def _round_trip(encoded, path):
    write_encoded_csv(encoded, path)
    return read_encoded_csv(path, encoded.codebook)


def test_encoded_csv_round_trip_zero_rows(tmp_path):
    encoded = make_encoded(np.zeros((0, 3), dtype=np.int64), [2, 3, 4])
    again = _round_trip(encoded, tmp_path / "empty.csv")
    assert (tmp_path / "empty.csv").read_text(encoding="utf-8") == "a0,a1,a2\n"
    assert again.codes.shape == (0, 3)


def test_encoded_csv_round_trip_single_column(tmp_path):
    encoded = make_encoded([4, 0, 11, 4], [12])
    again = _round_trip(encoded, tmp_path / "one.csv")
    assert (tmp_path / "one.csv").read_text(encoding="utf-8") == "a0\n4\n0\n11\n4\n"
    assert np.array_equal(again.codes, encoded.codes)


def _encoded_file(tmp_path, body):
    path = tmp_path / "codes.csv"
    path.write_text("a0,a1\n" + body, encoding="utf-8")
    return path, make_encoded(np.zeros((0, 2), dtype=np.int64), [3, 3]).codebook


def test_encoded_csv_skips_blank_lines(tmp_path, monkeypatch):
    monkeypatch.setattr("synthbank.binning.CHUNK_ROWS", 2)
    path, codebook = _encoded_file(tmp_path, "0,1\n\n  \n2,2\n\n")
    assert read_encoded_csv(path, codebook).codes.tolist() == [[0, 1], [2, 2]]


def test_encoded_csv_ragged_row_names_file_and_row(tmp_path, monkeypatch):
    monkeypatch.setattr("synthbank.binning.CHUNK_ROWS", 2)
    # row numbers count blank lines and run on across chunks
    path, codebook = _encoded_file(tmp_path, "0,1\n\n1,1\n2,0,1\n")
    with pytest.raises(TabularError) as info:
        read_encoded_csv(path, codebook)
    assert str(info.value) == f"{path}: row 4: expected 2 cells, found 3"


def test_encoded_csv_bad_cell_names_file_and_row(tmp_path):
    path, codebook = _encoded_file(tmp_path, "0,1\n1x,1\n2,y\n")
    with pytest.raises(TabularError) as info:
        read_encoded_csv(path, codebook)
    assert str(info.value) == f"{path}: row 2: invalid integer code '1x'"


def test_encoded_csv_out_of_range_code_rejected(tmp_path):
    path, codebook = _encoded_file(tmp_path, "0,1\n3,1\n")
    with pytest.raises(BinningError, match="out of range"):
        read_encoded_csv(path, codebook)

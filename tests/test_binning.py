"""Discretization operators against exact oracles."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synthbank.binning import (
    _COUNT_LIMIT,
    BinningError,
    BinningRule,
    EncodedDataset,
    assign_codes,
    draw_index,
    encode_dataset,
    equal_frequency_bins,
    explicit_bins,
    kmeans_1d,
    log_pretransform,
    read_encoded_csv,
    table_rank,
    uniform_width_bins,
    write_encoded_csv,
)
from synthbank.privacy import PrivacyParams
from synthbank.presets import AGE_BAND_LABELS, CBP_AGE_CUTOFFS, age_bands, deposit_rules
from synthbank.tabular import CATEGORICAL, NUMERIC, ColumnSpec, Dataset, TabularError
from util import make_encoded


# ---------------------------------------------------------------- explicit

def test_explicit_age_band_paper_example():
    codes, edges = explicit_bins([30.0], CBP_AGE_CUTOFFS)
    assert codes[0] == 1  # 25-34 band
    assert len(edges) == 8


def spells(name: str, age: int) -> bool:
    """Whether the band name ``name`` ("<25", "25-34" or "75+") covers ``age``."""
    if match := re.fullmatch(r"<(\d+)", name):
        return age < int(match[1])
    if match := re.fullmatch(r"(\d+)-(\d+)", name):
        return int(match[1]) <= age <= int(match[2])
    match = re.fullmatch(r"(\d+)\+", name)
    assert match, name
    return age >= int(match[1])


def test_each_age_gets_the_name_of_the_band_it_is_coded_into():
    ages = np.arange(0, 111)
    codes, _ = explicit_bins(ages, CBP_AGE_CUTOFFS)
    assert np.array_equal(age_bands(ages), codes)
    for age, code in zip(ages.tolist(), codes.tolist()):
        assert spells(AGE_BAND_LABELS[code], age), (age, AGE_BAND_LABELS[code])


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


def test_explicit_edges_come_from_the_rule_alone():
    # values below the floor fall into the open-below bin 0 and move no edge
    codes, edges = explicit_bins([0.5, 1.0, 2.5, 7.0], (2.0, 6.0, 10.0), floor=1.5)
    assert list(edges) == [1.5, 2.0, 6.0, 10.0]
    assert list(codes) == [0, 0, 1, 2]


def test_explicit_order_preserving_property():
    rng = np.random.default_rng(5)
    values = rng.uniform(0, 110, size=500)
    codes, _ = explicit_bins(values, CBP_AGE_CUTOFFS)
    order = np.argsort(values)
    assert np.all(np.diff(codes[order]) >= 0)


# --------------------------------------------------------- rank and draw

# entries and values with ties, both zeros, and values beyond every entry
RANK_NUMBERS = st.one_of(
    st.sampled_from([-0.0, 0.0, 1.0, -1.0, 2.5]),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_subnormal=False),
)


@settings(max_examples=300, deadline=None)
@given(
    table=st.lists(RANK_NUMBERS, max_size=2 * _COUNT_LIMIT),
    values=st.lists(
        st.one_of(RANK_NUMBERS, st.sampled_from([math.nan, math.inf, -math.inf])),
        max_size=40,
    ),
)
def test_table_rank_is_searchsorted_right(table, values):
    # tables on both sides of _COUNT_LIMIT, counted or searched
    table = np.sort(np.asarray(table, dtype=np.float64))
    values = np.asarray(values, dtype=np.float64)
    expected = np.searchsorted(table, values, side="right")
    got = table_rank(table, values)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)


def test_table_rank_counts_on_small_tables_and_searches_on_large():
    values = np.array([-0.0, 0.0, math.nan, 3.0, -7.0])
    for size in (_COUNT_LIMIT, _COUNT_LIMIT + 1):
        table = np.concatenate([[-0.0, 0.0], np.arange(1.0, size - 1)])
        assert np.array_equal(
            table_rank(table, values), np.searchsorted(table, values, side="right")
        )
    assert table_rank(np.array([0.0, 1.0]), np.array([])).shape == (0,)


DRAW_CASES = [
    ([1.0], 7),
    ([0.0, 0.0, 0.25, 0.75], 500),  # zero-probability head
    ([0.6, 0.4, 0.0, 0.0], 500),  # zero-probability tail
    ([0.0, 1.0, 0.0], 50),
    (np.full(18, 1 / 18), 0),
    (np.random.default_rng(4).dirichlet(np.ones(18)), 20_000),
    (np.random.default_rng(5).dirichlet(np.ones(2 * _COUNT_LIMIT)), 3_000),
    ((0.7, 0.1, 0.2), 1_000),
    # off the fast path: a float32 p that Generator.choice accepts only by its
    # float32 tolerance (its float64 sum is 1 + 3e-8), and a sum of 1 + 1e-9
    (np.full(3, 1 / 3, dtype=np.float32), 500),
    ([0.25, 0.25, 0.5 + 1e-9], 500),
]


@pytest.mark.parametrize("p, size", DRAW_CASES)
def test_draw_index_is_generator_choice(p, size):
    rng, replay = np.random.default_rng(21), np.random.default_rng(21)
    expected = replay.choice(len(p), size=size, p=p)
    got = draw_index(rng, p, size)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)
    assert rng.bit_generator.state == replay.bit_generator.state
    # and the draws after it
    assert rng.random() == replay.random()


@pytest.mark.parametrize(
    "p",
    [
        [0.5, -0.1, 0.6],
        [0.5, math.nan, 0.5],
        [0.5, 0.4],
        [0.5, 0.5 + 1e-7],
        [[0.5, 0.5]],
        [math.inf, 0.5],
        [0.5, math.inf, 0.5],
        [],
    ],
)
def test_draw_index_rejects_p_as_generator_choice_does(p):
    with pytest.raises(Exception) as expected:
        np.random.default_rng(3).choice(len(p), size=4, p=p)
    with pytest.raises(Exception) as got:
        draw_index(np.random.default_rng(3), p, 4)
    assert type(got.value) is type(expected.value)
    assert str(got.value) == str(expected.value)


def test_draw_index_sums_p_as_generator_choice_does():
    # six addends below half an ulp of the first: a plain sum drops them and
    # stays within Generator.choice's tolerance; the Kahan sum that
    # Generator.choice checks keeps them and goes past it
    atol = math.sqrt(np.finfo(np.float64).eps)
    head = 1.0 + atol
    while head - 1.0 > atol:
        head = float(np.nextafter(head, 0.0))
    p = np.array([head] + [1e-16] * 6)
    assert abs(np.add.reduce(p) - 1.0) <= atol
    with pytest.raises(ValueError) as expected:
        np.random.default_rng(1).choice(p.size, size=3, p=p)
    with pytest.raises(ValueError) as got:
        draw_index(np.random.default_rng(1), p, 3)
    assert str(got.value) == str(expected.value)


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


def test_equal_frequency_zero_edge_keeps_the_bits_of_a_stable_sort():
    # a boundary falls on the zeros: the first zero in input order is 0.0
    # and the others -0.0, so an unstable sort tends to put a -0.0 first
    for seed in range(10):
        rng = np.random.default_rng(seed)
        values = np.repeat([-2.0, -0.0, 1.0, 4.0], 250)[rng.permutation(1000)]
        values[np.flatnonzero(values == 0)[0]] = 0.0
        codes, edges = equal_frequency_bins(values, 4)
        sv = np.sort(values, kind="stable")
        expected = np.array([sv[0], sv[250], sv[500], 0.5 * (sv[749] + sv[750]), sv[-1]])
        assert not np.signbit(sv[250])
        assert np.array_equal(edges.view(np.int64), expected.view(np.int64)), seed
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


def test_kmeans_last_layer_and_edge_k_match_node_by_node_reference():
    # k = 2 runs the single-target last layer alone, k = m every layer, and
    # m = 1 no layer at all; ties pick the smallest split, NaN costs the first
    rng = np.random.default_rng(53)
    amounts = np.round(rng.lognormal(3, 1, 50), 1).tolist()
    cases = [
        ([5.0] * 7, 1),
        ([-2.5], 1),
        ([0.0, 1.0, 2.0], 2),  # equal costs at splits 1 and 2
        ([0.0, 0.0, 1.0, 2.0, 2.0], 2),
        ([1e300, -1e300, 1e299, 3.0], 2),  # squares overflow to NaN costs
        (rng.integers(0, 40, 300).astype(float).tolist(), 2),
        (rng.normal(0, 1e6, 60).tolist(), 2),
        (rng.integers(0, 12, 100).astype(float).tolist(), 12),
        (amounts, len(set(amounts))),
    ]
    for values, k in cases:
        with np.errstate(over="ignore", invalid="ignore"):
            codes, edges = kmeans_1d(values, k)
            ref_codes, ref_edges = reference_kmeans_1d(values, k)
        assert np.array_equal(codes, ref_codes), (values[:5], k)
        assert edges.tobytes() == ref_edges.tobytes(), (values[:5], k)
        assert edges.size == k + 1
    assert kmeans_1d([0.0, 1.0, 2.0], 2)[0].tolist() == [0, 1, 1]


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


def test_encode_cbp_codebook_depends_on_the_preset_alone():
    # two deposit sets whose capital minima differ, both below the 1e6 floor
    low, lower = deposit_fixture(seed=3), deposit_fixture(seed=4)
    assert low.column("Capital").min() != lower.column("Capital").min()
    assert max(low.column("Capital").min(), lower.column("Capital").min()) < 1e6
    first = encode_dataset(low, deposit_rules("cbp")).codebook
    second = encode_dataset(lower, deposit_rules("cbp")).codebook
    assert first.codecs == second.codecs
    assert first["Capital"].edges[0] == 1e6


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
            # bin 0 is open below: an explicit floor may lie above a value
            assert np.all((codes == 0) | (edges[codes] <= vals + 1e-12))
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


def _encoded_error(path, codebook):
    with pytest.raises(TabularError) as info:
        read_encoded_csv(path, codebook)
    return str(info.value)


def test_encoded_csv_blank_line_is_a_row_error(tmp_path, monkeypatch):
    # a blank line is a row of no cells, a whitespace-only one a row of one
    # cell, as read_csv reads them
    monkeypatch.setattr("synthbank.tabular.CHUNK_ROWS", 2)
    path, codebook = _encoded_file(tmp_path, "0,1\n\n2,2\n")
    assert _encoded_error(path, codebook) == "row 2: expected 2 cells, found 0"
    path, codebook = _encoded_file(tmp_path, "0,1\n2,2\n  \n")
    assert _encoded_error(path, codebook) == "row 3: expected 2 cells, found 1"


def test_encoded_csv_ragged_row_names_row(tmp_path, monkeypatch):
    monkeypatch.setattr("synthbank.tabular.CHUNK_ROWS", 2)
    # row numbers run on across chunks
    path, codebook = _encoded_file(tmp_path, "0,1\n1,1\n2,0\n2,0,1\n")
    assert _encoded_error(path, codebook) == "row 4: expected 2 cells, found 3"


def test_encoded_csv_bad_cell_names_row_and_column(tmp_path):
    path, codebook = _encoded_file(tmp_path, "0,1\n1x,1\n2,y\n")
    assert _encoded_error(path, codebook) == "row 2, column 'a0': unknown level '1x'"


@pytest.mark.parametrize("cell", [" 1", "1 ", "+1", "1_0", "01", "00", "-0", ""])
def test_encoded_csv_code_is_its_plain_decimal_text(tmp_path, cell):
    path, codebook = _encoded_file(tmp_path, f"0,1\n2,{cell}\n")
    assert _encoded_error(path, codebook) == f"row 2, column 'a1': unknown level '{cell}'"


def test_encoded_csv_out_of_range_code_rejected(tmp_path):
    path, codebook = _encoded_file(tmp_path, "0,1\n3,1\n")
    assert _encoded_error(path, codebook) == "row 2, column 'a0': unknown level '3'"


# ------------------------------------------------------------------ layout

# every producer of a code matrix stores it column by column, so that the
# marginal counts, the apps and the writer read each column as one array


def test_every_code_matrix_producer_returns_column_major_codes(tmp_path):
    from synthbank import tabular
    from synthbank.mechanisms import (
        PacConfig,
        fit_aim_model,
        fit_mst_model,
        pac_synthesize,
        uniform_synthesize,
    )

    encoded = encode_dataset(deposit_fixture(), deposit_rules("data_driven"))
    params = PrivacyParams(1.0, 1e-10)
    rng = np.random.default_rng(11)
    write_encoded_csv(encoded, tmp_path / "codes.csv")
    produced = {
        "encode_dataset": encoded,
        "read_encoded_csv": read_encoded_csv(tmp_path / "codes.csv", encoded.codebook),
        "pac_synthesize": pac_synthesize(encoded, PacConfig(), None, 50, rng),
        "uniform_synthesize": uniform_synthesize(encoded.codebook, 50, rng),
    }
    for name, dataset in produced.items():
        assert dataset.codes.flags.f_contiguous, name
    sampled = {
        "mst": fit_mst_model(encoded, params, rng),
        "aim": fit_aim_model(encoded, [((0, 3), 1.0), ((3, 5), 1.0)], params, 3, rng),
    }
    for name, model in sampled.items():
        assert model.sample(50, rng).flags.f_contiguous, name
    sizes = encoded.codebook.domain_sizes
    assert tabular.read_codes(tmp_path / "codes.csv", encoded.codebook.names, sizes).flags.f_contiguous


def test_encoded_dataset_stores_any_order_as_column_major():
    rows = np.array([[0, 1, 2], [1, 0, 1], [1, 1, 0], [0, 0, 2]], dtype=np.int64)
    from_rows = make_encoded(np.ascontiguousarray(rows), (2, 2, 3))
    assert from_rows.codes.flags.f_contiguous
    assert np.array_equal(from_rows.codes, rows)
    # a 1-D array is the one column of a one-column codebook
    one = make_encoded(rows[:, 2:], (3,))
    flat = EncodedDataset(rows[:, 2], one.codebook)
    assert flat.codes.flags.f_contiguous and np.array_equal(flat.codes, one.codes)
    assert np.array_equal(from_rows.column_codes("a2"), [2, 1, 0, 2])
    with pytest.raises(ValueError):
        from_rows.codes[0, 0] = 1  # read-only


@pytest.mark.parametrize("bad", [-1, 2])
def test_encoded_dataset_still_rejects_out_of_range_codes(bad):
    rows = np.array([[0, 1], [1, bad]], dtype=np.int64)
    with pytest.raises(BinningError) as caught:
        make_encoded(np.ascontiguousarray(rows), (2, 2))
    assert str(caught.value) == "column 'a1': code out of range (domain size 2)"


@pytest.mark.parametrize("sizes", [(3,), (3, 3), (2, 3, 3)])
@pytest.mark.parametrize("bad", [-4, 3])
def test_writer_never_clips_an_out_of_range_code(tmp_path, sizes, bad):
    from synthbank import tabular

    # past EncodedDataset's check, a code just outside numpy's index range
    # of a 3-row table, alone and beside other columns
    codes = np.zeros((400, len(sizes)), dtype=np.int64, order="F")
    codes[7, -1] = bad
    names = [f"a{j}" for j in range(len(sizes))]
    with pytest.raises(IndexError):
        tabular.write_codes(codes, names, sizes, tmp_path / "codes.csv")

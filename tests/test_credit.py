"""Transition matrices, Frobenius error, delinquency rates, and the join."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from synthbank.apps.credit import (
    CreditError,
    active_both_filter,
    delinquency_rate,
    evaluate,
    frobenius_error,
    transition_matrix,
)
from synthbank.binning import encode_dataset
from synthbank.population import (
    DEFAULT_DELINQUENCY_KERNEL,
    CreditPortfolioConfig,
    generate_credit_cards,
)
from synthbank.presets import credit_rules
from synthbank.tabular import CATEGORICAL, NUMERIC, ColumnSpec, Dataset

from util import make_encoded


def test_transition_hand_count():
    tm = transition_matrix([0, 0, 1], [0, 1, 1], 2)
    assert np.allclose(tm.probs, [[0.5, 0.5], [0.0, 1.0]])
    assert tm.counts.sum() == 3


def test_transition_identity_when_static():
    t0 = np.array([0, 1, 1, 3])
    tm = transition_matrix(t0, t0, 4)
    for i in range(4):
        if tm.defined[i]:
            assert tm.probs[i, i] == 1.0
    assert not tm.defined[2]


def test_transition_rows_stochastic_and_counts_conserved():
    rng = np.random.default_rng(3)
    t0 = rng.integers(0, 5, 4000)
    t1 = rng.integers(0, 5, 4000)
    tm = transition_matrix(t0, t1, 5)
    assert np.allclose(tm.probs[tm.defined].sum(axis=1), 1.0, atol=1e-12)
    assert tm.counts.sum() == 4000
    assert np.array_equal(tm.counts.sum(axis=1), np.bincount(t0, minlength=5))


def test_transition_length_mismatch():
    with pytest.raises(CreditError, match="length mismatch"):
        transition_matrix([0, 1], [0], 2)


def test_planted_kernel_recovered():
    # evenly massed delinquency states, no gender effect, 1e5 joined cards
    dist = (0.30, 0.14, 0.14, 0.14, 0.14, 0.14)
    config = CreditPortfolioConfig(
        n_cards=125_000,
        persistence=0.8,
        delinquency_dist_male=dist,
        delinquency_dist_female=dist,
    )
    cards_2020, cards_2021 = generate_credit_cards(config, np.random.default_rng(5))
    joined, coverage = active_both_filter(cards_2020, cards_2021)
    assert joined.n_records > 95_000
    enc = encode_dataset(joined, credit_rules("cbp"))
    tm = transition_matrix(
        enc.column_codes("Delinquency2020"), enc.column_codes("Delinquency2021"), 6
    )
    kernel = np.asarray(DEFAULT_DELINQUENCY_KERNEL)
    assert np.max(np.abs(tm.probs - kernel)) < 0.01


def test_frobenius_identity_zero():
    tm = transition_matrix([0, 1, 0, 1], [1, 0, 1, 0], 2)
    assert frobenius_error(tm, tm).value == 0.0


def test_frobenius_hand_case():
    a = transition_matrix([0] * 10 + [1] * 10, [0] * 6 + [1] * 4 + [0] * 4 + [1] * 6, 2)
    b = transition_matrix([0] * 10 + [1] * 10, [0] * 5 + [1] * 5 + [0] * 6 + [1] * 4, 2)
    # kappa = [[0.1, -0.1], [-0.2, 0.2]] -> sqrt(0.10)
    result = frobenius_error(a, b)
    assert result.value == pytest.approx(np.sqrt(0.10), abs=1e-12)
    assert result.excluded_rows == 0


def test_frobenius_symmetry_and_permutation_invariance():
    rng = np.random.default_rng(7)
    t0, t1 = rng.integers(0, 3, 500), rng.integers(0, 3, 500)
    s0, s1 = rng.integers(0, 3, 500), rng.integers(0, 3, 500)
    a = transition_matrix(t0, t1, 3)
    b = transition_matrix(s0, s1, 3)
    assert frobenius_error(a, b).value == pytest.approx(frobenius_error(b, a).value)
    perm = np.array([2, 0, 1])
    inv = np.argsort(perm)
    ap = transition_matrix(inv[t0], inv[t1], 3)
    bp = transition_matrix(inv[s0], inv[s1], 3)
    assert frobenius_error(ap, bp).value == pytest.approx(frobenius_error(a, b).value)


def test_frobenius_triangle_inequality_spot_check():
    rng = np.random.default_rng(9)
    mats = [
        transition_matrix(rng.integers(0, 4, 800), rng.integers(0, 4, 800), 4)
        for _ in range(3)
    ]
    ab = frobenius_error(mats[0], mats[1]).value
    bc = frobenius_error(mats[1], mats[2]).value
    ac = frobenius_error(mats[0], mats[2]).value
    assert ac <= ab + bc + 1e-12


def test_frobenius_excludes_undefined_rows():
    a = transition_matrix([0, 0], [0, 1], 3)  # rows 1, 2 undefined
    b = transition_matrix([0, 1], [0, 1], 3)  # row 2 undefined
    result = frobenius_error(a, b)
    assert result.excluded_rows == 2


def test_frobenius_without_shared_rows_is_undefined():
    a = transition_matrix([0, 0], [0, 1], 2)  # row 1 undefined
    b = transition_matrix([1], [0], 2)  # row 0 undefined
    result = frobenius_error(a, b)
    assert result.value is None and result.excluded_rows == 2
    empty = transition_matrix([], [], 2)
    assert frobenius_error(empty, empty).value is None


def test_frobenius_state_mismatch():
    a = transition_matrix([0], [0], 2, states=("a", "b"))
    b = transition_matrix([0], [0], 2, states=("x", "y"))
    with pytest.raises(CreditError, match="state sets differ"):
        frobenius_error(a, b)


def test_delinquency_rate_all_current():
    codes = np.column_stack([np.zeros(60, int), np.tile([0, 1, 2], 20), np.tile([0, 1], 30)])
    enc = make_encoded(codes, (6, 3, 2), names=["Delinquency2021", "Age2020", "Gender"])
    rates = delinquency_rate(enc)
    for value in rates.values():
        assert value == 0.0


def test_delinquency_rate_missing_groups_and_bounds():
    codes = np.array([[1, 0, 0], [0, 0, 0], [3, 0, 1]])
    enc = make_encoded(codes, (6, 3, 2), names=["Delinquency2021", "Age2020", "Gender"])
    rates = delinquency_rate(enc)
    assert rates[(1, "v0")] is None  # no generated data for this level
    assert rates[(0, "v0")] == pytest.approx(0.5)
    for value in rates.values():
        if value is not None:
            assert 0.0 <= value <= 1.0


def reference_delinquency_rate(encoded, delinquency_column, age_column, gender_column):
    """delinquency_rate as one masked pass per (age band, gender) group."""
    codebook = encoded.codebook
    columns = (delinquency_column, age_column, gender_column)
    del_codes, age_codes, gender_codes = (encoded.column_codes(name) for name in columns)
    rates = {}
    for age in range(codebook[age_column].domain_size):
        for g, gender in enumerate(codebook[gender_column].labels):
            sel = (age_codes == age) & (gender_codes == g)
            total = int(sel.sum())
            key = (age, gender)
            rates[key] = None if total == 0 else float((del_codes[sel] > 0).sum() / total)
    return rates


RATE_COLUMNS = ["Delinquency2021", "Age2020", "Gender"]


@st.composite
def rate_dataset_strategy(draw):
    """Codes of the three columns; few rows over many groups, so that some
    groups are empty."""
    sizes = [draw(st.integers(1, 7)), draw(st.integers(1, 8)), draw(st.integers(1, 3))]
    n_rows = draw(st.integers(0, 60))
    codes = [
        draw(st.lists(st.integers(0, size - 1), min_size=n_rows, max_size=n_rows))
        for size in sizes
    ]
    codes = np.array(codes, dtype=np.int64).T.reshape(n_rows, 3)
    return make_encoded(codes, sizes, names=RATE_COLUMNS)


@settings(max_examples=200, deadline=None)
@given(rate_dataset_strategy())
@example(make_encoded(np.zeros((0, 3), dtype=np.int64), (6, 7, 2), names=RATE_COLUMNS))
def test_delinquency_rate_matches_per_group_reference(encoded):
    rates = delinquency_rate(encoded)
    expected = reference_delinquency_rate(encoded, *RATE_COLUMNS)
    assert list(rates) == list(expected)
    for key, rate in rates.items():
        if expected[key] is None:
            assert rate is None
        else:
            assert type(rate) is float and rate.hex() == expected[key].hex()


def test_planted_gender_delinquency_ratio():
    from synthbank.binning import explicit_bins
    from synthbank.presets import CBP_DELINQUENCY_CUTOFFS

    config = CreditPortfolioConfig(n_cards=100_000)
    cards_2020, _ = generate_credit_cards(config, np.random.default_rng(11))
    del_codes, _ = explicit_bins(cards_2020.column("Delinquency2020"), CBP_DELINQUENCY_CUTOFFS)
    genders = cards_2020.column("Gender")
    rate_m = float((del_codes[genders == 0] > 0).mean())
    rate_f = float((del_codes[genders == 1] > 0).mean())
    assert abs(rate_m / rate_f - 2.0) < 0.2  # planted 2x, within 10%


def two_card_datasets(ids_2020, ids_2021):
    n0, n1 = len(ids_2020), len(ids_2021)
    schema_2020 = (
        ColumnSpec("CardId", NUMERIC),
        ColumnSpec("Gender", CATEGORICAL, levels=("M", "F")),
        ColumnSpec("Age2020", NUMERIC),
        ColumnSpec("Debt2020", NUMERIC),
        ColumnSpec("Delinquency2020", NUMERIC),
    )
    schema_2021 = (
        ColumnSpec("CardId", NUMERIC),
        ColumnSpec("Debt2021", NUMERIC),
        ColumnSpec("Delinquency2021", NUMERIC),
    )
    a = Dataset(
        schema_2020,
        [
            np.asarray(ids_2020, float),
            np.zeros(n0, np.int64),
            np.full(n0, 30.0),
            np.full(n0, 1e6),
            np.zeros(n0),
        ],
    )
    b = Dataset(
        schema_2021,
        [np.asarray(ids_2021, float), np.full(n1, 2e6), np.zeros(n1)],
    )
    return a, b


def test_join_disjoint_ids():
    a, b = two_card_datasets([0, 1, 2], [5, 6])
    joined, coverage = active_both_filter(a, b)
    assert joined.n_records == 0
    assert coverage["count_fraction"] == 0.0


def test_join_identical_ids():
    a, b = two_card_datasets([3, 1, 2], [1, 2, 3])
    joined, coverage = active_both_filter(a, b)
    assert coverage["count_fraction"] == 1.0
    assert joined.n_records == 3
    assert joined.column_names == (
        "Gender",
        "Age2020",
        "Debt2020",
        "Debt2021",
        "Delinquency2020",
        "Delinquency2021",
    )


def test_join_duplicate_ids_error():
    a, b = two_card_datasets([1, 1], [1])
    with pytest.raises(CreditError, match="duplicate card ids"):
        active_both_filter(a, b)


def test_planted_persistence_coverage():
    config = CreditPortfolioConfig(n_cards=100_000, persistence=0.8)
    cards_2020, cards_2021 = generate_credit_cards(config, np.random.default_rng(13))
    _, coverage = active_both_filter(cards_2020, cards_2021)
    assert abs(coverage["count_fraction"] - 0.80) < 0.01
    assert 0.5 < coverage["debt_fraction"] <= 1.0


def test_joined_columns_keep_the_specs_of_their_year(tmp_path):
    from synthbank.apps.credit import prepare
    from synthbank.tabular import save_schema, write_csv

    # generated cards keep the specs the generator declares
    cards = generate_credit_cards(CreditPortfolioConfig(n_cards=200), np.random.default_rng(3))
    joined, _ = active_both_filter(*cards)
    assert joined.schema == (
        ColumnSpec("Gender", CATEGORICAL, levels=cards[0].spec("Gender").levels),
        ColumnSpec("Age2020", NUMERIC, units="years"),
        ColumnSpec("Debt2020", NUMERIC, units="PYG"),
        ColumnSpec("Debt2021", NUMERIC, units="PYG"),
        ColumnSpec("Delinquency2020", NUMERIC, units="days"),
        ColumnSpec("Delinquency2021", NUMERIC, units="days"),
    )

    # card files whose schemas give other units and levels keep them
    renamed = {"Debt2020": "USD", "Debt2021": "EUR", "Age2020": "months"}
    files = {}
    for year, data in zip((2020, 2021), cards):
        schema = tuple(
            ColumnSpec(spec.name, spec.kind, ("X", "Y") if spec.levels else (),
                       renamed.get(spec.name, spec.units))
            for spec in data.schema
        )
        files[f"cards_{year}"] = tmp_path / f"cards_{year}.csv"
        files[f"schema_{year}"] = tmp_path / f"schema_{year}.json"
        write_csv(Dataset(schema, [data.column(s.name) for s in schema]), files[f"cards_{year}"])
        save_schema(schema, files[f"schema_{year}"])
    joined, _ = prepare(CreditPortfolioConfig(), files, np.random.default_rng(0))
    assert [spec.units for spec in joined.schema] == ["", "months", "USD", "EUR", "days", "days"]
    assert joined.spec("Gender").levels == ("X", "Y")


def test_debt_state_labels_are_pyg_under_a_log_rule():
    # data-driven credit bins ln(debt); the transition tables label each
    # state with its debt range in PYG
    cards = generate_credit_cards(CreditPortfolioConfig(n_cards=3000), np.random.default_rng(37))
    joined, coverage = active_both_filter(*cards)
    encoded = encode_dataset(joined, credit_rules("data_driven"))
    codec = encoded.codebook["Debt2020"]
    assert codec.log_flag
    _, tables = evaluate(joined, coverage, encoded, encoded, joined, "data_driven")
    edges = np.exp(codec.edges)
    states = [f"[{edges[i]:g},{edges[i + 1]:g})" for i in range(codec.domain_size)]
    for tag in ("original", "synthetic"):
        assert tables[f"transition_debt_{tag}.csv"][0] == ["state", *states]
    lowest = float(states[0][1:].split(",")[0])
    assert lowest == pytest.approx(joined.column("Debt2020").min(), rel=1e-5)

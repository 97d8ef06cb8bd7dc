"""Ground-truth generator: determinism and planted-parameter recovery."""

import dataclasses
import re

import numpy as np
import pytest
from scipy.stats import poisson, spearmanr

from synthbank import population
from synthbank.binning import encode_dataset, explicit_bins
from synthbank.population import (
    AGE_LIMITS,
    BAND_SHARES,
    BANKED_RATE,
    CAPITAL_LOG_SD,
    CAPITAL_RANGE,
    CCARDS_LAMBDA,
    COLLATERAL_RATE,
    CURVE_TAU,
    DEBT_LOG_SD,
    DEBT_RANGE,
    DEBT_VOL,
    DEFAULT_DELINQUENCY_KERNEL,
    DELINQUENCY_LIMITS,
    FI_EXTRA_LAMBDA,
    GENDER_SPLIT,
    LOAN_EXTRA_LAMBDA,
    LOAN_RATE,
    NZS_LAMBDA,
    RATE_RANGE,
    SAVINGS_EXTRA_LAMBDA,
    SAVINGS_RATE,
    TERM_LOG_SD,
    TERM_RANGE,
    CreditPortfolioConfig,
    DepositMarketConfig,
    FiPopulationConfig,
    generate_credit_cards,
    generate_fi_population,
    generate_term_deposits,
    planted_rate_curve,
)
from synthbank.presets import (
    AGE_BAND_LABELS,
    CBP_AGE_CUTOFFS,
    CBP_DELINQUENCY_CUTOFFS,
    band_edges,
    credit_rules,
    deposit_rules,
    fi_rules,
)
from synthbank.tabular import write_csv


def test_fi_seed_determinism_byte_identical(tmp_path):
    config = FiPopulationConfig(n_individuals=5000, periods=("2020", "2021"))
    paths = []
    for run in range(2):
        ds, unbanked = generate_fi_population(config, np.random.default_rng(42))
        path = tmp_path / f"fi_{run}.csv"
        write_csv(ds, path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_fi_planted_alpha_binomial_ci():
    config = FiPopulationConfig(n_individuals=80_000, periods=("2020",))
    ds, unbanked = generate_fi_population(config, np.random.default_rng(7))
    assert ds.n_records + sum(unbanked.values()) == config.n_individuals


def test_fi_empty_population():
    config = FiPopulationConfig(n_individuals=0, periods=("2020",))
    ds, unbanked = generate_fi_population(config, np.random.default_rng(1))
    assert ds.n_records == 0
    assert sum(unbanked.values()) == 0


@pytest.mark.parametrize(
    "generate, config",
    [
        (generate_credit_cards, lambda n: CreditPortfolioConfig(n_cards=n)),
        (generate_term_deposits, lambda n: DepositMarketConfig(n_deposits=n)),
    ],
    ids=["credit", "yield"],
)
def test_credit_and_deposit_empty_populations(generate, config):
    # an empty population draws nothing, and its columns keep the dtypes of
    # a small one
    rng = np.random.default_rng(1)
    empty = generate(config(0), rng)
    assert rng.random() == np.random.default_rng(1).random()
    small = generate(config(7), np.random.default_rng(1))
    empty, small = (parts if isinstance(parts, tuple) else (parts,) for parts in (empty, small))
    for got, want in zip(empty, small):
        assert got.n_records == 0
        for spec in want.schema:
            assert got.column(spec.name).dtype == want.column(spec.name).dtype, spec.name


def test_fi_encodes_under_both_strategies():
    config = FiPopulationConfig(n_individuals=30_000, periods=("2020",))
    ds, _ = generate_fi_population(config, np.random.default_rng(3))
    for strategy in ("cbp", "data_driven"):
        enc = encode_dataset(ds, fi_rules(strategy))
        assert enc.n_records == ds.n_records


def test_deposits_planted_upward_curve():
    config = DepositMarketConfig(n_deposits=10_000)
    ds = generate_term_deposits(config, np.random.default_rng(5))
    enc = encode_dataset(ds, deposit_rules("cbp"))
    term_codes = enc.column_codes("Term")
    rates = ds.column("InterestRate")
    wai = []
    bins = []
    for code in np.unique(term_codes):
        sel = term_codes == code
        if sel.sum() >= 5:
            bins.append(code)
            wai.append(rates[sel].mean())
    rho = spearmanr(bins, wai).statistic
    assert rho > 0.9, rho


def test_deposits_seed_determinism():
    config = DepositMarketConfig(n_deposits=2000)
    a = generate_term_deposits(config, np.random.default_rng(11))
    b = generate_term_deposits(config, np.random.default_rng(11))
    for name in a.column_names:
        assert np.array_equal(a.column(name), b.column(name))


def test_deposits_zero_noise_matches_planted_curve():
    config = DepositMarketConfig(
        n_deposits=3000,
        rate_noise=0.0,
        usd_shift=0.0,
        nonbank_shift=0.0,
        period_shift_step=0.0,
        capital_discount=0.0,
    )
    ds = generate_term_deposits(config, np.random.default_rng(13))
    planted = planted_rate_curve(config, ds.column("Term"))
    assert np.max(np.abs(ds.column("InterestRate") - planted)) < 1e-9


def test_credit_seed_determinism():
    config = CreditPortfolioConfig(n_cards=4000)
    a0, a1 = generate_credit_cards(config, np.random.default_rng(17))
    b0, b1 = generate_credit_cards(config, np.random.default_rng(17))
    for x, y in ((a0, b0), (a1, b1)):
        for name in x.column_names:
            assert np.array_equal(x.column(name), y.column(name))


def test_credit_full_persistence_full_overlap():
    from synthbank.apps.credit import active_both_filter

    config = CreditPortfolioConfig(n_cards=3000, persistence=1.0, new_card_rate=0.0)
    cards_2020, cards_2021 = generate_credit_cards(config, np.random.default_rng(19))
    _, coverage = active_both_filter(cards_2020, cards_2021)
    assert coverage["count_fraction"] == 1.0
    assert coverage["debt_fraction"] == 1.0


def test_credit_encodes_under_both_strategies():
    config = CreditPortfolioConfig(n_cards=20_000)
    cards_2020, cards_2021 = generate_credit_cards(config, np.random.default_rng(23))
    from synthbank.apps.credit import active_both_filter

    joined, _ = active_both_filter(cards_2020, cards_2021)
    for strategy in ("cbp", "data_driven"):
        enc = encode_dataset(joined, credit_rules(strategy))
        assert enc.n_records == joined.n_records
        assert enc.codebook["Delinquency2020"].domain_size == 6


@pytest.mark.parametrize(
    "factory, field",
    [
        (FiPopulationConfig, "n_individuals"),
        (DepositMarketConfig, "n_deposits"),
        (CreditPortfolioConfig, "n_cards"),
    ],
)
@pytest.mark.parametrize("value", [-5, 2000.5, "many", True, None])
def test_population_counts_must_be_non_negative_integers(factory, field, value):
    message = f"{field} must be a non-negative integer, got {value!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        factory(**{field: value})
    assert getattr(factory(**{field: np.int64(7)}), field) == 7


# ------------------------------------------------ draw ranges from the cut-offs


@pytest.mark.parametrize(
    "ranges, cutoffs, limits",
    [
        (population._AGE_RANGES, CBP_AGE_CUTOFFS, AGE_LIMITS),
        (population._DELINQUENCY_RANGES, CBP_DELINQUENCY_CUTOFFS, DELINQUENCY_LIMITS),
    ],
    ids=["age", "delinquency"],
)
def test_draw_ranges_lie_inside_their_bands(ranges, cutoffs, limits):
    assert len(ranges) == len(cutoffs)
    for band, ((lo, hi), (low, high)) in enumerate(zip(ranges, band_edges(cutoffs))):
        assert low <= lo <= hi < high
        assert limits[0] <= lo and hi <= limits[1]
        codes, _ = explicit_bins(np.arange(lo, hi + 1), cutoffs)
        assert np.all(codes == band), band


@pytest.mark.parametrize(
    "limits, rule",
    [
        (CAPITAL_RANGE, deposit_rules("cbp")["Capital"]),
        (TERM_RANGE, deposit_rules("cbp")["Term"]),
        (RATE_RANGE, deposit_rules("cbp")["InterestRate"]),
        (DEBT_RANGE, credit_rules("cbp")["Debt2020"]),
        (DEBT_RANGE, credit_rules("cbp")["Debt2021"]),
    ],
    ids=["capital", "term", "rate", "debt-2020", "debt-2021"],
)
def test_clip_ranges_end_within_their_cbp_domain(limits, rule):
    # a clipped value above the final cut-off would fail the cbp encode
    low, high = limits
    assert low < high <= rule.cutoffs[-1]


@pytest.mark.parametrize(
    "column, means, first",
    [
        ("nFI", FI_EXTRA_LAMBDA, 1),
        ("nCCards", CCARDS_LAMBDA, 0),
        ("nNZS", NZS_LAMBDA, 0),
        ("nSavings", (SAVINGS_EXTRA_LAMBDA,), 1),
        ("nLoans", (LOAN_EXTRA_LAMBDA,), 1),
    ],
)
def test_count_means_keep_draws_below_their_cbp_cap(column, means, first):
    # a count is `first` plus a Poisson draw (for savings and loans, of the
    # holders), out of the cbp domain above the rule's final cut-off
    assert len(means) in (1, len(AGE_BAND_LABELS))
    cap = fi_rules("cbp")[column].cutoffs[-1]
    assert poisson.sf(cap - first, means).max() < 1e-30


def test_planted_constants_keep_the_invariants_of_a_population_model():
    # what the settings checks enforced before these became constants
    assert len(BAND_SHARES) == len(AGE_BAND_LABELS)
    assert abs(sum(BAND_SHARES) - 1.0) < 1e-9
    for rates in (BAND_SHARES, BANKED_RATE, SAVINGS_RATE, LOAN_RATE, COLLATERAL_RATE):
        assert len(rates) == len(AGE_BAND_LABELS)
        assert all(0.0 <= p <= 1.0 for p in rates)
    assert 0.0 <= GENDER_SPLIT <= 1.0
    bands = len(CBP_DELINQUENCY_CUTOFFS)
    assert len(DEFAULT_DELINQUENCY_KERNEL) == bands
    for row in DEFAULT_DELINQUENCY_KERNEL:
        assert len(row) == bands and all(0.0 <= p <= 1.0 for p in row)
        assert abs(sum(row) - 1.0) < 1e-9
    assert len(CURVE_TAU) == 2 and min(CURVE_TAU) > 0
    assert min(CAPITAL_LOG_SD, TERM_LOG_SD, DEBT_LOG_SD, DEBT_VOL) > 0


@pytest.mark.parametrize(
    "factory, names",
    [
        (FiPopulationConfig, ("n_individuals", "periods")),
        (
            DepositMarketConfig,
            ("n_deposits", "periods", "bank_share", "pyg_share", "curve_beta", "usd_shift",
             "nonbank_shift", "period_shift_step", "capital_discount", "rate_noise"),
        ),
        (
            CreditPortfolioConfig,
            ("n_cards", "persistence", "new_card_rate", "delinquency_dist_male",
             "delinquency_dist_female"),
        ),
    ],
    ids=["fi", "yield", "credit"],
)
def test_population_settings_are_the_declared_ones(factory, names):
    # a new knob of the planted model has to be declared here; the rest of
    # the model is constants of ``synthbank.population``
    assert tuple(f.name for f in dataclasses.fields(factory)) == names


# The draw ranges as the literal tables they were before they were derived
# from the preset cut-offs, and the two draws that read them. The generators
# must draw the same rows with the derived ranges.
LITERAL_AGE_RANGES = ((18, 24), (25, 34), (35, 44), (45, 54), (55, 64), (65, 74), (75, 95))
LITERAL_DELINQUENCY_RANGES = (
    (0, 60), (61, 90), (91, 150), (151, 180), (181, 270), (271, 3000)
)


def reference_ages_for_bands(bands, rng):
    ages = np.zeros(bands.shape[0], dtype=np.float64)
    for b, (lo, hi) in enumerate(LITERAL_AGE_RANGES):
        idx = np.flatnonzero(bands == b)
        ages[idx] = rng.integers(lo, hi + 1, size=idx.size)
    return ages


def reference_delinquency_days(bands, rng):
    days = np.zeros(bands.shape[0], dtype=np.float64)
    for b, (lo, hi) in enumerate(LITERAL_DELINQUENCY_RANGES):
        idx = np.flatnonzero(bands == b)
        center = (lo + hi) // 2
        spread = max(1, min((hi - lo) // 4, 30))
        days[idx] = rng.integers(center - spread, center + spread + 1, size=idx.size)
    return days


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("n", [0, 7, 50, 4000])
@pytest.mark.parametrize(
    "generate, config",
    [
        (generate_fi_population, lambda n: FiPopulationConfig(n_individuals=n)),
        (generate_term_deposits, lambda n: DepositMarketConfig(n_deposits=n)),
        (generate_credit_cards, lambda n: CreditPortfolioConfig(n_cards=n)),
    ],
    ids=["fi", "yield", "credit"],
)
def test_generators_draw_as_with_the_literal_range_tables(monkeypatch, generate, config, n, seed):
    def run():
        rng = np.random.default_rng(seed)
        out = generate(config(n), rng)
        return (out if isinstance(out, tuple) else (out,)), rng.bit_generator.state

    got, got_state = run()
    monkeypatch.setattr(population, "_ages_for_bands", reference_ages_for_bands)
    monkeypatch.setattr(population, "_delinquency_days", reference_delinquency_days)
    want, want_state = run()
    assert got_state == want_state
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, dict):  # fi's unbanked counts
            assert g == w
            continue
        assert g.schema == w.schema
        for spec in w.schema:
            a, b = g.column(spec.name), w.column(spec.name)
            assert a.dtype == b.dtype and np.array_equal(a, b), spec.name

"""Financial-usage index: indicators, principal component, tau, levels."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synthbank.apps.usage_index import (
    UsageError,
    UsageIndicators,
    build_usage_indicators,
    load_unbanked_csv,
    pca_usage_component,
    prepare,
    save_unbanked_csv,
    tau_metric,
    usage_levels,
)
from synthbank.binning import encode_dataset
from synthbank.population import (
    BAND_SHARES,
    BANKED_RATE,
    LOAN_RATE,
    SAVINGS_RATE,
    FiPopulationConfig,
    generate_fi_population,
)
from synthbank.presets import AGE_BAND_LABELS, CBP_AGE_CUTOFFS, fi_rules
from synthbank.tabular import (
    CATEGORICAL,
    NUMERIC,
    ColumnSpec,
    Dataset,
    TabularError,
    save_schema,
    write_csv,
)

from util import make_encoded


def small_fi_dataset(n_banked=80, nfi=1.0, nsav=1.0, nloan=0.0):
    schema = (
        ColumnSpec("Period", CATEGORICAL, levels=("2020",)),
        ColumnSpec("Age", NUMERIC),
        ColumnSpec("Gender", CATEGORICAL, levels=("M", "F")),
        ColumnSpec("nFI", NUMERIC),
        ColumnSpec("nSavings", NUMERIC),
        ColumnSpec("nLoans", NUMERIC),
    )
    return Dataset(
        schema,
        [
            np.zeros(n_banked, dtype=np.int64),
            np.full(n_banked, 30.0),
            np.zeros(n_banked, dtype=np.int64),
            np.full(n_banked, nfi),
            np.full(n_banked, nsav),
            np.full(n_banked, nloan),
        ],
    )


def test_alpha_with_unbanked():
    ds = small_fi_dataset(80)
    unbanked = {("2020", "25-34", "M"): 20}
    (ind,) = build_usage_indicators(ds, unbanked)
    assert ind.key == ("2020", "25-34", "M")
    # 80 banked rows over a population of 100, the 20 unbanked included
    assert ind.alpha == pytest.approx(0.8)


def test_beta_saturated_no_unbanked():
    ds = small_fi_dataset(50, nsav=2.0)
    (ind,) = build_usage_indicators(ds, {})
    assert ind.beta == 1.0


def test_zero_population_group_errors():
    ds = small_fi_dataset(10)
    # an unbanked-only group is fine; a zero-count unbanked-only group is not iterated
    unbanked = {("2020", "35-44", "F"): 5}
    inds = build_usage_indicators(ds, unbanked)
    keys = {ind.key for ind in inds}
    assert ("2020", "35-44", "F") in keys
    only_unbanked = [i for i in inds if i.key == ("2020", "35-44", "F")][0]
    assert only_unbanked.alpha == 0.0


def test_planted_rates_recovered():
    config = FiPopulationConfig(n_individuals=100_000, periods=("2020",))
    ds, unbanked = generate_fi_population(config, np.random.default_rng(3))
    # population-wide indicators land within 0.01 of the planted values
    population = ds.n_records + sum(unbanked.values())
    alpha, beta, gamma = (
        np.count_nonzero(ds.column(name) > 0) / population for name in ("nFI", "nSavings", "nLoans")
    )
    shares = np.asarray(BAND_SHARES)
    banked = np.asarray(BANKED_RATE)
    alpha_expect = float((shares * banked).sum())
    beta_expect = float((shares * banked * np.asarray(SAVINGS_RATE)).sum())
    gamma_expect = float((shares * banked * np.asarray(LOAN_RATE)).sum())
    assert abs(alpha - alpha_expect) < 0.01
    assert abs(beta - beta_expect) < 0.01
    assert abs(gamma - gamma_expect) < 0.01
    # per-cell alpha within a 3-sigma binomial interval of its planted rate
    cut = np.asarray(CBP_AGE_CUTOFFS)
    bands = np.minimum(np.searchsorted(cut, ds.column("Age"), side="right"), len(cut) - 1)
    genders = ds.spec("Gender").levels
    for ind in build_usage_indicators(ds, unbanked):
        band = AGE_BAND_LABELS.index(ind.key[1])
        in_cell = (bands == band) & (ds.column("Gender") == genders.index(ind.key[2]))
        population = np.count_nonzero(in_cell) + unbanked.get(ind.key, 0)
        p = BANKED_RATE[band]
        ci = 3 * np.sqrt(p * (1 - p) / population)
        assert abs(ind.alpha - p) <= ci, ind.key


def test_pca_symmetric_indicators_exact_third():
    indicators = [
        UsageIndicators(key=(str(i),), alpha=v, beta=v, gamma=v)
        for i, v in enumerate((0.3, 0.5, 0.7, 0.9))
    ]
    comp = pca_usage_component(indicators)
    assert comp.weights == (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)
    for i, v in enumerate((0.3, 0.5, 0.7, 0.9)):
        assert comp.values[(str(i),)] == pytest.approx(v, abs=1e-12)


def test_pca_correlated_scaled_indicators_preserve_ranking():
    # comonotone indicators with different scales
    base = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
    indicators = [
        UsageIndicators(
            key=(str(i),),
            alpha=float(b),
            beta=float(0.5 * b),
            gamma=float(0.25 * b + 0.05),
        )
        for i, b in enumerate(base)
    ]
    comp = pca_usage_component(indicators)
    values = [comp.values[(str(i),)] for i in range(5)]
    assert np.all(np.diff(values) > 0)  # ranking matches every indicator's


def test_pca_matches_eigen_oracles():
    rng = np.random.default_rng(7)
    base = rng.uniform(0.2, 0.8, 10)
    indicators = [
        UsageIndicators(
            key=(str(i),),
            alpha=float(np.clip(b + rng.normal(0, 0.05), 0, 1)),
            beta=float(np.clip(0.8 * b + rng.normal(0, 0.05), 0, 1)),
            gamma=float(np.clip(0.5 * b + rng.normal(0, 0.05), 0, 1)),
        )
        for i, b in enumerate(base)
    ]
    comp = pca_usage_component(indicators)

    X = np.vstack([ind.vector for ind in indicators])
    Z = (X - X.mean(axis=0)) / X.std(axis=0)
    corr = Z.T @ Z / X.shape[0]

    # oracle 1: dense symmetric eigendecomposition
    eigvals, eigvecs = np.linalg.eigh(corr)
    lead = eigvecs[:, -1]
    if lead[np.argmax(np.abs(lead))] < 0:
        lead = -lead
    want = lead / lead.sum()
    assert np.allclose(comp.weights, want, atol=1e-6)

    # oracle 2: independently coded power iteration
    v = np.ones(3) / 3
    for _ in range(2000):
        w = corr @ v
        w /= np.linalg.norm(w)
        v = w
    if v[np.argmax(np.abs(v))] < 0:
        v = -v
    assert np.allclose(comp.weights, v / v.sum(), atol=1e-6)


def test_pca_zero_variance_column_gets_equal_share():
    indicators = [
        UsageIndicators(key=(str(i),), alpha=a, beta=0.5, gamma=a * 0.5)
        for i, a in enumerate((0.2, 0.4, 0.6, 0.8))
    ]
    with pytest.warns(UserWarning, match="zero-variance"):
        comp = pca_usage_component(indicators)
    assert comp.weights[1] == pytest.approx(1.0 / 3.0)
    assert sum(comp.weights) == pytest.approx(1.0)


def test_pca_needs_three_groups():
    indicators = [
        UsageIndicators(key=("a",), alpha=0.1, beta=0.2, gamma=0.3),
        UsageIndicators(key=("b",), alpha=0.2, beta=0.3, gamma=0.4),
    ]
    with pytest.raises(UsageError, match="3 groups"):
        pca_usage_component(indicators)


def test_tau_identity_and_hand_case():
    from synthbank.apps.usage_index import UsageComponent

    comp_o = UsageComponent(
        weights=(1 / 3, 1 / 3, 1 / 3),
        values={("p1", "b", "M"): 0.4, ("p2", "b", "M"): 0.75},
        recon_error=0.0,
    )
    comp_same = UsageComponent(
        weights=(1 / 3, 1 / 3, 1 / 3),
        values=dict(comp_o.values),
        recon_error=0.0,
    )
    assert tau_metric(comp_same, comp_o).overall == 0.0

    comp_s = UsageComponent(
        weights=(1 / 3, 1 / 3, 1 / 3),
        values={("p1", "b", "M"): 0.5, ("p2", "b", "M"): 0.7},
        recon_error=0.0,
    )
    report = tau_metric(comp_s, comp_o)
    assert report.overall == pytest.approx(0.1)
    assert report.per_group[("b", "M")] == pytest.approx(0.1)
    # symmetry
    assert tau_metric(comp_o, comp_s).overall == pytest.approx(report.overall)
    # overall dominates every group
    assert all(report.overall >= v for v in report.per_group.values())


def test_tau_key_mismatch():
    from synthbank.apps.usage_index import UsageComponent

    a = UsageComponent((1 / 3, 1 / 3, 1 / 3), {("p", "b", "M"): 0.5}, 0.0)
    b = UsageComponent((1 / 3, 1 / 3, 1 / 3), {("p", "b", "F"): 0.5}, 0.0)
    with pytest.raises(UsageError, match="keys do not match"):
        tau_metric(a, b)


def test_usage_levels_saturated_high():
    codes = np.column_stack([np.full(50, 4), np.full(50, 4), np.full(50, 4)])
    enc = make_encoded(codes, (5, 5, 5), names=["nFI", "nSavings", "nLoans"])
    shares = usage_levels(enc)
    for name in ("nFI", "nSavings", "nLoans"):
        assert shares[name][2] == 1.0


def test_usage_levels_shares_sum_to_one():
    rng = np.random.default_rng(9)
    codes = np.column_stack([rng.integers(0, 5, 400) for _ in range(3)])
    enc = make_encoded(codes, (5, 5, 5), names=["nFI", "nSavings", "nLoans"])
    shares = usage_levels(enc)
    for arr in shares.values():
        assert abs(arr.sum() - 1.0) <= 1e-12


def test_usage_levels_planted_loan_skew():
    config = FiPopulationConfig(n_individuals=60_000, periods=("2021",))
    ds, _ = generate_fi_population(config, np.random.default_rng(11))
    enc = encode_dataset(ds, fi_rules("data_driven"))
    shares = usage_levels(enc)
    loans = shares["nLoans"]
    assert loans[0] == max(loans)  # most of the banked sit at low loan usage


def test_usage_levels_domain_too_small():
    enc = make_encoded(np.zeros((10, 3), dtype=int), (2, 5, 5), names=["nFI", "nSavings", "nLoans"])
    with pytest.raises(UsageError, match="at least 3"):
        usage_levels(enc)


def test_unbanked_csv_round_trip(tmp_path):
    table = {("2020", "<25", "M"): 10, ("2021", "75+", "F"): 3}
    path = tmp_path / "unbanked.csv"
    save_unbanked_csv(table, path)
    assert load_unbanked_csv(path) == table


def test_unbanked_csv_rejects_an_unknown_age_band(tmp_path):
    # the first rows of an unbanked table written before the band names were
    # derived from the cut-offs: "25-35" would add an unbanked-only group
    path = tmp_path / "unbanked.csv"
    path.write_text(
        "period,age_band,gender,count\n2020,25-35,F,43\n2020,25-35,M,37\n2020,36-45,F,24\n",
        encoding="utf-8",
    )
    with pytest.raises(TabularError, match=r"unbanked\.csv: row 1: unknown age band '25-35'"):
        load_unbanked_csv(path)


def test_unbanked_csv_rejects_a_repeated_row(tmp_path):
    # the second row of a (period, age band, gender) would replace the first
    path = tmp_path / "unbanked.csv"
    path.write_text(
        "period,age_band,gender,count\n2020,25-34,F,43\n2020,25-34,M,37\n2020,25-34,F,7\n",
        encoding="utf-8",
    )
    message = "unbanked.csv: row 3: period, age band and gender 2020,25-34,F repeat an earlier row"
    with pytest.raises(TabularError, match=re.escape(message)):
        load_unbanked_csv(path)


def test_unbanked_csv_rejects_a_negative_count(tmp_path):
    # it must fail at load, naming the row, not at eval after synth has
    # spent the budget
    path = tmp_path / "unbanked.csv"
    path.write_text(
        "period,age_band,gender,count\n2017,25-34,F,43\n2017,35-44,M,-5\n2017,45-54,F,0\n",
        encoding="utf-8",
    )
    with pytest.raises(TabularError, match=re.escape("unbanked.csv: row 2: count -5 is negative")):
        load_unbanked_csv(path)
    # a zero count is read
    path.write_text("period,age_band,gender,count\n2017,45-54,F,0\n", encoding="utf-8")
    assert load_unbanked_csv(path) == {("2017", "45-54", "F"): 0}


@pytest.mark.parametrize(
    "row, message",
    [
        ("2030,25-34,M,5", "row 2: Period '2030' is no level of the microdata"),
        ("2020,25-34,X,5", "row 2: Gender 'X' is no level of the microdata"),
    ],
    ids=["period", "gender"],
)
def test_fi_files_reject_an_unbanked_group_the_microdata_lacks(tmp_path, row, message):
    # such a row would add an unbanked-only group to the index and its weights
    data = small_fi_dataset()
    write_csv(data, tmp_path / "data.csv")
    save_schema(data.schema, tmp_path / "schema.json")
    (tmp_path / "unbanked.csv").write_text(
        f"period,age_band,gender,count\n2020,25-34,F,4\n{row}\n", encoding="utf-8"
    )
    files = {
        "data": str(tmp_path / "data.csv"),
        "schema": str(tmp_path / "schema.json"),
        "unbanked": str(tmp_path / "unbanked.csv"),
    }
    with pytest.raises(TabularError, match=re.escape(f"unbanked.csv: {message}")):
        prepare(FiPopulationConfig(), files, np.random.default_rng(0))
    # the same table without the row is read whole
    (tmp_path / "unbanked.csv").write_text(
        "period,age_band,gender,count\n2020,25-34,F,4\n", encoding="utf-8"
    )
    _, unbanked = prepare(FiPopulationConfig(), files, np.random.default_rng(0))
    assert unbanked == {("2020", "25-34", "F"): 4}


def test_component_monotone_in_raw_indicators():
    from synthbank.apps.usage_index import UsageComponent

    weights = (0.5, 0.3, 0.2)
    low = float(np.dot(weights, (0.2, 0.4, 0.1)))
    high = float(np.dot(weights, (0.3, 0.4, 0.1)))
    assert high > low
    comp = UsageComponent(weights, {("g",): low}, 0.0)
    assert 0.0 <= comp.values[("g",)] <= 1.0


# ------------------------------------------------ per-row reference
#
# build_usage_indicators as it was before it counted rows per cell with
# np.bincount: one dictionary update per row. Its output must be kept.


def reference_build_usage_indicators(data, unbanked):
    periods = np.asarray(data.labels("Period"), dtype=object)
    genders = np.asarray(data.labels("Gender"), dtype=object)
    cut = np.asarray(CBP_AGE_CUTOFFS)
    bands = np.minimum(np.searchsorted(cut, data.column("Age"), side="right"), len(cut) - 1)
    band_labels = np.asarray(AGE_BAND_LABELS, dtype=object)[bands]
    has_fi = data.column("nFI") > 0
    has_savings = data.column("nSavings") > 0
    has_loan = data.column("nLoans") > 0

    banked = {}
    for i, cell in enumerate(zip(periods, band_labels, genders)):
        acc = banked.setdefault(cell, np.zeros(4))
        acc += (1.0, has_fi[i], has_savings[i], has_loan[i])
    extra = {}
    for cell_key, count in unbanked.items():
        if count < 0:
            raise UsageError(f"unbanked count for {cell_key} is negative")
        group = tuple(cell_key)
        extra[group] = extra.get(group, 0.0) + count
    out = []
    for group in sorted(set(banked) | {g for g, c in extra.items() if c > 0}):
        stats = banked.get(group, np.zeros(4))
        population = stats[0] + extra.get(group, 0.0)
        if population <= 0:
            raise UsageError(f"group {group} has zero total population")
        out.append(
            UsageIndicators(
                key=group,
                alpha=float(stats[1] / population),
                beta=float(stats[2] / population),
                gamma=float(stats[3] / population),
            )
        )
    return out


@st.composite
def usage_input_strategy(draw):
    periods = draw(
        st.lists(st.sampled_from(("2019", "2020", "2021")), min_size=1, max_size=3, unique=True)
    )
    genders = draw(st.lists(st.sampled_from(("M", "F", "X")), min_size=1, max_size=3, unique=True))
    n = draw(st.integers(0, 60))
    rows = st.lists(st.integers(0, 10**6), min_size=n, max_size=n)
    counts = st.lists(st.integers(0, 3).map(float), min_size=n, max_size=n)
    schema = (
        ColumnSpec("Period", CATEGORICAL, levels=tuple(periods)),
        ColumnSpec("Age", NUMERIC),
        ColumnSpec("Gender", CATEGORICAL, levels=tuple(genders)),
        ColumnSpec("nFI", NUMERIC),
        ColumnSpec("nSavings", NUMERIC),
        ColumnSpec("nLoans", NUMERIC),
    )
    data = Dataset(
        schema,
        [
            np.array(draw(rows), dtype=np.int64) % len(periods),
            np.array(draw(st.lists(st.floats(0, 120), min_size=n, max_size=n)), dtype=float),
            np.array(draw(rows), dtype=np.int64) % len(genders),
            np.array(draw(counts)),
            np.array(draw(counts)),
            np.array(draw(counts)),
        ],
    )
    cells = st.tuples(
        st.sampled_from(periods), st.sampled_from(AGE_BAND_LABELS), st.sampled_from(genders)
    )
    unbanked = draw(st.dictionaries(cells, st.integers(0, 50), max_size=6))
    return data, unbanked


@settings(max_examples=150, deadline=None)
@given(usage_input_strategy())
def test_build_usage_indicators_matches_per_row_reference(case):
    data, unbanked = case

    def outcome(build):
        try:
            return repr(build(data, unbanked))
        except UsageError as exc:
            return f"UsageError: {exc}"

    assert outcome(build_usage_indicators) == outcome(reference_build_usage_indicators)


@pytest.mark.parametrize("name", ["Period", "Gender"])
def test_build_usage_indicators_needs_categorical_period_and_gender(name):
    ds = small_fi_dataset(5)
    schema = tuple(ColumnSpec(s.name, NUMERIC) if s.name == name else s for s in ds.schema)
    numeric = Dataset(schema, [ds.column(s.name).astype(float) for s in ds.schema])
    with pytest.raises(TabularError, match=f"column '{name}' is numeric"):
        build_usage_indicators(numeric, {})

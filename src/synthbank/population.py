"""Seeded ground-truth population generator.

Stands in for confidential banking microdata: every dataset is drawn from a
planted parametric model so the downstream evaluators have known answers to
recover. Desk-scale defaults (1e5 individuals, 1e4 deposits, 1e5 cards)
keep end-to-end runs at seconds-level runtimes.

Determinism: all stochastic draws go through the single generator passed
in, in the fixed order the code reads (column by column, groups in
ascending order), so fixtures are stable across releases.

Planted structure worth knowing when testing:

* Financial inclusion: banked share and product penetration depend only on
  the age band (periods and genders are exchangeable), so pairwise
  dependencies form a star around Age and a tree-structured synthesizer
  can represent the population exactly (``BAND_SHARES``, ``GENDER_SPLIT``
  and the per-band ``BANKED_RATE``, ``SAVINGS_RATE``, ``LOAN_RATE`` and
  ``COLLATERAL_RATE``).
* Term deposits: rates follow a smooth planted term curve (decay times
  ``CURVE_TAU``) plus small currency/type/period shifts, a small capital
  discount, and independent noise, so term-bin curves are recoverable and
  parametric fits have a ground truth. Capital and term are log-normal
  (``CAPITAL_LOG_MEAN``, ``CAPITAL_LOG_SD``, ``TERM_LOG_MEAN``,
  ``TERM_LOG_SD``).
* Credit cards: 2021 delinquency bands follow the planted Markov kernel
  ``DEFAULT_DELINQUENCY_KERNEL`` conditional on the 2020 band; debt is
  log-normal and follows a multiplicative walk (``DEBT_LOG_MEAN``,
  ``DEBT_LOG_SD``, ``DEBT_DRIFT``, ``DEBT_VOL``); the persistence rate
  controls the active-in-both-years overlap. Gender scales 2020
  delinquency (Gender -> Del2020 -> Del2021 forms a chain). Ages and
  genders follow fi's ``BAND_SHARES`` and ``GENDER_SPLIT``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .binning import draw_index
from .checks import is_int, is_real, reject_bools
from .presets import (
    AGE_BAND_LABELS,
    CBP_AGE_CUTOFFS,
    CBP_DELINQUENCY_CUTOFFS,
    DEPOSIT_INSURANCE_LIMIT,
    band_edges,
)
from .tabular import CATEGORICAL, NUMERIC, ColumnSpec, Dataset

__all__ = [
    "FiPopulationConfig",
    "DepositMarketConfig",
    "CreditPortfolioConfig",
    "generate_fi_population",
    "generate_term_deposits",
    "generate_credit_cards",
]

#: the youngest and oldest age drawn, and the fewest and most days past due
AGE_LIMITS = (18, 95)
DELINQUENCY_LIMITS = (0, 3000)
#: the clip ranges of deposit capital, term (days) and rate (% p.a.) and of
#: card debt, each ending at or below its cbp rule's final cut-off
CAPITAL_RANGE = (1e5, 2.5e10)
TERM_RANGE = (7.0, 7000.0)
RATE_RANGE = (0.05, 14.9)
DEBT_RANGE = (1e4, 1.34e8)
#: Poisson means of fi's counts: per age band, of the institutions beyond
#: the first, the credit cards and the non-zero savings accounts; then of a
#: holder's savings accounts and loans beyond the first. Each keeps a count
#: above its cbp rule's final cut-off out of reach
FI_EXTRA_LAMBDA = (0.6, 1.5, 1.8, 1.5, 1.2, 0.9, 0.7)
CCARDS_LAMBDA = (0.5, 1.2, 1.4, 1.2, 1.0, 0.7, 0.4)
NZS_LAMBDA = (0.6, 1.0, 1.2, 1.1, 0.9, 0.8, 0.6)
SAVINGS_EXTRA_LAMBDA = 0.8
LOAN_EXTRA_LAMBDA = 0.35
#: fi's and credit's share of men, and each age band's share of the people
GENDER_SPLIT = 0.5
BAND_SHARES = (0.16, 0.20, 0.18, 0.15, 0.12, 0.11, 0.08)
#: fi's probabilities per age band: being banked, and a banked person's
#: holding savings, a loan and collateral
BANKED_RATE = (0.55, 0.80, 0.85, 0.80, 0.72, 0.65, 0.55)
SAVINGS_RATE = (0.50, 0.68, 0.72, 0.70, 0.66, 0.62, 0.58)
LOAN_RATE = (0.18, 0.35, 0.42, 0.40, 0.33, 0.25, 0.15)
COLLATERAL_RATE = (0.10, 0.25, 0.32, 0.30, 0.26, 0.20, 0.12)
#: the planted yield curve's two decay times (days), and the mean and spread
#: of log capital and of log term
CURVE_TAU = (240.0, 960.0)
CAPITAL_LOG_MEAN = float(np.log(5e7))
CAPITAL_LOG_SD = 1.5
TERM_LOG_MEAN = float(np.log(180.0))
TERM_LOG_SD = 1.1
#: concentrated delinquency transition kernel (rows: 2020 band)
DEFAULT_DELINQUENCY_KERNEL = (
    (0.90, 0.10, 0.00, 0.00, 0.00, 0.00),
    (0.15, 0.75, 0.10, 0.00, 0.00, 0.00),
    (0.10, 0.10, 0.70, 0.10, 0.00, 0.00),
    (0.05, 0.05, 0.10, 0.70, 0.10, 0.00),
    (0.00, 0.05, 0.05, 0.10, 0.70, 0.10),
    (0.00, 0.00, 0.05, 0.05, 0.10, 0.80),
)
#: the mean and spread of a 2020 card's log debt, and the drift and
#: volatility of its yearly multiplicative walk
DEBT_LOG_MEAN = float(np.log(3e6))
DEBT_LOG_SD = 1.1
DEBT_DRIFT = -0.05
DEBT_VOL = 0.35

_BANDS = len(AGE_BAND_LABELS)
_DELINQUENCY_BANDS = len(CBP_DELINQUENCY_CUTOFFS)


def _draw_ranges(cutoffs, limits) -> tuple[tuple[int, int], ...]:
    """The integers ``[lo, hi]`` drawn in each band of whole-number
    ``cutoffs``: the band's own integers, kept within the outer ``limits``."""
    low, high = limits
    return tuple((int(max(lo, low)), min(int(hi) - 1, high)) for lo, hi in band_edges(cutoffs))


_AGE_RANGES = _draw_ranges(CBP_AGE_CUTOFFS, AGE_LIMITS)
_DELINQUENCY_RANGES = _draw_ranges(CBP_DELINQUENCY_CUTOFFS, DELINQUENCY_LIMITS)


def _check_count(name: str, value) -> None:
    if not is_int(value) or value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")


def _check_scalars(config, *names: str, low: float = -np.inf) -> None:
    """Each named setting of ``config`` is a finite number of at least ``low``."""
    for name in names:
        value = getattr(config, name)
        reject_bools(ValueError, **{name: value})
        if not is_real(value):
            raise ValueError(f"{name} must be a finite number, got {value!r}")
        if value < low:
            raise ValueError(f"{name} must be >= {low:g}, got {value!r}")


def _check_numbers(name: str, values, length: int | None = None) -> tuple[float, ...]:
    """``values`` as floats, if it is a sequence of ``length`` finite numbers."""
    if not isinstance(values, (tuple, list)) or not all(map(is_real, values)):
        raise ValueError(f"{name} must be a list of numbers, got {values!r}")
    if length is not None and len(values) != length:
        raise ValueError(f"{name} needs {length} entries, got {values!r}")
    return tuple(float(v) for v in values)


def _check_probs(name: str, values, length: int | None = None) -> None:
    if any(not (0.0 <= v <= 1.0) for v in _check_numbers(name, values, length)):
        raise ValueError(f"{name} entries must lie in [0, 1]")


def _check_periods(values) -> None:
    if (
        not isinstance(values, (tuple, list))
        or not values
        or not all(isinstance(v, str) for v in values)
        or len(set(values)) != len(values)
    ):
        raise ValueError(f"periods must be a non-empty list of distinct names, got {values!r}")


@dataclass(frozen=True)
class FiPopulationConfig:
    """Planted financial-inclusion population.

    ``n_individuals`` counts the whole population including the unbanked;
    only banked individuals become microdata rows, the rest go into the
    unbanked count table. Product penetration varies by age band only.
    """

    n_individuals: int = 100_000
    periods: tuple[str, ...] = ("2017", "2018", "2019", "2020", "2021", "2022")

    def __post_init__(self) -> None:
        _check_count("n_individuals", self.n_individuals)
        _check_periods(self.periods)


@dataclass(frozen=True)
class DepositMarketConfig:
    """Planted term-deposit market with a smooth recoverable rate curve.

    The planted curve is the four-coefficient parametric term structure
    (level/slope/two humps with decay times ``tau1``/``tau2``); noise and
    the capital discount are kept small relative to the 0.5pp rate bins.
    """

    n_deposits: int = 10_000
    periods: tuple[str, ...] = ("2019-12", "2020-12", "2021-12", "2022-12", "2023-12")
    bank_share: float = 0.7
    pyg_share: float = 0.8
    curve_beta: tuple[float, float, float, float] = (6.0, -3.5, 1.0, 0.8)
    usd_shift: float = -1.2
    nonbank_shift: float = 0.25
    period_shift_step: float = 0.05
    capital_discount: float = 0.02
    rate_noise: float = 0.25

    def __post_init__(self) -> None:
        _check_count("n_deposits", self.n_deposits)
        _check_scalars(
            self, "bank_share", "pyg_share", "usd_shift", "nonbank_shift",
            "period_shift_step", "capital_discount",
        )
        _check_scalars(self, "rate_noise", low=0.0)
        _check_probs("bank_share", (self.bank_share,))
        _check_probs("pyg_share", (self.pyg_share,))
        _check_periods(self.periods)
        _check_numbers("curve_beta", self.curve_beta, 4)


@dataclass(frozen=True)
class CreditPortfolioConfig:
    """Planted two-year credit-card portfolio."""

    n_cards: int = 100_000
    persistence: float = 0.8
    new_card_rate: float = 0.15
    delinquency_dist_male: tuple[float, ...] = (0.70, 0.07, 0.06, 0.06, 0.055, 0.055)
    delinquency_dist_female: tuple[float, ...] = (0.85, 0.04, 0.03, 0.03, 0.025, 0.025)

    def __post_init__(self) -> None:
        _check_count("n_cards", self.n_cards)
        _check_scalars(self, "persistence", "new_card_rate")
        for name in ("persistence", "new_card_rate"):
            _check_probs(name, (getattr(self, name),))
        for name, dist in (
            ("delinquency_dist_male", self.delinquency_dist_male),
            ("delinquency_dist_female", self.delinquency_dist_female),
        ):
            _check_probs(name, dist, _DELINQUENCY_BANDS)
            if abs(sum(dist) - 1.0) > 1e-9:
                raise ValueError(f"{name} must sum to 1")


def _ages_for_bands(bands: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    ages = np.zeros(bands.shape[0], dtype=np.float64)
    # a band no record holds draws nothing: a size-0 draw leaves the generator as it was
    for b, (lo, hi) in enumerate(_AGE_RANGES):
        idx = np.flatnonzero(bands == b)
        ages[idx] = rng.integers(lo, hi + 1, size=idx.size)
    return ages


def generate_fi_population(
    config: FiPopulationConfig, rng: np.random.Generator
) -> tuple[Dataset, dict]:
    """Banked microdata rows plus the unbanked count table.

    Returns ``(dataset, unbanked)`` where ``unbanked`` maps
    ``(period, age_band_label, gender)`` to a count. Draw order: cell sizes,
    banked counts, then per-column draws over all banked rows.
    """
    periods = config.periods
    genders = ("M", "F")
    # cells in (period, age band, gender) order, gender fastest
    shares = np.asarray(BAND_SHARES)[:, None] * [GENDER_SPLIT, 1.0 - GENDER_SPLIT]
    cell_probs = np.tile((shares / len(periods)).ravel(), len(periods))
    cell_sizes = rng.multinomial(config.n_individuals, cell_probs)
    banked_rates = np.tile(np.repeat(BANKED_RATE, len(genders)), len(periods))
    banked_sizes = rng.binomial(cell_sizes, banked_rates)
    unbanked = dict(
        zip(product(periods, AGE_BAND_LABELS, genders), (cell_sizes - banked_sizes).tolist())
    )
    cell = np.repeat(np.arange(cell_sizes.size), banked_sizes)
    period_col, cell = np.divmod(cell, _BANDS * len(genders))
    bands, gender_col = np.divmod(cell, len(genders))
    n = bands.shape[0]

    # a draw of size 0 is empty and leaves the generator as it was
    ages = _ages_for_bands(bands, rng)
    ccards = rng.poisson(np.asarray(CCARDS_LAMBDA)[bands])
    collateral = rng.binomial(1, np.asarray(COLLATERAL_RATE)[bands])
    has_loan = rng.binomial(1, np.asarray(LOAN_RATE)[bands])
    loans = has_loan * (1 + rng.poisson(LOAN_EXTRA_LAMBDA, size=n))
    duration = np.zeros(n, dtype=np.float64)
    loan_idx = np.flatnonzero(loans > 0)
    duration[loan_idx] = np.clip(
        np.round(np.exp(rng.normal(np.log(500.0), 0.8, size=loan_idx.size))), 30, 3900
    )
    nfi = 1 + rng.poisson(np.asarray(FI_EXTRA_LAMBDA)[bands])
    nzs = rng.poisson(np.asarray(NZS_LAMBDA)[bands])
    has_savings = rng.binomial(1, np.asarray(SAVINGS_RATE)[bands])
    savings = has_savings * (1 + rng.poisson(SAVINGS_EXTRA_LAMBDA, size=n))

    schema = (
        ColumnSpec("Period", CATEGORICAL, levels=periods),
        ColumnSpec("Age", NUMERIC, units="years"),
        ColumnSpec("Gender", CATEGORICAL, levels=genders),
        ColumnSpec("nCCards", NUMERIC),
        ColumnSpec("hasCollateral", NUMERIC),
        ColumnSpec("nLoans", NUMERIC),
        ColumnSpec("loanMaxDuration", NUMERIC, units="days"),
        ColumnSpec("nFI", NUMERIC),
        ColumnSpec("nNZS", NUMERIC),
        ColumnSpec("nSavings", NUMERIC),
    )
    dataset = Dataset(
        schema,
        [
            period_col,
            ages,
            gender_col,
            np.asarray(ccards, dtype=np.float64),
            np.asarray(collateral, dtype=np.float64),
            np.asarray(loans, dtype=np.float64),
            duration,
            np.asarray(nfi, dtype=np.float64),
            np.asarray(nzs, dtype=np.float64),
            np.asarray(savings, dtype=np.float64),
        ],
    )
    return dataset, unbanked


def svensson_loadings(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The slope and curvature loadings of the Svensson curve at ``u`` =
    maturity / decay time, ``(1 - e^-u) / u`` and that minus ``e^-u``."""
    slope = -np.expm1(-u) / u
    return slope, slope - np.exp(-u)


def planted_rate_curve(config: DepositMarketConfig, term_days) -> np.ndarray:
    """The planted smooth rate curve evaluated at the given terms: the
    Svensson curve of ``curve_beta`` and ``CURVE_TAU``, whose loadings
    ``svensson_loadings`` gives, as in ``apps.yield_curve``'s fit."""
    b0, b1, b2, b3 = config.curve_beta
    t1, t2 = CURVE_TAU
    t = np.asarray(term_days, dtype=np.float64)
    f1, f2 = svensson_loadings(t / t1)
    f3 = svensson_loadings(t / t2)[1]
    return b0 + b1 * f1 + b2 * f2 + b3 * f3


def generate_term_deposits(config: DepositMarketConfig, rng: np.random.Generator) -> Dataset:
    """Term-deposit microdata from the planted term structure.

    Draw order: type, period, currency, term, capital, rate noise.
    """
    n = config.n_deposits
    type_col = (rng.random(n) >= config.bank_share).astype(np.int64)  # 0 Bank, 1 Nonbank
    period_col = rng.integers(0, len(config.periods), size=n)
    currency_col = (rng.random(n) < config.pyg_share).astype(np.int64)  # 0 USD, 1 PYG
    terms = np.clip(
        np.round(np.exp(rng.normal(TERM_LOG_MEAN, TERM_LOG_SD, size=n))),
        *TERM_RANGE,
    )
    capital = np.clip(
        np.exp(rng.normal(CAPITAL_LOG_MEAN, CAPITAL_LOG_SD, size=n)),
        *CAPITAL_RANGE,
    )
    rates = planted_rate_curve(config, terms)
    rates = rates + np.where(currency_col == 0, config.usd_shift, 0.0)
    rates = rates + np.where(type_col == 1, config.nonbank_shift, 0.0)
    rates = rates + config.period_shift_step * period_col
    rates = rates - config.capital_discount * np.log2(capital / DEPOSIT_INSURANCE_LIMIT)
    if config.rate_noise > 0:
        rates = rates + rng.normal(0.0, config.rate_noise, size=n)
    rates = np.clip(rates, *RATE_RANGE)

    schema = (
        ColumnSpec("typeFI", CATEGORICAL, levels=("Bank", "Nonbank")),
        ColumnSpec("Period", CATEGORICAL, levels=config.periods),
        ColumnSpec("Currency", CATEGORICAL, levels=("USD", "PYG")),
        ColumnSpec("Capital", NUMERIC, units="PYG"),
        ColumnSpec("Term", NUMERIC, units="days"),
        ColumnSpec("InterestRate", NUMERIC, units="% p.a."),
    )
    return Dataset(schema, [type_col, period_col, currency_col, capital, terms, rates])


def _delinquency_days(bands: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Days past due per band, clumped around each band's reporting point.

    Delinquency is reported at cycle points, so days concentrate instead of
    filling the band uniformly; tight clumps also give data-driven k-means
    states a recoverable ground truth.
    """
    days = np.zeros(bands.shape[0], dtype=np.float64)
    for b, (lo, hi) in enumerate(_DELINQUENCY_RANGES):
        idx = np.flatnonzero(bands == b)
        center = (lo + hi) // 2
        spread = max(1, min((hi - lo) // 4, 30))
        days[idx] = rng.integers(center - spread, center + spread + 1, size=idx.size)
    return days


def generate_credit_cards(
    config: CreditPortfolioConfig, rng: np.random.Generator
) -> tuple[Dataset, Dataset]:
    """Two yearly card datasets linked by card id.

    2021 delinquency bands are drawn from the planted kernel conditional on
    the 2020 band (grouped by band, bands ascending); debt follows the
    multiplicative walk; a Bernoulli(persistence) mask decides which 2020
    cards stay active, and fresh cards are appended to 2021.
    """
    n = config.n_cards
    genders = ("M", "F")
    gender_col = (rng.random(n) >= GENDER_SPLIT).astype(np.int64)  # 0 M, 1 F
    bands = np.zeros(n, dtype=np.int64)
    for g, dist in ((0, config.delinquency_dist_male), (1, config.delinquency_dist_female)):
        idx = np.flatnonzero(gender_col == g)
        bands[idx] = draw_index(rng, dist, idx.size)
    age_bands = draw_index(rng, BAND_SHARES, n)
    ages = _ages_for_bands(age_bands, rng)
    del_2020 = _delinquency_days(bands, rng)
    debt_2020 = np.clip(
        np.exp(rng.normal(DEBT_LOG_MEAN, DEBT_LOG_SD, size=n)),
        *DEBT_RANGE,
    )

    survivors = rng.random(n) < config.persistence
    bands_2021 = np.zeros(n, dtype=np.int64)
    kernel = np.asarray(DEFAULT_DELINQUENCY_KERNEL)
    for b in range(_DELINQUENCY_BANDS):
        idx = np.flatnonzero(bands == b)
        bands_2021[idx] = draw_index(rng, kernel[b], idx.size)
    del_2021 = _delinquency_days(bands_2021, rng)
    debt_2021 = np.clip(
        debt_2020 * np.exp(rng.normal(DEBT_DRIFT, DEBT_VOL, size=n)),
        *DEBT_RANGE,
    )

    n_new = int(round(config.new_card_rate * n))
    mix = (
        GENDER_SPLIT * np.asarray(config.delinquency_dist_male)
        + (1 - GENDER_SPLIT) * np.asarray(config.delinquency_dist_female)
    )
    new_bands = draw_index(rng, mix / mix.sum(), n_new)
    new_del = _delinquency_days(new_bands, rng)
    new_debt = np.clip(
        np.exp(rng.normal(DEBT_LOG_MEAN, DEBT_LOG_SD, size=n_new)),
        *DEBT_RANGE,
    )

    schema_2020 = (
        ColumnSpec("CardId", NUMERIC),
        ColumnSpec("Gender", CATEGORICAL, levels=genders),
        ColumnSpec("Age2020", NUMERIC, units="years"),
        ColumnSpec("Debt2020", NUMERIC, units="PYG"),
        ColumnSpec("Delinquency2020", NUMERIC, units="days"),
    )
    data_2020 = Dataset(
        schema_2020, [np.arange(n, dtype=np.float64), gender_col, ages, debt_2020, del_2020]
    )

    keep = np.flatnonzero(survivors)
    ids_2021 = np.concatenate([keep.astype(np.float64), np.arange(n, n + n_new, dtype=np.float64)])
    debt_col = np.concatenate([debt_2021[keep], new_debt])
    del_col = np.concatenate([del_2021[keep], new_del])
    schema_2021 = (
        ColumnSpec("CardId", NUMERIC),
        ColumnSpec("Debt2021", NUMERIC, units="PYG"),
        ColumnSpec("Delinquency2021", NUMERIC, units="days"),
    )
    data_2021 = Dataset(schema_2021, [ids_2021, debt_col, del_col])
    return data_2020, data_2021

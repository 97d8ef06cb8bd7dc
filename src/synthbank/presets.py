"""Bank reporting taxonomy presets and per-application strategy bundles.

Two pre-processing strategies are bundled per application: ``cbp`` applies
the bank's explicit domain cut-offs, ``data_driven`` applies
equal-frequency / uniform / k-means rules with log pre-transforms on the
very-large-domain monetary features. The k values are configuration
inputs; the defaults follow the bank's reporting taxonomy.

The cut-off tuples are the only band literals: the reporting band names,
each band's edges and the band count derive from them, here, for the
population generator and the applications.
"""

from __future__ import annotations

import numpy as np

from .binning import (
    EQUAL_FREQUENCY,
    EXPLICIT,
    KMEANS,
    UNIFORM_WIDTH,
    BinningRule,
    assign_codes,
)

__all__ = [
    "CBP_AGE_CUTOFFS",
    "AGE_BAND_LABELS",
    "band_edges",
    "age_bands",
    "DEPOSIT_INSURANCE_LIMIT",
    "MINIMUM_MONTHLY_WAGE",
    "CBP_TERM_CUTOFFS",
    "CBP_RATE_CUTOFFS",
    "CBP_CAPITAL_CUTOFFS",
    "CBP_DEBT_CUTOFFS",
    "CBP_DELINQUENCY_CUTOFFS",
    "fi_rules",
    "deposit_rules",
    "credit_rules",
    "STRATEGIES",
]

STRATEGIES = ("cbp", "data_driven")

#: seven demographic age bands used across reporting
CBP_AGE_CUTOFFS = (25.0, 35.0, 45.0, 55.0, 65.0, 75.0, 110.0)

#: count features reported as [0, 1, 2, 3, >3]
CBP_COUNT_CUTOFFS = (1.0, 2.0, 3.0, 4.0, 50.0)
#: number of financial institutions: banked individuals have at least one
CBP_NFI_CUTOFFS = (2.0, 3.0, 4.0, 50.0)
#: presence flags reported as [0, >=1]
CBP_BINARY_CUTOFFS = (1.0, 50.0)
#: longest loan duration bands in days
CBP_LOAN_DURATION_CUTOFFS = (1.0, 400.0, 740.0, 1100.0, 1850.0, 4000.0)

#: deposit insurance limit, PYG
DEPOSIT_INSURANCE_LIMIT = 2.0e8
#: capital bands: multiples L * 2^n, n = -1..7 (nine bands)
CBP_CAPITAL_CUTOFFS = tuple(DEPOSIT_INSURANCE_LIMIT * 2.0**n for n in range(-1, 8))

#: 28 term bands in days: monthly to one year, quarterly to three years,
#: then annual-ish steps, closed at 7200
CBP_TERM_CUTOFFS = tuple(
    [30.0 * i for i in range(1, 13)]
    + [360.0 + 90.0 * i for i in range(1, 9)]
    + [1440.0, 1800.0, 2160.0, 2520.0, 2880.0, 3240.0, 3600.0]
    + [7200.0]
)

#: 16 interest-rate bands: half-point widths with a wide closed top band
CBP_RATE_CUTOFFS = tuple(0.5 * i for i in range(1, 16)) + (15.0,)

#: 2020 minimum monthly wage, PYG
MINIMUM_MONTHLY_WAGE = 2.1e6
#: debt bands: multiples W * 2^n, n = -1..6 (eight bands)
CBP_DEBT_CUTOFFS = tuple(MINIMUM_MONTHLY_WAGE * 2.0**n for n in range(-1, 7))

#: delinquency-day bands used in solvency oversight, domain capped at 8000
CBP_DELINQUENCY_CUTOFFS = (61.0, 91.0, 151.0, 181.0, 271.0, 8000.0)


def band_edges(cutoffs) -> tuple[tuple[float, float], ...]:
    """The ``[low, high)`` edges of each band of ``cutoffs``, as
    ``explicit_bins`` codes them: the first band is open below (``low`` is
    ``-inf``) and the last cut-off closes the domain."""
    return tuple(zip((-np.inf, *cutoffs[:-1]), cutoffs))


def _band_names(cutoffs) -> tuple[str, ...]:
    """Reporting names of the bands of whole-number ``cutoffs``: ``<c0``, then
    each band's first and last whole value, and ``c+`` for the last band,
    whose closing cut-off is the domain cap, not a reported limit."""
    (_, first), *middle, (last, _) = band_edges(cutoffs)
    return (
        f"<{first:g}",
        *(f"{low:g}-{high - 1:g}" for low, high in middle),
        f"{last:g}+",
    )


#: the names of the age bands, which key fi's unbanked counts and groups
#: and credit's delinquency rates
AGE_BAND_LABELS = _band_names(CBP_AGE_CUTOFFS)


def age_bands(ages) -> np.ndarray:
    """The index of each age's band in ``AGE_BAND_LABELS``; ages past the
    last cut-off count in the last band."""
    return assign_codes(ages, (0.0, *CBP_AGE_CUTOFFS))


def _check_strategy(strategy: str) -> None:
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy '{strategy}' (expected one of {STRATEGIES})")


def fi_rules(strategy: str) -> dict[str, BinningRule]:
    """Binning rules for the financial-inclusion microdata features."""
    _check_strategy(strategy)
    if strategy == "cbp":
        return {
            "Age": BinningRule(EXPLICIT, cutoffs=CBP_AGE_CUTOFFS),
            "nCCards": BinningRule(EXPLICIT, cutoffs=CBP_COUNT_CUTOFFS),
            "hasCollateral": BinningRule(EXPLICIT, cutoffs=CBP_BINARY_CUTOFFS),
            "nLoans": BinningRule(EXPLICIT, cutoffs=CBP_COUNT_CUTOFFS),
            "loanMaxDuration": BinningRule(EXPLICIT, cutoffs=CBP_LOAN_DURATION_CUTOFFS),
            "nFI": BinningRule(EXPLICIT, cutoffs=CBP_NFI_CUTOFFS, floor=1.0),
            "nNZS": BinningRule(EXPLICIT, cutoffs=CBP_COUNT_CUTOFFS),
            "nSavings": BinningRule(EXPLICIT, cutoffs=CBP_COUNT_CUTOFFS),
        }
    return {
        "Age": BinningRule(UNIFORM_WIDTH, k=17),
        "nCCards": BinningRule(KMEANS, k=5),
        "hasCollateral": BinningRule(EXPLICIT, cutoffs=CBP_BINARY_CUTOFFS),
        "nLoans": BinningRule(KMEANS, k=5),
        "loanMaxDuration": BinningRule(KMEANS, k=4),
        "nFI": BinningRule(KMEANS, k=7),
        "nNZS": BinningRule(EQUAL_FREQUENCY, k=4),
        "nSavings": BinningRule(KMEANS, k=5),
    }


def deposit_rules(strategy: str) -> dict[str, BinningRule]:
    """Binning rules for the term-deposit yield-curve features."""
    _check_strategy(strategy)
    if strategy == "cbp":
        return {
            # the positive floor keeps the bottom band's left edge usable as
            # a capital weight after decoding
            "Capital": BinningRule(EXPLICIT, cutoffs=CBP_CAPITAL_CUTOFFS, floor=1e6),
            "Term": BinningRule(EXPLICIT, cutoffs=CBP_TERM_CUTOFFS),
            "InterestRate": BinningRule(EXPLICIT, cutoffs=CBP_RATE_CUTOFFS),
        }
    return {
        "Capital": BinningRule(EQUAL_FREQUENCY, k=5, log_pretransform=True),
        "Term": BinningRule(EQUAL_FREQUENCY, k=5),
        "InterestRate": BinningRule(KMEANS, k=5),
    }


def credit_rules(strategy: str) -> dict[str, BinningRule]:
    """Binning rules for the credit-card transition-matrix features."""
    _check_strategy(strategy)
    if strategy == "cbp":
        return {
            "Age2020": BinningRule(EXPLICIT, cutoffs=CBP_AGE_CUTOFFS),
            "Debt2020": BinningRule(EXPLICIT, cutoffs=CBP_DEBT_CUTOFFS),
            "Debt2021": BinningRule(EXPLICIT, cutoffs=CBP_DEBT_CUTOFFS),
            "Delinquency2020": BinningRule(EXPLICIT, cutoffs=CBP_DELINQUENCY_CUTOFFS),
            "Delinquency2021": BinningRule(EXPLICIT, cutoffs=CBP_DELINQUENCY_CUTOFFS),
        }
    return {
        "Age2020": BinningRule(KMEANS, k=6),
        "Debt2020": BinningRule(KMEANS, k=7, log_pretransform=True),
        "Debt2021": BinningRule(KMEANS, k=7, log_pretransform=True),
        "Delinquency2020": BinningRule(KMEANS, k=6),
        "Delinquency2021": BinningRule(KMEANS, k=6),
    }

"""Noise calibration, application, and budget composition."""

import math

import numpy as np
import pytest

from synthbank.privacy import (
    PrivacyError,
    PrivacyParams,
    add_gaussian_noise,
    gaussian_sigma,
    split_budget,
)

# direct evaluation of the calibration formula at the headline setting
SIGMA_EPS1_DELTA1E10 = (
    math.sqrt(math.log(1e10)) + math.sqrt(math.log(1e10) + 1.0)
) / 1.0


def test_sigma_headline_setting():
    sigma = gaussian_sigma(PrivacyParams(1.0, 1e-10))
    assert math.isclose(sigma, SIGMA_EPS1_DELTA1E10, rel_tol=1e-12)
    assert abs(sigma - 9.7001) < 1e-3


def test_sigma_log_term_vanishes():
    # delta -> 1 kills the log term and sigma -> sqrt(eps)/eps = 1 at eps = 1
    sigma = gaussian_sigma(PrivacyParams(1.0, 1.0 - 1e-12))
    assert abs(sigma - 1.0) < 1e-5


def test_sigma_closed_form_case():
    sigma = gaussian_sigma(PrivacyParams(2.0, math.exp(-4.0)))
    assert math.isclose(sigma, (2.0 + math.sqrt(6.0)) / 2.0, rel_tol=1e-12)
    assert abs(sigma - 2.2247) < 1e-4


def test_sigma_monotone_grid():
    eps_grid = np.geomspace(0.05, 20.0, 12)
    delta_grid = np.geomspace(1e-12, 0.5, 12)
    for delta in delta_grid:
        sigmas = [gaussian_sigma(PrivacyParams(e, delta)) for e in eps_grid]
        assert np.all(np.diff(sigmas) < 0), "sigma must strictly decrease in epsilon"
    for eps in eps_grid:
        sigmas = [gaussian_sigma(PrivacyParams(eps, d)) for d in delta_grid]
        assert np.all(np.diff(sigmas) < 0), "sigma must strictly decrease in delta"


def test_params_validation():
    with pytest.raises(PrivacyError):
        PrivacyParams(0.0, 1e-10)
    with pytest.raises(PrivacyError):
        PrivacyParams(1.0, 0.0)
    with pytest.raises(PrivacyError):
        PrivacyParams(1.0, 1.0)
    with pytest.raises(PrivacyError, match="epsilon must be positive, got True"):
        PrivacyParams(True, 0.5)


def test_noise_sigma_zero_identity():
    counts = np.arange(12.0).reshape(3, 4)
    noisy = add_gaussian_noise(counts, 0.0, np.random.default_rng(1))
    assert np.array_equal(noisy.counts, counts)


def test_noise_empirical_std():
    counts = np.zeros(10_000)
    sigma = 9.7001
    noisy = add_gaussian_noise(counts, sigma, np.random.default_rng(7))
    assert abs(noisy.counts.std() - sigma) / sigma < 0.03


def test_noise_deterministic_under_seed():
    counts = np.ones((5, 5))
    a = add_gaussian_noise(counts, 2.5, np.random.default_rng(42))
    b = add_gaussian_noise(counts, 2.5, np.random.default_rng(42))
    assert np.array_equal(a.counts, b.counts)


def test_noise_cells_uncorrelated():
    noisy = add_gaussian_noise(np.zeros(100_001), 1.0, np.random.default_rng(3))
    x = noisy.counts
    corr = np.corrcoef(x[:-1], x[1:])[0, 1]
    assert abs(corr) < 0.05


def test_split_no_selection_full_budget():
    selection, per = split_budget(PrivacyParams(1.0, 1e-10), 1, 0.0)
    assert selection is None
    assert per == PrivacyParams(1.0, 1e-10)


def test_split_arithmetic():
    selection, per = split_budget(PrivacyParams(1.0, 1e-10), 4, 1.0 / 3.0)
    assert math.isclose(selection.epsilon, 1.0 / 3.0, rel_tol=1e-12)
    assert math.isclose(per.epsilon, 1.0 / 6.0, rel_tol=1e-12)
    assert math.isclose(per.delta, 1e-10 / 6.0, rel_tol=1e-12)


def test_split_conservation_random():
    rng = np.random.default_rng(11)
    for _ in range(50):
        params = PrivacyParams(float(rng.uniform(0.1, 5)), float(rng.uniform(1e-12, 0.1)))
        m = int(rng.integers(1, 9))
        f = float(rng.uniform(0, 0.9))
        selection, per = split_budget(params, m, f)
        eps_total = per.epsilon * m + (selection.epsilon if selection else 0.0)
        delta_total = per.delta * m + (selection.delta if selection else 0.0)
        assert math.isclose(eps_total, params.epsilon, rel_tol=1e-9)
        assert math.isclose(delta_total, params.delta, rel_tol=1e-9)

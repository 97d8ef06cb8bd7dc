"""Noise calibration, application, and budget composition."""

import math

import numpy as np
import pytest

from synthbank.privacy import (
    PrivacyError,
    PrivacyParams,
    add_gaussian_noise,
    gaussian_sigma,
    noisy_max,
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
    eps_selection, sigma = split_budget(PrivacyParams(1.0, 1e-10), 1, 0, 0.0)
    assert eps_selection is None
    assert sigma == gaussian_sigma(PrivacyParams(1.0, 1e-10))
    assert split_budget(None, 1, 0, 0.0) == (None, 0.0)


def test_split_arithmetic():
    eps_selection, sigma = split_budget(PrivacyParams(1.0, 1e-10), 4, 2, 1.0 / 3.0)
    assert math.isclose(eps_selection, 1.0 / 6.0, rel_tol=1e-12)
    assert math.isclose(
        sigma, gaussian_sigma(PrivacyParams(1.0 / 6.0, 1e-10 / 6.0)), rel_tol=1e-12
    )


def test_split_conservation_random():
    # each measurement's share is (eps_m, delta * (1 - f) / m); eps_m is read
    # back from its sigma by inverting the calibration formula
    rng = np.random.default_rng(11)
    for i in range(50):
        params = PrivacyParams(float(rng.uniform(0.1, 5)), float(rng.uniform(1e-12, 0.1)))
        m = int(rng.integers(1, 9))
        n_selections = int(rng.integers(1, 9))
        f = 0.0 if i % 5 == 0 else float(rng.uniform(0, 0.9))
        eps_selection, sigma = split_budget(params, m, n_selections, f)
        root_log = math.sqrt(math.log(m / (params.delta * (1.0 - f))))
        eps_measurement = (1.0 + 2.0 * root_log * sigma) / sigma**2
        spent = m * eps_measurement + (n_selections * eps_selection if f > 0 else 0.0)
        assert (eps_selection is None) == (f == 0)
        assert math.isclose(spent, params.epsilon, rel_tol=1e-9)


def reference_split_budget(params, m, selection_fraction):
    """The two-step split it replaces, first step: the selection's and each
    measurement's (epsilon, delta)."""
    if m < 1:
        raise PrivacyError(f"measurement count must be >= 1, got {m}")
    if not (0 <= selection_fraction < 1):
        raise PrivacyError(
            f"selection fraction must lie in [0, 1), got {selection_fraction}"
        )
    f = selection_fraction
    selection = PrivacyParams(params.epsilon * f, params.delta * f) if f > 0 else None
    remainder = 1.0 - selection_fraction
    per_measurement = PrivacyParams(
        params.epsilon * remainder / m, params.delta * remainder / m
    )
    return selection, per_measurement


def reference_budget(params, n_measurements, n_selections, selection_fraction):
    """Second step: each selection's epsilon and each measurement's sigma."""
    if params is None:
        return None, 0.0
    selection, per_measurement = reference_split_budget(
        params, n_measurements, selection_fraction
    )
    epsilon = selection.epsilon / n_selections if selection is not None and n_selections else None
    return epsilon, gaussian_sigma(per_measurement)


def split_cases():
    rng = np.random.default_rng(37)
    for _ in range(300):
        params = PrivacyParams(
            float(10 ** rng.uniform(-2, 2)), float(10 ** rng.uniform(-14, -0.5))
        )
        f = float(rng.choice([0.0, 1.0 / 3.0, rng.uniform(0, 1)]))
        yield params, int(rng.integers(1, 50)), int(rng.integers(0, 50)), f
    for params in (None, PrivacyParams(1.0, 1e-10), PrivacyParams(0.1, 1e-6)):
        yield params, 2, 0, 0.0  # PAC
        for rounds in range(1, 13):
            for f in (1.0 / 3.0, 0.0, 0.5):
                yield params, rounds, rounds, f  # AIM
                yield params, rounds, rounds - 1, f  # MST on d = rounds columns


def test_split_is_the_two_step_split_bit_for_bit():
    for params, m, n_selections, f in split_cases():
        got = split_budget(params, m, n_selections, f)
        expected = reference_budget(params, m, n_selections, f)
        assert got == expected, (params, m, n_selections, f)
        assert [x and x.hex() for x in got] == [x and x.hex() for x in expected]


@pytest.mark.parametrize(
    "m, n_selections, f",
    [
        (0, 0, 0.0),
        (-1, 3, 0.3),
        (3, 2, 1.0),
        (3, 2, -0.1),
        (3, 2, math.nan),
        (3, 2, 5e-324),  # the selection's delta underflows to 0
        (10**300, 1, 0.0),  # each measurement's delta underflows to 0
    ],
    ids=["no-measurement", "negative-m", "f-one", "f-negative", "f-nan", "f-tiny", "m-huge"],
)
def test_split_raises_the_two_step_split_errors(m, n_selections, f):
    params = PrivacyParams(1.0, 1e-30)
    with pytest.raises(PrivacyError) as expected:
        reference_budget(params, m, n_selections, f)
    with pytest.raises(PrivacyError) as got:
        split_budget(params, m, n_selections, f)
    assert str(got.value) == str(expected.value)


def test_noisy_max_without_epsilon_returns_the_scores_and_draws_nothing():
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    scores = np.array([0.3, -1.0, 2.5])
    assert noisy_max(scores, 0.7, None, rng) is scores
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("n", [1, 6, 45])
@pytest.mark.parametrize(
    "sensitivity, epsilon",
    [(2.0 * math.log(40_000) / 40_000, 1.0 / 15.0), (2.0 * 3.5, 1.0 / 30.0)],  # MST, AIM
)
def test_noisy_max_is_one_gumbel_draw_of_n_scalar_draws(n, sensitivity, epsilon):
    scores = np.random.default_rng(n).normal(size=n)
    rng, replay, scalar = (np.random.default_rng(8) for _ in range(3))
    got = noisy_max(scores.copy(), sensitivity, epsilon, rng)
    scale = 2.0 * sensitivity / epsilon
    expected = scores + replay.gumbel(0.0, scale, size=n)
    assert [x.hex() for x in got] == [x.hex() for x in expected]
    assert rng.bit_generator.state == replay.bit_generator.state
    # the mechanisms' reference fits draw one scalar per score
    assert np.array_equal(got, scores + [scalar.gumbel(0.0, scale) for _ in range(n)])
    assert rng.bit_generator.state == scalar.bit_generator.state

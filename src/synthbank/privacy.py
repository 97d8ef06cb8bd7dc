"""Privacy parameters, Gaussian noise calibration, and budget composition.

The only module that turns an (epsilon, delta) budget into a noise scale:
:func:`split_budget` gives each selection its epsilon and each measurement
the Gaussian scale of its share,

    sigma = (sqrt(ln(1/delta)) + sqrt(ln(1/delta) + epsilon)) / epsilon,

and :func:`noisy_max` draws Gumbel selection noise of scale
``2 * sensitivity / epsilon``. Composition is basic (linear): budgets add
up exactly, keeping the accounting auditable; tighter accountants are out
of scope. Noise application takes an explicit seeded generator so runs are
reproducible and no mutable RNG is shared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .checks import is_real

__all__ = [
    "PrivacyError",
    "PrivacyParams",
    "NoisyMarginal",
    "gaussian_sigma",
    "add_gaussian_noise",
    "split_budget",
    "noisy_max",
]


class PrivacyError(ValueError):
    """Invalid privacy parameters or budget arithmetic."""


@dataclass(frozen=True)
class PrivacyParams:
    """An (epsilon, delta) differential-privacy budget."""

    epsilon: float
    delta: float

    def __post_init__(self) -> None:
        if not is_real(self.epsilon) or not self.epsilon > 0:
            raise PrivacyError(f"epsilon must be positive, got {self.epsilon!r}")
        if not is_real(self.delta) or not 0 < self.delta < 1:
            raise PrivacyError(f"delta must lie in (0, 1), got {self.delta!r}")


@dataclass(frozen=True)
class NoisyMarginal:
    """A measured contingency table: its real-valued, read-only counts.

    The table shape must equal the product of the attribute domain sizes;
    that is checked by the mechanism that owns the attribute metadata, which
    also records each measurement's attributes and noise scale.
    """

    counts: np.ndarray

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=np.float64)
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)


def gaussian_sigma(params: PrivacyParams) -> float:
    """Per-measurement Gaussian noise scale for the given budget."""
    log_term = math.log(1.0 / params.delta)
    return (math.sqrt(log_term) + math.sqrt(log_term + params.epsilon)) / params.epsilon


def add_gaussian_noise(counts, sigma: float, rng: np.random.Generator) -> NoisyMarginal:
    """Independent N(0, sigma^2) noise on every cell of an exact marginal.

    sigma == 0 returns the counts unchanged; a fixed generator state yields
    identical output. Noisy counts are deliberately not clipped here, so the
    measurement stays unbiased; non-negativity is enforced at model fitting.
    """
    if sigma < 0:
        raise PrivacyError("sigma must be non-negative")
    counts = np.asarray(counts, dtype=np.float64)
    if sigma == 0:
        noisy = counts.copy()
    else:
        noisy = counts + rng.normal(0.0, sigma, size=counts.shape)
    return NoisyMarginal(counts=noisy)


def split_budget(
    params: PrivacyParams | None, m: int, n_selections: int, selection_fraction: float
) -> tuple[float | None, float]:
    """The epsilon of each of ``n_selections`` noisy selections and the
    Gaussian scale of each of ``m`` measurements.

    Selection receives ``(eps*f, delta*f)``, split equally across the
    selections; the remainder is divided equally across the ``m``
    measurements by basic composition, so the components sum exactly to the
    input budget. The selection epsilon is None with ``f == 0`` or no
    selections; ``params=None`` (no noise) gives ``(None, 0.0)``.
    """
    if params is None:
        return None, 0.0
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
    epsilon = selection.epsilon / n_selections if selection is not None and n_selections else None
    return epsilon, gaussian_sigma(per_measurement)


def noisy_max(
    scores: np.ndarray, sensitivity: float, epsilon: float | None, rng: np.random.Generator
) -> np.ndarray:
    """``scores`` plus Gumbel noise of scale ``2 * sensitivity / epsilon`` in
    one draw, whose first maximum is an epsilon-DP report-noisy-max pick
    (Cesar & Rogers 2021, arXiv:2004.07223); with ``epsilon=None`` the
    scores themselves, and no draw."""
    if epsilon is None:
        return scores
    return scores + rng.gumbel(0.0, 2.0 * sensitivity / epsilon, size=len(scores))

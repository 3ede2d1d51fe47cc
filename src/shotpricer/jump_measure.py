"""Jump-magnitude law and the scalar/complex functionals built on it.

Every pricing formula in this library consumes the jump distribution only
through the quantities defined here: the martingale compensator ``varsigma``,
the characteristic exponent per unit intensity ``xi``, and the first two
moments scaled by the arrival rate. Swapping in a non-Gaussian law would be
a local change to this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, require_finite_square

__all__ = [
    "GaussianJumpLaw",
    "ArrivalRate",
    "ForceStatistics",
    "varsigma",
    "xi",
    "diffusion_moments",
    "force_statistics",
]


@dataclass(frozen=True)
class GaussianJumpLaw:
    """Normal law for jump magnitudes of the log-price (or the short rate).

    Parameters
    ----------
    nu : float
        Mean jump size.
    delta : float
        Jump standard deviation, >= 0. ``delta = 0`` is the degenerate
        point mass at ``nu``.
    """

    nu: float
    delta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.nu) and math.isfinite(self.delta)):
            raise ParameterError("jump law parameters must be finite")
        if self.delta < 0.0:
            raise ParameterError(f"delta must be >= 0, got {self.delta}")
        require_finite_square(self, "delta")

    @property
    def mean(self) -> float:
        return self.nu

    @property
    def second_moment(self) -> float:
        """E[eta^2] = nu^2 + delta^2."""
        return self.nu * self.nu + self.delta * self.delta


@dataclass(frozen=True)
class ArrivalRate:
    """Poisson arrival intensity of jumps, per unit time."""

    lam: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.lam) or self.lam < 0.0:
            raise ParameterError(f"arrival rate must be finite and >= 0, got {self.lam}")


@dataclass(frozen=True)
class ForceStatistics:
    """First two statistics of the aggregate jump force.

    ``mean`` is the expectation of the force, ``spike_weight`` the
    coefficient of the delta-correlated part of its covariance, and
    ``mean_product`` the product-of-means term.
    """

    mean: float
    spike_weight: float
    mean_product: float

    def __post_init__(self) -> None:
        if self.spike_weight < 0.0:
            raise ParameterError("spike_weight must be >= 0")


def varsigma(law: GaussianJumpLaw) -> float:
    """Expected relative price move per jump, E[e^eta - 1].

    Closed form for the Gaussian law: exp(nu + delta^2/2) - 1.
    """
    try:
        return math.expm1(law.nu + 0.5 * law.delta * law.delta)
    except OverflowError:
        raise ParameterError(f"E[e^eta] overflows for nu {law.nu}, delta {law.delta}") from None


def xi(law: GaussianJumpLaw, k: complex | np.ndarray) -> complex | np.ndarray:
    """Characteristic exponent per unit intensity, E[e^{ik eta} - 1].

    Closed form for the Gaussian law: exp(ik nu - k^2 delta^2/2) - 1.
    Accepts complex ``k``, scalar or array; in particular xi(-i) == varsigma,
    the identity that ties the tilted and plain transforms together.
    """
    k = np.asarray(k)
    return np.exp(1j * k * law.nu - 0.5 * k * k * law.delta**2) - 1.0


def diffusion_moments(rate: ArrivalRate, law: GaussianJumpLaw) -> tuple[float, float]:
    """Aggregate drift and variance rate of the jump stream.

    Returns ``(lam * nu, lam * (nu^2 + delta^2))``. The second entry is the
    squared Black-Scholes volatility that the jump model reproduces in the
    high-intensity, small-jump limit.
    """
    return rate.lam * law.mean, rate.lam * law.second_moment


def force_statistics(rate: ArrivalRate, law: GaussianJumpLaw) -> ForceStatistics:
    """Mean and covariance decomposition of the aggregate jump force.

    The covariance of the force at two times is
    ``spike_weight * delta(t1 - t2) + mean_product``.
    """
    mean = rate.lam * law.mean
    return ForceStatistics(
        mean=mean,
        spike_weight=rate.lam * law.second_moment,
        mean_product=mean * mean,
    )

"""Exception hierarchy for the shotpricer library."""

import math


class ShotPricerError(Exception):
    """Base class for all shotpricer errors."""


class ParameterError(ShotPricerError, ValueError):
    """Raised when a model, contract, or solver parameter is invalid."""


class DegenerateMaturityError(ParameterError):
    """Raised when an operation needs strictly positive time to maturity."""


class KinkError(ShotPricerError):
    """Raised when a sensitivity is requested exactly at the sigma=0 atom.

    The transition density carries a point mass at l = 0 when there is no
    diffusive component, so classical derivatives do not exist there.
    Evaluate at l - eps or l + eps for the one-sided values.
    """


class TruncationError(ShotPricerError):
    """Raised when a series cutoff is hit before the tail bound is met."""

    def __init__(self, message: str, tail_mass: float):
        super().__init__(message)
        self.tail_mass = tail_mass


class QuadratureError(ShotPricerError):
    """Raised when a quadrature cannot meet the requested tolerance."""

    def __init__(self, message: str, achieved: float = float("nan")):
        super().__init__(message)
        self.achieved = achieved


class ConfigError(ShotPricerError):
    """Raised for malformed CLI/run configuration input."""


def require_finite(obj, *fields: str) -> None:
    """Raise ParameterError naming the first of ``fields`` of ``obj`` that is
    NaN or infinite."""
    for name in fields:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value}")


def require_finite_square(obj, *fields: str) -> None:
    """Raise ParameterError naming the first of ``fields`` of ``obj`` whose
    square is no finite float: a volatility enters every formula squared."""
    for name in fields:
        value = getattr(obj, name)
        if not math.isfinite(value * value):
            raise ParameterError(f"{name} squared must be a finite float, got {value}")

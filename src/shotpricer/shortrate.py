"""Affine zero-coupon bond pricing under jump-driven short-rate dynamics.

Three nested models share the factor loading B(t,T) = (1 - e^{-a(T-t)})/a:

* ``shot``: mean-reverting rate kicked by compound-Poisson jumps only;
  the log-price intercept A(t,T) is a one-dimensional quadrature.
* ``vasicek``: the Gaussian mean-reverting model; A is closed form.
* ``general``: superposition of the two; the intercepts add.

All variants price as P = exp(A - B r_t), so log-price is exactly affine in
the current rate. The jump model reproduces the Gaussian one in the
high-intensity, small-jump limit, including its long-term mean lam nu / a
and squared volatility lam (nu^2 + delta^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._quad import adaptive_gauss_legendre
from .errors import ParameterError, require_finite
from .greeks import fd_sensitivity
from .jump_measure import GaussianJumpLaw
from .transform import DEFAULT_QUAD, QuadratureSpec

__all__ = [
    "RateModel",
    "BondTerms",
    "BondVariant",
    "b_factor",
    "a_shot",
    "a_shot_substituted",
    "a_vasicek",
    "a_general",
    "bond_price",
    "conditional_moments",
    "ode_residual",
    "zero_yield",
]


class BondVariant(str, Enum):
    SHOT = "shot"
    VASICEK = "vasicek"
    GENERAL = "general"


@dataclass(frozen=True)
class RateModel:
    """Short-rate dynamics parameters.

    ``b`` and ``sigma_r`` belong to the Gaussian part and are ignored by the
    pure-jump variant; ``lambda_r`` and ``law`` describe the jump stream.
    Set the unused block to zero to recover either special case.
    """

    a: float
    b: float
    sigma_r: float
    lambda_r: float
    law: GaussianJumpLaw

    def __post_init__(self) -> None:
        require_finite(self, "a", "b", "sigma_r", "lambda_r")
        if self.a <= 0.0:
            raise ParameterError(f"mean reversion a must be > 0, got {self.a}")
        if self.sigma_r < 0.0:
            raise ParameterError(f"sigma_r must be >= 0, got {self.sigma_r}")
        if self.lambda_r < 0.0:
            raise ParameterError(f"lambda_r must be >= 0, got {self.lambda_r}")


@dataclass(frozen=True)
class BondTerms:
    t: float
    T: float
    r_t: float

    def __post_init__(self) -> None:
        require_finite(self, "t", "T", "r_t")
        if not 0.0 <= self.t <= self.T:
            raise ParameterError(f"need 0 <= t <= T, got t={self.t}, T={self.T}")


def b_factor(model: RateModel, t: float, T: float) -> float:
    """Factor loading B(t,T) = (1 - e^{-a(T-t)})/a; B(T,T) = 0."""
    if not 0.0 <= T - t < math.inf:
        raise ParameterError(f"need t <= T, both finite, got t={t}, T={T}")
    return -math.expm1(-model.a * (T - t)) / model.a


def _jump_source(model: RateModel, b_val) -> np.ndarray:
    """lam * (exp{-nu B + delta^2 B^2 / 2} - 1), vectorized over B values."""
    law = model.law
    b_val = np.asarray(b_val, dtype=float)
    return model.lambda_r * np.expm1(-law.nu * b_val + 0.5 * law.delta**2 * b_val**2)


def _intercept_integral(integrand, lo: float, hi: float, quad: QuadratureSpec) -> float:
    """Adaptive quadrature of an intercept integrand, at most 1e-10 relative."""
    return adaptive_gauss_legendre(integrand, lo, hi, rel_tol=min(quad.rel_tol, 1e-10))


def a_shot(
    model: RateModel, t: float, T: float, quad: QuadratureSpec = DEFAULT_QUAD
) -> float:
    """Jump contribution to the bond intercept, integrated over s in [t, T]."""
    if not 0.0 <= T - t < math.inf:
        raise ParameterError(f"need t <= T, both finite, got t={t}, T={T}")
    if t == T or model.lambda_r == 0.0:
        return 0.0
    if model.law.nu == 0.0 and model.law.delta == 0.0:
        return 0.0

    def integrand(s: np.ndarray) -> np.ndarray:
        b_val = -np.expm1(-model.a * (T - s)) / model.a
        return _jump_source(model, b_val)

    return _intercept_integral(integrand, t, T, quad)


def a_shot_substituted(
    model: RateModel, t: float, T: float, quad: QuadratureSpec = DEFAULT_QUAD
) -> float:
    """Same intercept via the change of variable y = B(s,T); cross-check route.

    Integrates lam * (exp{-nu y + delta^2 y^2/2} - 1) / (1 - a y) over
    y in [0, B(t,T)].
    """
    b_here = b_factor(model, t, T)  # checks t <= T first
    if t == T or model.lambda_r == 0.0:
        return 0.0

    def integrand(y: np.ndarray) -> np.ndarray:
        return _jump_source(model, y) / (1.0 - model.a * y)

    return _intercept_integral(integrand, 0.0, b_here, quad)


def a_vasicek(model: RateModel, t: float, T: float) -> float:
    """Closed-form Gaussian intercept (b - s^2/2a^2)(B - (T-t)) - s^2 B^2/4a."""
    b_val = b_factor(model, t, T)
    var = model.sigma_r**2
    return (model.b - var / (2.0 * model.a**2)) * (b_val - (T - t)) - var * b_val**2 / (
        4.0 * model.a
    )


def a_general(
    model: RateModel, t: float, T: float, quad: QuadratureSpec = DEFAULT_QUAD
) -> float:
    """Intercept of the superposed model: Gaussian part plus jump part."""
    return a_vasicek(model, t, T) + a_shot(model, t, T, quad)


def _a_for(model: RateModel, t: float, T: float, variant: BondVariant, quad) -> float:
    variant = BondVariant(variant)
    if variant is BondVariant.SHOT:
        return a_shot(model, t, T, quad)
    if variant is BondVariant.VASICEK:
        return a_vasicek(model, t, T)
    return a_general(model, t, T, quad)


def bond_price(
    model: RateModel,
    terms: BondTerms,
    variant: BondVariant = BondVariant.GENERAL,
    quad: QuadratureSpec = DEFAULT_QUAD,
) -> float:
    """Zero-coupon price exp{A(t,T) - B(t,T) r_t}; P(T,T) = 1 exactly."""
    if terms.t == terms.T:
        return 1.0
    a_val = _a_for(model, terms.t, terms.T, variant, quad)
    return _affine_price(a_val, b_factor(model, terms.t, terms.T), terms.r_t)


def _affine_price(a_val: float, b_val: float, r_t: float) -> float:
    """exp(A - B r); ParameterError when that leaves the floating-point range."""
    exponent = a_val - b_val * r_t
    try:
        return math.exp(exponent)
    except OverflowError:
        raise ParameterError(
            f"bond price exp(A - B r) overflows: exponent A - B r = {exponent:.6g}"
        ) from None


def conditional_moments(
    model: RateModel, r_t: float, horizon: float
) -> tuple[float, float]:
    """Conditional mean and variance of the rate at ``horizon`` ahead.

    mean = b_eff + (r_t - b_eff) e^{-a h} with b_eff = b + lam nu / a;
    var = sigma_eff^2 (1 - e^{-2 a h}) / 2a with
    sigma_eff^2 = sigma_r^2 + lam (nu^2 + delta^2). These coincide with the
    Gaussian model's formulas despite the non-Gaussian law.
    """
    if not horizon >= 0.0:
        raise ParameterError(f"horizon must be >= 0, got {horizon}")
    if not math.isfinite(r_t):
        raise ParameterError(f"r_t must be finite, got {r_t}")
    b_eff = model.b + model.lambda_r * model.law.nu / model.a
    sigma_eff_sq = model.sigma_r**2 + model.lambda_r * model.law.second_moment
    decay = math.exp(-model.a * horizon)
    mean = b_eff + (r_t - b_eff) * decay
    var = sigma_eff_sq * -math.expm1(-2.0 * model.a * horizon) / (2.0 * model.a)
    return mean, var


# Interior times ode_residual checks, and its largest difference step.
_ODE_POINTS = 9
_ODE_STEP = 1e-4


def ode_residual(
    model: RateModel,
    t: float,
    T: float,
    variant: BondVariant = BondVariant.GENERAL,
    quad: QuadratureSpec = DEFAULT_QUAD,
) -> tuple[float, float]:
    """Max |dA/dt + source| and |dB/dt - aB + 1| over interior times.

    Time derivatives are Richardson-refined central differences of the
    computed A and B; the source term is -a b B - sigma^2 B^2 / 2 minus the
    jump integrand, with the pieces the variant actually carries.
    """
    if not t < T:
        raise ParameterError("need t < T")
    variant = BondVariant(variant)
    inner = np.linspace(t, T, _ODE_POINTS + 2)[1:-1]
    res_a = 0.0
    res_b = 0.0
    for s in inner:
        h = min(_ODE_STEP, 0.25 * (T - s), 0.25 * (s - t))

        def da(x: float) -> float:
            return _a_for(model, x, T, variant, quad)

        def db(x: float) -> float:
            return b_factor(model, x, T)

        dA = fd_sensitivity(da, s, h)
        dB = fd_sensitivity(db, s, h)
        b_here = b_factor(model, s, T)
        source = 0.0
        if variant is not BondVariant.SHOT:
            source += -model.a * model.b * b_here + 0.5 * model.sigma_r**2 * b_here**2
        if variant is not BondVariant.VASICEK:
            source += float(_jump_source(model, b_here))
        res_a = max(res_a, abs(dA + source))
        res_b = max(res_b, abs(dB - model.a * b_here + 1.0))
    return res_a, res_b


def zero_yield(price: float, tenor: float) -> float:
    """Continuously compounded zero rate -ln(P)/tenor."""
    if not 0.0 < price < math.inf:
        raise ParameterError(f"price must be > 0 and finite, got {price}")
    if not 0.0 < tenor < math.inf:
        raise ParameterError(f"tenor must be > 0 and finite, got {tenor}")
    return -math.log(price) / tenor

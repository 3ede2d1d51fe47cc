"""Affine zero-coupon bond pricing under jump-driven short-rate dynamics.

The ``general`` model is a Gaussian mean-reverting rate (drift b, volatility
sigma_r) kicked by compound-Poisson jumps. Its special cases are ``shot``,
the jumps alone (b = sigma_r = 0), and ``vasicek``, the Gaussian block alone.
``BondVariant.model`` is the one mapping from a variant to the model it
prices, and every bond formula applies the general one to that model. All
share B(t,T) = (1 - e^{-a(T-t)})/a and price as P = exp(A - B r_t). The
intercept A adds a closed form for the Gaussian block and, for the jumps, a
doubling Gauss-Legendre rule over the last 40/a of the span, where B still
moves, plus the flat stretch before it in closed form. The jump model
reproduces the Gaussian one in the high-intensity, small-jump limit,
including its long-term mean lam nu / a and squared volatility
lam (nu^2 + delta^2).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from ._quad import doubling_gauss_legendre
from .errors import ParameterError, require_finite, require_finite_square
from .greeks import fd_sensitivity
from .jump_measure import GaussianJumpLaw
from .transform import DEFAULT_QUAD, QuadratureSpec

__all__ = [
    "RateModel",
    "BondTerms",
    "BondVariant",
    "b_factor",
    "a_shot",
    "a_vasicek",
    "a_general",
    "bond_price",
    "conditional_moments",
    "ode_residual",
    "zero_yield",
]


# Variant models kept per (variant, model); a curve prices every maturity on one.
_VARIANT_CACHE_SIZE = 16


class BondVariant(str, Enum):
    """Which blocks of the short-rate dynamics a bond is priced under."""

    SHOT = "shot"
    VASICEK = "vasicek"
    GENERAL = "general"

    @functools.lru_cache(maxsize=_VARIANT_CACHE_SIZE)
    def model(self, rate_model: RateModel) -> RateModel:
        """The rate model this variant prices, one per (variant, model):
        ``shot`` drops the Gaussian block (b = sigma_r = 0), ``vasicek`` the
        jumps (lambda_r = 0 and a point mass at 0, so no jump term can form
        whatever the law), ``general`` nothing."""
        if self is BondVariant.SHOT:
            return replace(rate_model, b=0.0, sigma_r=0.0)
        if self is BondVariant.VASICEK:
            return replace(rate_model, lambda_r=0.0, law=GaussianJumpLaw(0.0, 0.0))
        return rate_model


@dataclass(frozen=True)
class RateModel:
    """Short-rate dynamics parameters of the ``general`` model.

    ``b`` and ``sigma_r`` drive the Gaussian block, ``lambda_r`` and ``law``
    the jump stream. ``BondVariant.model`` maps a variant to the model it
    prices by switching one block off.
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
        if not 0.0 < self.a * self.a < math.inf:  # a_vasicek divides by a^2
            raise ParameterError(f"a squared must be a positive finite float, got {self.a}")
        if self.sigma_r < 0.0:
            raise ParameterError(f"sigma_r must be >= 0, got {self.sigma_r}")
        require_finite_square(self, "sigma_r")
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


# a_shot's last panel spans at most this many scales 1/(|nu| + delta) of the
# layer at maturity, where the integrand falls from 0 towards -1.
_LAYER_SCALES = 32.0


def a_shot(
    model: RateModel, t: float, T: float, quad: QuadratureSpec = DEFAULT_QUAD
) -> float:
    """Jump contribution to the bond intercept, integrated over s in [t, T].

    Before s = T - 40/a, B(s,T) rounds to 1/a (e^{-40} < 2^{-53}), so that
    stretch adds (T - 40/a - t) times the integrand at B = 1/a and the
    Gauss-Legendre rule covers at most the last 40/a of the span. That part
    is cut into panels whose gaps to T shrink 32-fold until one spans at most
    32/(|nu| + delta), the layer where the integrand turns over; each panel
    takes one doubling rule, and a short span stays one panel.
    """
    if not 0.0 <= T - t < math.inf:
        raise ParameterError(f"need t <= T, both finite, got t={t}, T={T}")
    if t == T or model.lambda_r == 0.0:
        return 0.0
    if model.law.nu == 0.0 and model.law.delta == 0.0:
        return 0.0
    # the exponent -nu B + delta^2 B^2 / 2 is convex in B, so on [0, B(t, T)]
    # it is largest at an end: 0, or its value at B(t, T). So |A| and every
    # partial sum stay below lam (T - t) e^{max(top, 0)}, which must not overflow.
    b_end = b_factor(model, t, T)
    top = -model.law.nu * b_end + 0.5 * model.law.delta**2 * (b_end * b_end)
    bound = math.log(model.lambda_r) + max(top, 0.0) + max(math.log(T - t), 0.0)
    if not bound < 709.0:  # also where top is NaN
        raise ParameterError(f"jump intercept overflows on [{t}, {T}]")

    def integrand(s: np.ndarray) -> np.ndarray:
        b_val = -np.expm1(-model.a * (T - s)) / model.a
        return _jump_source(model, b_val)

    start = max(t, T - 40.0 / model.a)
    rel_tol = min(quad.rel_tol, 1e-10)
    # near T the integrand moves on a scale of 1/(|nu| + delta): panels graded
    # toward T, their gaps to T shrinking 32-fold, put one rule on that layer
    total, lo, gap = 0.0, start, T - start
    while gap > _LAYER_SCALES / (abs(model.law.nu) + model.law.delta):
        gap /= 32.0
        total += doubling_gauss_legendre(integrand, lo, T - gap, rel_tol)
        lo = T - gap
    total += doubling_gauss_legendre(integrand, lo, T, rel_tol)
    if start > t:
        total += (start - t) * float(_jump_source(model, 1.0 / model.a))
    return total


# Below this x = a (T - t), a_vasicek sums int_t^T B(s, T)^2 ds as a Taylor
# series in x. The closed form cancels terms of size (T - t) / a^2 and keeps
# about 1e-15 / x^2 of relative error; 16 terms of the series keep 4e-16 at
# x = 0.5.
_B2_SERIES_BELOW = 0.5

# int_t^T B^2 ds = (T - t)^3 sum_k c_k x^(k-3), c_k = (-1)^k (2 - 2^(k-1)) / k!, k = 3..18
_B2_SERIES = tuple((-1) ** k * (2.0 - 2.0 ** (k - 1)) / math.factorial(k) for k in range(3, 19))


def a_vasicek(model: RateModel, t: float, T: float) -> float:
    """Closed-form Gaussian intercept (b - s^2/2a^2)(B - (T-t)) - s^2 B^2/4a,
    which is b (B - (T-t)) + (s^2/2) int_t^T B(u, T)^2 du."""
    b_val = b_factor(model, t, T)
    var = model.sigma_r**2
    span = T - t
    x = model.a * span
    if x < _B2_SERIES_BELOW:
        poly = 0.0
        for c in reversed(_B2_SERIES):
            poly = poly * x + c
        # var first, so sigma_r = 0 gives 0 where span^3 would overflow
        value = model.b * (b_val - span) + 0.5 * var * poly * span * span * span
    else:
        value = (model.b - var / (2.0 * model.a**2)) * (b_val - span) - var * b_val**2 / (
            4.0 * model.a
        )
    if not math.isfinite(value):
        raise ParameterError(f"Gaussian intercept overflows on [{t}, {T}] (a {model.a})")
    return value


def a_general(
    model: RateModel, t: float, T: float, quad: QuadratureSpec = DEFAULT_QUAD
) -> float:
    """Intercept of the superposed model: Gaussian part plus jump part."""
    return a_vasicek(model, t, T) + a_shot(model, t, T, quad)


def bond_price(
    model: RateModel,
    terms: BondTerms,
    variant: BondVariant = BondVariant.GENERAL,
    quad: QuadratureSpec = DEFAULT_QUAD,
) -> float:
    """Zero-coupon price exp{A(t,T) - B(t,T) r_t} of the variant's model; P(T,T) = 1."""
    if terms.t == terms.T:
        return 1.0
    model = BondVariant(variant).model(model)
    a_val = a_general(model, terms.t, terms.T, quad)
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
    jump integrand, all of the variant's model.
    """
    if not t < T:
        raise ParameterError("need t < T")
    model = BondVariant(variant).model(model)
    inner = np.linspace(t, T, _ODE_POINTS + 2)[1:-1]
    res_a = res_b = 0.0
    for s in inner:
        h = min(_ODE_STEP, 0.25 * (T - s), 0.25 * (s - t))
        dA = fd_sensitivity(lambda x: a_general(model, x, T, quad), s, h)
        dB = fd_sensitivity(lambda x: b_factor(model, x, T), s, h)
        b_here = b_factor(model, s, T)
        gauss = -model.a * model.b * b_here + 0.5 * model.sigma_r**2 * b_here**2
        source = gauss + float(_jump_source(model, b_here))
        res_a = max(res_a, abs(dA + source))
        res_b = max(res_b, abs(dB - model.a * b_here + 1.0))
    return float(res_a), float(res_b)


def zero_yield(price: float, tenor: float) -> float:
    """Continuously compounded zero rate -ln(P)/tenor."""
    if not 0.0 < price < math.inf:
        raise ParameterError(f"price must be > 0 and finite, got {price}")
    if not 0.0 < tenor < math.inf:
        raise ParameterError(f"tenor must be > 0 and finite, got {tenor}")
    rate = -math.log(price) / tenor
    if not math.isfinite(rate):
        raise ParameterError(f"zero rate overflows (price {price}, tenor {tenor})")
    return rate

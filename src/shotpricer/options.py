"""European call/put valuation under jump and jump-plus-diffusion dynamics.

Every option value here follows one leg rule: S e^{-q tau} P1 - K e^{-r tau}
P2, floored at 0. At the drift-adjusted log-moneyness l, the legs (P1, P2)
are the tilted/plain cdfs (L1, L2) of :mod:`shotpricer.transform` for a call
and minus the survivals (-S1, -S2) for a put. The survivals carry the mass
above l directly, so deep out-of-the-money puts keep their relative precision
instead of cancelling in 1 - L, and since L + S == 1 put-call parity holds to
rounding. Prices (series and Fourier), Black-Scholes, the Greeks and the
residual checks all read the rule.
The lam = 0 limit is Black-Scholes; sigma = 0 is the pure-jump model.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from enum import Enum

from scipy.special import ndtr

from .errors import DegenerateMaturityError, ParameterError, require_finite, require_finite_square
from .jump_measure import GaussianJumpLaw, varsigma
from .transform import (
    DEFAULT_QUAD,
    Backend,
    CharSpec,
    QuadratureSpec,
    _PARTS_CACHE_SIZE,
    _series_record,
    fourier_grid,
)

__all__ = [
    "OptionKind",
    "OptionTerms",
    "AssetModel",
    "PriceResult",
    "log_moneyness",
    "l_parameter",
    "price",
    "bs_price",
    "parity_residual",
    "payoff",
    "bs_d1_d2",
]


class OptionKind(str, Enum):
    CALL = "call"
    PUT = "put"


@dataclass(frozen=True)
class OptionTerms:
    """Contract and market terms of a European option."""

    spot: float
    strike: float
    tau: float
    rate: float
    dividend: float
    kind: OptionKind

    def __post_init__(self) -> None:
        require_finite(self, "tau", "rate", "dividend")
        if self.tau < 0.0:
            raise ParameterError(f"tau must be >= 0, got {self.tau}")
        _check_size("spot", self.spot, self.dividend, self.tau)
        _check_size("strike", self.strike, self.rate, self.tau)
        object.__setattr__(self, "kind", OptionKind(self.kind))


def _check_size(name: str, size: float, carry: float, tau: float) -> None:
    """ParameterError unless the spot or strike ``size`` is finite and > 0 and
    e^{-carry tau} and size e^{-carry tau} stay below e^700 ~ 1e304."""
    if not math.isfinite(size):
        raise ParameterError(f"{name} must be finite, got {size}")
    if size <= 0.0:
        raise ParameterError(f"{name} must be > 0, got {size}")
    if max(math.log(size), 0.0) - carry * tau > 700.0:
        raise ParameterError("discounted spot or strike overflows")


@dataclass(frozen=True)
class AssetModel:
    """Asset dynamics: jump intensity/law plus an optional diffusive part."""

    lam: float
    law: GaussianJumpLaw
    sigma: float = 0.0

    def __post_init__(self) -> None:
        require_finite(self, "lam", "sigma")
        if self.lam < 0.0:
            raise ParameterError(f"lam must be >= 0, got {self.lam}")
        if self.sigma < 0.0:
            raise ParameterError(f"sigma must be >= 0, got {self.sigma}")
        require_finite_square(self, "sigma")

    @functools.lru_cache(maxsize=_PARTS_CACHE_SIZE)
    def char_spec(self, tau: float) -> CharSpec:
        """Characteristic-function inputs at maturity tau, one per (model, tau)."""
        return CharSpec(tau=tau, lam=self.lam, sigma=self.sigma, law=self.law)


@dataclass(frozen=True)
class PriceResult:
    value: float
    l_used: float
    backend: Backend
    est_error: float


def log_moneyness(terms: OptionTerms) -> float:
    """x = ln(S/K), as ln S - ln K where the ratio underflows to 0 or overflows."""
    ratio = terms.spot / terms.strike
    if 0.0 < ratio < math.inf:
        return math.log(ratio)
    return math.log(terms.spot) - math.log(terms.strike)


def l_parameter(terms: OptionTerms, model: AssetModel) -> float:
    """Drift-adjusted threshold l = x + (r - q - sigma^2/2 - lam varsigma) tau."""
    if terms.tau <= 0.0:
        raise DegenerateMaturityError("l parameter needs tau > 0")
    drift = terms.rate - terms.dividend - 0.5 * model.sigma**2 - model.lam * varsigma(model.law)
    return log_moneyness(terms) + drift * terms.tau


def payoff(terms: OptionTerms) -> float:
    """Terminal payoff max(S-K, 0) for a call, max(K-S, 0) for a put."""
    if terms.kind is OptionKind.CALL:
        return max(terms.spot - terms.strike, 0.0)
    return max(terms.strike - terms.spot, 0.0)


def price(
    terms: OptionTerms,
    model: AssetModel,
    backend: Backend = Backend.SERIES,
    quad: QuadratureSpec = DEFAULT_QUAD,
) -> PriceResult:
    """Value a European option under the jump(+diffusion) dynamics.

    Special cases: tau = 0 returns the payoff; a fully deterministic model
    (lam = 0 and sigma = 0) returns the discounted payoff of the forward.
    For sigma = 0 the transition law has an atom, and pricing exactly at the
    kink l = 0 is defined as the right limit.
    """
    backend = Backend(backend)
    if terms.tau == 0.0:
        return PriceResult(payoff(terms), math.nan, backend, 0.0)

    disc_spot = terms.spot * math.exp(-terms.dividend * terms.tau)
    disc_strike = terms.strike * math.exp(-terms.rate * terms.tau)
    l = l_parameter(terms, model)
    l_eval = _kink_threshold(l, model)
    spec = model.char_spec(terms.tau)
    if model.lam == 0.0 and model.sigma == 0.0:
        # one point: each leg is 1 on the side of the strike the forward lands
        above = float(disc_spot > disc_strike)
        legs = (above, above, 1.0 - above, 1.0 - above)
        est = 0.0
    elif backend is Backend.FOURIER:
        # one grid carries all four legs and measures its own error
        grid = fourier_grid(spec, [l_eval], quad)
        legs = [float(v[0]) for v in (grid.plain, grid.tilted, grid.plain_surv, grid.tilted_surv)]
        est = (disc_spot + disc_strike) * grid.est_error
    else:
        legs = _series_record(spec, l_eval, quad)[0]
        # the series is exact up to its Poisson tail cutoff
        est = (terms.spot + terms.strike) * quad.series_tail
    value = _leg_rule(terms.kind, disc_spot, disc_strike, legs)[0]
    return PriceResult(value, l, backend, est)


def _kink_threshold(l: float, model: AssetModel) -> float:
    """The threshold a price reads: at sigma = 0 the law has an atom at l = 0,
    where the price is its right limit."""
    if model.sigma == 0.0 and l == 0.0:
        return math.nextafter(0.0, math.inf)
    return l


def _leg_rule(
    kind: OptionKind, disc_spot: float, disc_strike: float, legs
) -> tuple[float, float, float]:
    """Value max(S e^{-q tau} P1 - K e^{-r tau} P2, 0) and the legs P1, P2 it
    reads: the cdfs (L1, L2) of a call, minus the survivals (-S1, -S2) of a
    put. ``legs`` are the transforms (L2, L1, S2, S1) at the threshold."""
    plain, tilted, plain_surv, tilted_surv = legs
    p1, p2 = (tilted, plain) if kind is OptionKind.CALL else (-tilted_surv, -plain_surv)
    return max(disc_spot * p1 - disc_strike * p2, 0.0), p1, p2


def bs_d1_d2(terms: OptionTerms, sigma: float) -> tuple[float, float]:
    """Black-Scholes d1 and d2 = d1 - sigma sqrt(tau)."""
    if not 0.0 < sigma < math.inf:
        raise ParameterError(f"sigma must be > 0 and finite, got {sigma}")
    if terms.tau <= 0.0:
        raise DegenerateMaturityError("d1/d2 need tau > 0")
    vol_sqrt_t = sigma * math.sqrt(terms.tau)
    if vol_sqrt_t == 0.0:
        raise ParameterError(f"sigma sqrt(tau) underflows to 0 (sigma {sigma}, tau {terms.tau})")
    d1 = (
        log_moneyness(terms)
        + (terms.rate - terms.dividend + 0.5 * sigma * sigma) * terms.tau
    ) / vol_sqrt_t
    return d1, d1 - vol_sqrt_t


def bs_price(terms: OptionTerms, sigma: float) -> PriceResult:
    """Closed-form Black-Scholes value (the lam = 0 reduction)."""
    d1, d2 = bs_d1_d2(terms, sigma)
    disc_spot = terms.spot * math.exp(-terms.dividend * terms.tau)
    disc_strike = terms.strike * math.exp(-terms.rate * terms.tau)
    value = _leg_rule(terms.kind, disc_spot, disc_strike, ndtr([d2, d1, -d2, -d1]).tolist())[0]
    l_used = d2 * sigma * math.sqrt(terms.tau)
    return PriceResult(value, l_used, Backend.SERIES, 0.0)


def parity_residual(
    terms: OptionTerms,
    model: AssetModel,
    backend: Backend = Backend.SERIES,
    quad: QuadratureSpec = DEFAULT_QUAD,
) -> float:
    """C - P - (S e^{-q tau} - K e^{-r tau}); zero up to numerical error."""
    if terms.tau <= 0.0:
        raise DegenerateMaturityError("parity residual needs tau > 0")
    call = price(replace(terms, kind=OptionKind.CALL), model, backend, quad).value
    put = price(replace(terms, kind=OptionKind.PUT), model, backend, quad).value
    forward_gap = terms.spot * math.exp(-terms.dividend * terms.tau) - terms.strike * math.exp(
        -terms.rate * terms.tau
    )
    return call - put - forward_gap

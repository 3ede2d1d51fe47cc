"""European call/put valuation under jump and jump-plus-diffusion dynamics.

The call value is S e^{-q tau} L1(l) - K e^{-r tau} L2(l) where L1/L2 are the
tilted/plain cumulative transforms from :mod:`shotpricer.transform` and l is
the drift-adjusted log-moneyness. The put value is
K e^{-r tau} S2(l) - S e^{-q tau} S1(l) with S1/S2 the survival transforms,
which carry the mass above l directly: deep out-of-the-money puts keep their
relative precision instead of cancelling in 1 - L, and since L + S == 1
put-call parity holds to rounding.
The lam = 0 limit is Black-Scholes; sigma = 0 is the pure-jump model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

from scipy.special import ndtr

from .errors import DegenerateMaturityError, ParameterError, require_finite
from .jump_measure import GaussianJumpLaw, varsigma
from .transform import (
    DEFAULT_QUAD,
    Backend,
    CharSpec,
    QuadratureSpec,
    cdf_plain,
    cdf_tilted,
    fourier_grid,
    survival_plain,
    survival_tilted,
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
        require_finite(self, "spot", "strike", "tau", "rate", "dividend")
        if self.spot <= 0.0:
            raise ParameterError(f"spot must be > 0, got {self.spot}")
        if self.strike <= 0.0:
            raise ParameterError(f"strike must be > 0, got {self.strike}")
        if self.tau < 0.0:
            raise ParameterError(f"tau must be >= 0, got {self.tau}")
        # e^{-q tau}, e^{-r tau}, S e^{-q tau} and K e^{-r tau} stay below e^700 ~ 1e304
        for size, carry in ((self.spot, self.dividend), (self.strike, self.rate)):
            if max(math.log(size), 0.0) - carry * self.tau > 700.0:
                raise ParameterError("discounted spot or strike overflows")
        object.__setattr__(self, "kind", OptionKind(self.kind))


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

    def char_spec(self, tau: float) -> CharSpec:
        return CharSpec(tau=tau, lam=self.lam, sigma=self.sigma, law=self.law)


@dataclass(frozen=True)
class PriceResult:
    value: float
    l_used: float
    backend: Backend
    est_error: float


def log_moneyness(terms: OptionTerms) -> float:
    """x = ln(S/K)."""
    return math.log(terms.spot / terms.strike)


def l_parameter(terms: OptionTerms, model: AssetModel) -> float:
    """Drift-adjusted threshold l = x + (r - q - sigma^2/2 - lam varsigma) tau."""
    if terms.tau <= 0.0:
        raise DegenerateMaturityError("l parameter needs tau > 0")
    drift = (
        terms.rate
        - terms.dividend
        - 0.5 * model.sigma**2
        - model.lam * varsigma(model.law)
    )
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

    if model.lam == 0.0 and model.sigma == 0.0:
        fwd_gap = disc_spot - disc_strike
        value = max(fwd_gap, 0.0) if terms.kind is OptionKind.CALL else max(-fwd_gap, 0.0)
        return PriceResult(value, l, backend, 0.0)

    l_eval = l
    if model.sigma == 0.0 and l == 0.0:
        l_eval = math.nextafter(0.0, math.inf)  # right limit at the atom

    spec = model.char_spec(terms.tau)
    call = terms.kind is OptionKind.CALL
    if backend is Backend.FOURIER:
        # one grid carries both legs and measures its own error
        grid = fourier_grid(spec, [l_eval], quad)
        spot_leg = float((grid.tilted if call else grid.tilted_surv)[0])
        strike_leg = float((grid.plain if call else grid.plain_surv)[0])
        est = (disc_spot + disc_strike) * grid.est_error
    else:
        spot_leg = (cdf_tilted if call else survival_tilted)(spec, l_eval, quad)
        strike_leg = (cdf_plain if call else survival_plain)(spec, l_eval, quad)
        # the series is exact up to its Poisson tail cutoff
        est = (terms.spot + terms.strike) * quad.series_tail
    if call:
        value = disc_spot * spot_leg - disc_strike * strike_leg
    else:
        value = disc_strike * strike_leg - disc_spot * spot_leg
    return PriceResult(max(value, 0.0), l, backend, est)


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
    if terms.kind is OptionKind.CALL:
        value = disc_spot * ndtr(d1) - disc_strike * ndtr(d2)
    else:
        value = disc_strike * ndtr(-d2) - disc_spot * ndtr(-d1)
    l_used = d2 * sigma * math.sqrt(terms.tau)
    return PriceResult(max(value, 0.0), l_used, Backend.SERIES, 0.0)


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

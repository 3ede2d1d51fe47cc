"""Exact-sampling Monte Carlo oracles for options, bonds, and rate moments.

Nothing here is discretized in time. Terminal log-prices are drawn from the
exact compound-Poisson-plus-Gaussian law; bond discount factors use the
pathwise identity int r ds = r_t B(t,T) + b[(T-t) - B] + Gaussian + sum_k
eta_k B(t_k, T), with the Gaussian part's variance in closed form. The
estimators therefore carry statistical error only, which is what makes them
usable as oracles for the analytic formulas.

Randomness is counter-based (Philox) with one independent substream per
fixed-size batch of paths, so estimates depend only on (seed, paths,
antithetic) and batches could be evaluated in any order or in parallel.
Antithetic pairing negates the Gaussian draws only; jump counts and arrival
times are shared within a pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .jump_measure import varsigma
from .options import AssetModel, OptionKind, OptionTerms
from .shortrate import BondTerms, RateModel, b_factor

__all__ = [
    "SimConfig",
    "McEstimate",
    "mc_option_price",
    "mc_bond_price",
    "mc_rate_moments",
]

_BATCH = 1 << 16

# Most jumps one batch of paths may expect: the bond and rate samplers keep a
# few float arrays with one entry per jump, 128 MB each at this size.
_BATCH_JUMPS = 1 << 24

# Most jumps one option path may expect; numpy's Poisson sampler stops at 9.2e18.
_MAX_MEAN_COUNT = 1e18


@dataclass(frozen=True)
class SimConfig:
    """Simulation controls; results are bit-reproducible for a fixed config."""

    paths: int
    seed: int = 20240701
    antithetic: bool = False

    def __post_init__(self) -> None:
        if self.paths < 1:
            raise ParameterError(f"paths must be >= 1, got {self.paths}")
        if not 0 <= self.seed < 1 << 64:
            raise ParameterError("seed must fit in an unsigned 64-bit integer")


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    paths_used: int


def _batch_rng(seed: int, index: int) -> np.random.Generator:
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _reduce(partials_sum, partials_sq, n: int) -> tuple[float, float]:
    total = math.fsum(partials_sum)
    total_sq = math.fsum(partials_sq)
    mean = total / n
    if n > 1:
        var = max(total_sq - n * mean * mean, 0.0) / (n - 1)
        se = math.sqrt(var / n)
    else:
        se = 0.0
    return mean, se


def _check_jump_count(mean_count: float, limit: float) -> None:
    """ParameterError unless the expected jumps per path are at most ``limit`` (not NaN)."""
    if not mean_count <= limit:
        raise ParameterError(
            f"expected jump count per path must be at most {limit:g}, got {mean_count:g}"
        )


def _draw_units(sim: SimConfig) -> tuple[int, int]:
    """Number of independent draw units and paths represented by them."""
    if sim.antithetic:
        units = max(sim.paths // 2, 1)
        return units, 2 * units
    return sim.paths, sim.paths


def mc_option_price(terms: OptionTerms, model: AssetModel, sim: SimConfig) -> McEstimate:
    """Discounted expected payoff under the risk-neutral terminal law.

    x_T = x + (r - q - lam varsigma - sigma^2/2) tau + sigma sqrt(tau) Z
    + compound-Poisson jumps, which makes e^{-(r-q) tau} S_T / S a martingale.
    """
    if terms.tau <= 0.0:
        raise ParameterError("mc_option_price needs tau > 0")
    tau = terms.tau
    law = model.law
    mean_count = model.lam * tau
    _check_jump_count(mean_count, _MAX_MEAN_COUNT)
    drift = (
        terms.rate - terms.dividend - model.lam * varsigma(law) - 0.5 * model.sigma**2
    ) * tau
    base = math.log(terms.spot) + drift
    vol = model.sigma * math.sqrt(tau)
    disc = math.exp(-terms.rate * tau)
    is_call = terms.kind is OptionKind.CALL

    units, used = _draw_units(sim)
    partial_sum: list[float] = []
    partial_sq: list[float] = []
    for start in range(0, units, _BATCH):
        count = min(_BATCH, units - start)
        rng = _batch_rng(sim.seed, start // _BATCH)
        n_jumps = rng.poisson(mean_count, count)
        z_jump = rng.standard_normal(count)
        z_diff = rng.standard_normal(count)

        def discounted(sign: float) -> np.ndarray:
            jumps = n_jumps * law.nu + np.sqrt(n_jumps) * law.delta * (sign * z_jump)
            s_t = np.exp(base + vol * (sign * z_diff) + jumps)
            pay = np.maximum(s_t - terms.strike, 0.0) if is_call else np.maximum(
                terms.strike - s_t, 0.0
            )
            return disc * pay

        y = discounted(1.0)
        if sim.antithetic:
            y = 0.5 * (y + discounted(-1.0))
        partial_sum.append(float(np.sum(y)))
        partial_sq.append(float(np.dot(y, y)))
    mean, se = _reduce(partial_sum, partial_sq, units)
    return McEstimate(mean=mean, std_error=se, paths_used=used)


def _int_b_squared(model: RateModel, t: float, T: float) -> float:
    """Closed form of int_t^T B(s,T)^2 ds."""
    a = model.a
    span = T - t
    b_val = b_factor(model, t, T)
    return (span - 2.0 * b_val + -math.expm1(-2.0 * a * span) / (2.0 * a)) / (a * a)


def mc_bond_price(model: RateModel, terms: BondTerms, sim: SimConfig) -> McEstimate:
    """Mean of exp{-int r ds} with the integral sampled exactly per path."""
    if not terms.t < terms.T:
        raise ParameterError("mc_bond_price needs t < T")
    t, T = terms.t, terms.T
    law = model.law
    span = T - t
    units, used = _draw_units(sim)
    mean_count = model.lambda_r * span
    _check_jump_count(mean_count, _BATCH_JUMPS / min(units, _BATCH))
    b_val = b_factor(model, t, T)
    det = terms.r_t * b_val + model.b * (span - b_val)
    gauss_sd = model.sigma_r * math.sqrt(_int_b_squared(model, t, T))

    partial_sum: list[float] = []
    partial_sq: list[float] = []
    for start in range(0, units, _BATCH):
        count = min(_BATCH, units - start)
        rng = _batch_rng(sim.seed, start // _BATCH)
        n_jumps = rng.poisson(mean_count, count)
        total = int(n_jumps.sum())
        arrivals = rng.uniform(t, T, total)
        owner = np.repeat(np.arange(count), n_jumps)
        loads = -np.expm1(-model.a * (T - arrivals)) / model.a
        s1 = np.bincount(owner, weights=loads, minlength=count)
        s2 = np.bincount(owner, weights=loads * loads, minlength=count)
        z_jump = rng.standard_normal(count)
        z_gauss = rng.standard_normal(count)

        def discounted(sign: float) -> np.ndarray:
            jump_part = law.nu * s1 + law.delta * np.sqrt(s2) * (sign * z_jump)
            integral = det + gauss_sd * (sign * z_gauss) + jump_part
            return np.exp(-integral)

        y = discounted(1.0)
        if sim.antithetic:
            y = 0.5 * (y + discounted(-1.0))
        partial_sum.append(float(np.sum(y)))
        partial_sq.append(float(np.dot(y, y)))
    mean, se = _reduce(partial_sum, partial_sq, units)
    return McEstimate(mean=mean, std_error=se, paths_used=used)


def mc_rate_moments(
    model: RateModel, r_t: float, horizon: float, sim: SimConfig
) -> tuple[McEstimate, McEstimate]:
    """Empirical conditional mean and variance of r(t + horizon).

    The rate is sampled from its exact representation (decayed start, the
    Gaussian part's stationary-increment integral, decayed jump kicks).
    The variance estimate's standard error uses the fourth central moment.
    """
    if not (horizon > 0.0 and math.isfinite(horizon)):
        raise ParameterError(f"mc_rate_moments needs a finite horizon > 0, got {horizon}")
    if not math.isfinite(r_t):
        raise ParameterError(f"r_t must be finite, got {r_t}")
    law = model.law
    units, used = _draw_units(sim)
    mean_count = model.lambda_r * horizon
    _check_jump_count(mean_count, _BATCH_JUMPS / min(units, _BATCH))
    decay = math.exp(-model.a * horizon)
    det = decay * r_t + model.b * (1.0 - decay)
    ou_sd = model.sigma_r * math.sqrt(-math.expm1(-2.0 * model.a * horizon) / (2.0 * model.a))

    s1: list[float] = []
    s2: list[float] = []
    s3: list[float] = []
    s4: list[float] = []
    for start in range(0, units, _BATCH):
        count = min(_BATCH, units - start)
        rng = _batch_rng(sim.seed, start // _BATCH)
        n_jumps = rng.poisson(mean_count, count)
        total = int(n_jumps.sum())
        arrivals = rng.uniform(0.0, horizon, total)
        owner = np.repeat(np.arange(count), n_jumps)
        kick = np.exp(-model.a * (horizon - arrivals))
        m1 = np.bincount(owner, weights=kick, minlength=count)
        m2 = np.bincount(owner, weights=kick * kick, minlength=count)
        z_jump = rng.standard_normal(count)
        z_gauss = rng.standard_normal(count)

        def deviation(sign: float) -> np.ndarray:
            # r - det, kept small so the power sums stay well conditioned
            return ou_sd * (sign * z_gauss) + law.nu * m1 + law.delta * np.sqrt(m2) * (
                sign * z_jump
            )

        d = deviation(1.0)
        if sim.antithetic:
            d = np.concatenate([d, deviation(-1.0)])
        s1.append(float(np.sum(d)))
        s2.append(float(np.dot(d, d)))
        s3.append(float(np.sum(d**3)))
        s4.append(float(np.sum(d**4)))

    n = used
    mean_d = math.fsum(s1) / n
    raw2 = math.fsum(s2) / n
    raw3 = math.fsum(s3) / n
    raw4 = math.fsum(s4) / n
    m2c = max(raw2 - mean_d**2, 0.0)
    m4c = raw4 - 4.0 * mean_d * raw3 + 6.0 * mean_d**2 * raw2 - 3.0 * mean_d**4
    var_sample = m2c * n / (n - 1) if n > 1 else 0.0
    se_mean = math.sqrt(m2c / n)
    se_var = math.sqrt(max(m4c - m2c * m2c * (n - 3) / (n - 1), 0.0) / n) if n > 1 else 0.0
    return (
        McEstimate(mean=det + mean_d, std_error=se_mean, paths_used=used),
        McEstimate(mean=var_sample, std_error=se_var, paths_used=used),
    )

"""Exact-sampling Monte Carlo oracles for options, bonds, and rate moments.

Nothing here is discretized in time. Each oracle reads the same
compound-Poisson shot noise with Gaussian jumps through a weighted sum
sum_k eta_k h(t_k): h = 1 for the log-price, h = B(t_k, T) for int r ds and
h = e^{-a(horizon - t_k)} for the rate. Given the jump count and arrival
times that sum is Gaussian with mean nu sum h and variance delta^2 sum h^2,
so one sampler draws it for all three. Bond discount factors use the
pathwise identity int r ds = r_t B(t,T) + b[(T-t) - B] + Gaussian + sum_k
eta_k B(t_k, T), with the Gaussian part's variance in closed form. The
estimators therefore carry statistical error only, which is what makes them
usable as oracles for the analytic formulas.

Randomness is counter-based (Philox) with one independent substream per
fixed-size batch of paths, so estimates depend only on (seed, paths) and
batches could be evaluated in any order or in parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .jump_measure import GaussianJumpLaw, varsigma
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


def _batches(sim: SimConfig):
    """(generator, path count) per batch; batch i draws from Philox key (seed, i)."""
    for index, start in enumerate(range(0, sim.paths, _BATCH)):
        key = np.array([sim.seed, index], dtype=np.uint64)
        yield np.random.Generator(np.random.Philox(key=key)), min(_BATCH, sim.paths - start)


def _estimate(values, paths: int) -> McEstimate:
    """Sample mean and standard error of per-batch arrays of path values."""
    sums: list[float] = []
    squares: list[float] = []
    for y in values:
        sums.append(float(np.sum(y)))
        squares.append(float(np.dot(y, y)))
    mean = math.fsum(sums) / paths
    se = 0.0
    if paths > 1:
        var = max(math.fsum(squares) - paths * mean * mean, 0.0) / (paths - 1)
        se = math.sqrt(var / paths)
    return McEstimate(mean=mean, std_error=se, paths_used=paths)


def _check_jump_count(mean_count: float, limit: float) -> None:
    """ParameterError unless the expected jumps per path are at most ``limit`` (not NaN)."""
    if not mean_count <= limit:
        raise ParameterError(
            f"expected jump count per path must be at most {limit:g}, got {mean_count:g}"
        )


def _shot_noise(rng, count: int, mean_count: float, law: GaussianJumpLaw, window=None):
    """Per path: drift nu s1 and noise delta sqrt(s2) Z of sum_k eta_k h(t_k), and a
    further standard normal, with s1 = sum_k h(t_k) and s2 = sum_k h(t_k)^2.

    ``window`` is (lo, hi, h) with arrivals uniform on [lo, hi]; without one
    h = 1 and s1 = s2 = the jump count. Callers add drift and noise in their
    own order, which keeps their floats as they were.
    """
    n_jumps = rng.poisson(mean_count, count)
    s1 = s2 = n_jumps
    if window is not None:
        lo, hi, h = window
        loads = h(rng.uniform(lo, hi, int(n_jumps.sum())))
        owner = np.repeat(np.arange(count), n_jumps)
        s1 = np.bincount(owner, weights=loads, minlength=count)
        s2 = np.bincount(owner, weights=loads * loads, minlength=count)
    noise = law.delta * np.sqrt(s2) * rng.standard_normal(count)
    return law.nu * s1, noise, rng.standard_normal(count)


def mc_option_price(terms: OptionTerms, model: AssetModel, sim: SimConfig) -> McEstimate:
    """Discounted expected payoff under the risk-neutral terminal law.

    x_T = x + (r - q - lam varsigma - sigma^2/2) tau + sigma sqrt(tau) Z
    + compound-Poisson jumps, which makes e^{-(r-q) tau} S_T / S a martingale.
    """
    if terms.tau <= 0.0:
        raise ParameterError("mc_option_price needs tau > 0")
    tau = terms.tau
    mean_count = model.lam * tau
    _check_jump_count(mean_count, _MAX_MEAN_COUNT)
    drift = (
        terms.rate - terms.dividend - model.lam * varsigma(model.law) - 0.5 * model.sigma**2
    ) * tau
    base = math.log(terms.spot) + drift
    vol = model.sigma * math.sqrt(tau)
    disc = math.exp(-terms.rate * tau)
    is_call = terms.kind is OptionKind.CALL

    def discounted(rng, count: int) -> np.ndarray:
        jump_drift, jump_noise, z = _shot_noise(rng, count, mean_count, model.law)
        s_t = np.exp(base + vol * z + (jump_drift + jump_noise))
        pay = s_t - terms.strike if is_call else terms.strike - s_t
        return disc * np.maximum(pay, 0.0)

    return _estimate((discounted(*batch) for batch in _batches(sim)), sim.paths)


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
    span = T - t
    mean_count = model.lambda_r * span
    _check_jump_count(mean_count, _BATCH_JUMPS / min(sim.paths, _BATCH))
    b_val = b_factor(model, t, T)
    det = terms.r_t * b_val + model.b * (span - b_val)
    gauss_sd = model.sigma_r * math.sqrt(_int_b_squared(model, t, T))
    window = (t, T, lambda s: -np.expm1(-model.a * (T - s)) / model.a)

    def discounted(rng, count: int) -> np.ndarray:
        jump_drift, jump_noise, z = _shot_noise(rng, count, mean_count, model.law, window)
        return np.exp(-(det + gauss_sd * z + (jump_drift + jump_noise)))

    return _estimate((discounted(*batch) for batch in _batches(sim)), sim.paths)


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
    mean_count = model.lambda_r * horizon
    _check_jump_count(mean_count, _BATCH_JUMPS / min(sim.paths, _BATCH))
    decay = math.exp(-model.a * horizon)
    det = decay * r_t + model.b * (1.0 - decay)
    ou_sd = model.sigma_r * math.sqrt(-math.expm1(-2.0 * model.a * horizon) / (2.0 * model.a))
    window = (0.0, horizon, lambda s: np.exp(-model.a * (horizon - s)))

    s1: list[float] = []
    s2: list[float] = []
    s3: list[float] = []
    s4: list[float] = []
    for rng, count in _batches(sim):
        jump_drift, jump_noise, z = _shot_noise(rng, count, mean_count, model.law, window)
        # r - det, kept small so the power sums stay well conditioned
        d = ou_sd * z + jump_drift + jump_noise
        s1.append(float(np.sum(d)))
        s2.append(float(np.dot(d, d)))
        s3.append(float(np.sum(d**3)))
        s4.append(float(np.sum(d**4)))

    n = sim.paths
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
        McEstimate(mean=det + mean_d, std_error=se_mean, paths_used=n),
        McEstimate(mean=var_sample, std_error=se_var, paths_used=n),
    )

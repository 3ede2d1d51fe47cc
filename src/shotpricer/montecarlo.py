"""Exact-sampling Monte Carlo oracles for options, bonds, and rate moments.

Nothing here is discretized in time. Each oracle reads the same
compound-Poisson shot noise with Gaussian jumps through a weighted sum
sum_k eta_k h(t_k): h = 1 for the log-price, h = B(t_k, T) for int r ds and
h = e^{-a(horizon - t_k)} for the rate. Given the jump count and arrival
times that sum is Gaussian with mean nu sum h and variance delta^2 sum h^2.
Bond discount factors use the pathwise identity int r ds = r_t B(t,T) +
b[(T-t) - B] + Gaussian + sum_k eta_k B(t_k, T), with the Gaussian part's
variance in closed form, and the rate carries a Gaussian part of the same
kind. Given sum h^2 that Gaussian part and the jump noise are independent
centred normals, so the bond and rate samplers draw one normal per path for
both. The estimators therefore carry statistical error only, which is what
makes them usable as oracles for the analytic formulas.

Each fixed-size batch of paths draws from its own SFC64 substream, seeded by
SeedSequence(seed, spawn_key=(batch,)). Batches run on one thread per usable
CPU. The option sampler draws a Poisson count per path. The bond and rate
samplers use Poisson superposition and splitting instead: a Poisson(m size)
total of jumps, each given to one of ``size`` paths uniformly, gives every
path an independent Poisson(m) count. They draw a total per chunk of paths,
each jump's owner and one uniform u on [0, 1) per jump into a reused
buffer, and map u in place straight to its load h(t_k) with t_k = t +
(T - t) u, without forming t_k. Each batch reduces to a few floats that are
added in batch order, so estimates depend only on (seed, paths), not on the
worker or BLAS thread count. Threads run only private numpy code; checks and
library calls come first.

A call's payoff grows like S_T, so under heavy right-tailed jumps a sample
can miss the rare paths that carry its value, and then its standard error
understates the error as much as its mean does. ``mc_option_price`` also
estimates e^{-r tau} S_T for a call and raises ParameterError when that
misses its exact value S e^{-q tau} by more than six of its standard errors.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
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

# Paths per chunk of the bond and rate samplers, which draw one jump total per chunk.
_CHUNK = 1 << 12

# Most jumps one batch of paths may expect. It bounds the work per batch; the
# per-jump arrays (owners and loads) live for one chunk of paths, a sixteenth
# of the batch, so they expect at most 8 MB each.
_BATCH_JUMPS = 1 << 24

# Threads that run batches: one per CPU this process may run on.
_WORKERS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)

# Most jumps one option path may expect; numpy's Poisson sampler stops at 9.2e18.
_MAX_MEAN_COUNT = 1e18

# Standard errors by which a call's sample mean of e^{-r tau} S_T may miss
# S e^{-q tau} before the estimate is refused: an honest sample misses by
# more than 6 about twice in a billion.
_FORWARD_Z = 6.0


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


def _map_batches(work, sim: SimConfig) -> list:
    """work(rng, count) for each batch of up to _BATCH paths, in batch order.

    Batch i draws from SFC64 seeded by SeedSequence(seed, spawn_key=(i,)).
    Several batches run on up to _WORKERS threads; ``work`` must reduce its
    paths to a few floats.
    """
    counts = [min(_BATCH, sim.paths - start) for start in range(0, sim.paths, _BATCH)]

    def run(index: int):
        seeds = np.random.SeedSequence(sim.seed, spawn_key=(index,))
        return work(np.random.Generator(np.random.SFC64(seeds)), counts[index])

    workers = min(_WORKERS, len(counts))
    if workers == 1:
        return [run(i) for i in range(len(counts))]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, range(len(counts))))


def _estimate(path_values, sim: SimConfig) -> list[McEstimate]:
    """Sample mean and standard error, over all batches, of each of the arrays
    path_values(rng, count) returns."""

    def sums(rng, count: int) -> list[float]:
        arrays = path_values(rng, count)
        return [f for y in arrays for f in (float(np.sum(y)), float(np.sum(y * y)))]

    totals = _map_batches(sums, sim)
    paths = sim.paths
    out = []
    for col in range(0, len(totals[0]), 2):
        mean = math.fsum(t[col] for t in totals) / paths
        se = 0.0
        if paths > 1:
            square = math.fsum(t[col + 1] for t in totals)
            se = math.sqrt(max(square - paths * mean * mean, 0.0) / (paths - 1) / paths)
        out.append(McEstimate(mean=mean, std_error=se, paths_used=paths))
    return out


def _check_jump_count(mean_count: float, limit: float) -> None:
    """ParameterError unless the expected jumps per path are at most ``limit`` (not NaN)."""
    if not mean_count <= limit:
        raise ParameterError(
            f"expected jump count per path must be at most {limit:g}, got {mean_count:g}"
        )


def _shot_noise(rng, count: int, mean_count: float, law: GaussianJumpLaw):
    """Per path: drift nu n and noise delta sqrt(n) Z of the sum of
    n ~ Poisson(mean_count) jumps, and a further standard normal."""
    n_jumps = rng.poisson(mean_count, count)
    s1, s2 = n_jumps.astype(float), np.sqrt(n_jumps)
    s2 *= law.delta
    s2 *= rng.standard_normal(count)
    s1 *= law.nu
    return s1, s2, rng.standard_normal(count)


def _loaded_shot_noise(
    rng, count: int, mean_count: float, law: GaussianJumpLaw, loads, gauss_var: float
):
    """Per path: drift nu s1 and noise sqrt(gauss_var + delta^2 s2) Z, with
    s1 = sum_k h(t_k) and s2 = sum_k h(t_k)^2: the jump sum plus an
    independent Gaussian of variance gauss_var.

    Each chunk of up to _CHUNK paths draws its Poisson total, then each jump's
    owning path, then each jump's uniform u into a reused buffer, which
    ``loads`` maps to h in place. Each path's loads are summed in jump order.
    The normals come after all chunks.
    """
    s1, s2 = np.empty(count), np.empty(count)
    h = np.empty(0)
    for start in range(0, count, _CHUNK):
        size = min(_CHUNK, count - start)
        total = rng.poisson(mean_count * size)
        owner = rng.integers(0, size, total)
        if total > h.size:
            # an eighth to spare: later totals vary by about their square root
            h = np.empty(total + total // 8)
        u = rng.random(out=h[:total])
        loads(u)
        s1[start : start + size] = np.bincount(owner, u, size)
        s2[start : start + size] = np.bincount(owner, np.multiply(u, u, out=u), size)
    s2 *= law.delta * law.delta
    s2 += gauss_var
    np.sqrt(s2, out=s2)
    s2 *= rng.standard_normal(count)
    s1 *= law.nu
    return s1, s2


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
    jump_mean = model.lam * varsigma(model.law)
    compensator = jump_mean * tau
    # e^{-lam varsigma tau} = 0 sends every drawn S_T to 0: a 0 +- 0 that saw nothing
    if compensator > 0.0 and math.exp(-compensator) == 0.0:
        raise ParameterError(f"e^(-lam varsigma tau) underflows, lam varsigma tau {compensator:g}")
    drift = (terms.rate - terms.dividend - jump_mean - 0.5 * model.sigma**2) * tau
    base = math.log(terms.spot) + drift
    vol = model.sigma * math.sqrt(tau)
    disc = math.exp(-terms.rate * tau)
    is_call = terms.kind is OptionKind.CALL

    def discounted(rng, count: int) -> tuple[np.ndarray, ...]:
        jump_drift, jump_noise, z = _shot_noise(rng, count, mean_count, model.law)
        s_t = np.exp(base + vol * z + (jump_drift + jump_noise))
        pay = s_t - terms.strike if is_call else terms.strike - s_t
        paid = disc * np.maximum(pay, 0.0)
        return (paid, disc * s_t) if is_call else (paid,)

    est, *forward = _estimate(discounted, sim)
    law = model.law
    random_st = vol > 0.0 or (mean_count > 0.0 and (law.nu != 0.0 or law.delta > 0.0))
    # a random S_T whose paths all paid the same: the payoff's spread sits on
    # paths too rare to draw (or there is one path), and 0 +- 0 would look exact
    if random_st and est.std_error == 0.0:
        raise ParameterError(
            f"all {sim.paths} paths paid {est.mean:g}: a random S_T gave no spread "
            "to estimate a standard error from"
        )
    # A call's payoff grows like S_T, so a heavy right tail it rarely draws
    # hides in both its mean and its standard error. E[e^{-r tau} S_T] is
    # S e^{-q tau}; a sample that misses it by far more than its own standard
    # error has not drawn the tail. A put's payoff is bounded by K.
    target = terms.spot * math.exp(-terms.dividend * tau)
    for fwd in forward:
        if fwd.std_error > 0.0 and abs(fwd.mean - target) > _FORWARD_Z * fwd.std_error:
            raise ParameterError(
                f"the paths' mean discounted S_T {fwd.mean:g} misses S e^(-q tau) {target:g} "
                f"by {abs(fwd.mean - target) / fwd.std_error:.1f} standard errors: the "
                "call's standard error would understate its error"
            )
    return est


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
    gauss_var = model.sigma_r**2 * _int_b_squared(model, t, T)

    def loads(u: np.ndarray) -> None:
        """B(s, T) = -expm1(a span (u - 1)) / a at s = t + span u, in place."""
        u -= 1.0
        u *= model.a * span
        np.expm1(u, out=u)
        u /= -model.a

    def discounted(rng, count: int) -> tuple[np.ndarray]:
        drift, noise = _loaded_shot_noise(rng, count, mean_count, model.law, loads, gauss_var)
        drift += noise
        np.subtract(-det, drift, out=drift)  # -(det + jump drift + noise)
        return (np.exp(drift, out=drift),)

    return _estimate(discounted, sim)[0]


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
    ou_var = model.sigma_r**2 * -math.expm1(-2.0 * model.a * horizon) / (2.0 * model.a)

    def loads(u: np.ndarray) -> None:
        """e^{-a (horizon - s)} = e^{a horizon (u - 1)} at s = horizon u, in place."""
        u -= 1.0
        u *= model.a * horizon
        np.exp(u, out=u)

    def power_sums(rng, count: int) -> tuple[float, ...]:
        d, noise = _loaded_shot_noise(rng, count, mean_count, model.law, loads, ou_var)
        # r - det, kept small so the power sums stay well conditioned
        d += noise
        d2 = d * d
        return float(np.sum(d)), float(np.sum(d2)), float(np.sum(d2 * d)), float(np.sum(d2 * d2))

    n = sim.paths
    mean_d, raw2, raw3, raw4 = (math.fsum(col) / n for col in zip(*_map_batches(power_sums, sim)))
    m2c = max(raw2 - mean_d**2, 0.0)
    m4c = raw4 - 4.0 * mean_d * raw3 + 6.0 * mean_d**2 * raw2 - 3.0 * mean_d**4
    var_sample = m2c * n / (n - 1) if n > 1 else 0.0
    se_mean = math.sqrt(m2c / n)
    se_var = math.sqrt(max(m4c - m2c * m2c * (n - 3) / (n - 1), 0.0) / n) if n > 1 else 0.0
    return (
        McEstimate(mean=det + mean_d, std_error=se_mean, paths_used=n),
        McEstimate(mean=var_sample, std_error=se_var, paths_used=n),
    )

"""Exact-sampling Monte Carlo oracles for options, bonds, and rate moments.

Nothing here is discretized in time. Each oracle reads the same
compound-Poisson shot noise with Gaussian jumps through sum_k eta_k h(t_k):
h = 1 for the log-price, B(t_k, T) for int r ds and e^{-a(horizon - t_k)}
for the rate. Given the jumps' count and arrival times that sum is normal,
with mean nu sum h and variance delta^2 sum h^2. The option sampler draws
each path's jump count n and then one normal, of mean nu n and variance
sigma^2 tau + delta^2 n, for the jumps and the diffusion together. The bond
and rate oracles are conditional Monte Carlo (Rao-Blackwell): they draw only
the arrivals and average the closed form given them, a discount factor
exp(-det + gauss_var/2 + sum_k c(h_k)) with c(h) = -nu h + delta^2 h^2 / 2 =
log E[e^{-eta h}], and a normal rate of mean det + p and variance ou_var + q
(p = nu sum h, q = delta^2 sum h^2).

Batch i of paths draws from SFC64 seeded by SeedSequence(seed, spawn_key=(i,)),
and batches run on one thread per usable CPU. Counts and arrivals come from
Poisson superposition and splitting: a Poisson(m size) total of jumps, each
given to one of ``size`` paths uniformly, gives every path an independent
Poisson(m) count, and each jump's uniform u gives its owner floor(size u) and
arrival fraction size u - floor(size u). A chunk of ``size`` paths expects
about _CHUNK_JUMPS jumps and holds at most _CHUNK_PATHS paths, so few jumps
per path make capped chunks and many make small ones. The option sampler
counts this way up to _SPLIT_MEAN jumps per path, and above it per path with
numpy's Poisson sampler. Every per-path and per-jump array sits in a buffer
set that outlives the call: each running batch takes one from a module-level
free list of up to 2 * _WORKERS sets and returns it, so a warm call faults
in no fresh pages. Batches
reduce to a few floats added in batch order, so estimates depend only on
(seed, paths). Threads run only private numpy code; checks come first.
Paths that overflow a float raise ParameterError.

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
from .shortrate import BondTerms, RateModel, a_vasicek, b_factor

__all__ = [
    "SimConfig",
    "McEstimate",
    "mc_option_price",
    "mc_bond_price",
    "mc_rate_moments",
]

_BATCH = 1 << 16

# Jumps one chunk of the shot-noise sampler expects; each chunk draws one
# jump total. Its per-jump arrays (owners, fractions and a spare buffer, 24
# bytes a jump) then expect 1.5 MB, inside a core's 2 MB L2 cache.
_CHUNK_JUMPS = 1 << 16

# Most paths in one chunk. np.bincount has no ``out``, so its per-chunk output
# is the one array a batch allocates; at 64 KiB it stays under glibc's 128
# KiB mmap threshold, and the allocator hands back pages it already faulted in.
_CHUNK_PATHS = 1 << 13

# A buffer set keeps its per-jump arrays while they hold at most this many
# jumps (3 MB); a chunk that outgrows them allocates for the rest of its call.
_KEEP_JUMPS = 1 << 17

# Most jumps per option path that are counted by superposition, at about
# 6.5 ns a jump; numpy's per-path Poisson sampler costs 40-90 ns a path at
# means 4-10 and 60-80 ns past 10. On a 2-CPU x86 host the two crossed near 12.
_SPLIT_MEAN = 12.0

# Most jumps one batch of paths may expect: it bounds the work per batch.
_BATCH_JUMPS = 1 << 24

# Threads that run batches: one per CPU this process may run on.
_WORKERS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)


class _Buffers:
    """One batch's scratch arrays, kept between batches and calls: per-path
    float arrays of _BATCH, made on first use, and per-jump arrays (arrival
    fractions, a spare buffer, owners), grown when a chunk's total outgrows
    them."""

    def __init__(self) -> None:
        self.per_path: list[np.ndarray] = []
        empty = np.empty(0)
        self.per_jump = empty, empty, empty.astype(np.intp)

    def paths(self, k: int, count: int) -> list[np.ndarray]:
        """The first k per-path arrays, each cut to ``count`` paths."""
        while len(self.per_path) < k:
            self.per_path.append(np.empty(_BATCH))
        return [a[:count] for a in self.per_path[:k]]


# Buffer sets no batch is using. A batch pops one (or makes one) and appends
# it when done while the list holds fewer than 2 * _WORKERS, so one caller
# keeps _WORKERS sets and concurrent callers keep at most about twice that;
# the sets past the cap are freed. list.pop and list.append are atomic, so
# this needs no lock (a race past the length check only keeps a set or two
# more), and a forked child makes its own sets where its parent's threads
# held them.
_FREE_BUFFERS: list[_Buffers] = []

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
    """A sample mean and its standard error; both are finite."""

    mean: float
    std_error: float
    paths_used: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mean) and math.isfinite(self.std_error)):
            raise ParameterError(f"estimate {self.mean:g} +- {self.std_error:g} overflows a float")


def _map_batches(work, sim: SimConfig) -> list:
    """work(rng, count, buffers) for each batch of up to _BATCH paths, in batch order.

    Batch i draws from SFC64 seeded by SeedSequence(seed, spawn_key=(i,)).
    Several batches run on up to _WORKERS threads, each with a buffer set
    from _FREE_BUFFERS; ``work`` must reduce its paths to a few floats.
    """
    counts = [min(_BATCH, sim.paths - start) for start in range(0, sim.paths, _BATCH)]

    def run(index: int):
        seeds = np.random.SeedSequence(sim.seed, spawn_key=(index,))
        try:
            buffers = _FREE_BUFFERS.pop()
        except IndexError:
            buffers = _Buffers()
        try:
            # an overflow shows as inf or NaN in the estimate, which McEstimate refuses
            with np.errstate(over="ignore", invalid="ignore"):
                return work(np.random.Generator(np.random.SFC64(seeds)), counts[index], buffers)
        finally:
            if len(_FREE_BUFFERS) < 2 * _WORKERS:
                _FREE_BUFFERS.append(buffers)

    workers = min(_WORKERS, len(counts))
    if workers == 1:
        return [run(i) for i in range(len(counts))]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, range(len(counts))))


def _estimate(path_values, sim: SimConfig) -> list[McEstimate]:
    """Sample mean and standard error, over all batches, of each of the arrays
    path_values(rng, count, buffers) returns."""

    def sums(rng, count: int, buffers: _Buffers) -> list[float]:
        # each y is summed before it is squared in place
        arrays = path_values(rng, count, buffers)
        return [f for y in arrays for f in (float(np.sum(y)), float(np.sum(np.square(y, out=y))))]

    cols = [math.fsum(col) for col in zip(*_map_batches(sums, sim))]
    n = sim.paths
    pairs = [_mean_var(total, square, n) for total, square in zip(cols[::2], cols[1::2])]
    return [McEstimate(mean, math.sqrt(var / n), n) for mean, var in pairs]


def _mean_var(total: float, square: float, n: int) -> tuple[float, float]:
    """Sample mean and variance of n paths from their sum and sum of squares."""
    mean = total / n
    return mean, max(square - n * mean * mean, 0.0) / (n - 1) if n > 1 else 0.0


def _with_spread(est: McEstimate, mean_count: float, law: GaussianJumpLaw, vol=0.0) -> McEstimate:
    """``est``, unless the paths of a random value (vol > 0 or jumps that move)
    all gave the same: its spread sits on paths too rare to draw (or there is
    one path), and 0 +- 0 would look exact."""
    if est.std_error == 0.0 and (vol > 0.0 or mean_count > 0.0 and (law.nu or law.delta)):
        raise ParameterError(f"all {est.paths_used} paths gave the same value: no spread to "
                             "estimate a random value's standard error from")
    return est


def _check_jump_count(mean_count: float, limit: float) -> None:
    """ParameterError unless the expected jumps per path are at most ``limit`` (not NaN)."""
    if not mean_count <= limit:
        raise ParameterError(
            f"expected jump count per path must be at most {limit:g}, got {mean_count:g}"
        )


def _jump_sums(rng, count: int, mean_count: float, weights, buffers: _Buffers) -> list[np.ndarray]:
    """Per path, in jump order, the sums over its Poisson(mean_count) jumps of
    the arrays weights(frac, spare) returns, written into the first per-path
    arrays of ``buffers``; ``weights`` maps the arrival fractions in place and
    may write ``spare``, a buffer of their length. ``weights`` None gives
    each path's jump count.

    Chunks hold min(count, _CHUNK_PATHS, max(1, floor(_CHUNK_JUMPS /
    mean_count))) paths, and the last may be partial. Per chunk: the Poisson
    total, then one uniform u per jump into the per-jump buffers; v = size u
    gives its owner floor(v) < size (u <= 1 - 2^-53 keeps v over half an ulp
    below size) and its arrival fraction v - floor(v).
    """
    per_chunk = _CHUNK_JUMPS / mean_count if mean_count > 0.0 else math.inf
    step = int(min(count, _CHUNK_PATHS, max(1.0, per_chunk)))
    outs = None
    frac, spare, owner = buffers.per_jump
    for start in range(0, count, step):
        size = min(step, count - start)
        total = rng.poisson(mean_count * size)
        if total > frac.size:
            # an eighth to spare: later totals vary by about their square root
            grow = total + total // 8
            frac, spare, owner = np.empty(grow), np.empty(grow), np.empty(grow, np.intp)
            if grow <= _KEEP_JUMPS:
                buffers.per_jump = frac, spare, owner
        v = rng.random(out=frac[:total])
        v *= size
        o = owner[:total]
        np.copyto(o, v, casting="unsafe")  # truncation is floor for v >= 0
        if weights is None:
            sums = (np.bincount(o, minlength=size),)
        else:
            v -= o
            sums = [np.bincount(o, w, size) for w in weights(v, spare[:total])]
        if outs is None:
            outs = buffers.paths(len(sums), count)
        for out, s in zip(outs, sums):
            out[start:start + size] = s
    return outs


def _jump_counts(rng, count: int, mean_count: float, buffers: _Buffers) -> np.ndarray:
    """Per path a Poisson(mean_count) jump count, as floats in the first
    per-path array of ``buffers``: by superposition and splitting
    (``_jump_sums``) up to _SPLIT_MEAN expected jumps, above it from numpy's
    per-path sampler, _CHUNK_PATHS paths a call."""
    if mean_count <= _SPLIT_MEAN:
        return _jump_sums(rng, count, mean_count, None, buffers)[0]
    (n,) = buffers.paths(1, count)
    for start in range(0, count, _CHUNK_PATHS):
        stop = min(start + _CHUNK_PATHS, count)
        n[start:stop] = rng.poisson(mean_count, stop - start)
    return n


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
    var = model.sigma**2 * tau
    delta2 = model.law.delta**2
    disc = math.exp(-terms.rate * tau)
    is_call = terms.kind is OptionKind.CALL

    def discounted(rng, count: int, buffers: _Buffers) -> tuple[np.ndarray, ...]:
        # per path n ~ Poisson(mean_count) jumps; given n, the jumps and the
        # diffusion add one normal, of mean nu n and variance sigma^2 tau + delta^2 n
        n = _jump_counts(rng, count, mean_count, buffers)
        _, scale, x = buffers.paths(3, count)
        np.multiply(n, delta2, out=scale)
        scale += var
        np.sqrt(scale, out=scale)
        rng.standard_normal(out=x)
        x *= scale
        n *= model.law.nu
        x += n
        x += base
        s_t = np.exp(x, out=x)
        paid = (np.subtract(s_t, terms.strike, out=n) if is_call
                else np.subtract(terms.strike, s_t, out=s_t))
        np.maximum(paid, 0.0, out=paid)
        paid *= disc
        if not is_call:
            return (paid,)
        s_t *= disc
        return paid, s_t

    est, *forward = _estimate(discounted, sim)
    _with_spread(est, mean_count, model.law, model.sigma)
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


def mc_bond_price(model: RateModel, terms: BondTerms, sim: SimConfig) -> McEstimate:
    """Mean over paths of E[exp{-int r ds} | jump arrivals], in closed form per path."""
    if not terms.t < terms.T:
        raise ParameterError("mc_bond_price needs t < T")
    span = terms.T - terms.t
    mean_count = model.lambda_r * span
    _check_jump_count(mean_count, _BATCH_JUMPS / min(sim.paths, _BATCH))
    a = model.a
    # the Gaussian part of log P: the intercept A less r_t B
    log_scale = a_vasicek(model, terms.t, terms.T) - terms.r_t * b_factor(model, terms.t, terms.T)
    alpha, beta = model.law.nu / a, 0.5 * (model.law.delta / a) ** 2

    def jump_logs(u: np.ndarray, spare: np.ndarray) -> tuple[np.ndarray]:
        """c(h) at h = B(t + span u, T) into ``spare``: with e = expm1(a span
        (u - 1)), h = -e / a and c(h) = -nu h + delta^2 h^2 / 2 = e (alpha + beta e)."""
        u -= 1.0
        u *= a * span
        np.expm1(u, out=u)
        np.multiply(u, beta, out=spare)
        spare += alpha
        spare *= u
        return (spare,)

    def growth(rng, count: int, buffers: _Buffers) -> tuple[np.ndarray]:
        (logs,) = _jump_sums(rng, count, mean_count, jump_logs, buffers)
        return (np.expm1(logs, out=logs),)

    # each path's discount factor is e^{log_scale} (1 + growth)
    est = _with_spread(_estimate(growth, sim)[0], mean_count, model.law)
    with np.errstate(over="ignore"):
        scale = float(np.exp(log_scale))
    return McEstimate(scale * (1.0 + est.mean), scale * est.std_error, sim.paths)


def mc_rate_moments(
    model: RateModel, r_t: float, horizon: float, sim: SimConfig
) -> tuple[McEstimate, McEstimate]:
    """Conditional mean and variance of r(t + horizon), averaged over jump arrivals.

    E[r] is det + mean(p). Var r is ou_var + mean(q) + the sample variance of
    p (the law of total variance), with the standard error of its influence
    q + (p - mean(p))^2 (the delta method).
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

    def loads(u: np.ndarray, spare: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """h = e^{a horizon (u - 1)} at s = horizon u, in place, and h^2 into ``spare``."""
        u -= 1.0
        u *= model.a * horizon
        np.exp(u, out=u)
        return u, np.multiply(u, u, out=spare)

    def power_sums(rng, count: int, buffers: _Buffers) -> tuple[float, ...]:
        p, q = _jump_sums(rng, count, mean_count, loads, buffers)
        z = buffers.paths(3, count)[2]
        p *= model.law.nu
        q *= model.law.delta**2
        np.multiply(p, p, out=z)
        sum_pp, sum_q = float(np.sum(z)), float(np.sum(q))
        z += q
        sum_zp = float(np.sum(np.multiply(z, p, out=q)))
        sum_zz = float(np.sum(np.square(z, out=z)))
        return float(np.sum(p)), sum_pp, sum_q, sum_zz, sum_zp

    n = sim.paths
    s_p, s_pp, s_q, s_zz, s_zp = (math.fsum(c) for c in zip(*_map_batches(power_sums, sim)))
    mean_p, var_p = _mean_var(s_p, s_pp, n)
    # the influence, less a constant, is w = z - m p with z = q + p^2
    m = 2.0 * mean_p
    _, var_w = _mean_var(s_q + s_pp - m * s_p, s_zz - 2.0 * m * s_zp + m * m * s_pp, n)
    mean = McEstimate(det + mean_p, math.sqrt(var_p / n), n)
    var = McEstimate(ou_var + s_q / n + var_p, math.sqrt(var_w / n), n)
    return mean, _with_spread(var, mean_count, model.law)

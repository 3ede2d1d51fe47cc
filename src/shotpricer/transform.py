"""Numerical core: characteristic function, Poisson series, Fourier inversion.

Both option formulas in this library reduce to two cumulative transforms of
the same characteristic function

    psi(k) = exp{[-sigma^2 k^2 / 2 + lam * xi(k)] * tau},

the "plain" one (probability that the negated compound-Poisson-plus-Gaussian
displacement stays below l) and the "tilted" one (the same mass under an
exp(-z) change of weight). Two independent evaluation routes are provided:

* series (``cdf_*``, ``survival_*``, ``series_lset``): condition on the
  Poisson jump count. Each count contributes a Gaussian component, so both
  transforms are finite mixtures of normal cdfs with explicit weights.
  Exact up to the Poisson tail cutoff; this is the reference backend and
  the only one that also ships analytic parameter derivatives (used by the
  Greeks). One memoized pass per threshold yields all four transforms; the
  Greek engine ``series_lset`` and ``green_density`` read it too.
* fourier (``fourier_grid``): Gil-Pelaez inversion, one integral in k per
  cumulative, on Gauss-Legendre panels, for a batch of thresholds. It reads
  only psi, with no Poisson weights, so it is an independent cross-check of
  the series. When sigma = 0 the characteristic function tends to the atom
  weight exp(-lam tau) at large |k| (a point mass at z = 0); that constant
  is peeled off analytically, only the decaying remainder is inverted, and
  the atom is added back.

At sigma = 0 both cumulatives jump at l = 0 by the atom weight. Values at
l = 0 are taken literally: the plain cdf includes the atom (closed bracket),
the tilted one excludes it (open bracket), and the survival functions carry
the complementary conventions, so cdf + survival == 1 up to rounding.
Callers needing one-sided limits must nudge l themselves.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import gammaln, ndtr

from ._quad import gauss_legendre
from .errors import ParameterError, QuadratureError, TruncationError
from .jump_measure import GaussianJumpLaw, varsigma, xi

__all__ = [
    "Backend",
    "QuadratureSpec",
    "CharSpec",
    "char_function",
    "cdf_plain",
    "cdf_tilted",
    "survival_plain",
    "survival_tilted",
    "green_density",
    "fourier_grid",
    "series_lset",
    "LSet",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Entries kept by the series caches. One request (a strike chain, or a
# contract's price and Greeks) works on one (model, tau) at a time, so a
# few entries capture all the sharing while memory stays bounded.
_PARTS_CACHE_SIZE = 8
_LSET_CACHE_SIZE = 16

# Panel-count doublings the Fourier backend tries before giving up.
_FOURIER_DOUBLINGS = 6

# Most thresholds x frequency nodes one Fourier pass may evaluate (about 60 ms
# and 32 MB); the largest pass in the tests has 10752, in the benchmark 1920.
_FOURIER_BUDGET = 2**20

# Fourier frequency floor: the integral runs to at least this k, further
# where the characteristic-function envelope requires it.
_K_MAX = 16.0

# Gauss-Legendre nodes per Fourier panel.
_K_NODES = 32

# Most Poisson counts a series keeps (enough for lam tau up to about 3700).
_N_MAX = 4096


class Backend(str, Enum):
    """Evaluation strategy for the cumulative transforms."""

    SERIES = "series"
    FOURIER = "fourier"


@dataclass(frozen=True)
class QuadratureSpec:
    """Accuracy target shared by all numerical routines.

    ``rel_tol`` is the target for the Fourier backend. The series backend is
    exact up to the Poisson tail, which it keeps below ``series_tail``. The
    Fourier frequency range follows from ``rel_tol`` and the
    characteristic-function envelope, and its panel count doubles until two
    passes agree; the series stops at 4096 terms (about lam tau 3700).
    """

    rel_tol: float = 1e-9

    def __post_init__(self) -> None:
        if not 0.0 < self.rel_tol <= 1e-2:
            raise ParameterError(f"rel_tol must be in (0, 1e-2], got {self.rel_tol}")

    @property
    def series_tail(self) -> float:
        """Poisson tail mass the series may drop: a tenth of rel_tol, at most 1e-10."""
        return min(self.rel_tol, 1e-9) / 10.0


DEFAULT_QUAD = QuadratureSpec()


@dataclass(frozen=True)
class CharSpec:
    """Inputs of the characteristic function exp{[-s^2k^2/2 + lam xi(k)] tau}."""

    tau: float
    lam: float
    sigma: float
    law: GaussianJumpLaw

    def __post_init__(self) -> None:
        if not (self.tau > 0.0 and math.isfinite(self.tau)):
            raise ParameterError(f"tau must be > 0, got {self.tau}")
        if self.lam < 0.0 or not math.isfinite(self.lam):
            raise ParameterError(f"lam must be >= 0, got {self.lam}")
        if self.sigma < 0.0 or not math.isfinite(self.sigma):
            raise ParameterError(f"sigma must be >= 0, got {self.sigma}")

    @property
    def mean_count(self) -> float:
        return self.lam * self.tau


def char_function(spec: CharSpec, k: complex) -> complex:
    """psi(k), the undiscounted characteristic function at time scale tau."""
    return complex(_char_function_grid(spec, np.complex128(k)))


def _char_function_grid(spec: CharSpec, k: np.ndarray) -> np.ndarray:
    """psi over an array of (possibly complex) frequencies."""
    return np.exp((-0.5 * spec.sigma**2 * k * k + spec.lam * xi(spec.law, k)) * spec.tau)


def _poisson_weights(
    mean: float, tail_target: float, theta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Poisson(mean) weights P_0..P_N and their tilt P_n e^{n theta - mean
    (e^theta - 1)}, which is Poisson(mean e^theta), N grown until both tails
    beyond N are below ``tail_target``.

    Each set is divided by its own sum, so it sums to one to rounding: the
    gammaln rounding in the log pmf would otherwise leave a gap that grows
    with the mean (6e-13 at 3000). Raises TruncationError if N would pass
    ``_N_MAX`` first. Mean 0 keeps a zero-weight count 1, whose weight still
    moves with the mean.
    """
    if mean == 0.0:
        return np.array([1.0, 0.0]), np.array([1.0, 0.0])
    m_tilt = mean * math.exp(theta)
    peak = max(mean, m_tilt)
    hi = min(int(math.ceil(peak + 12.0 * math.sqrt(peak) + 30.0)), _N_MAX)
    while True:
        n = np.arange(hi + 1, dtype=float)
        log_p = -mean + n * math.log(mean) - gammaln(n + 1.0)
        plain = np.exp(log_p)
        tilt = np.exp(log_p + n * theta - (m_tilt - mean))
        plain_mass = math.fsum(plain.tolist())
        tilt_mass = math.fsum(tilt.tolist())
        tail = max(1.0 - plain_mass, 1.0 - tilt_mass)
        if tail < tail_target:
            return plain / plain_mass, tilt / tilt_mass
        if hi >= _N_MAX:
            raise TruncationError(
                f"Poisson series capped at {_N_MAX} terms met tail "
                f"{tail:g} > {tail_target:g}",
                tail_mass=tail,
            )
        hi = min(2 * hi + 50, _N_MAX)


# ---------------------------------------------------------------------------
# Series backend
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _SeriesParts:
    """Per-count ingredients of the mixture representation.

    ``plain_w`` are Poisson(lam tau) weights; ``tilt_w`` absorb the
    exponential tilt and are the Poisson(lam tau (1 + varsigma)) weights
    (lam tau varsigma == m_tilt - m). Each set sums to one to rounding.
    ``sd`` is the component standard deviation sqrt(n delta^2 + sigma^2 tau);
    components with sd == 0 are point masses at ``mean`` = -n nu.
    """

    n: np.ndarray
    plain_w: np.ndarray
    tilt_w: np.ndarray
    mean: np.ndarray
    sd: np.ndarray


@functools.lru_cache(maxsize=_PARTS_CACHE_SIZE)
def _series_parts(spec: CharSpec, quad: QuadratureSpec) -> _SeriesParts:
    """Mixture ingredients for one (spec, quad), shared by every threshold.

    Cached, so the arrays are read-only: every caller sees the same ones.
    A TruncationError propagates and is not cached.
    """
    law = spec.law
    plain_w, tilt_w = _poisson_weights(
        spec.mean_count, quad.series_tail, law.nu + 0.5 * law.delta**2
    )
    n = np.arange(len(plain_w), dtype=float)
    parts = _SeriesParts(
        n=n,
        plain_w=plain_w,
        tilt_w=tilt_w,
        mean=-n * law.nu,
        sd=np.sqrt(n * law.delta**2 + spec.sigma**2 * spec.tau),
    )
    for arr in vars(parts).values():
        arr.flags.writeable = False
    return parts


@functools.lru_cache(maxsize=_LSET_CACHE_SIZE)
def _series_values(spec: CharSpec, l: float, quad: QuadratureSpec) -> tuple[float, ...]:
    """(cdf_plain, cdf_tilted, survival_plain, survival_tilted) at l, one exact
    sum each; survivals are summed directly, so deep-OTM puts keep their size."""
    if math.isnan(l):
        raise ParameterError("threshold l must not be NaN")
    p = _series_parts(spec, quad)
    cont = p.sd > 0.0
    s = p.sd[cont]
    with np.errstate(over="ignore"):  # a huge l gives a = +-inf: ndtr is 0 or 1
        a = (l - p.mean[cont]) / s
    b = a + s
    gap = l - p.mean[~cont]
    # (weights, standardized threshold, atoms counted): the module's brackets
    legs = (
        (p.plain_w, a, gap >= 0.0),
        (p.tilt_w, b, gap > 0.0),
        (p.plain_w, -a, gap < 0.0),
        (p.tilt_w, -b, gap <= 0.0),
    )
    # the weights sum to one only to rounding; a probability stays at most 1
    return tuple(
        min(1.0, math.fsum(np.concatenate((w[cont] * ndtr(z), w[~cont] * hit)).tolist()))
        for w, z, hit in legs
    )


# ---------------------------------------------------------------------------
# Fourier backend
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FourierGrid:
    """Batch result of the Fourier backend over a sorted grid of thresholds."""

    ls: np.ndarray
    plain: np.ndarray
    tilted: np.ndarray
    plain_surv: np.ndarray
    tilted_surv: np.ndarray
    est_error: float
    k_max: float


def _fourier_kmax(spec: CharSpec, tol_k: float) -> float:
    """Frequency truncation where both integrand envelopes dip below tol,
    and never below ``_K_MAX``.

    The tilted transform's envelope is the plain one with the mean count
    lam tau replaced by lam tau e^{nu + delta^2/2}, so one rule bounds both.
    """
    law = spec.law
    m = spec.mean_count
    m_tilt = m * math.exp(law.nu + 0.5 * law.delta**2)

    def envelope(k: float, mean: float) -> float:
        gauss = math.exp(-0.5 * spec.sigma**2 * k * k * spec.tau)
        x = 0.5 * k * k * law.delta**2
        if spec.sigma == 0.0:
            # atom already subtracted: bound |e^{lam tau phi} - 1| e^{-lam tau}
            phi = math.exp(-x)
            return math.exp(-mean) * math.expm1(mean * phi) if mean * phi < 700.0 else 1.0
        jump = math.exp(mean * math.expm1(-x))
        return jump * gauss

    def over(k: float) -> bool:
        return max(envelope(k, m), envelope(k, m_tilt)) > tol_k

    lo, hi = 1.0, 2.0
    for _ in range(80):
        if not over(hi):
            break
        hi *= 2.0
    else:
        raise QuadratureError("no frequency truncation meets the envelope bound")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if over(mid):
            lo = mid
        else:
            hi = mid
    return max(_K_MAX, hi)


def fourier_grid(
    spec: CharSpec, ls, quad: QuadratureSpec = DEFAULT_QUAD
) -> FourierGrid:
    """Evaluate all four cumulative transforms on a grid of thresholds.

    Gil-Pelaez inversion: with phi the characteristic function of a law and
    a its atom at zero,

        F(l) = (1 - a)/2 - (1/pi) int_0^k_max Im(e^{-ikl} (phi(k) - a)) / k dk

    and the survival is (1 - a)/2 plus the same integral; the atom is added
    back with the bracket conventions of the module docstring. The plain law
    has phi(k) = psi(-k), the tilted one pref * psi(-k - i). The integral
    runs on Gauss-Legendre panels whose count doubles until two passes agree
    to ``rel_tol``; their spread is the reported error estimate. After
    ``_FOURIER_DOUBLINGS`` misses QuadratureError carries out the estimate.
    A pass that would evaluate more than ``_FOURIER_BUDGET`` thresholds x
    nodes raises QuadratureError before building its arrays.
    """
    ls = np.atleast_1d(np.asarray(ls, dtype=float))
    if not np.all(np.isfinite(ls)):
        raise ParameterError(f"thresholds must be finite, got {ls}")
    if spec.sigma == 0.0 and spec.law.delta == 0.0:
        raise QuadratureError(
            "fourier backend needs a diffusive or jump-width component (sigma or delta > 0)"
        )
    pref = math.exp(-(0.5 * spec.sigma**2 + spec.lam * varsigma(spec.law)) * spec.tau)
    atom = math.exp(-spec.mean_count) if spec.sigma == 0.0 else 0.0
    atom_t = pref * atom
    k_max = _fourier_kmax(spec, quad.rel_tol / 10.0)

    def integrals(n_panels: int) -> np.ndarray:
        """(1/pi) int Im(...)/k dk per threshold; columns plain, tilted."""
        if ls.size * n_panels * _K_NODES > _FOURIER_BUDGET:
            raise QuadratureError(
                f"fourier backend needs {n_panels} panels (k_max {k_max:.3g}) for "
                f"{ls.size} thresholds, past its budget of {_FOURIER_BUDGET} nodes"
            )
        x, w = gauss_legendre(0.0, k_max / n_panels, _K_NODES)
        k = (np.arange(n_panels)[:, None] * (k_max / n_panels) + x).ravel()
        wk = np.tile(w, n_panels) / (math.pi * k)
        g = np.stack(
            [
                wk * (_char_function_grid(spec, -k) - atom),
                wk * (pref * _char_function_grid(spec, -k - 1j) - atom_t),
            ],
            axis=1,
        )
        return (np.exp(-1j * np.outer(ls, k)) @ g).imag

    # e^{-ikl} turns |l| radians per unit k; start near _K_NODES radians a panel
    n_panels = max(4, math.ceil(k_max * float(np.max(np.abs(ls), initial=1.0)) / _K_NODES))
    prev = integrals(n_panels)
    for _ in range(_FOURIER_DOUBLINGS):
        n_panels *= 2
        cur = integrals(n_panels)
        est = float(np.max(np.abs(cur - prev)))
        if est <= quad.rel_tol:
            plain, tilted = cur[:, 0], cur[:, 1]
            return FourierGrid(
                ls=ls,
                plain=0.5 * (1.0 - atom) - plain + atom * (ls >= 0.0),
                tilted=0.5 * (1.0 - atom_t) - tilted + atom_t * (ls > 0.0),
                plain_surv=0.5 * (1.0 - atom) + plain + atom * (ls < 0.0),
                tilted_surv=0.5 * (1.0 - atom_t) + tilted + atom_t * (ls <= 0.0),
                est_error=est,
                k_max=k_max,
            )
        prev = cur
    raise QuadratureError(
        f"fourier backend missed rel_tol={quad.rel_tol:g}", achieved=est
    )


# ---------------------------------------------------------------------------
# Public cumulative transforms
# ---------------------------------------------------------------------------


def cdf_plain(spec: CharSpec, l: float, quad: QuadratureSpec = DEFAULT_QUAD) -> float:
    """Plain cumulative transform: mass of the displacement law below l."""
    return _series_values(spec, float(l), quad)[0]


def cdf_tilted(spec: CharSpec, l: float, quad: QuadratureSpec = DEFAULT_QUAD) -> float:
    """Exponentially tilted cumulative transform; reaches 1 as l -> inf."""
    return _series_values(spec, float(l), quad)[1]


def survival_plain(spec: CharSpec, l: float, quad: QuadratureSpec = DEFAULT_QUAD) -> float:
    """Mass above l under the plain transform; cdf_plain + survival_plain == 1."""
    return _series_values(spec, float(l), quad)[2]


def survival_tilted(spec: CharSpec, l: float, quad: QuadratureSpec = DEFAULT_QUAD) -> float:
    """Tilted mass above l; cdf_tilted + survival_tilted == 1."""
    return _series_values(spec, float(l), quad)[3]


def green_density(
    spec: CharSpec, u: float, r: float = 0.0, quad: QuadratureSpec = DEFAULT_QUAD
) -> float:
    """Discounted transition-kernel density at displacement u.

    The caller has already folded the risk-neutral drift
    (r - q - sigma^2/2 - lam varsigma) tau into u. Only the continuous part
    is returned; for sigma = 0 the kernel also carries a point mass
    exp(-lam tau) at zero displacement, which a density cannot represent.
    Integrates to exp(-r tau) (minus the atom when sigma = 0). It is the
    Greek engine's dL2/dl, the l-derivative of the plain law's cdf.
    """
    if spec.sigma == 0.0 and (spec.lam == 0.0 or spec.law.delta == 0.0):
        raise ParameterError("density undefined: displacement law is purely atomic")
    if not math.isfinite(r):
        raise ParameterError(f"rate r must be finite, got {r}")
    return math.exp(-r * spec.tau) * series_lset(spec, u, quad).dl2_dl


# ---------------------------------------------------------------------------
# Series values with analytic parameter derivatives (Greek engine)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LSet:
    """Tilted/plain transforms and their derivatives at fixed threshold l.

    All parameter derivatives (tau, lam, nu, delta, sigma) hold l fixed;
    the l-channel cancels out of every Greek through the balance identity
    S e^{-q tau} dL1/dl = K e^{-r tau} dL2/dl, so these are exactly the
    ingredients the analytic Greeks need.
    """

    l1: float
    l2: float
    dl1_dl: float
    dl2_dl: float
    dl1_dtau: float
    dl2_dtau: float
    dl1_dlam: float
    dl2_dlam: float
    dl1_dnu: float
    dl2_dnu: float
    dl1_ddelta: float
    dl2_ddelta: float
    dl1_dsigma: float
    dl2_dsigma: float


def series_lset(spec: CharSpec, l: float, quad: QuadratureSpec = DEFAULT_QUAD) -> LSet:
    """Evaluate both transforms and all analytic derivatives term by term.

    Results are memoized per (spec, l, quad): a call and a put at one strike,
    and their jump-parameter Greeks, share one evaluation.
    """
    return _series_lset(spec, float(l), quad)


@functools.lru_cache(maxsize=_LSET_CACHE_SIZE)
def _series_lset(spec: CharSpec, l: float, quad: QuadratureSpec) -> LSet:
    l2, l1 = _series_values(spec, l, quad)[:2]
    law = spec.law
    tau, lam, sigma = spec.tau, spec.lam, spec.sigma
    nu, delta = law.nu, law.delta
    p = _series_parts(spec, quad)
    n = p.n
    cont = p.sd > 0.0

    def fsum(arr: np.ndarray) -> float:
        return math.fsum(arr.tolist())

    # Poisson weights of mean M obey n w_n = M w_{n-1}, so dw_n/dM is
    # w_{n-1} - w_n, and a weight's derivative in any parameter is dM/dparam
    # times that difference. The plain mean is lam tau; the tilted one is
    # m_tilt = lam tau e^theta with theta = nu + delta^2/2, so dm_tilt/dnu is
    # m_tilt and dm_tilt/ddelta is delta m_tilt. No n / lam or n / tau is
    # formed, so a tiny lam or tau cannot overflow.
    growth = math.exp(nu + 0.5 * delta**2)  # 1 + varsigma
    m_tilt = lam * tau * growth
    dwp = np.concatenate(([0.0], p.plain_w[:-1])) - p.plain_w
    dwt = np.concatenate(([0.0], p.tilt_w[:-1])) - p.tilt_w

    s = p.sd[cont]
    wp = p.plain_w[cont]
    wt = p.tilt_w[cont]
    nc = n[cont]
    # a = (l + n nu)/s overflows for a huge l or a narrow component, and
    # phi(a) a would be 0 * inf. Clipping a to +-1e3 changes no finite output
    # while s < 960: phi and Phi of a and of b = a + s are exactly 0 or 1 there.
    with np.errstate(over="ignore"):
        a = (l - p.mean[cont]) / s
    a = np.minimum(np.maximum(a, -1e3), 1e3)
    b = a + s
    phi_a = np.exp(-0.5 * a * a) / _SQRT_2PI
    phi_b = np.exp(-0.5 * b * b) / _SQRT_2PI
    Phi_a = ndtr(a)
    Phi_b = ndtr(b)

    # At fixed l, nu moves a and b by n / s; tau, delta and sigma move them
    # only through s, with da/ds = -a/s and db/ds = 1 - a/s. The densities
    # multiply a before the division by s, so where phi underflows to 0 the
    # product is 0 rather than 0 * inf.
    pa = -phi_a * a / s  # phi(a) da/ds
    pb = phi_b - phi_b * a / s  # phi(b) db/ds
    ds_dtau = sigma**2 / (2.0 * s)
    ds_ddelta = nc * delta / s
    ds_dsigma = sigma * tau / s

    # derivatives of the transforms in the Poisson mean; atoms count with
    # the brackets of cdf_plain and cdf_tilted
    gap = l - p.mean[~cont]
    l2_dm = fsum(np.concatenate((dwp[cont] * Phi_a, dwp[~cont] * (gap >= 0.0))))
    l1_dm = fsum(np.concatenate((dwt[cont] * Phi_b, dwt[~cont] * (gap > 0.0))))

    return LSet(
        l1=l1,
        l2=l2,
        dl1_dl=fsum(wt * phi_b / s),
        dl2_dl=fsum(wp * phi_a / s),
        dl1_dtau=lam * growth * l1_dm + fsum(wt * pb * ds_dtau),
        dl2_dtau=lam * l2_dm + fsum(wp * pa * ds_dtau),
        dl1_dlam=tau * growth * l1_dm,
        dl2_dlam=tau * l2_dm,
        dl1_dnu=m_tilt * l1_dm + fsum(wt * phi_b * nc / s),
        dl2_dnu=fsum(wp * phi_a * nc / s),
        dl1_ddelta=delta * m_tilt * l1_dm + fsum(wt * pb * ds_ddelta),
        dl2_ddelta=fsum(wp * pa * ds_ddelta),
        dl1_dsigma=fsum(wt * pb * ds_dsigma),
        dl2_dsigma=fsum(wp * pa * ds_dsigma),
    )

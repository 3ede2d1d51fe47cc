"""Numerical core: characteristic function, Poisson series, Fourier inversion.

Both option formulas in this library reduce to two cumulative transforms of
the same characteristic function

    psi(k) = exp{[-sigma^2 k^2 / 2 + lam * xi(k)] * tau},

the "plain" one (probability that the negated compound-Poisson-plus-Gaussian
displacement stays below l) and the "tilted" one (the same mass under an
exp(-z) change of weight). Two independent evaluation routes are provided:

* series: condition on the Poisson jump count. Each count contributes a
  Gaussian component, so both transforms are finite mixtures of normal cdfs
  with explicit weights. Exact up to the Poisson tail cutoff; this is the
  reference backend and the only one that also ships analytic parameter
  derivatives (used by the Greeks).
* fourier: Gil-Pelaez inversion, one integral in k per cumulative, on
  Gauss-Legendre panels. It reads only psi, with no Poisson weights, so it
  is an independent cross-check of the series. When sigma = 0 the
  characteristic function tends to the atom weight exp(-lam tau) at large
  |k| (a point mass at z = 0); that constant is peeled off analytically,
  only the decaying remainder is inverted, and the atom is added back.

At sigma = 0 both cumulatives jump at l = 0 by the atom weight. Values at
l = 0 are taken literally: the plain cdf includes the atom (closed bracket),
the tilted one excludes it (open bracket), and the survival functions carry
the complementary conventions so that cdf + survival == 1 holds exactly.
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
    "poisson_weights",
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


class Backend(str, Enum):
    """Evaluation strategy for the cumulative transforms."""

    SERIES = "series"
    FOURIER = "fourier"


@dataclass(frozen=True)
class QuadratureSpec:
    """Accuracy/truncation controls shared by all numerical routines.

    ``rel_tol`` is the target for the Fourier backend (the series backend is
    exact up to the Poisson tail, which is kept an order of magnitude
    tighter). ``k_max`` is the frequency floor: the Fourier integral runs to
    at least ``k_max``, further where the characteristic-function envelope
    requires it. On a missed tolerance the panel count doubles; the
    frequency range stays. ``k_nodes`` are Gauss-Legendre nodes per panel,
    ``n_max`` caps the Poisson series.
    """

    rel_tol: float = 1e-9
    k_max: float = 16.0
    k_nodes: int = 32
    n_max: int = 4096

    def __post_init__(self) -> None:
        if not 0.0 < self.rel_tol <= 1e-2:
            raise ParameterError(f"rel_tol must be in (0, 1e-2], got {self.rel_tol}")
        if self.k_nodes < 16:
            raise ParameterError(f"k_nodes must be >= 16, got {self.k_nodes}")
        if self.n_max < 1:
            raise ParameterError(f"n_max must be >= 1, got {self.n_max}")
        if self.k_max <= 0:
            raise ParameterError(f"k_max must be > 0, got {self.k_max}")


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


def _poisson_log_pmf(
    mean: float, tail_target: float, n_max: int, theta: float = 0.0
) -> np.ndarray:
    """log P_0..log P_N of Poisson(mean), N grown until the tail beyond N is
    below ``tail_target`` both for these weights and for their tilt by
    e^{n theta}, which is Poisson(mean e^theta).

    Raises TruncationError if ``n_max`` is hit first.
    """
    if mean == 0.0:
        return np.array([0.0])
    m_tilt = mean * math.exp(theta)
    peak = max(mean, m_tilt)
    hi = min(int(math.ceil(peak + 12.0 * math.sqrt(peak) + 30.0)), n_max)
    while True:
        n = np.arange(hi + 1, dtype=float)
        log_p = -mean + n * math.log(mean) - gammaln(n + 1.0)
        plain_tail = 1.0 - math.fsum(np.exp(log_p).tolist())
        tilt_tail = 1.0 - math.fsum(np.exp(log_p + n * theta - m_tilt + mean).tolist())
        if plain_tail < tail_target and tilt_tail < tail_target:
            return log_p
        if hi >= n_max:
            raise TruncationError(
                f"Poisson cutoff n_max={n_max} met tail "
                f"{max(plain_tail, tilt_tail):g} > {tail_target:g}",
                tail_mass=float(max(plain_tail, tilt_tail)),
            )
        hi = min(2 * hi + 50, n_max)


def poisson_weights(mean_count: float, quad: QuadratureSpec = DEFAULT_QUAD) -> np.ndarray:
    """Poisson pmf values P_0..P_N, N the first count whose tail mass is below
    ``rel_tol / 10``. Raises TruncationError if ``n_max`` is hit first.
    """
    if mean_count < 0 or not math.isfinite(mean_count):
        raise ParameterError(f"mean_count must be >= 0, got {mean_count}")
    tail_target = quad.rel_tol / 10.0
    w = np.exp(_poisson_log_pmf(mean_count, tail_target, quad.n_max))
    return w[: int(np.searchsorted(np.cumsum(w), 1.0 - tail_target)) + 1]


# ---------------------------------------------------------------------------
# Series backend
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _SeriesParts:
    """Per-count ingredients of the mixture representation.

    ``plain_w`` are Poisson(lam tau) weights; ``tilt_w`` absorb the
    exponential tilt and are exactly the Poisson(lam tau (1 + varsigma))
    weights, so both sum to one. ``sd`` is the component standard deviation
    sqrt(n delta^2 + sigma^2 tau); components with sd == 0 are point masses
    at ``mean`` = -n nu.
    """

    n: np.ndarray
    plain_w: np.ndarray
    tilt_w: np.ndarray
    mean: np.ndarray
    sd: np.ndarray
    log_plain: np.ndarray


@functools.lru_cache(maxsize=_PARTS_CACHE_SIZE)
def _series_parts(spec: CharSpec, quad: QuadratureSpec) -> _SeriesParts:
    """Mixture ingredients for one (spec, quad), shared by every threshold.

    Cached, so the arrays are read-only: every caller sees the same ones.
    A TruncationError propagates and is not cached.
    """
    law = spec.law
    m = spec.mean_count
    theta = law.nu + 0.5 * law.delta**2
    m_tilt = m * math.exp(theta)
    log_p = _poisson_log_pmf(m, min(quad.rel_tol, 1e-9) / 10.0, quad.n_max, theta)
    n = np.arange(len(log_p), dtype=float)
    # lam tau varsigma == m_tilt - m, so the tilted weights stay normalized.
    tilt_w = np.exp(log_p + n * theta - (m_tilt - m))
    parts = _SeriesParts(
        n=n,
        plain_w=np.exp(log_p),
        tilt_w=tilt_w,
        mean=-n * law.nu,
        sd=np.sqrt(n * law.delta**2 + spec.sigma**2 * spec.tau),
        log_plain=log_p,
    )
    for arr in vars(parts).values():
        arr.flags.writeable = False
    return parts


def _series_cdf(
    spec: CharSpec, l: float, quad: QuadratureSpec, tilted: bool, complement: bool
) -> float:
    if math.isnan(l):
        raise ParameterError("threshold l must not be NaN")
    p = _series_parts(spec, quad)
    w = p.tilt_w if tilted else p.plain_w
    cont = p.sd > 0.0
    terms = []
    if np.any(cont):
        z = (l - p.mean[cont]) / p.sd[cont]
        if tilted:
            z = z + p.sd[cont]
        arg = -z if complement else z
        terms.append(w[cont] * ndtr(arg))
    if np.any(~cont):
        gap = l - p.mean[~cont]
        # open/closed bracket conventions; see module docstring
        if tilted:
            hit = gap <= 0.0 if complement else gap > 0.0
        else:
            hit = gap < 0.0 if complement else gap >= 0.0
        terms.append(w[~cont] * hit)
    return float(math.fsum(np.concatenate(terms).tolist()))


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


def _fourier_kmax(spec: CharSpec, tol_k: float, floor: float) -> float:
    """Frequency truncation where both integrand envelopes dip below tol.

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
    return max(floor, hi)


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
    k_max = _fourier_kmax(spec, quad.rel_tol / 10.0, floor=quad.k_max)

    def integrals(n_panels: int) -> np.ndarray:
        """(1/pi) int Im(...)/k dk per threshold; columns plain, tilted."""
        x, w = gauss_legendre(0.0, k_max / n_panels, quad.k_nodes)
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

    # e^{-ikl} turns |l| radians per unit k; start near k_nodes radians a panel
    n_panels = max(4, math.ceil(k_max * float(np.max(np.abs(ls), initial=1.0)) / quad.k_nodes))
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


def _cdf(spec, l, backend, quad, tilted, complement) -> float:
    backend = Backend(backend)
    if backend is Backend.SERIES:
        return _series_cdf(spec, float(l), quad, tilted=tilted, complement=complement)
    grid = fourier_grid(spec, [float(l)], quad)
    key = {
        (False, False): "plain",
        (True, False): "tilted",
        (False, True): "plain_surv",
        (True, True): "tilted_surv",
    }[(tilted, complement)]
    return float(getattr(grid, key)[0])


def cdf_plain(
    spec: CharSpec,
    l: float,
    backend: Backend = Backend.SERIES,
    quad: QuadratureSpec = DEFAULT_QUAD,
) -> float:
    """Plain cumulative transform: mass of the displacement law below l."""
    return _cdf(spec, l, backend, quad, tilted=False, complement=False)


def cdf_tilted(
    spec: CharSpec,
    l: float,
    backend: Backend = Backend.SERIES,
    quad: QuadratureSpec = DEFAULT_QUAD,
) -> float:
    """Exponentially tilted cumulative transform; reaches 1 as l -> inf."""
    return _cdf(spec, l, backend, quad, tilted=True, complement=False)


def survival_plain(
    spec: CharSpec,
    l: float,
    backend: Backend = Backend.SERIES,
    quad: QuadratureSpec = DEFAULT_QUAD,
) -> float:
    """Mass above l under the plain transform; cdf_plain + survival_plain == 1."""
    return _cdf(spec, l, backend, quad, tilted=False, complement=True)


def survival_tilted(
    spec: CharSpec,
    l: float,
    backend: Backend = Backend.SERIES,
    quad: QuadratureSpec = DEFAULT_QUAD,
) -> float:
    """Tilted mass above l; cdf_tilted + survival_tilted == 1."""
    return _cdf(spec, l, backend, quad, tilted=True, complement=True)


def green_density(
    spec: CharSpec,
    u: float,
    r: float = 0.0,
    quad: QuadratureSpec = DEFAULT_QUAD,
    q: float = 0.0,
    shifted: bool = True,
) -> float:
    """Discounted transition-kernel density at displacement u.

    With ``shifted=True`` the caller has already folded the risk-neutral
    drift into u; with ``shifted=False`` u is the raw log-price gap and the
    drift (r - q - sigma^2/2 - lam varsigma) tau is applied here. Only the
    continuous part is returned; for sigma = 0 the kernel also carries a
    point mass exp(-lam tau) at zero displacement, which a density cannot
    represent. Integrates to exp(-r tau) (minus the atom when sigma = 0).
    """
    if spec.sigma == 0.0 and (spec.lam == 0.0 or spec.law.delta == 0.0):
        raise ParameterError("density undefined: displacement law is purely atomic")
    w = float(u)
    if math.isnan(w):
        raise ParameterError("displacement u must not be NaN")
    if not shifted:
        drift = (r - q - 0.5 * spec.sigma**2 - spec.lam * varsigma(spec.law)) * spec.tau
        w = w + drift
    p = _series_parts(spec, quad)
    cont = p.sd > 0.0
    z = (w - p.mean[cont]) / p.sd[cont]
    dens = p.plain_w[cont] / p.sd[cont] * np.exp(-0.5 * z * z) / _SQRT_2PI
    return math.exp(-r * spec.tau) * float(math.fsum(dens.tolist()))


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
    if math.isnan(l):
        raise ParameterError("threshold l must not be NaN")
    law = spec.law
    tau, lam, sigma = spec.tau, spec.lam, spec.sigma
    nu, delta = law.nu, law.delta
    vs = varsigma(law)
    p = _series_parts(spec, quad)
    n = p.n
    cont = p.sd > 0.0

    def fsum(arr: np.ndarray) -> float:
        return math.fsum(arr.tolist())

    # weight log-derivatives (same shape for plain and tilted atoms included)
    with np.errstate(divide="ignore", invalid="ignore"):
        n_over_lam = np.where(n > 0, n / lam, 0.0) if lam > 0 else np.zeros_like(n)
    dlogp_dtau = -lam + np.where(n > 0, n / tau, 0.0)
    dlogp_dlam = -tau + n_over_lam
    dlogw_dtau = dlogp_dtau - lam * vs
    dlogw_dlam = dlogp_dlam - tau * vs
    dlogw_dnu = n - lam * tau * (vs + 1.0)
    dlogw_ddelta = delta * (n - lam * tau * (vs + 1.0))

    s = p.sd[cont]
    wp = p.plain_w[cont]
    wt = p.tilt_w[cont]
    nc = n[cont]
    a = (l - p.mean[cont]) / s  # = (l + n nu)/s
    b = a + s
    phi_a = np.exp(-0.5 * a * a) / _SQRT_2PI
    phi_b = np.exp(-0.5 * b * b) / _SQRT_2PI
    Phi_a = ndtr(a)
    Phi_b = ndtr(b)

    # threshold-argument derivatives at fixed l
    da_dtau = -a * sigma**2 / (2.0 * s * s)
    db_dtau = da_dtau + sigma**2 / (2.0 * s)
    da_dnu = nc / s
    db_dnu = da_dnu
    da_ddelta = -a * nc * delta / (s * s)
    db_ddelta = da_ddelta + nc * delta / s
    da_dsigma = -a * sigma * tau / (s * s)
    db_dsigma = da_dsigma + sigma * tau / s

    l2 = fsum(wp * Phi_a)
    l1 = fsum(wt * Phi_b)
    dl2_dl = fsum(wp * phi_a / s)
    dl1_dl = fsum(wt * phi_b / s)
    dl2_dtau = fsum(wp * (dlogp_dtau[cont] * Phi_a + phi_a * da_dtau))
    dl1_dtau = fsum(wt * (dlogw_dtau[cont] * Phi_b + phi_b * db_dtau))
    dl2_dlam = fsum(wp * dlogp_dlam[cont] * Phi_a)
    dl1_dlam = fsum(wt * dlogw_dlam[cont] * Phi_b)
    dl2_dnu = fsum(wp * phi_a * da_dnu)
    dl1_dnu = fsum(wt * (dlogw_dnu[cont] * Phi_b + phi_b * db_dnu))
    dl2_ddelta = fsum(wp * phi_a * da_ddelta)
    dl1_ddelta = fsum(wt * (dlogw_ddelta[cont] * Phi_b + phi_b * db_ddelta))
    dl2_dsigma = fsum(wp * phi_a * da_dsigma)
    dl1_dsigma = fsum(wt * phi_b * db_dsigma)

    if np.any(~cont):
        gap = l - p.mean[~cont]
        step_p = (gap >= 0.0).astype(float)
        step_t = (gap > 0.0).astype(float)
        wp0 = p.plain_w[~cont]
        wt0 = p.tilt_w[~cont]
        l2 += fsum(wp0 * step_p)
        l1 += fsum(wt0 * step_t)
        dl2_dtau += fsum(wp0 * dlogp_dtau[~cont] * step_p)
        dl1_dtau += fsum(wt0 * dlogw_dtau[~cont] * step_t)
        dl2_dlam += fsum(wp0 * dlogp_dlam[~cont] * step_p)
        dl1_dlam += fsum(wt0 * dlogw_dlam[~cont] * step_t)
        dl1_dnu += fsum(wt0 * dlogw_dnu[~cont] * step_t)
        dl1_ddelta += fsum(wt0 * dlogw_ddelta[~cont] * step_t)

    return LSet(
        l1=l1,
        l2=l2,
        dl1_dl=dl1_dl,
        dl2_dl=dl2_dl,
        dl1_dtau=dl1_dtau,
        dl2_dtau=dl2_dtau,
        dl1_dlam=dl1_dlam,
        dl2_dlam=dl2_dlam,
        dl1_dnu=dl1_dnu,
        dl2_dnu=dl2_dnu,
        dl1_ddelta=dl1_ddelta,
        dl2_ddelta=dl2_ddelta,
        dl1_dsigma=dl1_dsigma,
        dl2_dsigma=dl2_dsigma,
    )

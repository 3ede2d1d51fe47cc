"""Numerical core: characteristic function, Poisson series, Fourier inversion.

Both option formulas in this library reduce to two cumulative transforms of
the same characteristic function

    psi(k) = exp{[-sigma^2 k^2 / 2 + lam * xi(k)] * tau},

the "plain" one (probability that the negated compound-Poisson-plus-Gaussian
displacement stays below l) and the "tilted" one (the same mass under an
exp(-z) change of weight). Two independent evaluation routes are provided:

* series (``cdf_*``, ``survival_*``, ``series_lset``): condition on the
  Poisson jump count. Each count contributes a Gaussian component, so both
  transforms are finite mixtures of normal cdfs with explicit weights. It
  keeps the Poisson window, the counts where either weight exceeds the floor
  ``series_tail * _WEIGHT_FLOOR`` plus one each side: both dropped tails stay
  below ``series_tail``, and the weight below it, taken as 0 by the Greek
  engine, is under the floor. Every row is summed by numpy's pairwise
  reduction (``np.sum``: a BLAS ``@`` moves its last bits with kernel and
  thread count). It is the reference backend and alone has analytic
  derivatives (for the Greeks). What depends only on the model and tau (the
  continuous/atom split, twelve stacked weight and Greek rows, the weights'
  derivatives) is built once per (spec, quad) and cached. Prices,
  ``series_lset`` and ``green_density`` read a memoized record per threshold:
  one ``ndtr`` over its rows b, a, -b, -a, one product of sixteen rows with the
  cached ones and one reduction give four transforms, eight Greek sums and
  four Poisson-mean sums; each mean derivative reads the side (cdf or
  survival) of the smaller transform, whose terms carry its size where the
  other side's cancel. The scalar cdfs and survivals read no
  derivatives and take a lean values pass, the one-threshold case of the
  block the residual checks run on a grid point.
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
from scipy.special import gammainc, gammaincc, gammaln, ndtr, wrightomega

from ._quad import gauss_legendre
from .errors import ParameterError, QuadratureError, TruncationError, require_finite_square
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

# Largest Poisson count a series may reach (enough for lam tau up to about 3700).
_N_MAX = 4096

# Window floor as a fraction of the series tail target (1e-30 by default).
_WEIGHT_FLOOR = 1e-20


class Backend(str, Enum):
    """Evaluation strategy for the cumulative transforms."""

    SERIES = "series"
    FOURIER = "fourier"


@dataclass(frozen=True)
class QuadratureSpec:
    """Accuracy target shared by all numerical routines.

    ``rel_tol`` is the target for the Fourier backend. The series backend is
    exact up to the Poisson tail it drops, which each law's exact cdf measures
    and which must stay below ``series_tail``. The Fourier frequency range
    follows from ``rel_tol`` and the characteristic-function envelope, and its
    panel count doubles until two passes agree; the series stops at count 4096
    (about lam tau 3700).
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
        require_finite_square(self, "sigma")
        if not math.isfinite(self.mean_count):
            raise ParameterError(f"mean count lam tau overflows (lam {self.lam}, tau {self.tau})")

    @property
    def mean_count(self) -> float:
        return self.lam * self.tau


def char_function(spec: CharSpec, k: complex) -> complex:
    """psi(k), the undiscounted characteristic function at time scale tau."""
    return complex(np.exp(_char_exponent_grid(spec, np.complex128(k))))


def _char_exponent_grid(spec: CharSpec, k: np.ndarray) -> np.ndarray:
    """log psi over an array of (possibly complex) frequencies."""
    return (-0.5 * spec.sigma**2 * k * k + spec.lam * xi(spec.law, k)) * spec.tau


def _poisson_weights(
    mean: float, tail_target: float, theta: float
) -> tuple[int, np.ndarray, np.ndarray]:
    """First count n_lo, Poisson(mean) weights P_{n_lo}..P_{n_hi} and their
    tilt P_n e^{n theta - mean (e^theta - 1)}, which is Poisson(mean e^theta).

    Candidates run from min(mean, mean e^theta) - 12 sqrt(peak) - 30 to peak +
    12 sqrt(peak) + 30, at most ``_N_MAX``; the window keeps those where either
    weight exceeds ``tail_target * _WEIGHT_FLOOR``, plus one each side. The
    mass each law drops outside it is read from its exact cdf (incomplete gamma
    functions, as in scipy's ``pdtr``), and where the larger is not below
    ``tail_target`` it raises TruncationError. Each set is divided by its own
    sum: gammaln rounding would leave a gap growing with the mean (6e-13 at
    3000). Mean 0 keeps a zero-weight count 1, whose weight moves with the mean.
    """
    if mean == 0.0:
        return 0, np.array([1.0, 0.0]), np.array([1.0, 0.0])
    m_tilt = mean * math.exp(theta)
    peak = max(mean, m_tilt)
    hi = math.ceil(min(peak + 12.0 * math.sqrt(peak) + 30.0, _N_MAX))
    lo = math.floor(min(max(0.0, min(mean, m_tilt) - 12.0 * math.sqrt(peak) - 30.0), hi))
    n = np.arange(lo, hi + 1, dtype=float)
    log_p = -mean + n * math.log(mean) - gammaln(n + 1.0)
    plain = np.exp(log_p)
    tilt = np.exp(log_p + n * theta - (m_tilt - mean))
    live = np.flatnonzero(np.maximum(plain, tilt) > tail_target * _WEIGHT_FLOOR)
    tail = 1.0  # an empty window drops all the mass
    if live.size:
        i, j = int(max(live[0] - 1, 0)), int(min(live[-1] + 2, n.size))
        # P(N < lo + i) + P(N > lo + j - 1) for each law
        tail = max(float(gammaincc(lo + i, m) + gammainc(lo + j, m)) for m in (mean, m_tilt))
    if not tail < tail_target:
        raise TruncationError(
            f"Poisson window up to count {_N_MAX} drops tail {tail:g}, not below {tail_target:g}",
            tail_mass=tail,
        )
    plain, tilt = plain[i:j], tilt[i:j]
    return lo + i, plain / plain.sum(), tilt / tilt.sum()


# ---------------------------------------------------------------------------
# Series backend
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _SeriesParts:
    """Per-count ingredients of the mixture representation, split into the
    continuous components and the point masses once per (spec, quad).

    Built from the window's counts n_lo..n_hi, their Poisson(lam tau) weights
    (plain) and Poisson(lam tau (1 + varsigma)) weights (tilted; lam tau
    varsigma == m_tilt - m), each set summing to one to rounding. Component n
    is a normal of mean -n nu and standard deviation sqrt(n delta^2 + sigma^2
    tau), a point mass where that is 0.

    Continuous components: means ``mean_c`` and deviations ``s``;
    ``coef`` stacks twelve rows: their weights (tilted, plain, tilted, plain)
    and the Greek rows u = w / (sqrt(2 pi) s), v = n u, sigma u
    and delta v, each (tilted, plain); ``dw`` holds the weights' derivatives
    w_{n-1} - w_n in the Poisson mean as rows (tilted, plain, tilted, plain).
    Point masses: ``atom_mean``, ``atom_w`` and ``atom_dw`` (4 rows each), all
    None when there are none.
    """

    mean_c: np.ndarray
    s: np.ndarray
    coef: np.ndarray
    dw: np.ndarray
    atom_mean: np.ndarray | None
    atom_w: np.ndarray | None
    atom_dw: np.ndarray | None

    @classmethod
    def from_weights(
        cls, spec: CharSpec, n: np.ndarray, plain_w: np.ndarray, tilt_w: np.ndarray
    ) -> _SeriesParts:
        """Parts of the ascending counts ``n`` with the given weights, all read-only."""
        law = spec.law
        sigma, tau, delta = spec.sigma, spec.tau, law.delta
        mean = n * -law.nu
        sd = np.sqrt(n * delta**2 + sigma**2 * tau)
        # weight rows behind a zero column: w_{n_lo-1} is taken as 0 (it is
        # below the window floor, so the edge errs by at most m_tilt times it)
        padded = np.zeros((4, n.size + 1))
        padded[0, 1:] = tilt_w
        padded[1, 1:] = plain_w
        padded[2:] = padded[:2]
        # Poisson weights of mean M obey n w_n = M w_{n-1}, so dw_n/dM is w_{n-1} - w_n
        dw = padded[:, :-1] - padded[:, 1:]
        for arr in (n, mean, sd, padded, dw):  # the views taken below are read-only too
            arr.flags.writeable = False
        # sd grows with n, so the point masses (sd == 0) are the first k counts
        k = int(sd.searchsorted(0.0, side="right"))
        s = sd[k:]
        coef = np.empty((12, s.size))
        coef[:4] = padded[:, 1 + k :]
        uv = coef[4:].reshape(2, 2, 2, s.size)
        np.divide(coef[:2], _SQRT_2PI * s, out=uv[0, 0])
        np.multiply(uv[0, 0], n[k:], out=uv[0, 1])
        np.multiply(uv[0], np.array([sigma, delta])[:, None, None], out=uv[1])
        coef.flags.writeable = False
        atoms = (mean[:k], padded[:, 1 : k + 1], dw[:, :k]) if k else (None, None, None)
        return cls(mean[k:], s, coef, dw[:, k:], *atoms)


@functools.lru_cache(maxsize=_PARTS_CACHE_SIZE)
def _series_parts(spec: CharSpec, quad: QuadratureSpec) -> _SeriesParts:
    """Mixture ingredients for one (spec, quad), shared by every threshold.

    Cached, so the arrays are read-only: every caller sees the same ones.
    A TruncationError propagates and is not cached.
    """
    law = spec.law
    varsigma(law)  # ParameterError where the tilt e^{nu + delta^2/2} overflows
    n_lo, plain_w, tilt_w = _poisson_weights(
        spec.mean_count, quad.series_tail, law.nu + 0.5 * law.delta**2
    )
    n = np.arange(n_lo, n_lo + len(plain_w), dtype=float)
    return _SeriesParts.from_weights(spec, n, plain_w, tilt_w)


# atom brackets of rows (tilted cdf, plain cdf, tilted survival, plain survival)
_ATOM_SIDE = np.array([[1.0], [1.0], [-1.0], [-1.0]])  # cdfs step up in l, survivals down
_ATOM_AT_0 = np.array([[0.0], [1.0], [1.0], [0.0]])  # at l = mean: atom in or out


def _atom_mass(w: np.ndarray, gap: np.ndarray) -> np.ndarray:
    """Sums of the atoms' four rows ``w`` inside the brackets of those four
    rows; ``gap`` is l - mean per atom, with a leading (thresholds, 1) for a
    block."""
    return (w * np.heaviside(gap * _ATOM_SIDE, _ATOM_AT_0)).sum(axis=-1)


def _series_block(
    spec: CharSpec, ls, quad: QuadratureSpec
) -> list[tuple[float, float, float, float]]:
    """(cdf_plain, cdf_tilted, survival_plain, survival_tilted) at each
    threshold of ``ls``; survivals are summed directly, so deep-OTM puts keep
    their size.

    One array pass serves every threshold: the rows (b, a, -b, -a) of all
    thresholds go through one ``ndtr``, one product with the weight rows and
    one pairwise reduction along the counts; the atoms, summed inside their
    brackets, are added after. The reduction sums each row alone, so every
    result is bit for bit that of a one-threshold pass.
    """
    if any(map(math.isnan, ls)):
        raise ParameterError("threshold l must not be NaN")
    p = _series_parts(spec, quad)
    col = np.array(ls, dtype=float)[:, None]
    # standardized thresholds, rows (b, a, -b, -a) with a = (l - mean) / s and
    # b = a + s per threshold, against the weight rows (tilted, plain, tilted,
    # plain); formed in place, which costs a one-threshold call least
    z = np.empty((len(col), 4, p.s.size))
    a = z[:, 1]
    with np.errstate(over="ignore"):  # a huge l gives a = +-inf: ndtr is 0 or 1
        np.divide(np.subtract(col, p.mean_c, out=a), p.s, out=a)
    np.add(a, p.s, out=z[:, 0])
    np.negative(z[:, :2], out=z[:, 2:])
    ndtr(z, out=z)
    z *= p.coef[:4]
    sums = z.sum(axis=-1)
    if p.atom_mean is not None:
        sums += _atom_mass(p.atom_w, (col - p.atom_mean)[:, None, :])
    # the weights sum to one only to rounding; a probability stays at most 1
    np.minimum(sums, 1.0, out=sums)
    return [(plain, tilted, p_surv, t_surv) for tilted, plain, t_surv, p_surv in sums.tolist()]


@functools.lru_cache(maxsize=_LSET_CACHE_SIZE)
def _series_values(spec: CharSpec, l: float, quad: QuadratureSpec) -> tuple[float, ...]:
    """The four transforms of ``_series_block`` at the one threshold l, memoized."""
    return _series_block(spec, (l,), quad)[0]


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
    """Frequency truncation where both integrand envelopes fall to tol_k, never
    below ``_K_MAX``; the tilted one has mean count lam tau e^{nu + delta^2/2}.

    Each crossing is closed form in z = c k^2 (c = delta^2/2, g = sigma^2 tau/2,
    L = ln(1/tol_k), M the mean count). At sigma = 0 (atom subtracted) e^{-M}
    expm1(M e^{-z}) = tol_k: z = ln(M / ln(1 + tol_k e^M)), at least 0. At sigma > 0
    r z + M (1 - e^{-z}) = L with r = g/c: v = z - (L - M)/r solves v e^v = (M/r)
    e^{(M - L)/r}, so v is the Wright omega of ln(M/r) + (M - L)/r (then one Newton
    step below z = 1). With M c = 0, g k^2 = L; where r rounds away, M (1 - e^{-z}) = L.
    """
    c, g = 0.5 * spec.law.delta**2, 0.5 * spec.sigma**2 * spec.tau
    means = (spec.mean_count, spec.mean_count * math.exp(spec.law.nu + c))
    big_l = -math.log(max(tol_k, math.ulp(0.0)))  # no envelope falls below the least float
    k2 = max(_crossing_k2(m, c, g, big_l, spec.sigma == 0.0) for m in means)
    if not k2 < math.inf:
        raise QuadratureError("no frequency truncation meets the envelope bound")
    return max(_K_MAX, math.sqrt(k2))


def _crossing_k2(m: float, c: float, g: float, big_l: float, atom: bool) -> float:
    """k^2 where one envelope of ``_fourier_kmax`` falls to e^{-big_l}; inf if none."""
    if atom:  # ln(1 + tol_k e^m) is max(m - big_l, 0) + den; past big_l, m cancels exactly
        den = math.log1p(math.exp(-abs(m - big_l)))
        z = -math.log1p((den - big_l) / m) if m >= big_l else math.log(m / den) if m else 0.0
        return max(z, 0.0) / c if c else (math.inf if z > 0.0 else 0.0)
    r = g / c if c else math.inf
    if m == 0.0 or r == math.inf:
        return big_l / g if g else math.inf
    arg = math.log(m) - math.log(r) + (m - big_l) / r if r else math.inf
    if not math.isfinite(arg):  # sigma^2 tau rounds away against the jumps
        return -math.log1p(-big_l / m) / c if m > big_l else math.inf
    v, zl = float(wrightomega(arg)), big_l / (r + m)  # zl <= z <= zl / (1 - z/2)
    # the two equal forms each avoid the other's cancellation, but both cancel for tiny z
    z = zl if zl < 1e-5 else v + (big_l - m) / r if v < 1.0 else math.log(m / (r * v))
    if z < 1.0:  # Newton step arranged to cancel nothing
        z = (big_l + m * (math.expm1(-z) + z * math.exp(-z))) / (r + m * math.exp(-z))
    return z / c


def _char_sd(spec: CharSpec) -> float:
    """Larger standard deviation of the plain and the tilted law; psi decays
    within about its inverse. The tilt turns N(nu, delta^2) jumps at rate lam
    into N(nu + delta^2, delta^2) jumps at rate lam e^{nu + delta^2/2}."""
    law = spec.law
    m = spec.mean_count
    m_tilt = m * math.exp(law.nu + 0.5 * law.delta**2)
    jumps = max(
        m * (law.nu**2 + law.delta**2), m_tilt * ((law.nu + law.delta**2) ** 2 + law.delta**2)
    )
    return math.sqrt(spec.sigma**2 * spec.tau + jumps)


def fourier_grid(
    spec: CharSpec, ls, quad: QuadratureSpec = DEFAULT_QUAD
) -> FourierGrid:
    """Evaluate all four cumulative transforms on a grid of thresholds.

    Gil-Pelaez inversion: with phi the characteristic function of a law and
    a its atom at zero,

        F(l) = (1 - a)/2 - (1/pi) int_0^k_max Im(e^{-ikl} (phi(k) - a)) / k dk

    and the survival is (1 - a)/2 plus the same integral; the atom is added
    back with the bracket conventions of the module docstring. The plain law
    has phi(k) = psi(-k), the tilted one e^{-(sigma^2/2 + lam varsigma) tau}
    psi(-k - i), formed as one exponential. The integral runs on
    Gauss-Legendre panels whose count doubles until two passes agree to
    ``rel_tol``; their spread is the reported error estimate. After
    ``_FOURIER_DOUBLINGS`` misses QuadratureError carries out the estimate.
    A pass that would evaluate more than ``_FOURIER_BUDGET`` thresholds x
    nodes raises QuadratureError before building its arrays, and so does a
    psi narrower than the node spacing of the finest pass the doublings may
    reach (a huge mean count): no pass would sample it, and passes that all
    read about 0 would agree on 1/2.
    """
    ls = np.atleast_1d(np.asarray(ls, dtype=float))
    if not np.all(np.isfinite(ls)):
        raise ParameterError(f"thresholds must be finite, got {ls}")
    if spec.sigma == 0.0 and spec.law.delta == 0.0:
        raise QuadratureError(
            "fourier backend needs a diffusive or jump-width component (sigma or delta > 0)"
        )
    log_pref = -(0.5 * spec.sigma**2 + spec.lam * varsigma(spec.law)) * spec.tau
    if not math.isfinite(log_pref):
        raise ParameterError(f"lam varsigma tau overflows for lam {spec.lam}, law {spec.law}")
    atom = atom_t = 0.0
    if spec.sigma == 0.0:
        atom = math.exp(-spec.mean_count)
        # one exponential: e^{log_pref} alone overflows where the tilted atom is at most 1
        atom_t = math.exp(log_pref - spec.mean_count)
    k_max = _fourier_kmax(spec, quad.rel_tol / 10.0)

    def integrals(n_panels: int) -> np.ndarray:
        """(1/pi) int Im(...)/k dk per threshold; columns plain, tilted."""
        if ls.size * n_panels * _K_NODES > _FOURIER_BUDGET:
            raise QuadratureError(
                f"fourier backend needs at least {n_panels} panels (k_max {k_max:.3g}) for "
                f"{ls.size} thresholds, past its budget of {_FOURIER_BUDGET} nodes"
            )
        x, w = gauss_legendre(0.0, k_max / n_panels, _K_NODES)
        k = (np.arange(n_panels)[:, None] * (k_max / n_panels) + x).ravel()
        wk = np.tile(w, n_panels) / (math.pi * k)
        g = np.stack(
            [
                wk * (np.exp(_char_exponent_grid(spec, -k)) - atom),
                # modulus <= 1, where psi(-k - i) alone overflows past lam tau e^{nu} ~ 709
                wk * (np.exp(log_pref + _char_exponent_grid(spec, -k - 1j)) - atom_t),
            ],
            axis=1,
        )
        return (np.exp(-1j * np.outer(ls, k)) @ g).imag

    # e^{-ikl} turns |l| radians per unit k; start near _K_NODES radians a panel.
    # The cap keeps an overflowing k_max |l| for the budget check to reject.
    start = k_max * float(np.max(np.abs(ls), initial=1.0)) / _K_NODES
    n_panels = max(4, math.ceil(min(start, _FOURIER_BUDGET)))
    spacing = k_max / (n_panels * 2**_FOURIER_DOUBLINGS * _K_NODES)
    sd = _char_sd(spec)  # 0 where the mean count underflows: psi is the atom alone
    if spacing * sd > 1.0:
        raise QuadratureError(
            f"psi's width {1.0 / sd:.3g} is below the node spacing {spacing:.3g} of the "
            "finest pass: the panels cannot resolve psi"
        )
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
    """Tilted/plain cdfs and survivals and the cdfs' derivatives at fixed
    threshold l; a survival's derivative is minus its cdf's.

    All parameter derivatives (tau, lam, nu, delta, sigma) hold l fixed;
    the l-channel cancels out of every Greek through the balance identity
    S e^{-q tau} dL1/dl = K e^{-r tau} dL2/dl, so these are exactly the
    ingredients the analytic Greeks need.
    """

    l1: float
    l2: float
    s1: float
    s2: float
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
    their prices and their Greeks, share one evaluation.
    """
    return _series_record(spec, float(l), quad)[1]


@functools.lru_cache(maxsize=_LSET_CACHE_SIZE)
def _series_record(spec: CharSpec, l: float, quad: QuadratureSpec) -> tuple[tuple, LSet]:
    """The four transforms of ``_series_block`` and the LSet at l from one pass, memoized."""
    if math.isnan(l):
        raise ParameterError("threshold l must not be NaN")
    tau, lam, sigma = spec.tau, spec.lam, spec.sigma
    nu, delta = spec.law.nu, spec.law.delta
    p = _series_parts(spec, quad)
    s = p.s

    # A weight's derivative in any parameter is dM/dparam times its
    # derivative dw in the Poisson mean M. The plain mean is lam tau; the
    # tilted one is m_tilt = lam tau e^theta with theta = nu + delta^2/2, so
    # dm_tilt/dnu is m_tilt and dm_tilt/ddelta is delta m_tilt. No n / lam or
    # n / tau is formed, so a tiny lam or tau cannot overflow.
    growth = math.exp(nu + 0.5 * delta**2)  # 1 + varsigma
    m_tilt = lam * tau * growth

    # One buffer holds the rows (b, a, -b, -a) of the weight rows, e, e, g, g of
    # the Greek rows (below) and the four Poisson-mean rows. a = (l + n nu)/s
    # overflows for a huge l or a narrow component, and phi(a) a would be 0 *
    # inf. Clipping a and b = a + s to +-1e3 after b is formed changes no finite
    # output: phi and Phi of both are exactly 0 or 1 there.
    buf = np.empty((16, s.size))
    ab = buf[:2]
    with np.errstate(over="ignore"):
        np.divide(l - p.mean_c, s, out=ab[1])
    np.add(ab[1], s, out=ab[0])
    np.minimum(np.maximum(ab, -1e3, out=ab), 1e3, out=ab)  # np.clip costs 2 us more
    np.negative(ab, out=buf[2:4])

    # The Greek rows are the coefficient rows (u, v, sigma u, delta v) times e =
    # e^{-z^2/2} or g = e (a/s - E) on z = (b, a), E = (1, 0): d/dl sums u e,
    # the nu part v e (nu moves a and b by n/s). tau, delta and sigma move them
    # through s (da/ds = -a/s, db/ds = 1 - a/s; ds/dparam = sigma^2/2s, n delta/s,
    # sigma tau/s), so their parts are -sigma/2, -1 and -tau times the sums of
    # sigma u g, delta v g and sigma u g; sigma and delta keep tiny-s terms finite.
    eg = buf[4:12].reshape(2, 2, 2, s.size)  # (e, g), each twice
    e, g = eg[0, 0], eg[1, 0]
    np.multiply(ab, ab, out=e)
    e *= -0.5
    np.exp(e, out=e)
    np.divide(ab[1], s, out=g[1])
    np.subtract(g[1], 1.0, out=g[0])
    g *= e
    eg[:, 1] = eg[:, 0]
    ndtr(buf[:4], out=buf[:4])
    np.multiply(p.dw, buf[:4], out=buf[12:])  # dw Phi(b, a, -b, -a)
    buf[:12] *= p.coef
    sums = buf.sum(axis=-1)
    if p.atom_mean is not None:
        gap = l - p.atom_mean
        sums[:4] += _atom_mass(p.atom_w, gap)
        sums[12:] += _atom_mass(p.atom_dw, gap)
    # the weights sum to one only to rounding; a probability stays at most 1
    l1, l2, s1, s2 = np.minimum(sums[:4], 1.0).tolist()
    dl1_dl, dl2_dl, nu1, nu2, sig_g1, sig_g2, delta_g1, delta_g2 = sums[4:12].tolist()
    # L + S = 1 (the window's weights sum to 1), so dL/dM = -dS/dM, and each
    # side's sum is its transform's dM up to the window's edge weights (under
    # the floor). Read the side of the smaller transform: near 1, a side cancels.
    cdf_dm1, cdf_dm2, surv_dm1, surv_dm2 = sums[12:].tolist()
    l1_dm = cdf_dm1 if l1 <= s1 else -surv_dm1
    l2_dm = cdf_dm2 if l2 <= s2 else -surv_dm2

    return (l2, l1, s2, s1), LSet(
        l1=l1,
        l2=l2,
        s1=s1,
        s2=s2,
        dl1_dl=dl1_dl,
        dl2_dl=dl2_dl,
        dl1_dtau=lam * growth * l1_dm - 0.5 * sigma * sig_g1,
        dl2_dtau=lam * l2_dm - 0.5 * sigma * sig_g2,
        dl1_dlam=tau * growth * l1_dm,
        dl2_dlam=tau * l2_dm,
        dl1_dnu=m_tilt * l1_dm + nu1,
        dl2_dnu=nu2,
        dl1_ddelta=delta * m_tilt * l1_dm - delta_g1,
        dl2_ddelta=-delta_g2,
        dl1_dsigma=-tau * sig_g1,
        dl2_dsigma=-tau * sig_g2,
    )

"""Analytic sensitivities and their finite-difference cross-checks.

Common Greeks (delta, gamma, rho, psi, theta, vega) come straight from the
series transforms; the three jump-parameter Greeks (kappa = d/d lam,
mu = d/d nu, epsilon = d/d delta) use the series' term-by-term parameter
derivatives rather than numerical differentiation, so the classical
derivative identities stay available as genuine residual tests.

Every parameter Greek exploits the balance identity
S e^{-q tau} dL1/dl = K e^{-r tau} dL2/dl, which removes the l-channel from
each chain rule. At sigma = 0 the transition law has an atom: gamma excludes
the distributional spike (``delta_jump`` reports the delta discontinuity
separately) and direct evaluation at l = 0 raises KinkError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np
from scipy.special import ndtr

from .errors import DegenerateMaturityError, KinkError, ParameterError, ShotPricerError
from .jump_measure import varsigma
from .options import AssetModel, OptionKind, OptionTerms, bs_d1_d2, l_parameter
from .transform import _SQRT_2PI, DEFAULT_QUAD, QuadratureSpec, _series_parts, series_lset

__all__ = [
    "GreekSet",
    "NewGreekSet",
    "common_greeks",
    "new_greeks",
    "bs_greeks",
    "fd_sensitivity",
    "fd_sensitivity_with_error",
    "identity_report",
    "delta_jump",
]

@dataclass(frozen=True)
class GreekSet:
    """First/second-order sensitivities; vega is absent when sigma = 0."""

    delta: float
    gamma: float
    rho: float
    psi: float
    theta: float
    vega: Optional[float] = None


@dataclass(frozen=True)
class NewGreekSet:
    """Jump-parameter sensitivities (identical for calls and puts)."""

    kappa: float
    mu: float
    epsilon: float


def _norm_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / _SQRT_2PI


def _checked_gamma(gamma: float, density: float) -> float:
    """``gamma`` where finite; 0 where its ``density`` factor is 0 (a tiny spot
    overflows e^{-q tau}/S, and inf * 0 is NaN); else ParameterError."""
    if math.isfinite(gamma):
        return gamma
    if density == 0.0:
        return 0.0
    raise ParameterError("gamma overflows: the spot is too small")


def _check_evaluable(terms: OptionTerms, model: AssetModel) -> float:
    if terms.tau <= 0.0:
        raise DegenerateMaturityError("Greeks need tau > 0")
    l = l_parameter(terms, model)
    if model.sigma == 0.0 and l == 0.0:
        raise KinkError(
            "l = 0 sits on the sigma=0 atom; evaluate at l -/+ eps for one-sided Greeks"
        )
    return l


def _for_kind(
    terms: OptionTerms, disc_spot: float, disc_strike: float, delta, gamma, rho, psi, theta, vega
) -> GreekSet:
    """The Greeks of ``terms.kind`` from the call's; by parity a put is
    call - S e^{-q tau} + K e^{-r tau}."""
    if terms.kind is not OptionKind.CALL:
        delta = delta - math.exp(-terms.dividend * terms.tau)
        rho = rho - terms.tau * disc_strike
        psi = psi + terms.tau * disc_spot
        theta = theta - terms.dividend * disc_spot + terms.rate * disc_strike
    # theta sums terms scaled by r and q, which a huge rate or dividend can
    # overflow to infinities of both signs: inf - inf is a NaN theta
    if not math.isfinite(theta):
        raise ParameterError(f"theta is {theta}: its rate and dividend terms overflow a float")
    return GreekSet(delta=delta, gamma=gamma, rho=rho, psi=psi, theta=theta, vega=vega)


def common_greeks(
    terms: OptionTerms,
    model: AssetModel,
    quad: QuadratureSpec = DEFAULT_QUAD,
) -> GreekSet:
    """Delta, gamma, rho, psi, theta (and vega when sigma > 0).

    The values are the analytic series derivatives.
    """
    l = _check_evaluable(terms, model)
    ls = series_lset(model.char_spec(terms.tau), l, quad)
    tau = terms.tau
    disc_spot = terms.spot * math.exp(-terms.dividend * tau)
    disc_strike = terms.strike * math.exp(-terms.rate * tau)

    delta_c = math.exp(-terms.dividend * tau) * ls.l1
    gamma = _checked_gamma(math.exp(-terms.dividend * tau) / terms.spot * ls.dl1_dl, ls.dl1_dl)
    rho_c = tau * disc_strike * ls.l2
    psi_c = -tau * disc_spot * ls.l1
    theta_c = (
        terms.dividend * disc_spot * ls.l1
        - terms.rate * disc_strike * ls.l2
        - disc_spot * ls.dl1_dtau
        + disc_strike * ls.dl2_dtau
    )
    vega = None
    if model.sigma > 0.0:
        vega = disc_spot * ls.dl1_dsigma - disc_strike * ls.dl2_dsigma
    return _for_kind(terms, disc_spot, disc_strike, delta_c, gamma, rho_c, psi_c, theta_c, vega)


def new_greeks(
    terms: OptionTerms,
    model: AssetModel,
    quad: QuadratureSpec = DEFAULT_QUAD,
) -> NewGreekSet:
    """kappa, mu, epsilon: sensitivities to lam, nu, delta.

    Same for calls and puts (the forward term of parity carries no jump
    parameters). Needs lam > 0. For sigma > 0 these sensitivities are an
    extension beyond the classical pure-jump set; the series representation
    differentiates in closed form there as well, so no finite differencing
    is involved either way.
    """
    if model.lam <= 0.0:
        raise ParameterError("new Greeks need lam > 0")
    l = _check_evaluable(terms, model)
    ls = series_lset(model.char_spec(terms.tau), l, quad)
    disc_spot = terms.spot * math.exp(-terms.dividend * terms.tau)
    disc_strike = terms.strike * math.exp(-terms.rate * terms.tau)
    return NewGreekSet(
        kappa=disc_spot * ls.dl1_dlam - disc_strike * ls.dl2_dlam,
        mu=disc_spot * ls.dl1_dnu - disc_strike * ls.dl2_dnu,
        epsilon=disc_spot * ls.dl1_ddelta - disc_strike * ls.dl2_ddelta,
    )


def delta_jump(terms: OptionTerms, model: AssetModel) -> float:
    """Size of the call-delta discontinuity across l = 0 when sigma = 0.

    Equals e^{-q tau} times the atom weight of the tilted transform,
    e^{-lam varsigma tau} e^{-lam tau}. Zero when a diffusive part exists.
    """
    if model.sigma > 0.0:
        return 0.0
    m = model.lam * terms.tau
    return math.exp(-terms.dividend * terms.tau) * math.exp(-m * varsigma(model.law)) * math.exp(-m)


def bs_greeks(terms: OptionTerms, sigma: float) -> GreekSet:
    """Closed-form Black-Scholes Greeks (the lam = 0 reduction)."""
    d1, d2 = bs_d1_d2(terms, sigma)
    tau = terms.tau
    sqrt_tau = math.sqrt(tau)
    disc_spot = terms.spot * math.exp(-terms.dividend * tau)
    disc_strike = terms.strike * math.exp(-terms.rate * tau)
    pdf_d1 = _norm_pdf(d1)

    delta_c = math.exp(-terms.dividend * tau) * float(ndtr(d1))
    vol_spot = terms.spot * sigma * sqrt_tau  # 0 where a tiny spot underflows it
    gamma = _checked_gamma(
        math.exp(-terms.dividend * tau) * pdf_d1 / vol_spot if vol_spot else math.inf, pdf_d1
    )
    rho_c = tau * disc_strike * float(ndtr(d2))
    psi_c = -tau * disc_spot * float(ndtr(d1))
    theta_c = (
        terms.dividend * disc_spot * float(ndtr(d1))
        - terms.rate * disc_strike * float(ndtr(d2))
        - sigma * disc_spot * pdf_d1 / (2.0 * sqrt_tau)
    )
    vega = disc_spot * sqrt_tau * pdf_d1
    return _for_kind(terms, disc_spot, disc_strike, delta_c, gamma, rho_c, psi_c, theta_c, vega)


def fd_sensitivity_with_error(
    f: Callable[[float], float], at: float, step: float
) -> tuple[float, float]:
    """Richardson-refined central difference with an error estimate."""
    if step <= 0.0:
        raise ParameterError(f"step must be > 0, got {step}")
    d_h = (f(at + step) - f(at - step)) / (2.0 * step)
    d_h2 = (f(at + 0.5 * step) - f(at - 0.5 * step)) / step
    if not (math.isfinite(d_h) and math.isfinite(d_h2)):
        raise ShotPricerError(f"function not finite near {at}")
    refined = (4.0 * d_h2 - d_h) / 3.0
    return refined, abs(refined - d_h2)


def fd_sensitivity(f: Callable[[float], float], at: float, step: float) -> float:
    """Central finite difference with one Richardson refinement."""
    return fd_sensitivity_with_error(f, at, step)[0]


def _lam_derivatives(
    terms: OptionTerms, model: AssetModel, quad: QuadratureSpec = DEFAULT_QUAD
) -> tuple[float, float]:
    """d delta/d lam and d rho/d lam of the call. lam moves the transforms at
    fixed l and moves l by -varsigma tau, so each is dL/dlam - varsigma tau dL/dl."""
    tau = terms.tau
    ls = series_lset(model.char_spec(tau), _check_evaluable(terms, model), quad)
    shift = varsigma(model.law) * tau
    d_delta = math.exp(-terms.dividend * tau) * (ls.dl1_dlam - shift * ls.dl1_dl)
    d_rho = tau * terms.strike * math.exp(-terms.rate * tau) * (ls.dl2_dlam - shift * ls.dl2_dl)
    return d_delta, d_rho


def identity_report(
    terms: OptionTerms,
    model: AssetModel,
    quad: QuadratureSpec = DEFAULT_QUAD,
) -> list[tuple[str, float]]:
    """Relative residuals of the cross-identities among the Greeks.

    Checks, for the pure-jump model (sigma = 0, lam > 0):
    the theta/kappa relations for call and put, kappa and epsilon via
    lam-derivatives of delta and rho, the mu/delta/gamma relation, the
    kappa/mu relation, and the epsilon/mu/gamma relation with its spectral
    correction term. Every derivative is analytic, the lam-derivatives of
    delta and rho included, so the rows carry rounding only. With them,
    kappa_delta_rho reduces to the balance identity
    S e^{-q tau} dL1/dl = K e^{-r tau} dL2/dl.
    """
    if model.sigma != 0.0:
        raise ParameterError("identities hold for the pure jump model (sigma = 0)")
    if model.lam <= 0.0 or terms.tau <= 0.0:
        raise ParameterError("identities need lam > 0 and tau > 0")
    l = _check_evaluable(terms, model)
    tau = terms.tau
    lam = model.lam
    vs = varsigma(model.law)
    spot, strike = terms.spot, terms.strike
    disc_spot = spot * math.exp(-terms.dividend * tau)
    disc_strike = strike * math.exp(-terms.rate * tau)

    ls = series_lset(model.char_spec(tau), l, quad)
    call = replace(terms, kind=OptionKind.CALL)
    put = replace(terms, kind=OptionKind.PUT)
    g_call = common_greeks(call, model, quad)
    g_put = common_greeks(put, model, quad)
    ng = new_greeks(call, model, quad)

    def scale(*vals: float) -> float:
        return max(max(abs(v) for v in vals), 1e-8)

    report: list[tuple[str, float]] = []

    # theta from the kappa route, call then put
    theta_k = (
        terms.dividend * disc_spot * ls.l1
        - terms.rate * disc_strike * ls.l2
        - lam * ng.kappa / tau
    )
    report.append(
        ("theta_kappa_call", abs(g_call.theta - theta_k) / scale(g_call.theta, theta_k))
    )
    theta_k_put = (
        -terms.dividend * disc_spot * (1.0 - ls.l1)
        + terms.rate * disc_strike * (1.0 - ls.l2)
        - lam * ng.kappa / tau
    )
    report.append(
        ("theta_kappa_put", abs(g_put.theta - theta_k_put) / scale(g_put.theta, theta_k_put))
    )

    d_delta, d_rho = _lam_derivatives(call, model, quad)

    kappa_lam = spot * d_delta - d_rho / tau
    report.append(("kappa_delta_rho", abs(ng.kappa - kappa_lam) / scale(ng.kappa, kappa_lam)))

    mu_rhs = lam * (spot * d_delta + vs * tau * spot * spot * g_call.gamma)
    report.append(("mu_delta_gamma", abs(ng.mu - mu_rhs) / scale(ng.mu, mu_rhs)))

    kappa_mu = ng.mu / lam - d_rho / tau - vs * tau * spot * spot * g_call.gamma
    report.append(("kappa_mu", abs(ng.kappa - kappa_mu) / scale(ng.kappa, kappa_mu)))

    # epsilon relation; the correction term is the xi-weighted spectral density
    corr = disc_strike * _xi_weighted_density(model, tau, l, quad)
    eps_rhs = model.law.delta * (ng.mu + lam * tau * (spot * spot * g_call.gamma + corr))
    report.append(("epsilon_mu_gamma", abs(ng.epsilon - eps_rhs) / scale(ng.epsilon, eps_rhs)))
    return report


def _xi_weighted_density(
    model: AssetModel, tau: float, l: float, quad: QuadratureSpec
) -> float:
    """(1/2pi) int dk e^{ikl} xi(k) exp(lam tau xi(k)), summed as a series.

    Conditioning on the jump count turns the integral into
    sum_{n>=1} (P_{n-1} - P_n) N'(l; -n nu, n delta^2); the n = 0 term is a
    point mass at l = 0 and is dropped (callers stay off the kink). It sums
    the Greek engine's own rows: the plain dw row over the continuous
    components of the cached series parts.
    """
    if model.law.delta == 0.0:
        raise ParameterError("spectral term needs delta > 0")
    p = _series_parts(model.char_spec(tau), quad)
    # a narrow component makes a huge; past +-1e3 phi(a) is 0 either way
    with np.errstate(over="ignore"):
        a = (l - p.mean_c) / p.s
    np.minimum(np.maximum(a, -1e3, out=a), 1e3, out=a)
    phi = np.exp(-0.5 * a * a) / _SQRT_2PI
    return math.fsum((p.dw[1] * phi / p.s).tolist())

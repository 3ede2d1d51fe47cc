"""Residual verification of the governing equations and limit reductions.

The pricing formulas elsewhere in the package solve integro-differential
equations; this module substitutes the prices into them and reports
normalized residuals. Local derivatives are analytic (theta, delta, gamma;
-B P and B^2 P in the rate). A bond's time derivative is a Richardson
difference in the maturity. Every jump expectation, option or bond, sums
one Gauss-Legendre node rule, ``_jump_rule``, over prices at shifted states.
An option node at jump eta has the threshold l0 + eta; one series block
serves all of a point's nodes, and each is valued by the price's own leg
rule at spot S e^eta. A bond point computes A(t, T) once and prices each
shifted rate as exp(A - B (r + eta)), the bits of one ``bond_price`` per
node. It also runs the high-intensity scaling study that collapses the jump
models onto their Gaussian limits, and the series-vs-Fourier cross-check of
all eight cumulative transforms, one series block and one Fourier grid per
model. ``contract_checks`` holds the numerical contract, every check of CLI
``validate`` with its grid and tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from ._quad import gauss_legendre
from .errors import ParameterError
from .greeks import bs_greeks, common_greeks, fd_sensitivity, identity_report
from .jump_measure import ArrivalRate, GaussianJumpLaw, diffusion_moments
from .options import (
    AssetModel,
    OptionKind,
    OptionTerms,
    _kink_threshold,
    _leg_rule,
    bs_price,
    l_parameter,
    parity_residual,
    price,
)
from .shortrate import (
    BondTerms,
    BondVariant,
    RateModel,
    _affine_price,
    a_general,
    a_shot,
    a_vasicek,
    b_factor,
    bond_price,
    ode_residual,
)
from .transform import (
    _SQRT_2PI,
    DEFAULT_QUAD,
    Backend,
    CharSpec,
    QuadratureSpec,
    _series_block,
    fourier_grid,
)

__all__ = [
    "ResidualReport",
    "ConvergenceRow",
    "option_pide_residual",
    "bond_pide_residual",
    "diffusion_convergence",
    "backend_agreement",
    "default_agreement_grid",
    "contract_checks",
]

_NORM_FLOOR = 1e-3

# Gauss-Legendre nodes per panel of the jump rule, and its half-width in
# standard deviations of the jump law.
_JUMP_NODES = 48
_JUMP_SPAN = 12.0

# Largest discounted spot of a jump node, the bound OptionTerms puts on a
# contract's: node values and their weighted sums stay finite below it.
_MAX_DISC_SPOT = math.exp(700.0)

# Maturity step of the bond time derivative: round-off and quadrature noise
# grow as it shrinks, and at 1e-3 the Richardson error is below both.
_MATURITY_STEP = 1e-3


@dataclass(frozen=True)
class ResidualReport:
    max_residual: float
    grid_points: int
    rejected_points: tuple = ()


def _jump_rule(
    law: GaussianJumpLaw, kink: Optional[float] = None
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes eta and weights w with E[f(eta)] ~= sum w f(eta) under the jump law.

    Gauss-Legendre panels on nu +- 12 delta, cut at nu, where the weight
    peaks, and at ``kink`` when it lies inside; each panel of a function
    that is smooth but for that kink is then analytic, so the rule converges
    geometrically. The Gaussian density is folded into the weights. A point
    mass, delta = 0, is the one node nu with weight 1.
    """
    if law.delta == 0.0:
        return np.array([law.nu]), np.array([1.0])
    cuts = {-_JUMP_SPAN, 0.0, _JUMP_SPAN}
    if kink is not None and abs(kink - law.nu) < _JUMP_SPAN * law.delta:
        cuts.add((kink - law.nu) / law.delta)
    cuts = sorted(cuts)
    left = np.array(cuts[:-1])[:, None]
    half = 0.5 * (np.array(cuts[1:])[:, None] - left)
    x, w = gauss_legendre(-1.0, 1.0, _JUMP_NODES)
    z = (left + half * (x + 1.0)).ravel()
    return law.nu + law.delta * z, (half * w).ravel() * np.exp(-0.5 * z * z) / _SQRT_2PI


def _node_values(
    terms: OptionTerms, model: AssetModel, l0: float, eta: np.ndarray, quad: QuadratureSpec
) -> np.ndarray:
    """Value of ``terms`` at each jump node: at spot S e^eta the threshold is
    l0 + eta (its right limit on the sigma = 0 atom), and the price's leg rule
    values it on one series block. A discounted spot past e^700, which
    OptionTerms would refuse, raises ParameterError."""
    with np.errstate(over="ignore"):
        disc_spots = terms.spot * np.exp(eta) * math.exp(-terms.dividend * terms.tau)
    if not np.all(disc_spots <= _MAX_DISC_SPOT):
        raise ParameterError("the discounted spot of a jump node overflows")
    disc_strike = terms.strike * math.exp(-terms.rate * terms.tau)
    ls = [_kink_threshold(l, model) for l in (l0 + eta).tolist()]
    block = _series_block(model.char_spec(terms.tau), ls, quad)
    return np.array([
        _leg_rule(terms.kind, disc_spot, disc_strike, legs)[0]
        for disc_spot, legs in zip(disc_spots.tolist(), block)
    ])


def option_pide_residual(
    terms_grid: Sequence[OptionTerms],
    model: AssetModel,
    quad: QuadratureSpec = DEFAULT_QUAD,
) -> ResidualReport:
    """Max normalized residual of the option pricing equation on a grid.

    Evaluates -C_tau + (sigma^2/2) C_xx + (r - q - sigma^2/2) C_x
    + lam E[C(x+eta) - C(x) - (e^eta - 1) C_x] - r C at every grid point,
    normalized by max(|r C|, 1e-3), with x = ln(S/K). The local derivatives
    are the analytic Greeks: C_tau = -theta, C_x = S delta and
    C_xx = S delta + S^2 gamma. The jump expectation values the contract at
    the shifted thresholds l0 + eta (``_node_values``). Points too close to
    maturity or to the sigma = 0 kink are rejected and listed instead of
    evaluated.
    """
    worst = 0.0
    rejected = []
    used = 0
    for terms in terms_grid:
        if terms.tau < 0.05:
            rejected.append((terms.spot, terms.tau, "tau too small"))
            continue
        l0 = l_parameter(terms, model)
        if model.sigma == 0.0 and abs(l0) < 0.05:
            rejected.append((terms.spot, terms.tau, "kink proximity"))
            continue
        used += 1
        spot = terms.spot
        c0 = price(terms, model, Backend.SERIES, quad).value
        greeks = common_greeks(terms, model, quad)
        c_tau = -greeks.theta
        c_x = spot * greeks.delta
        c_xx = c_x + spot * spot * greeks.gamma
        if model.lam == 0.0:
            jump_term = 0.0
        else:
            eta, w = _jump_rule(model.law, -l0 if model.sigma == 0.0 else None)
            nodes = _node_values(terms, model, l0, eta, quad)
            jump_term = model.lam * float(np.dot(w, nodes - c0 - np.expm1(eta) * c_x))
        res = (
            -c_tau
            + 0.5 * model.sigma**2 * c_xx
            + (terms.rate - terms.dividend - 0.5 * model.sigma**2) * c_x
            + jump_term
            - terms.rate * c0
        )
        worst = max(worst, abs(res) / max(abs(terms.rate * c0), _NORM_FLOOR))
    return ResidualReport(
        max_residual=worst, grid_points=used, rejected_points=tuple(rejected)
    )


def bond_pide_residual(
    model: RateModel,
    grid: Sequence[BondTerms],
    variant: BondVariant = BondVariant.GENERAL,
    quad: QuadratureSpec = DEFAULT_QUAD,
) -> ResidualReport:
    """Max normalized residual of the term-structure equation on a grid.

    Checks P_t + a(b - r) P_r + sigma^2 P_rr / 2 + lam E[P(r+eta) - P(r)]
    = r P under the variant's model. P_r = -B P and P_rr = B^2 P follow
    from P = exp(A - B r). P_t is -P_T, a Richardson difference in the
    maturity, because A and B depend on T - t only; so t = 0 needs no
    earlier time.
    """
    model = BondVariant(variant).model(model)
    eta, w = _jump_rule(model.law)
    worst = 0.0
    rejected = []
    used = 0
    for terms in grid:
        if terms.T - terms.t < 0.05:
            rejected.append((terms.t, terms.r_t, "too close to maturity"))
            continue
        used += 1
        # A(t, T) once: every shifted rate prices as exp(A - B (r + eta))
        a_val = a_general(model, terms.t, terms.T, quad)
        b_val = b_factor(model, terms.t, terms.T)
        p0 = _affine_price(a_val, b_val, terms.r_t)
        p_t = -fd_sensitivity(
            lambda s: bond_price(model, BondTerms(terms.t, s, terms.r_t), quad=quad),
            terms.T, _MATURITY_STEP,
        )
        p_r = -b_val * p0
        if model.lambda_r == 0.0:
            jump_term = 0.0
        else:
            shifted = np.array([_affine_price(a_val, b_val, r) for r in terms.r_t + eta])
            jump_term = model.lambda_r * float(np.dot(w, shifted - p0))
        drift = model.a * (model.b - terms.r_t) * p_r
        diff = 0.5 * model.sigma_r**2 * b_val * b_val * p0
        res = p_t + drift + diff + jump_term - terms.r_t * p0
        worst = max(worst, abs(res) / max(abs(terms.r_t * p0), _NORM_FLOOR))
    return ResidualReport(
        max_residual=worst, grid_points=used, rejected_points=tuple(rejected)
    )


@dataclass(frozen=True)
class ConvergenceRow:
    scale: int
    price_error: float
    greek_error: float
    bond_error: float


# High-intensity scaling study. At scale n the asset jumps use lam = n,
# nu = drift/lam and delta^2 = variance/lam, so the aggregate drift and
# variance stay fixed, and the rate jumps scale the same way.
_LIMIT_SCALES = (1, 10, 100, 1000)
_LIMIT_DRIFT = 0.06
_LIMIT_VARIANCE = 0.04
_LIMIT_CALL = OptionTerms(
    spot=100.0, strike=105.0, tau=1.0, rate=0.03, dividend=0.01, kind=OptionKind.CALL
)
_LIMIT_RATE_A = 0.5
_LIMIT_RATE_DRIFT = 0.012
_LIMIT_RATE_VARIANCE = 4e-4
_LIMIT_BOND_TENOR = 5.0


def diffusion_convergence() -> list[ConvergenceRow]:
    """Relative errors of the jump model against its Gaussian limits.

    Per scale: call price and theta against Black-Scholes with the scale's
    aggregate volatility, and the bond intercept against the Gaussian
    intercept with the matched long-term mean and volatility.
    """
    terms = _LIMIT_CALL
    rows = []
    for n in _LIMIT_SCALES:
        lam = float(n)
        rate = ArrivalRate(lam)
        law = GaussianJumpLaw(nu=_LIMIT_DRIFT / lam, delta=math.sqrt(_LIMIT_VARIANCE / lam))
        model = AssetModel(lam=lam, law=law, sigma=0.0)
        sigma_n = math.sqrt(diffusion_moments(rate, law)[1])
        value = price(terms, model).value
        target = bs_price(terms, sigma_n).value
        price_err = abs(value - target) / abs(target)
        theta = common_greeks(terms, model).theta
        theta_target = bs_greeks(terms, sigma_n).theta
        greek_err = abs(theta - theta_target) / abs(theta_target)

        rate_law = GaussianJumpLaw(
            nu=_LIMIT_RATE_DRIFT / lam, delta=math.sqrt(_LIMIT_RATE_VARIANCE / lam)
        )
        jump_model = RateModel(
            a=_LIMIT_RATE_A, b=0.0, sigma_r=0.0, lambda_r=lam, law=rate_law
        )
        drift_r, var_r = diffusion_moments(rate, rate_law)
        limit_model = RateModel(
            a=_LIMIT_RATE_A,
            b=drift_r / _LIMIT_RATE_A,
            sigma_r=math.sqrt(var_r),
            lambda_r=0.0,
            law=rate_law,
        )
        a_jump = a_shot(jump_model, 0.0, _LIMIT_BOND_TENOR)
        a_limit = a_vasicek(limit_model, 0.0, _LIMIT_BOND_TENOR)
        bond_err = abs(a_jump - a_limit) / abs(a_limit)
        rows.append(
            ConvergenceRow(
                scale=n, price_error=price_err, greek_error=greek_err, bond_error=bond_err
            )
        )
    return rows


def default_agreement_grid() -> list[tuple[CharSpec, np.ndarray]]:
    """Standard (spec, thresholds) grid for the backend cross-check."""
    ls = np.array([-1.0, -0.5, -0.1, 0.25, 0.6, 1.0])
    grid = []
    for lam_tau in (0.25, 1.0, 4.0):
        for nu in (-0.1, 0.0, 0.1):
            for delta in (0.05, 0.2):
                for sigma in (0.0, 0.2):
                    spec = CharSpec(
                        tau=1.0,
                        lam=lam_tau,
                        sigma=sigma,
                        law=GaussianJumpLaw(nu=nu, delta=delta),
                    )
                    grid.append((spec, ls))
    return grid


def backend_agreement(
    grid: Optional[Sequence[tuple[CharSpec, np.ndarray]]] = None,
    quad: QuadratureSpec = DEFAULT_QUAD,
) -> ResidualReport:
    """Max |series - fourier| over all four transforms and their complements.

    Covers the eight cumulative functions of the pricing formulas (the
    sigma = 0 and sigma > 0 families of tilted/plain cdfs and survivals).
    Thresholds sitting exactly on a sigma = 0 atom are excluded and listed.
    """
    if grid is None:
        grid = default_agreement_grid()
    worst = 0.0
    points = 0
    rejected = []
    for spec, ls in grid:
        ls = np.asarray(ls, dtype=float)
        if spec.sigma == 0.0:
            on_atom = ls == 0.0
            rejected.extend((spec.lam, spec.sigma, float(l)) for l in ls[on_atom])
            ls = ls[~on_atom]
        if ls.size == 0:
            continue
        four = fourier_grid(spec, ls, quad)
        fv = np.column_stack((four.plain, four.tilted, four.plain_surv, four.tilted_surv))
        worst = max(worst, float(np.max(np.abs(np.array(_series_block(spec, ls, quad)) - fv))))
        points += ls.size
    return ResidualReport(
        max_residual=worst, grid_points=points, rejected_points=tuple(rejected)
    )


def contract_checks(
    asset: AssetModel,
    rate_model: RateModel,
    spot: float,
    rate: float,
    dividend: float,
    backend: Backend = Backend.SERIES,
    quad: QuadratureSpec = DEFAULT_QUAD,
) -> Iterator[tuple[str, str, float, float]]:
    """The numerical contract as (check, config, value, tolerance) rows.

    A row holds when value <= tolerance. In order: parity over 81 models
    (relative to max(S, K)), backend agreement, the option PIDE of three
    models (the jump-diffusion one is ``asset`` when its sigma > 0), per bond
    variant the bond PIDE and both ODE residuals, and the Greek identities.
    """
    call = OptionTerms(spot, 0.95 * spot, 1.0, rate, dividend, OptionKind.CALL)
    parity = max(
        abs(parity_residual(call, AssetModel(lam_tau, GaussianJumpLaw(nu, delta), sigma),
                            backend, quad))
        for lam_tau in (0.25, 1.0, 4.0)
        for nu in (-0.1, 0.0, 0.1)
        for delta in (0.05, 0.1, 0.2)
        for sigma in (0.0, 0.1, 0.2)
    )
    yield "parity", "81-point grid", parity / max(call.spot, call.strike), 1e-8

    agreement = backend_agreement(quad=quad)
    yield "backend_agreement", f"{agreement.grid_points} points", agreement.max_residual, 1e-7

    pide_grid = [
        OptionTerms(spot * math.exp(x), spot, tau, rate, dividend, OptionKind.CALL)
        for x in (-0.25, 0.12, 0.3)
        for tau in (0.5, 1.0)
    ]
    jump_diffusion = AssetModel(0.5, GaussianJumpLaw(0.05, 0.1), 0.15)
    for label, model in (
        ("black_scholes", AssetModel(0.0, GaussianJumpLaw(0.0, 0.1), 0.2)),
        ("pure_jump", AssetModel(1.0, GaussianJumpLaw(0.05, 0.1), 0.0)),
        ("jump_diffusion", asset if asset.sigma > 0 else jump_diffusion),
    ):
        yield "option_pide", label, option_pide_residual(pide_grid, model, quad).max_residual, 1e-4

    bond_grid = [BondTerms(t, 5.0, r) for t in (0.5, 2.0, 4.0) for r in (0.01, 0.03, 0.06)]
    for variant in BondVariant:
        rep = bond_pide_residual(rate_model, bond_grid, variant, quad)
        yield "bond_pide", variant.value, rep.max_residual, 1e-4
        res_a, res_b = ode_residual(rate_model, 0.0, 5.0, variant, quad)
        yield "ode_residual_A", variant.value, res_a, 1e-4
        yield "ode_residual_B", variant.value, res_b, 1e-6

    ident_model = AssetModel(1.0, GaussianJumpLaw(-0.05, 0.15), 0.0)
    for name, residual in identity_report(call, ident_model, quad):
        yield "greek_identity", name, residual, 1e-4

"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
Every tolerance is pinned here; Monte Carlo checks use fixed seeds and are
bit-reproducible.
"""

import json
import math
import time

import pytest
from scipy.special import ndtr

from shotpricer import (
    AssetModel,
    BondTerms,
    BondVariant,
    GaussianJumpLaw,
    OptionKind,
    OptionTerms,
    QuadratureSpec,
    RateModel,
    SimConfig,
    a_general,
    a_shot,
    a_vasicek,
    b_factor,
    backend_agreement,
    bond_pide_residual,
    bond_price,
    bs_price,
    common_greeks,
    conditional_moments,
    diffusion_convergence,
    fd_sensitivity,
    identity_report,
    mc_bond_price,
    mc_option_price,
    mc_rate_moments,
    new_greeks,
    option_pide_residual,
    ode_residual,
    parity_residual,
    price,
)
from shotpricer.cli import main as cli_main


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def terms_of(spot=100.0, strike=105.0, tau=1.0, rate=0.03, dividend=0.01,
             kind=OptionKind.CALL):
    return OptionTerms(spot=spot, strike=strike, tau=tau, rate=rate,
                       dividend=dividend, kind=kind)


def test_01_put_call_parity():
    start = time.perf_counter()
    worst = 0.0
    for lam_tau in (0.25, 1.0, 4.0):
        for nu in (-0.1, 0.0, 0.1):
            for delta in (0.05, 0.1, 0.2):
                for sigma in (0.0, 0.1, 0.2):
                    model = AssetModel(lam_tau, GaussianJumpLaw(nu, delta), sigma)
                    res = parity_residual(terms_of(), model)
                    worst = max(worst, abs(res) / 105.0)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    report(1, "put-call parity (81-point grid)", ok,
           f"max residual {worst:.3e} (tol 1e-8), {elapsed:.1f}s")


def test_02_black_scholes_reduction():
    quad = QuadratureSpec(rel_tol=1e-12)
    worst = 0.0
    for strike in (85.0, 100.0, 120.0):
        for kind in OptionKind:
            for sigma in (0.15, 0.25):
                terms = terms_of(strike=strike, kind=kind)
                model = AssetModel(0.0, GaussianJumpLaw(0.0, 0.1), sigma)
                diff = abs(price(terms, model, quad=quad).value
                           - bs_price(terms, sigma).value)
                worst = max(worst, diff)
    atm = price(
        terms_of(strike=100.0, rate=0.0, dividend=0.0),
        AssetModel(0.0, GaussianJumpLaw(0.0, 0.1), 0.2),
    ).value
    # frozen reference: 100 (2 Phi(0.1) - 1) evaluated with scipy's ndtr
    atm_gap = abs(atm - 7.965567455405798)
    ok = worst <= 1e-9 and atm_gap <= 1e-6
    report(2, "Black-Scholes reduction (lam = 0)", ok,
           f"max |price - closed form| {worst:.3e} (tol 1e-9), "
           f"ATM gap {atm_gap:.3e} (tol 1e-6)")


def _pure_jump_reference(terms: OptionTerms, lam: float, nu: float, delta: float) -> float:
    """Test-local evaluation of the pure-jump call/put formulas.

    Plain Python Poisson recursion over normal cdfs, independent of the
    library's transform engine.
    """
    tau = terms.tau
    m = lam * tau
    vs = math.exp(nu + 0.5 * delta * delta) - 1.0
    l = math.log(terms.spot / terms.strike) + (terms.rate - terms.dividend - lam * vs) * tau
    l1 = math.exp(-m * vs) * math.exp(-m) * (1.0 if l > 0 else 0.0)
    l2 = math.exp(-m) * (1.0 if l >= 0 else 0.0)
    weight = math.exp(-m)
    for n in range(1, 400):
        weight *= m / n
        sd = delta * math.sqrt(n)
        l2 += weight * ndtr((l + n * nu) / sd)
        tilt = weight * math.exp(n * (nu + 0.5 * delta * delta) - m * vs)
        l1 += tilt * ndtr((l + n * nu) / sd + sd)
    disc_spot = terms.spot * math.exp(-terms.dividend * tau)
    disc_strike = terms.strike * math.exp(-terms.rate * tau)
    if terms.kind is OptionKind.CALL:
        return disc_spot * l1 - disc_strike * l2
    return disc_strike * (1.0 - l2) - disc_spot * (1.0 - l1)


def test_03_pure_jump_reduction():
    quad = QuadratureSpec(rel_tol=1e-12)
    worst = 0.0
    for lam, nu, delta in ((0.5, 0.08, 0.12), (1.0, -0.05, 0.15), (4.0, 0.0, 0.1)):
        for kind in OptionKind:
            for strike in (90.0, 105.0):
                terms = terms_of(strike=strike, kind=kind)
                model = AssetModel(lam, GaussianJumpLaw(nu, delta), 0.0)
                got = price(terms, model, quad=quad).value
                ref = _pure_jump_reference(terms, lam, nu, delta)
                worst = max(worst, abs(got - ref))
    ok = worst <= 1e-9
    report(3, "pure-jump reduction (sigma = 0)", ok,
           f"max |generalized - pure-jump form| {worst:.3e} (tol 1e-9)")


def test_04_backend_cross_validation():
    start = time.perf_counter()
    rep = backend_agreement()
    elapsed = time.perf_counter() - start
    ok = rep.max_residual <= 1e-7 and elapsed < 60.0
    report(4, "series vs fourier (8 transforms)", ok,
           f"max gap {rep.max_residual:.3e} (tol 1e-7) on {rep.grid_points} points, "
           f"{elapsed:.1f}s")


MC_OPTION_GRID = [
    (AssetModel(0.25, GaussianJumpLaw(-0.05, 0.15), 0.0), OptionKind.CALL),
    (AssetModel(0.25, GaussianJumpLaw(0.1, 0.2), 0.2), OptionKind.PUT),
    (AssetModel(1.0, GaussianJumpLaw(-0.05, 0.15), 0.0), OptionKind.PUT),
    (AssetModel(1.0, GaussianJumpLaw(0.1, 0.2), 0.2), OptionKind.CALL),
    (AssetModel(4.0, GaussianJumpLaw(-0.05, 0.15), 0.0), OptionKind.CALL),
    (AssetModel(4.0, GaussianJumpLaw(0.1, 0.2), 0.2), OptionKind.PUT),
]


def test_05_monte_carlo_concordance():
    start = time.perf_counter()
    sim = SimConfig(paths=1_000_000, seed=2026)
    worst_z = 0.0
    for model, kind in MC_OPTION_GRID:
        terms = terms_of(kind=kind)
        analytic = price(terms, model).value
        est = mc_option_price(terms, model, sim)
        worst_z = max(worst_z, abs(analytic - est.mean) / est.std_error)
    bond_models = [
        (RateModel(0.5, 0.0, 0.0, 1.0, GaussianJumpLaw(0.01, 0.02)), BondVariant.SHOT),
        (RateModel(0.5, 0.03, 0.01, 2.0, GaussianJumpLaw(0.005, 0.01)), BondVariant.GENERAL),
        (RateModel(0.8, 0.02, 0.015, 0.5, GaussianJumpLaw(-0.004, 0.008)), BondVariant.GENERAL),
    ]
    for model, variant in bond_models:
        bterms = BondTerms(0.0, 5.0, 0.03)
        analytic = bond_price(model, bterms, variant)
        est = mc_bond_price(model, bterms, sim)
        worst_z = max(worst_z, abs(analytic - est.mean) / est.std_error)
    # martingale: a strike ~ 0 call is the discounted asset
    mart_model = AssetModel(1.0, GaussianJumpLaw(0.1, 0.2), 0.2)
    mart = mc_option_price(terms_of(strike=1e-12), mart_model, sim)
    mart_z = abs(mart.mean - 100.0 * math.exp(-0.01)) / mart.std_error
    worst_z = max(worst_z, mart_z)
    elapsed = time.perf_counter() - start
    ok = worst_z <= 3.0 and elapsed < 300.0
    report(5, "Monte Carlo concordance (1e6 paths)", ok,
           f"max |z| {worst_z:.2f} (limit 3), martingale z {mart_z:.2f}, {elapsed:.0f}s")


GREEK_GRID = [
    (AssetModel(1.0, GaussianJumpLaw(-0.05, 0.15), 0.0),
     terms_of(strike=95.0, dividend=0.01)),
    (AssetModel(2.0, GaussianJumpLaw(0.08, 0.1), 0.0),
     terms_of(strike=110.0, tau=0.7, rate=0.02, dividend=0.0, kind=OptionKind.PUT)),
    (AssetModel(0.5, GaussianJumpLaw(0.05, 0.2), 0.2),
     terms_of(strike=100.0, tau=1.5, rate=0.04, dividend=0.02)),
    (AssetModel(4.0, GaussianJumpLaw(0.0, 0.05), 0.1),
     terms_of(strike=105.0, tau=0.5, rate=0.01, dividend=0.0, kind=OptionKind.PUT)),
]


def _reprice(terms, model, **changes):
    fields = {
        "spot": terms.spot, "strike": terms.strike, "tau": terms.tau,
        "rate": terms.rate, "dividend": terms.dividend, "kind": terms.kind,
    }
    mfields = {"lam": model.lam, "nu": model.law.nu, "delta": model.law.delta,
               "sigma": model.sigma}
    for key, val in changes.items():
        (fields if key in fields else mfields)[key] = val
    return price(
        OptionTerms(**fields),
        AssetModel(mfields["lam"], GaussianJumpLaw(mfields["nu"], mfields["delta"]),
                   mfields["sigma"]),
    ).value


def test_06_greeks_vs_finite_differences():
    worst = 0.0
    for model, terms in GREEK_GRID:
        g = common_greeks(terms, model)
        ng = new_greeks(terms, model)
        pairs = [
            (g.delta, fd_sensitivity(lambda v: _reprice(terms, model, spot=v),
                                     terms.spot, 1e-2)),
            (g.theta, -fd_sensitivity(lambda v: _reprice(terms, model, tau=v),
                                      terms.tau, 1e-4)),
            (g.rho, fd_sensitivity(lambda v: _reprice(terms, model, rate=v),
                                   terms.rate, 1e-4)),
            (g.psi, fd_sensitivity(lambda v: _reprice(terms, model, dividend=v),
                                   terms.dividend, 1e-4)),
            (ng.kappa, fd_sensitivity(lambda v: _reprice(terms, model, lam=v),
                                      model.lam, 1e-4)),
            (ng.mu, fd_sensitivity(lambda v: _reprice(terms, model, nu=v),
                                   model.law.nu, 1e-4)),
            (ng.epsilon, fd_sensitivity(lambda v: _reprice(terms, model, delta=v),
                                        model.law.delta, 1e-4)),
        ]
        h = 1e-2
        f = lambda v: _reprice(terms, model, spot=v)
        gamma_fd = (f(terms.spot + h) - 2 * f(terms.spot) + f(terms.spot - h)) / (h * h)
        pairs.append((g.gamma, gamma_fd))
        if model.sigma > 0.0:
            pairs.append(
                (g.vega, fd_sensitivity(lambda v: _reprice(terms, model, sigma=v),
                                        model.sigma, 1e-4))
            )
        for analytic, fd in pairs:
            worst = max(worst, abs(analytic - fd) / max(abs(fd), 1e-10))
    ok = worst <= 1e-4
    report(6, "Greeks vs finite differences", ok,
           f"max relative gap {worst:.3e} (tol 1e-4)")


def test_07_theta_kappa_and_identities():
    worst = 0.0
    for model, terms in GREEK_GRID[:2]:
        for name, residual in identity_report(terms, model):
            worst = max(worst, residual)
    ok = worst <= 1e-4
    report(7, "theta-kappa relation and Greek identities", ok,
           f"max relative residual {worst:.3e} (tol 1e-4)")


def test_08_diffusion_limit():
    rows = diffusion_convergence()
    monotone = all(
        b.price_error < a.price_error
        and b.greek_error < a.greek_error
        and b.bond_error < a.bond_error
        for a, b in zip(rows, rows[1:])
    )
    final = rows[-1]
    ok = (monotone and final.price_error <= 0.01 and final.greek_error <= 0.01
          and final.bond_error <= 0.005)
    report(8, "diffusion limit (n = 1, 10, 100, 1000)", ok,
           f"monotone {monotone}; at n=1000: price {final.price_error:.2e} (tol 1e-2), "
           f"theta {final.greek_error:.2e} (tol 1e-2), bond {final.bond_error:.2e} "
           f"(tol 5e-3)")


def test_09_term_structure_identities():
    shot = RateModel(0.5, 0.0, 0.0, 1.0, GaussianJumpLaw(0.01, 0.02))
    general = RateModel(0.5, 0.03, 0.01, 2.0, GaussianJumpLaw(0.005, 0.01))
    grid = [BondTerms(t, 5.0, r) for t in (0.5, 2.0, 4.0) for r in (0.01, 0.03, 0.06)]
    pide_shot = bond_pide_residual(shot, grid, BondVariant.SHOT).max_residual
    pide_gen = bond_pide_residual(general, grid, BondVariant.GENERAL).max_residual
    res_a_v, res_b_v = ode_residual(general, 0.0, 5.0, BondVariant.VASICEK)
    res_a_s, res_b_s = ode_residual(shot, 0.0, 5.0, BondVariant.SHOT)
    res_a_g, res_b_g = ode_residual(general, 0.0, 5.0, BondVariant.GENERAL)
    boundary = (
        a_shot(shot, 5.0, 5.0) == 0.0
        and a_vasicek(general, 5.0, 5.0) == 0.0
        and a_general(general, 5.0, 5.0) == 0.0
        and b_factor(shot, 5.0, 5.0) == 0.0
        and bond_price(general, BondTerms(5.0, 5.0, 0.04)) == 1.0
    )
    ok = (
        pide_shot <= 1e-4 and pide_gen <= 1e-4
        and res_b_v <= 1e-6 and res_b_s <= 1e-6 and res_b_g <= 1e-6
        and res_a_v <= 1e-6 and res_a_s <= 1e-4 and res_a_g <= 1e-4
        and boundary
    )
    report(9, "term-structure identities", ok,
           f"PIDE shot {pide_shot:.2e} / general {pide_gen:.2e} (tol 1e-4); "
           f"ODE B {max(res_b_v, res_b_s, res_b_g):.2e} (tol 1e-6), "
           f"A closed-form {res_a_v:.2e} (tol 1e-6), "
           f"A quadrature {max(res_a_s, res_a_g):.2e} (tol 1e-4); "
           f"boundary exact {boundary}")


def test_10_moment_coincidence():
    shot = RateModel(0.5, 0.0, 0.0, 2.0, GaussianJumpLaw(0.01, 0.02))
    r0, h = 0.03, 1.0
    mean, var = conditional_moments(shot, r0, h)
    # Gaussian-model formulas written out literally
    b = shot.lambda_r * shot.law.nu / shot.a
    sig_sq = shot.lambda_r * (shot.law.nu**2 + shot.law.delta**2)
    mean_ref = b + (r0 - b) * math.exp(-shot.a * h)
    var_ref = sig_sq / (2.0 * shot.a) * (1.0 - math.exp(-2.0 * shot.a * h))
    exact = mean == mean_ref and var == pytest.approx(var_ref, rel=1e-15)
    m_est, v_est = mc_rate_moments(shot, r0, h, SimConfig(paths=1_000_000, seed=2026))
    z_mean = abs(m_est.mean - mean) / m_est.std_error
    z_var = abs(v_est.mean - var) / v_est.std_error
    ok = exact and z_mean <= 3.0 and z_var <= 3.0
    report(10, "conditional-moment coincidence", ok,
           f"algebraic match {exact}; MC z(mean) {z_mean:.2f}, z(var) {z_var:.2f} "
           f"(limit 3)")


def test_11_option_pide_residual():
    grid = [
        terms_of(spot=100.0 * math.exp(x), strike=100.0, tau=tau)
        for x in (-0.25, 0.12, 0.3)
        for tau in (0.5, 1.0)
    ]
    shot = AssetModel(1.0, GaussianJumpLaw(0.05, 0.1), 0.0)
    gen = AssetModel(0.5, GaussianJumpLaw(0.05, 0.1), 0.15)
    res_shot = option_pide_residual(grid, shot).max_residual
    res_gen = option_pide_residual(grid, gen).max_residual
    ok = res_shot <= 1e-4 and res_gen <= 1e-4
    report(11, "option PIDE residual", ok,
           f"pure-jump {res_shot:.2e}, generalized {res_gen:.2e} (tol 1e-4)")


def test_12_cli_reproducibility(tmp_path, capsys):
    args = ["mc", "--paths", "20000", "--seed", "7"]
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(args + ["--out", str(out_a)]) == 0
    assert cli_main(args + ["--out", str(out_b)]) == 0
    body_a = [l for l in out_a.read_text().splitlines() if not l.startswith("#")]
    body_b = [l for l in out_b.read_text().splitlines() if not l.startswith("#")]
    csv_same = body_a == body_b
    out_ja, out_jb = tmp_path / "a.json", tmp_path / "b.json"
    assert cli_main(args + ["--format", "json", "--out", str(out_ja)]) == 0
    assert cli_main(args + ["--format", "json", "--out", str(out_jb)]) == 0
    rows_a = json.dumps(json.loads(out_ja.read_text())["rows"], sort_keys=True)
    rows_b = json.dumps(json.loads(out_jb.read_text())["rows"], sort_keys=True)
    json_same = rows_a == rows_b
    ok = csv_same and json_same
    report(12, "CLI reproducibility (fixed seed)", ok,
           f"csv body identical {csv_same}, json rows identical {json_same}")

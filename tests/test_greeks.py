"""Analytic Greeks against the finite-difference oracle and the identities."""

import math
from dataclasses import replace

import pytest

from shotpricer import (
    AssetModel,
    GaussianJumpLaw,
    OptionKind,
    OptionTerms,
    bs_greeks,
    bs_price,
    common_greeks,
    delta_jump,
    fd_sensitivity,
    identity_report,
    new_greeks,
    price,
    varsigma,
)
from shotpricer.errors import KinkError, ParameterError
from shotpricer.greeks import _lam_derivatives, fd_sensitivity_with_error

from conftest import make_terms

GRID = [
    (AssetModel(1.0, GaussianJumpLaw(-0.05, 0.15), 0.0),
     make_terms(100, 95, 1.0, 0.03, 0.01)),
    (AssetModel(2.0, GaussianJumpLaw(0.08, 0.1), 0.0),
     make_terms(100, 110, 0.7, 0.02, 0.0, OptionKind.PUT)),
    (AssetModel(0.5, GaussianJumpLaw(0.05, 0.2), 0.2),
     make_terms(100, 100, 1.5, 0.04, 0.02)),
    (AssetModel(4.0, GaussianJumpLaw(0.0, 0.05), 0.1),
     make_terms(100, 105, 0.5, 0.01, 0.0, OptionKind.PUT)),
]


def reprice(terms, model, **changes):
    fields = {
        "spot": terms.spot,
        "strike": terms.strike,
        "tau": terms.tau,
        "rate": terms.rate,
        "dividend": terms.dividend,
        "kind": terms.kind,
    }
    model_fields = {"lam": model.lam, "nu": model.law.nu, "delta": model.law.delta,
                    "sigma": model.sigma}
    for key, val in changes.items():
        (fields if key in fields else model_fields)[key] = val
    new_model = AssetModel(
        model_fields["lam"],
        GaussianJumpLaw(model_fields["nu"], model_fields["delta"]),
        model_fields["sigma"],
    )
    return price(OptionTerms(**fields), new_model).value


class TestFdSensitivity:
    def test_polynomial(self):
        assert fd_sensitivity(lambda x: x * x, 1.0, 1e-3) == pytest.approx(2.0, abs=1e-10)

    def test_exponential(self):
        assert fd_sensitivity(math.exp, 0.0, 1e-3) == pytest.approx(1.0, abs=1e-8)

    def test_error_estimate(self):
        val, err = fd_sensitivity_with_error(math.sin, 0.3, 1e-3)
        assert val == pytest.approx(math.cos(0.3), abs=1e-10)
        assert err < 1e-7
        assert abs(val - math.cos(0.3)) < err

    def test_nonfinite_raises(self):
        with pytest.raises(Exception):
            fd_sensitivity(lambda x: float("nan"), 0.0, 1e-3)


@pytest.mark.parametrize("model,terms", GRID)
class TestAgainstFiniteDifferences:
    def test_delta(self, model, terms):
        g = common_greeks(terms, model)
        fd = fd_sensitivity(lambda s: reprice(terms, model, spot=s), terms.spot, 1e-2)
        assert g.delta == pytest.approx(fd, rel=1e-4)

    def test_gamma(self, model, terms):
        g = common_greeks(terms, model)
        h = 1e-2
        f = lambda s: reprice(terms, model, spot=s)
        fd = (f(terms.spot + h) - 2 * f(terms.spot) + f(terms.spot - h)) / (h * h)
        assert g.gamma == pytest.approx(fd, rel=1e-4)

    def test_theta(self, model, terms):
        g = common_greeks(terms, model)
        fd = -fd_sensitivity(lambda t: reprice(terms, model, tau=t), terms.tau, 1e-4)
        assert g.theta == pytest.approx(fd, rel=1e-4)

    def test_rho(self, model, terms):
        g = common_greeks(terms, model)
        fd = fd_sensitivity(lambda r: reprice(terms, model, rate=r), terms.rate, 1e-4)
        assert g.rho == pytest.approx(fd, rel=1e-4)

    def test_psi(self, model, terms):
        g = common_greeks(terms, model)
        fd = fd_sensitivity(
            lambda q: reprice(terms, model, dividend=q), terms.dividend, 1e-4
        )
        assert g.psi == pytest.approx(fd, rel=1e-4)

    def test_vega(self, model, terms):
        g = common_greeks(terms, model)
        if model.sigma == 0.0:
            assert g.vega is None
            return
        fd = fd_sensitivity(lambda s: reprice(terms, model, sigma=s), model.sigma, 1e-4)
        assert g.vega == pytest.approx(fd, rel=1e-4)

    def test_new_greeks(self, model, terms):
        ng = new_greeks(terms, model)
        k_fd = fd_sensitivity(lambda x: reprice(terms, model, lam=x), model.lam, 1e-4)
        m_fd = fd_sensitivity(lambda x: reprice(terms, model, nu=x), model.law.nu, 1e-4)
        e_fd = fd_sensitivity(
            lambda x: reprice(terms, model, delta=x), model.law.delta, 1e-4
        )
        assert ng.kappa == pytest.approx(k_fd, rel=1e-4)
        assert ng.mu == pytest.approx(m_fd, rel=1e-4)
        assert ng.epsilon == pytest.approx(e_fd, rel=1e-4)


@pytest.mark.parametrize("model,terms", GRID)
class TestPutCallStructure:
    def test_gamma_same_for_put_and_call(self, model, terms):
        call = common_greeks(make_terms(terms.spot, terms.strike, terms.tau, terms.rate,
                                        terms.dividend, OptionKind.CALL), model)
        put = common_greeks(make_terms(terms.spot, terms.strike, terms.tau, terms.rate,
                                       terms.dividend, OptionKind.PUT), model)
        assert call.gamma == put.gamma

    def test_parity_transforms(self, model, terms):
        tau = terms.tau
        call = common_greeks(make_terms(terms.spot, terms.strike, tau, terms.rate,
                                        terms.dividend, OptionKind.CALL), model)
        put = common_greeks(make_terms(terms.spot, terms.strike, tau, terms.rate,
                                       terms.dividend, OptionKind.PUT), model)
        disc_spot = terms.spot * math.exp(-terms.dividend * tau)
        disc_strike = terms.strike * math.exp(-terms.rate * tau)
        assert put.delta == pytest.approx(call.delta - math.exp(-terms.dividend * tau), abs=1e-14)
        assert put.rho == pytest.approx(call.rho - tau * disc_strike, abs=1e-10)
        assert put.psi == pytest.approx(call.psi + tau * disc_spot, abs=1e-10)
        assert put.theta == pytest.approx(
            call.theta - terms.dividend * disc_spot + terms.rate * disc_strike, abs=1e-10
        )

    def test_new_greeks_kind_invariant(self, model, terms):
        call = new_greeks(make_terms(terms.spot, terms.strike, terms.tau, terms.rate,
                                     terms.dividend, OptionKind.CALL), model)
        put = new_greeks(make_terms(terms.spot, terms.strike, terms.tau, terms.rate,
                                    terms.dividend, OptionKind.PUT), model)
        assert abs(call.kappa - put.kappa) <= 1e-10
        assert abs(call.mu - put.mu) <= 1e-10
        assert abs(call.epsilon - put.epsilon) <= 1e-10


class TestIdentities:
    @pytest.mark.parametrize("model,terms", GRID[:2])
    def test_all_residuals_small(self, model, terms):
        for name, residual in identity_report(terms, model):
            assert residual <= 1e-4, f"{name} residual {residual}"

    def test_epsilon_correction_uses_the_series_weights(self):
        # the CLI validate model: the spectral correction and the Greeks it
        # corrects sum the same Poisson weights, so only rounding is left
        model = AssetModel(1.0, GaussianJumpLaw(-0.05, 0.15), 0.0)
        terms = make_terms(100.0, 95.0, 1.0, 0.03, 0.0)
        residual = dict(identity_report(terms, model))["epsilon_mu_gamma"]
        assert residual <= 1e-14

    def test_epsilon_correction_at_high_intensity(self):
        # lam tau 300: the series window starts at count 122, not 0, and the
        # correction must sum the same counts as the Greeks
        model = AssetModel(300.0, GaussianJumpLaw(-0.01, 0.03), 0.0)
        terms = make_terms(100.0, 95.0, 1.0, 0.03, 0.0)
        residual = dict(identity_report(terms, model))["epsilon_mu_gamma"]
        assert residual <= 1e-14

    def test_needs_pure_jump_model(self, mixed_model, atm_call):
        with pytest.raises(ParameterError):
            identity_report(atm_call, mixed_model)

    def test_narrow_jumps_do_not_overflow_the_correction(self):
        # delta 1e-160 makes a = (l - n nu) / s about 1e159, whose square
        # overflowed (a RuntimeWarning, which the suite turns into an error)
        model = AssetModel(2.0, GaussianJumpLaw(-0.05, 1e-160), 0.0)
        report = identity_report(make_terms(100.0, 105.0, 1.0, 0.02), model)
        assert all(math.isfinite(residual) for _, residual in report)

    @pytest.mark.parametrize("strike", [95.0, 120.0])
    @pytest.mark.parametrize("tau", [0.5, 1.0, 2.0])
    def test_rows_carry_rounding_only(self, strike, tau):
        # the CLI validate model: every derivative is analytic, so only rounding is left
        model = AssetModel(1.0, GaussianJumpLaw(-0.05, 0.15), 0.0)
        for name, residual in identity_report(make_terms(100.0, strike, tau, 0.03), model):
            assert residual <= 1e-12, f"{name} residual {residual}"

    @pytest.mark.parametrize("sigma", [0.0, 0.2])
    @pytest.mark.parametrize("strike", [80.0, 95.0, 120.0])
    def test_lam_derivatives_match_finite_differences(self, sigma, strike):
        model = AssetModel(1.0, GaussianJumpLaw(-0.05, 0.15), sigma)
        terms = make_terms(100.0, strike, 1.0, 0.03, 0.01)

        def greek(name):
            return lambda lam: getattr(common_greeks(terms, replace(model, lam=lam)), name)

        d_delta, d_rho = _lam_derivatives(terms, model)
        assert d_delta == pytest.approx(fd_sensitivity(greek("delta"), 1.0, 1e-4), rel=1e-4)
        assert d_rho == pytest.approx(fd_sensitivity(greek("rho"), 1.0, 1e-4), rel=1e-4)


class TestHighIntensityAccuracy:
    def test_jump_greeks_deep_in_the_money(self):
        # lam tau 460 with narrow jumps: the jump Greeks are small differences
        # of large weight sums. References: the Poisson sum differentiated at
        # fixed l in 40-digit arithmetic (mpmath).
        tau = 3.474779737324566
        model = AssetModel(
            459.98298769131037 / tau,
            GaussianJumpLaw(-0.0029110736100341358, 0.00445407958360904),
            0.0,
        )
        terms = OptionTerms(
            78.91429989199577, 41.01376735583132, tau, 0.04512827650676012,
            0.023801612777029652, OptionKind.CALL,
        )
        ng = new_greeks(terms, model)
        assert ng.kappa == pytest.approx(1.1104896765547700e-10, abs=1e-14)
        assert ng.mu == pytest.approx(-3.3657769766623619e-06, rel=1e-7)
        assert ng.epsilon == pytest.approx(4.8073864492128134e-06, rel=1e-9)


@pytest.mark.parametrize("strike", [2.0, 3.0])
def test_deep_otm_put_greeks_keep_their_size(strike):
    # prices 5.0e-19 and 1.2e-16. Derived from the call's by parity, this
    # put's delta read 0.0 and its kappa 160 times its size at K 2
    model = AssetModel(1.0, GaussianJumpLaw(-0.05, 0.15), 0.2)
    terms = make_terms(100.0, strike, 1.0, 0.03, 0.0, OptionKind.PUT)
    g, ng = common_greeks(terms, model), new_greeks(terms, model)
    pairs = [
        (g.delta, fd_sensitivity(lambda v: reprice(terms, model, spot=v), 100.0, 1e-2)),
        (g.theta, -fd_sensitivity(lambda v: reprice(terms, model, tau=v), 1.0, 1e-4)),
        (g.rho, fd_sensitivity(lambda v: reprice(terms, model, rate=v), 0.03, 1e-4)),
        (ng.kappa, fd_sensitivity(lambda v: reprice(terms, model, lam=v), 1.0, 1e-4)),
    ]
    for analytic, fd in pairs:
        assert analytic == pytest.approx(fd, rel=1e-4, abs=0.0)


def test_theta_that_meets_inf_minus_inf_raises():
    # r and q of +-1.7e308 at tau 1e-306: theta's rate and dividend terms
    # overflow to infinities of both signs, and their sum was a NaN theta
    model = AssetModel(1e308, GaussianJumpLaw(1.0, 0.1), 0.0)
    for kind in OptionKind:
        terms = OptionTerms(100.0, 100.0, 1e-306, 1.7e308, -1.7e308, kind)
        with pytest.raises(ParameterError, match="theta"):
            common_greeks(terms, model)


class TestBsGreeks:
    def test_atm_values(self):
        terms = make_terms()
        g = bs_greeks(terms, 0.2)
        # frozen: Phi(0.1) = 0.5398278372770290, 100 N'(0.1) = 39.695254747701175
        assert g.delta == pytest.approx(0.539827837277029, abs=1e-12)
        assert g.vega == pytest.approx(39.695254747701175, abs=1e-9)

    def test_gamma_cross_form(self):
        terms = make_terms(100, 105, 0.8, 0.03, 0.01)
        sigma = 0.25
        g = bs_greeks(terms, sigma)
        sq = sigma * math.sqrt(terms.tau)
        d1 = (math.log(100 / 105) + (0.02 + 0.5 * sigma**2) * 0.8) / sq
        d2 = d1 - sq
        pdf = math.exp(-0.5 * d2 * d2) / math.sqrt(2 * math.pi)
        cross = 105 * math.exp(-0.03 * 0.8) * pdf / (100**2 * sq)
        assert g.gamma == pytest.approx(cross, rel=1e-12)

    def test_theta_matches_fd(self):
        terms = make_terms(100, 95, 1.0, 0.04, 0.01)
        sigma = 0.3
        g = bs_greeks(terms, sigma)
        fd = -fd_sensitivity(
            lambda t: bs_price(make_terms(100, 95, t, 0.04, 0.01), sigma).value,
            terms.tau,
            1e-4,
        )
        assert g.theta == pytest.approx(fd, abs=1e-6)

    def test_vega_same_for_put(self):
        call = bs_greeks(make_terms(kind=OptionKind.CALL), 0.2)
        put = bs_greeks(make_terms(kind=OptionKind.PUT), 0.2)
        assert call.vega == put.vega

    def test_reduction_from_jump_model(self):
        # lam = 0 series Greeks equal the closed-form Gaussian Greeks
        model = AssetModel(0.0, GaussianJumpLaw(0.0, 0.1), 0.25)
        terms = make_terms(100, 108, 0.9, 0.03, 0.02)
        g = common_greeks(terms, model)
        ref = bs_greeks(terms, 0.25)
        for field in ("delta", "gamma", "rho", "psi", "theta", "vega"):
            assert getattr(g, field) == pytest.approx(getattr(ref, field), rel=1e-11)


class TestKink:
    def test_exact_kink_raises(self):
        # nu = -delta^2/2 makes varsigma vanish; with r = q = 0 and S = K
        # the threshold l is bitwise zero, the one point that must refuse
        law = GaussianJumpLaw(-0.5 * 0.2 * 0.2, 0.2)
        model = AssetModel(1.0, law, 0.0)
        terms = make_terms(100.0, 100.0, 1.0, 0.0, 0.0)
        from shotpricer import l_parameter

        assert l_parameter(terms, model) == 0.0
        with pytest.raises(KinkError):
            common_greeks(terms, model)
        with pytest.raises(KinkError):
            new_greeks(terms, model)
        # pricing at the kink still works (right limit)
        assert price(terms, model).value > 0.0

    def test_delta_jump_size(self):
        law = GaussianJumpLaw(0.05, 0.1)
        model = AssetModel(1.0, law, 0.0)
        rate, tau = 0.02, 1.0
        strike = 100.0 / math.exp(-(rate - varsigma(law)) * tau)
        terms = make_terms(100.0, strike, tau, rate)
        meta = delta_jump(terms, model)
        expected = math.exp(
            -varsigma(model.law) * model.lam * terms.tau
        ) * math.exp(-model.lam * terms.tau)
        assert meta == pytest.approx(expected, rel=1e-14)
        # one-sided deltas differ by exactly the reported jump
        lo = common_greeks(
            make_terms(terms.spot * (1 - 1e-7), terms.strike, terms.tau, terms.rate), model
        ).delta
        hi = common_greeks(
            make_terms(terms.spot * (1 + 1e-7), terms.strike, terms.tau, terms.rate), model
        ).delta
        assert hi - lo == pytest.approx(meta, rel=1e-4)

    def test_delta_jump_zero_with_diffusion(self, mixed_model, atm_call):
        assert delta_jump(atm_call, mixed_model) == 0.0


class TestBalanceIdentity:
    def test_tilted_plain_slope_balance(self, jump_model):
        # S e^{-q tau} dL1/dl == K e^{-r tau} dL2/dl at l = l(terms)
        from shotpricer import l_parameter
        from shotpricer.transform import series_lset

        terms = make_terms(100, 95, 1.0, 0.03, 0.01)
        l = l_parameter(terms, jump_model)
        ls = series_lset(jump_model.char_spec(terms.tau), l)
        lhs = 100 * math.exp(-0.01) * ls.dl1_dl
        rhs = 95 * math.exp(-0.03) * ls.dl2_dl
        assert lhs == pytest.approx(rhs, rel=1e-8)

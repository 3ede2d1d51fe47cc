"""Affine bond pricing: factor loadings, intercept routes, moments, ODEs."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad as squad

from shotpricer import (
    BondTerms,
    BondVariant,
    GaussianJumpLaw,
    RateModel,
    a_general,
    a_shot,
    a_vasicek,
    b_factor,
    bond_pide_residual,
    bond_price,
    conditional_moments,
    ode_residual,
    zero_yield,
)
from shotpricer._quad import doubling_gauss_legendre
from shotpricer.errors import ParameterError, QuadratureError, ShotPricerError
from conftest import layer_reference, time_limit


def substituted_reference(model, t, T):
    """Independent intercept route: y = B(s, T) turns A into
    lam * int_0^{B(t,T)} (exp{-nu y + delta^2 y^2/2} - 1) / (1 - a y) dy."""
    law, a = model.law, model.a

    def integrand(y):
        return math.expm1(-law.nu * y + 0.5 * law.delta**2 * y * y) / (1.0 - a * y)

    ref, _ = squad(integrand, 0.0, b_factor(model, t, T), limit=200)
    return model.lambda_r * ref


class TestBFactor:
    def test_maturity_zero(self, rate_jump_model):
        assert b_factor(rate_jump_model, 2.0, 2.0) == 0.0

    def test_unit_example(self):
        model = RateModel(1.0, 0.0, 0.0, 0.0, GaussianJumpLaw(0.0, 0.0))
        assert b_factor(model, 0.0, 1.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-15)

    def test_small_reversion_limit(self):
        model = RateModel(1e-8, 0.0, 0.0, 0.0, GaussianJumpLaw(0.0, 0.0))
        assert b_factor(model, 0.0, 3.0) == pytest.approx(3.0, rel=1e-7)


class TestAShot:
    def test_maturity_zero(self, rate_jump_model):
        assert a_shot(rate_jump_model, 1.5, 1.5) == 0.0

    def test_non_finite_bound_raises_at_once(self, rate_jump_model):
        with time_limit(2.0), pytest.raises(ParameterError):
            a_shot(rate_jump_model, 0.0, math.nan)

    def test_reversed_bounds_raise_parameter_error(self, rate_jump_model):
        # same error as b_factor, before any quadrature runs
        with time_limit(2.0):
            with pytest.raises(ParameterError, match="need t <= T"):
                a_shot(rate_jump_model, 2.0, 1.0)
            # also where there are no jumps to integrate
            with pytest.raises(ParameterError, match="need t <= T"):
                a_shot(replace(rate_jump_model, lambda_r=0.0), 2.0, 1.0)

    def test_degenerate_law(self):
        model = RateModel(0.5, 0.0, 0.0, 2.0, GaussianJumpLaw(0.0, 0.0))
        assert a_shot(model, 0.0, 4.0) == 0.0

    def test_dual_route_agreement(self):
        model = RateModel(0.5, 0.0, 0.0, 1.0, GaussianJumpLaw(0.01, 0.02))
        direct = a_shot(model, 0.0, 1.0)
        substituted = substituted_reference(model, 0.0, 1.0)
        assert direct == pytest.approx(substituted, abs=1e-10)

    @pytest.mark.parametrize("span", [0.5, 2.0, 10.0])
    def test_dual_route_on_spans(self, rate_jump_model, span):
        direct = a_shot(rate_jump_model, 0.0, span)
        substituted = substituted_reference(rate_jump_model, 0.0, span)
        assert direct == pytest.approx(substituted, abs=1e-10)

    def test_against_scipy_quadrature(self, rate_jump_model):
        law = rate_jump_model.law
        a = rate_jump_model.a

        def integrand(s):
            b_val = (1.0 - math.exp(-a * (5.0 - s))) / a
            return math.expm1(-law.nu * b_val + 0.5 * law.delta**2 * b_val**2)

        ref, _ = squad(integrand, 0.0, 5.0, limit=200, epsabs=1e-13, epsrel=1e-13)
        assert a_shot(rate_jump_model, 0.0, 5.0) == pytest.approx(
            rate_jump_model.lambda_r * ref, abs=1e-11
        )


    @pytest.mark.parametrize("T", [1e4, 1e6])
    def test_long_tenor(self, T):
        # before T - 40/a, B rounds to 1/a and the integrand is flat at f_inf
        model = RateModel(2.0, 0.0, 0.0, 1.0, GaussianJumpLaw(0.01, 0.02))
        law, a = model.law, model.a

        def integrand(s):
            b_val = -math.expm1(-a * (T - s)) / a
            return math.expm1(-law.nu * b_val + 0.5 * law.delta**2 * b_val**2)

        start = T - 40.0 / a
        head, _ = squad(integrand, start, T, limit=200, epsabs=0.0, epsrel=1e-13)
        ref = model.lambda_r * (head + start * integrand(0.0))
        assert a_shot(model, 0.0, T) == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_overflowing_flat_stretch_raises(self):
        # the rule covers [T - 80, T]; the flat stretch before it overflows
        model = RateModel(0.5, 0.0, 0.0, 5.0, GaussianJumpLaw(-1.0, 0.1))
        with pytest.raises(ParameterError, match="overflows"):
            a_shot(model, 0.0, 1e308)

    def test_sharp_layer_resolved_in_bounded_time(self):
        # the integrand turns over within about 1/51 of maturity, a layer that
        # 1024 nodes on one panel do not resolve; the graded panels do
        model = RateModel(0.01, 0.0, 0.0, 1.0, GaussianJumpLaw(50.0, 1.0))
        with time_limit(2.0):
            got = a_shot(model, 0.0, 5000.0)
        assert got == pytest.approx(layer_reference(model, 0.0, 5000.0)[0], rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("nu, delta, T", [(5.0, 0.3, 5000.0), (20.0, 0.1, 1000.0)])
    def test_layer_at_maturity_matches_reference(self, nu, delta, T):
        # one panel put its last node years before T, where the integrand
        # falls from 0 to about -1 within 1/nu: 16 and 32 nodes agreed on a
        # value 4.0e-5 (nu 5) and 5.0e-5 (nu 20) relative off
        model = RateModel(0.01, 0.0, 0.0, 1.0, GaussianJumpLaw(nu, delta))
        ref = layer_reference(model, 0.0, T)[0]
        assert a_shot(model, 0.0, T) == pytest.approx(ref, rel=1e-12, abs=0.0)


class TestDoublingRule:
    def test_cancelling_integral_converges(self):
        # the integral is 0; the tolerance scales with the integral of |f|
        assert doubling_gauss_legendre(np.sin, 0.0, 2.0 * math.pi, 1e-10) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_oscillatory_integrand_raises_in_bounded_time(self):
        # finite everywhere, but 1024 nodes cannot resolve 1e6 / 2 pi periods
        with time_limit(2.0), pytest.raises(QuadratureError) as info:
            doubling_gauss_legendre(lambda x: np.sin(1e6 * x), 0.0, 1.0, 1e-10)
        assert info.value.achieved > 0.0


class TestAVasicek:
    def test_trivial_zero(self):
        model = RateModel(0.5, 0.0, 0.0, 0.0, GaussianJumpLaw(0.0, 0.0))
        assert a_vasicek(model, 0.0, 5.0) == 0.0
        model2 = RateModel(0.5, 0.03, 0.01, 0.0, GaussianJumpLaw(0.0, 0.0))
        assert a_vasicek(model2, 3.0, 3.0) == 0.0

    def test_against_integral_decomposition(self):
        # A = -b a int B ds + (sigma^2/2) int B^2 ds, both by quadrature
        model = RateModel(0.5, 0.03, 0.01, 0.0, GaussianJumpLaw(0.0, 0.0))
        a, b, sig = model.a, model.b, model.sigma_r
        T = 5.0

        def b_of(s):
            return (1.0 - math.exp(-a * (T - s))) / a

        int_b, _ = squad(b_of, 0.0, T, limit=200)
        int_b2, _ = squad(lambda s: b_of(s) ** 2, 0.0, T, limit=200)
        expected = -b * a * int_b + 0.5 * sig * sig * int_b2
        assert a_vasicek(model, 0.0, T) == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("a", [10.0**k for k in range(-14, 2)] + [0.0999, 0.1001])
    def test_int_b2_matches_quadrature_for_every_a(self, a):
        # b = 0 and sigma_r = 1 leave A = (1/2) int_t^T B(s, T)^2 ds. Below
        # a (T - t) = 0.5 it is a Taylor series; the closed form there
        # cancelled every digit by a 1e-8 and overflowed at a 1e-12
        model = RateModel(a, 0.0, 1.0, 0.0, GaussianJumpLaw(0.0, 0.0))
        t, T = 1.0, 6.0
        ref, _ = squad(lambda s: b_factor(model, s, T) ** 2, t, T,
                       epsabs=0.0, epsrel=1e-13, limit=200)
        assert 2.0 * a_vasicek(model, t, T) == pytest.approx(ref, rel=1e-12)
        assert math.isfinite(bond_price(model, BondTerms(t, T, 0.03), BondVariant.VASICEK))


class TestAGeneral:
    def test_reduces_to_vasicek(self, rate_general_model):
        model = RateModel(
            rate_general_model.a,
            rate_general_model.b,
            rate_general_model.sigma_r,
            0.0,
            rate_general_model.law,
        )
        assert a_general(model, 0.0, 5.0) == a_vasicek(model, 0.0, 5.0)

    def test_reduces_to_shot(self, rate_jump_model):
        assert a_general(rate_jump_model, 0.0, 5.0) == pytest.approx(
            a_shot(rate_jump_model, 0.0, 5.0), abs=1e-16
        )

    def test_additive(self, rate_general_model):
        total = a_general(rate_general_model, 0.0, 5.0)
        parts = a_vasicek(rate_general_model, 0.0, 5.0) + a_shot(
            rate_general_model, 0.0, 5.0
        )
        assert total == pytest.approx(parts, abs=1e-14)


class TestBondPrice:
    def test_unit_at_maturity(self, rate_general_model):
        assert bond_price(rate_general_model, BondTerms(3.0, 3.0, 0.05)) == 1.0

    def test_deterministic_decay(self):
        model = RateModel(0.5, 0.03, 0.0, 0.0, GaussianJumpLaw(0.0, 0.0))
        terms = BondTerms(0.0, 5.0, 0.04)
        b_val = b_factor(model, 0.0, 5.0)
        expected = math.exp(model.b * (b_val - 5.0) - b_val * 0.04)
        assert bond_price(model, terms, BondVariant.GENERAL) == pytest.approx(
            expected, rel=1e-14
        )

    def test_log_affine_in_rate(self, rate_general_model):
        b_val = b_factor(rate_general_model, 0.0, 5.0)
        p1 = bond_price(rate_general_model, BondTerms(0.0, 5.0, 0.015))
        p2 = bond_price(rate_general_model, BondTerms(0.0, 5.0, 0.055))
        assert math.log(p1) - math.log(p2) == pytest.approx(b_val * 0.04, abs=1e-12)

    def test_decreasing_in_rate_and_maturity(self, rate_general_model):
        prices_r = [
            bond_price(rate_general_model, BondTerms(0.0, 5.0, r))
            for r in (0.0, 0.02, 0.05, 0.08)
        ]
        assert all(b < a for a, b in zip(prices_r, prices_r[1:]))
        prices_T = [
            bond_price(rate_general_model, BondTerms(0.0, T, 0.03))
            for T in (1.0, 3.0, 7.0, 15.0)
        ]
        assert all(b < a for a, b in zip(prices_T, prices_T[1:]))

    def test_overflow_is_a_typed_error(self):
        model = RateModel(0.5, 0.0, 0.0, 1.0, GaussianJumpLaw(-0.5, 2.0))
        with pytest.raises(ShotPricerError, match="exponent"):
            bond_price(model, BondTerms(0.0, 30.0, 0.03))


class TestConditionalMoments:
    def test_zero_horizon(self, rate_general_model):
        mean, var = conditional_moments(rate_general_model, 0.034, 0.0)
        assert mean == 0.034 and var == 0.0

    def test_long_run(self, rate_general_model):
        m = rate_general_model
        mean, var = conditional_moments(m, 0.01, 1e9)
        b_eff = m.b + m.lambda_r * m.law.nu / m.a
        sig2 = m.sigma_r**2 + m.lambda_r * m.law.second_moment
        assert mean == pytest.approx(b_eff, abs=1e-15)
        assert var == pytest.approx(sig2 / (2 * m.a), rel=1e-14)

    def test_jump_model_matches_gaussian_formulas(self, rate_jump_model):
        # exact coincidence with the Gaussian model's conditional moments
        m = rate_jump_model
        b_eff = m.lambda_r * m.law.nu / m.a
        sig_eff = math.sqrt(m.lambda_r * m.law.second_moment)
        gauss = RateModel(m.a, b_eff, sig_eff, 0.0, GaussianJumpLaw(0.0, 0.0))
        for h in (0.1, 1.0, 4.0):
            got = conditional_moments(m, 0.02, h)
            ref = conditional_moments(gauss, 0.02, h)
            assert got[0] == pytest.approx(ref[0], abs=1e-16)
            assert got[1] == pytest.approx(ref[1], abs=1e-18)


class TestOdeResidual:
    @pytest.mark.parametrize("variant", list(BondVariant))
    def test_b_equation(self, rate_general_model, variant):
        _, res_b = ode_residual(rate_general_model, 0.0, 5.0, variant)
        assert res_b <= 1e-10

    def test_a_closed_form(self, rate_general_model):
        res_a, _ = ode_residual(rate_general_model, 0.0, 5.0, BondVariant.VASICEK)
        assert res_a <= 1e-6

    def test_a_quadrature_paths(self, rate_general_model):
        for variant in (BondVariant.SHOT, BondVariant.GENERAL):
            res_a, _ = ode_residual(rate_general_model, 0.0, 5.0, variant)
            assert res_a <= 1e-6

    @pytest.mark.parametrize("variant", list(BondVariant))
    def test_residuals_are_python_floats(self, rate_general_model, variant):
        res = ode_residual(rate_general_model, 0.0, 5.0, variant)
        assert [type(r) for r in res] == [float, float]


class TestVariantModel:
    def test_each_variant_switches_one_block_off(self, rate_general_model):
        m = rate_general_model
        assert BondVariant.GENERAL.model(m) == m
        assert BondVariant.SHOT.model(m) == replace(m, b=0.0, sigma_r=0.0)
        assert BondVariant.VASICEK.model(m) == replace(
            m, lambda_r=0.0, law=GaussianJumpLaw(0.0, 0.0)
        )

    def test_projection_is_memoized(self, rate_general_model):
        for variant in BondVariant:
            assert variant.model(rate_general_model) is variant.model(rate_general_model)

    def test_vasicek_ignores_a_law_whose_jump_term_overflows(self, rate_general_model):
        # at nu_r -2000 exp(-nu B) overflows; no jump term forms under vasicek
        m = replace(rate_general_model, law=GaussianJumpLaw(-2000.0, 0.02))
        ref = replace(rate_general_model, lambda_r=0.0)
        terms = BondTerms(0.5, 5.0, 0.03)
        with np.errstate(all="raise"):
            got = bond_price(m, terms, "vasicek")
            res = ode_residual(m, 0.0, 5.0, "vasicek")
            pide = bond_pide_residual(m, [terms], "vasicek").max_residual
        assert got == bond_price(ref, terms)
        assert res == ode_residual(ref, 0.0, 5.0)
        assert pide == bond_pide_residual(ref, [terms]).max_residual
        assert all(math.isfinite(v) for v in (got, *res, pide))


class TestZeroYield:
    def test_simple(self):
        assert zero_yield(math.exp(-0.05), 1.0) == pytest.approx(0.05, rel=1e-14)
        assert zero_yield(1.0, 2.0) == 0.0
        assert zero_yield(math.exp(-0.2), 4.0) == pytest.approx(0.05, rel=1e-14)

    def test_domain(self):
        with pytest.raises(ParameterError):
            zero_yield(0.0, 1.0)
        with pytest.raises(ParameterError):
            zero_yield(0.9, 0.0)


class TestDiffusionLimit:
    def test_a_shot_converges_to_vasicek(self):
        drift, s2, a = 0.012, 4e-4, 0.5
        errors = []
        for n in (1, 10, 100, 1000):
            lam = float(n)
            nu = drift / lam
            delta = math.sqrt(s2 / lam)
            jump = RateModel(a, 0.0, 0.0, lam, GaussianJumpLaw(nu, delta))
            target = RateModel(
                a, lam * nu / a, math.sqrt(lam * (nu**2 + delta**2)), 0.0,
                GaussianJumpLaw(0.0, 0.0),
            )
            val = a_shot(jump, 0.0, 5.0)
            ref = a_vasicek(target, 0.0, 5.0)
            errors.append(abs(val - ref) / abs(ref))
        assert all(b < a for a, b in zip(errors, errors[1:]))
        assert errors[-1] <= 0.005

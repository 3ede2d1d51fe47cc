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
    bond_price,
    conditional_moments,
    ode_residual,
    zero_yield,
)
from shotpricer.errors import ParameterError, ShotPricerError
from shotpricer.shortrate import a_shot_substituted
from conftest import time_limit


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
        # same error as the substituted route, before any quadrature runs
        with time_limit(2.0):
            with pytest.raises(ParameterError, match="need t <= T"):
                a_shot(rate_jump_model, 2.0, 1.0)
            with pytest.raises(ParameterError, match="need t <= T"):
                a_shot_substituted(rate_jump_model, 2.0, 1.0)
            # also where there are no jumps to integrate
            with pytest.raises(ParameterError, match="need t <= T"):
                a_shot_substituted(replace(rate_jump_model, lambda_r=0.0), 2.0, 1.0)

    def test_degenerate_law(self):
        model = RateModel(0.5, 0.0, 0.0, 2.0, GaussianJumpLaw(0.0, 0.0))
        assert a_shot(model, 0.0, 4.0) == 0.0

    def test_dual_route_agreement(self):
        model = RateModel(0.5, 0.0, 0.0, 1.0, GaussianJumpLaw(0.01, 0.02))
        direct = a_shot(model, 0.0, 1.0)
        substituted = a_shot_substituted(model, 0.0, 1.0)
        assert direct == pytest.approx(substituted, abs=1e-10)

    @pytest.mark.parametrize("span", [0.5, 2.0, 10.0])
    def test_dual_route_on_spans(self, rate_jump_model, span):
        direct = a_shot(rate_jump_model, 0.0, span)
        substituted = a_shot_substituted(rate_jump_model, 0.0, span)
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

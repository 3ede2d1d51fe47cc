"""Monte Carlo oracles: determinism, unbiasedness, exactness properties."""

import math

import pytest

from shotpricer import (
    AssetModel,
    BondTerms,
    BondVariant,
    GaussianJumpLaw,
    OptionKind,
    OptionTerms,
    RateModel,
    SimConfig,
    bond_price,
    bs_price,
    conditional_moments,
    mc_bond_price,
    mc_option_price,
    mc_rate_moments,
    price,
)
from shotpricer.errors import ParameterError

from conftest import make_terms


class TestDeterminism:
    def test_option_repeatable(self, jump_model, atm_call):
        sim = SimConfig(paths=50_000, seed=123)
        one = mc_option_price(atm_call, jump_model, sim)
        two = mc_option_price(atm_call, jump_model, sim)
        assert one == two

    def test_bond_repeatable(self, rate_general_model):
        sim = SimConfig(paths=50_000, seed=99, antithetic=True)
        terms = BondTerms(0.0, 5.0, 0.03)
        assert mc_bond_price(rate_general_model, terms, sim) == mc_bond_price(
            rate_general_model, terms, sim
        )

    def test_seed_changes_estimate(self, jump_model, atm_call):
        one = mc_option_price(atm_call, jump_model, SimConfig(paths=50_000, seed=1))
        two = mc_option_price(atm_call, jump_model, SimConfig(paths=50_000, seed=2))
        assert one.mean != two.mean

    def test_validation(self):
        with pytest.raises(ParameterError):
            SimConfig(paths=0)
        with pytest.raises(ParameterError):
            SimConfig(paths=10, seed=-1)


class TestMartingale:
    def test_discounted_forward(self, mixed_model):
        # strike ~ 0 turns the call into the discounted asset itself
        terms = make_terms(100.0, 1e-12, tau=1.0, rate=0.02, dividend=0.01)
        est = mc_option_price(terms, mixed_model, SimConfig(paths=400_000, seed=17))
        target = 100.0 * math.exp(-0.01)
        assert abs(est.mean - target) <= 3.0 * est.std_error

    def test_bs_limit(self):
        model = AssetModel(0.0, GaussianJumpLaw(0.0, 0.1), 0.2)
        terms = make_terms(100, 100, 1.0, 0.02)
        est = mc_option_price(terms, model, SimConfig(paths=400_000, seed=5))
        assert abs(est.mean - bs_price(terms, 0.2).value) <= 3.0 * est.std_error


class TestErrorScaling:
    def test_quadrupling_halves_std_error(self, jump_model, atm_call):
        small = mc_option_price(atm_call, jump_model, SimConfig(paths=50_000, seed=3))
        big = mc_option_price(atm_call, jump_model, SimConfig(paths=200_000, seed=3))
        ratio = small.std_error / big.std_error
        assert ratio == pytest.approx(2.0, rel=0.2)

    def test_antithetic_reduces_variance_for_diffusion(self):
        model = AssetModel(0.0, GaussianJumpLaw(0.0, 0.1), 0.2)
        terms = make_terms(100, 100, 1.0, 0.02)
        plain = mc_option_price(terms, model, SimConfig(paths=100_000, seed=7))
        anti = mc_option_price(terms, model, SimConfig(paths=100_000, seed=7, antithetic=True))
        assert anti.std_error < plain.std_error
        assert anti.paths_used == 100_000


class TestUnbiasedness:
    def test_option_twenty_seeds(self, jump_model):
        terms = make_terms(100, 105, 1.0, 0.02)
        analytic = price(terms, jump_model).value
        hits = 0
        for seed in range(20):
            est = mc_option_price(terms, jump_model, SimConfig(paths=100_000, seed=seed))
            if abs(est.mean - analytic) <= 3.0 * est.std_error:
                hits += 1
        assert hits >= 19

    def test_bond_twenty_seeds(self, rate_general_model):
        terms = BondTerms(0.0, 5.0, 0.03)
        analytic = bond_price(rate_general_model, terms, BondVariant.GENERAL)
        hits = 0
        for seed in range(20):
            est = mc_bond_price(rate_general_model, terms, SimConfig(paths=50_000, seed=seed))
            if abs(est.mean - analytic) <= 3.0 * est.std_error:
                hits += 1
        assert hits >= 19


class TestBondSampler:
    def test_deterministic_model_is_exact(self):
        model = RateModel(0.5, 0.03, 0.0, 0.0, GaussianJumpLaw(0.0, 0.0))
        terms = BondTerms(0.0, 5.0, 0.04)
        est = mc_bond_price(model, terms, SimConfig(paths=64, seed=11))
        assert est.std_error == 0.0
        assert est.mean == pytest.approx(
            bond_price(model, terms, BondVariant.GENERAL), rel=1e-14
        )

    def test_gaussian_only_variance_matches_closed_form(self):
        # lam = 0: log-discount is Gaussian with known variance, so the
        # estimator's dispersion is checkable directly
        model = RateModel(0.5, 0.03, 0.02, 0.0, GaussianJumpLaw(0.0, 0.0))
        terms = BondTerms(0.0, 5.0, 0.03)
        a = model.a
        span = 5.0
        b_val = (1.0 - math.exp(-a * span)) / a
        int_b2 = (span - 2 * b_val + (1 - math.exp(-2 * a * span)) / (2 * a)) / a**2
        var_log = model.sigma_r**2 * int_b2
        det = terms.r_t * b_val + model.b * (span - b_val)
        # lognormal moments of exp(-integral)
        mean_exact = math.exp(-det + 0.5 * var_log)
        sd_exact = mean_exact * math.sqrt(math.expm1(var_log))
        est = mc_bond_price(model, terms, SimConfig(paths=200_000, seed=21))
        assert abs(est.mean - mean_exact) <= 3.0 * est.std_error
        assert est.std_error == pytest.approx(sd_exact / math.sqrt(200_000), rel=0.05)

    def test_shot_model_concordance(self, rate_jump_model):
        terms = BondTerms(0.0, 5.0, 0.03)
        analytic = bond_price(rate_jump_model, terms, BondVariant.SHOT)
        est = mc_bond_price(rate_jump_model, terms, SimConfig(paths=400_000, seed=13))
        assert abs(est.mean - analytic) <= 3.0 * est.std_error


class TestRateMoments:
    def test_matches_conditional_moments(self, rate_general_model):
        mean, var = conditional_moments(rate_general_model, 0.03, 1.0)
        m_est, v_est = mc_rate_moments(
            rate_general_model, 0.03, 1.0, SimConfig(paths=400_000, seed=23)
        )
        assert abs(m_est.mean - mean) <= 3.0 * m_est.std_error
        assert abs(v_est.mean - var) <= 3.0 * v_est.std_error

    def test_short_horizon_pins_start(self, rate_jump_model):
        m_est, _ = mc_rate_moments(
            rate_jump_model, 0.05, 1e-4, SimConfig(paths=100_000, seed=29)
        )
        assert abs(m_est.mean - 0.05) <= max(3.0 * m_est.std_error, 1e-6)

    def test_repeatable(self, rate_jump_model):
        sim = SimConfig(paths=50_000, seed=41)
        assert mc_rate_moments(rate_jump_model, 0.03, 1.0, sim) == mc_rate_moments(
            rate_jump_model, 0.03, 1.0, sim
        )



class TestJumpBudget:
    def test_batch_past_budget_raises_before_drawing(self, rate_jump_model):
        # 2^16 paths expecting 300 jumps each would hold 2e7 jumps per batch
        model = RateModel(0.5, 0.0, 0.0, 300.0, rate_jump_model.law)
        sim = SimConfig(paths=1 << 16, seed=5)
        with pytest.raises(ParameterError, match="expected jump count"):
            mc_bond_price(model, BondTerms(0.0, 1.0, 0.03), sim)
        with pytest.raises(ParameterError, match="expected jump count"):
            mc_rate_moments(model, 0.03, 1.0, sim)

    def test_few_paths_may_expect_many_jumps(self, rate_jump_model):
        model = RateModel(0.5, 0.0, 0.0, 300.0, rate_jump_model.law)
        est = mc_bond_price(model, BondTerms(0.0, 1.0, 0.03), SimConfig(paths=10, seed=5))
        assert math.isfinite(est.mean) and est.paths_used == 10

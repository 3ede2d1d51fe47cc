"""Option valuation: payoffs, parity, reductions, bounds, Monte Carlo."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.special import ndtr

from shotpricer import (
    AssetModel,
    Backend,
    GaussianJumpLaw,
    OptionKind,
    OptionTerms,
    QuadratureSpec,
    SimConfig,
    bs_price,
    l_parameter,
    log_moneyness,
    mc_option_price,
    parity_residual,
    payoff,
    price,
    varsigma,
)
from shotpricer.errors import DegenerateMaturityError, ParameterError
from shotpricer import validation
from shotpricer.transform import DEFAULT_QUAD
from shotpricer.validation import _node_values, option_pide_residual

from conftest import make_terms


class TestBasics:
    def test_log_moneyness(self):
        assert log_moneyness(make_terms(100, 100)) == 0.0
        assert log_moneyness(make_terms(100, 50)) == pytest.approx(math.log(2.0))
        assert log_moneyness(make_terms(50, 100)) == pytest.approx(-math.log(2.0))

    def test_payoff(self):
        assert payoff(make_terms(120, 100, kind=OptionKind.CALL)) == 20.0
        assert payoff(make_terms(120, 100, kind=OptionKind.PUT)) == 0.0
        assert payoff(make_terms(100, 100, kind=OptionKind.CALL)) == 0.0
        assert payoff(make_terms(100, 100, kind=OptionKind.PUT)) == 0.0

    def test_invalid_terms(self):
        with pytest.raises(ParameterError):
            make_terms(spot=-1.0)
        with pytest.raises(ParameterError):
            make_terms(strike=0.0)
        with pytest.raises(ParameterError):
            make_terms(tau=-0.5)


class TestLParameter:
    def test_trivial_zero(self):
        model = AssetModel(0.0, GaussianJumpLaw(0.0, 0.0), 0.0)
        assert l_parameter(make_terms(), model) == 0.0

    def test_diffusive_drift(self):
        model = AssetModel(0.0, GaussianJumpLaw(0.0, 0.0), 0.2)
        assert l_parameter(make_terms(), model) == pytest.approx(-0.02)

    def test_jump_compensator(self):
        law = GaussianJumpLaw(0.1, 0.2)
        model = AssetModel(1.0, law, 0.0)
        # frozen: varsigma(0.1, 0.2) = 0.12749685157937566
        assert l_parameter(make_terms(), model) == pytest.approx(
            -0.12749685157937566, abs=1e-14
        )

    def test_zero_tau_rejected(self):
        model = AssetModel(1.0, GaussianJumpLaw(0.0, 0.1), 0.0)
        with pytest.raises(DegenerateMaturityError):
            l_parameter(make_terms(tau=0.0), model)


class TestPrice:
    def test_expiry_returns_payoff(self, jump_model):
        res = price(make_terms(120, 100, tau=0.0), jump_model)
        assert res.value == 20.0

    def test_bs_reduction_value(self):
        # frozen: 100 (2 Phi(0.1) - 1) = 7.965567455405798
        model = AssetModel(0.0, GaussianJumpLaw(0.0, 0.1), 0.2)
        res = price(make_terms(), model)
        assert res.value == pytest.approx(7.965567455405798, abs=1e-9)
        assert res.value == pytest.approx(bs_price(make_terms(), 0.2).value, abs=1e-12)

    def test_deterministic_forward(self):
        model = AssetModel(0.0, GaussianJumpLaw(0.0, 0.0), 0.0)
        terms = make_terms(100, 90, tau=2.0, rate=0.05, dividend=0.01)
        res = price(terms, model)
        expected = 100 * math.exp(-0.02) - 90 * math.exp(-0.1)
        assert res.value == pytest.approx(expected, rel=1e-14)
        put = price(
            make_terms(100, 90, tau=2.0, rate=0.05, dividend=0.01, kind=OptionKind.PUT),
            model,
        )
        assert put.value == 0.0

    def test_matches_mc_oracle(self, jump_model):
        terms = make_terms(100, 100, tau=1.0, rate=0.02)
        analytic = price(terms, jump_model).value
        est = mc_option_price(terms, jump_model, SimConfig(paths=400_000, seed=31))
        assert abs(analytic - est.mean) <= 3.0 * est.std_error

    def test_backends_agree(self, mixed_model):
        terms = make_terms(100, 105, tau=0.8, rate=0.03, dividend=0.01)
        a = price(terms, mixed_model, Backend.SERIES).value
        b = price(terms, mixed_model, Backend.FOURIER).value
        assert a == pytest.approx(b, abs=1e-6)

    def test_fourier_price_runs_one_grid_and_reports_its_error(self, monkeypatch):
        import shotpricer.options as options_mod
        import shotpricer.transform as transform_mod

        original = transform_mod.fourier_grid
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(options_mod, "fourier_grid", counted, raising=False)
        monkeypatch.setattr(transform_mod, "fourier_grid", counted)
        model = AssetModel(1.0, GaussianJumpLaw(0.0, 0.1), 0.0)
        for kind in (OptionKind.CALL, OptionKind.PUT):
            calls.clear()
            terms = make_terms(100, 100, tau=1.0, rate=0.03, kind=kind)
            res = price(terms, model, Backend.FOURIER)
            assert len(calls) == 1
            # the grid's measured spread, far below the (S + K) rel_tol formula
            assert res.est_error < (terms.spot + terms.strike) * 1e-9 / 100.0
            assert res.value == pytest.approx(price(terms, model).value, abs=1e-7)

    def test_value_bounds(self, mixed_model):
        for strike in (60.0, 90.0, 100.0, 130.0, 200.0):
            terms = make_terms(100, strike, tau=1.2, rate=0.03, dividend=0.01)
            c = price(terms, mixed_model).value
            lower = max(
                100 * math.exp(-0.01 * 1.2) - strike * math.exp(-0.03 * 1.2), 0.0
            )
            assert lower - 1e-10 <= c <= 100 * math.exp(-0.01 * 1.2) + 1e-10

    def test_monotone_in_spot_and_tau(self, jump_model):
        calls = [
            price(make_terms(s, 100, tau=1.0), jump_model).value for s in (80, 95, 110, 130)
        ]
        assert all(b > a for a, b in zip(calls, calls[1:]))
        puts = [
            price(make_terms(s, 100, tau=1.0, kind=OptionKind.PUT), jump_model).value
            for s in (80, 95, 110, 130)
        ]
        assert all(b < a for a, b in zip(puts, puts[1:]))
        in_tau = [
            price(make_terms(100, 100, tau=t), jump_model).value for t in (0.25, 0.5, 1.0, 2.0)
        ]
        assert all(b > a for a, b in zip(in_tau, in_tau[1:]))

    def test_price_continuous_at_kink(self):
        # sigma = 0: delta jumps at l = 0, price does not
        law = GaussianJumpLaw(0.05, 0.1)
        model = AssetModel(1.0, law, 0.0)
        rate, tau = 0.02, 1.0
        # choose strike so l = 0 exactly: x = -(r - lam varsigma) tau
        x_kink = -(rate - varsigma(law)) * tau
        strike = 100.0 / math.exp(x_kink)
        terms = make_terms(100.0, strike, tau=tau, rate=rate)
        assert l_parameter(terms, model) == pytest.approx(0.0, abs=1e-13)
        at = price(terms, model).value
        lo = price(make_terms(100.0 * (1 - 1e-9), strike, tau=tau, rate=rate), model).value
        hi = price(make_terms(100.0 * (1 + 1e-9), strike, tau=tau, rate=rate), model).value
        assert lo <= at <= hi
        assert hi - lo < 1e-6

    def test_deep_otm_put_keeps_its_size(self, mixed_model):
        # 1 - L cancels to nothing this far out; the survival route does not
        far = price(make_terms(100.0, 20.0, rate=0.03, dividend=0.01, kind="put"), mixed_model)
        near = price(make_terms(100.0, 30.0, rate=0.03, dividend=0.01, kind="put"), mixed_model)
        assert 0.0 < far.value < near.value

    @pytest.mark.parametrize("sigma", [0.0, 0.2])
    def test_tight_tolerance_at_high_intensity(self, sigma):
        # lam tau 1000 at rel_tol 1e-12 keeps a window whose dropped Poisson
        # mass is below 1e-13; 1 minus the rounded window sum read 3e-13
        model = AssetModel(1000.0, GaussianJumpLaw(-0.05, 0.15), sigma)
        terms = make_terms(100.0, 100.0, rate=0.03)
        tight = price(terms, model, quad=QuadratureSpec(rel_tol=1e-12)).value
        assert tight == pytest.approx(price(terms, model).value, rel=1e-9)


class TestBsPrice:
    def test_atm_value(self):
        assert bs_price(make_terms(), 0.2).value == pytest.approx(
            7.965567455405798, abs=1e-9
        )

    def test_parity_symmetric_point(self):
        call = bs_price(make_terms(), 0.2).value
        put = bs_price(make_terms(kind=OptionKind.PUT), 0.2).value
        assert call == pytest.approx(put, abs=1e-12)

    def test_deep_itm(self):
        terms = make_terms(1000.0, 1.0, tau=1.0, rate=0.03)
        res = bs_price(terms, 0.2)
        assert res.value == pytest.approx(1000.0 - math.exp(-0.03), abs=1e-9)

    def test_put_formula(self):
        terms = make_terms(90.0, 100.0, tau=0.5, rate=0.04, dividend=0.01, kind=OptionKind.PUT)
        sigma = 0.25
        sq = sigma * math.sqrt(0.5)
        d1 = (math.log(0.9) + (0.03 + 0.5 * sigma**2) * 0.5) / sq
        d2 = d1 - sq
        expected = 100 * math.exp(-0.02) * ndtr(-d2) - 90 * math.exp(-0.005) * ndtr(-d1)
        assert bs_price(terms, sigma).value == pytest.approx(expected, rel=1e-13)


class TestParity:
    def test_bs_case_exact(self):
        model = AssetModel(0.0, GaussianJumpLaw(0.0, 0.1), 0.2)
        terms = make_terms(100, 90, tau=1.0, rate=0.04, dividend=0.02)
        assert abs(parity_residual(terms, model)) < 1e-12

    @pytest.mark.parametrize("lam_tau", [0.25, 1.0, 4.0])
    @pytest.mark.parametrize("sigma", [0.0, 0.2])
    def test_grid(self, lam_tau, sigma):
        model = AssetModel(lam_tau, GaussianJumpLaw(0.1, 0.3), sigma)
        terms = make_terms(100, 105, tau=1.0, rate=0.03, dividend=0.01)
        assert abs(parity_residual(terms, model)) <= 1e-8 * 105

    def test_expiry_payoff_identity(self, jump_model):
        for s in (80.0, 100.0, 125.0):
            call = payoff(make_terms(s, 100, tau=0.0, kind=OptionKind.CALL))
            put = payoff(make_terms(s, 100, tau=0.0, kind=OptionKind.PUT))
            assert call - put == pytest.approx(s - 100.0)


class TestWingAccuracy:
    # References: the Merton mixture sum_n P_n e^{-r tau} E[payoff | n jumps],
    # each term a Black-Scholes price, in 50-digit arithmetic (mpmath).
    # Survivals are summed directly, so the far wings keep their relative size.
    @pytest.mark.parametrize(
        "strike, kind, reference",
        [
            (150.0, OptionKind.CALL, 0.019511171624853050056),
            (300.0, OptionKind.CALL, 3.1251539046628471778e-7),
            (500.0, OptionKind.CALL, 4.7865013604080386176e-11),
            (60.0, OptionKind.PUT, 0.0085888096667605087731),
            (25.0, OptionKind.PUT, 3.5228676536803609003e-8),
            (15.0, OptionKind.PUT, 1.4365174248001838671e-11),
        ],
    )
    def test_deep_otm_series_price_is_relatively_accurate(self, strike, kind, reference):
        model = AssetModel(1.0, GaussianJumpLaw(-0.05, 0.15), 0.2)
        terms = OptionTerms(100.0, strike, 0.25, 0.03, 0.0, kind)
        assert price(terms, model).value == pytest.approx(reference, rel=1e-12, abs=0.0)


def _per_spot_prices(terms, model, spots):
    """Reference: one contract and one scalar price() per spot."""
    return [
        price(dataclasses.replace(terms, spot=s), model, Backend.SERIES).value for s in spots
    ]


def _node_prices(terms, model, spots):
    """The PIDE residual's node values at ``spots``, as jumps eta = ln(s / S)."""
    eta = np.log(np.array(spots) / terms.spot)
    return _node_values(terms, model, l_parameter(terms, model), eta, DEFAULT_QUAD).tolist()


class TestShiftedPrices:
    """The PIDE residual values one contract at shifted spots S e^eta through
    the thresholds l0 + eta (``validation._node_values``); those are the
    scalar prices at the spots, to rounding relative to their size."""

    @pytest.mark.parametrize("kind", [OptionKind.CALL, OptionKind.PUT])
    @pytest.mark.parametrize("sigma", [0.0, 0.2])
    def test_equal_to_per_spot_prices(self, kind, sigma):
        model = AssetModel(1.5, GaussianJumpLaw(-0.05, 0.15), sigma)
        terms = OptionTerms(100.0, 95.0, 0.75, 0.03, 0.01, kind)
        spots = [95.0 * math.exp(x) for x in np.linspace(-1.5, 1.5, 41)] + [1e-3, 1e5, 100.0]
        expected = _per_spot_prices(terms, model, spots)
        got = _node_prices(terms, model, spots)
        # measured at most 2.4e-13 relative (a 1e-86 call at spot 1e-3)
        assert got == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert got[-1] == expected[-1]  # eta = 0: the same bits

    @pytest.mark.parametrize("kind", [OptionKind.CALL, OptionKind.PUT])
    def test_node_on_the_atom_reads_the_right_limit(self, kind):
        # varsigma = e^{nu + delta^2/2} - 1 = 0 and r = q: the drift is 0, so
        # the spot K has l = 0 exactly, on the sigma = 0 atom
        law = GaussianJumpLaw(-0.125, 0.5)
        assert varsigma(law) == 0.0
        model = AssetModel(1.0, law, 0.0)
        terms = OptionTerms(100.0, 100.0, 1.0, 0.02, 0.02, kind)
        assert l_parameter(terms, model) == 0.0
        spots = [99.0, 100.0, 101.0]
        expected = _per_spot_prices(terms, model, spots)
        got = _node_prices(terms, model, spots)
        assert got[1] == expected[1]
        assert got == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("sigma", [0.0, 0.2])
    @pytest.mark.parametrize("tau", [0.0, 1.0])
    def test_degenerate_contracts(self, monkeypatch, sigma, tau):
        # expiry is rejected, and a model without jumps has no jump term: the
        # residual values no node for either
        def no_nodes(*args):
            raise AssertionError("a node was valued")

        monkeypatch.setattr(validation, "_node_values", no_nodes)
        model = AssetModel(0.0, GaussianJumpLaw(0.0, 0.1), sigma)
        terms = OptionTerms(110.0, 100.0, tau, 0.03, 0.0, OptionKind.PUT)
        report = option_pide_residual([terms], model)
        assert report.grid_points == (0 if tau == 0.0 else 1)
        assert report.max_residual <= 1e-8

"""Residual verification: PIDEs, backend agreement, diffusion limits."""

import dataclasses
import math

import numpy as np
import pytest

from shotpricer import (
    AssetModel,
    BondTerms,
    BondVariant,
    GaussianJumpLaw,
    OptionKind,
    OptionTerms,
    RateModel,
    backend_agreement,
    bond_pide_residual,
    bs_greeks,
    bs_price,
    diffusion_convergence,
    option_pide_residual,
)
from shotpricer import validation
from shotpricer._quad import gauss_hermite
from shotpricer.errors import ParameterError
from shotpricer.greeks import fd_sensitivity
from shotpricer.options import Backend, price, varsigma
from shotpricer.shortrate import b_factor, bond_price
from shotpricer.transform import DEFAULT_QUAD, _series_values
from conftest import make_terms


def option_grid(xs=(-0.25, 0.12, 0.3), taus=(0.5, 1.0), r=0.03, q=0.01, strike=100.0):
    return [
        OptionTerms(
            spot=strike * math.exp(x), strike=strike, tau=tau, rate=r, dividend=q,
            kind=OptionKind.CALL,
        )
        for x in xs
        for tau in taus
    ]


class TestOptionPide:
    def test_black_scholes_case(self):
        model = AssetModel(0.0, GaussianJumpLaw(0.0, 0.1), 0.2)
        rep = option_pide_residual(option_grid(xs=(-0.1, 0.0, 0.15), taus=(0.75, 1.0, 1.5)), model)
        assert rep.max_residual <= 1e-6

    def test_pure_jump_case(self):
        model = AssetModel(1.0, GaussianJumpLaw(0.05, 0.1), 0.0)
        rep = option_pide_residual(option_grid(), model)
        assert rep.max_residual <= 1e-4
        assert rep.grid_points == 6

    def test_jump_diffusion_case(self):
        model = AssetModel(0.5, GaussianJumpLaw(0.05, 0.1), 0.15)
        rep = option_pide_residual(option_grid(), model)
        assert rep.max_residual <= 1e-4

    def test_kink_points_rejected(self):
        from shotpricer import varsigma

        model = AssetModel(1.0, GaussianJumpLaw(0.05, 0.1), 0.0)
        # x chosen so l = 0, dead on the atom
        bad_x = -(0.03 - 0.01 - model.lam * varsigma(model.law)) * 1.0
        grid = option_grid(xs=(bad_x,), taus=(1.0,))
        rep = option_pide_residual(grid, model)
        assert rep.grid_points == 0
        assert len(rep.rejected_points) == 1

    def test_short_maturity_rejected(self):
        model = AssetModel(1.0, GaussianJumpLaw(0.05, 0.1), 0.0)
        rep = option_pide_residual(option_grid(taus=(0.01,)), model)
        assert rep.grid_points == 0
        assert all(reason == "tau too small" for *_, reason in rep.rejected_points)

    def test_hermite_node_count_sufficient(self):
        model = AssetModel(0.5, GaussianJumpLaw(0.05, 0.1), 0.15)
        grid = option_grid(xs=(-0.25, 0.12), taus=(1.0,))
        assert option_pide_residual(grid, model).max_residual <= 1e-10

    @pytest.mark.parametrize("rate", [3.8e-5, 7.8e-6])
    def test_near_zero_rate(self, rate):
        # the normaliser max(|r C|, 1e-3) sits at its floor here, so the
        # residual shows any error in the derivatives at full size
        model = AssetModel(1.0, GaussianJumpLaw(-0.05, 0.15), 0.245)
        terms = OptionTerms(
            spot=100.0, strike=70.0, tau=1.0, rate=rate, dividend=0.0, kind=OptionKind.CALL
        )
        assert option_pide_residual([terms], model).max_residual <= 1e-9


class TestBondPide:
    def grid(self):
        return [
            BondTerms(t=t, T=5.0, r_t=r) for t in (0.5, 2.0, 4.0) for r in (0.01, 0.03, 0.06)
        ]

    def test_first_order_degenerate(self):
        model = RateModel(0.5, 0.0, 0.0, 0.0, GaussianJumpLaw(0.0, 0.0))
        rep = bond_pide_residual(model, self.grid(), BondVariant.SHOT)
        assert rep.max_residual <= 1e-6

    def test_shot_model(self, rate_jump_model):
        rep = bond_pide_residual(rate_jump_model, self.grid(), BondVariant.SHOT)
        assert rep.max_residual <= 1e-4

    def test_general_model(self, rate_general_model):
        rep = bond_pide_residual(rate_general_model, self.grid(), BondVariant.GENERAL)
        assert rep.max_residual <= 1e-4

    def test_vasicek_variant_has_no_jump_term(self, rate_general_model):
        rep = bond_pide_residual(rate_general_model, self.grid(), BondVariant.VASICEK)
        assert rep.max_residual <= 1e-4

    @pytest.mark.parametrize("variant", list(BondVariant))
    def test_valuation_date(self, rate_general_model, variant):
        rep = bond_pide_residual(rate_general_model, [BondTerms(t=0.0, T=5.0, r_t=0.03)], variant)
        assert rep.grid_points == 1
        assert rep.max_residual <= 1e-8


class TestBackendAgreement:
    def test_default_grid(self):
        rep = backend_agreement()
        assert rep.max_residual <= 1e-7
        assert rep.grid_points == 216

    def test_atom_points_excluded(self):
        from shotpricer import CharSpec
        import numpy as np

        spec = CharSpec(tau=1.0, lam=1.0, sigma=0.0, law=GaussianJumpLaw(0.0, 0.1))
        rep = backend_agreement(grid=[(spec, np.array([-0.5, 0.0, 0.5]))])
        assert rep.grid_points == 2
        assert len(rep.rejected_points) == 1


class TestDiffusionConvergence:
    def test_errors_monotone_and_small(self):
        rows = diffusion_convergence()
        for prev, cur in zip(rows, rows[1:]):
            assert cur.price_error < prev.price_error
            assert cur.greek_error < prev.greek_error
            assert cur.bond_error < prev.bond_error
        final = rows[-1]
        assert final.price_error <= 0.01
        assert final.greek_error <= 0.01
        assert final.bond_error <= 0.005

    def test_numbers_are_python_floats(self):
        # scipy.special returns numpy scalars; reports carry plain floats
        records = [diffusion_convergence()[0]]
        for kind in OptionKind:
            terms = make_terms(strike=95.0, rate=0.03, dividend=0.01, kind=kind)
            records += [bs_price(terms, 0.2), bs_greeks(terms, 0.2)]
        for record in records:
            for field in dataclasses.fields(record):
                value = getattr(record, field.name)
                expected = {"scale": int, "backend": Backend}.get(field.name, float)
                assert type(value) is expected, (type(record).__name__, field.name, type(value))


def _per_threshold_block(spec, ls, quad):
    """Reference for the residual's node block: one scalar series pass per threshold."""
    return [_series_values(spec, float(l), quad) for l in ls]


class TestBatchedJumpExpectations:
    """The residuals price every jump node in one pass; each point's residual
    is the one a scalar pass per node gives, bit for bit."""

    @pytest.mark.parametrize("kind", [OptionKind.CALL, OptionKind.PUT])
    @pytest.mark.parametrize(
        "model",
        [
            AssetModel(1.0, GaussianJumpLaw(0.05, 0.1), 0.0),
            AssetModel(0.7, GaussianJumpLaw(-0.08, 0.2), 0.0),
            AssetModel(0.5, GaussianJumpLaw(0.05, 0.1), 0.15),
            AssetModel(1.0, GaussianJumpLaw(0.1, 0.0), 0.0),
        ],
    )
    def test_option_residual_equals_per_node_reference(self, monkeypatch, kind, model):
        grid = [dataclasses.replace(t, kind=kind) for t in option_grid()]
        batched = [option_pide_residual([t], model) for t in grid]
        monkeypatch.setattr(validation, "_series_block", _per_threshold_block)
        assert [option_pide_residual([t], model) for t in grid] == batched

    def test_option_node_on_the_atom(self, monkeypatch):
        # delta = 0 prices one node, l0 + nu; with zero drift and nu = -x0 it
        # sits at l = 0, on the sigma = 0 atom, where it reads the right limit
        x0 = math.log(128.0 / 100.0)
        law = GaussianJumpLaw(-x0, 0.0)
        model = AssetModel(1.0, law, 0.0)
        terms = OptionTerms(128.0, 100.0, 1.0, varsigma(law), 0.0, OptionKind.CALL)
        l0 = validation.l_parameter(terms, model)
        assert l0 + law.nu == 0.0
        node = validation._node_values(terms, model, l0, np.array([law.nu]), DEFAULT_QUAD)
        at_spot = price(dataclasses.replace(terms, spot=128.0 * math.exp(law.nu)), model)
        assert node[0] == pytest.approx(at_spot.value, rel=1e-12)
        batched = option_pide_residual([terms], model)
        monkeypatch.setattr(validation, "_series_block", _per_threshold_block)
        assert option_pide_residual([terms], model) == batched

    def test_underflowing_node_is_worth_zero(self, monkeypatch):
        # the node's spot S e^{-800} underflows to 0, where the call is worth 0
        model = AssetModel(1.0, GaussianJumpLaw(-800.0, 0.0), 0.0)
        terms = OptionTerms(100.0, 100.0, 1.0, 0.03, 0.0, OptionKind.CALL)
        l0 = validation.l_parameter(terms, model)
        eta = np.array([-800.0])
        assert validation._node_values(terms, model, l0, eta, DEFAULT_QUAD).tolist() == [0.0]
        report = option_pide_residual([terms], model)
        assert report.grid_points == 1 and math.isfinite(report.max_residual)
        monkeypatch.setattr(validation, "_series_block", _per_threshold_block)
        assert option_pide_residual([terms], model) == report

    @pytest.mark.parametrize("sigma", [0.0, 0.2])
    def test_overflowing_node_raises(self, sigma):
        # the spot 1e304 ~ e^{699.98} is inside the bound OptionTerms puts on a
        # discounted spot, e^{700}; the node S e^{0.5} is past it
        model = AssetModel(1.0, GaussianJumpLaw(0.5, 0.0), sigma)
        terms = OptionTerms(1e304, 1e304, 1.0, 0.03, 0.0, OptionKind.PUT)
        with pytest.raises(ParameterError, match="jump node overflows"):
            option_pide_residual([terms], model)

    @pytest.mark.parametrize("variant", list(BondVariant))
    def test_bond_residual_equals_per_node_reference(self, rate_general_model, variant):
        model = rate_general_model
        grid = (BondTerms(0.5, 5.0, 0.01), BondTerms(2.0, 5.0, 0.06), BondTerms(0.0, 1.0, 0.0))
        for terms in grid:
            got = bond_pide_residual(model, [terms], variant).max_residual
            assert got == _bond_residual_reference(model, terms, variant)


def _bond_residual_reference(model, terms, variant):
    """One point's term-structure residual with every price a bond_price call."""
    u, w = gauss_hermite(validation._GH_NODES)
    eta = model.law.nu + model.law.delta * u

    def value(maturity, r):
        return bond_price(model, BondTerms(terms.t, maturity, r), variant)

    b_val = b_factor(model, terms.t, terms.T)
    p0 = value(terms.T, terms.r_t)
    p_t = -fd_sensitivity(lambda s: value(s, terms.r_t), terms.T, validation._MATURITY_STEP)
    p_r = -b_val * p0
    jump_term = 0.0
    if variant is not BondVariant.VASICEK:
        shifted = np.array([value(terms.T, terms.r_t + e) for e in eta])
        jump_term = model.lambda_r * float(np.dot(w, shifted - p0))
    if variant is BondVariant.SHOT:
        drift, diff = -model.a * terms.r_t * p_r, 0.0
    else:
        drift = model.a * (model.b - terms.r_t) * p_r
        diff = 0.5 * model.sigma_r**2 * b_val * b_val * p0
    res = p_t + drift + diff + jump_term - terms.r_t * p0
    return abs(res) / max(abs(terms.r_t * p0), validation._NORM_FLOOR)

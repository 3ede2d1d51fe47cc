"""Residual verification: PIDEs, backend agreement, diffusion limits."""

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
    backend_agreement,
    bond_pide_residual,
    diffusion_convergence,
    option_pide_residual,
)
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

"""Property-based invariants over randomized parameters."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from shotpricer import (
    AssetModel,
    BondTerms,
    CharSpec,
    GaussianJumpLaw,
    OptionKind,
    OptionTerms,
    RateModel,
    SimConfig,
    a_vasicek,
    b_factor,
    bs_greeks,
    bs_price,
    cdf_plain,
    cdf_tilted,
    char_function,
    conditional_moments,
    mc_bond_price,
    mc_option_price,
    mc_rate_moments,
    new_greeks,
    parity_residual,
    price,
    survival_plain,
    survival_tilted,
    varsigma,
    xi,
    zero_yield,
)
from shotpricer.errors import ParameterError, ShotPricerError, TruncationError
from shotpricer.shortrate import a_shot_substituted
from shotpricer.transform import DEFAULT_QUAD, fourier_grid, series_lset

from conftest import time_limit

nu_st = st.floats(min_value=-0.5, max_value=0.5)
delta_st = st.floats(min_value=0.0, max_value=0.6)
delta_pos_st = st.floats(min_value=0.02, max_value=0.6)
lam_st = st.floats(min_value=0.0, max_value=5.0)
lam_pos_st = st.floats(min_value=0.05, max_value=5.0)
sigma_st = st.floats(min_value=0.0, max_value=0.5)
k_st = st.floats(min_value=-25.0, max_value=25.0)
tau_st = st.floats(min_value=0.05, max_value=3.0)
strike_st = st.floats(min_value=40.0, max_value=250.0)
rate_st = st.floats(min_value=-0.02, max_value=0.12)


@settings(max_examples=60, deadline=None)
@given(nu=nu_st, delta=delta_st)
def test_xi_pins(nu, delta):
    law = GaussianJumpLaw(nu, delta)
    assert xi(law, 0.0) == 0.0
    tilt = xi(law, -1j)
    assert tilt.imag == pytest.approx(0.0, abs=1e-13)
    assert tilt.real == pytest.approx(varsigma(law), rel=1e-12, abs=1e-13)


@settings(max_examples=60, deadline=None)
@given(nu=nu_st, delta=delta_st, k=k_st)
def test_xi_real_part_nonpositive(nu, delta, k):
    assert xi(GaussianJumpLaw(nu, delta), k).real <= 1e-14


@settings(max_examples=40, deadline=None)
@given(nu=nu_st, delta=delta_st, lam=lam_st, sigma=sigma_st, tau=tau_st, k=k_st)
def test_char_function_bounded(nu, delta, lam, sigma, tau, k):
    spec = CharSpec(tau=tau, lam=lam, sigma=sigma, law=GaussianJumpLaw(nu, delta))
    assert abs(char_function(spec, k)) <= 1.0 + 1e-12


@settings(max_examples=30, deadline=None)
@given(
    nu=nu_st, delta=delta_pos_st, lam=lam_pos_st, sigma=sigma_st, tau=tau_st,
    l1=st.floats(min_value=-2.0, max_value=2.0),
    gap=st.floats(min_value=0.0, max_value=1.5),
)
def test_cdfs_monotone_and_complementary(nu, delta, lam, sigma, tau, l1, gap):
    spec = CharSpec(tau=tau, lam=lam, sigma=sigma, law=GaussianJumpLaw(nu, delta))
    l2 = l1 + gap
    assert cdf_plain(spec, l1) <= cdf_plain(spec, l2) + 1e-12
    assert cdf_tilted(spec, l1) <= cdf_tilted(spec, l2) + 1e-12
    assert cdf_plain(spec, l1) + survival_plain(spec, l1) == pytest.approx(1.0, abs=1e-12)
    assert cdf_tilted(spec, l1) + survival_tilted(spec, l1) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(
    # lam tau runs past the series term cap (about 3700)
    lam_tau=st.one_of(
        st.floats(min_value=0.0, max_value=20.0), st.floats(min_value=20.0, max_value=6000.0)
    ),
    tau=tau_st,
    sigma=st.one_of(st.just(0.0), sigma_st),
    nu=nu_st,
    delta=delta_st,
    l=st.floats(min_value=-20.0, max_value=20.0),
)
# once 1 ulp above 1; an overflowing n / lam; 0 * inf in the delta derivative;
# 0 * inf where the standardized threshold (l + n nu)/s overflows
@example(lam_tau=2365.5036361581087, tau=1.0, sigma=0.0, nu=0.0, delta=0.2599791682814058, l=0.0)
@example(lam_tau=2.2250738585e-313, tau=1.0, sigma=0.0, nu=0.0, delta=0.0, l=0.0)
@example(lam_tau=1.0, tau=1.0, sigma=0.0, nu=0.5, delta=8.175987266377093e-157, l=0.0)
@example(lam_tau=1.0, tau=1.0, sigma=0.2, nu=0.0, delta=0.1, l=1e308)
@example(lam_tau=1.0, tau=1.0, sigma=0.2, nu=0.0, delta=0.1, l=math.inf)
def test_series_transforms_are_probabilities_or_raise(lam_tau, tau, sigma, nu, delta, l):
    spec = CharSpec(tau=tau, lam=lam_tau / tau, sigma=sigma, law=GaussianJumpLaw(nu, delta))
    try:
        plain, plain_surv = cdf_plain(spec, l), survival_plain(spec, l)
        tilted, tilted_surv = cdf_tilted(spec, l), survival_tilted(spec, l)
        lset = series_lset(spec, l)
    except ShotPricerError as exc:
        # only a series longer than the term cap may fail
        assert isinstance(exc, TruncationError)
        assert spec.mean_count * max(1.0, math.exp(nu + 0.5 * delta**2)) > 3000.0
        return
    for value in (plain, plain_surv, tilted, tilted_surv, lset.l1, lset.l2):
        assert 0.0 <= value <= 1.0
    assert abs(plain + plain_surv - 1.0) <= 1e-15
    assert abs(tilted + tilted_surv - 1.0) <= 1e-15
    assert all(math.isfinite(v) for v in dataclasses.astuple(lset))


@settings(max_examples=40, deadline=None)
@given(
    sigma=st.one_of(st.just(0.0), st.floats(min_value=0.05, max_value=0.4)),
    lam_tau=st.floats(min_value=0.05, max_value=20.0),
    tau=tau_st,
    nu=st.floats(min_value=-0.2, max_value=0.2),
    delta=st.floats(min_value=0.02, max_value=0.3),
    ls=st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=1, max_size=6),
)
def test_fourier_grid_matches_series(sigma, lam_tau, tau, nu, delta, ls):
    spec = CharSpec(tau=tau, lam=lam_tau / tau, sigma=sigma, law=GaussianJumpLaw(nu, delta))
    grid = fourier_grid(spec, ls)
    series = (cdf_plain, cdf_tilted, survival_plain, survival_tilted)
    for fn, got in zip(series, (grid.plain, grid.tilted, grid.plain_surv, grid.tilted_surv)):
        want = np.array([fn(spec, l) for l in ls])
        assert np.max(np.abs(got - want)) <= 1e-7
    assert grid.est_error <= DEFAULT_QUAD.rel_tol
    assert np.max(np.abs(grid.plain + grid.plain_surv - 1.0)) <= 1e-13
    assert np.max(np.abs(grid.tilted + grid.tilted_surv - 1.0)) <= 1e-13


@settings(max_examples=40, deadline=None)
@given(
    strike=strike_st, tau=tau_st, rate=rate_st,
    q=st.floats(min_value=0.0, max_value=0.06),
    lam=lam_st, nu=nu_st, delta=delta_pos_st, sigma=sigma_st,
)
def test_parity_and_bounds(strike, tau, rate, q, lam, nu, delta, sigma):
    model = AssetModel(lam, GaussianJumpLaw(nu, delta), sigma)
    terms = OptionTerms(100.0, strike, tau, rate, q, OptionKind.CALL)
    residual = parity_residual(terms, model)
    assert abs(residual) <= 1e-8 * max(100.0, strike)
    call = price(terms, model).value
    lower = max(100.0 * math.exp(-q * tau) - strike * math.exp(-rate * tau), 0.0)
    assert lower - 1e-9 <= call <= 100.0 * math.exp(-q * tau) + 1e-9


@settings(max_examples=25, deadline=None)
@given(strike=strike_st, tau=tau_st, lam=lam_pos_st, nu=nu_st, delta=delta_pos_st)
def test_new_greeks_kind_invariant(strike, tau, lam, nu, delta):
    model = AssetModel(lam, GaussianJumpLaw(nu, delta), 0.0)
    call = OptionTerms(100.0, strike, tau, 0.03, 0.01, OptionKind.CALL)
    put = OptionTerms(100.0, strike, tau, 0.03, 0.01, OptionKind.PUT)
    try:
        got_c = new_greeks(call, model)
        got_p = new_greeks(put, model)
    except Exception:
        return  # kink configurations are excluded by contract
    scale = max(abs(got_c.kappa), abs(got_c.mu), abs(got_c.epsilon), 1.0)
    assert abs(got_c.kappa - got_p.kappa) <= 1e-10 * scale
    assert abs(got_c.mu - got_p.mu) <= 1e-10 * scale
    assert abs(got_c.epsilon - got_p.epsilon) <= 1e-10 * scale


_VALID_FIELDS = {
    OptionTerms: dict(spot=100.0, strike=95.0, tau=1.0, rate=0.03, dividend=0.01, kind="call"),
    AssetModel: dict(lam=1.0, law=GaussianJumpLaw(-0.05, 0.15), sigma=0.1),
    BondTerms: dict(t=0.0, T=5.0, r_t=0.03),
    RateModel: dict(a=0.5, b=0.03, sigma_r=0.01, lambda_r=1.0, law=GaussianJumpLaw(0.01, 0.02)),
}
_NUMERIC_FIELDS = [
    (cls, name)
    for cls, fields in _VALID_FIELDS.items()
    for name, value in fields.items()
    if isinstance(value, float)
]


@settings(max_examples=60, deadline=None)
@given(
    field=st.sampled_from(_NUMERIC_FIELDS),
    bad=st.sampled_from([math.nan, math.inf, -math.inf]),
)
def test_non_finite_field_raises_parameter_error(field, bad):
    cls, name = field
    with pytest.raises(ParameterError, match="finite"):
        cls(**{**_VALID_FIELDS[cls], name: bad})


# Ten paths: a Monte Carlo call that gets past its checks allocates little.
_SIM = SimConfig(paths=10, seed=7)


def _rate_model(lambda_r):
    return RateModel(a=0.5, b=0.03, sigma_r=0.01, lambda_r=lambda_r, law=GaussianJumpLaw(0.01, 0.02))


def _call(tau):
    return OptionTerms(100.0, 95.0, tau, 0.03, 0.01, OptionKind.CALL)


# entry point -> call with (intensity lam or lambda_r, x, y)
_SCALAR_ENTRY_POINTS = {
    "conditional_moments": lambda lam, r_t, horizon: conditional_moments(
        _rate_model(lam), r_t, horizon
    ),
    "mc_rate_moments": lambda lam, r_t, horizon: mc_rate_moments(
        _rate_model(lam), r_t, horizon, _SIM
    ),
    "mc_bond_price": lambda lam, r_t, T: mc_bond_price(
        _rate_model(lam), BondTerms(0.0, T, r_t), _SIM
    ),
    "mc_option_price": lambda lam, sigma, tau: mc_option_price(
        _call(tau), AssetModel(lam, GaussianJumpLaw(-0.05, 0.15), sigma), _SIM
    ),
    "b_factor": lambda lam, t, T: b_factor(_rate_model(lam), t, T),
    "a_vasicek": lambda lam, t, T: a_vasicek(_rate_model(lam), t, T),
    "a_shot_substituted": lambda lam, t, T: a_shot_substituted(_rate_model(lam), t, T),
    "zero_yield": lambda lam, price, tenor: zero_yield(price, tenor),
    "bs_price": lambda lam, sigma, tau: bs_price(_call(tau), sigma),
    "bs_greeks": lambda lam, sigma, tau: bs_greeks(_call(tau), sigma),
}

_scalar_st = st.one_of(
    st.floats(min_value=0.01, max_value=5.0),
    st.sampled_from([0.0, -1.0, math.nan, math.inf, -math.inf]),
)


def _floats_in(result):
    items = result if isinstance(result, tuple) else (result,)
    out = []
    for item in items:
        values = dataclasses.astuple(item) if dataclasses.is_dataclass(item) else (item,)
        out += [v for v in values if isinstance(v, float)]
    return out


@settings(max_examples=100, deadline=None)
@given(
    entry=st.sampled_from(sorted(_SCALAR_ENTRY_POINTS)),
    lam=st.floats(min_value=0.0, max_value=5.0),
    x=_scalar_st,
    y=_scalar_st,
)
@example(entry="conditional_moments", lam=1.0, x=math.nan, y=1.0)
@example(entry="conditional_moments", lam=1.0, x=0.03, y=math.nan)
@example(entry="mc_rate_moments", lam=1.0, x=0.03, y=math.nan)
@example(entry="mc_rate_moments", lam=1.0, x=0.03, y=math.inf)
@example(entry="mc_option_price", lam=1e300, x=0.2, y=1.0)
@example(entry="mc_bond_price", lam=1e300, x=0.03, y=1.0)
@example(entry="b_factor", lam=1.0, x=math.nan, y=1.0)
@example(entry="a_vasicek", lam=1.0, x=math.nan, y=1.0)
@example(entry="zero_yield", lam=1.0, x=math.nan, y=1.0)
@example(entry="zero_yield", lam=1.0, x=0.9, y=math.nan)
@example(entry="bs_price", lam=1.0, x=math.nan, y=1.0)
@example(entry="bs_price", lam=1.0, x=math.inf, y=1.0)
@example(entry="bs_greeks", lam=1.0, x=math.nan, y=1.0)
@example(entry="bs_greeks", lam=1.0, x=math.inf, y=1.0)
@example(entry="a_shot_substituted", lam=0.0, x=2.0, y=1.0)
def test_scalar_entry_points_return_finite_or_raise(entry, lam, x, y):
    with time_limit(2.0):
        try:
            result = _SCALAR_ENTRY_POINTS[entry](lam, x, y)
        except ShotPricerError:
            return
    assert all(math.isfinite(v) for v in _floats_in(result)), result

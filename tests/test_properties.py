"""Property-based invariants over randomized parameters."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from shotpricer import (
    AssetModel,
    BondTerms,
    BondVariant,
    CharSpec,
    GaussianJumpLaw,
    OptionKind,
    OptionTerms,
    RateModel,
    SimConfig,
    a_shot,
    a_vasicek,
    b_factor,
    bond_price,
    bs_greeks,
    bs_price,
    cdf_plain,
    cdf_tilted,
    char_function,
    common_greeks,
    conditional_moments,
    mc_bond_price,
    mc_option_price,
    mc_rate_moments,
    new_greeks,
    ode_residual,
    parity_residual,
    price,
    survival_plain,
    survival_tilted,
    varsigma,
    xi,
    zero_yield,
)
from shotpricer.errors import ParameterError, ShotPricerError, TruncationError
from shotpricer.transform import DEFAULT_QUAD, fourier_grid, series_lset
from shotpricer.validation import _jump_rule

from conftest import layer_reference, time_limit

nu_st = st.floats(min_value=-0.5, max_value=0.5)
delta_st = st.floats(min_value=0.0, max_value=0.6)
delta_pos_st = st.floats(min_value=0.02, max_value=0.6)
jump_delta_st = st.floats(min_value=0.01, max_value=2.0)
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
    with time_limit(2.0):
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


def _d4(f, x, h):
    """Four-point central difference of f at x with step h."""
    return (8.0 * (f(x + h) - f(x - h)) - (f(x + 2.0 * h) - f(x - 2.0 * h))) / (12.0 * h)


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(OptionKind),
    depth=st.floats(min_value=2.5, max_value=16.0),
    tau=st.floats(min_value=0.1, max_value=2.0),
    rate=st.floats(min_value=0.0, max_value=0.08),
    q=st.floats(min_value=0.0, max_value=0.04),
    lam=st.floats(min_value=0.1, max_value=5.0),
    nu=st.floats(min_value=-0.2, max_value=0.1),
    delta=st.floats(min_value=0.05, max_value=0.3),
    sigma=st.sampled_from([0.0, 0.1, 0.25]),
)
# the put at K 2 (price 5e-19), whose delta read 0 and kappa 160 times its size
@example(kind=OptionKind.PUT, depth=15.34, tau=1.0, rate=0.03, q=0.0, lam=1.0, nu=-0.05,
         delta=0.15, sigma=0.2)
def test_wing_greeks_match_differences_of_the_price(
    kind, depth, tau, rate, q, lam, nu, delta, sigma
):
    # strikes `depth` standard deviations of the log return out of the money,
    # prices down to 1e-250: a put's Greeks read its survivals, and each
    # Poisson-mean sum the side of the smaller transform, so every Greek keeps
    # its relative size. Measured over 7600 random cases: at most 5e-8.
    sd = math.sqrt(sigma**2 * tau + lam * tau * (nu**2 + delta**2))
    strike = 100.0 * math.exp(depth * sd if kind is OptionKind.CALL else -depth * sd)

    def value(spot=100.0, tau=tau, rate=rate, lam=lam):
        model = AssetModel(lam, GaussianJumpLaw(nu, delta), sigma)
        return price(OptionTerms(spot, strike, tau, rate, q, kind), model).value

    assume(value() > 1e-250)
    terms = OptionTerms(100.0, strike, tau, rate, q, kind)
    model = AssetModel(lam, GaussianJumpLaw(nu, delta), sigma)
    g, ng = common_greeks(terms, model), new_greeks(terms, model)
    pairs = {
        "delta": (g.delta, _d4(lambda v: value(spot=v), 100.0, 1e-2)),
        "theta": (g.theta, -_d4(lambda v: value(tau=v), tau, 1e-4 * tau)),
        "rho": (g.rho, _d4(lambda v: value(rate=v), rate, 1e-4)),
        "kappa": (ng.kappa, _d4(lambda v: value(lam=v), lam, 1e-4 * lam)),
    }
    for name, (analytic, fd) in pairs.items():
        assert abs(analytic - fd) <= 1e-6 * abs(fd), (name, analytic, fd)


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


@dataclasses.dataclass(frozen=True)
class _Sizes:
    """Contract sizes and rate-model scales the scalar entry points read."""

    spot: float = 100.0
    strike: float = 95.0
    a: float = 0.5
    delta_r: float = 0.02


def _rate_model(lambda_r, z=_Sizes()):
    return RateModel(
        a=z.a, b=0.03, sigma_r=0.01, lambda_r=lambda_r, law=GaussianJumpLaw(0.01, z.delta_r)
    )


def _call(tau, z=_Sizes()):
    return OptionTerms(z.spot, z.strike, tau, 0.03, 0.01, OptionKind.CALL)


def _asset(lam, sigma):
    return AssetModel(lam, GaussianJumpLaw(-0.05, 0.15), sigma)


def _jump_spec(lam, nu):
    return CharSpec(1.0, lam, 0.2, GaussianJumpLaw(nu, 0.1))


def _grid_at(lam, nu, l):
    grid = fourier_grid(_jump_spec(lam, nu), [l])
    legs = (grid.plain, grid.tilted, grid.plain_surv, grid.tilted_surv)
    return tuple(float(leg[0]) for leg in legs)


# entry point -> call with (intensity lam or lambda_r, x, y, sizes z)
_SCALAR_ENTRY_POINTS = {
    "conditional_moments": lambda lam, r_t, horizon, z: conditional_moments(
        _rate_model(lam, z), r_t, horizon
    ),
    "mc_rate_moments": lambda lam, r_t, horizon, z: mc_rate_moments(
        _rate_model(lam, z), r_t, horizon, _SIM
    ),
    "mc_bond_price": lambda lam, r_t, T, z: mc_bond_price(
        _rate_model(lam, z), BondTerms(0.0, T, r_t), _SIM
    ),
    "mc_option_price": lambda lam, sigma, tau, z: mc_option_price(
        _call(tau, z), _asset(lam, sigma), _SIM
    ),
    # l_used is NaN by design at tau = 0, where the price is the payoff
    "price": lambda lam, sigma, tau, z: price(_call(tau, z), _asset(lam, sigma)).value,
    "price_fourier": lambda lam, sigma, tau, z: price(
        _call(tau, z), _asset(lam, sigma), "fourier"
    ).value,
    "common_greeks": lambda lam, sigma, tau, z: common_greeks(_call(tau, z), _asset(lam, sigma)),
    "new_greeks": lambda lam, sigma, tau, z: new_greeks(_call(tau, z), _asset(lam, sigma)),
    "cdf_plain": lambda lam, nu, l, z: cdf_plain(_jump_spec(lam, nu), l),
    "cdf_tilted": lambda lam, nu, l, z: cdf_tilted(_jump_spec(lam, nu), l),
    "survival_plain": lambda lam, nu, l, z: survival_plain(_jump_spec(lam, nu), l),
    "survival_tilted": lambda lam, nu, l, z: survival_tilted(_jump_spec(lam, nu), l),
    "fourier_grid": lambda lam, nu, l, z: _grid_at(lam, nu, l),
    "b_factor": lambda lam, t, T, z: b_factor(_rate_model(lam, z), t, T),
    "a_vasicek": lambda lam, t, T, z: a_vasicek(_rate_model(lam, z), t, T),
    "a_shot": lambda lam, t, T, z: a_shot(_rate_model(lam, z), t, T),
    "bond_price_vasicek": lambda lam, r_t, T, z: bond_price(
        _rate_model(lam, z), BondTerms(0.0, T, r_t), "vasicek"
    ),
    "zero_yield": lambda lam, price, tenor, z: zero_yield(price, tenor),
    "bs_price": lambda lam, sigma, tau, z: bs_price(_call(tau, z), sigma),
    "bs_greeks": lambda lam, sigma, tau, z: bs_greeks(_call(tau, z), sigma),
}

_scalar_st = st.one_of(
    st.floats(min_value=0.01, max_value=5.0),
    st.sampled_from([0.0, -1.0, math.nan, math.inf, -math.inf]),
)
# spot, strike, the rate model's a and delta_r, and the third argument (a
# maturity, horizon, threshold or tenor) also range over subnormal to huge
_wide_st = st.floats(min_value=1e-310, max_value=1e300)


def _size_st(default):
    return st.one_of(st.just(default), _wide_st)


_sizes_st = st.builds(
    _Sizes,
    spot=_size_st(100.0),
    strike=_size_st(95.0),
    a=_size_st(0.5),
    delta_r=_size_st(0.02),
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
    y=st.one_of(_scalar_st, _wide_st),
    z=_sizes_st,
)
@example(entry="conditional_moments", lam=1.0, x=math.nan, y=1.0, z=_Sizes())
@example(entry="conditional_moments", lam=1.0, x=0.03, y=math.nan, z=_Sizes())
@example(entry="mc_rate_moments", lam=1.0, x=0.03, y=math.nan, z=_Sizes())
@example(entry="mc_rate_moments", lam=1.0, x=0.03, y=math.inf, z=_Sizes())
@example(entry="mc_option_price", lam=1e300, x=0.2, y=1.0, z=_Sizes())
@example(entry="mc_bond_price", lam=1e300, x=0.03, y=1.0, z=_Sizes())
@example(entry="b_factor", lam=1.0, x=math.nan, y=1.0, z=_Sizes())
@example(entry="a_vasicek", lam=1.0, x=math.nan, y=1.0, z=_Sizes())
@example(entry="zero_yield", lam=1.0, x=math.nan, y=1.0, z=_Sizes())
@example(entry="zero_yield", lam=1.0, x=0.9, y=math.nan, z=_Sizes())
@example(entry="zero_yield", lam=1.0, x=0.5, y=1e-310, z=_Sizes())
@example(entry="bs_price", lam=1.0, x=math.nan, y=1.0, z=_Sizes())
@example(entry="bs_price", lam=1.0, x=math.inf, y=1.0, z=_Sizes())
@example(entry="bs_greeks", lam=1.0, x=math.nan, y=1.0, z=_Sizes())
@example(entry="bs_greeks", lam=1.0, x=math.inf, y=1.0, z=_Sizes())
@example(entry="bs_price", lam=1.0, x=1e-200, y=1e-300, z=_Sizes())
@example(entry="bs_greeks", lam=1.0, x=1e-200, y=1e-300, z=_Sizes())
@example(entry="a_shot", lam=0.0, x=2.0, y=1.0, z=_Sizes())
@example(entry="price", lam=1e300, x=0.2, y=1.0, z=_Sizes())
@example(entry="common_greeks", lam=1e19, x=0.2, y=1.0, z=_Sizes())
@example(entry="new_greeks", lam=1e19, x=0.0, y=1.0, z=_Sizes())
@example(entry="cdf_plain", lam=1.0, x=710.0, y=0.0, z=_Sizes())
@example(entry="cdf_tilted", lam=1.0, x=710.0, y=0.0, z=_Sizes())
@example(entry="survival_plain", lam=1.0, x=710.0, y=0.0, z=_Sizes())
@example(entry="survival_tilted", lam=1.0, x=710.0, y=0.0, z=_Sizes())
@example(entry="fourier_grid", lam=1.0, x=0.1, y=1e308, z=_Sizes())
# the tilted psi overflows once lam tau e^{nu + delta^2/2} passes ~709
@example(entry="fourier_grid", lam=5.0, x=5.0, y=1.0, z=_Sizes())
@example(entry="fourier_grid", lam=1.0, x=709.0, y=0.0, z=_Sizes())
# S/K underflows to 0; e^{-q tau}/S overflows where dL1/dl is 0; gamma ~ 1/S overflows
@example(entry="price", lam=1.0, x=0.2, y=1.0, z=_Sizes(spot=1e-300, strike=1e30))
@example(entry="common_greeks", lam=1.0, x=0.2, y=1.0, z=_Sizes(spot=1e-300, strike=1e30))
@example(entry="new_greeks", lam=1.0, x=0.2, y=1.0, z=_Sizes(spot=1e-300, strike=1e30))
@example(entry="common_greeks", lam=1.0, x=0.2, y=0.5, z=_Sizes(spot=5e-323, strike=2.85))
@example(entry="common_greeks", lam=1.0, x=0.2, y=1.0, z=_Sizes(spot=1e-309, strike=1e-309))
# the mean count lam tau overflows a float
@example(entry="price", lam=1e308, x=0.2, y=2.0, z=_Sizes())
@example(entry="price", lam=1e300, x=0.2, y=1e10, z=_Sizes())
# a squared underflows to 0 or overflows; the jump exponent at B(0, T) overflows
@example(entry="a_vasicek", lam=1.0, x=0.0, y=5.0, z=_Sizes(a=1e-300))
@example(entry="bond_price_vasicek", lam=1.0, x=0.03, y=5.0, z=_Sizes(a=1e-300))
@example(entry="bond_price_vasicek", lam=1.0, x=0.03, y=5.0, z=_Sizes(a=1e300))
@example(entry="bond_price_vasicek", lam=1.0, x=0.03, y=5.0, z=_Sizes(a=1e-160))
@example(entry="a_shot", lam=2.23, x=0.0, y=375.0, z=_Sizes(a=8.48e-5, delta_r=1.02))
@example(entry="a_shot", lam=2.23, x=0.0, y=50.0, z=_Sizes(a=8.48e-5, delta_r=1.02))
def test_scalar_entry_points_return_finite_or_raise(entry, lam, x, y, z):
    with time_limit(2.0):
        try:
            result = _SCALAR_ENTRY_POINTS[entry](lam, x, y, z)
        except ShotPricerError:
            return
    assert all(math.isfinite(v) for v in _floats_in(result)), result


_OPTION_ENTRY_POINTS = {
    "price": price,
    "common_greeks": common_greeks,
    "new_greeks": new_greeks,
    "mc_option_price": lambda terms, model: mc_option_price(terms, model, _SIM),
}


@pytest.mark.parametrize("entry", sorted(_OPTION_ENTRY_POINTS))
def test_overflowing_jump_compensator_raises_parameter_error(entry):
    # varsigma = e^{nu + delta^2/2} - 1 overflows a float at nu = 710
    with pytest.raises(ParameterError):
        _OPTION_ENTRY_POINTS[entry](_call(1.0), AssetModel(1.0, GaussianJumpLaw(710.0, 0.0)))


_HUGE_VOL = 1e200  # its square overflows a float
_SQUARE_OVERFLOW_CALLS = {
    "price": lambda: price(_call(1.0), _asset(1.0, _HUGE_VOL)),
    "price_fourier": lambda: price(_call(1.0), _asset(1.0, _HUGE_VOL), "fourier"),
    "common_greeks": lambda: common_greeks(_call(1.0), _asset(1.0, _HUGE_VOL)),
    "cdf_plain_sigma": lambda: cdf_plain(
        CharSpec(1.0, 1.0, _HUGE_VOL, GaussianJumpLaw(0.1, 0.1)), 0.1
    ),
    "fourier_grid": lambda: fourier_grid(
        CharSpec(1.0, 1.0, _HUGE_VOL, GaussianJumpLaw(0.1, 0.1)), [0.1]
    ),
    "cdf_plain_delta": lambda: cdf_plain(
        CharSpec(1.0, 1.0, 0.2, GaussianJumpLaw(-1e300, _HUGE_VOL)), 0.1
    ),
    "mc_option_price": lambda: mc_option_price(_call(1.0), _asset(1.0, _HUGE_VOL), _SIM),
    "bond_price_sigma_r": lambda: bond_price(
        RateModel(0.5, 0.03, _HUGE_VOL, 1.0, GaussianJumpLaw(0.01, 0.02)), BondTerms(0.0, 5.0, 0.03)
    ),
    "bond_price_delta_r": lambda: bond_price(
        RateModel(0.5, 0.03, 0.01, 1.0, GaussianJumpLaw(0.01, _HUGE_VOL)), BondTerms(0.0, 5.0, 0.03)
    ),
}


@pytest.mark.parametrize("call", sorted(_SQUARE_OVERFLOW_CALLS))
def test_volatility_whose_square_overflows_raises_parameter_error(call):
    # sigma, sigma_r and delta enter every formula squared; Python's x**2
    # raises a bare OverflowError there, so the models refuse them when built
    with pytest.raises(ParameterError, match="squared"):
        _SQUARE_OVERFLOW_CALLS[call]()


@pytest.mark.parametrize("nu", [50.0, 300.0, 709.0])
def test_underflowing_jump_compensator_raises_parameter_error(nu):
    # e^{-lam varsigma tau} is 0: every drawn S_T is 0, which would read 0 +- 0
    with pytest.raises(ParameterError, match="underflows"):
        mc_option_price(_call(1.0), AssetModel(1.0, GaussianJumpLaw(nu, 0.0), 0.2), _SIM)


@pytest.mark.parametrize("kind", [OptionKind.CALL, OptionKind.PUT])
def test_tiny_jump_compensator_gives_no_zero_standard_error(kind):
    # e^{-lam varsigma tau} = e^{-147}: every drawn S_T is about 0 and the
    # martingale mass sits on paths with about 30 jumps, never drawn; each
    # path pays the same, so 0 +- 0 would look exact
    terms = OptionTerms(100.0, 100.0, 1.0, 0.03, 0.01, kind)
    model = AssetModel(1.0, GaussianJumpLaw(5.0, 0.0), 0.2)
    with pytest.raises(ParameterError, match="no spread"):
        mc_option_price(terms, model, SimConfig(paths=1000))


@settings(max_examples=30, deadline=None)
@given(
    sigma=st.sampled_from([0.0, 0.2]),
    lam=st.floats(min_value=0.0, max_value=3.0),
    nu=st.floats(min_value=-1.0, max_value=6.0),
    strike=st.floats(min_value=20.0, max_value=500.0),
    paths=st.integers(min_value=1, max_value=64),
)
def test_mc_option_standard_error_is_zero_only_for_a_sure_payoff(sigma, lam, nu, strike, paths):
    terms = OptionTerms(100.0, strike, 1.0, 0.03, 0.01, OptionKind.CALL)
    model = AssetModel(lam, GaussianJumpLaw(nu, 0.1), sigma)
    try:
        est = mc_option_price(terms, model, SimConfig(paths=paths, seed=3))
    except ParameterError:
        return
    assert est.std_error > 0.0 or (sigma == 0.0 and lam == 0.0)


@settings(max_examples=30, deadline=None)
@given(
    lambda_r=st.sampled_from([0.0, 0.01, 0.3, 2.0]),
    nu=st.sampled_from([0.0, 0.01]),
    delta=st.sampled_from([0.0, 0.02]),
    paths=st.integers(min_value=1, max_value=64),
)
def test_mc_rate_standard_errors_are_zero_only_for_sure_values(lambda_r, nu, delta, paths):
    # the conditional oracles integrate the Gaussian parts exactly, so only
    # jumps that move the rate make their estimates random
    model = RateModel(0.5, 0.03, 0.01, lambda_r, GaussianJumpLaw(nu, delta))
    sim = SimConfig(paths=paths, seed=3)
    random = lambda_r > 0.0 and (nu != 0.0 or delta > 0.0)
    for oracle in (
        lambda: mc_bond_price(model, BondTerms(0.0, 5.0, 0.03), sim),
        lambda: mc_rate_moments(model, 0.03, 1.0, sim)[1],
    ):
        try:
            est = oracle()
        except ParameterError as exc:
            assert random and "no spread" in str(exc)
            continue
        assert (est.std_error > 0.0) == random


@pytest.mark.parametrize("delta", [0.0, 0.1])
def test_huge_jump_mean_fourier_price_raises_typed_error(delta):
    # varsigma = e^709 is a float, but k_max |l| for the threshold past it is not
    with pytest.raises(ShotPricerError):
        price(_call(1.0), AssetModel(1.0, GaussianJumpLaw(709.0, delta), 0.2), "fourier")


def test_overflowing_discount_rejected_with_the_terms():
    # K e^{-r tau} = 1e300 e^800 is no float; price, Greeks and bs_price all scale by it
    with pytest.raises(ParameterError, match="overflows"):
        OptionTerms(100.0, 1e300, 100.0, -8.0, 0.0, OptionKind.PUT)
    with pytest.raises(ParameterError, match="overflows"):
        OptionTerms(1e-300, 1.0, 100.0, 0.0, -8.0, OptionKind.CALL)


def _log_uniform_st(lo, hi):
    return st.floats(min_value=math.log(lo), max_value=math.log(hi)).map(math.exp)


@settings(max_examples=60, deadline=None)
@given(
    a=_log_uniform_st(1e-3, 5.0),
    nu=st.floats(min_value=-2.0, max_value=60.0),
    delta=st.floats(min_value=0.0, max_value=2.0),
    T=_log_uniform_st(1e-2, 1e4),
)
@example(a=0.01, nu=5.0, delta=0.3, T=5000.0)
@example(a=0.01, nu=50.0, delta=1.0, T=5000.0)
def test_a_shot_matches_break_pointed_reference(a, nu, delta, T):
    # the layer at maturity included; relative to lam int |integrand|, over
    # 7 400 random draws of these ranges the error measured at most 5.9e-12.
    # Subnormal intercepts (a jump size near 1e-308) keep only a few bits.
    assume(abs(nu) + delta > 0.0)
    model = RateModel(a, 0.0, 0.0, 1.0, GaussianJumpLaw(nu, delta))
    try:
        got = a_shot(model, 0.0, T)
    except ParameterError:  # the intercept's bound lam (T - t) e^top overflows
        assume(False)
    value, size = layer_reference(model, 0.0, T)
    assert abs(got - value) <= 3e-11 * size + np.finfo(float).tiny


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(min_value=0.05, max_value=3.0),
    b=st.floats(min_value=-0.05, max_value=0.1),
    sigma_r=st.floats(min_value=0.0, max_value=0.05),
    lambda_r=st.floats(min_value=0.0, max_value=5.0),
    nu=st.floats(min_value=-0.05, max_value=0.05),
    delta=st.floats(min_value=0.0, max_value=0.05),
    T=st.floats(min_value=0.1, max_value=30.0),
    r_t=st.floats(min_value=-0.02, max_value=0.12),
)
def test_variant_prices_the_general_model_with_one_block_off(
    a, b, sigma_r, lambda_r, nu, delta, T, r_t
):
    # shot is general at b = sigma_r = 0 and vasicek general without jumps,
    # bit for bit (or the same typed error), whatever the other block holds
    model = RateModel(a, b, sigma_r, lambda_r, GaussianJumpLaw(nu, delta))
    terms = BondTerms(0.0, T, r_t)

    def outcome(call, *args):
        try:
            return call(*args)
        except ShotPricerError as exc:
            return type(exc)

    for variant, reduced in (
        (BondVariant.SHOT, dataclasses.replace(model, b=0.0, sigma_r=0.0)),
        (BondVariant.VASICEK, dataclasses.replace(model, lambda_r=0.0)),
    ):
        assert outcome(bond_price, model, terms, variant) == outcome(bond_price, reduced, terms)
        assert outcome(ode_residual, model, 0.0, T, variant) == outcome(
            ode_residual, reduced, 0.0, T
        )


def _norm_cdf(x):
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


@settings(max_examples=200, deadline=None)
@given(nu=nu_st, delta=jump_delta_st, s=st.floats(min_value=-11.0, max_value=11.0))
def test_jump_rule_cut_at_the_kink_prices_a_call(nu, delta, s):
    # E[max(e^eta - K, 0)] in closed form, with the kink ln K = nu + s delta;
    # an uncut rule is about 1e-3 off here
    log_strike = nu + s * delta
    strike = math.exp(log_strike)
    forward = math.exp(nu + 0.5 * delta * delta)
    d2 = (nu - log_strike) / delta
    ref = forward * _norm_cdf(d2 + delta) - strike * _norm_cdf(d2)
    eta, w = _jump_rule(GaussianJumpLaw(nu, delta), log_strike)
    got = float(np.dot(w, np.maximum(np.exp(eta) - strike, 0.0)))
    assert abs(got - ref) <= 1e-12 * (forward + strike)


@settings(max_examples=200, deadline=None)
@given(nu=nu_st, delta=jump_delta_st, u=st.floats(min_value=-4.0, max_value=4.0))
def test_jump_rule_tilted_moment(nu, delta, u):
    # E[e^{t eta}] = exp(t nu + t^2 delta^2 / 2) for |t| delta = |u| <= 4
    t = u / delta
    eta, w = _jump_rule(GaussianJumpLaw(nu, delta))
    ref = math.exp(t * nu + 0.5 * u * u)
    assert float(np.dot(w, np.exp(t * eta))) == pytest.approx(ref, rel=1e-12, abs=0.0)


@settings(max_examples=40, deadline=None)
@given(nu=nu_st, kink=st.none() | st.floats(min_value=-1.0, max_value=1.0))
def test_jump_rule_point_mass(nu, kink):
    eta, w = _jump_rule(GaussianJumpLaw(nu, 0.0), kink)
    assert eta.tolist() == [nu] and w.tolist() == [1.0]

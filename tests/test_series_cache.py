"""The memoized Poisson series: shared per (model, tau), never changes a result."""

import pytest
from hypothesis import given, settings, strategies as st

from shotpricer import (
    AssetModel,
    CharSpec,
    GaussianJumpLaw,
    OptionKind,
    OptionTerms,
    QuadratureSpec,
    common_greeks,
    new_greeks,
    price,
)
from shotpricer.errors import KinkError, TruncationError
from shotpricer.transform import (
    DEFAULT_QUAD,
    _series_lset,
    _series_parts,
    _series_values,
    series_lset,
)


def _clear():
    _series_parts.cache_clear()
    _series_values.cache_clear()
    _series_lset.cache_clear()


def _contract_values(model, strike, tau):
    """Every series output of one strike, as exact float reprs."""
    out = []
    for kind in (OptionKind.CALL, OptionKind.PUT):
        terms = OptionTerms(100.0, strike, tau, 0.03, 0.01, kind)
        out.append(price(terms, model))
        out.append(common_greeks(terms, model))
    out.append(new_greeks(OptionTerms(100.0, strike, tau, 0.03, 0.01, OptionKind.CALL), model))
    return repr(out)


@settings(max_examples=30, deadline=None)
@given(
    lam=st.floats(min_value=0.05, max_value=30.0),
    nu=st.floats(min_value=-0.5, max_value=0.5),
    delta=st.floats(min_value=0.02, max_value=0.6),
    sigma=st.sampled_from([0.0, 0.1, 0.35]),
    tau=st.floats(min_value=0.05, max_value=3.0),
    strike=st.floats(min_value=40.0, max_value=250.0),
    other=st.floats(min_value=40.0, max_value=250.0),
)
def test_warm_and_cleared_caches_give_identical_bits(lam, nu, delta, sigma, tau, strike, other):
    model = AssetModel(lam, GaussianJumpLaw(nu, delta), sigma)
    neighbour = AssetModel(lam * 1.5, GaussianJumpLaw(nu, delta), sigma)
    try:
        _contract_values(model, strike, tau)
        # fill the caches with a second strike and a second model in between
        _contract_values(model, other, tau)
        _contract_values(neighbour, strike, tau)
        warm = _contract_values(model, strike, tau)
        _clear()
        cold = _contract_values(model, strike, tau)
    except KinkError:
        return  # sigma = 0 at l = 0 has no Greeks by contract
    assert warm == cold


def test_cached_parts_are_read_only():
    spec = CharSpec(tau=1.0, lam=2.0, sigma=0.1, law=GaussianJumpLaw(-0.05, 0.15))
    parts = _series_parts(spec, DEFAULT_QUAD)
    assert _series_parts(spec, DEFAULT_QUAD) is parts
    for arr in vars(parts).values():
        with pytest.raises(ValueError):
            arr[0] = 0.5
    assert _series_parts.cache_info().maxsize <= 8
    assert _series_lset.cache_info().maxsize <= 16
    assert _series_values.cache_info().maxsize <= 16


@pytest.mark.parametrize("sigma", [0.0, 0.2])
def test_one_strike_runs_one_series_pass(sigma):
    # a call and a put price, and both Greek sets, all at one strike
    _clear()
    model = AssetModel(1.0, GaussianJumpLaw(-0.05, 0.15), sigma)
    for kind in (OptionKind.CALL, OptionKind.PUT):
        price(OptionTerms(100.0, 95.0, 1.0, 0.03, 0.01, kind), model)
    call = OptionTerms(100.0, 95.0, 1.0, 0.03, 0.01, OptionKind.CALL)
    common_greeks(call, model)
    new_greeks(call, model)
    assert _series_values.cache_info().misses == 1
    assert _series_lset.cache_info().misses == 1
    assert _series_parts.cache_info().misses == 1


def test_quadrature_specs_never_share_an_entry():
    _clear()
    spec = CharSpec(tau=1.0, lam=3.0, sigma=0.0, law=GaussianJumpLaw(-0.05, 0.15))
    tight = QuadratureSpec(rel_tol=1e-12)
    parts_tight = _series_parts(spec, tight)
    parts_default = _series_parts(spec, DEFAULT_QUAD)
    assert parts_tight is not parts_default
    assert _series_parts.cache_info().currsize == 2
    assert series_lset(spec, 0.1, tight) is not series_lset(spec, 0.1, DEFAULT_QUAD)
    assert _series_lset.cache_info().currsize == 2


def test_truncation_error_is_raised_again_and_not_cached():
    _clear()
    # lam tau 5000 needs more Poisson counts than the series keeps
    spec = CharSpec(tau=1.0, lam=5000.0, sigma=0.0, law=GaussianJumpLaw(-0.05, 0.15))
    for _ in range(2):
        with pytest.raises(TruncationError):
            series_lset(spec, 0.0)
        with pytest.raises(TruncationError):
            _series_parts(spec, DEFAULT_QUAD)
    assert _series_parts.cache_info().currsize == 0
    assert _series_values.cache_info().currsize == 0
    assert _series_lset.cache_info().currsize == 0
    assert _series_parts.cache_info().misses == 4

"""The memoized Poisson series: shared per (model, tau), never changes a result."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import ndtr

from shotpricer import (
    AssetModel,
    CharSpec,
    GaussianJumpLaw,
    OptionKind,
    OptionTerms,
    QuadratureSpec,
    cdf_plain,
    cdf_tilted,
    common_greeks,
    new_greeks,
    price,
    survival_plain,
    survival_tilted,
)
from shotpricer.errors import KinkError, ParameterError, TruncationError
from shotpricer.options import l_parameter
from shotpricer.transform import (
    DEFAULT_QUAD,
    LSet,
    _series_block,
    _series_parts,
    _series_record,
    _series_values,
    series_lset,
)

from conftest import time_limit


def _clear():
    _series_parts.cache_clear()
    _series_values.cache_clear()
    _series_record.cache_clear()


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
    # sigma = 0 adds the point mass at n = 0, and with it the atom arrays
    atoms = {"atom_mean", "atom_w", "atom_dw"}
    for sigma in (0.0, 0.1):
        spec = CharSpec(tau=1.0, lam=2.0, sigma=sigma, law=GaussianJumpLaw(-0.05, 0.15))
        parts = _series_parts(spec, DEFAULT_QUAD)
        assert _series_parts(spec, DEFAULT_QUAD) is parts
        arrays = {name: arr for name, arr in vars(parts).items() if arr is not None}
        assert set(vars(parts)) - set(arrays) == (set() if sigma == 0.0 else atoms)
        for arr in arrays.values():
            with pytest.raises(ValueError):
                arr.flat[0] = 0.5
        # the continuous slice is a view of the window, not a copy
        assert parts.mean_c.base is not None
    assert _series_parts.cache_info().maxsize <= 8
    assert _series_record.cache_info().maxsize <= 16
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
    assert _series_record.cache_info().misses == 1
    assert _series_values.cache_info().misses == 0
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
    assert _series_record.cache_info().currsize == 2
    assert _series_values(spec, 0.1, tight) is not _series_values(spec, 0.1, DEFAULT_QUAD)
    assert _series_values.cache_info().currsize == 2


def test_truncation_error_is_raised_again_and_not_cached():
    _clear()
    # lam tau 5000 needs more Poisson counts than the series keeps
    spec = CharSpec(tau=1.0, lam=5000.0, sigma=0.0, law=GaussianJumpLaw(-0.05, 0.15))
    for _ in range(2):
        with pytest.raises(TruncationError):
            series_lset(spec, 0.0)
        with pytest.raises(TruncationError):
            cdf_plain(spec, 0.0)
        with pytest.raises(TruncationError):
            _series_parts(spec, DEFAULT_QUAD)
    assert _series_parts.cache_info().currsize == 0
    assert _series_values.cache_info().currsize == 0
    assert _series_record.cache_info().currsize == 0
    assert _series_parts.cache_info().misses == 6


def _threshold_terms(spec, l):
    """The values pass's terms at one threshold, rows (tilted cdf, plain cdf,
    tilted survival, plain survival): the continuous components, from one
    ndtr on the rows (b, a, -b, -a) against the weight rows (tilted, plain,
    tilted, plain), and the atoms with their brackets (None without atoms)."""
    p = _series_parts(spec, DEFAULT_QUAD)
    with np.errstate(over="ignore"):
        a = (l - p.mean_c) / p.s
    z = np.empty((4, p.s.size))
    z[1] = a
    np.add(a, p.s, out=z[0])
    np.negative(z[:2], out=z[2:])
    cont = p.coef[:4] * ndtr(z)
    if p.atom_mean is None:
        return cont, None
    gap = l - p.atom_mean
    above, at = gap > 0.0, gap >= 0.0
    return cont, p.atom_w * np.array((above, at, ~above, ~at))


def _one_threshold_reference(spec, l):
    """The values pass at one threshold, written out row by row: one np.sum
    per row of continuous terms, plus one per row of atoms."""
    cont, atoms = _threshold_terms(spec, l)
    rows = [np.sum(row) for row in cont]
    if atoms is not None:
        rows = [row + np.sum(extra) for row, extra in zip(rows, atoms)]
    tilted, plain, tilted_surv, plain_surv = (min(1.0, float(row)) for row in rows)
    return plain, tilted, plain_surv, tilted_surv


# thresholds in the bulk, on the sigma = 0 atom at 0, and so far out that
# a = (l - mean) / s overflows to +-inf
_thresholds = st.one_of(
    st.floats(min_value=-2.0, max_value=2.0),
    st.sampled_from([0.0, -0.0, 1e300, -1e300, math.inf, -math.inf]),
)


@settings(max_examples=60, deadline=None)
@given(
    lam=st.floats(min_value=0.0, max_value=20.0),
    nu=st.floats(min_value=-0.5, max_value=0.5),
    delta=st.sampled_from([0.0, 0.02, 0.15, 0.6]),
    sigma=st.sampled_from([0.0, 0.2]),
    tau=st.floats(min_value=0.05, max_value=3.0),
    ls=st.lists(_thresholds, min_size=1, max_size=8),
    repeat=st.integers(min_value=0, max_value=3),
)
@example(lam=1.0, nu=-0.05, delta=0.15, sigma=0.0, tau=1.0, ls=[0.0, 0.1, 0.0, -0.1], repeat=1)
@example(lam=1.0, nu=0.1, delta=0.0, sigma=0.0, tau=1.0, ls=[0.1, 0.2, 0.0, 1e300], repeat=0)
@example(lam=2.0, nu=-0.05, delta=0.15, sigma=0.2, tau=0.5, ls=[1e300, -1e300], repeat=2)
def test_block_equals_one_threshold_passes_bit_for_bit(lam, nu, delta, sigma, tau, ls, repeat):
    spec = CharSpec(tau=tau, lam=lam, sigma=sigma, law=GaussianJumpLaw(nu, delta))
    ls = ls + ls[:repeat]  # thresholds met twice in one block
    try:
        block = _series_block(spec, ls, DEFAULT_QUAD)
    except TruncationError:
        return
    assert block == [_one_threshold_reference(spec, l) for l in ls]
    assert block == [_series_values(spec, l, DEFAULT_QUAD) for l in ls]


@pytest.mark.parametrize("sigma", [0.0, 0.2])
def test_block_refuses_a_nan_threshold(sigma):
    spec = CharSpec(tau=1.0, lam=1.0, sigma=sigma, law=GaussianJumpLaw(-0.05, 0.15))
    with pytest.raises(ParameterError, match="NaN"):
        _series_block(spec, [0.1, math.nan, 0.2], DEFAULT_QUAD)
    for one_threshold in (_series_values, _series_record, series_lset):
        with pytest.raises(ParameterError, match="NaN"):
            one_threshold(spec, math.nan, DEFAULT_QUAD)
    # r - q and lam varsigma both overflow, so l = (inf - inf) tau is NaN
    model = AssetModel(1.5e308, GaussianJumpLaw(1.0, 0.1), sigma)
    terms = OptionTerms(100.0, 100.0, 1e-306, 1.7e308, -1.7e308, OptionKind.CALL)
    assert math.isnan(l_parameter(terms, model))
    for entry in (price, common_greeks):
        with pytest.raises(ParameterError, match="NaN"):
            entry(terms, model)


def _two_pass_lset(spec, l, quad=DEFAULT_QUAD):
    """The Greek engine as its own pass after the values pass, as it stood
    before one record served both: the record's LSet must keep its bits.

    Each Poisson-mean sum has a cdf side, sum dw Phi(b or a), and a survival
    side, sum dw Phi(-b or -a), with the atoms in their brackets. A cdf's
    derivative is its side where the cdf is at most its survival, and minus
    the survival side elsewhere."""
    l2, l1, s2, s1 = _series_block(spec, (l,), quad)[0]
    law = spec.law
    tau, lam, sigma = spec.tau, spec.lam, spec.sigma
    nu, delta = law.nu, law.delta
    p = _series_parts(spec, quad)
    s = p.s
    growth = math.exp(nu + 0.5 * delta**2)
    m_tilt = lam * tau * growth
    buf = np.empty((3, 2, s.size))
    ab, (e, g) = buf[0], buf[1:]
    with np.errstate(over="ignore"):
        np.divide(l - p.mean_c, s, out=ab[1])
    np.add(ab[1], s, out=ab[0])
    np.minimum(np.maximum(ab, -1e3, out=ab), 1e3, out=ab)
    # rows (tilted cdf, plain cdf, tilted survival, plain survival)
    dm = (p.dw * ndtr(np.vstack((ab, -ab)))).sum(axis=-1)
    if p.atom_mean is not None:
        gap = l - p.atom_mean
        above, at = gap > 0.0, gap >= 0.0
        dm += (p.atom_dw * np.array((above, at, ~above, ~at))).sum(axis=-1)
    cdf_dm1, cdf_dm2, surv_dm1, surv_dm2 = dm.tolist()
    l1_dm = cdf_dm1 if l1 <= s1 else -surv_dm1
    l2_dm = cdf_dm2 if l2 <= s2 else -surv_dm2
    np.multiply(ab, ab, out=e)
    e *= -0.5
    np.exp(e, out=e)
    np.divide(ab[1], s, out=g[1])
    np.subtract(g[1], 1.0, out=g[0])
    g *= e
    uv = p.coef[4:].reshape(2, 2, 2, s.size)  # rows (u, v), (sigma u, delta v)
    (dl1_dl, dl2_dl), (nu1, nu2), (sig_g1, sig_g2), (delta_g1, delta_g2) = (
        (uv * buf[1:, None]).sum(axis=-1).reshape(4, 2).tolist()
    )
    return LSet(
        l1=l1,
        l2=l2,
        s1=s1,
        s2=s2,
        dl1_dl=dl1_dl,
        dl2_dl=dl2_dl,
        dl1_dtau=lam * growth * l1_dm - 0.5 * sigma * sig_g1,
        dl2_dtau=lam * l2_dm - 0.5 * sigma * sig_g2,
        dl1_dlam=tau * growth * l1_dm,
        dl2_dlam=tau * l2_dm,
        dl1_dnu=m_tilt * l1_dm + nu1,
        dl2_dnu=nu2,
        dl1_ddelta=delta * m_tilt * l1_dm - delta_g1,
        dl2_ddelta=-delta_g2,
        dl1_dsigma=-tau * sig_g1,
        dl2_dsigma=-tau * sig_g2,
    )


def _bits(values):
    return [float(v).hex() for v in values]  # tells -0.0 from 0.0


@settings(max_examples=100, deadline=None)
@given(
    lam=st.floats(min_value=0.0, max_value=30.0),
    nu=st.floats(min_value=-0.5, max_value=0.5),
    # delta = 0 at sigma = 0 makes every count a point mass, delta > 0 only
    # count 0; 1e-160 leaves widths near 1e-158
    delta=st.sampled_from([0.0, 1e-160, 0.02, 0.15, 0.6]),
    sigma=st.sampled_from([0.0, 0.2]),
    tau=st.floats(min_value=0.05, max_value=3.0),
    l=st.one_of(
        st.floats(min_value=-2.0, max_value=2.0),
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300]),
    ),
)
@example(lam=1.0, nu=-0.05, delta=0.15, sigma=0.0, tau=1.0, l=0.0)
@example(lam=1.0, nu=-0.05, delta=0.15, sigma=0.0, tau=1.0, l=-0.0)
@example(lam=1.0, nu=-0.05, delta=0.15, sigma=0.0, tau=1.0, l=5e-324)
@example(lam=2.0, nu=0.1, delta=0.0, sigma=0.0, tau=1.0, l=0.0)
@example(lam=2.0, nu=0.1, delta=0.0, sigma=0.0, tau=1.0, l=0.2)
@example(lam=2.0, nu=0.0, delta=0.0, sigma=0.0, tau=1.0, l=-0.0)
@example(lam=2.0, nu=-0.05, delta=0.15, sigma=0.2, tau=0.5, l=1e300)
@example(lam=2.0, nu=-0.05, delta=0.15, sigma=0.0, tau=0.5, l=-1e300)
def test_record_keeps_the_bits_of_the_values_pass_and_the_two_pass_engine(
    lam, nu, delta, sigma, tau, l
):
    spec = CharSpec(tau=tau, lam=lam, sigma=sigma, law=GaussianJumpLaw(nu, delta))
    values, lset = _series_record.__wrapped__(spec, l, DEFAULT_QUAD)
    assert _bits(values) == _bits(_series_block(spec, (l,), DEFAULT_QUAD)[0])
    assert _bits(dataclasses.astuple(lset)) == _bits(dataclasses.astuple(_two_pass_lset(spec, l)))
    assert _series_record(spec, l, DEFAULT_QUAD) == (values, lset)


def _pairwise_bound(n, abs_sum):
    """Bound on |pairwise sum - exact sum, rounded| for n terms of absolute
    sum ``abs_sum``, from numpy's summation scheme. Under 8 terms numpy adds
    in a loop (at most 7 additions on any term's path). Up to 128 it keeps
    eight accumulators of at most 16 terms (15 additions), joins them in a
    3-level tree and adds the n mod 8 leftovers one by one (7 more): at most
    25. Longer rows are halved at a multiple of 8 until each part has at most
    128 terms; parts stay below n / 2^h + 15, so h <= ceil(log2 n) - 6
    halvings, one addition each. The reduction adds its first element to
    the pairwise sum of the rest, and the block adds the atoms' sum: 2 more.
    A path of d additions errs by at most gamma_d = d u / (1 - d u) of
    abs_sum (Higham 1993), and the exactly rounded reference by u of it."""
    u = 2.0**-53
    d = math.ceil(math.log2(max(n, 1))) + 21
    return (d * u / (1.0 - d * u) + u) * abs_sum


@settings(max_examples=60, deadline=None)
@given(
    lam_tau=st.one_of(
        st.floats(min_value=0.0, max_value=20.0), st.floats(min_value=20.0, max_value=3000.0)
    ),
    tau=st.floats(min_value=0.05, max_value=3.0),
    sigma=st.sampled_from([0.0, 0.2]),
    # tilted means stay under the count cap: lam tau e^{nu + delta^2/2} < 3500
    nu=st.floats(min_value=-0.3, max_value=0.1),
    delta=st.floats(min_value=0.0, max_value=0.3),
    l=st.floats(min_value=-3.0, max_value=3.0),
)
@example(lam_tau=3000.0, tau=1.0, sigma=0.0, nu=0.1, delta=0.3, l=0.0)
@example(lam_tau=1000.0, tau=1.0, sigma=0.2, nu=-0.05, delta=0.15, l=-0.05)
def test_pairwise_sums_are_within_their_bound_of_exact_sums(lam_tau, tau, sigma, nu, delta, l):
    spec = CharSpec(tau=tau, lam=lam_tau / tau, sigma=sigma, law=GaussianJumpLaw(nu, delta))
    with time_limit(2.0):
        values = [fn(spec, l) for fn in (cdf_tilted, cdf_plain, survival_tilted, survival_plain)]
        cont, atoms = _threshold_terms(spec, l)
    rows = cont.tolist() if atoms is None else np.hstack((cont, atoms)).tolist()
    for value, row in zip(values, rows):
        bound = _pairwise_bound(len(row), math.fsum(map(abs, row)))
        assert abs(value - min(1.0, math.fsum(row))) <= bound

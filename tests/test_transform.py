"""Series/Fourier transform engine: weights, cdfs, atoms, density."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.special import ndtr
from scipy.stats import poisson

from shotpricer import (
    AssetModel,
    Backend,
    CharSpec,
    GaussianJumpLaw,
    QuadratureSpec,
    cdf_plain,
    cdf_tilted,
    char_function,
    fd_sensitivity,
    green_density,
    price,
    survival_plain,
    survival_tilted,
    varsigma,
)
from shotpricer import transform
from shotpricer.errors import ParameterError, QuadratureError, TruncationError
from shotpricer.transform import (
    DEFAULT_QUAD,
    _K_MAX,
    _fourier_kmax,
    _poisson_weights,
    fourier_grid,
    series_lset,
)
from conftest import make_terms, time_limit


def spec_of(tau=1.0, lam=1.0, sigma=0.0, nu=0.0, delta=0.1):
    return CharSpec(tau=tau, lam=lam, sigma=sigma, law=GaussianJumpLaw(nu, delta))


class TestCharFunction:
    def test_zero_frequency(self):
        assert char_function(spec_of(lam=2.0, sigma=0.3), 0.0) == 1.0

    def test_deterministic_model(self):
        spec = spec_of(lam=0.0, sigma=0.0, delta=0.0)
        for k in (-3.0, 0.5, 11.0):
            assert char_function(spec, k) == 1.0

    def test_modulus_bounded(self):
        spec = spec_of(lam=4.0, sigma=0.2, nu=-0.1, delta=0.2)
        for k in np.linspace(-40, 40, 81):
            assert abs(char_function(spec, k)) <= 1.0 + 1e-14


def series_window(mean, nu=0.0, delta=0.1):
    """The series' window at lam tau = mean: first count, plain and tilted weights."""
    law = spec_of(lam=mean, nu=nu, delta=delta).law  # CharSpec rejects a negative mean
    return _poisson_weights(mean, DEFAULT_QUAD.series_tail, law.nu + 0.5 * law.delta**2)


def series_weights(mean):
    """The series' Poisson(mean) weights, the library's one Poisson cutoff."""
    return series_window(mean)[1]


class TestPoissonWeights:
    def test_zero_mean(self):
        assert series_weights(0.0).tolist() == [1.0, 0.0]

    def test_first_weight(self):
        assert series_weights(1.0)[0] == pytest.approx(math.exp(-1.0), rel=1e-14)

    @pytest.mark.parametrize("mean", [0.1, 1.0, 4.0, 40.0, 1000.0])
    def test_mass_captured(self, mean):
        # for the plain and the tilted set, the two tails dropped outside the
        # window n_lo..n_hi together are below target, and the kept weights
        # sum to one
        n_lo, plain_w, tilt_w = series_window(mean, nu=0.3, delta=0.1)
        n_hi = n_lo + len(plain_w) - 1
        m_tilt = mean * math.exp(0.3 + 0.5 * 0.1**2)
        for w, m in ((plain_w, mean), (tilt_w, m_tilt)):
            assert poisson.cdf(n_lo - 1, m) + poisson.sf(n_hi, m) <= DEFAULT_QUAD.series_tail
            assert math.fsum(w) == pytest.approx(1.0, abs=1e-15)

    def test_window_is_short_at_high_intensity(self):
        # lam tau 1000: the counts from 0 up to the upper cutoff number 1411,
        # and more than half of their weights are below 1e-30; the window
        # (tilted mean 956) is 626..1381
        n_lo, plain_w, _ = series_window(1000.0, nu=-0.05)
        assert n_lo > 0
        assert len(plain_w) <= 760

    @settings(max_examples=300, deadline=None)
    @given(
        mean=st.floats(min_value=1e-3, max_value=4500.0),
        theta=st.floats(min_value=-0.6, max_value=0.4),
        digits=st.floats(min_value=2.0, max_value=16.0),
    )
    @example(mean=3618.597881308566, theta=-0.09629317309744057, digits=15.056)
    @example(mean=3664.886317864814, theta=-0.41048786927088476, digits=15.52)
    @example(mean=1000.0, theta=-0.05 + 0.5 * 0.15**2, digits=15.0)
    def test_window_drops_less_than_its_target(self, mean, theta, digits):
        # a window comes back only where both laws' dropped tails are below
        # target, and raises only where the candidates reach the count cap
        target = QuadratureSpec(rel_tol=10.0**-digits).series_tail
        m_tilt = mean * math.exp(theta)
        peak = max(mean, m_tilt)
        try:
            n_lo, plain_w, _ = _poisson_weights(mean, target, theta)
        except TruncationError:
            assert peak + 12.0 * math.sqrt(peak) + 30.0 > transform._N_MAX
            return
        n_hi = n_lo + len(plain_w) - 1
        for m in (mean, m_tilt):
            assert poisson.cdf(n_lo - 1, m) + poisson.sf(n_hi, m) < target

    def test_cap_raises(self):
        with pytest.raises(TruncationError):
            series_weights(5000.0)

    @pytest.mark.parametrize("mean", [1e5, 1e19, 1e300])
    def test_far_past_the_cap_raises(self, mean):
        # the candidate counts start beyond the cap: an empty window, tail 1
        with pytest.raises(TruncationError):
            series_weights(mean)

    def test_negative_mean_rejected(self):
        with pytest.raises(ParameterError):
            series_weights(-1.0)


def untrimmed_parts(spec):
    """Mixture ingredients over every count 0..N, from scipy's Poisson pmf."""
    law = spec.law
    m = spec.mean_count
    m_tilt = m * math.exp(law.nu + 0.5 * law.delta**2)
    peak = max(m, m_tilt)
    n = np.arange(math.ceil(peak + 12.0 * math.sqrt(peak) + 30.0) + 1, dtype=float)
    plain, tilt = poisson.pmf(n, m), poisson.pmf(n, m_tilt)
    return transform._SeriesParts.from_weights(
        spec, n, plain / math.fsum(plain), tilt / math.fsum(tilt)
    )


def reference_lset(spec, l, quad=DEFAULT_QUAD, size=False):
    """The Greek engine as term rows, (tilted, plain) for d/dl, the nu, tau,
    delta and sigma parts and both sides of d/dM, with ds/dparam formed per
    count. d/dM sums the side of the smaller transform: the cdf side
    dw Phi(b or a), or minus the survival side dw Phi(-b or -a), as
    cdf + survival = 1.

    With ``size`` every term, and both parts of phi (1 - a/s), is taken in
    absolute value (all the scalar factors are >= 0): each field's sum of
    |terms|, the scale its rounding error is relative to where terms cancel.

    None where a density phi is a subnormal float: its few bits, scaled by
    1/s, reach normal-sized outputs, and no two ways of forming them agree to
    1e-11 there.
    """
    l2, l1, s2, s1 = transform._series_values(spec, l, quad)
    tau, lam, sigma = spec.tau, spec.lam, spec.sigma
    nu, delta = spec.law.nu, spec.law.delta
    p = transform._series_parts(spec, quad)
    s = p.s
    # the continuous components are the top s.size counts of the window
    n_lo, plain_w, _ = _poisson_weights(spec.mean_count, quad.series_tail, nu + 0.5 * delta**2)
    n_c = np.arange(n_lo, n_lo + len(plain_w), dtype=float)[len(plain_w) - s.size :]
    ds = np.stack([sigma**2 / (2.0 * s), n_c * delta / s, sigma * tau / s])
    growth = math.exp(nu + 0.5 * delta**2)
    m_tilt = lam * tau * growth
    ab = np.empty((2, s.size))  # rows (b, a)
    with np.errstate(over="ignore"):
        np.divide(l - p.mean_c, s, out=ab[1])
    np.add(ab[1], s, out=ab[0])
    np.minimum(np.maximum(ab, -1e3, out=ab), 1e3, out=ab)
    phi = np.exp(-0.5 * ab * ab) / math.sqrt(2.0 * math.pi)
    if np.any((phi > 0.0) & (phi < np.finfo(float).tiny)):
        return None
    wphi = p.coef[:2] * phi
    dphi = -(phi * ab[1] / s)  # rows phi(b) db/ds, phi(a) da/ds
    if size:
        np.abs(dphi, out=dphi)
    dphi[0] += phi[0]
    wdphi = p.coef[:2] * dphi
    terms = np.empty((10, s.size))
    np.divide(wphi, s, out=terms[0:2])
    np.divide(wphi * n_c, s, out=terms[2:4])
    np.multiply(ds[:, None, :], wdphi, out=terms[4:].reshape(3, 2, s.size))
    # rows (tilted, plain) of the cdf side, then of the survival side
    dm = p.dw * ndtr(np.vstack((ab, -ab)))
    if size:
        terms, dm = np.abs(terms), np.abs(dm)
    dm = dm.sum(axis=1)
    if p.atom_mean is not None:
        gap = (l - p.atom_mean) * transform._ATOM_SIDE  # the atom brackets
        atoms = p.atom_dw * np.heaviside(gap, transform._ATOM_AT_0)
        dm += (np.abs(atoms) if size else atoms).sum(axis=1)
    l1_dm, l2_dm = (
        cdf if value <= surv_value else (surv if size else -surv)
        for cdf, surv, value, surv_value in zip(dm[:2], dm[2:], (l1, l2), (s1, s2))
    )
    dl1_dl, dl2_dl, nu1, nu2, tau1, tau2, delta1, delta2, sigma1, sigma2 = (
        terms.sum(axis=1).tolist()
    )
    return transform.LSet(
        l1=l1,
        l2=l2,
        s1=s1,
        s2=s2,
        dl1_dl=dl1_dl,
        dl2_dl=dl2_dl,
        dl1_dtau=lam * growth * l1_dm + tau1,
        dl2_dtau=lam * l2_dm + tau2,
        dl1_dlam=tau * growth * l1_dm,
        dl2_dlam=tau * l2_dm,
        dl1_dnu=m_tilt * l1_dm + nu1,
        dl2_dnu=nu2,
        dl1_ddelta=delta * m_tilt * l1_dm + delta1,
        dl2_ddelta=delta2,
        dl1_dsigma=sigma1,
        dl2_dsigma=sigma2,
    )


# sigma or delta at 1e-153..1e-151 puts s below 1e-150. Their squares, and
# the weights below, stay normal floats: the reference's sigma^2 and w phi are
# formed before the division by s and would keep few bits as subnormals
_width_st = st.one_of(
    st.just(0.0), st.floats(min_value=0.01, max_value=0.6), st.floats(1e-153, 1e-151)
)


class TestSeriesWindow:
    @pytest.mark.parametrize("mean", [0.3, 20.0, 1000.0])
    @pytest.mark.parametrize("sigma", [0.0, 0.2])
    def test_matches_untrimmed_series(self, monkeypatch, mean, sigma):
        # the reference runs the same engine over all counts 0..N
        spec = spec_of(lam=mean, sigma=sigma, nu=-0.05, delta=0.1)
        ls = (0.05 * mean - 0.37, 0.05 * mean + 0.13)
        windowed = [transform._series_record(spec, l, DEFAULT_QUAD) for l in ls]
        ref = untrimmed_parts(spec)
        monkeypatch.setattr(transform, "_series_parts", lambda spec, quad: ref)
        for l, (values, lset) in zip(ls, windowed):
            ref_values, ref_lset = transform._series_record.__wrapped__(spec, l, DEFAULT_QUAD)
            assert values == pytest.approx(ref_values, rel=0.0, abs=1e-15)
            assert dataclasses.astuple(lset) == pytest.approx(
                dataclasses.astuple(ref_lset), rel=1e-13, abs=0.0
            )


class TestSpecValidation:
    def test_quadrature_spec_ranges(self):
        with pytest.raises(ParameterError):
            QuadratureSpec(rel_tol=0.0)
        with pytest.raises(ParameterError):
            QuadratureSpec(rel_tol=0.1)

    def test_char_spec_ranges(self):
        with pytest.raises(ParameterError):
            CharSpec(tau=0.0, lam=1.0, sigma=0.1, law=GaussianJumpLaw(0.0, 0.1))
        with pytest.raises(ParameterError):
            CharSpec(tau=1.0, lam=-1.0, sigma=0.1, law=GaussianJumpLaw(0.0, 0.1))
        with pytest.raises(ParameterError):
            CharSpec(tau=1.0, lam=1.0, sigma=-0.1, law=GaussianJumpLaw(0.0, 0.1))

    def test_density_query_needs_spread(self):
        # lam = 0 and sigma = 0 leaves a pure point mass
        spec = CharSpec(tau=1.0, lam=0.0, sigma=0.0, law=GaussianJumpLaw(0.0, 0.2))
        with pytest.raises(ParameterError):
            green_density(spec, 0.1)


class TestSeriesCdf:
    def test_total_mass(self):
        spec = spec_of(lam=1.0, nu=0.05, delta=0.1)
        assert cdf_plain(spec, 60.0) == pytest.approx(1.0, abs=1e-12)
        assert cdf_tilted(spec, 60.0) == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_limit(self):
        # lam = 0: plain is Phi(l / (sigma sqrt(tau))), tilted is shifted
        spec = spec_of(lam=0.0, sigma=0.2, delta=0.0)
        for l in (-0.4, 0.0, 0.3):
            assert cdf_plain(spec, l) == pytest.approx(ndtr(l / 0.2), abs=1e-15)
            assert cdf_tilted(spec, l) == pytest.approx(ndtr(l / 0.2 + 0.2), abs=1e-15)

    def test_example_value_against_direct_sum(self):
        # frozen: e^-1 (1 + sum_n Phi(0.05/(0.1 sqrt n))/n!) = 0.7885845088177946
        spec = spec_of(lam=1.0, nu=0.0, delta=0.1)
        assert cdf_plain(spec, 0.05) == pytest.approx(0.7885845088177946, abs=1e-13)

    def test_atom_jump_plain(self):
        # one-sided fp limits: the continuous terms cannot move, so the gap
        # is the atom weight e^{-lam tau} up to a final-rounding ulp
        spec = spec_of(lam=1.0, nu=0.05, delta=0.1)
        up = cdf_plain(spec, math.nextafter(0.0, 1.0))
        dn = cdf_plain(spec, math.nextafter(0.0, -1.0))
        assert up - dn == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_atom_jump_tilted(self):
        law = GaussianJumpLaw(0.05, 0.1)
        spec = CharSpec(tau=1.0, lam=1.0, sigma=0.0, law=law)
        up = cdf_tilted(spec, math.nextafter(0.0, 1.0))
        dn = cdf_tilted(spec, math.nextafter(0.0, -1.0))
        expected = math.exp(-varsigma(law)) * math.exp(-1.0)
        assert up - dn == pytest.approx(expected, abs=1e-15)

    def test_atom_bracket_conventions(self):
        # at l = 0 exactly: plain includes the atom, tilted excludes it
        spec = spec_of(lam=1.0, nu=0.05, delta=0.1)
        eps = 1e-13
        assert cdf_plain(spec, 0.0) == pytest.approx(cdf_plain(spec, eps), abs=1e-11)
        assert cdf_tilted(spec, 0.0) == pytest.approx(cdf_tilted(spec, -eps), abs=1e-11)

    def test_complements_sum_to_one(self):
        spec = spec_of(lam=2.0, sigma=0.1, nu=-0.05, delta=0.2)
        for l in (-0.8, -0.1, 0.0, 0.35, 1.2):
            assert cdf_plain(spec, l) + survival_plain(spec, l) == pytest.approx(
                1.0, abs=1e-13
            )
            assert cdf_tilted(spec, l) + survival_tilted(spec, l) == pytest.approx(
                1.0, abs=1e-13
            )

    def test_monotone_in_threshold(self):
        spec = spec_of(lam=1.5, sigma=0.15, nu=0.08, delta=0.12)
        grid = np.linspace(-1.5, 1.5, 61)
        plain = [cdf_plain(spec, l) for l in grid]
        tilt = [cdf_tilted(spec, l) for l in grid]
        assert all(b - a >= -1e-14 for a, b in zip(plain, plain[1:]))
        assert all(b - a >= -1e-14 for a, b in zip(tilt, tilt[1:]))

    def test_large_intensity_stable(self):
        # diffusion-scale intensities must not overflow the series
        spec = spec_of(lam=1000.0, nu=6e-5, delta=math.sqrt(0.04 / 1000.0))
        val = cdf_plain(spec, 0.1)
        assert 0.0 < val < 1.0
        assert cdf_plain(spec, 60.0) == pytest.approx(1.0, abs=1e-10)


    @pytest.mark.parametrize(
        "evaluate",
        [
            cdf_plain,
            cdf_tilted,
            survival_plain,
            survival_tilted,
            lambda spec, l: series_lset(spec, l).l1,
            green_density,
            lambda spec, r: green_density(spec, 0.1, r=r),
        ],
        ids=["cdf_plain", "cdf_tilted", "survival_plain", "survival_tilted", "series_lset",
             "green_density", "green_density_rate"],
    )
    def test_nan_threshold_raises(self, evaluate):
        # the Fourier backend rejects the same input with the same error
        with pytest.raises(ParameterError):
            evaluate(spec_of(lam=1.0, sigma=0.0, delta=0.1), math.nan)


class TestSeriesDerivatives:
    @pytest.mark.parametrize("sigma", [0.0, 0.2])
    def test_match_finite_differences(self, sigma):
        base = dict(tau=0.8, lam=2.0, sigma=sigma, nu=-0.05, delta=0.15)
        l = 0.1
        ls = series_lset(spec_of(**base), l)
        params = ("tau", "lam", "nu", "delta") + (("sigma",) if sigma > 0.0 else ())
        for param in params:
            for fn, name in ((cdf_tilted, "dl1"), (cdf_plain, "dl2")):
                fd = fd_sensitivity(
                    lambda x: fn(spec_of(**{**base, param: x}), l), base[param], 1e-4
                )
                assert getattr(ls, f"{name}_d{param}") == pytest.approx(fd, abs=1e-8), param

    @pytest.mark.parametrize("lam", [0.0, 1e-310])
    def test_tiny_intensity_keeps_the_first_jump(self, lam):
        # d/dlam of e^{-lam tau} sum_n (lam tau)^n/n! Phi_n at lam -> 0 is
        # tau (Phi_1 - Phi_0); a subnormal lam must not overflow n / lam
        spec = spec_of(lam=lam, sigma=0.1, nu=0.0, delta=0.1)
        ls = series_lset(spec, 0.05)
        phi0, phi1 = ndtr(0.05 / 0.1), ndtr(0.05 / math.sqrt(0.02))
        assert ls.dl2_dlam == pytest.approx(phi1 - phi0, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        lam_tau=st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=300.0)),
        tau=st.floats(min_value=1e-3, max_value=3.0),
        sigma=_width_st,
        nu=st.floats(min_value=-0.5, max_value=0.5),
        delta=_width_st,
        count=st.integers(min_value=0, max_value=40),
        offset=st.one_of(st.just(0.0), st.floats(min_value=-6.0, max_value=6.0)),
        far=st.one_of(st.none(), st.floats(min_value=-1e6, max_value=1e6)),
    )
    # s = 3.2e-155 and l = s: the tau and sigma terms of size 1/s^2 overflow
    # unless u is scaled by sigma before the sum
    @example(lam_tau=0.0, tau=1e-3, sigma=1e-153, nu=0.0, delta=0.0, count=0, offset=1.0, far=None)
    def test_matches_the_twelve_row_reference(
        self, lam_tau, tau, sigma, nu, delta, count, offset, far
    ):
        # l sits on the mean of count `count` (an atom where that has no
        # spread), `offset` of its deviations away, or anywhere up to 1e6
        spec = spec_of(tau=tau, lam=lam_tau / tau, sigma=sigma, nu=nu, delta=delta)
        mean, sd = float(count) * -nu, math.sqrt(count * delta**2 + sigma**2 * tau)
        l = far if far is not None else mean + offset * sd
        try:
            got = dataclasses.asdict(series_lset(spec, l))
        except TruncationError:
            return
        ref = reference_lset(spec, l)
        assume(ref is not None)
        ref = dataclasses.asdict(ref)
        scale = dataclasses.asdict(reference_lset(spec, l, size=True))
        for name in ("l1", "l2", "s1", "s2", "dl1_dlam", "dl2_dlam"):
            assert got[name] == ref[name], name  # the same sums, bit for bit
        # relative to |x| where the terms share a sign; where they cancel (at
        # nu = delta^2 and l = 0 every sigma term has the factor 1 - a/s ~ 0)
        # the field is rounding noise in both engines
        for name, want in ref.items():
            assert abs(got[name] - want) <= 1e-11 * scale[name] + 1e-300, (name, got[name], want)

    def test_cancelling_terms_are_compared_on_their_scale(self):
        # nu = delta^2 and l = 0 give a/s = 1 for every count, so each sigma
        # term is about 0 and dl1_dsigma is rounding noise: the two engines
        # disagree far beyond 1e-11 |x| but within 1e-11 of the terms' scale
        spec = spec_of(tau=1.0, lam=74.0, sigma=8.014221994586796e-152, nu=1e-4, delta=0.01)
        got = series_lset(spec, 0.0).dl1_dsigma
        want = reference_lset(spec, 0.0).dl1_dsigma
        assert abs(got - want) <= 1e-11 * reference_lset(spec, 0.0, size=True).dl1_dsigma

    def test_wide_component_far_below_the_threshold_has_no_slope(self):
        # s = 1000 and a = -2000: all mass sits above l, so every row is 0. Clipping
        # a to -1e3 before forming b = a + s would put b at 0, where phi is 0.4.
        spec = CharSpec(tau=1.0, lam=1.0, sigma=1000.0, law=GaussianJumpLaw(0.0, 0.1))
        ls = series_lset(spec, -2e6)
        # the survivals hold every weight (1 to rounding), and the rest is 0
        weights = transform._series_parts(spec, DEFAULT_QUAD).coef[:2].sum(axis=1)
        assert (ls.s1, ls.s2) == tuple(weights.tolist())
        rest = dataclasses.astuple(dataclasses.replace(ls, s1=0.0, s2=0.0))
        assert rest == (0.0,) * len(dataclasses.fields(ls))


class TestFourierBackend:
    def test_matches_series_on_thresholds(self):
        spec = spec_of(lam=1.0, nu=0.0, delta=0.1)
        ls = (-0.5, 0.05, 0.4)
        grid = fourier_grid(spec, ls)
        for i, l in enumerate(ls):
            assert grid.plain[i] == pytest.approx(cdf_plain(spec, l), abs=1e-7)

    def test_example_value(self):
        spec = spec_of(lam=1.0, nu=0.0, delta=0.1)
        assert fourier_grid(spec, [0.05]).plain[0] == pytest.approx(
            0.7885845088177946, abs=1e-7
        )

    def test_grid_all_functions(self):
        spec = spec_of(lam=4.0, sigma=0.2, nu=-0.1, delta=0.2)
        ls = [-1.0, -0.3, 0.2, 0.9]
        grid = fourier_grid(spec, ls)
        for i, l in enumerate(ls):
            assert grid.plain[i] == pytest.approx(cdf_plain(spec, l), abs=1e-8)
            assert grid.tilted[i] == pytest.approx(cdf_tilted(spec, l), abs=1e-8)
            assert grid.plain_surv[i] == pytest.approx(survival_plain(spec, l), abs=1e-8)
            assert grid.tilted_surv[i] == pytest.approx(survival_tilted(spec, l), abs=1e-8)
        assert grid.est_error <= 1e-9

    def test_tiny_diffusion_exceeds_the_budget(self):
        # k_max 6.8e9 needs 2e8 panels; the arrays would take tens of GiB
        spec = spec_of(lam=0.0, sigma=1e-9)
        with time_limit(2.0), pytest.raises(QuadratureError, match="budget"):
            fourier_grid(spec, [0.03])

    def test_tiny_maturity_exceeds_the_budget(self):
        # k_max 3.4e7 needs 1e6 panels, tens of seconds of work
        model = AssetModel(1.0, GaussianJumpLaw(-0.05, 0.15), 0.2)
        terms = make_terms(tau=1e-12, rate=0.03)
        with time_limit(2.0), pytest.raises(QuadratureError, match="budget"):
            price(terms, model, Backend.FOURIER)

    def test_atom_jumps_across_zero(self):
        # sigma = 0: the peeled-off atom comes back on the right side of l = 0
        law = GaussianJumpLaw(0.05, 0.1)
        spec = CharSpec(tau=1.0, lam=1.5, sigma=0.0, law=law)
        grid = fourier_grid(spec, [-1e-12, 1e-12])
        assert grid.plain[1] - grid.plain[0] == pytest.approx(math.exp(-1.5), abs=1e-9)
        assert grid.tilted[1] - grid.tilted[0] == pytest.approx(
            math.exp(-1.5 * (1.0 + varsigma(law))), abs=1e-9
        )
        assert grid.plain_surv[0] - grid.plain_surv[1] == pytest.approx(
            math.exp(-1.5), abs=1e-9
        )

    def test_purely_atomic_rejected(self):
        spec = spec_of(lam=1.0, sigma=0.0, delta=0.0, nu=0.1)
        with pytest.raises(QuadratureError):
            fourier_grid(spec, [0.3])

    @pytest.mark.parametrize(
        "lam, sigma, nu",
        [(1e8, 0.0, -0.05), (1e12, 0.0, -0.05), (1e12, 0.2, -0.05), (1e300, 0.2, 1.0)],
    )
    def test_huge_mean_count_raises(self, lam, sigma, nu):
        # psi decays within ~1/sqrt(lam tau (nu^2 + delta^2)), inside one node
        # spacing of every pass: passes that all read ~0 would agree on 1/2
        with time_limit(2.0), pytest.raises(QuadratureError, match="width"):
            fourier_grid(spec_of(lam=lam, sigma=sigma, nu=nu, delta=0.1), [0.0])

    def test_tilted_atom_where_the_prefactor_overflows(self):
        # sigma = 0, lam tau varsigma = -720 (1 - e^{-4.995}): e^{-lam varsigma tau}
        # is no float, but the tilted atom e^{-lam tau (1 + varsigma)} is 0.0078
        spec = spec_of(lam=720.0, sigma=0.0, nu=-5.0, delta=0.1)
        ls = [3000.0, 3600.0]
        with time_limit(5.0):
            grid = fourier_grid(spec, ls)
        fns = (cdf_plain, cdf_tilted, survival_plain, survival_tilted)
        series = np.array([[fn(spec, l) for l in ls] for fn in fns])
        fourier = np.array([grid.plain, grid.tilted, grid.plain_surv, grid.tilted_surv])
        assert fourier == pytest.approx(series, abs=1e-9)


def log_envelope(spec, k, mean):
    """log of the bound on one Fourier integrand at frequency k, for mean count ``mean``."""
    x = 0.5 * spec.law.delta**2 * k * k
    if spec.sigma > 0.0:
        return mean * math.expm1(-x) - 0.5 * spec.sigma**2 * spec.tau * k * k
    if mean == 0.0:
        return -math.inf
    # atom subtracted: e^{-M} expm1(M e^{-x}), with expm1(y) = e^y (1 - e^{-y})
    y = mean * math.exp(-x)
    return -mean + y + math.log(-math.expm1(-y)) if y > 0.0 else -math.inf


def log_envelopes(spec, k):
    m = spec.mean_count
    return [log_envelope(spec, k, mean) for mean in (m, m * (1.0 + varsigma(spec.law)))]


def log_uniform(lo, hi):
    return st.floats(min_value=math.log(lo), max_value=math.log(hi)).map(math.exp)


class TestFourierCutoff:
    @settings(max_examples=300, deadline=None)
    @given(
        tau=log_uniform(0.01, 10.0),
        lam_tau=st.floats(min_value=0.0, max_value=3600.0),
        sigma=st.one_of(st.just(0.0), log_uniform(1e-5, 5.0)),
        nu=st.floats(min_value=-1.0, max_value=0.5),
        delta=st.one_of(st.just(0.0), log_uniform(1e-6, 3.0)),
        tol=log_uniform(1e-13, 1e-3),
    )
    def test_cutoff_is_where_the_envelope_crosses(self, tau, lam_tau, sigma, nu, delta, tol):
        # both envelopes are at most tol at k_max, and unless k_max is the floor
        # one of them is above tol just before it
        if sigma == 0.0 and delta == 0.0:
            return  # purely atomic: fourier_grid rejects it first
        spec = spec_of(tau=tau, lam=lam_tau / tau, sigma=sigma, nu=nu, delta=delta)
        k_max = _fourier_kmax(spec, tol)
        assert max(log_envelopes(spec, k_max)) <= math.log(tol) + 1e-9
        if k_max > _K_MAX:
            assert max(log_envelopes(spec, 0.999 * k_max)) > math.log(tol)

    @pytest.mark.parametrize(
        "tau, lam, sigma, nu, delta, tol, k_max",
        [
            (1.0, 1.0, 0.0, -0.05, 0.15, 1e-10, 44.247637405931506),
            (1.0, 1.0, 0.2, -0.05, 0.15, 1e-10, 33.214352072607426),
            (0.5, 8.0, 0.15, 0.05, 0.1, 1e-10, 58.15817681812234),
            (2.0, 0.2, 0.0, 0.02, 0.01, 1e-11, 693.1680077805129),
            (1.0, 50.0, 0.01, -0.05, 0.1, 1e-13, 16.0),
        ],
    )
    def test_pinned_cutoffs(self, tau, lam, sigma, nu, delta, tol, k_max):
        # the cutoffs the bracket-and-bisection search found
        spec = spec_of(tau=tau, lam=lam, sigma=sigma, nu=nu, delta=delta)
        assert _fourier_kmax(spec, tol) == pytest.approx(k_max, rel=1e-12)

    def test_high_intensity_atom_cutoff_is_the_crossing(self):
        # sigma = 0, mean count 2696: the crossing is at 113.2; the search's
        # overflow guard took the envelope as 1 there and stopped at 2072.9
        spec = CharSpec(
            tau=2.2720728734381,
            lam=1186.4724343320981,
            sigma=0.0,
            law=GaussianJumpLaw(-0.16135521902809158, 0.0007921937693185356),
        )
        k_max = _fourier_kmax(spec, 1e-4)
        assert k_max == pytest.approx(113.22853107192283, rel=1e-12)
        assert max(log_envelopes(spec, k_max)) == pytest.approx(math.log(1e-4), abs=1e-9)

    @pytest.mark.parametrize(
        "sigma, lam, rel_tol",
        [
            (1e-200, 1.0, 1e-9),  # sigma^2 tau is 0: the jump envelope stays above tol
            (1e-170, 0.0, 1e-9),  # no jumps and sigma^2 tau is 0: psi is 1
            (1e-30, 1.0, 1e-9),  # k_max about 7e30, which no pass can cover
            (0.0, 1.0, 1e-300),
            (0.2, 1.0, 1e-300),
            (0.0, 800.0, 1e-300),
            (0.2, 800.0, 1e-300),
            (0.0, 1.0, 5e-324),  # rel_tol / 10 underflows to 0
            (0.2, 1.0, 5e-324),
        ],
    )
    def test_unreachable_cutoffs_raise(self, sigma, lam, rel_tol):
        spec = spec_of(lam=lam, sigma=sigma, nu=-0.05, delta=0.15)
        with time_limit(2.0), pytest.raises(QuadratureError):
            fourier_grid(spec, [0.1], QuadratureSpec(rel_tol=rel_tol))

    def test_sigma_rounding_away_against_the_jumps(self):
        # sigma^2 tau / 2 is subnormal: the jumps alone set the cutoff
        spec = spec_of(lam=50.0, sigma=1e-160, nu=-0.05, delta=0.15)
        with time_limit(2.0):
            grid = fourier_grid(spec, [0.1])
        assert grid.plain[0] == pytest.approx(0.013131502634084524, abs=1e-12)
        assert grid.plain[0] == pytest.approx(cdf_plain(spec, 0.1), abs=1e-7)


class TestGreenDensity:
    def test_integrates_to_discount(self):
        spec = spec_of(lam=1.0, sigma=0.2, nu=0.05, delta=0.1)
        r = 0.03
        us = np.linspace(-4.0, 4.0, 4001)
        vals = np.array([green_density(spec, u, r=r) for u in us])
        total = np.trapezoid(vals, us)
        assert total == pytest.approx(math.exp(-r * spec.tau), abs=1e-6)

    def test_nonnegative(self):
        spec = spec_of(lam=2.0, sigma=0.15, nu=-0.1, delta=0.2)
        for u in np.linspace(-3, 3, 61):
            assert green_density(spec, u) >= 0.0

    def test_mass_concentrates_as_tau_shrinks(self):
        # central-interval mass at fixed radius grows as maturity shrinks
        radius = 0.05
        masses = []
        for tau in (1.0, 0.25, 0.05):
            spec = spec_of(tau=tau, lam=1.0, sigma=0.2, nu=0.0, delta=0.1)
            us = np.linspace(-radius, radius, 201)
            vals = np.array([green_density(spec, u) for u in us])
            masses.append(np.trapezoid(vals, us))
        assert masses[0] < masses[1] < masses[2]

    @pytest.mark.parametrize("rate", [math.inf, -math.inf])
    def test_infinite_rate_raises(self, rate):
        with pytest.raises(ParameterError):
            green_density(spec_of(lam=1.0, sigma=0.2, delta=0.1), 0.1, r=rate)

    def test_atomic_law_rejected(self):
        with pytest.raises(ParameterError):
            green_density(spec_of(lam=1.0, sigma=0.0, delta=0.0), 0.1)

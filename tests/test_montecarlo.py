"""Monte Carlo oracles: determinism, unbiasedness, exactness properties."""

import math
import resource
import statistics
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats
from scipy.integrate import quad

from shotpricer import (
    AssetModel,
    BondTerms,
    BondVariant,
    GaussianJumpLaw,
    OptionKind,
    RateModel,
    SimConfig,
    b_factor,
    bond_price,
    bs_price,
    conditional_moments,
    mc_bond_price,
    mc_option_price,
    mc_rate_moments,
    price,
)
from shotpricer import montecarlo
from shotpricer.errors import ParameterError

from conftest import make_terms


class TestDeterminism:
    def test_option_repeatable(self, jump_model, atm_call):
        sim = SimConfig(paths=50_000, seed=123)
        one = mc_option_price(atm_call, jump_model, sim)
        two = mc_option_price(atm_call, jump_model, sim)
        assert one == two

    def test_bond_repeatable(self, rate_general_model):
        sim = SimConfig(paths=50_000, seed=99)
        terms = BondTerms(0.0, 5.0, 0.03)
        assert mc_bond_price(rate_general_model, terms, sim) == mc_bond_price(
            rate_general_model, terms, sim
        )

    def test_seed_changes_estimate(self, jump_model, atm_call):
        one = mc_option_price(atm_call, jump_model, SimConfig(paths=50_000, seed=1))
        two = mc_option_price(atm_call, jump_model, SimConfig(paths=50_000, seed=2))
        assert one.mean != two.mean

    def test_estimates_pinned(self, rate_general_model):
        # 70 000 paths span two SFC64 substream batches. The bond's arrival
        # chunks hold 6553 paths, so its first batch ends in a partial chunk
        # of 6; the rate's and the option's jump counts hold the 8192-path
        # cap, eight to a batch. Each second batch (4464 paths) is one
        # chunk. The sums of squares are np.sum of y^2, not np.dot, whose
        # last bits follow the BLAS threads.
        sim = SimConfig(paths=70_000, seed=2024)
        model = AssetModel(1.0, GaussianJumpLaw(-0.05, 0.15), 0.2)
        option = mc_option_price(make_terms(100, 100, 1.0, 0.02), model, sim)
        assert (option.mean, option.std_error) == (10.748811478915878, 0.06549603476124032)
        bond = mc_bond_price(rate_general_model, BondTerms(0.0, 5.0, 0.03), sim)
        assert (bond.mean, bond.std_error) == (0.8091520581936323, 6.45830109650949e-05)
        mean, var = mc_rate_moments(rate_general_model, 0.03, 1.0, sim)
        assert (mean.mean, mean.std_error) == (0.03788418491435917, 2.1216192780899207e-05)
        assert (var.mean, var.std_error) == (0.0002213216078381063, 4.692022070073021e-07)
        assert option.paths_used == bond.paths_used == mean.paths_used == 70_000

    def test_worker_count_does_not_move_estimates(self, monkeypatch, rate_general_model):
        # five batches, the last of one path, so every worker count splits
        # them unevenly; the options count their jumps on each side of the cutoff
        sim = SimConfig(paths=4 * (1 << 16) + 1, seed=8)
        model = AssetModel(1.0, GaussianJumpLaw(-0.05, 0.15), 0.2)
        busy = AssetModel(2.0 * montecarlo._SPLIT_MEAN, GaussianJumpLaw(-0.05, 0.15), 0.2)
        results = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(montecarlo, "_WORKERS", workers)
            results.append((
                mc_option_price(make_terms(100, 95, 1.0, 0.02), model, sim),
                mc_option_price(make_terms(100, 95, 1.0, 0.02), busy, sim),
                mc_bond_price(rate_general_model, BondTerms(0.0, 5.0, 0.03), sim),
                mc_rate_moments(rate_general_model, 0.03, 1.0, sim),
            ))
        assert results[0] == results[1] == results[2]

    def test_concurrent_callers_share_the_free_buffers(self, monkeypatch, rate_general_model):
        # four callers of three workers each, with a short switch interval: a
        # buffer set handed to two batches at once would move an estimate, or
        # show twice in the free list, which keeps about 2 * _WORKERS sets
        # and never more than the twelve that ever ran at once
        monkeypatch.setattr(montecarlo, "_FREE_BUFFERS", [])
        sim = SimConfig(paths=4 * montecarlo._BATCH + 1, seed=4)
        model = AssetModel(1.0, GaussianJumpLaw(-0.05, 0.15), 0.2)
        calls = [
            lambda: mc_option_price(make_terms(100, 95, 1.0, 0.02), model, sim),
            lambda: mc_bond_price(rate_general_model, BondTerms(0.0, 5.0, 0.03), sim),
            lambda: mc_rate_moments(rate_general_model, 0.03, 1.0, sim),
        ]
        monkeypatch.setattr(montecarlo, "_WORKERS", 1)
        expected = [call() for call in calls]
        monkeypatch.setattr(montecarlo, "_WORKERS", 3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as callers:
                futures = [callers.submit(call) for _ in range(4) for call in calls]
                got = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert got == expected * 4
        kept = montecarlo._FREE_BUFFERS
        assert len({id(b) for b in kept}) == len(kept) <= 12

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


class TestHeavyTail:
    # An ATM call under jumps of +2 in log price: E[e^{-r tau} S_T] = 100, but
    # 1000 paths rarely draw the e^{2n} paths that carry it, so a sample often
    # reads a few tens against a price of about 91.8. Which seeds draw enough
    # of the tail depends on the stream, so the checks run over many seeds.
    terms = make_terms(100.0, 100.0, tau=1.0)
    model = AssetModel(1.0, GaussianJumpLaw(2.0, 0.0), 0.2)

    def outcomes(self, seeds=range(1, 21)) -> dict:
        """Per seed, the 1000-path estimate or the ParameterError it raised."""
        out = {}
        for seed in seeds:
            sim = SimConfig(paths=1000, seed=seed)
            try:
                out[seed] = mc_option_price(self.terms, self.model, sim)
            except ParameterError as exc:
                out[seed] = exc
        return out

    def test_call_that_misses_its_forward_raises(self):
        raised = [e for e in self.outcomes().values() if isinstance(e, ParameterError)]
        assert raised
        for exc in raised:
            assert "standard errors" in str(exc)

    def test_call_whose_sample_reaches_the_forward_stands(self):
        # The forward check removes the worst samples, not every miss: over
        # seeds 1-400 about half stand, and 6.7 % and 7.3 % of those (on two
        # sampler streams) lie more than 3 SE from the price, some near 6 SE.
        # An 8 % miss rate bounds the count at the binomial's 0.999 quantile.
        analytic = price(self.terms, self.model).value
        outcomes = self.outcomes(range(1, 401)).values()
        stood = [e for e in outcomes if not isinstance(e, ParameterError)]
        assert len(stood) >= 100
        misses = sum(abs(est.mean - analytic) > 3.0 * est.std_error for est in stood)
        assert misses <= stats.binom.ppf(0.999, len(stood), 0.08)

    def test_put_is_not_checked(self):
        # a put's payoff is bounded by K, so its estimate stays honest
        put = make_terms(100.0, 100.0, tau=1.0, kind=OptionKind.PUT)
        est = mc_option_price(put, self.model, SimConfig(paths=1000, seed=1))
        assert abs(est.mean - price(put, self.model).value) <= 3.0 * est.std_error


class TestShotNoiseSampler:
    @staticmethod
    def loads(u, spare):
        """A bond-like map u -> -expm1(1.5 (u - 1)) / 0.3 in place, and its square."""
        u -= 1.0
        u *= 1.5
        np.expm1(u, out=u)
        u /= -0.3
        return u, np.multiply(u, u, out=spare)

    @staticmethod
    def chunk_paths(count, mean_count):
        """Paths per chunk: the least of count, _CHUNK_PATHS and the floor of
        _CHUNK_JUMPS / mean_count (inf at a mean of 0, or one whose
        reciprocal overflows), and at least one path."""
        cap = min(count, montecarlo._CHUNK_PATHS)
        if mean_count == 0.0 or montecarlo._CHUNK_JUMPS / mean_count >= cap:
            return cap
        return max(1, math.floor(montecarlo._CHUNK_JUMPS / mean_count))

    @classmethod
    def stream(cls, seed, count, mean_count):
        """The sampler's draws, replayed: per chunk of up to chunk_paths paths
        the Poisson total, then one uniform u per jump, split as v = size u
        into the owning path floor(v) and the arrival fraction v - floor(v)."""
        rng = np.random.Generator(np.random.SFC64(seed))
        step = cls.chunk_paths(count, mean_count)
        chunks = []
        for start in range(0, count, step):
            size = min(step, count - start)
            v = rng.random(rng.poisson(mean_count * size)) * size
            owners = np.floor(v)
            chunks.append((size, owners.astype(np.intp), v - owners))
        return rng, chunks

    @settings(max_examples=30, deadline=None)
    @given(
        count=st.integers(1, 12_000),
        mean_count=st.sampled_from([0.0, 1e-3, 0.5, 3.0, 12.0, 40.0]),
        seed=st.integers(0, 2**64 - 1),
    )
    @example(count=12_000, mean_count=40.0, seed=7)
    @example(count=2 * montecarlo._BATCH // 3 + 1, mean_count=1e-3, seed=8)
    @example(count=5000, mean_count=0.0, seed=9)
    # a subnormal mean, whose reciprocal overflows to inf: capped chunks
    @example(count=montecarlo._BATCH, mean_count=5e-324, seed=10)
    # a mean above _CHUNK_JUMPS: one path per chunk
    @example(count=3, mean_count=1.5 * montecarlo._CHUNK_JUMPS, seed=11)
    def test_loads_match_a_python_replay(self, count, mean_count, seed):
        got = montecarlo._jump_sums(
            np.random.Generator(np.random.SFC64(seed)), count, mean_count, self.loads,
            montecarlo._Buffers(),
        )
        # the same stream, drawn as the sampler is specified: each chunk's
        # total and uniforms, split into owners and fractions, the fractions
        # mapped to loads, each path summed in jump order
        s1, s2 = [], []
        for size, owners, frac in self.stream(seed, count, mean_count)[1]:
            h, _ = self.loads(frac, np.empty_like(frac))
            one, two = [0.0] * size, [0.0] * size
            for path, x in zip(owners.tolist(), h.tolist()):
                one[path] += x
                two[path] += x * x
            s1 += one
            s2 += two
        assert [a.tolist() for a in got] == [s1, s2]

    def test_owner_stays_below_the_chunk_size(self):
        # numpy's largest uniform is 1 - 2^-53; size times it rounds below
        # size, so floor(v) needs no clamp for any chunk, up to a whole batch
        sizes = np.arange(1, montecarlo._BATCH + 1)
        top = np.nextafter(1.0, 0.0)
        assert top == 1.0 - 2.0**-53
        assert (np.floor(sizes * top) == sizes - 1).all()

    @pytest.mark.parametrize("mean_count", [0.5, 3.0, 30.0])
    def test_jump_counts_are_independent_poisson(self, mean_count):
        # at least 2^16 paths in at least two full chunks, and one partial of
        # 1000 paths; a unit weight per jump makes the sampler's sum each
        # path's jump count
        step = self.chunk_paths(math.inf, mean_count)
        count, seed = max(2, math.ceil((1 << 16) / step)) * step + 1000, 11
        chunks = self.stream(seed, count, mean_count)[1]
        for size, owners, _ in chunks:
            assert owners.size == 0 or owners.max() < size
        assert chunks[-1][0] == 1000 and chunks[-1][1].size > 0
        counts = np.concatenate([np.bincount(owners, minlength=size) for size, owners, _ in chunks])
        # more paths than a batch: a per-path array that long is kept, since
        # _Buffers.paths adds arrays only when it holds too few
        buffers = montecarlo._Buffers()
        buffers.per_path.append(np.empty(count))
        (sums,) = montecarlo._jump_sums(
            np.random.Generator(np.random.SFC64(seed)), count, mean_count,
            lambda u, spare: (np.ones_like(u),), buffers,
        )
        assert sums.tolist() == counts.astype(float).tolist()
        # chi-square against Poisson(mean_count), tails pooled so that every
        # cell expects at least 5 paths
        pmf = stats.poisson.pmf(np.arange(counts.max() + 1), mean_count)
        cells = np.flatnonzero(pmf * count >= 5.0)
        lo, hi = cells[0], cells[-1]
        observed = np.bincount(counts, minlength=counts.max() + 1)
        observed = np.concatenate(([observed[: lo + 1].sum()], observed[lo + 1 : hi],
                                   [observed[hi:].sum()]))
        expected = np.concatenate(([stats.poisson.cdf(lo, mean_count)], pmf[lo + 1 : hi],
                                   [stats.poisson.sf(hi - 1, mean_count)])) * count
        assert stats.chisquare(observed, expected).pvalue > 1e-3
        # paths next to each other, within a chunk and across chunk edges,
        # draw independent counts: the lag-1 correlation is about N(0, 1/count)
        assert abs(np.corrcoef(counts[:-1], counts[1:])[0, 1]) <= 4.0 / math.sqrt(count)

    @pytest.mark.parametrize("factor", [0.0, 0.03, 0.3, 1.0, 1.2, 3.0, 1e6])
    def test_option_jump_counts_are_poisson(self, factor):
        # below the cutoff by superposition, above it per path: a batch of
        # whole counts whose mean, variance and lag-1 correlation fit
        # Poisson(m) to within 5 of their standard errors
        m, count = factor * montecarlo._SPLIT_MEAN, montecarlo._BATCH
        n = montecarlo._jump_counts(
            np.random.Generator(np.random.SFC64(12)), count, m, montecarlo._Buffers()
        )
        assert n.size == count and (n == np.floor(n)).all()
        if m == 0.0:
            assert not n.any()
            return
        assert abs(n.mean() - m) <= 5.0 * math.sqrt(m / count)
        # a Poisson sample variance has variance (m + 2 m^2) / count
        assert abs(n.var(ddof=1) - m) <= 5.0 * math.sqrt((m + 2.0 * m * m) / count)
        assert abs(np.corrcoef(n[:-1], n[1:])[0, 1]) <= 5.0 / math.sqrt(count)


class TestErrorScaling:
    def test_quadrupling_halves_std_error(self, jump_model, atm_call):
        small = mc_option_price(atm_call, jump_model, SimConfig(paths=50_000, seed=3))
        big = mc_option_price(atm_call, jump_model, SimConfig(paths=200_000, seed=3))
        ratio = small.std_error / big.std_error
        assert ratio == pytest.approx(2.0, rel=0.2)

    def test_standard_errors_match_the_spread_over_seeds(
        self, rate_general_model, jump_model, mixed_model, atm_call
    ):
        # 40 independent estimates: their spread over the mean reported
        # standard error is about 1, and within [0.75, 1.3] for 40 seeds;
        # the options are one model with sigma = 0 and one with sigma > 0
        bond, rate_mean, rate_var, jump_call, mixed_call = [], [], [], [], []
        for seed in range(40):
            sim = SimConfig(paths=4096, seed=seed)
            bond.append(mc_bond_price(rate_general_model, BondTerms(0.0, 5.0, 0.03), sim))
            mean, var = mc_rate_moments(rate_general_model, 0.03, 1.0, sim)
            rate_mean.append(mean)
            rate_var.append(var)
            jump_call.append(mc_option_price(atm_call, jump_model, sim))
            mixed_call.append(mc_option_price(atm_call, mixed_model, sim))
        for ests in (bond, rate_mean, rate_var, jump_call, mixed_call):
            spread = statistics.stdev(e.mean for e in ests)
            assert 0.75 <= spread / statistics.fmean(e.std_error for e in ests) <= 1.3


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

    @staticmethod
    def lognormal_mean(model, terms):
        """E[exp(-int r ds)] = exp(-det + var/2) when int r ds is Gaussian."""
        a, span = model.a, terms.T - terms.t
        b_val = (1.0 - math.exp(-a * span)) / a
        int_b2 = (span - 2 * b_val + (1 - math.exp(-2 * a * span)) / (2 * a)) / a**2
        det = terms.r_t * b_val + model.b * (span - b_val)
        return math.exp(-det + 0.5 * model.sigma_r**2 * int_b2)

    def test_gaussian_only_model_is_exact(self):
        # lam = 0: the log-discount is Gaussian, and the conditional
        # estimator averages its lognormal mean on every path
        model = RateModel(0.5, 0.03, 0.02, 0.0, GaussianJumpLaw(0.01, 0.02))
        terms = BondTerms(0.0, 5.0, 0.03)
        est = mc_bond_price(model, terms, SimConfig(paths=200_000, seed=21))
        assert est.std_error == 0.0
        assert est.mean == pytest.approx(self.lognormal_mean(model, terms), rel=1e-14)

    @pytest.mark.parametrize("a", [10.0**k for k in range(-14, 2)] + [0.0999, 0.1001])
    def test_gaussian_intercept_matches_quadrature_for_every_a(self, a):
        # lam = b = r_t = 0 and sigma_r = 1: every path's discount factor is
        # exp((1/2) int B^2), from the oracle's own int B^2, which is a Taylor
        # series below a span = 0.5 and read 35.5 for 41.67 at a 1e-8 before
        model = RateModel(a, 0.0, 1.0, 0.0, GaussianJumpLaw(0.0, 0.0))
        t, T = 1.0, 6.0
        est = mc_bond_price(model, BondTerms(t, T, 0.0), SimConfig(paths=2, seed=1))
        ref, _ = quad(lambda s: b_factor(model, s, T) ** 2, t, T,
                      epsabs=0.0, epsrel=1e-13, limit=200)
        assert est.std_error == 0.0
        assert 2.0 * math.log(est.mean) == pytest.approx(ref, rel=1e-12)

    def test_zero_jump_law_is_exact(self):
        # jumps that arrive but move nothing (nu = delta = 0) leave the same bond
        model = RateModel(0.5, 0.03, 0.02, 3.0, GaussianJumpLaw(0.0, 0.0))
        terms = BondTerms(0.0, 5.0, 0.03)
        est = mc_bond_price(model, terms, SimConfig(paths=200_000, seed=21))
        assert est.std_error == 0.0
        assert est.mean == pytest.approx(self.lognormal_mean(model, terms), rel=1e-14)

    @pytest.mark.parametrize("paths", [1, 10])
    def test_paths_without_spread_raise(self, paths):
        # lambda_r T = 0.05: all ten paths draw no jump with probability 0.6,
        # and then every path holds the same conditional value
        model = RateModel(0.5, 0.03, 0.01, 0.01, GaussianJumpLaw(0.005, 0.01))
        sim = SimConfig(paths=paths, seed=1)
        with pytest.raises(ParameterError, match="no spread"):
            mc_bond_price(model, BondTerms(0.0, 5.0, 0.03), sim)
        with pytest.raises(ParameterError, match="no spread"):
            mc_rate_moments(model, 0.03, 1.0, sim)

    def test_overflowing_discount_raises(self, recwarn):
        # delta_r = 100 makes E[e^{-eta B}] about e^{5000 B^2}, past any float
        model = RateModel(0.5, 0.03, 0.01, 1.0, GaussianJumpLaw(0.005, 100.0))
        with pytest.raises(ParameterError, match="overflows a float"):
            mc_bond_price(model, BondTerms(0.0, 5.0, 0.03), SimConfig(paths=10_000))
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

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
        # the mean sits 1.5e-6 below r_t = 0.05 at horizon 1e-4 (a 0.5, b 0),
        # five times the standard error
        mean, _ = conditional_moments(rate_jump_model, 0.05, 1e-4)
        m_est, _ = mc_rate_moments(
            rate_jump_model, 0.05, 1e-4, SimConfig(paths=100_000, seed=29)
        )
        assert abs(m_est.mean - mean) <= 3.0 * m_est.std_error
        assert abs(m_est.mean - 0.05) <= 1e-5

    def test_overflowing_variance_raises(self, recwarn):
        # delta_r = 1e80 squares to 1e160, and the influence's square overflows
        model = RateModel(0.5, 0.03, 0.01, 1.0, GaussianJumpLaw(0.005, 1e80))
        with pytest.raises(ParameterError, match="overflows a float"):
            mc_rate_moments(model, 0.03, 1.0, SimConfig(paths=10_000))
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_repeatable(self, rate_jump_model):
        sim = SimConfig(paths=50_000, seed=41)
        assert mc_rate_moments(rate_jump_model, 0.03, 1.0, sim) == mc_rate_moments(
            rate_jump_model, 0.03, 1.0, sim
        )


class TestJumpBudget:
    def test_parallel_batches_keep_memory_bounded(self, monkeypatch):
        # 30 jumps per path: drawing a whole batch's arrivals at once peaked near 49 MB
        monkeypatch.setattr(montecarlo, "_WORKERS", 2)
        model = RateModel(0.5, 0.03, 0.01, 3.0, GaussianJumpLaw(0.005, 0.01))
        tracemalloc.start()
        try:
            mc_bond_price(model, BondTerms(0.0, 10.0, 0.03), SimConfig(paths=1 << 18, seed=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16e6

    def test_option_batches_keep_memory_bounded(self, monkeypatch, mixed_model, atm_call):
        # three per-path arrays per batch: 2.2-3.2 MB in flight on two workers,
        # where a sampler with per-path temporaries peaked at 5.3-6.8 MB
        monkeypatch.setattr(montecarlo, "_WORKERS", 2)
        tracemalloc.start()
        try:
            mc_option_price(atm_call, mixed_model, SimConfig(paths=1 << 18, seed=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5e6

    @pytest.mark.parametrize("workers", [1, 2])
    def test_warm_calls_fault_in_no_fresh_pages(self, monkeypatch, workers,
                                                rate_general_model, mixed_model, atm_call):
        # every per-path and per-jump array sits in a kept buffer set, and the
        # per-chunk np.bincount output stays under glibc's mmap threshold: a
        # warm call took 0-2 minor faults, where fresh arrays per batch took
        # 230-1450 (the fewest of three calls absorbs a stray thread start)
        monkeypatch.setattr(montecarlo, "_WORKERS", workers)
        sim = SimConfig(paths=1 << 18, seed=3)
        busy = AssetModel(2.0 * montecarlo._SPLIT_MEAN, GaussianJumpLaw(-0.05, 0.15), 0.2)
        for oracle in (
            lambda: mc_option_price(atm_call, mixed_model, sim),
            lambda: mc_option_price(atm_call, busy, sim),
            lambda: mc_bond_price(rate_general_model, BondTerms(0.0, 5.0, 0.03), sim),
            lambda: mc_rate_moments(rate_general_model, 0.03, 1.0, sim),
        ):
            oracle()
            faults = []
            for _ in range(3):
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                oracle()
                faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
            assert min(faults) <= 32, faults

    def test_batch_past_budget_raises_before_drawing(self, rate_jump_model):
        # 2^16 paths expecting 300 jumps each would hold 2e7 jumps per batch
        model = RateModel(0.5, 0.0, 0.0, 300.0, rate_jump_model.law)
        sim = SimConfig(paths=1 << 16, seed=5)
        with pytest.raises(ParameterError, match="expected jump count"):
            mc_bond_price(model, BondTerms(0.0, 1.0, 0.03), sim)
        with pytest.raises(ParameterError, match="expected jump count"):
            mc_rate_moments(model, 0.03, 1.0, sim)

    def test_subnormal_intensity_has_no_spread(self):
        # lambda_r = 5e-324: the chunk rule's quotient _CHUNK_JUMPS / mean is
        # inf, so the batch is one chunk; no path draws a jump
        model = RateModel(0.5, 0.03, 0.01, 5e-324, GaussianJumpLaw(0.005, 0.01))
        sim = SimConfig(paths=1000, seed=1)
        with pytest.raises(ParameterError, match="no spread"):
            mc_bond_price(model, BondTerms(0.0, 5.0, 0.03), sim)
        with pytest.raises(ParameterError, match="no spread"):
            mc_rate_moments(model, 0.03, 1.0, sim)

    def test_few_paths_may_expect_many_jumps(self, rate_jump_model):
        model = RateModel(0.5, 0.0, 0.0, 300.0, rate_jump_model.law)
        est = mc_bond_price(model, BondTerms(0.0, 1.0, 0.03), SimConfig(paths=10, seed=5))
        assert math.isfinite(est.mean) and est.paths_used == 10

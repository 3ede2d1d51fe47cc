import math
import signal
import warnings
from contextlib import contextmanager

import pytest
from scipy.integrate import IntegrationWarning, quad as squad

from shotpricer import (
    AssetModel,
    GaussianJumpLaw,
    OptionKind,
    OptionTerms,
    QuadratureSpec,
    RateModel,
)


@pytest.fixture
def tight_quad():
    """Tighter-than-default controls for reduction tests at 1e-9."""
    return QuadratureSpec(rel_tol=1e-12)


@pytest.fixture
def jump_model():
    return AssetModel(lam=1.0, law=GaussianJumpLaw(nu=-0.05, delta=0.15), sigma=0.0)


@pytest.fixture
def mixed_model():
    return AssetModel(lam=0.5, law=GaussianJumpLaw(nu=0.05, delta=0.1), sigma=0.15)


@pytest.fixture
def atm_call():
    return OptionTerms(
        spot=100.0, strike=100.0, tau=1.0, rate=0.02, dividend=0.0, kind=OptionKind.CALL
    )


@pytest.fixture
def rate_jump_model():
    return RateModel(
        a=0.5, b=0.0, sigma_r=0.0, lambda_r=1.0, law=GaussianJumpLaw(nu=0.01, delta=0.02)
    )


@pytest.fixture
def rate_general_model():
    return RateModel(
        a=0.5, b=0.03, sigma_r=0.01, lambda_r=2.0, law=GaussianJumpLaw(nu=0.005, delta=0.01)
    )


def make_terms(spot=100.0, strike=100.0, tau=1.0, rate=0.0, dividend=0.0, kind=OptionKind.CALL):
    return OptionTerms(spot=spot, strike=strike, tau=tau, rate=rate, dividend=dividend, kind=kind)


@contextmanager
def time_limit(seconds):
    """Fail with TimeoutError instead of hanging past ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def layer_reference(model, t, T):
    """Break-pointed scipy reference for ``a_shot``: (A, lam int |integrand|).

    Before T - 40/a the integrand is flat at B = 1/a (as in ``a_shot``); on
    the rest scipy's adaptive rule runs between break points T - 2^k / (|nu| +
    delta), which mark the layer at maturity and its doublings."""
    law, a = model.law, model.a

    def integrand(s):
        b_val = -math.expm1(-a * (T - s)) / a
        return math.expm1(-law.nu * b_val + 0.5 * law.delta**2 * b_val * b_val)

    start = max(t, T - 40.0 / a)
    scale = 1.0 / (abs(law.nu) + law.delta)
    cuts = sorted(T - scale * 2.0**k for k in range(-4, 60) if start < T - scale * 2.0**k < T)
    edges = [start, *cuts, T]
    flat = (start - t) * integrand(-math.inf) if start > t else 0.0
    value, size = [flat], [abs(flat)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)  # roundoff at epsrel 1e-13
        for lo, hi in zip(edges, edges[1:]):
            value.append(squad(integrand, lo, hi, limit=200, epsabs=0.0, epsrel=1e-13)[0])
            size.append(
                squad(lambda s: abs(integrand(s)), lo, hi, limit=200, epsabs=0.0, epsrel=1e-13)[0]
            )
    return model.lambda_r * math.fsum(value), model.lambda_r * math.fsum(size)

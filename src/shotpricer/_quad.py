"""Shared Gauss-Legendre / Gauss-Hermite helpers."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ParameterError, QuadratureError

# Most nodes one doubling integral may use: the first 1024-node rule takes
# about 0.1 s to build, a 4096-node one several seconds.
_MAX_NODES = 1024


@lru_cache(maxsize=64)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def gauss_legendre(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped to [a, b]."""
    x, w = _leggauss(n)
    half = 0.5 * (b - a)
    return half * x + 0.5 * (b + a), half * w


@lru_cache(maxsize=16)
def gauss_hermite(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights for expectations under the standard normal density.

    Returns ``(u, w)`` such that E[f(Z)] ~= sum w_i f(u_i) for Z ~ N(0, 1).
    """
    u, w = np.polynomial.hermite.hermgauss(n)
    return u * np.sqrt(2.0), w / np.sqrt(np.pi)


def doubling_gauss_legendre(f, a: float, b: float, rel_tol: float) -> float:
    """Gauss-Legendre integral of a vectorized callable over the whole of [a, b].

    Passes use 16, 32, 64, ... nodes; a pass is accepted when it differs from
    the previous one by at most ``rel_tol`` times its integral of |f|, so an
    integral near 0 by cancellation still converges. Past ``_MAX_NODES`` nodes
    QuadratureError is raised. ``f`` must accept an ndarray of abscissae.
    Non-finite bounds (ParameterError) and a non-finite pass (QuadratureError)
    raise at once.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ParameterError(f"integration bounds must be finite, got [{a}, {b}]")
    if a == b:
        return 0.0
    prev = err = math.inf
    n = 16
    while n <= _MAX_NODES:
        x, w = gauss_legendre(a, b, n)
        fx = f(x)
        est = float(np.dot(w, fx))
        if not math.isfinite(est):
            raise QuadratureError(f"integrand not finite on [{a}, {b}]", achieved=est)
        err = abs(est - prev)
        if err <= rel_tol * abs(float(np.dot(w, np.abs(fx)))):
            return est
        prev = est
        n *= 2
    raise QuadratureError(
        f"Gauss-Legendre passes on [{a}, {b}] still differ at {_MAX_NODES} nodes",
        achieved=err,
    )

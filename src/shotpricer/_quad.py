"""Shared Gauss-Legendre / Gauss-Hermite helpers."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ParameterError, QuadratureError

# Gauss-Legendre nodes per adaptive panel, and the deepest bisection allowed.
_NODES = 16
_MAX_DEPTH = 24

# Most panels one adaptive integral may evaluate (tests and benchmark need 23).
_MAX_PANELS = 4096


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


def adaptive_gauss_legendre(f, a: float, b: float, rel_tol: float = 1e-10) -> float:
    """Adaptive panel Gauss-Legendre integration of a vectorized callable.

    Each panel is accepted when one bisection changes its estimate by less
    than the panel's share of the tolerance; otherwise it is split, and past
    ``_MAX_DEPTH`` or ``_MAX_PANELS`` panels QuadratureError is raised. ``f``
    must accept an ndarray of abscissae. Non-finite bounds (ParameterError)
    and a non-finite panel estimate (QuadratureError) raise at once.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ParameterError(f"integration bounds must be finite, got [{a}, {b}]")
    if a == b:
        return 0.0

    def panel(lo: float, hi: float) -> float:
        x, w = gauss_legendre(lo, hi, _NODES)
        est = float(np.dot(w, f(x)))
        if not math.isfinite(est):
            raise QuadratureError(f"integrand not finite on [{lo}, {hi}]", achieved=est)
        return est

    whole = panel(a, b)
    scale = max(abs(whole), 1e-30)
    stack = [(a, b, whole, 0)]
    total = 0.0
    panels = 1
    while stack:
        lo, hi, est, depth = stack.pop()
        mid = 0.5 * (lo + hi)
        left = panel(lo, mid)
        right = panel(mid, hi)
        panels += 2
        err = abs(left + right - est)
        tol_here = rel_tol * scale * (hi - lo) / abs(b - a)
        if err <= tol_here:
            total += left + right
        elif depth >= _MAX_DEPTH or panels >= _MAX_PANELS:
            raise QuadratureError(f"adaptive quadrature stalled on [{lo}, {hi}]", achieved=err)
        else:
            stack.append((lo, mid, left, depth + 1))
            stack.append((mid, hi, right, depth + 1))
    return total

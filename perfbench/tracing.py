"""Timing spans around the library's public functions, installed from outside.

``Tracer.installed`` replaces each function in ``TRACED`` with a wrapper in
every namespace that binds it (every ``shotpricer`` module plus any extra
namespace given, such as the benchmark's own workload module) and restores
the originals on exit. A span is ``(name, start_ns, end_ns, parent, request,
count)``; spans stay in memory until the run writes them out.

jump_measure gets no span: its closed forms take under a microsecond, so a
wrapper would mostly time itself, and their cost lands in the caller's self
time. shortrate's quadrature (``_quad``) is not public and lands in a_shot.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from collections import defaultdict


def _threshold_count(args, kwargs, result) -> int:
    ls = kwargs.get("ls", args[1] if len(args) > 1 else ())
    return len(ls) if hasattr(ls, "__len__") else 1


def _paths(args, kwargs, result) -> int:
    est = result[0] if isinstance(result, tuple) else result
    return est.paths_used


def _report_bytes(args, kwargs, result) -> int:
    argv = list(args[0] if args else kwargs.get("argv") or ())
    return os.path.getsize(argv[argv.index("--out") + 1]) if "--out" in argv else 0


# (module, function, span group, optional count taken from the call)
TRACED = (
    ("transform", "cdf_plain", "transform.series", None),
    ("transform", "cdf_tilted", "transform.series", None),
    ("transform", "survival_plain", "transform.series", None),
    ("transform", "survival_tilted", "transform.series", None),
    ("transform", "series_lset", "transform.series", None),
    ("transform", "green_density", "transform.series", None),
    ("transform", "fourier_grid", "transform.fourier", _threshold_count),
    ("options", "price", "options.price", None),
    ("options", "bs_price", "options.other", None),
    ("options", "parity_residual", "options.other", None),
    ("greeks", "common_greeks", "greeks", None),
    ("greeks", "new_greeks", "greeks", None),
    ("greeks", "bs_greeks", "greeks", None),
    ("greeks", "identity_report", "greeks", None),
    ("shortrate", "bond_price", "shortrate.bond_price", None),
    ("shortrate", "a_shot", "shortrate.a_shot", None),
    ("shortrate", "ode_residual", "shortrate.ode_residual", None),
    ("montecarlo", "mc_option_price", "montecarlo", _paths),
    ("montecarlo", "mc_bond_price", "montecarlo", _paths),
    ("montecarlo", "mc_rate_moments", "montecarlo", _paths),
    ("validation", "option_pide_residual", "validation", None),
    ("validation", "bond_pide_residual", "validation", None),
    ("validation", "backend_agreement", "validation", None),
    ("validation", "diffusion_convergence", "validation", None),
    ("cli", "main", "cli", _report_bytes),
)

REQUEST = "bench.request"
CHECK = "bench.check"


class Tracer:
    """Collects spans in memory; not thread-safe (the benchmark has one client)."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.request = None

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.request, 0])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def _wrap(self, fn, group: str, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.begin(group)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.end(idx)
                if counter is not None and result is not None:
                    tracer.spans[idx][5] = counter(args, kwargs, result)

        return traced

    @contextlib.contextmanager
    def installed(self, extra_namespaces=()):
        """Swap the wrappers in for the ``with`` body and always swap them back."""
        spaces = [m for name, m in list(sys.modules.items())
                  if m is not None and (name == "shotpricer" or name.startswith("shotpricer."))]
        spaces += list(extra_namespaces)
        undo = []
        try:
            for mod_name, fn_name, group, counter in TRACED:
                original = getattr(sys.modules[f"shotpricer.{mod_name}"], fn_name)
                wrapper = self._wrap(original, group, counter)
                for space in spaces:
                    for attr, value in list(vars(space).items()):
                        if value is original:
                            undo.append((space, attr, original))
                            setattr(space, attr, wrapper)
            yield self
        finally:
            for space, attr, original in reversed(undo):
                setattr(space, attr, original)


def self_times(spans) -> list[int]:
    """Each span's duration minus the time its direct children cover (ns)."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            own[s[3]] -= s[2] - s[1]
    return own


def aggregate(spans) -> dict:
    """Per-group calls, self time (ns) and counts, plus the request total."""
    own = self_times(spans)
    calls: dict = defaultdict(int)
    self_ns: dict = defaultdict(int)
    counts: dict = defaultdict(int)
    total_ns = 0
    for span, t in zip(spans, own):
        group = span[0]
        calls[group] += 1
        self_ns[group] += t
        counts[group] += span[5]
        if group == REQUEST:
            total_ns += span[2] - span[1]
    return {"calls": calls, "self_ns": self_ns, "counts": counts, "total_ns": total_ns}

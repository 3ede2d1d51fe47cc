"""Closed-loop benchmark of shotpricer: one client, one thread, seeded inputs.

Run from the repository root:

    python3 perfbench/run.py --workload chain --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics: set-up time, throughput,
latency percentiles, the share of requests that passed their checks and
peak memory. ``--trace 1`` alternates untraced and traced passes over a
fixed block of the workload's first requests, checks that both give
bit-identical outputs, and reports per-layer calls, self times and shares.
The last line of standard output is the result as one JSON object; the line
before it carries provenance. See README.md for workloads and metrics.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1  # fixed before numpy loads; the client is single-threaded
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

WORKLOADS = ("chain", "scatter", "verify")
SETUP_SAMPLES = 5  # set-ups per run (this process plus fresh child processes)
CHILD_TIMEOUT_S = 120
# Calibration kernel time that defines reference time: a wall time t measured
# while the kernel takes c seconds is reported as t * CALIBRATION_REF_S / c.
CALIBRATION_REF_S = {"calls": 0.0025, "arrays": 0.0055}
# The kernel whose speed tracks the workload's on this host: chain is bound
# by many small numpy calls, scatter and verify by long arrays.
CALIBRATION_KERNEL = {"chain": "calls", "scatter": "arrays", "verify": "arrays"}
# Requests in the fixed block a traced run replays, about 1-2 s per pass.
TRACE_BLOCK = {"chain": 10, "scatter": 256, "verify": 48}

END_TO_END = ("setup_s", "req_per_s", "lat_p50_ms", "lat_p90_ms", "ok_frac", "peak_rss_mb")
UNITS = {"setup_s": "s", "req_per_s": "1/s", "lat_p50_ms": "ms", "lat_p90_ms": "ms",
         "ok_frac": "ratio", "peak_rss_mb": "MB"}
ERROR_CLASSES = ("ShotPricerError", "ParameterError", "DegenerateMaturityError", "KinkError",
                 "TruncationError", "QuadratureError", "ConfigError", "CheckFailed", "other")
SHARE_LAYERS = ("transform", "transform.series", "transform.fourier", "options", "greeks",
                "shortrate", "montecarlo", "validation", "cli", "bench")


class Setup:
    """Everything a run needs once the library is imported and warmed up."""

    def __init__(self, workload: str, seed: int, workdir: str):
        started = time.perf_counter()
        sys.path.insert(0, SRC)
        import shotpricer

        if not os.path.abspath(shotpricer.__file__).startswith(SRC + os.sep):
            raise ImportError(f"shotpricer was imported from {shotpricer.__file__}, not {SRC}")
        import workloads

        self.workloads = workloads
        self.requests = workloads.make_requests(workload, seed)
        configs = workloads.cli_configs(seed) if workload == "verify" else []
        self.inputs_sha256 = workloads.inputs_digest(self.requests, configs)
        self.session = workloads.Session(workdir, configs)
        self.session.warm_cli()
        warmups = workloads.warmup_requests(self.requests)
        self.warmups = len(warmups)
        self.warmup_failures = Counter()
        for req in warmups:
            error = run_one(self, req)[2]
            if error is not None:
                self.warmup_failures[error_name(error)] += 1
        self.seconds = time.perf_counter() - started


def error_name(exc: BaseException) -> str:
    name = type(exc).__name__
    return name if name in ERROR_CLASSES else "other"


def _no_span(name: str):
    return contextlib.nullcontext()


def run_one(state: Setup, req, span=_no_span):
    """Execute and check one request; returns (outputs, latency_s, error).

    Latency covers the library calls, not the check. On failure outputs and
    latency are None. ``span`` (a traced run's span factory) wraps the
    request and its check.
    """
    wl = state.workloads
    try:
        with span(tracing.REQUEST):
            t0 = time.perf_counter()
            out = wl.execute(req, state.session)
            elapsed = time.perf_counter() - t0
            with span(tracing.CHECK):
                wl.check(req, out, state.session)
        return out, elapsed, None
    except Exception as exc:  # a failing request is counted, never stops the run
        print(f"request {req[0]} failed: {exc!r}", file=sys.stderr)
        traceback.print_exc(limit=3, file=sys.stderr)
        return None, None, exc


# ---------------------------------------------------------------------------
# Plain run: end-to-end metrics
# ---------------------------------------------------------------------------


def child_setup_seconds(workload: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter, so the import counts again."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          check=True, cwd=ROOT)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def _calls_kernel(np, gammaln, ndtr) -> float:
    """Many short numpy and scipy calls with plain Python between them."""
    acc = 0.0
    for i in range(120):
        n = np.arange(40 + i % 60, dtype=float)
        w = np.exp(-3.0 + n * math.log(3.0) - gammaln(n + 1.0))
        z = (0.1 + n * 0.05) / np.sqrt(n * 0.01 + 0.04)
        acc += math.fsum(w * ndtr(z))
        item = {"i": i, "acc": acc}
        for j in range(40):
            acc += math.exp(-0.001 * j) * item["i"] * 1e-9
    return acc


def _arrays_kernel(np, gammaln, ndtr) -> float:
    """Poisson-weighted sums over arrays of 200 to 1300 terms."""
    acc = 0.0
    for i in range(12):
        m = 200 + 100 * i
        n = np.arange(m, dtype=float)
        mean = 0.5 * m
        w = np.exp(-mean + n * math.log(mean) - gammaln(n + 1.0))
        z = (0.1 + n * 0.05) / np.sqrt(n * 0.01 + 0.04)
        acc += math.fsum(w * ndtr(z))
    return acc


_KERNELS = {"calls": _calls_kernel, "arrays": _arrays_kernel}


def calibration_seconds(kernel: str) -> float:
    """Best of three timings of a fixed kernel of numpy, scipy and plain Python.

    The kernel uses no shotpricer code, so no change to the library moves it;
    it runs slower when the host does.
    """
    import numpy as np
    from scipy.special import gammaln, ndtr

    body = _KERNELS[kernel]
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        body(np, gammaln, ndtr)
        best = min(best, time.perf_counter() - t0)
    return best


def speed_scale(workload: str) -> float:
    """Factor that turns wall time now into reference time (see README.md)."""
    kernel = CALIBRATION_KERNEL[workload]
    return CALIBRATION_REF_S[kernel] / calibration_seconds(kernel)


def closed_loop(state: Setup, workload: str, seconds: float) -> dict:
    """Send the next request only after the previous returns, for ``seconds``.

    Requests run in windows of one stratified block. The calibration kernel
    runs between windows, outside the timed time. A window's wall times
    turn into reference times with the geometric mean of the speed scales
    measured on either side of it.
    """
    wl = state.workloads
    requests = state.requests
    window = wl.WINDOW[workload]
    scales = [speed_scale(workload)]
    windows: list[tuple[int, float, list[float]]] = []  # (requests, wall s, latencies s)
    failures: Counter = Counter()
    attempted = 0
    timed = 0.0
    while timed < seconds:
        start = time.perf_counter()
        done, latencies = 0, []
        while done < window and timed + time.perf_counter() - start < seconds:
            req = requests[attempted % len(requests)]
            attempted += 1
            done += 1
            _, elapsed, error = run_one(state, req)
            if error is None:
                latencies.append(elapsed)
            else:
                failures[error_name(error)] += 1
        wall = time.perf_counter() - start
        timed += wall
        windows.append((done, wall, latencies))
        scales.append(speed_scale(workload))
    return {"attempted": attempted, "failures": failures, "timed_s": timed, "window": window,
            "windows": [(n, wall, lat, math.sqrt(scales[i] * scales[i + 1]))
                        for i, (n, wall, lat) in enumerate(windows)]}


def percentile(values: list[float], q: int) -> float:
    """q-th percentile (statistics.quantiles, exclusive method)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def setup_samples(state: Setup, args) -> list[tuple[float, float]]:
    """(wall s, speed scale) of this process's set-up and of fresh interpreters'.

    A child's scale is the geometric mean of calibrations just before and
    just after it; this process can only calibrate after its own set-up,
    because the kernel needs numpy and scipy loaded.
    """
    samples = [(state.seconds, speed_scale(args.workload))]
    before = samples[0][1]
    for _ in range(SETUP_SAMPLES - 1):
        seconds = child_setup_seconds(args.workload, args.seed)
        after = speed_scale(args.workload)
        samples.append((seconds, math.sqrt(before * after)))
        before = after
    return samples


def plain_run(state: Setup, args) -> tuple[dict, dict]:
    setups = setup_samples(state, args)
    loop = closed_loop(state, args.workload, args.seconds)
    windows = loop["windows"]
    lat = [t * k for _, _, lats, k in windows for t in lats]  # reference seconds
    wall_lat = [t for _, _, lats, _ in windows for t in lats]
    full = [wall * k for n, wall, _, k in windows if n == loop["window"]]
    n, wall, _, k = windows[0]
    failures = loop["failures"] + state.warmup_failures
    failed = sum(failures.values())
    attempted = loop["attempted"] + state.warmups
    values = {
        "setup_s": statistics.median(s * k for s, k in setups),
        "req_per_s": loop["window"] / statistics.median(full) if full else n / (wall * k),
        "lat_p50_ms": 1e3 * statistics.median(lat) if lat else None,
        "lat_p90_ms": 1e3 * percentile(lat, 90) if lat else None,
        "ok_frac": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {
        "latency_samples": len(lat),
        "throughput_windows": len(full),
        "timed_wall_s": loop["timed_s"],
        "speed_scale_median": statistics.median(k for *_, k in windows),
        "wall_clock": {
            "setup_s": statistics.median(s for s, _ in setups),
            "req_per_s": loop["attempted"] / loop["timed_s"],
            "lat_p50_ms": 1e3 * statistics.median(wall_lat) if wall_lat else None,
            "lat_p90_ms": 1e3 * percentile(wall_lat, 90) if wall_lat else None,
        },
        "setup_samples": setups,
        "failures": dict(failures),
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": UNITS[name]} for name in END_TO_END},
    }
    return result, info


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics
# ---------------------------------------------------------------------------


def run_block(state: Setup, block, tracer=None, first_id: int = 0) -> tuple[float, list, Counter]:
    """Run a block of requests; returns its wall time, output digests and failures."""
    digests, failures = [], Counter()
    start = time.perf_counter()
    for i, req in enumerate(block):
        if tracer:
            tracer.request = first_id + i
        out, _, error = run_one(state, req, tracer.span if tracer else _no_span)
        if error is None:
            digests.append(state.workloads.result_digest(out))
        else:
            failures[error_name(error)] += 1
            digests.append(None)
    return time.perf_counter() - start, digests, failures


def layer_metrics(agg: dict, passes: int, overhead: float, failures: Counter) -> dict:
    """Per-layer values per traced block, averaged over the traced passes."""
    calls, self_ns, counts = agg["calls"], agg["self_ns"], agg["counts"]

    def group_sum(table, prefix):
        return sum(v for g, v in table.items() if g == prefix or g.startswith(prefix + "."))

    def ms(prefix):
        return group_sum(self_ns, prefix) / 1e6 / passes

    def n(prefix):
        return group_sum(calls, prefix) / passes

    mc_s = group_sum(self_ns, "montecarlo") / 1e9
    m = {
        "transform.series.calls": ("count", n("transform.series")),
        "transform.series.self_ms": ("ms", ms("transform.series")),
        "transform.fourier.calls": ("count", n("transform.fourier")),
        "transform.fourier.thresholds": ("count", counts["transform.fourier"] / passes),
        "transform.fourier.self_ms": ("ms", ms("transform.fourier")),
        "options.price.calls": ("count", n("options.price")),
        "options.price.self_ms": ("ms", ms("options.price")),
        "greeks.calls": ("count", n("greeks")),
        "greeks.self_ms": ("ms", ms("greeks")),
        "montecarlo.paths": ("count", counts["montecarlo"] / passes),
        "montecarlo.self_ms": ("ms", ms("montecarlo")),
        "montecarlo.paths_per_s": ("1/s", counts["montecarlo"] / mc_s if mc_s > 0 else 0.0),
        "validation.calls": ("count", n("validation")),
        "validation.self_ms": ("ms", ms("validation")),
        "shortrate.ode_residual.self_ms": ("ms", ms("shortrate.ode_residual")),
        "shortrate.bond_price.calls": ("count", n("shortrate.bond_price")),
        "shortrate.bond_price.self_ms": ("ms", ms("shortrate.bond_price")),
        "shortrate.a_shot.calls": ("count", n("shortrate.a_shot")),
        "shortrate.a_shot.self_ms": ("ms", ms("shortrate.a_shot")),
        "cli.calls": ("count", n("cli")),
        "cli.self_ms": ("ms", ms("cli")),
        "cli.report_bytes": ("bytes", counts["cli"] / passes),
    }
    total = agg["total_ns"]
    for layer in SHARE_LAYERS:
        m[f"{layer}.share"] = ("ratio", group_sum(self_ns, layer) / total if total else 0.0)
    m["trace.overhead_frac"] = ("ratio", overhead)
    for name in ERROR_CLASSES:
        m[f"errors.{name}"] = ("count", failures[name] / passes)
    return {name: {"value": value, "unit": unit} for name, (unit, value) in m.items()}


def traced_run(state: Setup, args) -> tuple[dict, dict, list]:
    tracer = tracing.Tracer()
    block = state.requests[: TRACE_BLOCK[args.workload]]
    walls = {False: [], True: []}
    reference = None
    identical = True
    failures = {False: Counter(), True: Counter()}
    start = time.perf_counter()
    pair = 0
    while pair == 0 or time.perf_counter() - start < args.seconds:
        # alternate which side goes first so slow drift of the machine cancels
        for traced in ((False, True) if pair % 2 == 0 else (True, False)):
            if traced:
                with tracer.installed([state.workloads]):
                    wall, digests, fails = run_block(state, block, tracer, pair * len(block))
            else:
                wall, digests, fails = run_block(state, block)
            walls[traced].append(wall)
            failures[traced] += fails
            reference = reference or digests
            identical = identical and digests == reference
        pair += 1
    agg = tracing.aggregate(tracer.spans)
    overhead = sum(walls[True]) / sum(walls[False]) - 1.0
    all_failures = failures[False] + failures[True] + state.warmup_failures
    failed = sum(all_failures.values())
    result = {
        "correct": failed == 0 and identical,
        "attempted": 2 * pair * len(block) + state.warmups,
        "failed": failed,
        "metrics": layer_metrics(agg, pair, overhead, failures[True]),
    }
    info = {"trace_block": len(block), "traced_passes": pair, "bit_identical": identical,
            "pass_wall_s": {"untraced": walls[False], "traced": walls[True]},
            "failures": dict(all_failures)}
    return result, info, tracer.spans


# ---------------------------------------------------------------------------
# Provenance and entry point
# ---------------------------------------------------------------------------


def git_sha() -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)}
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def src_sha256() -> str:
    """Digest of the library sources, which identifies the code without git."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "shotpricer")):
        dirnames.sort()
        for name in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def provenance(state: Setup, args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "clients": 1,
        "inputs_sha256": state.inputs_sha256,
        "request_pool": len(state.requests),
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up once, print the set-up time and exit")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        try:
            state = Setup(args.workload, args.seed, workdir)
        except ImportError as exc:
            print(f"cannot load shotpricer from {SRC}: {exc}", file=sys.stderr)
            return 2
        if args.setup_only:
            print(json.dumps({"setup_s": state.seconds}))
            return 0
        prov = provenance(state, args)
        if args.trace:
            result, info, spans = traced_run(state, args)
            path = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"provenance": prov, "span_fields": ["name", "start_ns", "end_ns",
                           "parent", "request", "count"], "spans": spans}, fh)
            info["spans_file"] = os.path.relpath(path, ROOT)
        else:
            result, info = plain_run(state, args)
    print(json.dumps({"provenance": prov, "run": info}))
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself.

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import shotpricer  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from run import WORKLOADS  # noqa: E402
from workloads import CheckFailed  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(workload: str, trace: int, seed: int = 3, seconds: float = 1.0, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=cwd,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_run_emits_every_end_to_end_metric(workload):
    done = _run(workload, trace=0)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"]) and got["value"] > 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert result["metrics"]["ok_frac"]["value"] == 1.0
    provenance = json.loads(done.stdout.strip().splitlines()[-2])["provenance"]
    for key in ("git_sha", "src_sha256", "python", "numpy", "scipy", "nproc",
                "blas_threads", "seed", "inputs_sha256"):
        assert key in provenance


@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_traced_run_emits_every_per_layer_metric(workload):
    done = _run(workload, trace=1)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    # correct also requires traced and untraced outputs to be bit-identical
    assert result["correct"] and result["failed"] == 0
    values = {k: v["value"] for k, v in result["metrics"].items()}
    fourier, paths = values["transform.fourier.calls"], values["montecarlo.paths"]
    if workload == "verify":
        assert fourier > 0 and paths > 0 and values["cli.calls"] > 0
    else:
        assert fourier == 0 and paths == 0
    shares = [values[f"{layer}.share"] for layer in
              ("transform", "options", "greeks", "shortrate", "montecarlo", "validation",
               "cli", "bench")]
    assert sum(shares) == pytest.approx(1.0, abs=1e-9)


def test_run_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("chain", trace=0, cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_input_digest_follows_the_seed(workload):
    def digest(seed):
        configs = workloads.cli_configs(seed) if workload == "verify" else []
        return workloads.inputs_digest(workloads.make_requests(workload, seed), configs)

    assert digest(5) == digest(5)
    assert digest(5) != digest(6)


@pytest.mark.parametrize("seed", [1, 2, 668381084])
def test_monte_carlo_options_pay_on_the_jump_free_median_path(seed):
    # Seed 668381084 once drew a put that no path exercised: the estimate
    # was 0 with standard error 0, which the |z| check cannot judge.
    for kind, p in workloads.make_requests("verify", seed):
        if kind != "mc" or p["target"] != "option":
            continue
        jump_comp = math.exp(p["nu"] + 0.5 * p["delta"] ** 2) - 1.0
        drift = p["rate"] - p["dividend"] - 0.5 * p["sigma"] ** 2 - p["lam"] * jump_comp
        median = p["spot"] * math.exp(drift * p["tau"])
        assert (median - p["strike"]) * (1.0 if p["kind"] == "call" else -1.0) > 0.0


def test_tracer_restores_every_binding():
    original = shotpricer.price
    tracer = tracing.Tracer()
    with tracer.installed([workloads]):
        assert shotpricer.price is not original
        assert workloads.price is shotpricer.price
        assert sys.modules["shotpricer.options"].price is shotpricer.price
        req = workloads.make_requests("scatter", 1)[0]
        workloads.execute(req, None)
    assert shotpricer.price is original and workloads.price is original
    assert sys.modules["shotpricer.validation"].price is original
    groups = {span[0] for span in tracer.spans}
    assert {"options.price", "greeks", "transform.series"} <= groups
    assert all(span[2] >= span[1] for span in tracer.spans)


def test_self_time_subtracts_children():
    spans = [["a", 0, 100, None, 0, 0], ["b", 10, 40, 0, 0, 0], ["c", 50, 60, 0, 0, 0],
             ["d", 20, 30, 1, 0, 0]]
    assert tracing.self_times(spans) == [60, 20, 10, 10]


# ---------------------------------------------------------------------------
# Every check rejects a deliberately wrong value
# ---------------------------------------------------------------------------


def _first(workload: str, kind: str, target: str | None = None):
    for req in workloads.make_requests(workload, 1):
        if req[0] == kind and (target is None or req[1].get("target") == target):
            return req
    raise LookupError(kind)


def _assert_live(req, out, broken, session=None):
    workloads.check(req, out, session)
    with pytest.raises(CheckFailed):
        workloads.check(req, broken, session)


def test_chain_checks_are_live():
    req = _first("chain", "chain")
    out = workloads.execute(req, None)
    bump = 1e-6 * req[1]["spot"]
    rows = list(out)
    rows[5] = (rows[5][0], rows[5][1] + bump, *rows[5][2:])  # parity
    _assert_live(req, out, tuple(rows))
    rows = list(out)
    # raise call and put alike: parity holds, monotonicity breaks
    rows[5] = (rows[5][0], rows[4][1] + bump, rows[5][2] + rows[4][1] + bump - rows[5][1],
               *rows[5][3:])
    _assert_live(req, out, tuple(rows))
    rows = list(out)
    rows[7] = (*rows[7][:4], math.nan, *rows[7][5:])
    _assert_live(req, out, tuple(rows))


def test_scatter_checks_are_live():
    quote = _first("scatter", "quote")
    out = workloads.execute(quote, None)
    _assert_live(quote, out, (10.0 * max(quote[1]["spot"], quote[1]["strike"]),) + out[1:])
    _assert_live(quote, out, out[:2] + (math.inf,) + out[3:])
    curve = _first("scatter", "curve")
    out = workloads.execute(curve, None)
    _assert_live(curve, out, ((math.nan, out[0][1]),) + out[1:])
    _assert_live(curve, out, out[:-1] + ((0.0, out[-1][1]),))


def test_verify_checks_are_live(tmp_path):
    fourier = _first("verify", "fourier")
    out = workloads.execute(fourier, None)
    series = list(out[5])
    series[2] += 1e-6
    _assert_live(fourier, out, out[:5] + (tuple(series),) + out[6:])

    for target in ("option", "bond", "rate"):
        mc = _first("verify", "mc", target)
        out = workloads.execute(mc, None)
        analytic, mean, se = out[-1]
        _assert_live(mc, out, out[:-1] + ((analytic, mean + 11.0 * se, se),))

    for target in ("option", "bond"):
        pide = _first("verify", "pide", target)
        out = workloads.execute(pide, None)
        _assert_live(pide, out, (2e-4,) + out[1:])
        _assert_live(pide, out, (out[0], 0) + out[2:])
    ode = workloads.execute(_first("verify", "pide", "bond"), None)
    _assert_live(_first("verify", "pide", "bond"), ode, ode[:3] + (2e-4,))

    session = workloads.Session(str(tmp_path), workloads.cli_configs(1))
    session.warm_cli()
    cli = _first("verify", "cli")
    out = workloads.execute(cli, session)
    _assert_live(cli, out, (1, out[1]), session)
    _assert_live(cli, out, (0, out[1] + "0\n"), session)

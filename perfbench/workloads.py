"""Seeded request generation, execution and checks for the three workloads.

A workload is a list of requests, each a ``(kind, params)`` pair of plain
numbers made from ``random.Random(seed)``; the library sees only those
numbers. Cost-driving parameters (lam*tau, sigma on or off, variant) are
stratified within fixed blocks of requests, so two seeds draw different
inputs from nearly the same cost distribution and run-to-run spread stays
small.

``execute`` runs one request against the library and returns a flat tuple
of its outputs; ``check`` raises ``CheckFailed`` when those outputs break a
tolerance fixed below. Checks are kept out of the timed latency.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random

from shotpricer import (
    AssetModel,
    BondTerms,
    BondVariant,
    CharSpec,
    GaussianJumpLaw,
    OptionKind,
    OptionTerms,
    RateModel,
    SimConfig,
    bond_pide_residual,
    bond_price,
    cdf_plain,
    cdf_tilted,
    cli,
    common_greeks,
    conditional_moments,
    mc_bond_price,
    mc_option_price,
    mc_rate_moments,
    new_greeks,
    ode_residual,
    option_pide_residual,
    price,
    survival_plain,
    survival_tilted,
    zero_yield,
)
from shotpricer.transform import fourier_grid

# Tolerances of the per-request checks (see README.md).
PARITY_TOL = 1e-8  # times max(S, K): put-call parity, strike monotonicity, bounds
AGREEMENT_TOL = 1e-7  # series vs Fourier, absolute, all four transforms
MC_Z_MAX = 5.0  # |analytic - MC mean| / MC standard error
RESIDUAL_TOL = 1e-4  # option/bond PIDE and term-structure ODE residuals

CHAIN_STRIKES = 51
MC_PATHS = 1 << 18
CURVE_POINTS = 10
POOL_SIZE = {"chain": 400, "scatter": 8000, "verify": 600}
CHAIN_BLOCK = 20  # chain requests per stratified block
SCATTER_QUOTES, SCATTER_CURVES = 48, 16  # per stratified block, a curve every fourth slot
# One verify cycle of (request type, variant), weighted so that the Fourier
# inversion and the Monte Carlo oracles each carry over a fifth of the time.
VERIFY_CYCLE = (
    ("fourier", "jump"), ("mc", "option"), ("fourier", "diffusive"), ("cli", ""),
    ("fourier", "jump"), ("pide", "option-diffusive"), ("fourier", "diffusive"), ("mc", "bond"),
    ("fourier", "jump"), ("cli", ""), ("fourier", "diffusive"), ("pide", "bond"),
    ("fourier", "jump"), ("mc", "rate"), ("fourier", "diffusive"), ("cli", ""),
    ("fourier", "jump"), ("pide", "option-jump"), ("fourier", "diffusive"), ("cli", ""),
    ("fourier", "jump"), ("pide", "bond"), ("fourier", "diffusive"), ("cli", ""),
)
VARIANTS = tuple(v.value for v in BondVariant)
VERIFY_STRATA = 4  # requests of one type per stratified block
# Requests per throughput window: one stratified block, or one verify cycle.
WINDOW = {"chain": CHAIN_BLOCK, "scatter": SCATTER_QUOTES + SCATTER_CURVES,
          "verify": len(VERIFY_CYCLE)}
CLI_COMMANDS = ("price", "greeks", "bond", "curve", "limits")
CLI_CONFIGS_PER_COMMAND = 2


class CheckFailed(Exception):
    """A request returned, but its outputs broke a benchmark tolerance."""


# ---------------------------------------------------------------------------
# Input generation
# ---------------------------------------------------------------------------


def _strata(rng: random.Random, n: int) -> list[float]:
    """One uniform draw in each of n equal strata of [0, 1), shuffled."""
    u = [(j + rng.random()) / n for j in range(n)]
    rng.shuffle(u)
    return u


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


def _even_split(rng: random.Random, n: int, choices) -> list:
    """n picks that use each choice equally often (n a multiple), shuffled."""
    picks = [choices[j % len(choices)] for j in range(n)]
    rng.shuffle(picks)
    return picks


def _market(rng: random.Random) -> dict:
    return {
        "spot": rng.uniform(50.0, 200.0),
        "rate": rng.uniform(0.0, 0.06),
        "dividend": rng.uniform(0.0, 0.03),
    }


def _chain_requests(rng: random.Random, n: int) -> list:
    block = CHAIN_BLOCK
    out = []
    while len(out) < n:
        lam_tau = _strata(rng, block)
        taus = _strata(rng, block)
        diffusive = _even_split(rng, block, (False, True))
        for j in range(block):
            tau = 0.1 + 2.9 * taus[j]
            out.append(("chain", {
                **_market(rng),
                "tau": tau,
                "lam": _log_uniform(lam_tau[j], 0.25, 20.0) / tau,
                "nu": rng.uniform(-0.15, 0.1),
                "delta": rng.uniform(0.05, 0.3),
                "sigma": rng.uniform(0.1, 0.4) if diffusive[j] else 0.0,
            }))
    return out[:n]


def _rate_params(rng: random.Random) -> dict:
    return {
        "a": rng.uniform(0.2, 1.5),
        "b": rng.uniform(0.0, 0.06),
        "sigma_r": rng.uniform(0.0, 0.02),
        "lambda_r": rng.uniform(0.2, 3.0),
        "nu_r": rng.uniform(-0.01, 0.02),
        "delta_r": rng.uniform(0.005, 0.03),
        "r0": rng.uniform(0.0, 0.08),
    }


def _scatter_requests(rng: random.Random, n: int) -> list:
    quotes, curves = SCATTER_QUOTES, SCATTER_CURVES
    out = []
    while len(out) < n:
        lam_tau = _strata(rng, quotes)
        diffusive = _even_split(rng, quotes, (False, True))
        variants = _even_split(rng, curves, VARIANTS)
        q = c = 0
        for slot in range(quotes + curves):
            if slot % 4 == 3:
                out.append(("curve", {
                    **_rate_params(rng),
                    "variant": variants[c],
                    "maturities": sorted(rng.uniform(0.25, 30.0) for _ in range(CURVE_POINTS)),
                }))
                c += 1
                continue
            m = _log_uniform(lam_tau[q], 0.05, 1000.0)
            # total jump variance m (nu^2 + delta^2) stays in [0.01, 0.5]
            jump_var = rng.uniform(0.01, 0.5)
            share = rng.uniform(0.0, 0.3)  # part of it carried by the mean
            mkt = _market(rng)
            out.append(("quote", {
                **mkt,
                "strike": mkt["spot"] * _log_uniform(rng.random(), 0.5, 2.0),
                "tau": rng.uniform(0.1, 5.0),
                "mean_count": m,
                "nu": -math.sqrt(share * jump_var / m),
                "delta": math.sqrt((1.0 - share) * jump_var / m),
                "sigma": rng.uniform(0.05, 0.4) if diffusive[q] else 0.0,
                "kind": rng.choice(("call", "put")),
            }))
            q += 1
    return out[:n]


def _asset_params(rng: random.Random, diffusive: bool) -> dict:
    return {
        "lam": rng.uniform(0.25, 2.0),
        "nu": rng.uniform(-0.1, 0.1),
        "delta": rng.uniform(0.05, 0.2),
        "sigma": rng.uniform(0.1, 0.25) if diffusive else 0.0,
    }


def _verify_request(rng: random.Random, kind: str, sub: str, index: int, u: float) -> tuple:
    """One verify request; ``index`` counts earlier requests of the same
    (kind, sub) and ``u`` is that type's next stratified draw in [0, 1)."""
    if kind == "fourier":
        tau = rng.uniform(0.5, 2.0)
        return (kind, {
            "tau": tau,
            "lam": _log_uniform(u, 0.25, 4.0) / tau,
            "nu": rng.uniform(-0.1, 0.1),
            "delta": rng.uniform(0.05, 0.2),
            "sigma": rng.uniform(0.1, 0.2) if sub == "diffusive" else 0.0,
            "ls": sorted(rng.uniform(-1.0, 1.0) for _ in range(6)),
        })
    if kind == "mc":
        params = {"target": sub, "sim_seed": rng.getrandbits(63)}
        if sub == "option":
            params.update({
                "spot": 100.0,
                "strike": 100.0 * rng.uniform(0.8, 1.25),
                "tau": rng.uniform(0.25, 2.0),
                "rate": rng.uniform(0.0, 0.05),
                "dividend": rng.uniform(0.0, 0.02),
                **_asset_params(rng, diffusive=bool(index % 2)),
            })
            # A contract that almost no path exercises has a near-zero Monte
            # Carlo standard error, so |z| tests nothing. Take the side that
            # pays on the jump-free median path: it pays on at least half of
            # the jump-free paths, a share exp(-lam tau) >= exp(-4) of all.
            jump_comp = math.exp(params["nu"] + 0.5 * params["delta"] ** 2) - 1.0
            drift = (params["rate"] - params["dividend"] - 0.5 * params["sigma"] ** 2
                     - params["lam"] * jump_comp)
            median = params["spot"] * math.exp(drift * params["tau"])
            params["kind"] = "call" if median > params["strike"] else "put"
        else:
            # the expected jump count lambda_r * horizon sets the memory and
            # time of a path batch; it comes from ``u`` (a stratified draw)
            lam_lo, lam_hi = 0.2, 3.0
            h_lo, h_hi = (1.0, 10.0) if sub == "bond" else (0.5, 2.0)
            jumps = lam_lo * h_lo + (lam_hi * h_hi - lam_lo * h_lo) * u
            horizon = rng.uniform(max(h_lo, jumps / lam_hi), min(h_hi, jumps / lam_lo))
            params.update(_rate_params(rng))
            params.update({"horizon": horizon, "lambda_r": jumps / horizon})
        return (kind, params)
    if kind == "pide" and sub == "bond":
        return (kind, {
            "target": "bond",
            **_rate_params(rng),
            "t": rng.uniform(0.5, 4.0),
            "variant": VARIANTS[index % len(VARIANTS)],
        })
    if kind == "pide":
        asset = _asset_params(rng, diffusive=sub == "option-diffusive")
        asset["delta"] = 0.05 + 0.15 * u  # sets the panel count at sigma = 0
        tau = rng.uniform(0.5, 1.0)
        rate, dividend = rng.uniform(0.0, 0.05), rng.uniform(0.0, 0.02)
        # draw the drift-adjusted threshold l0 so that a sigma = 0 point
        # keeps clear of the kink the residual check rejects (|l0| < 0.05)
        l0 = rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 0.35)
        jump_comp = math.exp(asset["nu"] + 0.5 * asset["delta"] ** 2) - 1.0
        drift = rate - dividend - 0.5 * asset["sigma"] ** 2 - asset["lam"] * jump_comp
        return (kind, {
            "target": "option",
            **asset,
            "strike": 100.0,
            "x": l0 - drift * tau,
            "tau": tau,
            "rate": rate,
            "dividend": dividend,
        })
    return (kind, {"config": index % (len(CLI_COMMANDS) * CLI_CONFIGS_PER_COMMAND)})


def _verify_requests(rng: random.Random, n: int) -> list:
    seen: dict[tuple, int] = {}
    strata: dict[tuple, list] = {}
    out = []
    for i in range(n):
        kind, sub = VERIFY_CYCLE[i % len(VERIFY_CYCLE)]
        index = seen.get((kind, sub), 0)
        seen[(kind, sub)] = index + 1
        if not strata.get((kind, sub)):
            strata[(kind, sub)] = _strata(rng, VERIFY_STRATA)
        out.append(_verify_request(rng, kind, sub, index, strata[(kind, sub)].pop()))
    return out


def cli_configs(seed: int) -> list[tuple[str, dict]]:
    """Seeded CLI (command, config) pairs that verify requests cycle over."""
    rng = random.Random(f"cli-{seed}")
    out = []
    for command in CLI_COMMANDS:
        for _ in range(CLI_CONFIGS_PER_COMMAND):
            asset = _asset_params(rng, rng.random() < 0.5)
            rate = _rate_params(rng)
            spot = rng.uniform(50.0, 200.0)
            out.append((command, {
                "asset": asset,
                "rate": {k: v for k, v in rate.items() if k != "r0"},
                "contracts": {
                    "spot": spot,
                    "strikes": [spot * rng.uniform(0.8, 1.25) for _ in range(3)],
                    "maturities": sorted(rng.uniform(0.25, 2.0) for _ in range(2)),
                    "rate": rng.uniform(0.0, 0.05),
                    "dividend": rng.uniform(0.0, 0.02),
                },
                "bond": {
                    "r0": rate["r0"],
                    "maturities": sorted(rng.uniform(0.5, 20.0) for _ in range(4)),
                    "variant": rng.choice(VARIANTS),
                },
            }))
    return out


def make_requests(workload: str, seed: int) -> list:
    """The workload's request pool; runs cycle through it in order."""
    rng = random.Random(f"{workload}-{seed}")
    n = POOL_SIZE[workload]
    if workload == "chain":
        return _chain_requests(rng, n)
    if workload == "scatter":
        return _scatter_requests(rng, n)
    return _verify_requests(rng, n)


def inputs_digest(requests, configs) -> str:
    """sha256 of every generated input, floats written exactly."""
    doc = json.dumps([requests, configs], sort_keys=True, default=repr)
    return hashlib.sha256(doc.encode()).hexdigest()


def warmup_requests(requests) -> list:
    """The first request of every (kind, target) in the pool."""
    seen, out = set(), []
    for req in requests:
        key = (req[0], req[1].get("target"), req[1].get("variant"))
        if key not in seen:
            seen.add(key)
            out.append(req)
    return out


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


class Session:
    """Per-run state: the CLI config files and their reference report bodies."""

    def __init__(self, workdir: str, configs: list[tuple[str, dict]]):
        self.out_path = os.path.join(workdir, "report.csv")
        self.configs = []
        self.reference: dict[int, str] = {}
        for i, (command, config) in enumerate(configs):
            path = os.path.join(workdir, f"config{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(config, fh)
            self.configs.append((command, path))

    def warm_cli(self) -> None:
        """Run every CLI config once; their bodies are the reference."""
        for i in range(len(self.configs)):
            self.reference[i] = execute(("cli", {"config": i}), self)[1]

    def report_body(self) -> str:
        with open(self.out_path, "r", encoding="utf-8") as fh:
            return "".join(line for line in fh if not line.startswith("#"))


def _asset(p: dict) -> AssetModel:
    return AssetModel(lam=p["lam"], law=GaussianJumpLaw(p["nu"], p["delta"]), sigma=p["sigma"])


def _rate_model(p: dict) -> RateModel:
    return RateModel(
        a=p["a"], b=p["b"], sigma_r=p["sigma_r"], lambda_r=p["lambda_r"],
        law=GaussianJumpLaw(p["nu_r"], p["delta_r"]),
    )


def _greek_values(g, ng) -> tuple:
    return (g.delta, g.gamma, g.rho, g.psi, g.theta, g.vega, ng.kappa, ng.mu, ng.epsilon)


def _run_chain(p: dict) -> tuple:
    model = _asset(p)
    out = []
    for j in range(CHAIN_STRIKES):
        strike = p["spot"] * 0.5 * 4.0 ** (j / (CHAIN_STRIKES - 1))
        call = OptionTerms(p["spot"], strike, p["tau"], p["rate"], p["dividend"], OptionKind.CALL)
        put = OptionTerms(p["spot"], strike, p["tau"], p["rate"], p["dividend"], OptionKind.PUT)
        c = price(call, model).value
        v = price(put, model).value
        gc = common_greeks(call, model)
        gp = common_greeks(put, model)
        ng = new_greeks(call, model)
        out.append((strike, c, v, *_greek_values(gc, ng), gp.delta, gp.rho, gp.psi, gp.theta))
    return tuple(out)


def _run_quote(p: dict) -> tuple:
    model = AssetModel(
        lam=p["mean_count"] / p["tau"], law=GaussianJumpLaw(p["nu"], p["delta"]), sigma=p["sigma"]
    )
    terms = OptionTerms(p["spot"], p["strike"], p["tau"], p["rate"], p["dividend"], p["kind"])
    value = price(terms, model).value
    return (value, *_greek_values(common_greeks(terms, model), new_greeks(terms, model)))


def _run_curve(p: dict) -> tuple:
    model = _rate_model(p)
    out = []
    for maturity in p["maturities"]:
        bond = bond_price(model, BondTerms(0.0, maturity, p["r0"]), p["variant"])
        out.append((bond, zero_yield(bond, maturity)))
    return tuple(out)


def _run_fourier(p: dict) -> tuple:
    spec = CharSpec(tau=p["tau"], lam=p["lam"], sigma=p["sigma"], law=GaussianJumpLaw(p["nu"], p["delta"]))
    grid = fourier_grid(spec, p["ls"])
    four = (grid.plain, grid.tilted, grid.plain_surv, grid.tilted_surv)
    series = tuple(
        tuple(fn(spec, l) for l in p["ls"])
        for fn in (cdf_plain, cdf_tilted, survival_plain, survival_tilted)
    )
    return tuple(tuple(float(x) for x in arr) for arr in four) + series


def _run_mc(p: dict) -> tuple:
    sim = SimConfig(paths=MC_PATHS, seed=p["sim_seed"])
    if p["target"] == "option":
        terms = OptionTerms(p["spot"], p["strike"], p["tau"], p["rate"], p["dividend"], p["kind"])
        model = _asset(p)
        est = mc_option_price(terms, model, sim)
        return ((price(terms, model).value, est.mean, est.std_error),)
    model = _rate_model(p)
    if p["target"] == "bond":
        terms = BondTerms(0.0, p["horizon"], p["r0"])
        est = mc_bond_price(model, terms, sim)
        return ((bond_price(model, terms, BondVariant.GENERAL), est.mean, est.std_error),)
    mean, var = conditional_moments(model, p["r0"], p["horizon"])
    est_mean, est_var = mc_rate_moments(model, p["r0"], p["horizon"], sim)
    return ((mean, est_mean.mean, est_mean.std_error), (var, est_var.mean, est_var.std_error))


def _run_pide(p: dict) -> tuple:
    if p["target"] == "option":
        terms = OptionTerms(
            p["strike"] * math.exp(p["x"]), p["strike"], p["tau"], p["rate"], p["dividend"],
            OptionKind.CALL,
        )
        rep = option_pide_residual([terms], _asset(p))
        return (rep.max_residual, rep.grid_points)
    model = _rate_model(p)
    rep = bond_pide_residual(model, [BondTerms(p["t"], 5.0, p["r0"])], p["variant"])
    res_a, res_b = ode_residual(model, 0.0, 5.0, p["variant"])
    return (rep.max_residual, rep.grid_points, res_a, res_b)


def _run_cli(p: dict, session: Session) -> tuple:
    command, path = session.configs[p["config"]]
    code = cli.main([command, "--config", path, "--out", session.out_path])
    return (code, session.report_body())


def execute(req: tuple, session: Session) -> tuple:
    """Run one request and return its outputs as a flat tuple."""
    kind, p = req
    if kind == "cli":
        return _run_cli(p, session)
    return _RUNNERS[kind](p)


_RUNNERS = {
    "chain": _run_chain,
    "quote": _run_quote,
    "curve": _run_curve,
    "fourier": _run_fourier,
    "mc": _run_mc,
    "pide": _run_pide,
}


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _finite(values, what: str) -> None:
    _require(all(v is None or math.isfinite(v) for v in values), f"{what}: non-finite value")


def _check_chain(p: dict, out: tuple) -> None:
    fwd_spot = p["spot"] * math.exp(-p["dividend"] * p["tau"])
    prev_call = math.inf
    for row in out:
        strike, call, put = row[0], row[1], row[2]
        _finite(row, "chain")
        tol = PARITY_TOL * max(p["spot"], strike)
        gap = call - put - (fwd_spot - strike * math.exp(-p["rate"] * p["tau"]))
        _require(abs(gap) <= tol, f"chain: parity residual {gap:.3g} at K={strike:.6g}")
        _require(call <= prev_call + tol, f"chain: call price rises at K={strike:.6g}")
        prev_call = call


def _check_quote(p: dict, out: tuple) -> None:
    _finite(out, "quote")
    value = out[0]
    fwd_spot = p["spot"] * math.exp(-p["dividend"] * p["tau"])
    fwd_strike = p["strike"] * math.exp(-p["rate"] * p["tau"])
    tol = PARITY_TOL * max(p["spot"], p["strike"])
    if p["kind"] == "call":
        lo, hi = max(fwd_spot - fwd_strike, 0.0), fwd_spot
    else:
        lo, hi = max(fwd_strike - fwd_spot, 0.0), fwd_strike
    _require(lo - tol <= value <= hi + tol, f"quote: {p['kind']} {value!r} outside [{lo!r}, {hi!r}]")


def _check_curve(p: dict, out: tuple) -> None:
    for bond, yld in out:
        _finite((bond, yld), "curve")
        _require(bond > 0.0, f"curve: bond price {bond!r}")


def _check_fourier(p: dict, out: tuple) -> None:
    four, series = out[:4], out[4:]
    for f_arr, s_arr in zip(four, series):
        for f, s in zip(f_arr, s_arr):
            _require(abs(f - s) <= AGREEMENT_TOL, f"fourier: |series - fourier| = {abs(f - s):.3g}")


def _check_mc(p: dict, out: tuple) -> None:
    for analytic, mean, se in out:
        _require(se > 0.0 and math.isfinite(mean), f"mc {p['target']}: mean {mean!r} se {se!r}")
        z = (analytic - mean) / se
        _require(abs(z) <= MC_Z_MAX, f"mc {p['target']}: |z| = {abs(z):.2f}")


def _check_pide(p: dict, out: tuple) -> None:
    _require(out[1] == 1, f"pide {p['target']}: point rejected")
    for residual in (out[0], *out[2:]):
        _require(residual <= RESIDUAL_TOL, f"pide {p['target']}: residual {residual:.3g}")


def check(req: tuple, out: tuple, session: Session) -> None:
    """Raise CheckFailed when a request's outputs break a fixed tolerance."""
    kind, p = req
    if kind == "cli":
        code, body = out
        _require(code == 0, f"cli: exit code {code}")
        _require(body == session.reference[p["config"]], "cli: report body differs from warm-up")
        return
    _CHECKS[kind](p, out)


_CHECKS = {
    "chain": _check_chain,
    "quote": _check_quote,
    "curve": _check_curve,
    "fourier": _check_fourier,
    "mc": _check_mc,
    "pide": _check_pide,
}


def result_digest(out: tuple) -> str:
    """sha256 of a request's outputs; equal digests mean bit-identical floats."""
    return hashlib.sha256(repr(out).encode()).hexdigest()

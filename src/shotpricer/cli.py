"""Batch command-line front end: configs in, CSV/JSON reports out.

Subcommands: ``price``, ``greeks``, ``bond``, ``curve``, ``mc``,
``validate``, ``limits``. Parameters come from an optional JSON config file
with flag overrides; every run echoes the resolved config and the library
version into the report header. Report bodies are deterministic for a fixed
config and seed (timestamps live only in the header). Exit codes: 0 success,
1 numerical contract failure, 2 config/usage error.

All rates are annual, times are year fractions, prices are currency units.
"""

from __future__ import annotations

import argparse
import copy
import functools
import json
import sys
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from typing import Any, Iterator, Optional

from . import __version__
from .errors import ConfigError, ShotPricerError
from .greeks import common_greeks, new_greeks
from .jump_measure import GaussianJumpLaw
from .montecarlo import SimConfig, mc_bond_price, mc_option_price, mc_rate_moments
from .options import AssetModel, OptionKind, OptionTerms, price
from .shortrate import (
    BondTerms,
    BondVariant,
    RateModel,
    _affine_price,
    a_general,
    b_factor,
    conditional_moments,
    zero_yield,
)
from .transform import Backend, QuadratureSpec
from .validation import contract_checks, diffusion_convergence

__all__ = ["RunConfig", "execute", "main"]

# Report columns of each command, in order. Runners return plain value dicts
# and every row is projected onto these columns, None where a row has no value.
_OPTION_COLUMNS = ("S", "K", "tau", "r", "q", "lambda", "nu", "delta", "sigma", "kind")
_BOND_COLUMNS = ("a", "b", "sigma_r", "lambda_r", "nu_r", "delta_r", "t", "T", "r0", "variant")
_COLUMNS: dict[str, tuple[str, ...]] = {
    "price": (*_OPTION_COLUMNS, "price", "est_error", "backend"),
    # greek_ prefix keeps the sensitivities clear of the jump-parameter
    # columns (nu, delta) that make each row self-contained
    "greeks": (
        *_OPTION_COLUMNS,
        "greek_delta",
        "greek_gamma",
        "greek_rho",
        "greek_psi",
        "greek_theta",
        "greek_vega",
        "greek_kappa",
        "greek_mu",
        "greek_epsilon",
    ),
    "bond": (*_BOND_COLUMNS, "A", "B", "price"),
    "curve": (*_BOND_COLUMNS, "tenor", "price", "zero_yield"),
    "mc": (
        "target",
        *_OPTION_COLUMNS,
        "T",
        "horizon",
        "analytic",
        "mc_mean",
        "mc_std_error",
        "z",
        "paths",
        "seed",
    ),
    "validate": ("check", "config", "value", "tolerance", "status"),
    "limits": ("scale", "price_error", "theta_error", "bond_a_error", "monotone"),
}
_COMMANDS = tuple(_COLUMNS)

# flag -> (config section, key) it overrides; section None is the top level
_FLAG_KEYS = {
    "seed": ("sim", "seed"),
    "paths": ("sim", "paths"),
    "backend": (None, "backend"),
    "tol": ("quad", "rel_tol"),
    "out": ("output", "path"),
    "format": ("output", "format"),
}

_DEFAULTS: dict[str, Any] = {
    "asset": {"lam": 1.0, "nu": -0.05, "delta": 0.15, "sigma": 0.0},
    "rate": {
        "a": 0.5,
        "b": 0.03,
        "sigma_r": 0.01,
        "lambda_r": 1.0,
        "nu_r": 0.01,
        "delta_r": 0.02,
    },
    "contracts": {
        "spot": 100.0,
        "strikes": [90.0, 100.0, 110.0],
        "maturities": [0.5, 1.0],
        "rate": 0.03,
        "dividend": 0.0,
        "kinds": ["call", "put"],
    },
    "bond": {
        "r0": 0.03,
        "t": 0.0,
        "maturities": [1.0, 2.0, 5.0, 10.0],
        "variant": "general",
    },
    "sim": {"paths": 100000, "seed": 20240701},
    "quad": {"rel_tol": 1e-9},
    "backend": "series",
    "output": {"path": None, "format": "csv"},
}


@dataclass
class RunConfig:
    """Fully resolved run description (defaults + file + flag overrides): typed
    config sections, and ``bond_model``, the rate model the bond variant prices."""

    command: str
    asset: AssetModel
    rate_model: RateModel
    bond_model: RateModel
    contracts: dict
    bond: dict
    sim: SimConfig
    quad: QuadratureSpec
    backend: Backend
    out_path: Optional[str]
    out_format: str
    resolved: dict = field(default_factory=dict)


def _merge(base: dict, override: dict, path: str = "") -> dict:
    # deep-copies so later flag overrides never mutate the shared defaults
    merged = copy.deepcopy(base)
    for key, value in override.items():
        if key not in base:
            raise ConfigError(f"unknown config key '{path}{key}'")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key '{path}{key}' must be a section")
            merged[key] = _merge(base[key], value, path=f"{path}{key}.")
        else:
            merged[key] = copy.deepcopy(value)
    return merged


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    command = raw.pop("command", None)
    if command is not None and command not in _COMMANDS:
        raise ConfigError(f"unknown command '{command}' in config")
    return raw


def resolve_config(args: argparse.Namespace) -> RunConfig:
    raw = _load_config_file(args.config) if args.config else {}
    merged = _merge(_DEFAULTS, raw)
    for flag, (section, key) in _FLAG_KEYS.items():
        value = getattr(args, flag)
        if value is not None:
            (merged[section] if section else merged)[key] = value
    if merged["output"]["format"] not in ("csv", "json"):
        raise ConfigError(f"unknown output format '{merged['output']['format']}'")

    try:
        asset = AssetModel(
            lam=float(merged["asset"]["lam"]),
            law=GaussianJumpLaw(
                nu=float(merged["asset"]["nu"]), delta=float(merged["asset"]["delta"])
            ),
            sigma=float(merged["asset"]["sigma"]),
        )
        rate_cfg = merged["rate"]
        rate_model = RateModel(
            a=float(rate_cfg["a"]),
            b=float(rate_cfg["b"]),
            sigma_r=float(rate_cfg["sigma_r"]),
            lambda_r=float(rate_cfg["lambda_r"]),
            law=GaussianJumpLaw(nu=float(rate_cfg["nu_r"]), delta=float(rate_cfg["delta_r"])),
        )
        sim = SimConfig(paths=int(merged["sim"]["paths"]), seed=int(merged["sim"]["seed"]))
        quad = QuadratureSpec(rel_tol=float(merged["quad"]["rel_tol"]))
        backend = Backend(merged["backend"])
        c, b = merged["contracts"], merged["bond"]
        contracts = dict(
            spot=float(c["spot"]), rate=float(c["rate"]), dividend=float(c["dividend"]),
            strikes=[float(strike) for strike in c["strikes"]],
            maturities=[float(tau) for tau in c["maturities"]],
            kinds=[OptionKind(kind) for kind in c["kinds"]],
        )
        bond = dict(
            r0=float(b["r0"]), t=float(b["t"]), variant=BondVariant(b["variant"]),
            maturities=[float(maturity) for maturity in b["maturities"]],
        )
    except (ShotPricerError, ValueError, TypeError, KeyError, OverflowError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc

    return RunConfig(
        command=args.command,
        asset=asset,
        rate_model=rate_model,
        bond_model=bond["variant"].model(rate_model),
        contracts=contracts,
        bond=bond,
        sim=sim,
        quad=quad,
        backend=backend,
        out_path=merged["output"]["path"],
        out_format=merged["output"]["format"],
        # no output path: a header must not depend on where the report goes
        resolved={
            **merged, "command": args.command, "output": {"format": merged["output"]["format"]}
        },
    )


# ---------------------------------------------------------------------------
# Row builders, one per command
# ---------------------------------------------------------------------------


def _fmt(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _option_rows(cfg: RunConfig) -> Iterator[tuple[OptionTerms, dict]]:
    """Each configured contract with the model columns that reprice it."""
    c = cfg.contracts
    for tau in c["maturities"]:
        for strike in c["strikes"]:
            for kind in c["kinds"]:
                terms = OptionTerms(c["spot"], strike, tau, c["rate"], c["dividend"], kind)
                yield terms, {
                    "S": terms.spot,
                    "K": terms.strike,
                    "tau": terms.tau,
                    "r": terms.rate,
                    "q": terms.dividend,
                    "lambda": cfg.asset.lam,
                    "nu": cfg.asset.law.nu,
                    "delta": cfg.asset.law.delta,
                    "sigma": cfg.asset.sigma,
                    "kind": terms.kind.value,
                }


def _bond_rows(cfg: RunConfig) -> Iterator[tuple[BondTerms, dict]]:
    """Each configured bond maturity with its model columns, A, B and price.

    A and B are those of the variant's model, and the price is formed from
    A exactly as bond_price does, so A is computed once per row.
    """
    m, priced = cfg.rate_model, cfg.bond_model
    t0, r0 = cfg.bond["t"], cfg.bond["r0"]
    for maturity in cfg.bond["maturities"]:
        terms = BondTerms(t=t0, T=maturity, r_t=r0)
        a_val = a_general(priced, t0, terms.T, cfg.quad)
        b_val = b_factor(priced, t0, terms.T)
        yield terms, {
            "a": m.a,
            "b": m.b,
            "sigma_r": m.sigma_r,
            "lambda_r": m.lambda_r,
            "nu_r": m.law.nu,
            "delta_r": m.law.delta,
            "t": t0,
            "T": terms.T,
            "r0": r0,
            "variant": cfg.bond["variant"].value,
            "A": a_val,
            "B": b_val,
            "price": _affine_price(a_val, b_val, r0),
        }


def _run_price(cfg: RunConfig) -> tuple[list[dict], int]:
    rows = []
    for terms, row in _option_rows(cfg):
        res = price(terms, cfg.asset, cfg.backend, cfg.quad)
        rows.append(
            {**row, "price": res.value, "est_error": res.est_error, "backend": res.backend.value}
        )
    return rows, 0


def _run_greeks(cfg: RunConfig) -> tuple[list[dict], int]:
    rows = []
    for terms, row in _option_rows(cfg):
        greeks = asdict(common_greeks(terms, cfg.asset, cfg.quad))
        if cfg.asset.lam > 0.0:
            greeks.update(asdict(new_greeks(terms, cfg.asset, cfg.quad)))
        rows.append({**row, **{f"greek_{name}": value for name, value in greeks.items()}})
    return rows, 0


def _run_bond(cfg: RunConfig) -> tuple[list[dict], int]:
    return [row for _, row in _bond_rows(cfg)], 0


def _run_curve(cfg: RunConfig) -> tuple[list[dict], int]:
    rows = []
    for terms, row in _bond_rows(cfg):
        tenor = terms.T - terms.t
        zero = zero_yield(row["price"], tenor) if tenor > 0 else None
        rows.append({**row, "tenor": tenor, "zero_yield": zero})
    return rows, 0


def _run_mc(cfg: RunConfig) -> tuple[list[dict], int]:
    sim = cfg.sim

    def row(target: str, cols: dict, analytic: float, est) -> dict:
        z = (analytic - est.mean) / est.std_error if est.std_error > 0 else 0.0
        return {
            "target": target,
            **cols,
            "analytic": analytic,
            "mc_mean": est.mean,
            "mc_std_error": est.std_error,
            "z": z,
            "paths": est.paths_used,
            "seed": sim.seed,
        }

    rows = []
    for terms, cols in _option_rows(cfg):
        analytic = price(terms, cfg.asset, cfg.backend, cfg.quad).value
        rows.append(row("option", cols, analytic, mc_option_price(terms, cfg.asset, sim)))
    m = cfg.rate_model
    r0 = cfg.bond["r0"]
    # bond and rate rows put the rate model in the option model's columns
    rate_cols = {
        "r": r0,
        "lambda": m.lambda_r,
        "nu": m.law.nu,
        "delta": m.law.delta,
        "sigma": m.sigma_r,
    }
    for terms, bond in _bond_rows(cfg):
        cols = {**rate_cols, "kind": bond["variant"], "T": terms.T}
        rows.append(row("bond", cols, bond["price"], mc_bond_price(cfg.bond_model, terms, sim)))
    horizon = 1.0
    mean, var = conditional_moments(m, r0, horizon)
    mean_est, var_est = mc_rate_moments(m, r0, horizon, sim)
    cols = {**rate_cols, "horizon": horizon}
    rows.append(row("rate_mean", cols, mean, mean_est))
    rows.append(row("rate_variance", cols, var, var_est))
    return rows, 0


def _run_validate(cfg: RunConfig) -> tuple[list[dict], int]:
    c = cfg.contracts
    checks = contract_checks(
        cfg.asset, cfg.rate_model, c["spot"], c["rate"], c["dividend"], cfg.backend, cfg.quad
    )
    rows = [
        {"check": check, "config": config, "value": value, "tolerance": tol,
         "status": "pass" if value <= tol else "FAIL"}
        for check, config, value, tol in checks
    ]
    return rows, int(any(row["status"] == "FAIL" for row in rows))


def _run_limits(cfg: RunConfig) -> tuple[list[dict], int]:
    rows = []
    table = diffusion_convergence()
    status = 0
    prev = None
    for row in table:
        monotone = prev is None or (
            row.price_error <= prev.price_error + 1e-15
            and row.greek_error <= prev.greek_error + 1e-15
            and row.bond_error <= prev.bond_error + 1e-15
        )
        rows.append(
            {
                "scale": row.scale,
                "price_error": row.price_error,
                "theta_error": row.greek_error,
                "bond_a_error": row.bond_error,
                "monotone": monotone,
            }
        )
        if not monotone:
            status = 1
        prev = row
    final = table[-1]
    if final.price_error > 0.01 or final.greek_error > 0.01 or final.bond_error > 0.005:
        status = 1
    return rows, status


_RUNNERS = {
    "price": _run_price,
    "greeks": _run_greeks,
    "bond": _run_bond,
    "curve": _run_curve,
    "mc": _run_mc,
    "validate": _run_validate,
    "limits": _run_limits,
}


# ---------------------------------------------------------------------------
# Report writers
# ---------------------------------------------------------------------------


def render_report(cfg: RunConfig, rows: list[dict]) -> str:
    """Serialize rows with the reproducibility contract: the body below the
    header is byte-identical across runs with the same config and seed."""
    header = {
        "version": __version__,
        "command": cfg.command,
        "generated": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "config": cfg.resolved,
    }
    if cfg.out_format == "json":
        return json.dumps({"header": header, "rows": rows}, sort_keys=True, indent=2) + "\n"
    lines = [
        f"# shotpricer {header['version']}",
        f"# command: {header['command']}",
        f"# generated: {header['generated']}",
        "# config: " + json.dumps(header["config"], sort_keys=True),
    ]
    if rows:
        cols = _COLUMNS[cfg.command]
        lines.append(",".join(cols))
        for row in rows:
            lines.append(",".join(_fmt(row[col]) for col in cols))
    return "\n".join(lines) + "\n"


def execute(cfg: RunConfig) -> int:
    """Run one command and write its report; returns the process exit code."""
    values, status = _RUNNERS[cfg.command](cfg)
    rows = [{col: row.get(col) for col in _COLUMNS[cfg.command]} for row in values]
    text = render_report(cfg, rows)
    if cfg.out_path:
        with open(cfg.out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if status:
        failing = [r for r in rows if r.get("status") == "FAIL" or r.get("monotone") is False]
        for row in failing:
            print(f"contract failure: {row}", file=sys.stderr)
    return status


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="shotpricer",
        description="Jump-model option/bond pricing reports",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="RNG seed (unsigned 64-bit)")
        p.add_argument("--paths", type=int, help="Monte Carlo path count")
        p.add_argument("--backend", choices=["series", "fourier"])
        p.add_argument("--out", help="report file path (default: stdout)")
        p.add_argument("--format", choices=["csv", "json"])
        p.add_argument("--tol", type=float, help="relative tolerance override")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        return execute(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ShotPricerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

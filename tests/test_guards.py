"""Input guards and their typed errors: each library row raises the error it
names, and each CLI case exits with the code a user sees."""

import math

import numpy as np
import pytest

from shotpricer import (
    AssetModel,
    BondTerms,
    CharSpec,
    GaussianJumpLaw,
    OptionKind,
    OptionTerms,
    RateModel,
)
from shotpricer.cli import main
from shotpricer.errors import DegenerateMaturityError, ParameterError
from shotpricer.greeks import common_greeks, fd_sensitivity, identity_report
from shotpricer.montecarlo import SimConfig, mc_bond_price, mc_option_price, mc_rate_moments
from shotpricer.options import bs_d1_d2, parity_residual
from shotpricer.shortrate import a_vasicek, ode_residual
from shotpricer.transform import fourier_grid
from shotpricer.validation import backend_agreement, bond_pide_residual

LAW = GaussianJumpLaw(-0.05, 0.15)
ASSET = AssetModel(1.0, LAW)
EXPIRED = OptionTerms(100.0, 100.0, 0.0, 0.03, 0.0, OptionKind.CALL)
ATM = OptionTerms(100.0, 100.0, 1.0, 0.03, 0.0, OptionKind.CALL)
RATE = RateModel(0.5, 0.04, 0.01, 1.0, LAW)
SIM = SimConfig(paths=100, seed=1)

GUARDS = {
    # option side
    "asset lam < 0": (lambda: AssetModel(-1.0, LAW), ParameterError, "lam must be >= 0"),
    "asset sigma < 0": (lambda: AssetModel(1.0, LAW, -0.1), ParameterError, "sigma must be >= 0"),
    "bs_d1_d2 at expiry": (lambda: bs_d1_d2(EXPIRED, 0.2), DegenerateMaturityError, "tau > 0"),
    "parity at expiry": (
        lambda: parity_residual(EXPIRED, ASSET), DegenerateMaturityError, "tau > 0"
    ),
    "greeks at expiry": (
        lambda: common_greeks(EXPIRED, ASSET), DegenerateMaturityError, "tau > 0"
    ),
    "mc option at expiry": (
        lambda: mc_option_price(EXPIRED, ASSET, SIM), ParameterError, "tau > 0"
    ),
    "identities lam = 0": (
        lambda: identity_report(ATM, AssetModel(0.0, LAW)), ParameterError, "lam > 0"
    ),
    "identities delta = 0": (
        lambda: identity_report(ATM, AssetModel(1.0, GaussianJumpLaw(-0.05, 0.0))),
        ParameterError,
        "delta > 0",
    ),
    # rate side
    "rate a = 0": (lambda: RateModel(0.0, 0.04, 0.01, 1.0, LAW), ParameterError, "a must be > 0"),
    "rate sigma_r < 0": (
        lambda: RateModel(0.5, 0.04, -0.01, 1.0, LAW), ParameterError, "sigma_r must be >= 0"
    ),
    "rate lambda_r < 0": (
        lambda: RateModel(0.5, 0.04, 0.01, -1.0, LAW), ParameterError, "lambda_r must be >= 0"
    ),
    "bond t > T": (lambda: BondTerms(2.0, 1.0, 0.03), ParameterError, "0 <= t <= T"),
    "a_vasicek overflow": (
        lambda: a_vasicek(RateModel(1e-3, 0.04, 1e154, 1.0, LAW), 0.0, 100.0),
        ParameterError,
        "Gaussian intercept overflows",
    ),
    "ode residual t = T": (lambda: ode_residual(RATE, 1.0, 1.0), ParameterError, "t < T"),
    "mc bond t = T": (
        lambda: mc_bond_price(RATE, BondTerms(1.0, 1.0, 0.03), SIM), ParameterError, "t < T"
    ),
    "mc rate r_t = inf": (
        lambda: mc_rate_moments(RATE, math.inf, 1.0, SIM), ParameterError, "r_t must be finite"
    ),
    # numerics
    "fourier non-finite threshold": (
        lambda: fourier_grid(CharSpec(1.0, 1.0, 0.2, LAW), [0.0, math.nan]),
        ParameterError,
        "thresholds must be finite",
    ),
    "fourier lam varsigma tau overflow": (
        lambda: fourier_grid(CharSpec(1.0, 1e306, 0.2, GaussianJumpLaw(10.0, 0.1)), [0.0]),
        ParameterError,
        "lam varsigma tau overflows",
    ),
    "jump law delta < 0": (
        lambda: GaussianJumpLaw(0.0, -0.1), ParameterError, "delta must be >= 0"
    ),
    "fd step <= 0": (lambda: fd_sensitivity(math.sin, 0.0, 0.0), ParameterError, "step"),
}


@pytest.mark.parametrize("name", list(GUARDS))
def test_guard_raises_its_typed_error(name):
    call, error, message = GUARDS[name]
    with pytest.raises(error, match=message):
        call()


def test_bond_residual_rejects_points_near_maturity():
    report = bond_pide_residual(RATE, [BondTerms(0.98, 1.0, 0.03)])
    assert report.grid_points == 0
    assert report.rejected_points == ((0.98, 0.03, "too close to maturity"),)


def test_backend_agreement_on_an_all_atom_grid_evaluates_nothing():
    spec = CharSpec(1.0, 1.0, 0.0, LAW)
    report = backend_agreement([(spec, np.zeros(3))])
    assert (report.max_residual, report.grid_points) == (0.0, 0)
    assert report.rejected_points == ((1.0, 0.0, 0.0),) * 3


@pytest.mark.parametrize(
    "command, config, message",
    [
        ("price", "[1, 2]", "config root must be a JSON object"),
        ("price", '{"command": "frobnicate"}', "unknown command 'frobnicate'"),
        ("price", '{"asset": 3}', "config key 'asset' must be a section"),
        ("price", '{"output": {"format": "xml"}}', "unknown output format 'xml'"),
        # every section is converted before a runner reads it
        ("price", '{"contracts": {"strikes": ["x"]}}', "could not convert string to float: 'x'"),
        ("greeks", '{"contracts": {"maturities": 5}}', "'int' object is not iterable"),
        ("bond", '{"bond": {"r0": "abc"}}', "could not convert string to float: 'abc'"),
        ("curve", '{"bond": {"maturities": [null]}}', "not 'NoneType'"),
        ("mc", '{"contracts": {"spot": 1' + "0" * 400 + "}}", "int too large to convert to float"),
    ],
    ids=["root", "command", "section", "format", "strikes", "maturities", "r0",
         "bond-maturities", "huge-int"],
)
def test_config_guards_exit_2(tmp_path, capsys, command, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config)
    assert main([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err


def test_overflowing_bond_intercept_exits_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"rate": {"nu_r": -2000.0}}')
    assert main(["bond", "--config", str(cfg)]) == 1
    assert "error: jump intercept overflows" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_unwritable_report_exits_2(tmp_path, capsys, where):
    out = tmp_path / "missing" / "x.csv" if where == "missing-dir" else tmp_path
    assert main(["bond", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write report {out}:")
    assert "Traceback" not in err

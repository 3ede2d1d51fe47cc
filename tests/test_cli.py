"""CLI contract: exit codes, report columns, overrides, reproducibility."""

import json
import os
import subprocess
import sys

import pytest

from shotpricer import cli
from shotpricer.cli import main

PRICE_COLUMNS = "S,K,tau,r,q,lambda,nu,delta,sigma,kind,price,est_error,backend"
OPTION = "S,K,tau,r,q,lambda,nu,delta,sigma,kind"
BOND = "a,b,sigma_r,lambda_r,nu_r,delta_r,t,T,r0,variant"
REPORT_COLUMNS = {
    "price": PRICE_COLUMNS,
    "greeks": OPTION + ",greek_delta,greek_gamma,greek_rho,greek_psi,greek_theta,greek_vega"
    ",greek_kappa,greek_mu,greek_epsilon",
    "bond": BOND + ",A,B,price",
    "curve": BOND + ",tenor,price,zero_yield",
    "mc": "target," + OPTION + ",T,horizon,analytic,mc_mean,mc_std_error,z,paths,seed",
    "validate": "check,config,value,tolerance,status",
    "limits": "scale,price_error,theta_error,bond_a_error,monotone",
}


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def body_lines(text):
    return [line for line in text.splitlines() if not line.startswith("#")]


class TestPrice:
    def test_default_run(self, capsys):
        code, out, _ = run(["price"], capsys)
        assert code == 0
        body = body_lines(out)
        assert body[0] == PRICE_COLUMNS
        assert len(body) == 1 + 2 * 3 * 2  # maturities x strikes x kinds

    def test_rows_recomputable(self, capsys):
        # every row carries everything needed to reprice it
        from shotpricer import AssetModel, GaussianJumpLaw, OptionKind, OptionTerms, price

        code, out, _ = run(["price"], capsys)
        header, *rows = body_lines(out)
        cols = header.split(",")
        for raw in rows:
            rec = dict(zip(cols, raw.split(",")))
            terms = OptionTerms(
                spot=float(rec["S"]),
                strike=float(rec["K"]),
                tau=float(rec["tau"]),
                rate=float(rec["r"]),
                dividend=float(rec["q"]),
                kind=OptionKind(rec["kind"]),
            )
            model = AssetModel(
                lam=float(rec["lambda"]),
                law=GaussianJumpLaw(float(rec["nu"]), float(rec["delta"])),
                sigma=float(rec["sigma"]),
            )
            assert price(terms, model).value == pytest.approx(
                float(rec["price"]), rel=1e-15
            )

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.csv"
        code, out, _ = run(["price", "--out", str(target)], capsys)
        assert code == 0 and out == ""
        assert PRICE_COLUMNS in target.read_text()

    def test_header_does_not_depend_on_the_path(self, tmp_path, capsys):
        short, long = tmp_path / "a.csv", tmp_path / ("a" * 40) / "report.csv"
        long.parent.mkdir()
        headers = []
        for target in (short, long):
            assert run(["price", "--out", str(target)], capsys)[0] == 0
            lines = target.read_text().splitlines()
            headers.append([l for l in lines if l.startswith("#") and "generated" not in l])
        assert headers[0] == headers[1]
        assert '"output": {"format": "csv"}' in headers[0][-1]

    def test_json_format(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, _, _ = run(["price", "--format", "json", "--out", str(target)], capsys)
        assert code == 0
        doc = json.loads(target.read_text())
        assert {"version", "command", "generated", "config"} <= set(doc["header"])
        assert len(doc["rows"]) == 12
        assert doc["rows"][0]["backend"] == "series"


class TestReportLayout:
    @pytest.mark.parametrize("command", list(REPORT_COLUMNS))
    def test_columns_pinned(self, command, tmp_path, capsys):
        argv = [command, "--paths", "2000"]
        code, out, _ = run(argv, capsys)
        assert code == 0
        assert body_lines(out)[0] == REPORT_COLUMNS[command]
        target = tmp_path / "report.json"
        assert run(argv + ["--format", "json", "--out", str(target)], capsys)[0] == 0
        rows = json.loads(target.read_text())["rows"]
        assert rows
        for row in rows:
            assert sorted(row) == sorted(REPORT_COLUMNS[command].split(","))

    def test_missing_values_are_null(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"asset": {"lam": 0.0, "sigma": 0.2}}')
        target = tmp_path / "greeks.json"
        run(["greeks", "--config", str(cfg), "--format", "json", "--out", str(target)], capsys)
        for row in json.loads(target.read_text())["rows"]:
            assert row["greek_kappa"] is None and row["greek_vega"] is not None
        target = tmp_path / "mc.json"
        run(["mc", "--paths", "2000", "--format", "json", "--out", str(target)], capsys)
        rows = json.loads(target.read_text())["rows"]
        for row in rows:
            if row["target"] == "option":
                assert row["horizon"] is None and row["T"] is None
            else:
                assert row["S"] is None and row["K"] is None
        code, out, _ = run(["greeks", "--config", str(cfg)], capsys)
        assert code == 0
        kappa = REPORT_COLUMNS["greeks"].split(",").index("greek_kappa")
        assert all(line.split(",")[kappa] == "" for line in body_lines(out)[1:])


class TestConfigHandling:
    def test_missing_file(self, capsys):
        code, _, err = run(["price", "--config", "/nonexistent/cfg.json"], capsys)
        assert code == 2
        assert "config error" in err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"asset": {"lam": 1.0, "zzz": 3}}')
        code, _, err = run(["price", "--config", str(cfg)], capsys)
        assert code == 2
        assert "zzz" in err

    @pytest.mark.parametrize(
        "path",
        ["quad.k_max", "quad.k_nodes", "quad.n_max", "sim.antithetic"],
        ids=lambda path: path.split(".")[1],
    )
    def test_fixed_quadrature_settings_rejected(self, tmp_path, capsys, path):
        # quad sets only the tolerance and sim only paths and seed; the
        # other quadrature settings are library constants, antithetic is gone
        section, key = path.split(".")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({section: {key: 1}}))
        code, _, err = run(["price", "--config", str(cfg)], capsys)
        assert code == 2
        assert f"unknown config key '{path}'" in err

    def test_invalid_json(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        code, _, _ = run(["price", "--config", str(cfg)], capsys)
        assert code == 2

    def test_flags_override_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"sim": {"seed": 1, "paths": 1000}}')
        code, out, _ = run(
            ["mc", "--config", str(cfg), "--seed", "77", "--paths", "2000"], capsys
        )
        assert code == 0
        header = [l for l in out.splitlines() if l.startswith("# config")][0]
        assert '"seed": 77' in header
        assert '"paths": 2000' in header

    def test_file_values_used(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"contracts": {"strikes": [101.5], "kinds": ["call"]}}')
        code, out, _ = run(["price", "--config", str(cfg)], capsys)
        assert code == 0
        body = body_lines(out)
        assert len(body) == 3  # header + 2 maturities x 1 strike x 1 kind
        assert body[1].split(",")[1] == "101.5"

    def test_bad_parameter_value(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"asset": {"delta": -0.5}}')
        code, _, err = run(["price", "--config", str(cfg)], capsys)
        assert code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["price", "--bogus"])
        assert exc.value.code == 2

    def test_parser_reused_after_a_usage_error(self, tmp_path, capsys):
        # the parser is built once per process: a call that failed to parse
        # leaves the next call's report as a fresh process writes it
        with pytest.raises(SystemExit) as exc:
            main(["price", "--bogus"])
        assert exc.value.code == 2
        here, fresh = tmp_path / "here.csv", tmp_path / "fresh.csv"
        assert run(["price", "--out", str(here)], capsys)[0] == 0
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = {**os.environ, "PYTHONPATH": src}
        subprocess.run(
            [sys.executable, "-m", "shotpricer.cli", "price", "--out", str(fresh)],
            env=env, check=True, timeout=120,
        )
        assert body_lines(here.read_text()) == body_lines(fresh.read_text())


class TestReproducibility:
    def test_csv_body_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["mc", "--paths", "5000", "--seed", "9", "--out", str(a)], capsys)[0] == 0
        assert run(["mc", "--paths", "5000", "--seed", "9", "--out", str(b)], capsys)[0] == 0
        assert body_lines(a.read_text()) == body_lines(b.read_text())

    def test_json_rows_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            run(
                ["mc", "--paths", "5000", "--seed", "9", "--format", "json",
                 "--out", str(path)],
                capsys,
            )
        rows_a = json.dumps(json.loads(a.read_text())["rows"], sort_keys=True)
        rows_b = json.dumps(json.loads(b.read_text())["rows"], sort_keys=True)
        assert rows_a == rows_b


class TestOtherCommands:
    def test_greeks_columns(self, capsys):
        code, out, _ = run(["greeks"], capsys)
        assert code == 0
        header = body_lines(out)[0]
        for greek in ("greek_delta", "greek_gamma", "greek_theta", "greek_kappa"):
            assert greek in header

    def test_bond_and_curve(self, capsys):
        code, out, _ = run(["bond"], capsys)
        assert code == 0
        assert "variant" in body_lines(out)[0]
        code, out, _ = run(["curve"], capsys)
        assert code == 0
        header, *rows = body_lines(out)
        assert "zero_yield" in header
        assert len(rows) == 4

    def test_mc_z_scores_reasonable(self, capsys):
        code, out, _ = run(["mc", "--paths", "50000", "--seed", "4"], capsys)
        assert code == 0
        header, *rows = body_lines(out)
        z_idx = header.split(",").index("z")
        for row in rows:
            assert abs(float(row.split(",")[z_idx])) < 5.0

    @pytest.mark.parametrize("variant", ["shot", "vasicek"])
    def test_mc_bond_rows_simulate_the_variant(self, variant, tmp_path, capsys):
        # a bond row compares the variant's price with a run of the same model
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bond": {"variant": variant}}))
        code, out, _ = run(["mc", "--config", str(cfg), "--paths", "20000"], capsys)
        assert code == 0
        header, *rows = body_lines(out)
        bonds = [dict(zip(header.split(","), r.split(","))) for r in rows if r.startswith("bond,")]
        assert len(bonds) == 4 and all(b["kind"] == variant for b in bonds)
        for bond in bonds:
            assert abs(float(bond["z"])) <= 5.0
            if variant == "vasicek":  # no jumps: every path is the analytic price
                assert float(bond["mc_std_error"]) == 0.0
                assert bond["mc_mean"] == bond["analytic"]

    def test_backend_flag(self, capsys):
        code, out, _ = run(["price", "--backend", "fourier"], capsys)
        assert code == 0
        assert body_lines(out)[1].endswith("fourier")

    def test_tol_flag(self, capsys):
        code, out, _ = run(["price", "--tol", "1e-8"], capsys)
        assert code == 0
        header = [l for l in out.splitlines() if l.startswith("# config")][0]
        assert '"rel_tol": 1e-08' in header

    @pytest.mark.parametrize("command", ["price", "greeks"])
    def test_tightest_tolerance_runs(self, command, capsys):
        # series tail 1e-16: the window's dropped mass is measured from the
        # Poisson cdfs, not as 1 minus a rounded sum of its weights
        code, out, err = run([command, "--tol", "1e-15"], capsys)
        assert code == 0, err
        assert len(body_lines(out)) == 1 + 2 * 3 * 2

    def test_mc_covers_rate_moments(self, capsys):
        code, out, _ = run(["mc", "--paths", "20000", "--seed", "4"], capsys)
        assert code == 0
        targets = {line.split(",")[0] for line in body_lines(out)[1:]}
        assert {"option", "bond", "rate_mean", "rate_variance"} <= targets

    def test_validate_passes(self, capsys):
        code, out, _ = run(["validate"], capsys)
        assert code == 0
        body = body_lines(out)
        assert all(line.endswith("pass") for line in body[1:])

    def test_validate_failure_exits_1(self, monkeypatch, capsys):
        rows = [("parity", "grid", 1e-9, 1e-8), ("greek_identity", "kappa_mu", 2e-4, 1e-4)]
        monkeypatch.setattr(cli, "contract_checks", lambda *args: iter(rows))
        code, out, err = run(["validate"], capsys)
        assert code == 1
        assert body_lines(out)[1:] == [
            "parity,grid,1.0000000000000001e-09,1e-08,pass",
            "greek_identity,kappa_mu,0.00020000000000000001,0.0001,FAIL",
        ]
        assert err.count("contract failure:") == 1 and "kappa_mu" in err

    def test_limits_passes(self, capsys):
        code, out, _ = run(["limits"], capsys)
        assert code == 0
        header, *rows = body_lines(out)
        assert header.split(",") == [
            "scale", "price_error", "theta_error", "bond_a_error", "monotone",
        ]
        assert [r.split(",")[0] for r in rows] == ["1", "10", "100", "1000"]

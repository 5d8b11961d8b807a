import json
import math
import os
import subprocess
import sys
from pathlib import Path

import poromix
from poromix.cli import main
from poromix.ledger import EnergyLedger

ZERO_CONFIG = """
domain: {Lx: 3.141592653589793, Ly: 3.141592653589793, Ns: 4, Nv: 1}
params: {mu_e: 0.1, d: 0.1, kappa: 1.0}
mobility: {kind: constant, coefficients: [1.0]}
forcing: {preset: zero}
initial:
  C: {preset: zero}
  u: {preset: zero}
solver: {T_run: 0.1, rtol: 1.0e-8, atol: 1.0e-11}
outputs: {ledger_path: ledger.csv}
"""

BLOWUP_CONFIG = ZERO_CONFIG.replace("C: {preset: zero}", "C: {preset: uniform, value: 2.0}").replace(
    "solver: {T_run: 0.1, rtol: 1.0e-8, atol: 1.0e-11}",
    "solver: {T_run: 2.0, rtol: 1.0e-9, atol: 1.0e-12, blowup_cap: 1.0e6}",
)


def test_run_zero_data_exit_zero(tmp_path, capsys):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(ZERO_CONFIG)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    ledger = EnergyLedger.read_csv(out / "ledger.csv")
    assert all(r.l2_C == 0.0 and r.l2_u == 0.0 for r in ledger.rows)
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["outcome"] == "completed"
    assert meta["steps_implicit"] == 0
    assert meta["existence_time_bound"] == "unbounded"  # zero initial data
    assert meta["apriori"] == {"all_finite": True, "dissipation_holds": True}
    assert meta["config"]["domain"]["Ns"] == 4


def test_run_blowup_exit_two(tmp_path):
    cfg = tmp_path / "blow.yaml"
    cfg.write_text(BLOWUP_CONFIG)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["outcome"] == "blowup"
    assert abs(meta["blowup_time"] - math.log(2.0)) <= 0.01 * math.log(2.0)
    ledger = EnergyLedger.read_csv(out / "ledger.csv")
    assert ledger.final.blowup == 1


def test_run_config_errors_exit_one(tmp_path, capsys):
    cfg = tmp_path / "broken.yaml"
    cfg.write_text(ZERO_CONFIG.replace("coefficients: [1.0]", "coefficients: []"))
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "mobility" in err and "coefficients" in err


def test_run_snapshots_written(tmp_path):
    cfg = tmp_path / "snap.yaml"
    cfg.write_text(
        ZERO_CONFIG.replace("outputs: {ledger_path: ledger.csv}",
                            "outputs: {ledger_path: ledger.csv, snapshot_cadence: 0.05, "
                            "snapshot_dir: snaps}")
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    snaps = sorted((out / "snaps").glob("C_*.snap"))
    assert len(snaps) >= 2  # t = 0 and at least one cadence tick
    assert (out / "snaps" / "ux_000000.snap").exists()


def test_verify_suite_exit_codes(capsys):
    assert main(["verify", "--suite", "diffusion"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] diffusion/" in out
    assert main(["verify", "--suite", "no-such-suite"]) == 1
    err = capsys.readouterr().err
    assert "unknown suite" in err


def test_sweep_kappa_zero_completes(tmp_path):
    cfg = tmp_path / "s.yaml"
    cfg.write_text(ZERO_CONFIG.replace("C: {preset: zero}", "C: {preset: uniform, value: 0.5}"))
    report = tmp_path / "report.csv"
    assert main(["sweep", "--config", str(cfg), "--vary", "kappa:0:0:1",
                 "--report", str(report)]) == 0
    lines = report.read_text().splitlines()
    assert lines[0] == "param,value,outcome,blowup_time,decay_rate"
    assert len(lines) == 2
    assert "Completed" in lines[1]


def test_sweep_blowup_times_match_logistic(tmp_path):
    cfg = tmp_path / "s.yaml"
    cfg.write_text(BLOWUP_CONFIG)
    report = tmp_path / "report.csv"
    assert main(["sweep", "--config", str(cfg), "--vary", "kappa:0.5:2.0:3",
                 "--report", str(report)]) == 0
    rows = report.read_text().splitlines()[1:]
    assert len(rows) == 3
    for row in rows:
        _, value, outcome, blow, _ = row.split(",")
        kappa = float(value)
        assert outcome == "BlowUp"
        assert abs(float(blow) - math.log(2.0) / kappa) <= 0.01 * math.log(2.0) / kappa


def test_sweep_delta_hat_invariant_for_uniform_C(tmp_path):
    # grad C = 0 keeps the gradient-stress coupling silent: every row equal.
    cfg = tmp_path / "s.yaml"
    text = ZERO_CONFIG.replace("C: {preset: zero}", "C: {preset: uniform, value: 0.5}").replace(
        "u: {preset: zero}", "u: {preset: stream, jx: 1, ky: 1, amplitude: 0.4}"
    )
    cfg.write_text(text)
    report = tmp_path / "report.csv"
    assert main(["sweep", "--config", str(cfg), "--vary", "delta_hat:0.0:0.9:3",
                 "--report", str(report)]) == 0
    rows = [r.split(",") for r in report.read_text().splitlines()[1:]]
    outcomes = {r[2] for r in rows}
    rates = {r[4] for r in rows}
    assert outcomes == {"Completed"}
    assert len(rates) == 1


def test_sweep_malformed_vary_rejected(tmp_path, capsys):
    cfg = tmp_path / "s.yaml"
    cfg.write_text(ZERO_CONFIG)
    assert main(["sweep", "--config", str(cfg), "--vary", "kappa:0:1",
                 "--report", str(tmp_path / "r.csv")]) == 1
    assert "malformed vary spec" in capsys.readouterr().err
    assert main(["sweep", "--config", str(cfg), "--vary", "porosity:0:1:2",
                 "--report", str(tmp_path / "r.csv")]) == 1
    assert "unknown sweep parameter" in capsys.readouterr().err


def test_sweep_rejected_value_leaves_no_report(tmp_path, capsys):
    # R needs an exponential mobility; the sweep fails before the report opens.
    cfg = tmp_path / "s.yaml"
    cfg.write_text(ZERO_CONFIG.replace("{kind: constant, coefficients: [1.0]}",
                                       "{kind: polynomial, coefficients: [1.0, 0.5]}"))
    report = tmp_path / "r.csv"
    assert main(["sweep", "--config", str(cfg), "--vary", "R:0:1:2",
                 "--report", str(report)]) == 1
    assert "sweeping R requires exponential mobility" in capsys.readouterr().err
    assert not report.exists()


def test_sweep_run_count_capped(tmp_path, capsys):
    # One above the cap is refused before any run or value grid is made.
    cfg = tmp_path / "s.yaml"
    cfg.write_text(ZERO_CONFIG)
    report = tmp_path / "r.csv"
    assert main(["sweep", "--config", str(cfg), "--vary", "kappa:0.5:1:10001",
                 "--report", str(report)]) == 1
    err = capsys.readouterr().err
    assert "vary spec 'kappa:0.5:1:10001': n=10001 exceeds the limit of 10000" in err
    assert not report.exists()


def test_import_loads_no_scipy():
    # The runtime needs numpy and PyYAML only: importing scipy would add
    # about 0.3 s and a second OpenBLAS to every run's start-up.
    src = str(Path(poromix.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = ("import sys, poromix, poromix.cli, poromix.verify; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"

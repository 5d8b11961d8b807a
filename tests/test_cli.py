import importlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import poromix
from poromix.cli import _SWEEP_PARAMS, main

from conftest import fail_trials_past, read_ledger_csv, underflow_of

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
    ledger = read_ledger_csv(out / "ledger.csv")
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
    ledger = read_ledger_csv(out / "ledger.csv")
    assert ledger.final.blowup == 1


def test_run_that_underflows_writes_its_results_and_exits_one(tmp_path, capsys, monkeypatch):
    # Every trial past t = 0.05 fails, so the step size underflows short of
    # T_run = 0.1.  The steps accepted until then are the run's result.
    fail_trials_past(monkeypatch, 0.05)
    cfg = tmp_path / "run.yaml"
    cfg.write_text(ZERO_CONFIG.replace("C: {preset: zero}", "C: {preset: uniform, value: 0.5}"))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    meta = json.loads((out / "metadata.json").read_text())
    t, dt = underflow_of(meta["failure"])
    assert meta["outcome"] == "failed" and meta["blowup_time"] is None
    assert 0.0 < t == meta["t_final"] <= 0.05 and dt > 0.0
    assert meta["steps_accepted"] > 0 and meta["steps_rejected"] > 0
    ledger = read_ledger_csv(out / "ledger.csv")
    assert len(ledger) == meta["steps_accepted"] + 1 and ledger.final.t == t
    assert capsys.readouterr().out.splitlines()[0] == f"outcome: failed ({meta['failure']})"


def test_run_config_errors_exit_one(tmp_path, capsys):
    cfg = tmp_path / "broken.yaml"
    cfg.write_text(ZERO_CONFIG.replace("coefficients: [1.0]", "coefficients: []"))
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "mobility" in err and "coefficients" in err


@pytest.mark.parametrize("tagged", ["!!int abc", "!!float abc", "!!bool abc"])
def test_run_malformed_tagged_scalar_is_one_error_among_the_others(tmp_path, capsys, tagged):
    # YAML's constructor refuses the scalar; its field names it, and the
    # other defect is still listed.
    cfg = tmp_path / "tagged.yaml"
    cfg.write_text(ZERO_CONFIG.replace("Ns: 4", f"Ns: {tagged}").replace("kappa: 1.0", "kappa: -1.0"))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "config error: domain.Ns: expected a number, got 'abc'",
        "config error: params: kappa must be finite and >= 0, got -1.0",
    ]
    assert not (tmp_path / "out").exists()


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


def test_run_without_snapshots_builds_only_the_final_state(tmp_path, monkeypatch):
    # With snapshot_cadence 0 the CLI passes no sink, so run unpacks no
    # accepted state but the last.
    from poromix.solver import GalerkinSystem
    unpacked = []
    unpack = GalerkinSystem.unpack
    monkeypatch.setattr(GalerkinSystem, "unpack",
                        lambda self, t, y: unpacked.append(t) or unpack(self, t, y))
    cfg = tmp_path / "run.yaml"
    cfg.write_text(ZERO_CONFIG.replace("C: {preset: zero}", "C: {preset: uniform, value: 0.5}"))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["steps_accepted"] > 1
    assert unpacked == [meta["t_final"]]


def test_verify_suite_exit_codes(capsys):
    assert main(["verify", "--suite", "diffusion"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] diffusion/" in out
    assert main(["verify", "--suite", "no-such-suite"]) == 1
    err = capsys.readouterr().err
    assert "unknown suite" in err


def test_verify_passes_no_check_on_failed_runs(monkeypatch, capsys):
    # Every run fails at its first step.  Its initial state could still meet
    # a check (mass is conserved, a rest state is stationary), so every suite
    # that runs the solver fails; korteweg-reduction runs none.
    from poromix.verify import SUITE_NAMES
    monkeypatch.setattr(poromix.solver, "_DT_FLOOR", 1.0)
    for name in SUITE_NAMES:
        code = main(["verify", "--suite", name])
        out = capsys.readouterr().out
        assert (code, "[PASS]" in out) == ((0, True) if name == "korteweg-reduction"
                                           else (1, False)), name


def test_sweep_kappa_zero_completes(tmp_path):
    cfg = tmp_path / "s.yaml"
    cfg.write_text(ZERO_CONFIG.replace("C: {preset: zero}", "C: {preset: uniform, value: 0.5}"))
    report = tmp_path / "report.csv"
    assert main(["sweep", "--config", str(cfg), "--vary", "kappa:0:0:1",
                 "--report", str(report)]) == 0
    lines = report.read_text().splitlines()
    assert lines[0] == "param,value,outcome,blowup_time,decay_rate"
    assert len(lines) == 2
    assert lines[1].split(",")[2] == "completed"


def test_sweep_records_a_failed_run_and_goes_on(tmp_path, monkeypatch):
    # Only the kappa = 0.75 run underflows; it is one row of the report.
    fail_trials_past(monkeypatch, 0.05, when=lambda system: system.params.kappa == 0.75)
    cfg = tmp_path / "s.yaml"
    cfg.write_text(ZERO_CONFIG.replace("C: {preset: zero}", "C: {preset: uniform, value: 0.5}"))
    report = tmp_path / "report.csv"
    assert main(["sweep", "--config", str(cfg), "--vary", "kappa:0.5:1.0:3",
                 "--report", str(report)]) == 0
    rows = [r.split(",") for r in report.read_text().splitlines()[1:]]
    assert [(float(r[1]), r[2], r[3]) for r in rows] == [
        (0.5, "completed", "nan"), (0.75, "failed", "nan"), (1.0, "completed", "nan")]


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
        assert outcome == "blowup"
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
    assert outcomes == {"completed"}
    assert len(rates) == 1


def test_sweep_malformed_vary_rejected(tmp_path, capsys):
    cfg = tmp_path / "s.yaml"
    cfg.write_text(ZERO_CONFIG)
    for vary, error in ((["kappa:0:1"], "malformed vary spec"),
                        (["kappa:a:1:2"], "lo/hi must be numbers, n an integer"),
                        (["kappa:0:1:0"], "vary spec needs n >= 1"),
                        (["kappa:0:1:2", "d:0:1:2"], "exactly one parameter per invocation")):
        assert main(["sweep", "--config", str(cfg), *(f"--vary={v}" for v in vary),
                     "--report", str(tmp_path / "r.csv")]) == 1
        assert error in capsys.readouterr().err
    # gamma moves only the recovered pressure, which no report column holds.
    for vary in ("porosity:0:1:2", "gamma:0:1:2"):
        assert main(["sweep", "--config", str(cfg), "--vary", vary,
                     "--report", str(tmp_path / "r.csv")]) == 1
        assert "unknown sweep parameter" in capsys.readouterr().err


def test_readme_sweep_parameters_match_cli():
    readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
    found = re.search(r"Sweepable parameters: ([^.]*)\.", readme)
    assert found
    assert re.findall(r"`(\w+)`", found.group(1)) == list(_SWEEP_PARAMS)


def test_readme_dependency_floors_match_pyproject():
    root = Path(__file__).resolve().parents[1]
    block = re.search(r"^dependencies = \[(.*?)\]", (root / "pyproject.toml").read_text(),
                      re.S | re.M)
    declared = [tuple(dep.split(">=")) for dep in re.findall(r'"([^"]+)"', block.group(1))]
    readme = " ".join((root / "README.md").read_text().split())
    found = re.search(r"The runtime dependencies are ([^;]*);", readme)
    assert found
    assert re.findall(r"(\w+) >= ([\d.]+)", found.group(1)) == declared


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
    # With an exponential mobility the same sweep runs each value.
    cfg.write_text(ZERO_CONFIG.replace("{kind: constant, coefficients: [1.0]}",
                                       "{kind: exponential, coefficients: [0.0]}"))
    assert main(["sweep", "--config", str(cfg), "--vary", "R:0.1:0.5:2",
                 "--report", str(report)]) == 0
    rows = [r.split(",") for r in report.read_text().splitlines()[1:]]
    assert [(r[0], float(r[1]), r[2]) for r in rows] == [("R", 0.1, "completed"),
                                                         ("R", 0.5, "completed")]


def test_sweep_initial_mode_outside_basis_leaves_no_report(tmp_path, capsys):
    cfg = tmp_path / "s.yaml"
    cfg.write_text(ZERO_CONFIG.replace("C: {preset: zero}", "C: {preset: cosine, jx: 9}"))
    report = tmp_path / "r.csv"
    assert main(["sweep", "--config", str(cfg), "--vary", "kappa:0:1:2",
                 "--report", str(report)]) == 1
    assert "initial.C: cosine mode (9, 0) out of range for Ns=4" in capsys.readouterr().err
    assert not report.exists()


# A file entry that does not fit the grid, sets one that fails the quadrature
# certificate (a forcing table's grid is the run's grid) or holds a non-finite
# value: the edit to ZERO_CONFIG and the one error line it gives.  None is
# found by parsing the config.
off_the_grid = pytest.mark.parametrize("old, new, error", [
    ("C: {preset: zero}", "C: {file: c.npz}",
     "initial.C.file: beta shape (3, 3) does not match Ns=4"),
    ("C: {preset: zero}", "C: {file: c_nan.npz}",
     "initial.C.file: scalar field has non-finite coefficients"),
    ("u: {preset: zero}", "u: {file: u_nan.npz}",
     "initial.u.file: velocity field has non-finite coefficients"),
    ("forcing: {preset: zero}", "forcing: {file: f.npz}",
     "forcing.file: Gauss-Legendre M=10 (default 22) on (0, 3.14159) certification failed: "
     "worst trig-mode error 7.853e-02 exceeds 3.142e-13 at degree 10"),
    ("forcing: {preset: zero}", "forcing: {file: f_flat.npz}",
     "forcing.file: tabulated forcing arrays must be (K, M, M) and congruent"),
    ("forcing: {preset: zero}", "forcing: {file: f_nan_t.npz}",
     "forcing.file: tabulated forcing times must be finite and strictly increasing"),
], ids=["initial", "initial_nan_beta", "initial_nan_alpha", "forcing", "forcing_not_a_grid",
        "forcing_nan_time"])


def _off_the_grid_config(tmp_path, old, new):
    np.savez(tmp_path / "c.npz", beta=np.zeros((3, 3)))
    np.savez(tmp_path / "c_nan.npz", beta=np.full((4, 4), np.nan))
    np.savez(tmp_path / "u_nan.npz", alpha=np.full((1, 1), np.nan))
    np.savez(tmp_path / "f.npz", t=np.zeros(1), fx=np.zeros((1, 10, 10)), fy=np.zeros((1, 10, 10)))
    np.savez(tmp_path / "f_flat.npz", t=np.zeros(1), fx=np.zeros((1, 21)), fy=np.zeros((1, 21)))
    np.savez(tmp_path / "f_nan_t.npz", t=np.array([0.0, np.nan, 1.0]),
             fx=np.zeros((3, 21, 21)), fy=np.zeros((3, 21, 21)))
    cfg = tmp_path / "s.yaml"
    cfg.write_text(ZERO_CONFIG.replace(old, new))
    return cfg


@off_the_grid
def test_run_file_entry_off_the_grid_leaves_no_output(tmp_path, capsys, old, new, error):
    # The inputs are built, and checked against the grid, before --out is made.
    cfg = _off_the_grid_config(tmp_path, old, new)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"config error: {error}"]
    assert not out.exists()


@off_the_grid
def test_sweep_file_entry_off_the_grid_leaves_no_report(tmp_path, capsys, old, new, error):
    # No sweep parameter touches the initial state or the forcing, so both
    # are built, and checked against the grid, before the report opens.
    cfg = _off_the_grid_config(tmp_path, old, new)
    report = tmp_path / "r.csv"
    assert main(["sweep", "--config", str(cfg), "--vary", "kappa:0:1:2",
                 "--report", str(report)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"config error: {error}"]
    assert not report.exists()


def test_config_domain_M_is_an_unknown_key(tmp_path, capsys):
    # The quadrature size is no config key: the smallest certified grid, or
    # a forcing table's own grid, sets it.
    cfg = tmp_path / "s.yaml"
    cfg.write_text(ZERO_CONFIG.replace("Nv: 1}", "Nv: 1, M: 30}"))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == ["config error: domain.M: unknown key"]
    assert not out.exists()


def test_forcing_table_sets_the_grid(tmp_path):
    # A table on an M=30 grid, above Ns/Nv 4/1's default of 22, runs with no
    # M in the config, through run and sweep, as the library run on M=30.
    rng = np.random.default_rng(3)
    np.savez(tmp_path / "f.npz", t=np.array([0.0, 0.05, 0.1]),
             fx=rng.standard_normal((3, 30, 30)), fy=rng.standard_normal((3, 30, 30)))
    cfg = tmp_path / "s.yaml"
    cfg.write_text(ZERO_CONFIG.replace("forcing: {preset: zero}", "forcing: {file: f.npz}"))
    out, report = tmp_path / "out", tmp_path / "r.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["sweep", "--config", str(cfg), "--vary", "kappa:1:1:1",
                 "--report", str(report)]) == 0

    domain = poromix.build_domain(poromix.DomainSpec(Lx=math.pi, Ly=math.pi, Ns=4, Nv=1, M=30))
    result = poromix.run(
        poromix.SimulationState(0.0, poromix.ScalarField(domain, np.zeros((4, 4))),
                                poromix.VelocityField(domain, np.zeros((1, 1)))),
        poromix.PhysicalParams(mu_e=0.1, d=0.1, kappa=1.0),
        poromix.SolverConfig(T_run=0.1, rtol=1e-8, atol=1e-11),
        forcing=poromix.ForcingSpec.tabulated(tmp_path / "f.npz", 30))
    result.ledger.write_csv(tmp_path / "library.csv")
    assert (out / "ledger.csv").read_bytes() == (tmp_path / "library.csv").read_bytes()
    assert result.ledger.final.l2_u > 0.0
    rate = poromix.diagnostics.fit_decay_rate(result.ledger, math.pi * math.pi)
    assert report.read_text().splitlines()[1] == f"kappa,1,completed,nan,{rate:.17g}"


def _write_malformed(path, kind, arrays):
    """A file at `path` that is no readable .npz archive of `arrays`."""
    if kind == "npy":
        with open(path, "wb") as fh:
            np.save(fh, next(iter(arrays.values())))
        return
    if kind == "text":
        path.write_text("beta: 1 2 3\n")
        return
    np.savez(path, **arrays)
    raw = bytearray(path.read_bytes())
    if kind == "truncated":
        raw = raw[: len(raw) // 2]
    else:  # flip the first data byte of the first member: its CRC-32 no longer holds
        start = raw.find(b"\x93NUMPY")
        raw[start + 10 + int.from_bytes(raw[start + 8 : start + 10], "little")] ^= 0xFF
    path.write_bytes(bytes(raw))


malformed = pytest.mark.parametrize("kind", ["truncated", "bit_flipped", "npy", "text"])
malformed_entry = pytest.mark.parametrize("old, new, name, arrays", [
    ("C: {preset: zero}", "C: {file: c.npz}", "c.npz", {"beta": np.ones((4, 4))}),
    ("forcing: {preset: zero}", "forcing: {file: f.npz}", "f.npz",
     {"t": np.zeros(1), "fx": np.ones((1, 21, 21)), "fy": np.ones((1, 21, 21))}),
], ids=["initial", "forcing"])


def _assert_one_error_naming(capsys, path):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and str(path) in lines[0]


@malformed
@malformed_entry
def test_run_malformed_file_entry_is_one_error_and_no_output(tmp_path, capsys, kind, old, new,
                                                             name, arrays):
    _write_malformed(tmp_path / name, kind, arrays)
    cfg = tmp_path / "s.yaml"
    cfg.write_text(ZERO_CONFIG.replace(old, new))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    _assert_one_error_naming(capsys, tmp_path / name)
    assert not out.exists()


@malformed
@malformed_entry
def test_sweep_malformed_file_entry_is_one_error_and_no_report(tmp_path, capsys, kind, old, new,
                                                               name, arrays):
    _write_malformed(tmp_path / name, kind, arrays)
    cfg = tmp_path / "s.yaml"
    cfg.write_text(ZERO_CONFIG.replace(old, new))
    report = tmp_path / "r.csv"
    assert main(["sweep", "--config", str(cfg), "--vary", "kappa:0:1:2",
                 "--report", str(report)]) == 1
    _assert_one_error_naming(capsys, tmp_path / name)
    assert not report.exists()


@pytest.mark.parametrize("outputs, error", [
    ('ledger_path: ""',
     "ledger_path must not be empty or the output directory itself, got ''"),
    ("ledger_path: ./",
     "ledger_path must not be empty or the output directory itself, got './'"),
    ('snapshot_dir: ""',
     "snapshot_dir must not be empty or the output directory itself, got ''"),
    ("snapshot_dir: snaps/..",
     "snapshot_dir must not be empty or the output directory itself, got 'snaps/..'"),
    ("ledger_path: metadata.json",
     "ledger_path and the metadata file are the same path 'metadata.json'"),
    ("ledger_path: ./sub/../metadata.json",
     "ledger_path and the metadata file are the same path 'metadata.json'"),
    ("snapshot_dir: metadata.json/",
     "snapshot_dir and the metadata file are the same path 'metadata.json'"),
    ("ledger_path: snapshots",
     "ledger_path and snapshot_dir are the same path 'snapshots'"),
    ("snapshot_dir: ./ledger.csv",
     "ledger_path and snapshot_dir are the same path 'ledger.csv'"),
    ("ledger_path: ..",
     "ledger_path must lie inside the output directory, got '..'"),
    ("snapshot_dir: snaps/../..",
     "snapshot_dir must lie inside the output directory, got 'snaps/../..'"),
    ("ledger_path: ../escaped.csv",
     "ledger_path must lie inside the output directory, got '../escaped.csv'"),
    ("snapshot_dir: snaps/../../snaps",
     "snapshot_dir must lie inside the output directory, got 'snaps/../../snaps'"),
    ("ledger_path: /ledger.csv",
     "ledger_path must lie inside the output directory, got '/ledger.csv'"),
    ("ledger_path: metadata.json/ledger.csv",
     "ledger_path and the metadata file lie one under the other, "
     "'metadata.json/ledger.csv' and 'metadata.json'"),
    ("snapshot_dir: ledger.csv/snaps",
     "ledger_path and snapshot_dir lie one under the other, 'ledger.csv' and 'ledger.csv/snaps'"),
], ids=["empty-ledger", "dot-ledger", "empty-snapshots", "dot-snapshots", "ledger-is-metadata",
        "ledger-normalizes-to-metadata", "snapshots-is-metadata", "ledger-is-snapshots",
        "snapshots-is-ledger", "ledger-above-out", "snapshots-above-out",
        "ledger-escapes", "snapshots-escape", "ledger-absolute",
        "ledger-under-metadata", "snapshots-under-ledger"])
def test_run_output_paths_that_collide_are_one_config_error(tmp_path, capsys, outputs, error):
    # Each would lose a result: the ledger overwritten by the metadata, or a
    # write into a directory that fails only after the whole run; or would
    # write outside the output directory.
    cfg = tmp_path / "run.yaml"
    cfg.write_text(ZERO_CONFIG.replace("outputs: {ledger_path: ledger.csv}",
                                       f"outputs: {{snapshot_cadence: 0.05, {outputs}}}"))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"config error: outputs: {error}"]
    assert not out.exists()


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


def _python(code):
    """stdout of `code` run by a fresh interpreter that imports this checkout's poromix."""
    src = str(Path(poromix.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120).stdout


def test_import_loads_no_scipy():
    # The runtime needs numpy and PyYAML only: importing scipy would add
    # about 0.3 s and a second OpenBLAS to every run's start-up.  Nor does
    # any module load dataclasses, whose decorator compiles methods per class.
    code = ("import sys, poromix, poromix.cli, poromix.verify; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'dataclasses')))")
    assert _python(code).strip() == "[]"


# The names `import poromix` resolves on first use, and their modules.
DEFERRED = {
    "ConfigError": "config", "RunConfig": "config",
    "apriori_flags": "diagnostics", "decay_to_mean_check": "diagnostics",
    "perturbation_stability": "diagnostics", "positivity_check": "diagnostics",
    "logistic_blowup_time": "oracles", "manufactured_run": "oracles",
    "momentum_gradient_residual": "pressure", "recover_pressure": "pressure",
    "config": "config", "diagnostics": "diagnostics", "oracles": "oracles",
    "pressure": "pressure",
}
NOT_IN_CORE = ("yaml", "poromix.config", "poromix.diagnostics", "poromix.oracles",
               "poromix.pressure", "dataclasses", "json", "numpy.polynomial")


def test_import_loads_only_the_solver_core():
    # dir() lists the deferred names before their modules load, and lists
    # exactly the names in __all__.
    code = ("import sys, poromix; "
            f"print(sorted(m for m in {NOT_IN_CORE!r} if m in sys.modules)); "
            f"print(sorted(set({list(DEFERRED)!r}) - set(poromix.__all__))); "
            "print(sorted({n for n in dir(poromix) if n[0] != '_'} ^ set(poromix.__all__)))")
    assert _python(code).split() == ["[]", "[]", "[]"]


def test_a_run_loads_no_numpy_polynomial():
    # The Gauss-Legendre rule is a Jacobi-matrix eigensolve and a polynomial
    # mobility goes by Horner's rule, so building a domain, evaluating each
    # mobility family with diagnostics and an unforced run load no
    # numpy.polynomial (a few ms and most of a MB per process).
    code = """
import math, sys
import numpy as np
import poromix as pm

domain = pm.build_domain(pm.DomainSpec(Lx=math.pi, Ly=math.pi, Ns=16, Nv=4))
B = np.zeros((16, 16))
B[0, 0], B[1, 1] = 0.5, 0.1
state = pm.SimulationState(0.0, pm.ScalarField(domain, B),
                           pm.VelocityField(domain, np.full((4, 4), 0.01)))
for F in (pm.MobilitySpec.constant(1.0), pm.MobilitySpec.polynomial(0.5, 2.0, 0.3),
          pm.MobilitySpec.exponential(0.5)):
    params = pm.PhysicalParams(mu_e=0.1, d=0.1, mobility=F)
    system = pm.GalerkinSystem(domain, params)
    system.evaluate_with_diagnostics(0.0, system.pack(state.C, state.u))
result = pm.run(state, params, pm.SolverConfig(T_run=0.01))
print(result.outcome, sorted(m for m in sys.modules if m.startswith("numpy.polynomial")))
"""
    assert _python(code).split() == ["completed", "[]"]


def test_cli_import_loads_no_verification_code():
    # `run` and `sweep` need neither the verify suites nor the oracles;
    # `verify` imports them when it runs.
    code = ("import sys, poromix.cli; "
            "print(sorted(m for m in ('poromix.verify', 'poromix.oracles') if m in sys.modules))")
    assert _python(code).strip() == "[]"


def test_deferred_names_are_their_modules_objects():
    for name, module in DEFERRED.items():
        mod = importlib.import_module(f"poromix.{module}")
        assert getattr(poromix, name) is (mod if name == module else getattr(mod, name))
        assert name in dir(poromix) and name in poromix.__all__
    assert all(hasattr(poromix, n) for n in poromix.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        poromix.no_such_name


def _readme_library_example(T_run):
    """The README's library example with its run shortened to `T_run`."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    code = re.search(r"```python\n(.*?)```", text.split("## Library use", 1)[1], re.S).group(1)
    assert "T_run=1.0" in code
    return code.replace("T_run=1.0", f"T_run={T_run!r}")


def test_solver_core_runs_without_pyyaml():
    # PyYAML is needed to read a config file, not to import or run the solver.
    code = ("import sys\nsys.modules['yaml'] = None\n" + _readme_library_example(0.05)
            + "try:\n    pm.RunConfig\nexcept ImportError:\n    print('no RunConfig')\n")
    run_line, last = _python(code).splitlines()
    assert run_line.split()[0] == "completed" and last == "no RunConfig"


def test_pure_python_yaml_parser_reads_configs_as_the_c_parser_does():
    # Without libyaml, PyYAML has no CSafeLoader and the config loader
    # parses in pure Python: the README config reads to the same dict, and
    # a refused tagged scalar and a 5000-digit integer give the same errors.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    texts = [re.search(r"^```yaml\n(.*?)^```", readme, flags=re.M | re.S).group(1),
             ZERO_CONFIG.replace("Ns: 4", "Ns: !!int abc"),
             ZERO_CONFIG.replace("Ns: 4", "Ns: " + "9" * 5000)]
    code = (f"import json, yaml\nyaml.__dict__.pop('CSafeLoader', None)\n"
            f"from poromix.config import ConfigError, RunConfig, _Loader\n"
            f"assert _Loader.__bases__ == (yaml.SafeLoader,)\nout = []\n"
            f"for text in {texts!r}:\n"
            f"    try:\n        out.append(RunConfig.from_text(text).to_dict())\n"
            f"    except ConfigError as exc:\n        out.append(exc.errors)\n"
            f"print(json.dumps(out))\n")
    pure = json.loads(_python(code))
    assert pure[1] == ["domain.Ns: expected a number, got 'abc'"]
    assert pure[2] == ["domain.Ns: must be finite, got an integer beyond float range"]
    from poromix.config import ConfigError, RunConfig
    with pytest.raises(ConfigError) as tagged:
        RunConfig.from_text(texts[1])
    with pytest.raises(ConfigError) as huge:
        RunConfig.from_text(texts[2])
    default = [RunConfig.from_text(texts[0]).to_dict(), tagged.value.errors, huge.value.errors]
    assert pure == json.loads(json.dumps(default))

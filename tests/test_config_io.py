import io
import math
import re
from pathlib import Path

import numpy as np
import pytest

from poromix import ConfigError, DomainSpec, RunConfig, build_domain
from poromix.config import OutputSpec
from poromix.forcing import ForcingSpec
from poromix.mobility import MobilitySpec
from poromix.ledger import CSV_COLUMNS, EnergyLedger
from poromix.runio import read_snapshot, write_metadata, write_snapshot
from poromix.solver import PhysicalParams, SimulationState, SolverConfig, run

from conftest import make_scalar, make_velocity

VALID_CONFIG = """
domain: {Lx: 3.141592653589793, Ly: 3.141592653589793, Ns: 4, Nv: 1}
params: {mu_e: 0.1, d: 0.1, kappa: 1.0, delta_hat: 0.0, gamma: 0.0, M_GN: 1.0}
mobility: {kind: constant, coefficients: [1.0]}
forcing: {preset: zero}
initial:
  C: {preset: uniform, value: 0.5}
  u: {preset: zero}
solver: {T_run: 0.2, rtol: 1.0e-8, atol: 1.0e-11, dt_init: 1.0e-4, blowup_cap: 100.0}
outputs: {ledger_path: ledger.csv, snapshot_cadence: 0.0, snapshot_dir: snaps}
"""


def test_parse_valid_config(tmp_path):
    cfg = RunConfig.from_text(VALID_CONFIG, base_dir=tmp_path)
    assert cfg.domain.Ns == 4
    assert cfg.params.kappa == 1.0
    assert cfg.params.mobility.kind == "constant"
    assert cfg.solver.T_run == 0.2
    domain = build_domain(cfg.domain)
    C0, u0 = cfg.build_initial(domain)
    assert C0.mean_value == pytest.approx(0.5, abs=1e-14)
    assert np.abs(u0.coeffs).max() == 0.0
    assert cfg.build_forcing().is_zero


def test_integrating_factor_flag_parsed(tmp_path):
    # The solver has one stepping path (plain DP5(4)) and no integrating-factor
    # option: a config that still sets the key is rejected by name.
    text = VALID_CONFIG.replace("blowup_cap: 100.0}", "blowup_cap: 100.0, integrating_factor: false}")
    with pytest.raises(ConfigError) as info:
        RunConfig.from_text(text, base_dir=tmp_path)
    assert info.value.errors == ["solver.integrating_factor: unknown key"]


def test_nan_rejected_for_every_numeric_key(tmp_path):
    text = VALID_CONFIG
    for old, new in (("Lx: 3.141592653589793", "Lx: .nan"),
                     ("kappa: 1.0", "kappa: .nan"),
                     ("value: 0.5", "value: .nan"),
                     ("rtol: 1.0e-8", "rtol: .nan"),
                     ("snapshot_cadence: 0.0", "snapshot_cadence: .nan")):
        assert old in text
        text = text.replace(old, new, 1)
    with pytest.raises(ConfigError) as info:
        RunConfig.from_text(text, base_dir=tmp_path)
    fields = ("domain.Lx", "params.kappa", "initial.C.value", "solver.rtol",
              "outputs.snapshot_cadence")
    for name in fields:
        assert f"{name}: must be finite, got nan" in info.value.errors


def test_dt_max_rejected_as_unknown_key(tmp_path):
    # The step size has no upper bound option: a config that sets one is
    # rejected by name, like any other key the solver section does not have.
    text = VALID_CONFIG.replace("blowup_cap: 100.0}", "blowup_cap: 100.0, dt_max: 0.01}")
    with pytest.raises(ConfigError) as info:
        RunConfig.from_text(text, base_dir=tmp_path)
    assert info.value.errors == ["solver.dt_max: unknown key"]


def test_mobility_coefficients_parsed_one_by_one(tmp_path):
    # YAML 1.1 reads 1.0e6 (no sign after the e) as a string; each
    # coefficient is parsed like a scalar key and named by its index.
    specs = []
    for coeffs in ("[1.0e6]", "[1000000.0]"):
        text = VALID_CONFIG.replace("coefficients: [1.0]", f"coefficients: {coeffs}")
        specs.append(RunConfig.from_text(text, base_dir=tmp_path).params.mobility)
    assert specs[0] == specs[1] == MobilitySpec.constant(1.0e6)
    text = VALID_CONFIG.replace("{kind: constant, coefficients: [1.0]}",
                                "{kind: polynomial, coefficients: [1.0, one]}")
    with pytest.raises(ConfigError) as info:
        RunConfig.from_text(text, base_dir=tmp_path)
    assert info.value.errors == ["mobility.coefficients[1]: expected a number, got 'one'"]


def test_non_string_initial_file_reported(tmp_path):
    text = VALID_CONFIG.replace("C: {preset: uniform, value: 0.5}", "C: {file: 3}")
    with pytest.raises(ConfigError) as info:
        RunConfig.from_text(text, base_dir=tmp_path)
    assert info.value.errors == ["initial.C.file: expected a string"]


def test_readme_yaml_example_parses(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```yaml\n(.*?)^```", readme, flags=re.MULTILINE | re.DOTALL)
    assert blocks
    for block in blocks:
        RunConfig.from_text(block, base_dir=tmp_path)


def test_readme_default_grid_sizes_match_build_domain():
    readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
    found = re.search(r"The default M is (\d+), (\d+) and (\d+) at Ns/Nv = "
                      r"(\d+)/(\d+), (\d+)/(\d+) and (\d+)/(\d+) on \(0, pi\)\^2", readme)
    assert found
    sizes = [int(v) for v in found.groups()]
    for M, Ns, Nv in zip(sizes[:3], sizes[3::2], sizes[4::2]):
        assert build_domain(DomainSpec(Lx=math.pi, Ly=math.pi, Ns=Ns, Nv=Nv)).grid.M == M


def test_omitted_keys_take_the_dataclass_defaults(tmp_path):
    minimal = """
domain: {Lx: 2.0, Ly: 1.0, Ns: 4, Nv: 1}
params: {mu_e: 0.3, d: 0.2}
mobility: {kind: constant, coefficients: [1.0]}
forcing: {preset: zero}
initial:
  C: {preset: zero}
  u: {preset: zero}
solver: {T_run: 0.2}
outputs: {}
"""
    cfg = RunConfig.from_text(minimal, base_dir=tmp_path)
    assert cfg.domain == DomainSpec(Lx=2.0, Ly=1.0, Ns=4, Nv=1)
    assert cfg.params == PhysicalParams(mu_e=0.3, d=0.2)
    assert cfg.solver == SolverConfig(T_run=0.2)
    assert cfg.outputs == OutputSpec()


def test_all_errors_reported_at_once():
    broken = """
domain: {Lx: -1.0, Ly: 3.0, Ns: 4, Nv: 1}
params: {mu_e: -0.1, d: 0.1}
mobility: {kind: polynomial}
forcing: {preset: nonsense}
initial:
  C: {preset: cosine_mix, offset: 0.5, modes: [[1, 1], [2, one, 0.1]]}
  u: {preset: stream, jx: one}
solver: {T_run: 0.2}
outputs: {}
typo_section: {}
"""
    with pytest.raises(ConfigError) as info:
        RunConfig.from_text(broken)
    text = "\n".join(info.value.errors)
    # One ConfigError carries every defect with its field path.
    assert "typo_section" in text
    with pytest.raises(ConfigError) as info2:
        RunConfig.from_text(broken.replace("typo_section: {}\n", ""))
    msgs = info2.value.errors
    assert any("domain" in m and "Lx" in m for m in msgs)
    assert any("mu_e" in m for m in msgs)
    assert any("mobility.coefficients" in m for m in msgs)
    assert any("forcing.preset" in m for m in msgs)
    assert "initial.C.modes[0]: expected [j, k, amplitude], got [1, 1]" in msgs
    assert "initial.C.modes[1].k: expected a number, got 'one'" in msgs
    assert "initial.u.jx: expected a number, got 'one'" in msgs
    assert len(msgs) >= 7


def test_list_valued_preset_names_reported():
    text = VALID_CONFIG.replace("forcing: {preset: zero}", "forcing: {preset: [zero]}")
    text = text.replace("u: {preset: zero}", "u: {preset: [zero]}")
    with pytest.raises(ConfigError) as info:
        RunConfig.from_text(text)
    msgs = info.value.errors
    assert any(m.startswith("forcing.preset: unknown preset ['zero']") for m in msgs)
    assert any(m.startswith("initial.u.preset: unknown preset ['zero']") for m in msgs)


def test_missing_section_and_non_yaml():
    with pytest.raises(ConfigError, match="solver: missing section"):
        RunConfig.from_text("domain: {Lx: 1, Ly: 1, Ns: 2, Nv: 1}")
    with pytest.raises(ConfigError, match="YAML"):
        RunConfig.from_text("{unbalanced")


def test_roundtrip_semantically_idempotent(tmp_path):
    cfg = RunConfig.from_text(VALID_CONFIG, base_dir=tmp_path)
    text = cfg.to_yaml()
    cfg2 = RunConfig.from_text(text, base_dir=tmp_path)
    assert cfg2.to_dict() == cfg.to_dict()
    assert cfg2.to_yaml() == text


def test_initial_from_coefficient_files(tmp_path, pi_domain):
    beta = np.zeros((6, 6))
    beta[1, 2] = 0.7
    alpha = np.zeros((2, 2))
    alpha[0, 0] = 0.3
    np.savez(tmp_path / "c0.npz", beta=beta)
    np.savez(tmp_path / "u0.npz", alpha=alpha)
    text = VALID_CONFIG.replace("{Lx: 3.141592653589793, Ly: 3.141592653589793, Ns: 4, Nv: 1}",
                                "{Lx: 3.141592653589793, Ly: 3.141592653589793, Ns: 6, Nv: 2}")
    text = text.replace("C: {preset: uniform, value: 0.5}", "C: {file: c0.npz}")
    text = text.replace("u: {preset: zero}", "u: {file: u0.npz}")
    cfg = RunConfig.from_text(text, base_dir=tmp_path)
    C0, u0 = cfg.build_initial(pi_domain)
    assert np.array_equal(C0.coeffs, beta)
    assert np.array_equal(u0.coeffs, alpha)


def test_tabulated_forcing_interpolation(tmp_path, pi_domain):
    M = pi_domain.grid.M
    times = np.array([0.0, 1.0])
    fx = np.stack([np.zeros((M, M)), np.ones((M, M))])
    fy = np.stack([np.ones((M, M)), np.ones((M, M))])
    path = tmp_path / "force.npz"
    np.savez(path, t=times, fx=fx, fy=fy)
    forcing = ForcingSpec.tabulated(path)
    half_x, half_y = forcing.evaluate(pi_domain, 0.5)
    assert np.allclose(half_x, 0.5) and np.allclose(half_y, 1.0)
    late_x, _ = forcing.evaluate(pi_domain, 5.0)  # clamped past the table
    assert np.allclose(late_x, 1.0)
    early_x, _ = forcing.evaluate(pi_domain, -1.0)
    assert np.allclose(early_x, 0.0)


def test_tabulated_forcing_validation(tmp_path):
    path = tmp_path / "bad.npz"
    np.savez(path, t=np.array([0.0, 0.0]), fx=np.zeros((2, 3, 3)), fy=np.zeros((2, 3, 3)))
    with pytest.raises(ValueError, match="strictly increasing"):
        ForcingSpec.tabulated(path)
    path2 = tmp_path / "bad2.npz"
    np.savez(path2, t=np.array([0.0]))
    with pytest.raises(ValueError, match="missing arrays"):
        ForcingSpec.tabulated(path2)


def _small_run(pi_domain):
    params = PhysicalParams(mu_e=0.1, d=0.1, kappa=0.5)
    state = SimulationState(
        0.0, make_scalar(pi_domain, [(1, 1, 0.2)], offset=0.5),
        make_velocity(pi_domain, [(1, 1, 0.3)])
    )
    return run(state, params, SolverConfig(T_run=0.1, rtol=1e-8, atol=1e-12))


def test_ledger_csv_format_and_roundtrip(tmp_path, pi_domain):
    res = _small_run(pi_domain)
    path = tmp_path / "ledger.csv"
    res.ledger.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == len(res.ledger.rows) + 1
    back = EnergyLedger.read_csv(path)
    for a, b in zip(res.ledger.rows, back.rows):
        for col in CSV_COLUMNS:
            va, vb = getattr(a, col), getattr(b, col)
            assert va == vb or (math.isnan(va) and math.isnan(vb))


def test_ledger_csv_byte_identical_across_runs(tmp_path, pi_domain):
    buffers = []
    for _ in range(2):
        res = _small_run(pi_domain)
        buf = io.StringIO()
        res.ledger.to_csv(buf)
        buffers.append(buf.getvalue())
    assert buffers[0] == buffers[1]


def test_snapshot_roundtrip(tmp_path, pi_domain):
    values = pi_domain.scalar_values(make_scalar(pi_domain, [(1, 1, 0.4)], offset=0.2).coeffs)
    path = tmp_path / "C_000000.snap"
    write_snapshot(path, "C", 0.125, pi_domain, values)
    header, back = read_snapshot(path)
    assert header["field"] == "C"
    assert header["t"] == 0.125
    assert header["M"] == pi_domain.grid.M
    assert np.array_equal(back, values)


def test_snapshot_shape_checked(tmp_path, pi_domain):
    with pytest.raises(ValueError, match="must be"):
        write_snapshot(tmp_path / "x.snap", "C", 0.0, pi_domain, np.zeros((3, 3)))


def test_ledger_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,value\n0,1\n")
    with pytest.raises(ValueError, match="header"):
        EnergyLedger.read_csv(path)


def test_unknown_forcing_preset_rejected():
    with pytest.raises(ValueError, match="unknown forcing preset"):
        ForcingSpec.preset("hurricane")


def test_metadata_serializes_infinity(tmp_path):
    path = tmp_path / "meta.json"
    write_metadata(path, {"existence_time_bound": math.inf, "outcome": "completed"})
    text = path.read_text()
    assert '"unbounded"' in text
    assert '"completed"' in text

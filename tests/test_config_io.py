import io
import math
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from poromix import ConfigError, DomainError, DomainSpec, RunConfig, build_domain
from poromix.config import _KEYS, OutputSpec
from poromix.forcing import ForcingSpec
from poromix.mobility import MobilitySpec
from poromix.ledger import CSV_COLUMNS, EnergyLedger, LedgerRow
from poromix.runio import read_snapshot, write_metadata, write_snapshot
from poromix.solver import PhysicalParams, SimulationState, SolverConfig, run

from conftest import make_scalar, make_velocity, read_ledger_csv

VALID_CONFIG = """
domain: {Lx: 3.141592653589793, Ly: 3.141592653589793, Ns: 4, Nv: 1}
params: {mu_e: 0.1, d: 0.1, kappa: 1.0, delta_hat: 0.0, gamma: 0.0, M_GN: 1.0}
mobility: {kind: constant, coefficients: [1.0]}
forcing: {preset: zero}
initial:
  C: {preset: uniform, value: 0.5}
  u: {preset: zero}
solver: {T_run: 0.2, rtol: 1.0e-8, atol: 1.0e-11, blowup_cap: 100.0}
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
    # The zero preset is no body force, which the solver takes as None.
    assert cfg.build_forcing(domain) is None


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


def test_integer_beyond_float_range_named_for_every_numeric_key(tmp_path):
    # A YAML integer of 400 digits does not fit a float, and one of 5000 is
    # longer than Python converts to int; either is one defect of its
    # field, listed with the others.
    for huge in ("9" * 400, "9" * 5000):
        text = VALID_CONFIG
        for old, new in (("Ns: 4", f"Ns: {huge}"),
                         ("coefficients: [1.0]", f"coefficients: [{huge}]"),
                         ("{preset: uniform, value: 0.5}",
                          f"{{preset: cosine_mix, modes: [[{huge}, 0, 0.1]]}}"),
                         ("kappa: 1.0", "kappa: .nan")):
            assert old in text
            text = text.replace(old, new, 1)
        with pytest.raises(ConfigError) as info:
            RunConfig.from_text(text, base_dir=tmp_path)
        assert info.value.errors == [
            "domain.Ns: must be finite, got an integer beyond float range",
            "mobility.coefficients[0]: must be finite, got an integer beyond float range",
            "params.kappa: must be finite, got nan",
            "initial.C.modes[0].j: must be finite, got an integer beyond float range",
        ]


def test_dt_max_rejected_as_unknown_key(tmp_path):
    # The step size has no upper bound option and no fixed first step: a
    # config that sets either is rejected by name, like any other key the
    # solver section does not have.
    for key, value in (("dt_max", "0.01"), ("dt_init", "1.0e-4")):
        text = VALID_CONFIG.replace("blowup_cap: 100.0}", f"blowup_cap: 100.0, {key}: {value}}}")
        with pytest.raises(ConfigError) as info:
            RunConfig.from_text(text, base_dir=tmp_path)
        assert info.value.errors == [f"solver.{key}: unknown key"]
    with pytest.raises(TypeError, match="'dt_init'"):
        SolverConfig(T_run=1.0, dt_init=1e-4)


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


def test_unknown_initial_entry_keys_reported(tmp_path):
    # Each initial entry takes only its preset's keys, or `file` alone.
    text = VALID_CONFIG.replace(
        "C: {preset: uniform, value: 0.5}",
        "C: {preset: cosine, jx: 1, ky: 1, amplitud: 0.5, offset: 0.5}")
    text = text.replace("u: {preset: zero}", "u: {preset: zero, amplitude: 2}")
    with pytest.raises(ConfigError) as info:
        RunConfig.from_text(text, base_dir=tmp_path)
    assert info.value.errors == ["initial.C.amplitud: unknown key",
                                 "initial.u.amplitude: unknown key"]
    np.savez(tmp_path / "c.npz", beta=np.zeros((4, 4)))
    text = VALID_CONFIG.replace("C: {preset: uniform, value: 0.5}", "C: {file: c.npz, value: 1}")
    with pytest.raises(ConfigError) as info:
        RunConfig.from_text(text, base_dir=tmp_path)
    assert info.value.errors == ["initial.C.value: unknown key"]


def test_initial_modes_outside_the_basis_listed_with_config_errors(tmp_path):
    # Ns=4, Nv=1: cosine modes run 0..3, stream modes 1..1.  Both bad modes
    # are listed at parse time, next to an unrelated error.
    text = VALID_CONFIG.replace("C: {preset: uniform, value: 0.5}", "C: {preset: cosine, jx: 9}")
    text = text.replace("u: {preset: zero}", "u: {preset: stream_mix, modes: [[1, 1, 0.1], [0, 1, 0.2]]}")
    text = text.replace("rtol: 1.0e-8", "rtol: -1.0")
    with pytest.raises(ConfigError) as info:
        RunConfig.from_text(text, base_dir=tmp_path)
    assert info.value.errors == [
        "initial.C: cosine mode (9, 0) out of range for Ns=4",
        "initial.u: stream mode (0, 1) out of range for Nv=1",
        "solver: rtol must be finite and > 0, got -1.0",
    ]
    edge = VALID_CONFIG.replace("C: {preset: uniform, value: 0.5}",
                                "C: {preset: cosine_mix, modes: [[3, 3, 0.1], [0, 0, 0.2]]}")
    edge = edge.replace("u: {preset: zero}", "u: {preset: stream, jx: 1, ky: 1}")
    RunConfig.from_text(edge, base_dir=tmp_path)  # the corners of both bases


def test_readme_yaml_example_parses(tmp_path):
    # The example sets every key of each keyed section, so that the schema
    # and the documented config cannot drift apart.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```yaml\n(.*?)^```", readme, flags=re.MULTILINE | re.DOTALL)
    assert blocks
    for block in blocks:
        RunConfig.from_text(block, base_dir=tmp_path)
        raw = yaml.safe_load(block)
        for section, keys in _KEYS.items():
            if isinstance(keys, dict):
                assert sorted(raw[section]) == sorted(keys), section


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


def test_all_errors_reported_at_once(tmp_path):
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

    def errors(text):
        with pytest.raises(ConfigError) as info:
            RunConfig.from_text(text, base_dir=tmp_path)
        return info.value.errors

    msgs = errors(VALID_CONFIG.replace("Ns: 4", "Ns: 2.5")
                  .replace("ledger_path: ledger.csv", "ledger_path: 5")
                  .replace("{preset: zero}\ninitial", "{file: missing.npz}\ninitial")
                  .replace("C: {preset: uniform, value: 0.5}", "C: 3")
                  .replace("u: {preset: zero}", "u: {preset: zero, file: u0.npz}"))
    assert msgs == ["domain.Ns: expected an integer, got 2.5",
                    "forcing.file: missing.npz does not exist",
                    "initial.C: missing or not a mapping",
                    "initial.u: give exactly one of 'preset' or 'file'",
                    "outputs.ledger_path: expected a string"]
    for forcing in ("{preset: zero, file: missing.npz}", "{}"):
        assert errors(VALID_CONFIG.replace("forcing: {preset: zero}", f"forcing: {forcing}")) == [
            "forcing: give exactly one of 'preset' or 'file'"]
    assert errors(VALID_CONFIG.replace("{preset: uniform, value: 0.5}",
                                       "{preset: cosine_mix, modes: 3}")) == [
        "initial.C.modes: expected a list of [j, k, amplitude] triples"]


def test_every_params_defect_listed_on_its_own_line(tmp_path):
    # A bad Korteweg coefficient does not hide the other params errors.
    text = VALID_CONFIG.replace("mu_e: 0.1, d: 0.1", "mu_e: -0.1, d: 0.0")
    text = text.replace("delta_hat: 0.0", "delta_hat: -1.0")
    with pytest.raises(ConfigError) as info:
        RunConfig.from_text(text, base_dir=tmp_path)
    assert info.value.errors == [
        "params: delta_hat must be >= 0, got -1.0",
        "params: mu_e must be finite and > 0, got -0.1",
        "params: d must be finite and > 0, got 0.0",
    ]


def test_every_outputs_defect_listed_among_the_other_errors(tmp_path):
    # Paths that collide are checked with the rest of the config, each on
    # its own line, before anything is built or written.
    text = VALID_CONFIG.replace("T_run: 0.2", "T_run: -1.0").replace(
        "{ledger_path: ledger.csv, snapshot_cadence: 0.0, snapshot_dir: snaps}",
        "{ledger_path: metadata.json, snapshot_cadence: -1.0, snapshot_dir: ''}")
    with pytest.raises(ConfigError) as info:
        RunConfig.from_text(text, base_dir=tmp_path)
    assert info.value.errors == [
        "solver: T_run must be finite and > 0, got -1.0",
        "outputs: snapshot_cadence must be finite and >= 0, got -1.0",
        "outputs: snapshot_dir must not be empty or the output directory itself, got ''",
        "outputs: ledger_path and the metadata file are the same path 'metadata.json'",
    ]


def test_specs_check_their_values_when_constructed():
    with pytest.raises(DomainError, match="exactness threshold"):
        DomainSpec(Lx=1.0, Ly=1.0, Ns=8, Nv=2, M=10)
    # bool is an int subclass, but the parser rejects `Ns: true`; so does the spec.
    for key, error in (("Ns", "Ns must be an integer >= 1, got True"),
                       ("Nv", "Nv must be an integer >= 1, got True"),
                       ("M", "M must be an integer, got True")):
        with pytest.raises(DomainError) as info:
            DomainSpec(**{"Lx": 1.0, "Ly": 1.0, "Ns": 8, "Nv": 2, key: True})
        assert info.value.errors == (error,)
    with pytest.raises(ValueError, match="T_run"):
        SolverConfig(T_run=-1)
    with pytest.raises(ValueError, match="snapshot_cadence"):
        OutputSpec(snapshot_cadence=-1)


def test_list_valued_preset_names_reported():
    text = VALID_CONFIG.replace("forcing: {preset: zero}", "forcing: {preset: [zero]}")
    text = text.replace("u: {preset: zero}", "u: {preset: [zero]}")
    with pytest.raises(ConfigError) as info:
        RunConfig.from_text(text)
    msgs = info.value.errors
    assert any(m.startswith("forcing.preset: unknown preset ['zero']") for m in msgs)
    assert any(m.startswith("initial.u.preset: unknown preset ['zero']") for m in msgs)


def test_missing_section_and_non_yaml(tmp_path):
    with pytest.raises(ConfigError, match="solver: missing section"):
        RunConfig.from_text("domain: {Lx: 1, Ly: 1, Ns: 2, Nv: 1}")
    with pytest.raises(ConfigError, match="YAML"):
        RunConfig.from_text("{unbalanced")
    for text, message in (("- domain\n- solver", "config must be a mapping of sections"),
                          (re.sub(r"domain: \{.*\}", "domain: [1, 2]", VALID_CONFIG),
                           "domain: must be a mapping")):
        with pytest.raises(ConfigError) as info:
            RunConfig.from_text(text)
        assert info.value.errors == [message]
    missing = tmp_path / "missing.yaml"
    with pytest.raises(ConfigError) as info:
        RunConfig.from_file(missing)
    assert info.value.errors == [
        f"cannot read config file {missing}: [Errno 2] No such file or directory: '{missing}'"]


def test_roundtrip_semantically_idempotent(tmp_path):
    cfg = RunConfig.from_text(VALID_CONFIG, base_dir=tmp_path)
    text = yaml.safe_dump(cfg.to_dict(), sort_keys=False)
    cfg2 = RunConfig.from_text(text, base_dir=tmp_path)
    assert cfg2.to_dict() == cfg.to_dict()
    assert yaml.safe_dump(cfg2.to_dict(), sort_keys=False) == text


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
    forcing = ForcingSpec.tabulated(path, M)
    half_x, half_y = forcing.evaluate(pi_domain, 0.5)
    assert np.allclose(half_x, 0.5) and np.allclose(half_y, 1.0)
    late_x, _ = forcing.evaluate(pi_domain, 5.0)  # clamped past the table
    assert np.allclose(late_x, 1.0)
    early_x, _ = forcing.evaluate(pi_domain, -1.0)
    assert np.allclose(early_x, 0.0)


def test_preset_nodal_values_are_the_lowest_basis_velocity_bit_for_bit(pi_domain):
    # A preset's nodal values, which only pressure recovery asks for, are
    # amp(t) times the outer products of the first streamfunction factors.
    g = pi_domain.grid
    steady = ForcingSpec.preset("steady_stream").evaluate(pi_domain, 0.0)
    assert steady[0].tobytes() == np.outer(g.phx[:, 0], g.phyd[:, 0]).tobytes()
    assert steady[1].tobytes() == (-np.outer(g.phxd[:, 0], g.phy[:, 0])).tobytes()
    pulsed = ForcingSpec.preset("pulsed_stream").evaluate(pi_domain, 0.65)
    amp = np.sin(2.0 * np.pi * 0.65) * np.exp(-0.65)
    assert [p.tobytes() for p in pulsed] == [(amp * s).tobytes() for s in steady]


def test_tabulated_forcing_validation(tmp_path):
    path = tmp_path / "bad.npz"
    np.savez(path, t=np.array([0.0, 0.0]), fx=np.zeros((2, 3, 3)), fy=np.zeros((2, 3, 3)))
    with pytest.raises(ValueError, match="strictly increasing"):
        ForcingSpec.tabulated(path, 3)
    path2 = tmp_path / "bad2.npz"
    np.savez(path2, t=np.array([0.0]))
    with pytest.raises(ValueError, match="missing arrays"):
        ForcingSpec.tabulated(path2, 3)
    # NaN compares false, so only a finiteness check rejects a NaN time.
    path3 = tmp_path / "bad3.npz"
    np.savez(path3, t=np.array([0.0, np.nan, 1.0]), fx=np.zeros((3, 3, 3)),
             fy=np.zeros((3, 3, 3)))
    with pytest.raises(ValueError, match="times must be finite"):
        ForcingSpec.tabulated(path3, 3)
    grid = np.zeros((2, 3, 3))
    for arrays, message in (
            (dict(t=np.zeros(0), fx=np.zeros((0, 3, 3)), fy=np.zeros((0, 3, 3))),
             "needs at least one time sample"),
            (dict(t=np.array([0.0, 1.0]), fx=grid, fy=np.zeros((2, 3, 4))),
             "(K, M, M) and congruent"),
            (dict(t=np.array([0.0, 1.0]), fx=np.where(np.eye(3, dtype=bool), np.nan, grid),
                  fy=grid), "non-finite values")):
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match=re.escape(message)):
            ForcingSpec.tabulated(path, 3)


def test_non_finite_callable_forcing_rejected(pi_domain):
    M = pi_domain.grid.M
    forcing = ForcingSpec(lambda domain, t: (np.full((M, M), np.nan), np.zeros((M, M))))
    with pytest.raises(ValueError, match="forcing evaluated to non-finite values at t=0.5"):
        forcing.evaluate(pi_domain, 0.5)


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
    back = read_ledger_csv(path)
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
    path.write_bytes(path.read_bytes()[:-8])
    M = pi_domain.grid.M
    with pytest.raises(ValueError, match=f"snapshot payload has {M * M - 1} values, expected {M * M}"):
        read_snapshot(path)


@pytest.mark.parametrize("header, defect", [
    (b'{"field": "C", "t": 0.0}', "has no M"),
    (b'{"M": [2]}', r"M=\[2\] is no integer >= 1"),
    (b'{"M": -2}', "M=-2 is no integer >= 1"),
    (b'[2]', "is not a JSON object"),
    (b'\xff{"M": 2}', "is not a JSON object"),
    # A payload in another byte order or layout is refused, not misread.
    (b'{"M": 2, "layout": "column-major", "dtype": ">f8"}',
     "layout='column-major' is not 'row-major x-major'"),
    (b'{"M": 2, "layout": "row-major x-major", "dtype": ">f8"}', "dtype='>f8' is not '<f8'"),
    (b'{"M": 2, "dtype": "<f8"}', "has no layout"),
    (b'{"M": 2, "layout": "row-major x-major"}', "has no dtype"),
], ids=["no_M", "M_list", "M_negative", "not_an_object", "not_utf8", "column_major",
        "big_endian", "no_layout", "no_dtype"])
def test_malformed_snapshot_header_is_one_error_naming_the_file(tmp_path, header, defect):
    path = tmp_path / "C_000000.snap"
    path.write_bytes(header + b"\n" + np.zeros(4).tobytes())
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: snapshot header {defect}$"):
        read_snapshot(path)


def test_snapshot_shape_checked(tmp_path, pi_domain):
    with pytest.raises(ValueError, match="must be"):
        write_snapshot(tmp_path / "x.snap", "C", 0.0, pi_domain, np.zeros((3, 3)))


def test_ledger_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,value\n0,1\n")
    with pytest.raises(ValueError, match="header"):
        read_ledger_csv(path)


def test_ledger_times_must_increase():
    ledger = EnergyLedger()
    row = LedgerRow(1.0, *[0.0] * 11, 0)
    ledger.append(row)
    for t in (1.0, 0.5):
        with pytest.raises(ValueError, match=f"ledger times must increase: {t} after 1.0"):
            ledger.append(LedgerRow(t, *[0.0] * 11, 0))
    assert ledger.rows == [row]


def test_unknown_forcing_preset_rejected():
    with pytest.raises(ValueError, match="unknown forcing preset"):
        ForcingSpec.preset("hurricane")


def test_metadata_serializes_infinity(tmp_path):
    path = tmp_path / "meta.json"
    write_metadata(path, {"existence_time_bound": math.inf, "outcome": "completed"})
    text = path.read_text()
    assert '"unbounded"' in text
    assert '"completed"' in text


def test_stream_preset_shape_lives_with_its_grid():
    # The stream presets' nodal shape is formed on each call, so once the
    # domain is dropped nothing else holds an evaluated grid.
    import gc
    import weakref

    domain = build_domain(DomainSpec(Lx=math.pi, Ly=2.0, Ns=3, Nv=2))
    ForcingSpec.preset("steady_stream").evaluate(domain, 0.0)
    grid = weakref.ref(domain.grid)
    del domain
    gc.collect()
    assert grid() is None

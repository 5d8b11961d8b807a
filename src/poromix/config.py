"""
Run configuration: a YAML document with nested key/value sections.

Sections and keys:

    domain:   Lx, Ly, Ns, Nv, M (optional)
    params:   mu_e, d, kappa, delta_hat, gamma, M_GN
    mobility: kind, coefficients
    forcing:  preset OR file
    initial:  C: {preset: ..., ...} or {file: ...}; u: likewise
    solver:   T_run, rtol, atol, dt_init, dt_max, blowup_cap
    outputs:  ledger_path, snapshot_cadence, snapshot_dir

Validation collects every problem with its field path before failing, so
a broken file reports all defects at once.  parse -> serialize -> parse is
semantically idempotent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .domain import Domain, DomainSpec, build_domain
from .fields import ScalarField, VelocityField, cosine_field, stream_field
from .forcing import FORCING_PRESETS, ForcingSpec
from .korteweg import KortewegParams
from .mobility import MobilitySpec
from .solver import PhysicalParams, SolverConfig

__all__ = ["ConfigError", "RunConfig", "InitialSpec", "OutputSpec"]


class ConfigError(ValueError):
    """Carries the full list of field-precise validation failures."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("\n".join(self.errors))


_SECTIONS = ("domain", "params", "mobility", "forcing", "initial", "solver", "outputs")

# Initial-field presets and the defaults of their keys; "modes" holds
# [j, k, amplitude] triples, and integer defaults mark integer keys.
_SCALAR_PRESETS = {
    "zero": {},
    "uniform": {"value": 0.0},
    "cosine": {"jx": 1, "ky": 0, "offset": 0.0, "amplitude": 1.0},
    "cosine_mix": {"offset": 0.0, "modes": []},
}
_VELOCITY_PRESETS = {
    "zero": {},
    "stream": {"jx": 1, "ky": 1, "amplitude": 1.0},
    "stream_mix": {"modes": []},
}


@dataclass(frozen=True)
class InitialSpec:
    """Initial conditions: presets or coefficient files for C and u."""

    C: dict
    u: dict

    def build(self, domain: Domain):
        return _build_scalar_initial(domain, self.C), _build_velocity_initial(domain, self.u)


@dataclass(frozen=True)
class OutputSpec:
    ledger_path: str = "ledger.csv"
    snapshot_cadence: float = 0.0  # time interval between snapshots; 0 disables
    snapshot_dir: str = "snapshots"


@dataclass(frozen=True)
class RunConfig:
    domain: DomainSpec
    params: PhysicalParams
    forcing_raw: dict
    initial: InitialSpec
    solver: SolverConfig
    outputs: OutputSpec
    base_dir: Path

    # -- construction --------------------------------------------------------

    @staticmethod
    def from_file(path) -> "RunConfig":
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as exc:
            raise ConfigError([f"cannot read config file {path}: {exc}"])
        return RunConfig.from_text(text, base_dir=path.parent)

    @staticmethod
    def from_text(text: str, base_dir=".") -> "RunConfig":
        try:
            raw = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ConfigError([f"config is not valid YAML: {exc}"])
        if not isinstance(raw, dict):
            raise ConfigError(["config must be a mapping of sections"])
        return RunConfig.from_dict(raw, base_dir=base_dir)

    @staticmethod
    def from_dict(raw: dict, base_dir=".") -> "RunConfig":
        errors: list[str] = []
        base_dir = Path(base_dir)

        for section in _SECTIONS:
            if section not in raw:
                errors.append(f"{section}: missing section")
            elif not isinstance(raw[section], dict):
                errors.append(f"{section}: must be a mapping")
        unknown = set(raw) - set(_SECTIONS)
        for key in sorted(unknown):
            errors.append(f"{key}: unknown section")
        if errors:
            raise ConfigError(errors)

        domain = _parse_domain(raw["domain"], errors)
        mobility = _parse_mobility(raw["mobility"], errors)
        params = _parse_params(raw["params"], mobility, errors)
        forcing_raw = _parse_forcing(raw["forcing"], base_dir, errors)
        initial = _parse_initial(raw["initial"], base_dir, errors)
        solver = _parse_solver(raw["solver"], errors)
        outputs = _parse_outputs(raw["outputs"], errors)

        if errors:
            raise ConfigError(errors)
        return RunConfig(
            domain=domain,
            params=params,
            forcing_raw=forcing_raw,
            initial=initial,
            solver=solver,
            outputs=outputs,
            base_dir=base_dir,
        )

    # -- realization -----------------------------------------------------------

    def build_domain(self) -> Domain:
        return build_domain(self.domain)

    def build_forcing(self) -> ForcingSpec:
        if "file" in self.forcing_raw:
            return ForcingSpec.tabulated(self._resolve(self.forcing_raw["file"]))
        return ForcingSpec.preset(self.forcing_raw["preset"])

    def _resolve(self, p) -> Path:
        p = Path(p)
        return p if p.is_absolute() else self.base_dir / p

    def build_initial(self, domain: Domain):
        spec = InitialSpec(
            C=_resolve_file_entry(self.initial.C, self._resolve),
            u=_resolve_file_entry(self.initial.u, self._resolve),
        )
        return spec.build(domain)

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> dict:
        dom = {"Lx": self.domain.Lx, "Ly": self.domain.Ly, "Ns": self.domain.Ns,
               "Nv": self.domain.Nv}
        if self.domain.M is not None:
            dom["M"] = self.domain.M
        return {
            "domain": dom,
            "params": {
                "mu_e": self.params.mu_e,
                "d": self.params.d,
                "kappa": self.params.kappa,
                "delta_hat": self.params.korteweg.delta_hat,
                "gamma": self.params.korteweg.gamma,
                "M_GN": self.params.m_gn,
            },
            "mobility": {
                "kind": self.params.mobility.kind,
                "coefficients": list(self.params.mobility.coefficients),
            },
            "forcing": dict(self.forcing_raw),
            "initial": {"C": dict(self.initial.C), "u": dict(self.initial.u)},
            "solver": {
                "T_run": self.solver.T_run,
                "rtol": self.solver.rtol,
                "atol": self.solver.atol,
                "dt_init": self.solver.dt_init,
                "dt_max": self.solver.dt_max,
                "blowup_cap": self.solver.blowup_cap,
            },
            "outputs": {
                "ledger_path": self.outputs.ledger_path,
                "snapshot_cadence": self.outputs.snapshot_cadence,
                "snapshot_dir": self.outputs.snapshot_dir,
            },
        }

    def to_yaml(self) -> str:
        return yaml.safe_dump(self.to_dict(), sort_keys=False)


# ---------------------------------------------------------------------------
# section parsers
# ---------------------------------------------------------------------------


def _get_number(section, sec_name, key, errors, *, required=True, default=None,
                integer=False, allow_inf=False):
    if key not in section:
        if required:
            errors.append(f"{sec_name}.{key}: missing")
        return default
    val = section[key]
    if isinstance(val, str):
        # YAML 1.1 reads exponents like 1.0e6 as strings; accept them anyway.
        try:
            val = float(val)
        except ValueError:
            pass
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        errors.append(f"{sec_name}.{key}: expected a number, got {val!r}")
        return default
    if math.isnan(val) or (math.isinf(val) and not allow_inf):
        errors.append(f"{sec_name}.{key}: must be finite, got {val!r}")
        return default
    if integer and not float(val).is_integer():
        errors.append(f"{sec_name}.{key}: expected an integer, got {val!r}")
        return default
    return int(val) if integer else float(val)


def _check_unknown(section, sec_name, known, errors):
    for key in sorted(set(section) - set(known)):
        errors.append(f"{sec_name}.{key}: unknown key")


def _parse_domain(section, errors):
    _check_unknown(section, "domain", ("Lx", "Ly", "Ns", "Nv", "M"), errors)
    Lx = _get_number(section, "domain", "Lx", errors)
    Ly = _get_number(section, "domain", "Ly", errors)
    Ns = _get_number(section, "domain", "Ns", errors, integer=True)
    Nv = _get_number(section, "domain", "Nv", errors, integer=True)
    M = _get_number(section, "domain", "M", errors, required=False, integer=True)
    if None in (Lx, Ly, Ns, Nv):
        return None
    spec = DomainSpec(Lx=Lx, Ly=Ly, Ns=Ns, Nv=Nv, M=M)
    for msg in spec.validation_errors():
        errors.append(f"domain: {msg}")
    return spec


def _parse_mobility(section, errors):
    _check_unknown(section, "mobility", ("kind", "coefficients"), errors)
    kind = section.get("kind")
    coeffs = section.get("coefficients")
    if kind is None:
        errors.append("mobility.kind: missing")
    if coeffs is None:
        errors.append("mobility.coefficients: missing")
    elif not (isinstance(coeffs, list) and coeffs
              and all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in coeffs)):
        errors.append("mobility.coefficients: expected a non-empty list of numbers")
        coeffs = None
    if kind is None or coeffs is None:
        return None
    msgs = MobilitySpec.check(kind, tuple(float(c) for c in coeffs))
    if msgs:
        errors.extend(f"mobility: {m}" for m in msgs)
        return None
    return MobilitySpec(kind, tuple(float(c) for c in coeffs))


def _parse_params(section, mobility, errors):
    keys = ("mu_e", "d", "kappa", "delta_hat", "gamma", "M_GN")
    _check_unknown(section, "params", keys, errors)
    mu_e = _get_number(section, "params", "mu_e", errors)
    d = _get_number(section, "params", "d", errors)
    kappa = _get_number(section, "params", "kappa", errors, required=False,
                        default=PhysicalParams.kappa)
    delta_hat = _get_number(section, "params", "delta_hat", errors, required=False,
                            default=KortewegParams.delta_hat)
    gamma = _get_number(section, "params", "gamma", errors, required=False,
                        default=KortewegParams.gamma)
    m_gn = _get_number(section, "params", "M_GN", errors, required=False,
                       default=PhysicalParams.m_gn)
    if None in (mu_e, d, kappa, delta_hat, gamma, m_gn):
        return None
    try:
        kt = KortewegParams(delta_hat=delta_hat, gamma=gamma)
    except ValueError as exc:
        errors.append(f"params: {exc}")
        return None
    try:
        # Probe with a placeholder mobility so range errors surface even
        # when the mobility section is itself broken.
        params = PhysicalParams(mu_e=mu_e, d=d, kappa=kappa, korteweg=kt,
                                mobility=mobility or MobilitySpec.constant(1.0),
                                m_gn=m_gn)
    except ValueError as exc:
        errors.append(f"params: {exc}")
        return None
    return params if mobility is not None else None


def _parse_forcing(section, base_dir, errors):
    _check_unknown(section, "forcing", ("preset", "file"), errors)
    has_preset = "preset" in section
    has_file = "file" in section
    if has_preset == has_file:
        errors.append("forcing: give exactly one of 'preset' or 'file'")
        return {}
    if has_preset:
        name = section["preset"]
        if name not in list(FORCING_PRESETS):  # a list, as YAML may give an unhashable name
            errors.append(
                f"forcing.preset: unknown preset {name!r}; available: {sorted(FORCING_PRESETS)}"
            )
        return {"preset": name}
    path = Path(base_dir) / str(section["file"])
    if not path.exists():
        errors.append(f"forcing.file: {path} does not exist")
    return {"file": str(section["file"])}


def _parse_initial(section, base_dir, errors):
    _check_unknown(section, "initial", ("C", "u"), errors)
    out = {}
    for key, presets in (("C", _SCALAR_PRESETS), ("u", _VELOCITY_PRESETS)):
        entry = section.get(key)
        if not isinstance(entry, dict):
            errors.append(f"initial.{key}: missing or not a mapping")
            out[key] = {}
            continue
        if ("preset" in entry) == ("file" in entry):
            errors.append(f"initial.{key}: give exactly one of 'preset' or 'file'")
        elif "preset" in entry and entry["preset"] not in list(presets):  # as for forcing
            errors.append(
                f"initial.{key}.preset: unknown preset {entry['preset']!r}; "
                f"available: {list(presets)}"
            )
        elif "file" in entry:
            if not isinstance(entry["file"], str):
                errors.append(f"initial.{key}.file: expected a string")
            elif not (Path(base_dir) / entry["file"]).exists():  # an absolute path stays as is
                errors.append(f"initial.{key}.file: {entry['file']} does not exist")
        else:
            entry = _parse_preset_keys(entry, f"initial.{key}", presets[entry["preset"]], errors)
        out[key] = dict(entry)
    return InitialSpec(C=out["C"], u=out["u"])


def _parse_preset_keys(entry, sec_name, defaults, errors):
    """The entry with its numeric keys and [j, k, amplitude] mode triples parsed."""
    out = dict(entry)
    for key in (k for k in defaults if k in entry):
        if key != "modes":
            out[key] = _get_number(entry, sec_name, key, errors,
                                   integer=isinstance(defaults[key], int))
        elif isinstance(entry[key], (list, tuple)):
            out[key] = [_parse_mode(item, f"{sec_name}.modes[{i}]", errors)
                        for i, item in enumerate(entry[key])]
        else:
            errors.append(f"{sec_name}.modes: expected a list of [j, k, amplitude] triples")
    return out


def _parse_mode(item, sec_name, errors):
    if not (isinstance(item, (list, tuple)) and len(item) == 3):
        errors.append(f"{sec_name}: expected [j, k, amplitude], got {item!r}")
        return None
    triple = dict(zip(("j", "k", "amplitude"), item))
    return [_get_number(triple, sec_name, key, errors, integer=key != "amplitude")
            for key in triple]


def _parse_solver(section, errors):
    keys = ("T_run", "rtol", "atol", "dt_init", "dt_max", "blowup_cap")
    _check_unknown(section, "solver", keys, errors)
    T_run = _get_number(section, "solver", "T_run", errors)
    optional = {key: _get_number(section, "solver", key, errors, required=False,
                                 default=getattr(SolverConfig, key), allow_inf=key == "dt_max")
                for key in keys[1:]}
    if T_run is None:
        return None
    cfg = SolverConfig(T_run=T_run, **optional)
    for msg in cfg.validation_errors():
        errors.append(f"solver: {msg}")
    return cfg


def _parse_outputs(section, errors):
    keys = ("ledger_path", "snapshot_cadence", "snapshot_dir")
    _check_unknown(section, "outputs", keys, errors)
    ledger_path = section.get("ledger_path", OutputSpec.ledger_path)
    snapshot_dir = section.get("snapshot_dir", OutputSpec.snapshot_dir)
    cadence = _get_number(section, "outputs", "snapshot_cadence", errors,
                          required=False, default=OutputSpec.snapshot_cadence)
    if not isinstance(ledger_path, str):
        errors.append("outputs.ledger_path: expected a string")
    if not isinstance(snapshot_dir, str):
        errors.append("outputs.snapshot_dir: expected a string")
    if cadence is None or cadence < 0:
        errors.append("outputs.snapshot_cadence: expected a number >= 0")
    return OutputSpec(ledger_path=ledger_path, snapshot_cadence=cadence,
                      snapshot_dir=snapshot_dir)


# ---------------------------------------------------------------------------
# initial-condition builders
# ---------------------------------------------------------------------------


def _resolve_file_entry(entry: dict, resolve) -> dict:
    if "file" in entry:
        out = dict(entry)
        out["file"] = str(resolve(entry["file"]))
        return out
    return entry


def _load_coeffs(entry: dict, key: str, array: str, name: str, n: int) -> np.ndarray:
    """The (n, n) coefficient array of an initial.<key> file entry."""
    with np.load(entry["file"]) as data:
        if array not in data.files:
            raise ConfigError([f"initial.{key}.file: {entry['file']} has no '{array}' array"])
        coeffs = np.asarray(data[array], dtype=float)
    if coeffs.shape != (n, n):
        raise ConfigError(
            [f"initial.{key}.file: {array} shape {coeffs.shape} does not match {name}={n}"]
        )
    return coeffs


def _preset_modes(entry: dict, presets: dict):
    """(offset, [(j, k, amplitude), ...]) of a validated preset entry."""
    v = {key: entry.get(key, default) for key, default in presets[entry["preset"]].items()}
    modes = [(v["jx"], v["ky"], v["amplitude"])] if "jx" in v else v.get("modes", [])
    return v.get("offset", v.get("value", 0.0)), modes


def _build_scalar_initial(domain: Domain, entry: dict) -> ScalarField:
    if "file" in entry:
        return ScalarField(domain, _load_coeffs(entry, "C", "beta", "Ns", domain.spec.Ns))
    offset, modes = _preset_modes(entry, _SCALAR_PRESETS)
    try:
        return cosine_field(domain, modes, offset)
    except ValueError as exc:
        raise ConfigError([f"initial.C: {exc}"])


def _build_velocity_initial(domain: Domain, entry: dict) -> VelocityField:
    if "file" in entry:
        return VelocityField(domain, _load_coeffs(entry, "u", "alpha", "Nv", domain.spec.Nv))
    _, modes = _preset_modes(entry, _VELOCITY_PRESETS)
    try:
        return stream_field(domain, modes)
    except ValueError as exc:
        raise ConfigError([f"initial.u: {exc}"])

"""
Run configuration: a YAML document with nested key/value sections.

Sections and keys, each declared once in `_KEYS`, which the parsers and
`to_dict` both read:

    domain:   Lx, Ly, Ns, Nv, M (optional)
    params:   mu_e, d; optional kappa, delta_hat, gamma, M_GN
    mobility: kind, coefficients
    forcing:  preset OR file
    initial:  C: {preset: ..., ...} or {file: ...}; u: likewise
    solver:   T_run; optional rtol, atol, dt_init, blowup_cap
    outputs:  optional ledger_path, snapshot_cadence, snapshot_dir

Validation collects every problem with its field path before failing, so
a broken file reports all defects at once.  parse -> serialize -> parse is
semantically idempotent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path

import numpy as np
import yaml

from .domain import Domain, DomainSpec
from .fields import ScalarField, VelocityField, cosine_field, stream_field
from .forcing import FORCING_PRESETS, ForcingSpec
from .korteweg import KortewegParams
from .mobility import MobilitySpec
from .solver import PhysicalParams, SolverConfig

__all__ = ["ConfigError", "RunConfig", "OutputSpec"]


class ConfigError(ValueError):
    """Carries the full list of field-precise validation failures."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("\n".join(self.errors))


# Every section's keys.  A value key maps to (kind, required, attribute): the
# parsers read it as that kind (float, int, str, or tuple for a non-empty
# list of numbers), an omitted optional key takes its dataclass default, and
# `to_dict` echoes the attribute, dotted for a nested one, of the parsed
# object.  The forcing and initial entries are validated by their own
# parsers and echoed as given.
_KEYS = {
    "domain": {"Lx": (float, True, "Lx"), "Ly": (float, True, "Ly"), "Ns": (int, True, "Ns"),
               "Nv": (int, True, "Nv"), "M": (int, False, "M")},
    "params": {"mu_e": (float, True, "mu_e"), "d": (float, True, "d"),
               "kappa": (float, False, "kappa"),
               "delta_hat": (float, False, "korteweg.delta_hat"),
               "gamma": (float, False, "korteweg.gamma"), "M_GN": (float, False, "m_gn")},
    "mobility": {"kind": (str, True, "kind"), "coefficients": (tuple, True, "coefficients")},
    "forcing": ("preset", "file"),
    "initial": ("C", "u"),
    "solver": {"T_run": (float, True, "T_run"), "rtol": (float, False, "rtol"),
               "atol": (float, False, "atol"), "dt_init": (float, False, "dt_init"),
               "blowup_cap": (float, False, "blowup_cap")},
    "outputs": {"ledger_path": (str, False, "ledger_path"),
                "snapshot_cadence": (float, False, "snapshot_cadence"),
                "snapshot_dir": (str, False, "snapshot_dir")},
}

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
class OutputSpec:
    ledger_path: str = "ledger.csv"
    snapshot_cadence: float = 0.0  # time interval between snapshots; 0 disables
    snapshot_dir: str = "snapshots"


@dataclass(frozen=True)
class RunConfig:
    domain: DomainSpec
    params: PhysicalParams
    forcing_raw: dict
    initial: dict  # {"C": entry, "u": entry}, each a preset or a file entry
    solver: SolverConfig
    outputs: OutputSpec
    base_dir: Path  # relative file entries are read from here

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

        for section in _KEYS:
            if section not in raw:
                errors.append(f"{section}: missing section")
            elif not isinstance(raw[section], dict):
                errors.append(f"{section}: must be a mapping")
        for key in sorted(set(raw) - set(_KEYS)):
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

    def build_forcing(self) -> ForcingSpec:
        if "file" in self.forcing_raw:
            return ForcingSpec.tabulated(self.base_dir / self.forcing_raw["file"])
        return ForcingSpec.preset(self.forcing_raw["preset"])

    def build_initial(self, domain: Domain):
        return (_build_scalar_initial(domain, self.initial["C"], self.base_dir),
                _build_velocity_initial(domain, self.initial["u"], self.base_dir))

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "domain": _echo(self.domain, "domain"),
            "params": _echo(self.params, "params"),
            "mobility": _echo(self.params.mobility, "mobility"),
            "forcing": dict(self.forcing_raw),
            "initial": {key: dict(entry) for key, entry in self.initial.items()},
            "solver": _echo(self.solver, "solver"),
            "outputs": _echo(self.outputs, "outputs"),
        }

    def to_yaml(self) -> str:
        return yaml.safe_dump(self.to_dict(), sort_keys=False)


def _echo(obj, sec_name) -> dict:
    """The section's keys with the values they parsed to; None values left out."""
    out = {}
    for key, (kind, _, attr) in _KEYS[sec_name].items():
        value = attrgetter(attr)(obj)
        if value is not None:
            out[key] = list(value) if kind is tuple else value
    return out


# ---------------------------------------------------------------------------
# section parsers
# ---------------------------------------------------------------------------


def _get_number(val, path, errors, *, integer=False):
    """val as a finite float (an int if `integer`), or None with an error."""
    if isinstance(val, str):
        # YAML 1.1 reads exponents like 1.0e6 as strings; accept them anyway.
        try:
            val = float(val)
        except ValueError:
            pass
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        errors.append(f"{path}: expected a number, got {val!r}")
        return None
    if not math.isfinite(val):
        errors.append(f"{path}: must be finite, got {val!r}")
        return None
    if integer and not float(val).is_integer():
        errors.append(f"{path}: expected an integer, got {val!r}")
        return None
    return int(val) if integer else float(val)


def _check_unknown(section, sec_name, known, errors):
    for key in sorted(set(section) - set(known)):
        errors.append(f"{sec_name}.{key}: unknown key")


def _read_values(section, sec_name, errors):
    """{attribute: value} of the section's keys, or None if any key is bad."""
    keys = _KEYS[sec_name]
    _check_unknown(section, sec_name, keys, errors)
    n_errors = len(errors)
    values = {}
    for key, (kind, required, attr) in keys.items():
        path = f"{sec_name}.{key}"
        if key not in section:
            if required:
                errors.append(f"{path}: missing")
            continue
        val = section[key]
        if kind is str:
            if not isinstance(val, str):
                errors.append(f"{path}: expected a string")
        elif kind is tuple:
            if isinstance(val, list) and val:
                val = tuple(_get_number(v, f"{path}[{i}]", errors) for i, v in enumerate(val))
            else:
                errors.append(f"{path}: expected a non-empty list of numbers")
        else:
            val = _get_number(val, path, errors, integer=kind is int)
        values[attr] = val
    return values if len(errors) == n_errors else None


def _parse_domain(section, errors):
    values = _read_values(section, "domain", errors)
    if values is None:
        return None
    spec = DomainSpec(**values)
    for msg in spec.validation_errors():
        errors.append(f"domain: {msg}")
    return spec


def _parse_mobility(section, errors):
    values = _read_values(section, "mobility", errors)
    if values is None:
        return None
    msgs = MobilitySpec.check(values["kind"], values["coefficients"])
    if msgs:
        errors.extend(f"mobility: {m}" for m in msgs)
        return None
    return MobilitySpec(**values)


def _parse_params(section, mobility, errors):
    values = _read_values(section, "params", errors)
    if values is None:
        return None
    korteweg = {attr.split(".")[1]: values.pop(attr) for attr in list(values) if "." in attr}
    try:
        kt = KortewegParams(**korteweg)
    except ValueError as exc:
        errors.append(f"params: {exc}")
        return None
    try:
        # Probe with a placeholder mobility so range errors surface even
        # when the mobility section is itself broken.
        params = PhysicalParams(**values, korteweg=kt,
                                mobility=mobility or MobilitySpec.constant(1.0))
    except ValueError as exc:
        errors.append(f"params: {exc}")
        return None
    return params if mobility is not None else None


def _check_file(entry, sec_name, base_dir, errors):
    """Report a non-string or missing file entry (an absolute path stays as is)."""
    if not isinstance(entry["file"], str):
        errors.append(f"{sec_name}.file: expected a string")
    elif not (base_dir / entry["file"]).exists():
        errors.append(f"{sec_name}.file: {entry['file']} does not exist")


def _parse_forcing(section, base_dir, errors):
    _check_unknown(section, "forcing", _KEYS["forcing"], errors)
    if ("preset" in section) == ("file" in section):
        errors.append("forcing: give exactly one of 'preset' or 'file'")
        return {}
    if "file" in section:
        _check_file(section, "forcing", base_dir, errors)
        return {"file": section["file"]}
    name = section["preset"]
    if name not in list(FORCING_PRESETS):  # a list, as YAML may give an unhashable name
        errors.append(
            f"forcing.preset: unknown preset {name!r}; available: {sorted(FORCING_PRESETS)}"
        )
    return {"preset": name}


def _parse_initial(section, base_dir, errors):
    _check_unknown(section, "initial", _KEYS["initial"], errors)
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
            _check_file(entry, f"initial.{key}", base_dir, errors)
        else:
            entry = _parse_preset_keys(entry, f"initial.{key}", presets[entry["preset"]], errors)
        out[key] = dict(entry)
    return out


def _parse_preset_keys(entry, sec_name, defaults, errors):
    """The entry with its numeric keys and [j, k, amplitude] mode triples parsed."""
    out = dict(entry)
    for key in (k for k in defaults if k in entry):
        if key != "modes":
            out[key] = _get_number(entry[key], f"{sec_name}.{key}", errors,
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
    return [_get_number(val, f"{sec_name}.{key}", errors, integer=key != "amplitude")
            for key, val in zip(("j", "k", "amplitude"), item)]


def _parse_solver(section, errors):
    values = _read_values(section, "solver", errors)
    if values is None:
        return None
    cfg = SolverConfig(**values)
    for msg in cfg.validation_errors():
        errors.append(f"solver: {msg}")
    return cfg


def _parse_outputs(section, errors):
    values = _read_values(section, "outputs", errors)
    if values is None:
        return None
    if values.get("snapshot_cadence", 0.0) < 0:
        errors.append("outputs.snapshot_cadence: expected a number >= 0")
    return OutputSpec(**values)


# ---------------------------------------------------------------------------
# initial-condition builders
# ---------------------------------------------------------------------------


def _load_coeffs(path: Path, key: str, array: str, name: str, n: int) -> np.ndarray:
    """The (n, n) coefficient array of an initial.<key> file entry."""
    with np.load(path) as data:
        if array not in data.files:
            raise ConfigError([f"initial.{key}.file: {path} has no '{array}' array"])
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


def _build_scalar_initial(domain: Domain, entry: dict, base_dir: Path) -> ScalarField:
    if "file" in entry:
        coeffs = _load_coeffs(base_dir / entry["file"], "C", "beta", "Ns", domain.spec.Ns)
        return ScalarField(domain, coeffs)
    offset, modes = _preset_modes(entry, _SCALAR_PRESETS)
    try:
        return cosine_field(domain, modes, offset)
    except ValueError as exc:
        raise ConfigError([f"initial.C: {exc}"])


def _build_velocity_initial(domain: Domain, entry: dict, base_dir: Path) -> VelocityField:
    if "file" in entry:
        coeffs = _load_coeffs(base_dir / entry["file"], "u", "alpha", "Nv", domain.spec.Nv)
        return VelocityField(domain, coeffs)
    _, modes = _preset_modes(entry, _VELOCITY_PRESETS)
    try:
        return stream_field(domain, modes)
    except ValueError as exc:
        raise ConfigError([f"initial.u: {exc}"])

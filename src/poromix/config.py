"""
Run configuration: a YAML document with nested key/value sections.

Sections and keys, each declared once in `_KEYS`, which the parsers and
`to_dict` both read:

    domain:   Lx, Ly, Ns, Nv
    params:   mu_e, d; optional kappa, delta_hat, gamma, M_GN
    mobility: kind, coefficients
    forcing:  preset OR file
    initial:  C: {preset: ..., ...} or {file: ...}; u: likewise
    solver:   T_run; optional rtol, atol, blowup_cap
    outputs:  optional ledger_path, snapshot_cadence, snapshot_dir

The quadrature size M is not a key: a run takes the smallest certified
Gauss-Legendre grid for its Ns and Nv, or a forcing table's own grid.
Nor is the first step: every run estimates it from the tolerances.

Validation collects every problem with its field path before failing, so
a broken file reports all defects at once.  Each section's spec checks its
own values when it is constructed; the parser lists each of its defects
under the section's name.  parse -> serialize -> parse is
semantically idempotent.
"""

from __future__ import annotations

import math
from operator import attrgetter
from pathlib import Path

import yaml

from ._record import Record
from .domain import Domain, DomainSpec, SpecError, build_domain
from .fields import ScalarField, VelocityField, cosine_field, mode_range_errors, stream_field
from .forcing import FORCING_PRESETS, ForcingSpec
from .korteweg import KortewegParams
from .mobility import MobilitySpec
from .runio import read_npz
from .solver import PhysicalParams, SolverConfig

__all__ = ["ConfigError", "RunConfig", "OutputSpec"]


class _BeyondFloat(float):
    """inf standing for a decimal YAML integer longer than int() reads (4300 digits)."""

    def __repr__(self):
        return "an integer beyond float range"


class _Loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """Safe loader that leaves a scalar its tag's constructor refuses to the field's check.

    It parses with libyaml's C parser when PyYAML was built with it, and
    with PyYAML's pure-Python parser otherwise; both build the same nodes,
    which the same safe constructors read.

    A plain decimal integer fails int() only by its length (over 4300
    digits) and reads as `_BeyondFloat`.  Any other refused int, float, bool
    or timestamp scalar (`!!int abc`, `!!float abc`, `!!bool abc`) stays its
    raw string.  Either way its field names it as one defect among the others.
    """


def _refused_as_raw(tag):
    construct = yaml.SafeLoader.yaml_constructors[tag]

    def construct_or_raw(loader, node):
        try:
            return construct(loader, node)
        except (ValueError, KeyError, TypeError, AttributeError):
            if tag.endswith(":int") and node.value.lstrip("+-").replace("_", "").isdecimal():
                return _BeyondFloat("inf")
            return node.value

    _Loader.add_constructor(tag, construct_or_raw)


for _kind in ("int", "float", "bool", "timestamp"):
    _refused_as_raw(f"tag:yaml.org,2002:{_kind}")


class ConfigError(ValueError):
    """Carries the full list of field-precise validation failures."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("\n".join(self.errors))


# Every section's keys.  A value key maps to (kind, required, attribute): the
# parsers read it as that kind (float, int, str, or tuple for a non-empty
# list of numbers), an omitted optional key takes its field's default, and
# `to_dict` echoes the attribute, dotted for a nested one, of the parsed
# object.  The forcing and initial entries are validated by their own
# parsers and echoed as given.
_KEYS = {
    "domain": {"Lx": (float, True, "Lx"), "Ly": (float, True, "Ly"), "Ns": (int, True, "Ns"),
               "Nv": (int, True, "Nv")},
    "params": {"mu_e": (float, True, "mu_e"), "d": (float, True, "d"),
               "kappa": (float, False, "kappa"),
               "delta_hat": (float, False, "korteweg.delta_hat"),
               "gamma": (float, False, "korteweg.gamma"), "M_GN": (float, False, "m_gn")},
    "mobility": {"kind": (str, True, "kind"), "coefficients": (tuple, True, "coefficients")},
    "forcing": ("preset", "file"),
    "initial": ("C", "u"),
    "solver": {"T_run": (float, True, "T_run"), "rtol": (float, False, "rtol"),
               "atol": (float, False, "atol"), "blowup_cap": (float, False, "blowup_cap")},
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


class OutputSpec(Record):
    ledger_path: str = "ledger.csv"
    snapshot_cadence: float = 0.0  # time interval between snapshots; 0 disables
    snapshot_dir: str = "snapshots"

    def __post_init__(self):
        if not (math.isfinite(self.snapshot_cadence) and self.snapshot_cadence >= 0):
            raise SpecError(f"snapshot_cadence must be finite and >= 0, "
                            f"got {self.snapshot_cadence!r}")


class RunConfig(Record):
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
            raw = yaml.load(text, Loader=_Loader)
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

        domain = _build(DomainSpec, "domain", _read_values(raw, "domain", errors), errors)
        mobility = _build(MobilitySpec, "mobility", _read_values(raw, "mobility", errors), errors)
        params = _parse_params(raw, mobility, errors)
        forcing_raw = _parse_forcing(raw["forcing"], base_dir, errors)
        initial = _parse_initial(raw["initial"], domain, base_dir, errors)
        solver = _build(SolverConfig, "solver", _read_values(raw, "solver", errors), errors)
        outputs = _build(OutputSpec, "outputs", _read_values(raw, "outputs", errors), errors)

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
        """The run's domain.  A forcing table's grid, the last dimension of
        its fx, sets M; a grid the spec's threshold or the certificate
        rejects is a `forcing.file` error."""
        if "file" not in self.forcing_raw:
            return build_domain(self.domain)
        return _file_entry("forcing.file", _table_domain, self.domain,
                           self.base_dir / self.forcing_raw["file"])

    def build_forcing(self, domain: Domain) -> ForcingSpec:
        if "file" in self.forcing_raw:
            return _file_entry("forcing.file", ForcingSpec.tabulated,
                               self.base_dir / self.forcing_raw["file"], domain.grid.M)
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


def _echo(obj, sec_name) -> dict:
    """The section's keys with the values they parsed to."""
    out = {}
    for key, (kind, _, attr) in _KEYS[sec_name].items():
        value = attrgetter(attr)(obj)
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
    try:
        as_float = float(val)
    except OverflowError:  # a YAML integer beyond float range
        errors.append(f"{path}: must be finite, got an integer beyond float range")
        return None
    if not math.isfinite(as_float):
        errors.append(f"{path}: must be finite, got {val!r}")
        return None
    if integer and not as_float.is_integer():
        errors.append(f"{path}: expected an integer, got {val!r}")
        return None
    return int(val) if integer else as_float


def _check_unknown(section, sec_name, known, errors):
    for key in sorted(set(section) - set(known)):
        errors.append(f"{sec_name}.{key}: unknown key")


def _read_values(raw, sec_name, errors):
    """{attribute: value} of section `sec_name`'s keys, or None if any key is bad."""
    section, keys = raw[sec_name], _KEYS[sec_name]
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


def _build(cls, sec_name, values, errors):
    """cls(**values), or None with each defect listed under `sec_name`, one
    per line; None values (a key that failed to parse) build nothing."""
    if values is None:
        return None
    try:
        return cls(**values)
    except SpecError as exc:
        errors.extend(f"{sec_name}: {msg}" for msg in exc.errors)
        return None


def _parse_params(raw, mobility, errors):
    values = _read_values(raw, "params", errors)
    if values is None:
        return None
    korteweg = {attr.split(".")[1]: values.pop(attr) for attr in list(values) if "." in attr}
    korteweg = _build(KortewegParams, "params", korteweg, errors)
    # Placeholders stand in for a broken Korteweg part or mobility section,
    # so that every range error in params is listed too.
    params = _build(PhysicalParams, "params",
                    dict(values, korteweg=korteweg or KortewegParams(),
                         mobility=mobility or MobilitySpec.constant(1.0)), errors)
    return params if korteweg and mobility else None


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


def _parse_initial(section, domain, base_dir, errors):
    """The initial entries; a preset's modes are checked against `domain`'s
    bases (skipped when the domain section is itself broken)."""
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
            _check_unknown(entry, f"initial.{key}", ("file",), errors)
            _check_file(entry, f"initial.{key}", base_dir, errors)
        else:
            defaults = presets[entry["preset"]]
            _check_unknown(entry, f"initial.{key}", ("preset", *defaults), errors)
            n_errors = len(errors)
            entry = _parse_preset_keys(entry, f"initial.{key}", defaults, errors)
            if domain is not None and len(errors) == n_errors:
                _, modes = _preset_modes(entry, presets)
                size = {"Ns": domain.Ns} if key == "C" else {"Nv": domain.Nv}
                errors.extend(f"initial.{key}: {m}" for m in mode_range_errors(modes, **size))
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


# ---------------------------------------------------------------------------
# initial-condition builders
# ---------------------------------------------------------------------------


def _file_entry(field: str, build, *args):
    """build(*args), with a ValueError it raises reported as one ConfigError line on `field`."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ConfigError([f"{field}: {exc}"]) from None


def _table_domain(spec: DomainSpec, path: Path) -> Domain:
    """The domain of `spec` on the grid of the forcing table at `path`."""
    fx = read_npz(path, ("t", "fx", "fy"))["fx"]
    return build_domain(DomainSpec(spec.Lx, spec.Ly, spec.Ns, spec.Nv,
                                   fx.shape[-1] if fx.ndim == 3 else None))


def _load_field(kind, domain: Domain, path: Path, array: str, size: str):
    """kind(domain, coeffs) for the (n, n) array `array` at `path`, n = domain.spec.<size>."""
    coeffs = read_npz(path, (array,))[array]
    n = getattr(domain.spec, size)
    if coeffs.shape != (n, n):
        raise ValueError(f"{array} shape {coeffs.shape} does not match {size}={n}")
    return kind(domain, coeffs)


def _preset_modes(entry: dict, presets: dict):
    """(offset, [(j, k, amplitude), ...]) of a validated preset entry."""
    v = {key: entry.get(key, default) for key, default in presets[entry["preset"]].items()}
    modes = [(v["jx"], v["ky"], v["amplitude"])] if "jx" in v else v.get("modes", [])
    return v.get("offset", v.get("value", 0.0)), modes


def _build_scalar_initial(domain: Domain, entry: dict, base_dir: Path) -> ScalarField:
    if "file" in entry:
        return _file_entry("initial.C.file", _load_field, ScalarField, domain,
                           base_dir / entry["file"], "beta", "Ns")
    offset, modes = _preset_modes(entry, _SCALAR_PRESETS)
    return cosine_field(domain, modes, offset)


def _build_velocity_initial(domain: Domain, entry: dict, base_dir: Path) -> VelocityField:
    if "file" in entry:
        return _file_entry("initial.u.file", _load_field, VelocityField, domain,
                           base_dir / entry["file"], "alpha", "Nv")
    _, modes = _preset_modes(entry, _VELOCITY_PRESETS)
    return stream_field(domain, modes)

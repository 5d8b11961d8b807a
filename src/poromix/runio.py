"""
On-disk formats: field snapshots, the run metadata document, .npz inputs.

A snapshot file is one JSON header line (domain, resolution, time, field
name, layout and dtype) followed by the raw row-major IEEE-754
little-endian float64 nodal values, length M*M; the reader takes no other
layout or dtype.  The ledger CSV format lives with EnergyLedger.
"""

from __future__ import annotations

import json
import math
import zipfile
import zlib
from pathlib import Path

import numpy as np

from .domain import Domain

__all__ = ["write_snapshot", "read_snapshot", "write_metadata", "read_npz"]

# The run metadata document's file name in a run's output directory.
METADATA_FILE = "metadata.json"

# The payload's layout and dtype, as every snapshot header states them.
_SNAPSHOT_FORMAT = {"layout": "row-major x-major", "dtype": "<f8"}


def read_npz(path, names) -> dict:
    """The arrays `names` of the .npz archive at `path`, as floats, by name.

    A ValueError names a file that is no readable .npz archive of numeric
    arrays (truncated or corrupt, a bare .npy array, text) or lacks one.
    """
    try:
        # np.load leaves a file it opened itself open when it raises.
        with open(path, "rb") as fh:
            data = np.load(fh)
            if not isinstance(data, np.lib.npyio.NpzFile):  # a bare .npy array
                raise ValueError
            missing = sorted(set(names) - set(data.files))
            arrays = {} if missing else {n: np.asarray(data[n], dtype=float) for n in names}
    except (ValueError, EOFError, zipfile.BadZipFile, zlib.error):
        raise ValueError(f"{path} is not a readable .npz archive of numeric arrays") from None
    if missing:
        raise ValueError(f"{path} is missing arrays {missing}")
    return arrays


def write_snapshot(path, field_name: str, t: float, domain: Domain, values: np.ndarray):
    """Write one scalar grid field; values must be (M, M)."""
    M = domain.grid.M
    v = np.ascontiguousarray(np.asarray(values, dtype=_SNAPSHOT_FORMAT["dtype"]))
    if v.shape != (M, M):
        raise ValueError(f"snapshot values must be ({M}, {M}), got {v.shape}")
    header = {
        "field": field_name,
        "t": float(t),
        "Lx": domain.spec.Lx,
        "Ly": domain.spec.Ly,
        "M": M,
        **_SNAPSHOT_FORMAT,
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8") + b"\n")
        fh.write(v.tobytes(order="C"))


def read_snapshot(path):
    """Read a snapshot back; returns (header dict, (M, M) array).  A ValueError
    names the file and its header's or payload's defect."""
    with open(path, "rb") as fh:
        line, payload = fh.readline(), fh.read()
    try:
        header = json.loads(line)
    except ValueError:  # not UTF-8 or not JSON
        header = None
    M = header.get("M") if isinstance(header, dict) else None
    if type(M) is not int or M < 1:
        defect = ("is not a JSON object" if not isinstance(header, dict) else
                  "has no M" if "M" not in header else f"M={M!r} is no integer >= 1")
        raise ValueError(f"{path}: snapshot header {defect}")
    for key, expected in _SNAPSHOT_FORMAT.items():
        if header.get(key) != expected:
            defect = (f"has no {key}" if key not in header else
                      f"{key}={header[key]!r} is not {expected!r}")
            raise ValueError(f"{path}: snapshot header {defect}")
    if len(payload) != 8 * M * M:
        raise ValueError(f"{path}: snapshot payload has {len(payload) / 8:.15g} values, "
                         f"expected {M * M}")
    return header, np.frombuffer(payload, dtype=_SNAPSHOT_FORMAT["dtype"]).reshape(M, M).copy()


def _jsonable(value):
    if isinstance(value, float) and math.isinf(value):
        return "unbounded"
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def write_metadata(path, document: dict):
    """Serialize the run metadata (outcome, timings, horizon report, echo)."""
    Path(path).write_text(json.dumps(_jsonable(document), indent=2, sort_keys=True) + "\n")

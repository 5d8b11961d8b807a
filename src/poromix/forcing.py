"""
External body-force specifications for the momentum equation.

A forcing is either a named analytic preset, a tabulated grid sequence with
linear interpolation in time, or (programmatically) an arbitrary callable
t -> (fx, fy) nodal arrays.  All realizations must stay square-integrable
over the run horizon; evaluation rejects non-finite values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import Domain

__all__ = ["ForcingSpec", "FORCING_PRESETS"]


# Each preset is (domain, t, out) -> (fx, fy); `out` is a pair of (M, M)
# arrays that receive the values, or (None, None) for new ones.


def _zero(domain: Domain, t: float, out=(None, None)):
    M = domain.grid.M
    fx, fy = (np.empty((M, M)) if o is None else o for o in out)
    fx.fill(0.0)
    fy.fill(0.0)
    return fx, fy


def _scaled_lowest_mode(amp, domain: Domain, out):
    # A scalar times a grid array: unlike np.outer with out=, this ufunc
    # needs no iteration buffers.
    return tuple(np.multiply(amp, f, out=o)
                 for f, o in zip(domain.grid.lowest_stream_velocity, out))


def _steady_stream(domain: Domain, t: float, out=(None, None)):
    """Steady body force shaped like the lowest basis velocity."""
    return _scaled_lowest_mode(1.0, domain, out)


def _pulsed_stream(domain: Domain, t: float, out=(None, None)):
    """Lowest-mode body force with a smooth pulse in time."""
    return _scaled_lowest_mode(np.sin(2.0 * np.pi * t) * np.exp(-t), domain, out)


FORCING_PRESETS = {
    "zero": _zero,
    "steady_stream": _steady_stream,
    "pulsed_stream": _pulsed_stream,
}


@dataclass(frozen=True, eq=False)
class ForcingSpec:
    """Time-dependent vector forcing f(x, y, t) on the quadrature grid."""

    kind: str  # "preset" | "tabulated" | "callable"
    name: str | None = None
    times: np.ndarray | None = None
    fx_table: np.ndarray | None = None  # (K, M, M)
    fy_table: np.ndarray | None = None
    func: object | None = None

    @staticmethod
    def zero() -> "ForcingSpec":
        return ForcingSpec(kind="preset", name="zero")

    @staticmethod
    def preset(name: str) -> "ForcingSpec":
        if name not in FORCING_PRESETS:
            raise ValueError(
                f"unknown forcing preset {name!r}; available: {sorted(FORCING_PRESETS)}"
            )
        return ForcingSpec(kind="preset", name=name)

    @staticmethod
    def tabulated(path) -> "ForcingSpec":
        """Load a .npz table with arrays t (K,), fx (K, M, M), fy (K, M, M)."""
        with np.load(path) as data:
            missing = {"t", "fx", "fy"} - set(data.files)
            if missing:
                raise ValueError(f"tabulated forcing {path} is missing arrays {sorted(missing)}")
            times = np.asarray(data["t"], dtype=float)
            fx = np.asarray(data["fx"], dtype=float)
            fy = np.asarray(data["fy"], dtype=float)
        if times.ndim != 1 or times.size < 1:
            raise ValueError("tabulated forcing needs at least one time sample")
        if np.any(np.diff(times) <= 0):
            raise ValueError("tabulated forcing times must be strictly increasing")
        if fx.shape != (times.size,) + fx.shape[1:] or fx.shape != fy.shape or fx.ndim != 3:
            raise ValueError("tabulated forcing arrays must be (K, M, M) and congruent")
        if not (np.all(np.isfinite(fx)) and np.all(np.isfinite(fy))):
            raise ValueError("tabulated forcing contains non-finite values")
        return ForcingSpec(kind="tabulated", times=times, fx_table=fx, fy_table=fy)

    @staticmethod
    def from_function(func) -> "ForcingSpec":
        """Wrap a callable (domain, t) -> (fx, fy) nodal arrays."""
        return ForcingSpec(kind="callable", func=func)

    @property
    def is_zero(self) -> bool:
        return self.kind == "preset" and self.name == "zero"

    def evaluate(self, domain: Domain, t: float, out=None):
        """Nodal (fx, fy) at time t on the domain's grid.

        `out`, a pair of (M, M) arrays, receives the values of a preset or
        of an interpolation inside a table's window and is returned; left as
        None, those values come in new arrays.  A table clamped at either
        end returns its own row, and a callable its own arrays, so callers
        read the returned pair and never write into it.
        """
        out = (None, None) if out is None else out
        if self.kind == "preset":
            fx, fy = FORCING_PRESETS[self.name](domain, t, out)
        elif self.kind == "tabulated":
            M = domain.grid.M
            if self.fx_table.shape[1:] != (M, M):
                raise ValueError(
                    f"tabulated forcing grid {self.fx_table.shape[1:]} does not match M={M}"
                )
            # Clamp outside the tabulated window (the table's own rows),
            # interpolate linearly inside.
            k = np.searchsorted(self.times, t)
            if k == 0:
                fx, fy = self.fx_table[0], self.fy_table[0]
            elif k >= self.times.size:
                fx, fy = self.fx_table[-1], self.fy_table[-1]
            else:
                t0, t1 = self.times[k - 1], self.times[k]
                s = (t - t0) / (t1 - t0)
                fx, fy = (np.add(np.multiply(1 - s, table[k - 1], out=o), s * table[k], out=o)
                          for o, table in zip(out, (self.fx_table, self.fy_table)))
        else:
            fx, fy = self.func(domain, t)
        if not (np.isfinite(fx).all() and np.isfinite(fy).all()):
            raise ValueError(f"forcing evaluated to non-finite values at t={t}")
        return fx, fy

"""
External body-force specifications for the momentum equation.

A forcing is one function of (domain, t) to nodal (fx, fy) arrays: a named
analytic preset, a tabulated grid sequence with linear interpolation in
time, or (programmatically) an arbitrary callable.  All realizations must
stay square-integrable over the run horizon; evaluation rejects non-finite
values.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np

from .domain import Domain
from .runio import read_npz

__all__ = ["ForcingSpec", "FORCING_PRESETS"]


# Each preset is a ForcingSpec.func: (domain, t, out) -> (fx, fy).
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


def _interpolate(times, fx_table, fy_table, domain: Domain, t: float, out):
    """(fx, fy) of a table at t: an end row outside its window, else interpolated into `out`."""
    k = np.searchsorted(times, t)
    if k == 0:
        return fx_table[0], fy_table[0]
    if k >= times.size:
        return fx_table[-1], fy_table[-1]
    t0, t1 = times[k - 1], times[k]
    s = (t - t0) / (t1 - t0)
    return tuple(np.add(np.multiply(1 - s, table[k - 1], out=o), s * table[k], out=o)
                 for o, table in zip(out, (fx_table, fy_table)))


@dataclass(frozen=True, eq=False)
class ForcingSpec:
    """Time-dependent vector forcing f(x, y, t) on the quadrature grid.

    `func(domain, t, out) -> (fx, fy)` gives the nodal values; `out` is a
    pair of (M, M) arrays that may receive them, or (None, None).
    """

    func: Callable

    @staticmethod
    def preset(name: str) -> "ForcingSpec":
        if name not in FORCING_PRESETS:
            raise ValueError(
                f"unknown forcing preset {name!r}; available: {sorted(FORCING_PRESETS)}"
            )
        return ForcingSpec(FORCING_PRESETS[name])

    @staticmethod
    def tabulated(path, M: int) -> "ForcingSpec":
        """Load a .npz table with arrays t (K,), fx (K, M, M), fy (K, M, M) for an M-point grid."""
        times, fx, fy = read_npz(path, ("t", "fx", "fy")).values()
        if times.ndim != 1 or times.size < 1:
            raise ValueError("tabulated forcing needs at least one time sample")
        if not (np.isfinite(times).all() and np.all(np.diff(times) > 0)):
            raise ValueError("tabulated forcing times must be finite and strictly increasing")
        if fx.shape != (times.size,) + fx.shape[1:] or fx.shape != fy.shape or fx.ndim != 3:
            raise ValueError("tabulated forcing arrays must be (K, M, M) and congruent")
        if fx.shape[1:] != (M, M):
            raise ValueError(f"tabulated forcing grid {fx.shape[1:]} does not match M={M}")
        if not (np.all(np.isfinite(fx)) and np.all(np.isfinite(fy))):
            raise ValueError("tabulated forcing contains non-finite values")
        return ForcingSpec(partial(_interpolate, times, fx, fy))

    @staticmethod
    def from_function(func) -> "ForcingSpec":
        """Wrap a callable (domain, t) -> (fx, fy) nodal arrays."""
        return ForcingSpec(lambda domain, t, out: func(domain, t))

    @property
    def is_zero(self) -> bool:
        return self.func is _zero

    def evaluate(self, domain: Domain, t: float, out=None):
        """Nodal (fx, fy) at time t on the domain's grid.

        `out`, a pair of (M, M) arrays, receives the values of a preset or
        of an interpolation inside a table's window and is returned; left as
        None, those values come in new arrays.  A table clamped at either
        end returns its own row, and a callable its own arrays, so callers
        read the returned pair and never write into it.
        """
        fx, fy = self.func(domain, t, (None, None) if out is None else out)
        if not (np.isfinite(fx).all() and np.isfinite(fy).all()):
            raise ValueError(f"forcing evaluated to non-finite values at t={t}")
        return fx, fy

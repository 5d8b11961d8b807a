"""
External body-force specifications for the momentum equation.

A forcing is one function of (domain, t) to nodal (fx, fy) arrays: a named
analytic preset, a tabulated grid sequence with linear interpolation in
time, or (programmatically) an arbitrary callable.  The right-hand side
needs only its pairing against the velocity basis and int |f|^2: a preset
is a multiple of the lowest basis velocity and gives both from the Gram
matrix, while a table or callable pairs its nodal values on the
Gauss-Legendre grid.  All realizations must stay square-integrable over the
run horizon; evaluation rejects non-finite values.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np

from .domain import Domain
from .runio import read_npz

__all__ = ["ForcingSpec", "FORCING_PRESETS"]


# Each preset is amp(t) w[1,1], the lowest basis velocity: name -> amp.
FORCING_PRESETS = {
    "zero": lambda t: 0.0,
    "steady_stream": lambda t: 1.0,
    "pulsed_stream": lambda t: np.sin(2.0 * np.pi * t) * np.exp(-t),
}


def _scaled_lowest_mode(amplitude, domain: Domain, t: float, out):
    # A scalar times a grid array: unlike np.outer with out=, this ufunc
    # needs no iteration buffers.
    return tuple(np.multiply(amplitude(t), f, out=o)
                 for f, o in zip(domain.grid.lowest_stream_velocity, out))


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
    pair of (M, M) arrays that may receive them, or (None, None).  A preset
    also keeps its `amplitude`, t -> amp with f = amp w[1,1].
    """

    func: Callable
    amplitude: Callable | None = None

    @staticmethod
    def preset(name: str) -> "ForcingSpec":
        if name not in FORCING_PRESETS:
            raise ValueError(
                f"unknown forcing preset {name!r}; available: {sorted(FORCING_PRESETS)}"
            )
        amplitude = FORCING_PRESETS[name]
        return ForcingSpec(partial(_scaled_lowest_mode, amplitude), amplitude)

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

    def pairing(self, domain: Domain, t: float, *, work=(None, None, None, None)):
        """((f, w_q) for every velocity mode q, flattened (Nv^2,), and int |f|^2) at t.

        A preset f = amp w[1,1] pairs in coefficient space, exactly:
        amp G[:, 0] and amp^2 G[0, 0].  A table or callable pairs its nodal
        values on the Gauss-Legendre grid; `work`, four (M, M) arrays or
        Nones, receives those values, a temporary and the pairing's scratch.
        """
        if self.amplitude is not None:
            amp = self.amplitude(t)
            gram = domain.velocity.gram
            return amp * gram[:, 0], float(amp * amp * gram[0, 0])
        out_x, out_y, tmp, scratch = work
        fx, fy = self.evaluate(domain, t, out=(out_x, out_y))
        pair = domain.velocity_pairing(fx, fy, scratch=scratch).reshape(-1)
        f_sq = domain.grid.integrate(np.add(np.square(fx, out=tmp), np.square(fy, out=scratch),
                                            out=tmp))
        return pair, f_sq

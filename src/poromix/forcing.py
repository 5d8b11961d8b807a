"""
External body-force specifications for the momentum equation.

The right-hand side uses a forcing only through `ForcingSpec.pairing`: its
pairing against the velocity basis and int |f|^2 at t.  A named preset, a
multiple of the lowest basis velocity, pairs from the Gram matrix; a
tabulated grid sequence, linear in time, and an arbitrary callable pair
their nodal values on the Gauss-Legendre grid at every call.  Nodal values
stay available for pressure recovery.  Evaluation rejects non-finite values.

No body force is None, not a spec: the solver and pressure recovery then
pair and add nothing, and `RunConfig.build_forcing` gives None for the
`zero` preset.  A callable must be a function of (domain, t) alone: the
solver evaluates its pairing once per stage time and reuses that value.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import partial

import numpy as np

from ._record import Record
from .domain import Domain

__all__ = ["ForcingSpec", "FORCING_PRESETS"]


# Each preset is amp(t) w[1,1], the lowest basis velocity: name -> amp.
FORCING_PRESETS = {
    "zero": lambda t: 0.0,
    "steady_stream": lambda t: 1.0,
    "pulsed_stream": lambda t: np.sin(2.0 * np.pi * t) * np.exp(-t),
}


def _preset_values(amplitude, domain: Domain, t: float):
    """Nodal amp(t) w[1,1]: amp times the outer products of the first factors."""
    g = domain.grid
    amp = amplitude(t)
    return amp * np.outer(g.phx[:, 0], g.phyd[:, 0]), amp * -np.outer(g.phxd[:, 0], g.phy[:, 0])


def _preset_pairing(amplitude, domain: Domain, t: float):
    """amp G[:, 0] and amp^2 G[0, 0]: the pairing and int |f|^2 of amp(t) w[1,1], exactly."""
    amp = amplitude(t)
    gram = domain.velocity.gram
    return amp * gram[:, 0], float(amp * amp * gram[0, 0])


def _interpolate(times, fx_table, fy_table, domain: Domain, t: float):
    """(fx, fy) of a table at t: an end row outside its window, else (1-s) T_k + s T_{k+1}."""
    k = np.searchsorted(times, t)
    if k == 0:
        return fx_table[0], fy_table[0]
    if k >= times.size:
        return fx_table[-1], fy_table[-1]
    s = (t - times[k - 1]) / (times[k] - times[k - 1])
    return tuple((1 - s) * table[k - 1] + s * table[k] for table in (fx_table, fy_table))


class ForcingSpec(Record, eq=False):
    """Time-dependent vector forcing f(x, y, t).

    `nodal(domain, t) -> (fx, fy)` gives its values on the Gauss-Legendre
    grid, and `paired(domain, t) -> (pairing, int |f|^2)`, when set, its
    pairing without them; a forcing without one pairs its nodal values.
    """

    nodal: Callable
    paired: Callable | None = None

    @staticmethod
    def preset(name: str) -> "ForcingSpec":
        if name not in FORCING_PRESETS:
            raise ValueError(f"unknown forcing preset {name!r}; "
                             f"available: {sorted(FORCING_PRESETS)}")
        amplitude = FORCING_PRESETS[name]
        return ForcingSpec(partial(_preset_values, amplitude), partial(_preset_pairing, amplitude))

    @staticmethod
    def tabulated(path, M: int) -> "ForcingSpec":
        """Load a .npz table with arrays t (K,), fx (K, M, M), fy (K, M, M) for an M-point grid."""
        from .runio import read_npz  # here, so that `import poromix` loads no json
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

    def evaluate(self, domain: Domain, t: float):
        """Nodal (fx, fy) at time t on the domain's grid.

        A table at either end returns its own row, and a callable its own
        arrays, so callers read the returned pair and never write into it.
        """
        fx, fy = self.nodal(domain, t)
        if not (np.isfinite(fx).all() and np.isfinite(fy).all()):
            raise ValueError(f"forcing evaluated to non-finite values at t={t}")
        return fx, fy

    def pairing(self, domain: Domain, t: float):
        """((f, w_q) for every velocity mode q, flattened (Nv^2,), and int |f|^2) at t.

        A preset gives both without nodal values; a table's or callable's
        nodal values are paired on the Gauss-Legendre grid.
        """
        if self.paired is not None:
            return self.paired(domain, t)
        fx, fy = self.evaluate(domain, t)
        pair = domain.velocity_pairing(fx, fy).reshape(-1)
        return pair, domain.grid.integrate(np.square(fx) + np.square(fy))

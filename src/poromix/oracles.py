"""
Closed-form and manufactured references used by tests and verification.

The logistic formula is the exact uniform-state solution of the transport
equation (advection and diffusion drop out for spatially constant C), and
blows up in finite time for uniform initial values above 1.  Modal
diffusion factors are the exact decay of individual cosine modes.  The
manufactured cases prescribe smooth exact fields together with the body
force and transport source that make them solve the full nonlinear
system, for convergence verification.  The transport source exists only in
verification runs; production configurations cannot enable it.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .domain import Domain
from .fields import ScalarField, VelocityField, cosine_field, stream_field
from .forcing import ForcingSpec
from .korteweg import tensor_divergence
from .mobility import evaluate as mobility_values

__all__ = [
    "LogisticBlowup",
    "logistic_solution",
    "logistic_blowup_time",
    "modal_diffusion_factor",
    "ManufacturedCase",
    "manufactured_run",
    "MANUFACTURED_PRESETS",
]


@dataclass(frozen=True)
class LogisticBlowup:
    """Explicit blow-up marker: the solution has left existence by `time`."""

    time: float


def logistic_blowup_time(c0: float, kappa: float) -> float:
    """Blow-up instant ln(c0 / (c0 - 1)) / kappa of a uniform state c0 > 1."""
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    if c0 <= 1.0:
        raise ValueError(f"uniform states with c0 <= 1 do not blow up, got {c0}")
    return math.log(c0 / (c0 - 1.0)) / kappa


def logistic_solution(c0: float, kappa: float, t: float):
    """Uniform-state solution c0 / (c0 - (c0 - 1) e^(kappa t)).

    For c0 > 1 and t at or beyond the blow-up instant the result is a
    LogisticBlowup marker rather than a number.
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    if c0 > 1.0:
        t_star = logistic_blowup_time(c0, kappa)
        if t >= t_star:
            return LogisticBlowup(t_star)
    return c0 / (c0 - (c0 - 1.0) * math.exp(kappa * t))


def modal_diffusion_factor(mode, d: float, t: float, Lx: float, Ly: float) -> float:
    """Exact amplitude factor exp(-d lam t) of cosine mode (j, k)."""
    j, k = mode
    if j < 0 or k < 0:
        raise ValueError(f"invalid mode {mode!r}")
    lam = (j * np.pi / Lx) ** 2 + (k * np.pi / Ly) ** 2
    return math.exp(-d * lam * t)


# ---------------------------------------------------------------------------
# Manufactured solutions
# ---------------------------------------------------------------------------


def _cos_mode(domain: Domain, a: int, b: int):
    """Factors of the raw cosine product cos(ax x) cos(by y) at the nodes.

    Returns (ax, by, cos(ax x), sin(ax x), cos(by y), sin(by y)) with
    ax = a pi/Lx, by = b pi/Ly, the x factors as a column and the y factors
    as a row.  Each caller forms its own products of them, whose order
    fixes the rounding the manufactured runs see.
    """
    g = domain.grid
    ax = a * np.pi / domain.spec.Lx
    by = b * np.pi / domain.spec.Ly
    return (ax, by, np.cos(ax * g.x)[:, None], np.sin(ax * g.x)[:, None],
            np.cos(by * g.y)[None, :], np.sin(by * g.y)[None, :])


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


class _PerDomain:
    """Values built once per domain and kept while that domain lives."""

    def __init__(self, build):
        self._build = build
        self.entries = weakref.WeakKeyDictionary()

    def __call__(self, domain: Domain):
        value = self.entries.get(domain)
        if value is None:
            value = self.entries[domain] = self._build(domain)
        return value


@dataclass(frozen=True, eq=False)
class ManufacturedCase:
    """Exact fields plus the forcings that make them solve the system.

    The closures returned by `momentum_forcing` and `transport_source`
    form the nodal factor grids that no time changes (the products of each
    mode's `_cos_mode` factors and the `_stream_mode` grids) once per
    domain they are evaluated on.  Each closure keeps its own, read-only,
    while both the closure and that domain live; each evaluation only
    scales and sums them, in the order the grid methods below use.
    """

    name: str
    scalar_modes: tuple  # ((a, b, amplitude_fn), ...) raw cosine products
    scalar_offset: float
    stream_mode: tuple  # (j, k) of the single streamfunction
    stream_amplitude: object  # amplitude_fn(t), and ._dt(t) derivative

    def exact_C(self, domain: Domain, t: float) -> ScalarField:
        """Exact concentration projected ONTO the domain's resolved band."""
        Ns = domain.spec.Ns
        modes = [(a, b, amp(t)) for a, b, amp in self.scalar_modes if a < Ns and b < Ns]
        return cosine_field(domain, modes, self.scalar_offset)

    def exact_u(self, domain: Domain, t: float) -> VelocityField:
        j, k = self.stream_mode
        return stream_field(domain, [(j, k, self.stream_amplitude(t))])

    def exact_C_grids(self, domain: Domain, t: float):
        """Analytic nodal values and derivatives, independent of Ns."""
        return self._c_grids(domain.grid.M, self._scalar_mode_grids(domain), t)

    def _scalar_mode_grids(self, domain: Domain):
        """Per scalar mode, the nodal (v, dv/dx, dv/dy, lap v) of v = cos(ax x) cos(by y)."""
        grids = []
        for a, b, _ in self.scalar_modes:
            ax, by, cx, sx, cy, sy = _cos_mode(domain, a, b)
            v = cx * cy
            grids.append(_read_only(v, -ax * sx * cy, -by * cx * sy, -(ax**2 + by**2) * v))
        return tuple(grids)

    def _c_grids(self, M, mode_grids, t):
        val = np.full((M, M), self.scalar_offset)
        ddx = np.zeros((M, M))
        ddy = np.zeros((M, M))
        lap = np.zeros((M, M))
        dval_dt = np.zeros((M, M))
        for (_, _, amp), (v, vx, vy, lap_v) in zip(self.scalar_modes, mode_grids):
            c = amp(t)
            val += c * v
            ddx += c * vx
            ddy += c * vy
            lap += c * lap_v
            dval_dt += amp._dt(t) * v
        return val, ddx, ddy, lap, dval_dt

    def exact_u_grids(self, domain: Domain, t: float):
        return self._u_grids(self._stream_mode(domain), t)

    def _u_grids(self, stream_grids, t):
        amp = self.stream_amplitude(t)
        wx, wy, _, _ = stream_grids
        return amp * wx, amp * wy

    def _stream_mode(self, domain: Domain):
        """Nodal velocity (wx, wy) of the unit stream mode and its Laplacian, read-only."""
        g = domain.grid
        j, k = self.stream_mode
        wx = np.outer(g.phx[:, j - 1], g.phyd[:, k - 1])
        wy = -np.outer(g.phxd[:, j - 1], g.phy[:, k - 1])
        lap_wx = np.outer(g.phxdd[:, j - 1], g.phyd[:, k - 1]) + np.outer(
            g.phx[:, j - 1], g.phyddd[:, k - 1]
        )
        lap_wy = -(
            np.outer(g.phxddd[:, j - 1], g.phy[:, k - 1])
            + np.outer(g.phxd[:, j - 1], g.phydd[:, k - 1])
        )
        return _read_only(wx, wy, lap_wx, lap_wy)

    def _korteweg_mode_grids(self, domain: Domain):
        """Per scalar mode, the further factors of `_div_full_tensor_grids`."""
        grids = []
        for a, b, _ in self.scalar_modes:
            ax, by, cx, sx, cy, sy = _cos_mode(domain, a, b)
            lam = ax**2 + by**2
            grids.append(_read_only(-lam * cx * cy, -(ax**2) * cx * cy, ax * by * sx * sy,
                                    -(by**2) * cx * cy, lam * ax * sx * cy, lam * by * cx * sy))
        return tuple(grids)

    def error_norms(self, domain: Domain, t: float, C: ScalarField, u: VelocityField):
        """Quadrature L2 errors against the analytic fields."""
        cg = domain.scalar_values(C.coeffs)
        val, _, _, _, _ = self.exact_C_grids(domain, t)
        err_c = math.sqrt(domain.grid.integrate((cg - val) ** 2))
        ux, uy = domain.velocity_values(u.coeffs)
        ex, ey = self.exact_u_grids(domain, t)
        err_u = math.sqrt(domain.grid.integrate((ux - ex) ** 2 + (uy - ey) ** 2))
        return err_c, err_u

    def transport_source(self, params):
        """Nodal S(t) = dC*/dt + u*.grad C* - d lap C* + kappa C*(1-C*)."""
        grids = _PerDomain(lambda domain: (self._scalar_mode_grids(domain),
                                           self._stream_mode(domain)))

        def source(domain: Domain, t: float):
            modes, stream = grids(domain)
            val, ddx, ddy, lap, dval_dt = self._c_grids(domain.grid.M, modes, t)
            ux, uy = self._u_grids(stream, t)
            return dval_dt + ux * ddx + uy * ddy - params.d * lap + params.kappa * val * (1.0 - val)

        return source

    def momentum_forcing(self, params) -> ForcingSpec:
        """Body force keeping the exact velocity on the momentum balance.

        f = du*/dt + F(C*) u* - mu_e lap u* - div T(C*), with the pressure
        gauge chosen as zero.
        """
        dh = params.korteweg.delta_hat
        gamma = params.korteweg.gamma
        korteweg = dh != 0.0 or gamma != 0.0
        grids = _PerDomain(lambda domain: (
            self._scalar_mode_grids(domain), self._stream_mode(domain),
            self._korteweg_mode_grids(domain) if korteweg else None))

        def force(domain: Domain, t: float, out=(None, None)):
            modes, stream, korteweg_modes = grids(domain)
            amp = self.stream_amplitude(t)
            damp = self.stream_amplitude._dt(t)
            wx, wy, lap_wx, lap_wy = stream
            val, ddx, ddy, _, _ = self._c_grids(domain.grid.M, modes, t)
            fgrid = mobility_values(params.mobility, val)
            fx = damp * wx + fgrid * amp * wx - params.mu_e * amp * lap_wx
            fy = damp * wy + fgrid * amp * wy - params.mu_e * amp * lap_wy
            if korteweg:
                div_x, div_y = _div_full_tensor_grids(self, korteweg_modes, ddx, ddy, t,
                                                      params.korteweg)
                fx -= div_x
                fy -= div_y
            return fx, fy

        return ForcingSpec(force)


def _div_full_tensor_grids(case: ManufacturedCase, mode_grids, ddx, ddy, t, korteweg):
    """div T of the effective Korteweg tensor from the analytic modes.

    `mode_grids` are `case._korteweg_mode_grids`; ddx and ddy are the
    exact gradient of C, as `exact_C_grids` gives it.
    """
    lap, dxx, dxy, dyy, lap_x, lap_y = (np.zeros(ddx.shape) for _ in range(6))
    for (_, _, amp), (g_lap, g_xx, g_xy, g_yy, g_lap_x, g_lap_y) in zip(case.scalar_modes,
                                                                         mode_grids):
        c = amp(t)
        lap += c * g_lap
        dxx += c * g_xx
        dxy += c * g_xy
        dyy += c * g_yy
        lap_x += c * g_lap_x
        lap_y += c * g_lap_y
    return tensor_divergence((ddx, ddy), (dxx, dxy, dyy), lap, (lap_x, lap_y), korteweg)


class _Amplitude:
    """Smooth scalar amplitude with an attached time derivative."""

    def __init__(self, fn, dfn):
        self._fn = fn
        self._dt = dfn

    def __call__(self, t):
        return self._fn(t)


def _build_rest() -> ManufacturedCase:
    steady = _Amplitude(lambda t: 0.25, lambda t: 0.0)
    return ManufacturedCase(
        name="rest",
        scalar_modes=((1, 1, steady),),
        scalar_offset=0.5,
        stream_mode=(1, 1),
        stream_amplitude=_Amplitude(lambda t: 0.0, lambda t: 0.0),
    )


def _build_swirl() -> ManufacturedCase:
    low = _Amplitude(lambda t: 0.3 * math.cos(t), lambda t: -0.3 * math.sin(t))
    high = _Amplitude(
        lambda t: 0.02 * (1.0 + 0.5 * math.sin(2.0 * t)),
        lambda t: 0.02 * math.cos(2.0 * t),
    )
    amp = _Amplitude(
        lambda t: 0.2 * (1.0 + 0.5 * math.sin(t)), lambda t: 0.1 * math.cos(t)
    )
    return ManufacturedCase(
        name="swirl",
        scalar_modes=((1, 1, low), (11, 9, high)),
        scalar_offset=0.5,
        stream_mode=(1, 1),
        stream_amplitude=amp,
    )


MANUFACTURED_PRESETS = {"rest": _build_rest, "swirl": _build_swirl}


def manufactured_run(preset: str) -> ManufacturedCase:
    """Look up a manufactured case by name; unknown names are rejected."""
    try:
        builder = MANUFACTURED_PRESETS[preset]
    except KeyError:
        raise ValueError(
            f"unknown manufactured preset {preset!r}; available: {sorted(MANUFACTURED_PRESETS)}"
        ) from None
    return builder()

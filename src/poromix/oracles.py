"""
Closed-form and manufactured references used by tests and verification.

The logistic formula is the exact uniform-state solution of the transport
equation (advection and diffusion drop out for spatially constant C), and
blows up in finite time for uniform initial values above 1.  Modal
diffusion factors are the exact decay of individual cosine modes.  The
manufactured cases prescribe smooth exact fields together with the body
force and transport source that make them solve the full nonlinear
system, for convergence verification; each case keeps its nodal trig
grids in one read-only table per domain.  The transport source exists
only in verification runs; production configurations cannot enable it.
"""

from __future__ import annotations

import math
import weakref

import numpy as np

from ._record import Record
from .domain import Domain
from .fields import ScalarField, VelocityField, cosine_field, stream_field
from .forcing import ForcingSpec
from .korteweg import tensor_divergence
from .mobility import evaluate as mobility_values
from .solver import SimulationState, SolverConfig, run

__all__ = [
    "LogisticBlowup",
    "logistic_solution",
    "logistic_blowup_time",
    "modal_diffusion_factor",
    "ManufacturedCase",
    "manufactured_run",
    "MANUFACTURED_PRESETS",
]


class LogisticBlowup(Record):
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


class ManufacturedCase(Record, eq=False):
    """Exact fields plus the forcings that make them solve the system.

    C* = offset + sum_i c_i(t) cos(a_i pi x / Lx) cos(b_i pi y / Ly) and
    u* = s(t) w, w the unit stream mode; each amplitude is a pair of
    functions of t, (c_i or s, its time derivative).  The grids that no
    time changes are formed once per domain, read-only, in one table the
    case keeps while both it and the domain live; every method and
    closure below only scales and sums them.
    """

    name: str
    scalar_modes: tuple  # ((a, b, amplitude, rate), ...) raw cosine products
    scalar_offset: float
    stream_mode: tuple  # (j, k) of the single streamfunction
    stream_amplitude: tuple  # (amplitude, rate)

    def __post_init__(self):
        object.__setattr__(self, "_tables", weakref.WeakKeyDictionary())

    def _table(self, domain: Domain):
        """The domain's (scalar mode grids, stream mode grids), formed once.

        For each scalar mode v = cos(ax x) cos(by y) the grids are
        (v, v_x, v_y, lap v, v_xx, v_xy, v_yy, (lap v)_x, (lap v)_y); for
        the unit stream mode they are (wx, wy, lap wx, lap wy).
        """
        table = self._tables.get(domain)
        if table is not None:
            return table
        g = domain.grid
        modes = []
        for a, b, _, _ in self.scalar_modes:
            ax = a * np.pi / domain.spec.Lx
            by = b * np.pi / domain.spec.Ly
            cx, sx = np.cos(ax * g.x)[:, None], np.sin(ax * g.x)[:, None]
            cy, sy = np.cos(by * g.y)[None, :], np.sin(by * g.y)[None, :]
            lam = ax**2 + by**2
            v, vx, vy = cx * cy, -ax * sx * cy, -by * cx * sy
            modes.append((v, vx, vy, -lam * v,
                          -(ax**2) * v, ax * by * sx * sy, -(by**2) * v, -lam * vx, -lam * vy))
        j, k = self.stream_mode
        x, xd, xdd, xddd = (p[:, j - 1] for p in (g.phx, g.phxd, g.phxdd, g.phxddd))
        y, yd, ydd, yddd = (p[:, k - 1] for p in (g.phy, g.phyd, g.phydd, g.phyddd))
        stream = (np.outer(x, yd), -np.outer(xd, y),
                  np.outer(xdd, yd) + np.outer(x, yddd), -(np.outer(xddd, y) + np.outer(xd, ydd)))
        for grid in (*(grid for grids in modes for grid in grids), *stream):
            grid.flags.writeable = False
        table = self._tables[domain] = (tuple(modes), stream)
        return table

    def exact_C(self, domain: Domain, t: float) -> ScalarField:
        """Exact concentration projected ONTO the domain's resolved band."""
        Ns = domain.spec.Ns
        modes = [(a, b, amplitude(t))
                 for a, b, amplitude, _ in self.scalar_modes if a < Ns and b < Ns]
        return cosine_field(domain, modes, self.scalar_offset)

    def exact_u(self, domain: Domain, t: float) -> VelocityField:
        j, k = self.stream_mode
        return stream_field(domain, [(j, k, self.stream_amplitude[0](t))])

    def exact_C_grids(self, domain: Domain, t: float, korteweg: bool = False):
        """Analytic nodal (C*, C*_x, C*_y, lap C*, dC*/dt), independent of Ns.

        With `korteweg` two more entries follow: the Hessian
        (C*_xx, C*_xy, C*_yy) and grad lap C*.
        """
        modes, _ = self._table(domain)
        M = domain.grid.M
        sums = [np.full((M, M), self.scalar_offset)]
        sums += [np.zeros((M, M)) for _ in range(8 if korteweg else 3)]
        dval_dt = np.zeros((M, M))
        for (_, _, amplitude, rate), grids in zip(self.scalar_modes, modes):
            c = amplitude(t)
            for total, grid in zip(sums, grids):
                total += c * grid
            dval_dt += rate(t) * grids[0]
        val, ddx, ddy, lap, *second = sums
        if korteweg:
            return val, ddx, ddy, lap, dval_dt, tuple(second[:3]), tuple(second[3:])
        return val, ddx, ddy, lap, dval_dt

    def exact_u_grids(self, domain: Domain, t: float):
        s = self.stream_amplitude[0](t)
        wx, wy, _, _ = self._table(domain)[1]
        return s * wx, s * wy

    def error_norms(self, domain: Domain, t: float, C: ScalarField, u: VelocityField):
        """Quadrature L2 errors against the analytic fields."""
        cg = domain.scalar_values(C.coeffs)
        val, _, _, _, _ = self.exact_C_grids(domain, t)
        err_c = math.sqrt(domain.grid.integrate((cg - val) ** 2))
        ux, uy = domain.velocity_values(u.coeffs)
        ex, ey = self.exact_u_grids(domain, t)
        err_u = math.sqrt(domain.grid.integrate((ux - ex) ** 2 + (uy - ey) ** 2))
        return err_c, err_u

    def run_errors(self, domain: Domain, params, T: float):
        """L2 errors at T of a run (rtol 1e-10, atol 1e-13) from the exact fields at 0."""
        res = run(SimulationState(0.0, self.exact_C(domain, 0.0), self.exact_u(domain, 0.0)),
                  params, SolverConfig(T_run=T, rtol=1e-10, atol=1e-13),
                  forcing=self.momentum_forcing(params),
                  transport_source=self.transport_source(params))
        return self.error_norms(domain, T, res.final_state.C, res.final_state.u)

    def transport_source(self, params):
        """S(t) = dC*/dt + u*.grad C* - d lap C* + kappa C*(1-C*), formed on the
        Gauss-Legendre grid and projected onto the cosine basis, (Ns, Ns)."""
        def source(domain: Domain, t: float):
            val, ddx, ddy, lap, dval_dt = self.exact_C_grids(domain, t)
            ux, uy = self.exact_u_grids(domain, t)
            return domain.scalar_project(dval_dt + ux * ddx + uy * ddy - params.d * lap
                                         + params.kappa * val * (1.0 - val))

        return source

    def momentum_forcing(self, params) -> ForcingSpec:
        """Body force keeping the exact velocity on the momentum balance.

        f = du*/dt + F(C*) u* - mu_e lap u* - div T(C*), with the pressure
        gauge chosen as zero.
        """
        amplitude, rate = self.stream_amplitude

        def force(domain: Domain, t: float):
            amp = amplitude(t)
            damp = rate(t)
            wx, wy, lap_wx, lap_wy = self._table(domain)[1]
            val, ddx, ddy, lap, _, hessian, lap_grad = self.exact_C_grids(domain, t, korteweg=True)
            fgrid = mobility_values(params.mobility, val)
            div_x, div_y = tensor_divergence((ddx, ddy), hessian, lap, lap_grad, params.korteweg)
            fx = damp * wx + fgrid * amp * wx - params.mu_e * amp * lap_wx - div_x
            fy = damp * wy + fgrid * amp * wy - params.mu_e * amp * lap_wy - div_y
            return fx, fy

        return ForcingSpec(force)


def _build_rest() -> ManufacturedCase:
    return ManufacturedCase(
        name="rest",
        scalar_modes=((1, 1, lambda t: 0.25, lambda t: 0.0),),
        scalar_offset=0.5,
        stream_mode=(1, 1),
        stream_amplitude=(lambda t: 0.0, lambda t: 0.0),
    )


def _build_swirl() -> ManufacturedCase:
    return ManufacturedCase(
        name="swirl",
        scalar_modes=(
            (1, 1, lambda t: 0.3 * math.cos(t), lambda t: -0.3 * math.sin(t)),
            (11, 9, lambda t: 0.02 * (1.0 + 0.5 * math.sin(2.0 * t)),
             lambda t: 0.02 * math.cos(2.0 * t)),
        ),
        scalar_offset=0.5,
        stream_mode=(1, 1),
        stream_amplitude=(lambda t: 0.2 * (1.0 + 0.5 * math.sin(t)), lambda t: 0.1 * math.cos(t)),
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

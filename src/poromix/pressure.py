"""
Diagnostic pressure recovery.

The divergence-free formulation eliminates the pressure; it is recovered
after the fact from the momentum residual

    R = -du/dt - F(C) u + mu_e lap u + div T(C) + f

by solving the Neumann-Poisson problem lap p = div R in the cosine basis,
where it is diagonal: lam p_hat = (R, grad z).  Homogeneous Neumann data
for p is an approximation (the consistent condition couples to the normal
momentum balance on the wall), so the result is labeled diagnostic
quality.  The zero-mean gauge pins the constant mode.
"""

from __future__ import annotations

import numpy as np

from .fields import PressureField, VelocityField
from .forcing import ForcingSpec
from .korteweg import divergence_of_full_tensor
from .mobility import evaluate as mobility_values
from .solver import PhysicalParams, SimulationState

__all__ = ["recover_pressure", "momentum_gradient_residual"]


def _momentum_residual_grids(state, u_dot, forcing, params):
    dom = state.domain
    ux, uy = dom.velocity_values(state.u.coeffs)
    ux_t, uy_t = dom.velocity_values(u_dot.coeffs)
    lap_ux, lap_uy = dom.velocity_laplacian_values(state.u.coeffs)
    cg = dom.scalar_values(state.C.coeffs)
    f_mob = mobility_values(params.mobility, cg)
    div_tx, div_ty = divergence_of_full_tensor(state.C, params.korteweg)
    if forcing is None:
        forcing = ForcingSpec.zero()
    fx, fy = forcing.evaluate(dom, state.t)
    rx = -ux_t - f_mob * ux + params.mu_e * lap_ux + div_tx + fx
    ry = -uy_t - f_mob * uy + params.mu_e * lap_uy + div_ty + fy
    return rx, ry


def recover_pressure(
    state: SimulationState,
    u_dot: VelocityField,
    forcing: ForcingSpec | None,
    params: PhysicalParams,
) -> PressureField:
    """Recover the diagnostic pressure for one state and its velocity rate.

    `u_dot` is the coefficient time derivative of the velocity, e.g. from
    solver.rhs_velocity at the same state.
    """
    dom = state.domain
    rx, ry = _momentum_residual_grids(state, u_dot, forcing, params)
    pair = dom.scalar_gradient_pairing(rx, ry)
    lam = dom.scalar.eigenvalues.copy()
    lam[0, 0] = 1.0  # mean mode is gauged away below
    coeffs = pair / lam
    coeffs[0, 0] = 0.0
    return PressureField(dom, coeffs)


def momentum_gradient_residual(
    state: SimulationState,
    u_dot: VelocityField,
    forcing: ForcingSpec | None,
    params: PhysicalParams,
    pressure: PressureField,
) -> float:
    """Norm of (R - grad p) paired against gradient test fields.

    After recovery the projection of the momentum residual onto gradients
    of the scalar basis should vanish; the pressure tests check recovery
    with it (no verify suite calls it).  Returns the l2 norm of the
    remaining pairings scaled by the norm of the pairings before
    subtraction.
    """
    dom = state.domain
    rx, ry = _momentum_residual_grids(state, u_dot, forcing, params)
    pair = dom.scalar_gradient_pairing(rx, ry)
    # (grad p, grad z) is diagonal: lam * p_hat.
    residual = pair - dom.scalar.eigenvalues * pressure.coeffs
    residual[0, 0] = 0.0
    scale = np.linalg.norm(pair) or 1.0
    return float(np.linalg.norm(residual) / scale)

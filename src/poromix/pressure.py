"""
Diagnostic pressure recovery.

The divergence-free formulation eliminates the pressure; it is recovered
after the fact from the momentum residual

    R = -du/dt - F(C) u + mu_e lap u + div T(C) + f

by solving the Neumann-Poisson problem lap p = div R in the cosine basis,
where it is diagonal: lam p_hat = (R, grad z).  The velocity rate drops
out: every basis velocity is divergence-free with zero normal trace, so
its pairing with each grad z vanishes, and the grid integrates that
pairing exactly.  Homogeneous Neumann data for p is an approximation (the
consistent condition couples to the normal momentum balance on the wall),
so the result is labeled diagnostic quality.  The zero-mean gauge pins the
constant mode.
"""

from __future__ import annotations

import numpy as np

from .fields import ScalarField
from .forcing import ForcingSpec
from .korteweg import divergence_of_full_tensor
from .mobility import evaluate as mobility_values
from .solver import PhysicalParams, SimulationState

__all__ = ["recover_pressure", "momentum_gradient_residual"]


def _momentum_residual_grids(state, forcing, params):
    """R without its -du/dt term, which pairs to zero with every grad z."""
    dom = state.domain
    ux, uy = dom.velocity_values(state.u.coeffs)
    lap_ux, lap_uy = dom.velocity_laplacian_values(state.u.coeffs)
    cg = dom.scalar_values(state.C.coeffs)
    f_mob = mobility_values(params.mobility, cg)
    div_tx, div_ty = divergence_of_full_tensor(state.C, params.korteweg)
    if forcing is None:
        forcing = ForcingSpec.preset("zero")
    fx, fy = forcing.evaluate(dom, state.t)
    rx = -f_mob * ux + params.mu_e * lap_ux + div_tx + fx
    ry = -f_mob * uy + params.mu_e * lap_uy + div_ty + fy
    return rx, ry


def recover_pressure(
    state: SimulationState,
    forcing: ForcingSpec | None,
    params: PhysicalParams,
) -> ScalarField:
    """Recover the diagnostic pressure of one state, its mean pinned to 0."""
    dom = state.domain
    rx, ry = _momentum_residual_grids(state, forcing, params)
    pair = dom.scalar_gradient_pairing(rx, ry)
    lam = dom.scalar.eigenvalues.copy()
    lam[0, 0] = 1.0  # mean mode is gauged away below
    coeffs = pair / lam
    coeffs[0, 0] = 0.0
    return ScalarField(dom, coeffs)


def momentum_gradient_residual(
    state: SimulationState,
    forcing: ForcingSpec | None,
    params: PhysicalParams,
    pressure: ScalarField,
) -> float:
    """Norm of (R - grad p) paired against gradient test fields.

    After recovery the projection of the momentum residual onto gradients
    of the scalar basis should vanish.  The pressure tests keep it as the
    independent check of `recover_pressure`: it subtracts the pairings
    (grad p, grad z) = lam p_hat of the given pressure instead of dividing
    by lam, so it also judges a pressure from elsewhere.  No verify suite
    calls it.  Returns the l2 norm of the remaining pairings scaled by the
    norm of the pairings before subtraction.
    """
    dom = state.domain
    rx, ry = _momentum_residual_grids(state, forcing, params)
    pair = dom.scalar_gradient_pairing(rx, ry)
    # (grad p, grad z) is diagonal: lam * p_hat.
    residual = pair - dom.scalar.eigenvalues * pressure.coeffs
    residual[0, 0] = 0.0
    scale = np.linalg.norm(pair) or 1.0
    return float(np.linalg.norm(residual) / scale)

"""
Korteweg stress induced by concentration gradients in miscible flow.

The momentum solver only ever needs the reduced pairing against solenoidal
no-slip test velocities,

    <div T(C), w> = -delta_hat (lap C grad C, w),

because the isotropic part Q(C) I of the stress is a pure gradient there;
`solver.GalerkinSystem` assembles that pairing and nothing else does.  The
full tensor here is the independent oracle for the solver's pairing (the
korteweg-reduction verify suite); pressure recovery uses its divergence,
`divergence_of_full_tensor`.  Consistency with the reduced form fixes the dyadic part's sign:

    T(C) = Q(C) I - delta_hat grad C (x) grad C,
    Q(C) = -(delta_hat / 3) |grad C|^2 + (2 gamma / 3) lap C,

so that integrating -(T, grad w) by parts reproduces the reduced pairing
exactly.  gamma only ever moves the recovered pressure, never (u, C).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import ScalarField, gradient, laplacian, scalar_to_grid

__all__ = ["KortewegParams", "korteweg_full_tensor"]


@dataclass(frozen=True)
class KortewegParams:
    """Stress coefficient delta_hat and pressure-part coefficient gamma."""

    delta_hat: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        errs = self.validation_errors()
        if errs:
            raise ValueError("; ".join(errs))

    def validation_errors(self) -> list[str]:
        errs = []
        for name, val in (("delta_hat", self.delta_hat), ("gamma", self.gamma)):
            if not np.isfinite(val):
                errs.append(f"{name} must be finite, got {val!r}")
            elif val < 0:
                errs.append(f"{name} must be >= 0, got {val!r}")
        return errs


def korteweg_full_tensor(C: ScalarField, params: KortewegParams):
    """Nodal (Txx, Txy, Tyy) of the full symmetric stress tensor."""
    cx, cy = gradient(C)
    lap = scalar_to_grid(laplacian(C))
    grad_sq = cx**2 + cy**2
    q = -(params.delta_hat / 3.0) * grad_sq + (2.0 * params.gamma / 3.0) * lap
    txx = q - params.delta_hat * cx * cx
    txy = -params.delta_hat * cx * cy
    tyy = q - params.delta_hat * cy * cy
    return txx, txy, tyy


def divergence_of_full_tensor(C: ScalarField, params: KortewegParams):
    """Nodal (div T)_x, (div T)_y, used only by pressure recovery.

    div T = grad Q - delta_hat (lap C grad C + grad |grad C|^2 / 2); the
    Hessian contractions are evaluated analytically from the coefficients.
    """
    dom = C.domain
    dh, gamma = params.delta_hat, params.gamma
    cx, cy = gradient(C)
    lap_field = laplacian(C)
    lap = scalar_to_grid(lap_field)
    cxx, cxy, cyy = dom.scalar_second_derivative_values(C.coeffs)
    lap_x, lap_y = dom.scalar_gradient_values(lap_field.coeffs)
    # (Hess C . grad C) components: d|grad C|^2 / 2.
    hx = cx * cxx + cy * cxy
    hy = cx * cxy + cy * cyy
    div_x = -(5.0 * dh / 3.0) * hx + (2.0 * gamma / 3.0) * lap_x - dh * lap * cx
    div_y = -(5.0 * dh / 3.0) * hy + (2.0 * gamma / 3.0) * lap_y - dh * lap * cy
    return div_x, div_y

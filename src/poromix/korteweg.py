"""
Korteweg stress induced by concentration gradients in miscible flow.

The momentum solver only ever needs the reduced pairing against solenoidal
no-slip test velocities,

    <div T(C), w> = -delta_hat (lap C grad C, w),

because the isotropic part Q(C) I of the stress is a pure gradient there;
`solver.GalerkinSystem` assembles that pairing and nothing else does.  The
full tensor here is the independent oracle for the solver's pairing (the
korteweg-reduction verify suite).  Its divergence has one formula,
`tensor_divergence`: pressure recovery feeds it the field's derivatives
(`divergence_of_full_tensor`), the manufactured-solution forcing exact
ones.  Consistency with the reduced form fixes the dyadic part's sign:

    T(C) = Q(C) I - delta_hat grad C (x) grad C,
    Q(C) = -(delta_hat / 3) |grad C|^2 + (2 gamma / 3) lap C,

so that integrating -(T, grad w) by parts reproduces the reduced pairing
exactly.  gamma only ever moves the recovered pressure, never (u, C).
"""

from __future__ import annotations


import numpy as np

from ._record import Record
from .domain import SpecError
from .fields import ScalarField

__all__ = ["KortewegParams", "korteweg_full_tensor"]


class KortewegParams(Record):
    """Stress coefficient delta_hat and pressure-part coefficient gamma."""

    delta_hat: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        errs = []
        for name, val in (("delta_hat", self.delta_hat), ("gamma", self.gamma)):
            if not np.isfinite(val):
                errs.append(f"{name} must be finite, got {val!r}")
            elif val < 0:
                errs.append(f"{name} must be >= 0, got {val!r}")
        if errs:
            raise SpecError(*errs)


def korteweg_full_tensor(C: ScalarField, params: KortewegParams):
    """Nodal (Txx, Txy, Tyy) of the full symmetric stress tensor."""
    dom = C.domain
    cx, cy = dom.scalar_gradient_values(C.coeffs)
    lap = dom.scalar_values(-dom.scalar.eigenvalues * C.coeffs)
    grad_sq = cx**2 + cy**2
    q = -(params.delta_hat / 3.0) * grad_sq + (2.0 * params.gamma / 3.0) * lap
    txx = q - params.delta_hat * cx * cx
    txy = -params.delta_hat * cx * cy
    tyy = q - params.delta_hat * cy * cy
    return txx, txy, tyy


def divergence_of_full_tensor(C: ScalarField, params: KortewegParams):
    """Nodal (div T)_x, (div T)_y, used only by pressure recovery.

    The Hessian contractions are evaluated analytically from the coefficients.
    """
    dom = C.domain
    lap = -dom.scalar.eigenvalues * C.coeffs
    return tensor_divergence(dom.scalar_gradient_values(C.coeffs),
                             dom.scalar_second_derivative_values(C.coeffs),
                             dom.scalar_values(lap), dom.scalar_gradient_values(lap), params)


def tensor_divergence(grad, hessian, lap, lap_grad, params: KortewegParams):
    """Nodal div T = grad Q - delta_hat (lap C grad C + grad |grad C|^2 / 2).

    From the nodal grad C, Hessian (C_xx, C_xy, C_yy), lap C and grad lap C;
    the manufactured-solution forcing passes exact ones.
    """
    dh, gamma = params.delta_hat, params.gamma
    (cx, cy), (cxx, cxy, cyy), (lap_x, lap_y) = grad, hessian, lap_grad
    # (Hess C . grad C) components: d|grad C|^2 / 2.
    hx = cx * cxx + cy * cxy
    hy = cx * cxy + cy * cyy
    div_x = -(5.0 * dh / 3.0) * hx + (2.0 * gamma / 3.0) * lap_x - dh * lap * cx
    div_y = -(5.0 * dh / 3.0) * hy + (2.0 * gamma / 3.0) * lap_y - dh * lap * cy
    return div_x, div_y

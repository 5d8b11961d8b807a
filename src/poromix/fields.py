"""
Field value types over the spectral bases, their builders from mode lists,
and the L2 projection of nodal values onto a scalar field.  Every other
grid transform is a `Domain` method applied to a field's coefficients.

Fields are immutable: every operator returns a fresh field.  The physics
terms themselves (advection, reaction, drag, Korteweg coupling) are
assembled only by `solver.GalerkinSystem`.
"""

from __future__ import annotations


import numpy as np

from ._record import Record
from .domain import Domain

__all__ = [
    "ResolutionMismatchError",
    "ScalarField",
    "VelocityField",
    "cosine_field",
    "stream_field",
    "mode_range_errors",
    "grid_to_scalar",
]


class ResolutionMismatchError(ValueError):
    """Raised when fields or grids from incompatible discretizations mix."""


def _check_same_domain(a, b):
    if a.domain is not b.domain and a.domain.spec != b.domain.spec:
        raise ResolutionMismatchError(
            f"fields live on different domains: {a.domain.spec} vs {b.domain.spec}"
        )


def _check_coeffs(field, n: int, kind: str):
    """Store field.coeffs as a float array after checking it is (n, n) and finite."""
    c = np.asarray(field.coeffs, dtype=float)
    if c.shape != (n, n):
        raise ResolutionMismatchError(f"expected coefficients ({n}, {n}), got {c.shape}")
    if not np.all(np.isfinite(c)):
        raise ValueError(f"{kind} field has non-finite coefficients")
    object.__setattr__(field, "coeffs", c)


class ScalarField(Record, eq=False):
    """Concentration-like scalar: cosine coefficients (Ns, Ns)."""

    domain: Domain
    coeffs: np.ndarray

    def __post_init__(self):
        _check_coeffs(self, self.domain.spec.Ns, "scalar")

    @property
    def mass(self) -> float:
        """Integral of the field over the rectangle."""
        return self.domain.scalar.mass(self.coeffs)

    @property
    def mean_value(self) -> float:
        return self.mass / (self.domain.spec.Lx * self.domain.spec.Ly)


class VelocityField(Record, eq=False):
    """Solenoidal no-slip velocity: streamfunction coefficients (Nv, Nv)."""

    domain: Domain
    coeffs: np.ndarray

    def __post_init__(self):
        _check_coeffs(self, self.domain.spec.Nv, "velocity")


def mode_range_errors(modes, *, Ns=None, Nv=None) -> list[str]:
    """One message per (j, k, amp) mode outside the cosine basis of size Ns,
    0 <= j, k < Ns, or, given Nv instead, the stream basis, 1 <= j, k <= Nv."""
    name, lo, n, size = ("cosine", 0, Ns, "Ns") if Nv is None else ("stream", 1, Nv, "Nv")
    return [f"{name} mode ({j}, {k}) out of range for {size}={n}"
            for j, k, _ in modes if not (lo <= j < lo + n and lo <= k < lo + n)]


def cosine_field(domain: Domain, modes=(), offset: float = 0.0) -> ScalarField:
    """offset + sum of amp cos(j pi x / Lx) cos(k pi y / Ly) over (j, k, amp)."""
    s = domain.scalar
    errs = mode_range_errors(modes, Ns=s.Ns)
    if errs:
        raise ValueError("; ".join(errs))
    B = np.zeros((s.Ns, s.Ns))
    B[0, 0] = offset / s.norm_00
    for j, k, amp in modes:
        B[j, k] += amp / (s.norm_x[j] * s.norm_y[k])
    return ScalarField(domain, B)


def stream_field(domain: Domain, modes=()) -> VelocityField:
    """Velocity of the streamfunction sum of amp psi[j,k] over (j, k, amp)."""
    Nv = domain.spec.Nv
    errs = mode_range_errors(modes, Nv=Nv)
    if errs:
        raise ValueError("; ".join(errs))
    A = np.zeros((Nv, Nv))
    for j, k, amp in modes:
        A[j - 1, k - 1] += amp
    return VelocityField(domain, A)


def grid_to_scalar(domain: Domain, values: np.ndarray) -> ScalarField:
    """L2 projection of nodal values back onto the cosine basis.

    Round-trips Domain.scalar_values exactly (to rounding) for resolved fields.
    """
    M = domain.grid.M
    v = np.asarray(values, dtype=float)
    if v.shape != (M, M):
        raise ResolutionMismatchError(f"expected grid values ({M}, {M}), got {v.shape}")
    return ScalarField(domain, domain.scalar_project(v))


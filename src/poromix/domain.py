"""
Spectral discretization of the rectangle (0, Lx) x (0, Ly).

Scalars live in the L2-orthonormal Neumann eigenbasis of the negative
Laplacian,

    z[j,k](x, y) = n_j n_k cos(j pi x / Lx) cos(k pi y / Ly),

so the zero-normal-derivative boundary condition is built in and diffusion
is diagonal.  Velocities are curls of boundary-clamped streamfunctions

    psi[j,k](x, y) = phi_j(x; Lx) phi_k(y; Ly),
    phi_j(s; L)    = sin(pi s / L) sin(j pi s / L),

which makes every basis velocity pointwise divergence-free with exact
no-slip, since phi = phi' = 0 at both endpoints.

Quadrature uses two tensor rules.  Advection, the Korteweg pairing and
nodal inputs (forcing tables and callables, the manufactured source)
carry sine content and go on a Gauss-Legendre rule.  So do the Gram
matrices and the drag pairing (F(C) u, w), because nodal u and F(C) are
formed there, although they are cosine polynomials: per dimension they
pair two phi or two phi' factors, both sine polynomials.  Each integrand
is a trigonometric polynomial per dimension of degree at most
``integrand_degree`` = 2(Ns-1) + 2(Nv+1), reached by the drag pairing with
a quadratic mobility.  ``required_quadrature_points`` picks the smallest
rule that integrates every trigonometric mode up to that degree to the
certificate tolerance on both sides.  Each rule is certified once, by
one certificate: the search certifies a default M, and ``build_domain``
certifies an explicit M and the midpoint rule.

Cosine polynomials may also go on a second, uniform midpoint rule with
P = 2 Ns cells per side, exact for cos(n pi s / L) whenever 0 < n < 2P:
the reaction projection (C (1-C), z), of cosine degree 3(Ns-1), the
reaction work (C (1-C))^2, and F^2 + F'^2 |grad C|^2 of a quadratic
mobility, both of cosine degree ``midpoint_degree`` = 4(Ns-1).  It is not
exact for sines, so it carries only a cosine certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "DomainError",
    "DomainSpec",
    "SpecError",
    "ScalarBasis",
    "VelocityBasis",
    "QuadratureGrid",
    "MidpointRule",
    "Domain",
    "build_domain",
    "integrand_degree",
    "midpoint_degree",
    "required_quadrature_points",
]

# Absolute tolerance (relative to the side length) admitted by the
# quadrature certificate, _certificate_failure.
_CERTIFY_TOL = 1e-13


class SpecError(ValueError):
    """A spec constructed from inadmissible values; `errors` lists each defect."""

    def __init__(self, *errors: str):
        super().__init__("; ".join(errors))
        self.errors = errors


class DomainError(SpecError):
    """Raised when a DomainSpec is invalid or quadrature certification fails."""


def integrand_degree(Ns: int, Nv: int) -> int:
    """Highest trigonometric degree per dimension the Gauss-Legendre grid must integrate.

    2(Ns-1) + 2(Nv+1) for the drag pairing (F(C) u, w) with a quadratic
    mobility; advection, Korteweg and Gram integrands are of lower degree.
    The cosine integrands, the reaction projection (C (1-C), z) of degree
    3(Ns-1) among them, go to the midpoint rule (``midpoint_degree``).
    """
    return 2 * (Ns - 1) + 2 * (Nv + 1)


def midpoint_degree(Ns: int) -> int:
    """Cosine degree per dimension the midpoint rule must integrate.

    4(Ns-1) for the reaction work (C (1-C))^2 and for F^2 + F'^2 |grad C|^2
    with a quadratic mobility; the reaction projection (C (1-C), z) needs
    only 3(Ns-1).
    """
    return 4 * (Ns - 1)


@lru_cache(maxsize=None)
def _rule(M: int, L: float):
    """Nodes and weights of the M-point Gauss-Legendre rule on (0, L), read-only."""
    t, w = np.polynomial.legendre.leggauss(M)
    x, w = 0.5 * L * (t + 1.0), 0.5 * L * w
    x.flags.writeable = w.flags.writeable = False  # shared by every grid that uses them
    return x, w


@lru_cache(maxsize=None)
def _midpoint_nodes(P: int, L: float):
    """Cell midpoints and (equal) weights of the P-cell midpoint rule on (0, L), read-only."""
    x = (np.arange(P) + 0.5) * (L / P)
    w = np.full(P, L / P)
    x.flags.writeable = w.flags.writeable = False
    return x, w


@lru_cache(maxsize=None)
def required_quadrature_points(degree: int, Lx: float, Ly: float) -> int:
    """Smallest Gauss-Legendre size whose rule passes the certificate on both sides.

    The search starts at ceil(pi D/4 + 5.3 D^(1/3) + 1/2): that size or one
    below it for every D <= 300 scanned on (0, 2), so it builds two rules.
    """
    def certifies(M):
        return not any(_certificate_failure(*_rule(M, L), L, degree) for L in {Lx, Ly})

    M = math.ceil(math.pi * degree / 4 + 5.3 * degree ** (1 / 3) + 0.5)
    while not certifies(M):
        M += 1
    while M > 1 and certifies(M - 1):
        M -= 1
    return M


def _is_integer(val) -> bool:
    """A Python or numpy integer, not a bool."""
    return isinstance(val, (int, np.integer)) and not isinstance(val, bool)


@dataclass(frozen=True)
class DomainSpec:
    """Rectangle geometry plus spectral and quadrature resolutions, checked
    when constructed (DomainError).

    M may be left as None to pick the smallest Gauss-Legendre rule that
    passes the quadrature certificate at ``integrand_degree(Ns, Nv)``.
    """

    Lx: float
    Ly: float
    Ns: int
    Nv: int
    M: int | None = None

    def __post_init__(self):
        errs = []
        for name, val in (("Lx", self.Lx), ("Ly", self.Ly)):
            if not (np.isfinite(val) and val > 0.0):
                errs.append(f"{name} must be finite and strictly positive, got {val!r}")
        for name, val in (("Ns", self.Ns), ("Nv", self.Nv)):
            if not (_is_integer(val) and val >= 1):
                errs.append(f"{name} must be an integer >= 1, got {val!r}")
        if self.M is not None:
            need = None if errs else required_quadrature_points(
                integrand_degree(self.Ns, self.Nv), self.Lx, self.Ly)
            if not _is_integer(self.M):
                errs.append(f"M must be an integer, got {self.M!r}")
            elif need is not None and self.M < need:
                errs.append(
                    f"M={self.M} is below the quadrature exactness threshold "
                    f"{need} for Ns={self.Ns}, Nv={self.Nv}"
                )
        if errs:
            raise DomainError(*errs)


@dataclass(frozen=True, eq=False)
class ScalarBasis:
    """Neumann cosine eigenbasis: eigenvalues and normalization constants."""

    Ns: int
    Lx: float
    Ly: float
    eigenvalues: np.ndarray  # (Ns, Ns); lam[j, k] = (j pi/Lx)^2 + (k pi/Ly)^2
    norm_x: np.ndarray  # (Ns,); 1/sqrt(L) for mode 0, sqrt(2/L) otherwise
    norm_y: np.ndarray

    @property
    def norm_00(self) -> float:
        return float(self.norm_x[0] * self.norm_y[0])


@dataclass(frozen=True, eq=False)
class VelocityBasis:
    """Streamfunction velocity basis with precomputed Gram, its inverse and stiffness.

    Flattened mode index q = (j-1) * Nv + (k-1) for psi[j,k], 1 <= j,k <= Nv.
    G is small (Nv^2 rows) and well conditioned (cond(G) about 14, 144 and
    2.1e3 at Nv = 4, 8 and 16 on (0, pi)^2), so every Gram solve is one
    matmul with the symmetric inverse formed at build.
    """

    Nv: int
    Lx: float
    Ly: float
    gram: np.ndarray  # (Nv^2, Nv^2), (w_q, w_r)
    stiffness: np.ndarray  # (Nv^2, Nv^2), (grad w_q, grad w_r)
    gram_inverse: np.ndarray  # (Nv^2, Nv^2), G^-1, symmetric

    def solve_gram(self, rhs_flat: np.ndarray) -> np.ndarray:
        """G^-1 rhs_flat for a vector (Nv^2,) or the columns of a matrix (Nv^2, n)."""
        return self.gram_inverse @ rhs_flat


@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    """Gauss-Legendre tensor rule with cached basis factors at the nodes.

    All cached arrays are one-dimensional factors of the separable bases:
    scalar cosine factors (M, Ns) and streamfunction factors (M, Nv), each
    with enough derivatives for the momentum, transport and pressure
    operators.
    """

    M: int
    x: np.ndarray  # (M,)
    y: np.ndarray
    wx: np.ndarray  # (M,)
    wy: np.ndarray
    weights: np.ndarray  # (M, M) tensor weights wx[:, None] * wy[None, :]
    # Scalar cosine factors and derivatives d/ds, d2/ds2.
    zx: np.ndarray
    zxd: np.ndarray
    zxdd: np.ndarray
    zy: np.ndarray
    zyd: np.ndarray
    zydd: np.ndarray
    # Streamfunction factors phi and derivatives up to third order.
    phx: np.ndarray
    phxd: np.ndarray
    phxdd: np.ndarray
    phxddd: np.ndarray
    phy: np.ndarray
    phyd: np.ndarray
    phydd: np.ndarray
    phyddd: np.ndarray

    @property
    def area(self) -> float:
        return float(np.sum(self.wx) * np.sum(self.wy))

    @cached_property
    def lowest_stream_velocity(self):
        """Nodal (ux, uy) of the lowest basis velocity w[1,1], read-only.

        Formed on first use and kept as long as the grid.
        """
        ux = np.outer(self.phx[:, 0], self.phyd[:, 0])
        uy = -np.outer(self.phxd[:, 0], self.phy[:, 0])
        ux.flags.writeable = uy.flags.writeable = False
        return ux, uy

    def integrate(self, values: np.ndarray) -> float:
        """Integrate nodal values over the rectangle."""
        return float(self.wx @ values @ self.wy)


@dataclass(frozen=True, eq=False)
class MidpointRule:
    """Uniform P x P midpoint rule with cached scalar factors at the cell midpoints.

    Exact for cosine polynomials of degree below 2P per dimension, not for
    sine modes: only integrands that are pure cosine polynomials may use it.
    It carries the reaction projection (C (1-C), z) and the quartic cosine
    integrals of the work and the diagnostics.
    """

    P: int
    cell: float  # (Lx / P) (Ly / P), the weight of every node
    zx: np.ndarray  # (P, Ns) cosine factors
    zxd: np.ndarray  # (P, Ns) their derivatives d/ds
    zy: np.ndarray
    zyd: np.ndarray

    def integrate(self, values: np.ndarray) -> float:
        """Integrate nodal values over the rectangle."""
        return self.cell * float(values.sum())


@dataclass(frozen=True, eq=False)
class Domain:
    """Bundle of the discretization products for one DomainSpec.

    The grid transforms take a keyword-only ``out=``: an (M, M) array, or
    a pair of them for the two-component ones, that receives the nodal
    values and is returned ((P, P) ones on the midpoint rule).  The
    projections and pairings take a keyword-only ``scratch=``, an (M, M)
    array ((P, P) for ``midpoint_project``) that holds their weighted nodal
    values.  Left as None, both allocate, with the same arithmetic.
    """

    spec: DomainSpec
    scalar: ScalarBasis
    velocity: VelocityBasis
    grid: QuadratureGrid
    midpoint: MidpointRule

    # -- scalar transforms -------------------------------------------------

    def scalar_values(self, B: np.ndarray, *, out=None) -> np.ndarray:
        """Evaluate a coefficient matrix (Ns, Ns) on the grid, (M, M)."""
        g = self.grid
        return np.matmul(g.zx @ B, g.zy.T, out=out)

    def scalar_gradient_values(self, B: np.ndarray, *, out=(None, None)):
        """Nodal (Cx, Cy); `out` is a pair of (M, M) arrays or (None, None)."""
        g = self.grid
        ox, oy = out
        return np.matmul(g.zxd @ B, g.zy.T, out=ox), np.matmul(g.zx @ B, g.zyd.T, out=oy)

    def scalar_second_derivative_values(self, B: np.ndarray):
        """(Cxx, Cxy, Cyy) nodal values."""
        g = self.grid
        return g.zxdd @ B @ g.zy.T, g.zxd @ B @ g.zyd.T, g.zx @ B @ g.zydd.T

    def scalar_project(self, values: np.ndarray, *, scratch=None) -> np.ndarray:
        """L2 projection of nodal values onto the cosine basis, (Ns, Ns)."""
        g = self.grid
        return g.zx.T @ np.multiply(g.weights, values, out=scratch) @ g.zy

    def scalar_gradient_pairing(self, vx: np.ndarray, vy: np.ndarray) -> np.ndarray:
        """Pair a nodal vector field against grad z[j,k] for every mode."""
        g = self.grid
        return g.zxd.T @ (g.weights * vx) @ g.zy + g.zx.T @ (g.weights * vy) @ g.zyd

    def midpoint_values(self, B: np.ndarray, *, out=None) -> np.ndarray:
        """Evaluate a coefficient matrix (Ns, Ns) at the midpoint nodes, (P, P)."""
        m = self.midpoint
        return np.matmul(m.zx @ B, m.zy.T, out=out)

    def midpoint_project(self, values: np.ndarray, *, scratch=None) -> np.ndarray:
        """Projection of midpoint values onto the cosine basis, (Ns, Ns).

        Exact only when values times each basis function is a cosine
        polynomial the midpoint rule integrates; `scratch` is a (P, P) array.
        """
        m = self.midpoint
        return m.zx.T @ np.multiply(m.cell, values, out=scratch) @ m.zy

    def midpoint_gradient_values(self, B: np.ndarray, *, out=(None, None)):
        """(Cx, Cy) at the midpoint nodes; `out` as for the grid transforms, (P, P)."""
        m = self.midpoint
        ox, oy = out
        return np.matmul(m.zxd @ B, m.zy.T, out=ox), np.matmul(m.zx @ B, m.zyd.T, out=oy)

    # -- velocity transforms -----------------------------------------------

    def velocity_values(self, A: np.ndarray, *, out=(None, None)):
        """Nodal (ux, uy) for streamfunction coefficients A, (Nv, Nv).

        `out` is a pair of (M, M) arrays or (None, None).
        """
        g = self.grid
        ox, oy = out
        ux = np.matmul(g.phx @ A, g.phyd.T, out=ox)
        uy = np.matmul(g.phxd @ A, g.phy.T, out=oy)
        return ux, np.negative(uy, out=uy)

    def velocity_gradient_values(self, A: np.ndarray):
        """Nodal (dux/dx, dux/dy, duy/dx, duy/dy)."""
        g = self.grid
        dux_dx = g.phxd @ A @ g.phyd.T
        dux_dy = g.phx @ A @ g.phydd.T
        duy_dx = -(g.phxdd @ A @ g.phy.T)
        duy_dy = -(g.phxd @ A @ g.phyd.T)
        return dux_dx, dux_dy, duy_dx, duy_dy

    def velocity_laplacian_values(self, A: np.ndarray):
        g = self.grid
        lux = g.phxdd @ A @ g.phyd.T + g.phx @ A @ g.phyddd.T
        luy = -(g.phxddd @ A @ g.phy.T + g.phxd @ A @ g.phydd.T)
        return lux, luy

    def velocity_pairing(self, vx: np.ndarray, vy: np.ndarray, *, scratch=None) -> np.ndarray:
        """Pair a nodal vector field against every w[j,k]; returns (Nv, Nv)."""
        g = self.grid
        pair_x = g.phx.T @ np.multiply(g.weights, vx, out=scratch) @ g.phyd
        return pair_x - g.phxd.T @ np.multiply(g.weights, vy, out=scratch) @ g.phy

    def weighted_gram(self, values: np.ndarray, *, scratch=None, work=(None, None, None),
                      out=None) -> np.ndarray:
        """(values w_q, w_r) for every pair of velocity modes, (Nv^2, Nv^2).

        Sum-factorised: the weighted nodal values are contracted with the
        products of the y factors first, then with those of the x factors,
        at O(M^2 Nv^2 + M Nv^4).  Times the flattened coefficients it is
        ``velocity_pairing(values ux, values uy)``.  `work` holds the
        contractions, an (M, 2 Nv^2) array and two (Nv^2, Nv^2) ones, and
        `out` the result, an (Nv^2, Nv^2) array; None allocates.
        """
        Nv = self.spec.Nv
        n2 = Nv * Nv
        px, pxd, py_pyd = self._stream_pair_factors
        fy_out, d_out, dx_out = work
        fy = np.matmul(np.multiply(self.grid.weights, values, out=scratch), py_pyd, out=fy_out)
        d = np.add(np.matmul(px, fy[:, n2:], out=d_out), np.matmul(pxd, fy[:, :n2], out=dx_out),
                   out=d_out)
        out = np.empty((n2, n2)) if out is None else out
        np.copyto(out.reshape(Nv, Nv, Nv, Nv), d.reshape(Nv, Nv, Nv, Nv).transpose(0, 2, 1, 3))
        return out

    @cached_property
    def _stream_pair_factors(self):
        """Products phi_j phi_l of the streamfunction factors for weighted_gram.

        (phx phx)^T and (phxd phxd)^T, (Nv^2, M), and [phy phy | phyd phyd],
        (M, 2 Nv^2); pair column j Nv + l holds factor j times factor l.
        """
        g = self.grid
        Nv = self.spec.Nv

        def pairs(p):
            return (p[:, :, None] * p[:, None, :]).reshape(p.shape[0], Nv * Nv)

        return (np.ascontiguousarray(pairs(g.phx).T), np.ascontiguousarray(pairs(g.phxd).T),
                np.hstack([pairs(g.phy), pairs(g.phyd)]))


def _scalar_factors(s: np.ndarray, L: float, Ns: int):
    """Normalized cosine factors and first two derivatives, (len(s), Ns)."""
    j = np.arange(Ns)
    norm = np.where(j == 0, np.sqrt(1.0 / L), np.sqrt(2.0 / L))
    arg = np.outer(s, j * np.pi / L)
    z = norm * np.cos(arg)
    zd = -norm * (j * np.pi / L) * np.sin(arg)
    zdd = -norm * (j * np.pi / L) ** 2 * np.cos(arg)
    return norm, z, zd, zdd


def _stream_factors(s: np.ndarray, L: float, Nv: int):
    """phi_j(s) = sin(pi s/L) sin(j pi s/L) and derivatives up to third order."""
    a = np.pi / L
    s1 = np.sin(a * s)[:, None]
    c1 = np.cos(a * s)[:, None]
    j = np.arange(1, Nv + 1)[None, :]
    sj = np.sin(a * s[:, None] * j)
    cj = np.cos(a * s[:, None] * j)
    v = s1 * sj
    d = a * (c1 * sj + j * s1 * cj)
    dd = a**2 * (2 * j * c1 * cj - (1 + j**2) * s1 * sj)
    ddd = a**3 * (-j * (3 + j**2) * s1 * cj - (1 + 3 * j**2) * c1 * sj)
    return v, d, dd, ddd


def _certificate_failure(x, w, L, degree, *, sines=True):
    """Why the 1D rule (x, w) on (0, L) fails the certificate, or None if it passes.

    Every cos(n pi s / L), 1 <= n <= degree, must integrate to its exact
    zero, and with `sines` every sin(n pi s / L) to its closed form, within
    _CERTIFY_TOL L.  The midpoint rule is exact for cosines only, so it is
    checked with sines=False.
    """
    n = np.arange(1, degree + 1)
    arg = np.outer(n, np.pi * x / L)
    err = np.abs(np.cos(arg) @ w)  # exact integrals are all zero
    if sines:
        sin_exact = L * (1.0 - np.cos(n * np.pi)) / (n * np.pi)
        err = np.maximum(err, np.abs(np.sin(arg) @ w - sin_exact))
    worst = float(err.max(initial=0.0))
    if worst > _CERTIFY_TOL * L:
        rule, modes = ("quadrature", "trig") if sines else ("midpoint", "cosine")
        return (f"{rule} certification failed: worst {modes}-mode error {worst:.3e} "
                f"exceeds {_CERTIFY_TOL * L:.3e} at degree {degree}")
    return None


def build_domain(spec: DomainSpec) -> Domain:
    """Construct scalar basis, velocity basis, and both certified quadratures.

    The Gauss-Legendre rule must integrate exactly up to
    ``integrand_degree(Ns, Nv)``, the drag pairing's degree; an unset
    ``spec.M`` takes the smallest rule that does.  The midpoint rule has
    P = 2 Ns cells per side and must integrate every cosine up to
    ``midpoint_degree(Ns)``, which covers the reaction projection too.
    Each rule is certified once.  An explicit ``spec.M`` and the midpoint
    rule are certified here; a default M is not, because the sizing search
    has just certified the same cached, read-only ``_rule`` arrays.
    Deterministic for equal arguments.  Raises DomainError, listing every
    failure, when a rule fails its exactness certification.
    """
    Ns, Nv, Lx, Ly = spec.Ns, spec.Nv, spec.Lx, spec.Ly
    degree = integrand_degree(Ns, Nv)
    M = required_quadrature_points(degree, Lx, Ly) if spec.M is None else int(spec.M)
    x, wx = _rule(M, Lx)
    y, wy = _rule(M, Ly)
    P = 2 * Ns
    xm, wxm = _midpoint_nodes(P, Lx)
    ym, wym = _midpoint_nodes(P, Ly)
    failures = [] if spec.M is None else [_certificate_failure(x, wx, Lx, degree),
                                          _certificate_failure(y, wy, Ly, degree)]
    failures += [_certificate_failure(xm, wxm, Lx, midpoint_degree(Ns), sines=False),
                 _certificate_failure(ym, wym, Ly, midpoint_degree(Ns), sines=False)]
    if any(failures):
        raise DomainError(*filter(None, failures))

    norm_x, zx, zxd, zxdd = _scalar_factors(x, Lx, Ns)
    norm_y, zy, zyd, zydd = _scalar_factors(y, Ly, Ns)
    _, mzx, mzxd, _ = _scalar_factors(xm, Lx, Ns)
    _, mzy, mzyd, _ = _scalar_factors(ym, Ly, Ns)
    midpoint = MidpointRule(P=P, cell=float(wxm[0] * wym[0]),
                            zx=mzx, zxd=mzxd, zy=mzy, zyd=mzyd)
    phx, phxd, phxdd, phxddd = _stream_factors(x, Lx, Nv)
    phy, phyd, phydd, phyddd = _stream_factors(y, Ly, Nv)

    jj = (np.arange(Ns) * np.pi / Lx) ** 2
    kk = (np.arange(Ns) * np.pi / Ly) ** 2
    eigenvalues = jj[:, None] + kk[None, :]

    scalar = ScalarBasis(
        Ns=Ns, Lx=Lx, Ly=Ly, eigenvalues=eigenvalues, norm_x=norm_x, norm_y=norm_y
    )

    grid = QuadratureGrid(
        M=M, x=x, y=y, wx=wx, wy=wy, weights=np.outer(wx, wy),
        zx=zx, zxd=zxd, zxdd=zxdd, zy=zy, zyd=zyd, zydd=zydd,
        phx=phx, phxd=phxd, phxdd=phxdd, phxddd=phxddd,
        phy=phy, phyd=phyd, phydd=phydd, phyddd=phyddd,
    )

    # 1D mass/stiffness blocks of the streamfunction factors.
    px = phx.T @ (wx[:, None] * phx)
    qx = phxd.T @ (wx[:, None] * phxd)
    rx = phxdd.T @ (wx[:, None] * phxdd)
    py = phy.T @ (wy[:, None] * phy)
    qy = phyd.T @ (wy[:, None] * phyd)
    ry = phydd.T @ (wy[:, None] * phydd)

    # w = (phi phi', -phi' phi): Gram and stiffness factor over dimensions.
    # The Cholesky factorisation only certifies that G is SPD; the Gram
    # solves use G^-1, formed and symmetrised here once (see VelocityBasis).
    n2 = Nv * Nv
    gram = (np.einsum("jl,km->jklm", px, qy) + np.einsum("jl,km->jklm", qx, py)).reshape(n2, n2)
    stiffness = (
        2.0 * np.einsum("jl,km->jklm", qx, qy)
        + np.einsum("jl,km->jklm", px, ry)
        + np.einsum("jl,km->jklm", rx, py)
    ).reshape(n2, n2)
    gram = 0.5 * (gram + gram.T)
    stiffness = 0.5 * (stiffness + stiffness.T)

    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - SPD by construction
        raise DomainError(f"velocity Gram matrix is not positive definite: {exc}")
    gram_inverse = np.linalg.inv(gram)
    gram_inverse = 0.5 * (gram_inverse + gram_inverse.T)

    velocity = VelocityBasis(
        Nv=Nv, Lx=Lx, Ly=Ly, gram=gram, stiffness=stiffness, gram_inverse=gram_inverse
    )

    return Domain(spec=spec, scalar=scalar, velocity=velocity, grid=grid, midpoint=midpoint)

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

Quadrature uses two tensor rules.  Per dimension, every product of the
solution in the right-hand side is a trigonometric polynomial of known
parity and degree, and a uniform midpoint rule with P = max(2 Ns,
Ns + Nv + 1) cells per side projects each one exactly:

* as plain sums, exact for cosine polynomials of degree below 2P: the
  reaction projection (C (1-C), z), of degree 3(Ns-1), the quartic work
  and diagnostic integrals, of degree 4(Ns-1), and the drag pairing
  (F(C) u, w) and D_F(C) of a quadratic mobility, of degree
  ``integrand_degree`` = 2(Ns-1) + 2(Nv+1) (two phi or two phi' factors
  per dimension: a product of two sine polynomials is a cosine one);
* through fixed analysis matrices R, (P, n): the DST-II recovers a sine
  polynomial of degree at most P from its midpoint values, and the DCT-II
  a cosine polynomial of degree below P; times the closed-form integrals
  of each mode against a basis factor, sum_i g(s_i) R[i, j] is
  int g factor_j, and a projection is Rx^T V Ry.  Advection u . grad C, a
  sine polynomial of degree Ns + Nv, goes to z this way; so does the
  Korteweg pairing, lap C C_x and lap C C_y being of degree 2(Ns-1), a
  sine in the differentiated direction and a cosine in the other.

The midpoint rule also forms the Gram and stiffness matrices, of cosine
degree 2(Nv+1), and min C, on its nodes and the walls: the solver's numbers
rest on it alone.  The Gauss-Legendre rule keeps nodal input and output
(snapshots, ``grid_to_scalar``, forcing tables and callables) and the
oracles.  Its default size M is Gauss quadrature's error bound for every
trigonometric mode up to ``integrand_degree``, in closed form
(``required_quadrature_points``), so it pairs a manufactured F(C*) u*
exactly.  One certificate, ``_certificate_failure``, checks each rule
built once: each Gauss-Legendre side for every mode up to that degree, the
midpoint rule for every cosine up to ``midpoint_degree``, and each R for
every mode of its data up to the degree it takes.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

import numpy as np

from ._record import Record

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
    """Trigonometric degree per dimension the Gauss-Legendre grid must integrate.

    2(Ns-1) + 2(Nv+1), the degree of (F(C) u, w) with a quadratic
    mobility, which a manufactured forcing F(C*) u* carries to the grid.
    The right-hand side's own products go to the midpoint rule.
    """
    return 2 * (Ns - 1) + 2 * (Nv + 1)


def midpoint_degree(Ns: int, Nv: int) -> int:
    """Cosine degree per dimension the midpoint rule must integrate.

    4(Ns-1) for the reaction work (C (1-C))^2 and for F^2 + F'^2 |grad C|^2
    with a quadratic mobility, or the drag's ``integrand_degree`` if that
    is larger; the reaction projection (C (1-C), z) needs only 3(Ns-1).
    """
    return max(4 * (Ns - 1), integrand_degree(Ns, Nv))


@lru_cache(maxsize=None)
def _rule(M: int, L: float):
    """Nodes and weights of the M-point Gauss-Legendre rule on (0, L), read-only.

    Golub & Welsch (Math. Comp. 23, 1969): the nodes on (-1, 1) are the
    eigenvalues of the Legendre Jacobi matrix, symmetric tridiagonal with
    off-diagonal k / sqrt(4k^2 - 1), k = 1 .. M-1, and the weights are
    2 v0^2, v0 the first entry of each unit eigenvector.  Both are then
    symmetrized about 0, as numpy's ``leggauss`` does; they agree with it to
    within 1e-15 (nodes) and 5e-14 (weights) for M <= 300, without loading
    ``numpy.polynomial``.
    """
    k = np.arange(1.0, M)
    jacobi = np.zeros((M, M))
    jacobi.flat[1::M + 1] = jacobi.flat[M::M + 1] = k / np.sqrt(4.0 * k * k - 1.0)
    t, v = np.linalg.eigh(jacobi)
    w = 2.0 * np.square(v[0])
    t, w = 0.5 * (t - t[::-1]), 0.5 * (w + w[::-1])
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


def required_quadrature_points(degree: int) -> int:
    """Gauss-Legendre size M for every trigonometric mode up to `degree`, in closed form.

    For f analytic in the Bernstein ellipse E_rho, an M-point rule errs on
    (-1, 1) by at most (64/15) max|f| rho^(-2(M-1)) / (rho^2 - 1) (Trefethen,
    SIAM Rev. 50, 2008, Thm 4.5, with n + 1 = M), and a mode of (0, L) up to
    `degree` is at most exp(degree pi (rho - 1/rho) / 4) there.  The
    certificate's _CERTIFY_TOL L is 2 _CERTIFY_TOL on (-1, 1), so L cancels.
    M is the smallest size whose bound meets it at some rho of a geometric
    grid (a finer grid moves no M up to degree 1000).  No rule is built.
    """
    rho = 1.0 + np.geomspace(1e-3, 1e3, 4097)
    log_terms = (math.log(64 / 15 / (2 * _CERTIFY_TOL)) + degree * np.pi * (rho - 1 / rho) / 4
                 - np.log(rho * rho - 1))
    return 1 + max(0, math.ceil(float((log_terms / (2 * np.log(rho))).min())))


def _is_integer(val) -> bool:
    """A Python or numpy integer, not a bool."""
    return isinstance(val, (int, np.integer)) and not isinstance(val, bool)


class DomainSpec(Record):
    """Rectangle geometry plus spectral and quadrature resolutions, checked
    when constructed (DomainError).

    M may be left as None for the closed-form ``required_quadrature_points``
    size; an explicit M must be an integer >= 1, and ``build_domain``
    accepts it exactly when its rule passes the certificate.
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
        for name, val in (("Ns", self.Ns), ("Nv", self.Nv), ("M", 1 if self.M is None else self.M)):
            if not (_is_integer(val) and val >= 1):
                errs.append(f"{name} must be an integer >= 1, got {val!r}")
        if errs:
            raise DomainError(*errs)


class ScalarBasis(Record, eq=False):
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

    def mass(self, B: np.ndarray) -> float:
        """Integral over the rectangle of the field with coefficients B."""
        return float(B[0, 0] * self.norm_00 * self.Lx * self.Ly)


class VelocityBasis(Record, eq=False):
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


class QuadratureGrid(Record, eq=False):
    """Gauss-Legendre tensor rule with cached basis factors at the nodes.

    All cached arrays are one-dimensional factors of the separable bases:
    scalar cosine factors (M, Ns) and streamfunction factors (M, Nv), each
    with enough derivatives for the nodal inputs, snapshots and oracles.
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

    def integrate(self, values: np.ndarray) -> float:
        """Integrate nodal values over the rectangle."""
        return float(self.wx @ values @ self.wy)


class MidpointRule(Record, eq=False):
    """Uniform P x P midpoint rule with cached basis factors at the cell midpoints.

    As a plain sum it is exact for cosine polynomials of degree below 2P
    per dimension, not for sine modes.  Per dimension, the analysis matrices
    R take midpoint values of a sine polynomial of degree at most P, or of a
    cosine polynomial of degree below P, to their exact integrals against
    each basis factor: rz against z_j, rph against phi_j (both from sine
    data) and rphd against phi_j' (from cosine data).

    The x factors are stacked, (2P, n), so that each product of a transform
    or a pairing is one 2-D BLAS call: zxs = [zx; zx'], phxs = [phx; -phx']
    and rphxs = [rphx; -rphx'], with the sign of the velocity's y component
    and of the pairings' second term folded in.  Each side of the rule,
    ``_midpoint_side``, forms them once; zx, zy, phy and rphy are views of
    its stacks, and cphxs = cell phxs is the drag pairing's left factor.
    The transforms take the y factors transposed and contiguous, zyt and
    zydt (Ns, P) and phyt and phydt (Nv, P): a transposed right operand
    makes those products about a third slower.  zxw and zywt add both
    walls to the nodes of z, for ``scalar_min``.
    """

    P: int
    cell: float  # (Lx / P) (Ly / P), the weight of every node
    zxs: np.ndarray  # (2P, Ns) cosine factors over their derivatives d/ds
    zx: np.ndarray  # (P, Ns), zxs[:P]
    zy: np.ndarray  # (P, Ns)
    zyt: np.ndarray  # (Ns, P), zy^T
    zydt: np.ndarray  # (Ns, P), zy'^T
    phxs: np.ndarray  # (2P, Nv) streamfunction factors over their negated derivatives
    cphxs: np.ndarray  # cell phxs
    phy: np.ndarray  # (P, Nv)
    phyd: np.ndarray
    phyt: np.ndarray  # (Nv, P), phy^T
    phydt: np.ndarray  # (Nv, P), phy'^T
    rzx: np.ndarray  # (P, Ns) sine data against z_j
    rzy: np.ndarray
    rphxs: np.ndarray  # (2P, Nv) sine data against phi_j over cosine data against -phi_j'
    rphy: np.ndarray  # (P, Nv) sine data against phi_j
    rphyd: np.ndarray  # (P, Nv) cosine data against phi_j'
    zxw: np.ndarray  # (P + 2, Ns), z at the midpoints, then at 0 and Lx
    zywt: np.ndarray  # (Ns, P + 2), z^T at the midpoints, then at 0 and Ly

    def integrate(self, values: np.ndarray) -> float:
        """Integrate nodal values over the rectangle."""
        return self.cell * float(values.sum())


class Domain(Record, eq=False):
    """Bundle of the discretization products for one DomainSpec.

    The midpoint transforms and pairings make each product one 2-D BLAS
    call over the stacked factors of MidpointRule.  They take a
    keyword-only ``out=``: the arrays, as each method lists them, that
    receive their stacked products, whose views they return; left as None,
    they allocate, with the same arithmetic.  Every other method allocates.
    """

    spec: DomainSpec
    scalar: ScalarBasis
    velocity: VelocityBasis
    grid: QuadratureGrid  # nodal input and output and the oracles; the solver reads none
    midpoint: MidpointRule

    # -- scalar transforms -------------------------------------------------

    def scalar_values(self, B: np.ndarray) -> np.ndarray:
        """Evaluate a coefficient matrix (Ns, Ns) on the grid, (M, M)."""
        g = self.grid
        return g.zx @ B @ g.zy.T

    def scalar_gradient_values(self, B: np.ndarray):
        """Nodal (Cx, Cy)."""
        g = self.grid
        return g.zxd @ B @ g.zy.T, g.zx @ B @ g.zyd.T

    def scalar_second_derivative_values(self, B: np.ndarray):
        """(Cxx, Cxy, Cyy) nodal values."""
        g = self.grid
        return g.zxdd @ B @ g.zy.T, g.zxd @ B @ g.zyd.T, g.zx @ B @ g.zydd.T

    def scalar_project(self, values: np.ndarray) -> np.ndarray:
        """L2 projection of nodal values onto the cosine basis, (Ns, Ns)."""
        g = self.grid
        return g.zx.T @ (g.weights * values) @ g.zy

    def scalar_gradient_pairing(self, vx: np.ndarray, vy: np.ndarray) -> np.ndarray:
        """Pair a nodal vector field against grad z[j,k] for every mode."""
        g = self.grid
        return g.zxd.T @ (g.weights * vx) @ g.zy + g.zx.T @ (g.weights * vy) @ g.zyd

    # -- velocity transforms -----------------------------------------------

    def velocity_values(self, A: np.ndarray):
        """Nodal (ux, uy) for streamfunction coefficients A, (Nv, Nv)."""
        g = self.grid
        return g.phx @ A @ g.phyd.T, -(g.phxd @ A @ g.phy.T)

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

    def velocity_pairing(self, vx: np.ndarray, vy: np.ndarray) -> np.ndarray:
        """Pair a nodal vector field against every w[j,k], (Nv, Nv)."""
        g = self.grid
        return g.phx.T @ (g.weights * vx) @ g.phyd - g.phxd.T @ (g.weights * vy) @ g.phy

    # -- midpoint rule ---------------------------------------------------------

    def midpoint_scalar_values(self, B: np.ndarray, lam_b=None, *, out=(None, None, None)):
        """(C, C_x, C_y, L) at the midpoint nodes, (P, P) each: the values of
        the coefficients B (Ns, Ns), of their x and y derivatives, and of
        lam_b, or None without it.

        Four products: zxs B and zx lam_b fill one (3P, Ns) array, whose
        product with zy^T is [C; C_x; L], and C_y is its first P rows times
        zy'^T.  `out` is (that (3P, Ns) array, the (3P, P) values, C_y), each
        2P rows without lam_b: arrays that receive them, or None to allocate.
        """
        m = self.midpoint
        P = m.P
        left, values, cy = out
        left = np.empty(((2 if lam_b is None else 3) * P, B.shape[1])) if left is None else left
        np.matmul(m.zxs, B, out=left[: 2 * P])
        if lam_b is not None:
            np.matmul(m.zx, lam_b, out=left[2 * P :])
        values = np.matmul(left, m.zyt, out=values)
        cy = np.matmul(left[:P], m.zydt, out=cy)
        return values[:P], values[P : 2 * P], cy, None if lam_b is None else values[2 * P :]

    def midpoint_velocity_values(self, A: np.ndarray, *, out=(None, None)):
        """(ux, uy) at the midpoint nodes, (P, P) each, for streamfunction coefficients A.

        phxs A, then one product of each half with a y factor.  `out` is
        (the (2P, Nv) phxs A, the (2P, P) [ux; uy]), or None to allocate.
        """
        m = self.midpoint
        P = m.P
        left, u = out
        left = np.matmul(m.phxs, A, out=left)
        u = np.empty((2 * P, P)) if u is None else u
        return np.matmul(left[:P], m.phydt, out=u[:P]), np.matmul(left[P:], m.phyt, out=u[P:])

    def scalar_min(self, B: np.ndarray) -> float:
        """min C over the midpoints and both walls of each side, (P + 2)^2 nodes:
        exact on a corner or a wall node; no node set bounds a minimum elsewhere."""
        m = self.midpoint
        return float((m.zxw @ B @ m.zywt).min())

    def midpoint_project(self, values: np.ndarray) -> np.ndarray:
        """Projection of midpoint values onto the cosine basis, (Ns, Ns), as plain sums.

        Exact when values times each basis function is a cosine polynomial
        of degree below 2P per dimension, such as C (1-C).
        """
        m = self.midpoint
        proj = m.zx.T @ values @ m.zy
        proj *= m.cell
        return proj

    def midpoint_sine_project(self, values: np.ndarray) -> np.ndarray:
        """Projection of midpoint values onto the cosine basis, (Ns, Ns), through R.

        Exact when values are a sine polynomial of degree at most P in each
        dimension, such as u . grad C.
        """
        m = self.midpoint
        return m.rzx.T @ values @ m.rzy

    def midpoint_velocity_pairing(self, vx: np.ndarray, vy: np.ndarray, *, out=None) -> np.ndarray:
        """Pair midpoint values (vx, vy) against every w[j,k], (Nv, Nv), as plain sums.

        Exact when each product with w is a cosine polynomial of degree below
        2P per dimension: vx a cosine in x and a sine in y, vy the reverse,
        as for F(C) u with a polynomial F.  `out` as for
        ``midpoint_gradient_pairing``.
        """
        m = self.midpoint
        return _stacked_pairing(m.cphxs, m.phyd, m.phy, vx, vy, out)

    def midpoint_gradient_pairing(self, vx: np.ndarray, vy: np.ndarray, *, out=None) -> np.ndarray:
        """Pair midpoint values (vx, vy) against every w[j,k], (Nv, Nv), through R.

        Exact for fields with the parity of a gradient, such as lap C grad C:
        vx a sine polynomial of degree at most P in x and a cosine one of
        degree below P in y, vy the reverse.  Three products: vx and vy
        times their y factors fill one (2P, Nv) array, `out` if given, and
        the stacked x factor pairs it.
        """
        m = self.midpoint
        return _stacked_pairing(m.rphxs, m.rphyd, m.rphy, vx, vy, out)

    def weighted_gram(self, values: np.ndarray) -> np.ndarray:
        """(values w_q, w_r) for every pair of velocity modes, (Nv^2, Nv^2).

        `values` are at the midpoint nodes, and the pairs are plain midpoint
        sums: exact where ``midpoint_velocity_pairing(values ux, values uy)``
        is, which it equals times the flattened coefficients.
        Sum-factorised: the values are contracted with the weighted products
        of the y factors first, then with those of the x factors, at
        O(P^2 Nv^2 + P Nv^4).
        """
        Nv = self.spec.Nv
        n2 = Nv * Nv
        px, pxd, py_pyd = self._stream_pair_factors
        fy = values @ py_pyd
        d = px @ fy[:, n2:] + pxd @ fy[:, :n2]
        return d.reshape(Nv, Nv, Nv, Nv).transpose(0, 2, 1, 3).reshape(n2, n2)

    @cached_property
    def _stream_pair_factors(self):
        """Products phi_j phi_l of the midpoint streamfunction factors for weighted_gram.

        (phx phx)^T and (phxd phxd)^T, (Nv^2, P), and the cell weight times
        [phy phy | phyd phyd], (P, 2 Nv^2); pair column j Nv + l holds factor
        j times factor l.
        """
        m = self.midpoint
        P, Nv = m.P, self.spec.Nv

        def pairs(p):  # -phi' gives the products of phi', exactly
            return (p[:, :, None] * p[:, None, :]).reshape(p.shape[0], Nv * Nv)

        return (np.ascontiguousarray(pairs(m.phxs[:P]).T),
                np.ascontiguousarray(pairs(m.phxs[P:]).T),
                m.cell * np.hstack([pairs(m.phy), pairs(m.phyd)]))


def _stacked_pairing(left, yx, yy, vx, vy, out):
    """left^T [vx yx; vy yy]: two right products into one (2P, n) array, `out`
    if given, then one left product with the stacked x factor `left`."""
    P = vx.shape[0]
    out = np.empty((2 * P, yx.shape[1])) if out is None else out
    np.matmul(vx, yx, out=out[:P])
    np.matmul(vy, yy, out=out[P:])
    return left.T @ out


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


_MODE = {"cos": np.cos, "sin": np.sin}
# The unit function as a factor: (kind, coefficients), whose columns expand
# functions in cos(n pi s / L) or sin(n pi s / L), n = 0, 1, ... (see
# _factor_expansions).
_UNIT = ("cos", np.ones((1, 1)))


def _mode_integrals(kind_a, a, kind_b, b, L):
    """int_0^L of mode a of kind_a times mode b of kind_b, closed form, (len(a), len(b)).

    A mode of kind "cos" or "sin" and index n is cos(n pi s / L) or sin(n pi s / L).
    """
    a, b = a[:, None], b[None, :]
    if kind_a == kind_b:
        # Orthogonal: L/2 on the diagonal, L for cos 0 cos 0 and 0 for sin 0 sin 0.
        return np.where(a == b, np.where(a == 0, L if kind_a == "cos" else 0.0, 0.5 * L), 0.0)
    s, c = (a, b) if kind_a == "sin" else (b, a)
    # int_0^pi sin(s t) cos(c t) dt is 2 s / (s^2 - c^2) when s + c is odd, else 0.
    return np.divide(2.0 * L * s, np.pi * (s * s - c * c), out=np.zeros(np.broadcast(s, c).shape),
                     where=(s + c) % 2 == 1)


def _factor_expansions(L: float, norm: np.ndarray, Nv: int):
    """z_j, phi_j and phi_j' on (0, L) as factors (kind, coefficients).

    With t = pi s / L: z_j = norm_j cos(j t), phi_j = (cos((j-1) t) -
    cos((j+1) t)) / 2 and phi_j' = (pi / L) ((j+1) sin((j+1) t) -
    (j-1) sin((j-1) t)) / 2; column j-1 holds factor j of phi and phi'.
    """
    j = np.arange(1, Nv + 1)
    phi = np.zeros((Nv + 2, Nv))
    dphi = np.zeros((Nv + 2, Nv))
    phi[j - 1, j - 1] = 0.5
    phi[j + 1, j - 1] = -0.5
    dphi[j + 1, j - 1] = 0.5 * (np.pi / L) * (j + 1)
    dphi[j - 1, j - 1] = -0.5 * (np.pi / L) * (j - 1)
    return ("cos", np.diag(norm)), ("cos", phi), ("sin", dphi)


def _analysis_matrix(kind, P: int, L: float, factor):
    """R, (P, k): midpoint values of a `kind` polynomial to its integrals against each factor.

    The P midpoints resolve sin(n pi s / L) for 1 <= n <= P through the
    DST-II and cos(n pi s / L) for 0 <= n < P through the DCT-II; both are
    orthogonal, so the analysis is the transposed basis scaled by 2/P, or
    1/P for the modes P and 0.  R is that analysis times the closed-form
    integrals of each mode against each factor.
    """
    n = np.arange(1, P + 1) if kind == "sin" else np.arange(P)
    theta = np.pi * (np.arange(P) + 0.5) / P
    weight = np.where((n == 0) | (n == P), 1.0 / P, 2.0 / P)
    kind_f, coeffs = factor
    exact = _mode_integrals(kind, n, kind_f, np.arange(len(coeffs)), L) @ coeffs
    return _MODE[kind](np.outer(theta, n)) @ (weight[:, None] * exact)


def _certificate_failure(x, w, L, degree, *, modes="trig", factor=_UNIT, rule="quadrature"):
    """Why the 1D rule w at the nodes x of (0, L) fails the certificate, or None if it passes.

    `w` is a rule's weights, (n,), or an analysis matrix R, (n, k), against
    the k functions of `factor`, the unit function unless given.  Every
    cos(m pi s / L), 0 <= m <= degree, and every sin(m pi s / L),
    1 <= m <= degree, must give its closed-form integral against each
    function to within _CERTIFY_TOL L times the function's coefficient sum,
    a bound on its size (1 for the unit).  `modes` "cos" or "sin" checks one
    kind only: a plain midpoint rule is exact for cosines alone, and an R
    takes data of one kind.
    """
    kind_f, coeffs = factor
    w = w.reshape(x.size, -1)
    scale = np.abs(coeffs).sum(axis=0)
    worst = 0.0
    for kind in ("cos", "sin") if modes == "trig" else (modes,):
        m = np.arange(int(kind == "sin"), degree + 1)
        exact = _mode_integrals(kind, m, kind_f, np.arange(len(coeffs)), L) @ coeffs
        err = np.abs(_MODE[kind](np.outer(m, np.pi * x / L)) @ w - exact) / scale
        worst = max(worst, float(err.max(initial=0.0)))
    if worst > _CERTIFY_TOL * L:
        label = {"trig": "trig", "cos": "cosine", "sin": "sine"}[modes]
        return (f"{rule} certification failed: worst {label}-mode error {worst:.3e} "
                f"exceeds {_CERTIFY_TOL * L:.3e} at degree {degree}")
    return None


@lru_cache(maxsize=None)
def _midpoint_side(P: int, L: float, Ns: int, Nv: int):
    """One side of the P-cell midpoint rule on (0, L), read-only, and its certificate failures.

    The factors z, z', phi and phi' at the midpoints and the R matrices
    against z, phi (sine data) and phi' (cosine data), each certified up to
    the degree of the products it takes (see ``build_domain``); the plain
    rule is certified for cosines up to ``midpoint_degree``.  They come as
    MidpointRule takes them: [z; z'], [phi; -phi'], phi', R_z,
    [R_phi; -R_phi'], R_phi', z^T, z'^T, phi^T and phi'^T, the stacks and
    transposes holding the certified arrays' values exactly; z at the
    midpoints and walls, (P + 2, Ns), transposed and not; and the 1-D Gram
    and stiffness blocks (L/P) f^T f of f = phi, phi' and phi'', exact as
    cosines of degree 2(Nv+1) <= ``midpoint_degree``.
    """
    s, w = _midpoint_nodes(P, L)
    norm, z, zd, _ = _scalar_factors(s, L, Ns)
    phi, phid, phidd, _ = _stream_factors(s, L, Nv)
    failures = [_certificate_failure(s, w, L, midpoint_degree(Ns, Nv), modes="cos",
                                     rule="midpoint")]
    z_factor, phi_factor, dphi_factor = _factor_expansions(L, norm, Nv)
    analyses = []
    for rule, kind, factor, degree in (("R_sin->z", "sin", z_factor, Ns + Nv),
                                       ("R_sin->phi", "sin", phi_factor, 2 * (Ns - 1)),
                                       ("R_cos->phi'", "cos", dphi_factor, 2 * (Ns - 1))):
        R = _analysis_matrix(kind, P, L, factor)
        failures.append(_certificate_failure(s, R, L, degree, modes=kind, factor=factor,
                                             rule=rule))
        analyses.append(R)
    rz, rphi, rphid = analyses
    zw = np.vstack([z, norm, norm * (-1.0) ** np.arange(Ns)])  # z_j(0) = n_j, z_j(L) = (-1)^j n_j
    arrays = (np.vstack([z, zd]), np.vstack([phi, -phid]), phid, rz, np.vstack([rphi, -rphid]),
              rphid, *(np.ascontiguousarray(a.T) for a in (z, zd, phi, phid, zw)), zw,
              *((f.T @ f) * (L / P) for f in (phi, phid, phidd)))
    for a in arrays:
        a.flags.writeable = False  # shared by every domain with this side
    return arrays, failures


def build_domain(spec: DomainSpec) -> Domain:
    """Construct scalar basis, velocity basis, and both certified quadratures.

    The Gauss-Legendre rule must integrate exactly up to
    ``integrand_degree(Ns, Nv)``; an unset ``spec.M`` takes the closed-form
    ``required_quadrature_points``.  The midpoint rule has
    P = max(2 Ns, Ns + Nv + 1) cells per side: the drag needs Ns + Nv < P,
    advection Ns + Nv <= P, and the reaction work and the Korteweg pairing
    2 Ns - 1 <= P.  Each rule built is certified once: each distinct
    Gauss-Legendre side here, for a default or an explicit M, and each
    midpoint side when ``_midpoint_side`` first builds it, cached and
    read-only.  Deterministic for equal arguments.  Raises DomainError,
    listing every failure, when a rule fails its exactness certification.
    """
    Ns, Nv, Lx, Ly = spec.Ns, spec.Nv, spec.Lx, spec.Ly
    degree = integrand_degree(Ns, Nv)
    default = required_quadrature_points(degree)
    M = default if spec.M is None else int(spec.M)
    x, wx = _rule(M, Lx)
    y, wy = _rule(M, Ly)
    norm_x, zx, zxd, zxdd = _scalar_factors(x, Lx, Ns)
    norm_y, zy, zyd, zydd = _scalar_factors(y, Ly, Ns)
    failures = [_certificate_failure(*_rule(M, L), L, degree, rule=f"Gauss-Legendre M={M} "
                                     f"(default {default}) on (0, {L:.6g})")
                for L in dict.fromkeys((Lx, Ly))]

    P = max(2 * Ns, Ns + Nv + 1)
    (zxs, phxs, _, rzx, rphxs, *_, zxw, px, qx, rx), fails_x = _midpoint_side(P, Lx, Ns, Nv)
    (zys, phys, phyd, rzy, rphys, rphyd, zyt, zydt, phyt, phydt, zywt, _, py, qy, ry), fails_y = (
        _midpoint_side(P, Ly, Ns, Nv))
    failures += fails_x + fails_y
    if any(failures):
        raise DomainError(*filter(None, failures))
    cell = float(Lx / P * (Ly / P))
    cphxs = cell * phxs
    cphxs.flags.writeable = False
    midpoint = MidpointRule(P=P, cell=cell, zxs=zxs, zx=zxs[:P], zy=zys[:P], zyt=zyt, zydt=zydt,
                            phxs=phxs, cphxs=cphxs, phy=phys[:P], phyd=phyd, phyt=phyt,
                            phydt=phydt, rzx=rzx, rzy=rzy, rphxs=rphxs, rphy=rphys[:P],
                            rphyd=rphyd, zxw=zxw, zywt=zywt)
    phx, phxd, phxdd, phxddd = _stream_factors(x, Lx, Nv)
    phy, phyd, phydd, phyddd = _stream_factors(y, Ly, Nv)

    jj = (np.arange(Ns) * np.pi / Lx) ** 2
    kk = (np.arange(Ns) * np.pi / Ly) ** 2
    scalar = ScalarBasis(Ns=Ns, Lx=Lx, Ly=Ly, eigenvalues=jj[:, None] + kk[None, :],
                         norm_x=norm_x, norm_y=norm_y)
    grid = QuadratureGrid(M=M, x=x, y=y, wx=wx, wy=wy, weights=np.outer(wx, wy),
                          zx=zx, zxd=zxd, zxdd=zxdd, zy=zy, zyd=zyd, zydd=zydd,
                          phx=phx, phxd=phxd, phxdd=phxdd, phxddd=phxddd,
                          phy=phy, phyd=phyd, phydd=phydd, phyddd=phyddd)

    # w = (phi phi', -phi' phi): Gram and stiffness factor over dimensions
    # into the midpoint rule's 1-D blocks p, q and r of phi, phi' and phi''.
    # The Cholesky factorisation only certifies that G is SPD; the Gram
    # solves use G^-1, formed and symmetrised here once (see VelocityBasis).
    gram = np.kron(px, qy) + np.kron(qx, py)
    stiffness = 2.0 * np.kron(qx, qy) + np.kron(px, ry) + np.kron(rx, py)
    gram = 0.5 * (gram + gram.T)
    stiffness = 0.5 * (stiffness + stiffness.T)

    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - SPD by construction
        raise DomainError(f"velocity Gram matrix is not positive definite: {exc}")
    gram_inverse = np.linalg.inv(gram)
    gram_inverse = 0.5 * (gram_inverse + gram_inverse.T)

    velocity = VelocityBasis(Nv=Nv, Lx=Lx, Ly=Ly, gram=gram, stiffness=stiffness,
                             gram_inverse=gram_inverse)
    return Domain(spec=spec, scalar=scalar, velocity=velocity, grid=grid, midpoint=midpoint)

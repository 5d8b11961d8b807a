import math

import numpy as np
import pytest

from poromix import (
    DomainError,
    DomainSpec,
    GalerkinSystem,
    KortewegParams,
    MobilitySpec,
    PhysicalParams,
    ScalarField,
    SimulationState,
    VelocityField,
    build_domain,
    grid_to_scalar,
    integrand_degree,
    midpoint_degree,
    mobility_evaluate,
    required_quadrature_points,
    rhs_concentration,
    rhs_velocity,
)
from poromix.domain import (_analysis_matrix, _certificate_failure, _factor_expansions,
                            _midpoint_nodes)
from poromix.solver import _WORK_FIELDS

from conftest import random_scalar


def test_eigenvalues_pi_square_ns2():
    dom = build_domain(DomainSpec(Lx=math.pi, Ly=math.pi, Ns=2, Nv=1))
    lam = dom.scalar.eigenvalues
    assert lam[0, 0] == 0.0
    assert np.allclose(lam, [[0.0, 1.0], [1.0, 2.0]], atol=1e-14)


def test_eigenvalues_nondecreasing_along_indices(rect_domain):
    lam = rect_domain.scalar.eigenvalues
    assert np.all(np.diff(lam, axis=0) >= 0)
    assert np.all(np.diff(lam, axis=1) >= 0)


def test_ns1_single_constant_mode():
    dom = build_domain(DomainSpec(Lx=math.pi, Ly=math.pi, Ns=1, Nv=1))
    assert dom.scalar.eigenvalues.shape == (1, 1)
    assert dom.scalar.eigenvalues[0, 0] == 0.0
    # The constant mode evaluates to 1/sqrt(area) everywhere.
    vals = dom.scalar_values(np.array([[1.0]]))
    assert np.allclose(vals, 1.0 / math.pi, atol=1e-14)


def test_gram_nv1_matches_hand_expansion():
    # psi = sin^2 x sin^2 y on (0, pi)^2:
    #   int |w|^2 = 2 * int sin^2(2x) dx * int sin^4 y dy = 2 (pi/2)(3 pi/8)
    dom = build_domain(DomainSpec(Lx=math.pi, Ly=math.pi, Ns=2, Nv=1))
    expected = 3.0 * math.pi**2 / 8.0
    assert dom.velocity.gram.shape == (1, 1)
    assert abs(dom.velocity.gram[0, 0] - expected) <= 1e-10
    # Cross-check against an oversampled rule.
    fine = build_domain(DomainSpec(Lx=math.pi, Ly=math.pi, Ns=2, Nv=1, M=4 * dom.grid.M))
    assert abs(fine.velocity.gram[0, 0] - dom.velocity.gram[0, 0]) <= 1e-10


def test_scalar_basis_orthonormal(pi_domain):
    g = pi_domain.grid
    gram_x = g.zx.T @ (g.wx[:, None] * g.zx)
    gram_y = g.zy.T @ (g.wy[:, None] * g.zy)
    Ns = pi_domain.spec.Ns
    gram_2d = np.einsum("jl,km->jklm", gram_x, gram_y).reshape(Ns * Ns, Ns * Ns)
    assert np.abs(gram_2d - np.eye(Ns * Ns)).max() <= 1e-12


def test_quadrature_integrates_constants(rect_domain):
    area = rect_domain.spec.Lx * rect_domain.spec.Ly
    assert abs(rect_domain.grid.area - area) <= 1e-13 * area
    ones = np.ones((rect_domain.grid.M, rect_domain.grid.M))
    assert abs(rect_domain.grid.integrate(ones) - area) <= 1e-13 * area


def test_velocity_divergence_free_on_grid(rect_domain):
    Nv = rect_domain.spec.Nv
    for j in range(Nv):
        for k in range(Nv):
            A = np.zeros((Nv, Nv))
            A[j, k] = 1.0
            dux_dx, _, _, duy_dy = rect_domain.velocity_gradient_values(A)
            assert np.abs(dux_dx + duy_dy).max() <= 1e-12


def test_velocity_no_slip_and_scalar_neumann_on_boundary(rect_domain):
    from poromix.domain import _scalar_factors, _stream_factors

    spec = rect_domain.spec
    for L, n in ((spec.Lx, spec.Ns), (spec.Ly, spec.Ns)):
        ends = np.array([0.0, L])
        _, _, zd, _ = _scalar_factors(ends, L, n)
        assert np.abs(zd).max() <= 1e-12  # d z / d normal = 0 at the walls
    for L, n in ((spec.Lx, spec.Nv), (spec.Ly, spec.Nv)):
        ends = np.array([0.0, L])
        v, d, _, _ = _stream_factors(ends, L, n)
        assert np.abs(v).max() <= 1e-12  # phi = 0: both velocity components vanish
        assert np.abs(d).max() <= 1e-12  # phi' = 0


def test_gram_and_stiffness_symmetric_spd(rect_domain):
    G = rect_domain.velocity.gram
    S = rect_domain.velocity.stiffness
    assert np.abs(G - G.T).max() == 0.0
    assert np.abs(S - S.T).max() == 0.0
    assert np.linalg.eigvalsh(G).min() > 0


@pytest.mark.parametrize("Lx, Ly, Ns, Nv", [(math.pi, math.pi, 16, 4), (math.pi, math.pi, 32, 8),
                                            (math.pi, math.pi, 64, 16), (2.0, 1.0, 16, 4)])
def test_gram_solve_matches_dense_solve(Lx, Ly, Ns, Nv):
    # solve_gram is one product with the build-time G^-1; np.linalg.solve
    # (LU) is the independent reference.
    vel = build_domain(DomainSpec(Lx=Lx, Ly=Ly, Ns=Ns, Nv=Nv)).velocity
    assert np.array_equal(vel.gram_inverse, vel.gram_inverse.T)
    rng = np.random.default_rng(Ns + Nv)
    for _ in range(5):
        r = rng.standard_normal(Nv * Nv)
        ref = np.linalg.solve(vel.gram, r)
        assert np.abs(vel.solve_gram(r) - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("Ns, Nv, expected", [(16, 4, 46.29284794999079),
                                              (32, 8, 166.4561165323075)])
def test_rho_viscous_matches_cholesky_value(Ns, Nv, expected):
    # mu_e ||G^-1 S||_inf with mu_e = 1, as two triangular Cholesky solves gave it.
    dom = build_domain(DomainSpec(Lx=math.pi, Ly=math.pi, Ns=Ns, Nv=Nv))
    rho = GalerkinSystem(dom, PhysicalParams(mu_e=1.0, d=1.0)).rho_viscous
    assert abs(rho - expected) <= 1e-13 * expected


@pytest.mark.parametrize("mobility", ["exponential", "negative_polynomial"])
def test_weighted_gram_is_the_drag_pairing(rect_domain, mobility):
    # D_F(C) alpha = (F u, w) for every mode, whatever the sign of F: the
    # sum-factorised matrix against the solver's midpoint drag pairing.
    dom = rect_domain
    B = random_scalar(dom, seed=3, scale=0.5, decay=False).coeffs
    A = np.random.default_rng(4).standard_normal((dom.spec.Nv, dom.spec.Nv))
    cm = dom.midpoint_scalar_values(B)[0]
    F = np.exp(2.0 * cm) if mobility == "exponential" else 0.1 - 1.5 * cm + 0.4 * cm**2
    assert (F.min() < 0.0) == (mobility == "negative_polynomial")
    ux, uy = dom.midpoint_velocity_values(A)
    ref = dom.midpoint_velocity_pairing(F * ux, F * uy).reshape(-1)
    got = dom.weighted_gram(F) @ A.reshape(-1)
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
    ones = np.ones_like(cm)
    assert np.abs(dom.weighted_gram(ones) - dom.velocity.gram).max() <= 1e-13


def test_build_rejects_bad_specs():
    with pytest.raises(DomainError, match="Lx"):
        build_domain(DomainSpec(Lx=-1.0, Ly=1.0, Ns=4, Nv=1))
    with pytest.raises(DomainError, match="exactness threshold"):
        build_domain(DomainSpec(Lx=1.0, Ly=1.0, Ns=8, Nv=2, M=10))
    with pytest.raises(DomainError, match="Ns"):
        build_domain(DomainSpec(Lx=1.0, Ly=1.0, Ns=0, Nv=1))


def _certifies(M, degree, L):
    t, w = np.polynomial.legendre.leggauss(M)
    return _certificate_failure(0.5 * L * (t + 1.0), 0.5 * L * w, L, degree) is None


def test_required_points_are_smallest_certified():
    sizes = [
        # (Lx, Ly, Ns, Nv): default dynamics grids ...
        (math.pi, math.pi, 16, 4),
        (math.pi, math.pi, 32, 8),
        (2.0, 1.0, 10, 3),
        # ... and a velocity-heavy grid (Nv > Ns + 6).
        (math.pi, math.pi, 2, 9),
    ]
    for Lx, Ly, Ns, Nv in sizes:
        degree = integrand_degree(Ns, Nv)
        M = build_domain(DomainSpec(Lx=Lx, Ly=Ly, Ns=Ns, Nv=Nv)).grid.M
        assert M == required_quadrature_points(degree, Lx, Ly)
        assert _certifies(M, degree, Lx) and _certifies(M, degree, Ly)
        assert not (_certifies(M - 1, degree, Lx) and _certifies(M - 1, degree, Ly))
        with pytest.raises(DomainError, match="exactness threshold"):
            build_domain(DomainSpec(Lx=Lx, Ly=Ly, Ns=Ns, Nv=Nv, M=M - 1))


def test_velocity_heavy_grid_matches_oversampled_rule():
    # With Nv > Ns + 6 the old 2(2Nv+2) point floor exceeded the certified
    # size; the certified rule alone already integrates the Gram and
    # stiffness matrices and both right-hand sides exactly.
    spec = DomainSpec(Lx=math.pi, Ly=math.pi, Ns=2, Nv=9)
    dom = build_domain(spec)
    fine = build_domain(DomainSpec(spec.Lx, spec.Ly, spec.Ns, spec.Nv, M=4 * dom.grid.M))
    assert dom.grid.M < 2 * (2 * spec.Nv + 2)
    for f, c in ((fine.velocity.gram, dom.velocity.gram),
                 (fine.velocity.stiffness, dom.velocity.stiffness)):
        assert np.abs(c - f).max() <= 1e-12 * np.abs(f).max()
    params = PhysicalParams(
        mu_e=0.1, d=0.1, kappa=1.0,
        korteweg=KortewegParams(delta_hat=0.1, gamma=0.05),
        mobility=MobilitySpec.polynomial(1.0, 0.5, 0.25),
    )
    rng = np.random.default_rng(7)
    B = rng.standard_normal((spec.Ns, spec.Ns))
    A = rng.standard_normal((spec.Nv, spec.Nv)) / (1.0 + np.arange(spec.Nv))[:, None]

    def rates(d):
        state = SimulationState(0.0, ScalarField(d, B), VelocityField(d, A))
        return rhs_concentration(state, params).coeffs, rhs_velocity(state, params).coeffs

    for c, f in zip(rates(dom), rates(fine)):
        assert np.abs(c - f).max() <= 1e-12 * np.abs(f).max()


@pytest.mark.parametrize("Ns", [5, 6])
@pytest.mark.parametrize("Lx, Ly", [(math.pi, math.pi), (2.0, 1.0)])
def test_midpoint_reaction_work_matches_fine_gauss_legendre(Lx, Ly, Ns):
    # The solver's int (C (1-C))^2 on the 2 Ns-cell midpoint rule against a
    # Gauss-Legendre rule four times the size of the certified one.
    dom = build_domain(DomainSpec(Lx=Lx, Ly=Ly, Ns=Ns, Nv=2))
    fine = build_domain(DomainSpec(Lx=Lx, Ly=Ly, Ns=Ns, Nv=2, M=4 * dom.grid.M))
    assert dom.midpoint.P == 2 * Ns
    B = random_scalar(dom, seed=Ns).coeffs
    B[0, 0] += 0.5 / dom.scalar.norm_00
    system = GalerkinSystem(dom, PhysicalParams(mu_e=1.0, d=1.0))
    y = system.pack(ScalarField(dom, B), VelocityField(dom, np.zeros((2, 2))))
    got = system.rhs(0.0, y)[system.ns2 + system.nv2 + _WORK_FIELDS.index("i_cc")]
    cg = fine.scalar_values(B)
    want = fine.grid.integrate((cg * (1.0 - cg)) ** 2)
    assert abs(got - want) <= 1e-13 * want


@pytest.mark.parametrize("Ns", [5, 6])
@pytest.mark.parametrize("Lx, Ly", [(math.pi, math.pi), (2.0, 1.0)])
def test_midpoint_reaction_projection_matches_fine_gauss_legendre(Lx, Ly, Ns):
    # The solver's reaction projection: (C (1-C), z) is a cosine polynomial
    # of degree 3(Ns-1) < 2P, so the 2 Ns-cell midpoint rule projects it as
    # a Gauss-Legendre rule four times the size of the certified one does.
    dom = build_domain(DomainSpec(Lx=Lx, Ly=Ly, Ns=Ns, Nv=2))
    fine = build_domain(DomainSpec(Lx=Lx, Ly=Ly, Ns=Ns, Nv=2, M=4 * dom.grid.M))
    assert 3 * (Ns - 1) < 2 * dom.midpoint.P
    B = random_scalar(dom, seed=Ns).coeffs
    B[0, 0] += 0.5 / dom.scalar.norm_00
    cm = dom.midpoint_scalar_values(B)[0]
    got = dom.midpoint_project(cm * (1.0 - cm))
    cg = fine.scalar_values(B)
    want = fine.scalar_project(cg * (1.0 - cg))
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("Lx, Ly, Ns, Nv", [(math.pi, math.pi, 16, 4), (math.pi, math.pi, 32, 8),
                                            (2.0, 1.0, 10, 3)])
def test_gram_and_drag_matrices_are_cosine_polynomials(Lx, Ly, Ns, Nv):
    # Per direction, (w_q, w_r) and (F(C) w_q, w_r) pair two phi's or two
    # phi''s, and a product of two sine polynomials is a cosine polynomial:
    # the midpoint rule gives G, and D_F of a quadratic mobility, as the
    # certified Gauss-Legendre grid does.  The oracle is independent of
    # weighted_gram: the same pairs written out on the Gauss-Legendre grid.
    dom = build_domain(DomainSpec(Lx=Lx, Ly=Ly, Ns=Ns, Nv=Nv))
    g = dom.grid
    wx = np.einsum("xj,yk->jkxy", g.phx, g.phyd).reshape(Nv * Nv, -1)
    wy = np.einsum("xj,yk->jkxy", g.phxd, g.phy).reshape(Nv * Nv, -1)
    B = random_scalar(dom, seed=Ns).coeffs
    mobility = MobilitySpec.polynomial(1.0, 0.5, 0.25)
    cases = ((np.ones((dom.midpoint.P,) * 2), np.ones((g.M, g.M))),
             (mobility_evaluate(mobility, dom.midpoint_scalar_values(B)[0]),
              mobility_evaluate(mobility, dom.scalar_values(B))))
    for f_mid, f_grid in cases:
        fw = (g.weights * f_grid).reshape(-1)
        want = (wx * fw) @ wx.T + (wy * fw) @ wy.T
        got = dom.weighted_gram(f_mid)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("Lx, Ly, Ns, Nv", [(math.pi, math.pi, 8, 2), (math.pi, math.pi, 16, 4),
                                            (2.0, 1.0, 8, 2), (2.0, 1.0, 16, 4),
                                            (math.pi, math.pi, 2, 9)])
def test_midpoint_products_match_oversampled_gauss_legendre(Lx, Ly, Ns, Nv):
    # Every product of the right-hand side on the midpoint rule against the
    # same product paired on a Gauss-Legendre grid four times the certified
    # size: advection through R_sin->z, the Korteweg pairing through
    # R_sin->phi and R_cos->phi', the drag pairing and D_F as plain sums.
    # 2/9 has Nv > Ns, where P = Ns + Nv + 1 exceeds 2 Ns.
    dom = build_domain(DomainSpec(Lx=Lx, Ly=Ly, Ns=Ns, Nv=Nv))
    fine = build_domain(DomainSpec(Lx=Lx, Ly=Ly, Ns=Ns, Nv=Nv, M=4 * dom.grid.M))
    assert dom.midpoint.P == max(2 * Ns, Ns + Nv + 1)
    rng = np.random.default_rng(Ns + Nv)
    B = rng.standard_normal((Ns, Ns))
    A = rng.standard_normal((Nv, Nv))
    lam_b = dom.scalar.eigenvalues * B  # -lap C

    def F(c):
        return 0.5 + 0.4 * c + 0.3 * c**2

    cm, cx, cy, lm = dom.midpoint_scalar_values(B, lam_b)
    ux, uy = dom.midpoint_velocity_values(A)
    cg, lg = fine.scalar_values(B), fine.scalar_values(lam_b)
    gx, gy = fine.scalar_gradient_values(B)
    vx, vy = fine.velocity_values(A)
    drag = fine.velocity_pairing(F(cg) * vx, F(cg) * vy)
    for got, want in ((dom.midpoint_sine_project(ux * cx + uy * cy),
                       fine.scalar_project(vx * gx + vy * gy)),
                      (dom.midpoint_gradient_pairing(lm * cx, lm * cy),
                       fine.velocity_pairing(lg * gx, lg * gy)),
                      (dom.midpoint_velocity_pairing(F(cm) * ux, F(cm) * uy), drag),
                      (dom.weighted_gram(F(cm)) @ A.reshape(-1), drag.reshape(-1))):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_midpoint_rule_one_cell_too_coarse_fails_cosine_certificate():
    for Ns in (5, 6):
        degree = midpoint_degree(Ns, 2)
        for L in (math.pi, 1.0):
            assert _certificate_failure(*_midpoint_nodes(2 * Ns, L), L, degree, modes="cos",
                                        rule="midpoint") is None
            assert _certificate_failure(*_midpoint_nodes(2 * (Ns - 1), L), L, degree, modes="cos",
                                        rule="midpoint").startswith(
                "midpoint certification failed: worst cosine-mode error")
            # Not a rule for sines: the Gauss-Legendre certificate rejects it.
            assert _certificate_failure(*_midpoint_nodes(2 * Ns, L), L, degree).startswith(
                "quadrature certification failed: worst trig-mode error")


def test_analysis_matrix_one_cell_too_coarse_fails_its_certificate():
    # P midpoints resolve sines up to degree P and cosines below P.  Each R,
    # at the degree build_domain certifies it for (Ns + Nv for advection,
    # 2(Ns-1) for the Korteweg pairing), passes at the fewest cells that
    # resolve its data and fails with one cell fewer.
    Ns, Nv = 6, 3
    for L in (math.pi, 1.0):
        z, phi, dphi = _factor_expansions(L, np.ones(Ns), Nv)
        for kind, factor, degree, P in (("sin", z, Ns + Nv, Ns + Nv),
                                        ("sin", phi, 2 * (Ns - 1), 2 * (Ns - 1)),
                                        ("cos", dphi, 2 * (Ns - 1), 2 * Ns - 1)):
            for cells in (P, P - 1):
                R = _analysis_matrix(kind, cells, L, factor)
                failure = _certificate_failure(_midpoint_nodes(cells, L)[0], R, L, degree,
                                               modes=kind, factor=factor, rule="R")
                if cells == P:
                    assert failure is None
                else:
                    label = "sine" if kind == "sin" else "cosine"
                    assert failure.startswith(f"R certification failed: worst {label}-mode error")


def test_build_is_deterministic():
    a = build_domain(DomainSpec(Lx=1.5, Ly=0.5, Ns=4, Nv=2))
    b = build_domain(DomainSpec(Lx=1.5, Ly=0.5, Ns=4, Nv=2))
    assert np.array_equal(a.grid.x, b.grid.x)
    assert np.array_equal(a.velocity.gram, b.velocity.gram)
    assert np.array_equal(a.scalar.eigenvalues, b.scalar.eigenvalues)


def test_scalar_to_grid_constant(pi_domain):
    C = ScalarField(pi_domain, np.zeros((6, 6)))
    C = ScalarField(pi_domain, _set(C.coeffs, (0, 0), 1.0 / pi_domain.scalar.norm_00))
    assert np.allclose(pi_domain.scalar_values(C.coeffs), 1.0, atol=1e-13)


def test_scalar_to_grid_single_mode(pi_domain):
    s = pi_domain.scalar
    B = np.zeros((6, 6))
    B[1, 0] = 1.0 / (s.norm_x[1] * s.norm_y[0])
    vals = pi_domain.scalar_values(B)
    expected = np.cos(pi_domain.grid.x)[:, None] * np.ones_like(pi_domain.grid.y)[None, :]
    assert np.abs(vals - expected).max() <= 1e-13


def test_grid_roundtrip_random(pi_domain):
    C = random_scalar(pi_domain, seed=3, decay=False)
    back = grid_to_scalar(pi_domain, pi_domain.scalar_values(C.coeffs))
    assert np.abs(back.coeffs - C.coeffs).max() <= 1e-12


def _set(arr, idx, value):
    out = arr.copy()
    out[idx] = value
    return out


def test_midpoint_out_gives_the_allocating_results_bit_for_bit(rect_domain):
    # The midpoint transforms and pairings write their products into the
    # buffers GalerkinSystem owns; every other method allocates.  Given or
    # not, the buffers hold the same bytes, and the values are views of them.
    dom = rect_domain
    rng = np.random.default_rng(5)
    B = rng.standard_normal((dom.spec.Ns, dom.spec.Ns))
    A = rng.standard_normal((dom.spec.Nv, dom.spec.Nv))
    vx, vy = rng.standard_normal((2, dom.midpoint.P, dom.midpoint.P))
    P, Ns, Nv = dom.midpoint.P, dom.spec.Ns, dom.spec.Nv

    def nan(*shape):
        return np.full(shape, np.nan)

    for lam_b, rows in ((None, 2 * P), (dom.scalar.eigenvalues * B, 3 * P)):
        out = (nan(rows, Ns), nan(rows, P), nan(P, P))
        got = dom.midpoint_scalar_values(B, lam_b, out=out)
        want = dom.midpoint_scalar_values(B, lam_b)
        c, cx, cy, values = got
        assert (values is None) == (lam_b is None) and cy is out[2]
        assert all(g.base is out[1] for g in (c, cx, values) if g is not None)
        assert [g.tobytes() for g in got if g is not None] == [
            w.tobytes() for w in want if w is not None]
    out = (nan(2 * P, Nv), nan(2 * P, P))
    got = dom.midpoint_velocity_values(A, out=out)
    assert all(g.base is out[1] for g in got)
    assert [g.tobytes() for g in got] == [w.tobytes() for w in dom.midpoint_velocity_values(A)]
    # The contiguous y factors phy'^T and phy^T give the products of their
    # transposed views.
    m = dom.midpoint
    assert m.phydt.flags.c_contiguous and m.phyt.flags.c_contiguous
    left = m.phxs @ A
    assert [g.tobytes() for g in got] == [(left[:P] @ m.phyd.T).tobytes(),
                                          (left[P:] @ m.phy.T).tobytes()]
    for method in (dom.midpoint_velocity_pairing, dom.midpoint_gradient_pairing):
        out = nan(2 * P, Nv)
        assert method(vx, vy, out=out).tobytes() == method(vx, vy).tobytes()
        assert np.isfinite(out).all()

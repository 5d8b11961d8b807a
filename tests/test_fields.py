import math

import numpy as np
import pytest

from poromix import (
    PhysicalParams,
    ResolutionMismatchError,
    ScalarField,
    SimulationState,
    grid_to_scalar,
    rhs_concentration,
)

from conftest import make_scalar, make_velocity, random_scalar


def _transport_terms(u, C, kappa=0.0):
    """P_z[u . grad C] + kappa P_z[C (1 - C)] as the solver assembles them:
    its concentration rate is -d lam beta minus these terms."""
    d = 1.0
    params = PhysicalParams(mu_e=1.0, d=d, kappa=kappa)
    rate = rhs_concentration(SimulationState(0.0, C, u), params)
    return -(rate.coeffs + d * C.domain.scalar.eigenvalues * C.coeffs)


def test_laplacian_eigenfunction(pi_domain):
    C = make_scalar(pi_domain, [(1, 0, 1.0)])  # cos(x)
    lap = -pi_domain.scalar.eigenvalues * C.coeffs
    assert np.abs(lap + C.coeffs).max() <= 1e-14  # lap cos x = -cos x


def test_laplacian_constant_and_gradient_zero(pi_domain):
    C = make_scalar(pi_domain, [], offset=3.0)
    assert np.abs(-pi_domain.scalar.eigenvalues * C.coeffs).max() == 0.0
    gx, gy = pi_domain.scalar_gradient_values(C.coeffs)
    assert np.abs(gx).max() <= 1e-13 and np.abs(gy).max() <= 1e-13


def test_laplacian_mixed_mode(pi_domain):
    C = make_scalar(pi_domain, [(2, 1, 1.0)])  # cos(2x) cos(y): lam = 4 + 1
    lap = -pi_domain.scalar.eigenvalues * C.coeffs
    assert np.abs(lap + 5.0 * C.coeffs).max() <= 1e-13


def test_gradient_matches_analytic(pi_domain):
    C = make_scalar(pi_domain, [(1, 0, 1.0)])
    gx, gy = pi_domain.scalar_gradient_values(C.coeffs)
    x = pi_domain.grid.x
    assert np.abs(gx - (-np.sin(x))[:, None]).max() <= 1e-13
    assert np.abs(gy).max() <= 1e-13


def test_advect_zero_velocity_and_constant_scalar(pi_domain):
    # No oracle: the solver's projection must vanish exactly when u or grad C does.
    u0 = make_velocity(pi_domain, [])
    C = random_scalar(pi_domain, seed=1)
    assert np.abs(_transport_terms(u0, C)).max() == 0.0
    u = make_velocity(pi_domain, [(1, 1, 0.7)])
    const = make_scalar(pi_domain, [], offset=2.0)
    assert np.abs(_transport_terms(u, const)).max() <= 1e-13


def test_advect_linearity(pi_domain):
    # No oracle: linearity of the solver's projection in C.
    u = make_velocity(pi_domain, [(1, 2, 0.4), (2, 1, -0.3)])
    C1 = random_scalar(pi_domain, seed=11)
    C2 = random_scalar(pi_domain, seed=12)
    a, b = 1.7, -0.6
    lhs = _transport_terms(u, ScalarField(pi_domain, a * C1.coeffs + b * C2.coeffs))
    rhs = a * _transport_terms(u, C1) + b * _transport_terms(u, C2)
    assert np.abs(lhs - rhs).max() <= 1e-12


def test_advect_skew_symmetry_and_mean_annihilation(pi_domain):
    # No oracle: identities of the solver's projection that follow from
    # div u = 0 and u . n = 0.
    for seed in range(4):
        u = make_velocity(pi_domain, [(1, 1, 0.8), (2, 2, -0.5), (1, 2, 0.3)])
        C = random_scalar(pi_domain, seed=seed, decay=False)
        adv = _transport_terms(u, C)
        scale = max(1.0, float(np.abs(C.coeffs).max()))
        # (u . grad C, C) = 0 by the divergence theorem with no-penetration.
        assert abs(float(np.sum(adv * C.coeffs))) <= 1e-10 * scale**2
        assert abs(adv[0, 0]) <= 1e-12 * scale


def test_reaction_roots_and_uniform_algebra(pi_domain):
    # Oracle: C(1 - C) vanishes at the roots C = 0 and C = 1 and is -2 for
    # a uniform C = 2, read from the solver's reaction projection at rest.
    rest = make_velocity(pi_domain, [])
    zero = make_scalar(pi_domain, [])
    one = make_scalar(pi_domain, [], offset=1.0)
    assert np.abs(_transport_terms(rest, zero, kappa=1.0)).max() == 0.0
    assert np.abs(_transport_terms(rest, one, kappa=1.0)).max() <= 1e-13
    two = make_scalar(pi_domain, [], offset=2.0)
    r = ScalarField(pi_domain, _transport_terms(rest, two, kappa=1.0))
    assert abs(r.mean_value - (-2.0)) <= 1e-13  # C(1-C) = -2 uniformly


def test_reaction_cosine_expansion(pi_domain):
    # Oracle: the hand expansion C(1 - C) = cos x - 1/2 - cos(2x)/2 for
    # C = cos x, against the solver's reaction projection at rest.
    C = make_scalar(pi_domain, [(1, 0, 1.0)])
    expected = make_scalar(pi_domain, [(1, 0, 1.0), (2, 0, -0.5)], offset=-0.5)
    r = _transport_terms(make_velocity(pi_domain, []), C, kappa=1.0)
    assert np.abs(r - expected.coeffs).max() <= 1e-12


def test_resolution_mismatch_rejected(pi_domain, rect_domain):
    u = make_velocity(rect_domain, [(1, 1, 1.0)])
    C = random_scalar(pi_domain, seed=5)
    with pytest.raises(ResolutionMismatchError):
        SimulationState(0.0, C, u)
    with pytest.raises(ResolutionMismatchError):
        grid_to_scalar(pi_domain, np.zeros((3, 3)))
    with pytest.raises(ResolutionMismatchError) as info:
        ScalarField(pi_domain, np.zeros((5, 5)))
    assert str(info.value) == "expected coefficients (6, 6), got (5, 5)"
    for build, modes, message in (
            (make_scalar, [(6, 0, 1.0)], "cosine mode (6, 0) out of range for Ns=6"),
            (make_velocity, [(0, 1, 1.0), (1, 3, 1.0)],
             "stream mode (0, 1) out of range for Nv=2; stream mode (1, 3) out of range for Nv=2")):
        with pytest.raises(ValueError) as info:
            build(pi_domain, modes)
        assert str(info.value) == message


def test_nonfinite_coefficients_rejected(pi_domain):
    B = np.zeros((6, 6))
    B[2, 2] = math.nan
    with pytest.raises(ValueError, match="non-finite"):
        ScalarField(pi_domain, B)


def test_mass_and_mean_match_quadrature(pi_domain):
    C = random_scalar(pi_domain, seed=9)
    grid_mass = pi_domain.grid.integrate(pi_domain.scalar_values(C.coeffs))
    assert abs(C.mass - grid_mass) <= 1e-12 * max(1.0, abs(grid_mass))
    area = pi_domain.spec.Lx * pi_domain.spec.Ly
    assert abs(C.mean_value - grid_mass / area) <= 1e-13

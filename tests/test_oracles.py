import math

import numpy as np
import pytest

from poromix import (
    LogisticBlowup,
    PhysicalParams,
    SimulationState,
    SolverConfig,
    logistic_blowup_time,
    logistic_solution,
    manufactured_run,
    modal_diffusion_factor,
    run,
)
from poromix.domain import DomainSpec, build_domain, required_quadrature_points
from poromix.korteweg import KortewegParams
from poromix.mobility import MobilitySpec


def test_logistic_fixed_point_and_values():
    assert logistic_solution(1.0, 1.0, 5.0) == pytest.approx(1.0)
    assert logistic_solution(0.5, 1.0, 1.0) == pytest.approx(1.0 / (1.0 + math.e), abs=1e-12)
    assert logistic_blowup_time(2.0, 1.0) == pytest.approx(math.log(2.0), abs=1e-15)


def test_logistic_blowup_marker():
    t_star = logistic_blowup_time(2.0, 1.0)
    out = logistic_solution(2.0, 1.0, t_star + 0.1)
    assert isinstance(out, LogisticBlowup)
    assert out.time == pytest.approx(t_star)
    assert isinstance(logistic_solution(2.0, 1.0, t_star - 0.01), float)


def test_logistic_invalid_arguments():
    with pytest.raises(ValueError, match="kappa"):
        logistic_solution(0.5, 0.0, 1.0)
    with pytest.raises(ValueError, match="blow up"):
        logistic_blowup_time(0.9, 1.0)


def test_logistic_ode_residual_by_numerical_differentiation():
    # 4th-order central difference of the closed form against the ODE
    # C' = -kappa C (1 - C) at sampled times.
    kappa, c0, h = 1.3, 0.4, 1e-4
    for t in (0.1, 0.5, 1.0, 2.0):
        f = lambda s: logistic_solution(c0, kappa, s)
        deriv = (8 * (f(t + h) - f(t - h)) - (f(t + 2 * h) - f(t - 2 * h))) / (12 * h)
        c = f(t)
        assert abs(deriv + kappa * c * (1.0 - c)) <= 1e-10


def test_modal_diffusion_factors():
    assert modal_diffusion_factor((0, 0), 0.5, 7.0, math.pi, math.pi) == 1.0
    assert modal_diffusion_factor((1, 0), 0.1, 1.0, math.pi, math.pi) == pytest.approx(
        math.exp(-0.1), abs=1e-15
    )
    assert modal_diffusion_factor((2, 1), 1.0, 0.1, math.pi, math.pi) == pytest.approx(
        math.exp(-0.5), abs=1e-15
    )
    with pytest.raises(ValueError):
        modal_diffusion_factor((-1, 0), 1.0, 1.0, 1.0, 1.0)


def test_manufactured_unknown_preset():
    with pytest.raises(ValueError, match="unknown manufactured preset"):
        manufactured_run("vortex-street")


@pytest.fixture(scope="module")
def mms_params():
    return PhysicalParams(
        mu_e=0.1, d=0.1, kappa=0.5,
        korteweg=KortewegParams(delta_hat=0.1, gamma=0.05),
        mobility=MobilitySpec.exponential(0.5),
    )


def test_rest_preset_is_stationary(mms_params):
    case = manufactured_run("rest")
    M = required_quadrature_points(8, 2, 2 * case.max_scalar_degree + 10)
    domain = build_domain(DomainSpec(Lx=math.pi, Ly=math.pi, Ns=8, Nv=2, M=M))
    res = run(
        SimulationState(0.0, case.exact_C(domain, 0.0), case.exact_u(domain, 0.0)),
        mms_params,
        SolverConfig(T_run=0.5, rtol=1e-10, atol=1e-13),
        forcing=case.momentum_forcing(mms_params),
        transport_source=case.transport_source(mms_params),
    )
    err_c, err_u = case.error_norms(domain, 0.5, res.final_state.C, res.final_state.u)
    assert err_c <= 1e-8
    assert err_u <= 1e-8


def test_swirl_galerkin_exact_when_resolved(mms_params):
    # With every manufactured mode inside the band, the Galerkin solution
    # tracks the exact fields to integrator accuracy.
    case = manufactured_run("swirl")
    M = required_quadrature_points(16, 2, 2 * case.max_scalar_degree + 16 + 8)
    domain = build_domain(DomainSpec(Lx=math.pi, Ly=math.pi, Ns=16, Nv=2, M=M))
    T = 0.2
    res = run(
        SimulationState(0.0, case.exact_C(domain, 0.0), case.exact_u(domain, 0.0)),
        mms_params,
        SolverConfig(T_run=T, rtol=1e-10, atol=1e-13),
        forcing=case.momentum_forcing(mms_params),
        transport_source=case.transport_source(mms_params),
    )
    err_c, err_u = case.error_norms(domain, T, res.final_state.C, res.final_state.u)
    assert err_c <= 1e-8
    assert err_u <= 1e-8


def test_exact_fields_match_grid_forms(mms_params):
    case = manufactured_run("swirl")
    M = required_quadrature_points(16, 2, 2 * case.max_scalar_degree + 16 + 8)
    domain = build_domain(DomainSpec(Lx=math.pi, Ly=math.pi, Ns=16, Nv=2, M=M))
    t = 0.37
    C = case.exact_C(domain, t)
    val, ddx, ddy, lap, _ = case.exact_C_grids(domain, t)
    assert np.abs(domain.scalar_values(C.coeffs) - val).max() <= 1e-12
    gx, gy = domain.scalar_gradient_values(C.coeffs)
    assert np.abs(gx - ddx).max() <= 1e-11
    assert np.abs(gy - ddy).max() <= 1e-11
    u = case.exact_u(domain, t)
    ux, uy = domain.velocity_values(u.coeffs)
    ex, ey = case.exact_u_grids(domain, t)
    assert np.abs(ux - ex).max() <= 1e-12
    assert np.abs(uy - ey).max() <= 1e-12

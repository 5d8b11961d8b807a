import math

import numpy as np
import pytest

from poromix import (
    PhysicalParams,
    SimulationState,
    SolverConfig,
    logistic_blowup_time,
    manufactured_run,
    run,
)
from poromix.domain import DomainSpec, build_domain
from poromix.korteweg import KortewegParams
from poromix.mobility import MobilitySpec
from poromix.oracles import LogisticBlowup, logistic_solution, modal_diffusion_factor


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
    domain = build_domain(DomainSpec(Lx=math.pi, Ly=math.pi, Ns=8, Nv=2))
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
    domain = build_domain(DomainSpec(Lx=math.pi, Ly=math.pi, Ns=16, Nv=2))
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


def test_swirl_source_projection_matches_oversampled_grid(mms_params):
    # The grid at 16/2 is sized for degree 2(Ns-1) + 2(Nv+1) = 36.  The
    # source's reaction part kappa C*(1-C*) times z reaches cosine degree
    # 2 * 11 + 15 = 37 in x, odd, so that mode cancels on the symmetric
    # Gauss-Legendre nodes and the projection stays exact.
    case = manufactured_run("swirl")
    spec = DomainSpec(Lx=math.pi, Ly=math.pi, Ns=16, Nv=2)
    domain = build_domain(spec)
    fine = build_domain(DomainSpec(spec.Lx, spec.Ly, spec.Ns, spec.Nv, M=4 * domain.grid.M))
    assert domain.grid.M == 47
    source = case.transport_source(mms_params)
    for t in (0.0, 0.37):
        got = domain.scalar_project(source(domain, t))
        want = fine.scalar_project(source(fine, t))
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_exact_fields_match_grid_forms(mms_params):
    case = manufactured_run("swirl")
    domain = build_domain(DomainSpec(Lx=math.pi, Ly=math.pi, Ns=16, Nv=2))
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


def test_manufactured_closures_keep_read_only_grids_per_domain(mms_params):
    # Each closure forms a domain's time-independent factor grids once and
    # reuses them: A, then B, then A again equals a fresh case bit for bit.
    import inspect

    domains = [build_domain(DomainSpec(Lx=math.pi, Ly=2.0, Ns=Ns, Nv=Nv))
               for Ns, Nv in ((8, 2), (5, 3))]
    case = manufactured_run("swirl")
    force = case.momentum_forcing(mms_params).func
    source = case.transport_source(mms_params)
    for dom, t in ((domains[0], 0.1), (domains[1], 0.4), (domains[0], 0.7)):
        fresh = manufactured_run("swirl")
        expected = (*fresh.momentum_forcing(mms_params).evaluate(dom, t),
                    fresh.transport_source(mms_params)(dom, t))
        got = (*force(dom, t), source(dom, t))
        assert [g.tobytes() for g in got] == [e.tobytes() for e in expected]

    def arrays(value):
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, tuple):
            for v in value:
                yield from arrays(v)

    for closure in (force, source):
        entries = inspect.getclosurevars(closure).nonlocals["grids"].entries
        assert set(entries) == set(domains)
        cached = [a for dom in domains for a in arrays(entries[dom])]
        assert cached and not any(a.flags.writeable for a in cached)

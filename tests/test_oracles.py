import math

import numpy as np
import pytest

from poromix import PhysicalParams, logistic_blowup_time, manufactured_run
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
    with pytest.raises(ValueError) as info:
        logistic_blowup_time(2.0, 0.0)
    assert str(info.value) == "kappa must be positive"


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
    err_c, err_u = case.run_errors(domain, mms_params, 0.5)
    assert err_c <= 1e-8
    assert err_u <= 1e-8


def test_swirl_galerkin_exact_when_resolved(mms_params):
    # With every manufactured mode inside the band, the Galerkin solution
    # tracks the exact fields to integrator accuracy.
    case = manufactured_run("swirl")
    domain = build_domain(DomainSpec(Lx=math.pi, Ly=math.pi, Ns=16, Nv=2))
    err_c, err_u = case.run_errors(domain, mms_params, 0.2)
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
        got, want = source(domain, t), source(fine, t)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_exact_fields_match_grid_forms(mms_params):
    # At 16/2 every swirl mode is resolved, so the analytic grids equal the
    # Galerkin transforms of the projected field, derivatives included.
    case = manufactured_run("swirl")
    domain = build_domain(DomainSpec(Lx=math.pi, Ly=math.pi, Ns=16, Nv=2))
    t = 0.37
    B = case.exact_C(domain, t).coeffs
    lap_B = -domain.scalar.eigenvalues * B
    val, ddx, ddy, lap, dval_dt, hessian, lap_grad = case.exact_C_grids(domain, t, korteweg=True)
    assert [g.tobytes() for g in (val, ddx, ddy, lap, dval_dt)] == [
        g.tobytes() for g in case.exact_C_grids(domain, t)]
    pairs = [((val,), (domain.scalar_values(B),)),
             ((ddx, ddy), domain.scalar_gradient_values(B)),
             (hessian, domain.scalar_second_derivative_values(B)),
             ((lap,), (domain.scalar_values(lap_B),)),
             (lap_grad, domain.scalar_gradient_values(lap_B))]
    for exact, galerkin in pairs:
        for e, g in zip(exact, galerkin, strict=True):
            assert np.abs(e - g).max() <= 1e-14 * np.abs(g).max()
    # Rates against a centred difference in t.
    h = 1e-5
    later, earlier = case.exact_C_grids(domain, t + h)[0], case.exact_C_grids(domain, t - h)[0]
    assert np.abs((later - earlier) / (2 * h) - dval_dt).max() <= 1e-10
    for amplitude, rate in [m[2:] for m in case.scalar_modes] + [case.stream_amplitude]:
        assert abs((amplitude(t + h) - amplitude(t - h)) / (2 * h) - rate(t)) <= 1e-10
    u = case.exact_u(domain, t)
    ux, uy = domain.velocity_values(u.coeffs)
    ex, ey = case.exact_u_grids(domain, t)
    assert np.abs(ux - ex).max() <= 1e-12
    assert np.abs(uy - ey).max() <= 1e-12


def test_manufactured_case_keeps_one_read_only_table_per_domain(mms_params):
    # The case forms a domain's time-independent grids once, in one table
    # that the forcing, the source and the grid methods all read: A, then
    # B, then A again equals a fresh case bit for bit.
    domains = [build_domain(DomainSpec(Lx=math.pi, Ly=2.0, Ns=Ns, Nv=Nv))
               for Ns, Nv in ((8, 2), (5, 3))]
    case = manufactured_run("swirl")
    force = case.momentum_forcing(mms_params).nodal
    source = case.transport_source(mms_params)
    tables = case._tables
    # Either closure alone puts its domain's table on the case.
    source(domains[1], 0.0)
    assert list(tables) == [domains[1]]
    force(domains[0], 0.0)
    assert set(tables) == set(domains)
    kept = dict(tables)
    for dom, t in ((domains[0], 0.1), (domains[1], 0.4), (domains[0], 0.7)):
        fresh = manufactured_run("swirl")
        expected = (*fresh.momentum_forcing(mms_params).evaluate(dom, t),
                    fresh.transport_source(mms_params)(dom, t))
        got = (*force(dom, t), source(dom, t))
        assert [g.tobytes() for g in got] == [e.tobytes() for e in expected]
        case.exact_C_grids(dom, t, korteweg=True)
        case.exact_u_grids(dom, t)
    assert len(tables) == 2 and all(tables[dom] is kept[dom] for dom in domains)
    arrays = [a for modes, stream in kept.values() for grids in (*modes, stream) for a in grids]
    assert len(arrays) == 2 * (2 * 9 + 4)
    assert not any(a.flags.writeable for a in arrays)

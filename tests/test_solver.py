import math

import numpy as np
import pytest

from poromix import (
    DomainSpec,
    ForcingSpec,
    KortewegParams,
    MobilityOverflowError,
    MobilitySpec,
    PhysicalParams,
    ScalarField,
    SimulationState,
    SolverConfig,
    StepSizeUnderflowError,
    build_domain,
    existence_time_bound,
    rhs_concentration,
    rhs_velocity,
    run,
    step,
)

from conftest import make_scalar, make_velocity, random_scalar


def _params(**kw):
    defaults = dict(mu_e=0.1, d=0.1, kappa=0.0)
    defaults.update(kw)
    return PhysicalParams(**defaults)


def test_params_validation():
    with pytest.raises(ValueError, match="mu_e"):
        PhysicalParams(mu_e=0.0, d=1.0)
    with pytest.raises(ValueError, match="d must"):
        PhysicalParams(mu_e=1.0, d=-2.0)
    with pytest.raises(ValueError, match="kappa"):
        PhysicalParams(mu_e=1.0, d=1.0, kappa=-0.5)
    with pytest.raises(ValueError, match="M_GN"):
        PhysicalParams(mu_e=1.0, d=1.0, m_gn=0.0)


def test_rhs_concentration_pure_modal_diffusion(pi_domain):
    C = make_scalar(pi_domain, [(1, 0, 1.0)])
    u = make_velocity(pi_domain, [])
    rhs = rhs_concentration(SimulationState(0.0, C, u), _params(d=0.1))
    expected = -0.1 * C.coeffs
    assert np.abs(rhs.coeffs - expected).max() <= 1e-13


def test_rhs_concentration_uniform_reaction(pi_domain):
    # C = 2 uniform, kappa = 1: dC/dt = -kappa C (1 - C) = +2.
    C = make_scalar(pi_domain, [], offset=2.0)
    u = make_velocity(pi_domain, [])
    rhs = rhs_concentration(SimulationState(0.0, C, u), _params(kappa=1.0))
    assert rhs.mean_value == pytest.approx(2.0, abs=1e-12)
    off_mean = rhs.coeffs.copy()
    off_mean[0, 0] = 0.0
    assert np.abs(off_mean).max() <= 1e-12


def test_rhs_matches_oversampled_assembly(pi_domain):
    spec = pi_domain.spec
    fine = build_domain(DomainSpec(spec.Lx, spec.Ly, spec.Ns, spec.Nv, M=4 * pi_domain.grid.M))
    params = _params(
        kappa=0.7,
        korteweg=KortewegParams(delta_hat=0.3, gamma=0.1),
        mobility=MobilitySpec.exponential(0.8),
    )
    c_modes = [(1, 1, 0.3), (2, 0, 0.2), (0, 2, 0.1)]
    u_modes = [(1, 1, 0.5), (2, 1, -0.2)]
    forcing = ForcingSpec.preset("steady_stream")
    results = []
    for dom in (pi_domain, fine):
        state = SimulationState(0.0, make_scalar(dom, c_modes, offset=0.5),
                                make_velocity(dom, u_modes))
        results.append(
            (rhs_concentration(state, params).coeffs, rhs_velocity(state, params, forcing).coeffs)
        )
    assert np.abs(results[0][0] - results[1][0]).max() <= 1e-10
    assert np.abs(results[0][1] - results[1][1]).max() <= 1e-10


def test_rhs_velocity_constant_mobility_linear_algebra(pi_domain):
    # delta_hat = 0, f = 0, C uniform, F = a: G alpha' = -(mu_e S + a G) alpha.
    a, mu_e = 0.7, 0.2
    params = _params(mu_e=mu_e, mobility=MobilitySpec.constant(a))
    C = make_scalar(pi_domain, [], offset=1.0)
    u = make_velocity(pi_domain, [(1, 1, 0.4), (2, 2, 0.3)])
    got = rhs_velocity(SimulationState(0.0, C, u), params)
    vel = pi_domain.velocity
    alpha = u.coeffs.reshape(-1)
    expected = vel.solve_gram(-(mu_e * vel.stiffness + a * vel.gram) @ alpha)
    assert np.abs(got.coeffs.reshape(-1) - expected).max() <= 1e-12


def test_rhs_velocity_rest_state_is_zero(pi_domain):
    params = _params()
    state = SimulationState(0.0, random_scalar(pi_domain, seed=2), make_velocity(pi_domain, []))
    got = rhs_velocity(state, params)
    assert np.abs(got.coeffs).max() <= 1e-14


def test_zero_initial_data_stays_zero(pi_domain):
    state = SimulationState(0.0, make_scalar(pi_domain, []), make_velocity(pi_domain, []))
    res = run(state, _params(kappa=1.0), SolverConfig(T_run=0.5, rtol=1e-8, atol=1e-12))
    assert res.outcome == "completed"
    assert all(r.l2_C == 0.0 and r.l2_u == 0.0 for r in res.ledger)


def test_logistic_value_and_blowup(pi_domain):
    params = _params(kappa=1.0)
    u0 = make_velocity(pi_domain, [])
    res = run(
        SimulationState(0.0, make_scalar(pi_domain, [], offset=0.5), u0),
        params,
        SolverConfig(T_run=1.0, rtol=1e-10, atol=1e-13),
    )
    assert res.final_state.C.mean_value == pytest.approx(1.0 / (1.0 + math.e), abs=1e-6)

    res2 = run(
        SimulationState(0.0, make_scalar(pi_domain, [], offset=2.0), u0),
        params,
        SolverConfig(T_run=2.0, rtol=1e-10, atol=1e-13, blowup_cap=1e6),
    )
    assert res2.outcome == "blowup"
    assert res2.ledger.final.blowup == 1
    assert res2.blowup_time == pytest.approx(math.log(2.0), rel=0.01)


def test_mass_rate_matches_reaction_integral(pi_domain):
    params = _params(kappa=0.9)
    C = make_scalar(pi_domain, [(1, 1, 0.3)], offset=0.6)
    u = make_velocity(pi_domain, [(1, 1, 0.5)])
    rhs = rhs_concentration(SimulationState(0.0, C, u), params)
    cg = pi_domain.scalar_values(C.coeffs)
    expected = -params.kappa * pi_domain.grid.integrate(cg * (1.0 - cg))
    assert rhs.mass == pytest.approx(expected, abs=1e-11)


def test_integrating_factor_matches_plain(pi_domain):
    params = _params(kappa=0.5, korteweg=KortewegParams(delta_hat=0.1, gamma=0.0))
    C0 = make_scalar(pi_domain, [(1, 1, 0.3), (2, 0, 0.2)], offset=0.5)
    u0 = make_velocity(pi_domain, [(1, 1, 0.4)])
    finals = []
    for iff in (False, True):
        cfg = SolverConfig(T_run=0.3, rtol=1e-10, atol=1e-13, integrating_factor=iff)
        res = run(SimulationState(0.0, C0, u0), params, cfg)
        finals.append(res.final_state)
    assert np.abs(finals[0].C.coeffs - finals[1].C.coeffs).max() <= 1e-9
    assert np.abs(finals[0].u.coeffs - finals[1].u.coeffs).max() <= 1e-9


def test_integrating_factor_exact_for_pure_diffusion(pi_domain):
    # With only diffusion active, the Lawson transform integrates each mode
    # exactly; even huge steps land on the analytic decay.
    params = _params(d=0.37)
    C0 = make_scalar(pi_domain, [(2, 1, 1.0)])
    cfg = SolverConfig(T_run=1.0, rtol=1e-4, atol=1e-8, dt_init=0.25, integrating_factor=True)
    res = run(SimulationState(0.0, C0, make_velocity(pi_domain, [])), params, cfg)
    lam = pi_domain.scalar.eigenvalues[2, 1]
    expected = C0.coeffs[2, 1] * math.exp(-params.d * lam)
    assert res.final_state.C.coeffs[2, 1] == pytest.approx(expected, rel=1e-12)


def test_energy_residuals_bounded_in_if_mode(pi_domain):
    from poromix.diagnostics import segment_residual_bounds

    params = _params(kappa=0.6, korteweg=KortewegParams(delta_hat=0.1, gamma=0.0))
    C0 = make_scalar(pi_domain, [(1, 1, 0.3), (3, 2, 0.15)], offset=0.5)
    u0 = make_velocity(pi_domain, [(1, 1, 0.4)])
    cfg = SolverConfig(T_run=0.3, rtol=1e-8, atol=1e-11, integrating_factor=True)
    res = run(SimulationState(0.0, C0, u0), params, cfg)
    for which, col in (("C", "res_C"), ("u", "res_u")):
        bounds = segment_residual_bounds(res.ledger, cfg, which)
        residuals = [abs(getattr(r, col)) for r in res.ledger.rows[1:]]
        assert all(r <= b for r, b in zip(residuals, bounds))


def test_zero_advection_mobility_decoupling(pi_domain):
    # With u0 = 0, f = 0, delta_hat = 0 the velocity stays zero, so the
    # concentration path cannot depend on the mobility family.
    C0 = make_scalar(pi_domain, [(1, 1, 0.4)], offset=0.6)
    u0 = make_velocity(pi_domain, [])
    cfg = SolverConfig(T_run=0.4, rtol=1e-9, atol=1e-12)
    finals = []
    for mob in (MobilitySpec.constant(5.0), MobilitySpec.exponential(2.0)):
        params = _params(kappa=0.8, mobility=mob)
        res = run(SimulationState(0.0, C0, u0), params, cfg)
        assert res.ledger.final.l2_u == 0.0
        finals.append(res.final_state.C.coeffs)
    assert np.array_equal(finals[0], finals[1])


def test_single_step_advances_and_controls_error(pi_domain):
    C0 = make_scalar(pi_domain, [(1, 0, 1.0)])
    state = SimulationState(0.0, C0, make_velocity(pi_domain, []))
    cfg = SolverConfig(T_run=1.0, rtol=1e-10, atol=1e-13, dt_init=0.01)
    new = step(state, _params(d=0.1), cfg)
    assert new.t == pytest.approx(0.01)
    expected = math.exp(-0.1 * new.t)
    assert new.C.coeffs[1, 0] / C0.coeffs[1, 0] == pytest.approx(expected, rel=1e-10)


def test_gradient_stress_drives_flow_from_rest(pi_domain):
    # A non-uniform concentration with delta_hat > 0 must set the fluid in
    # motion; with delta_hat = 0 a resting fluid stays exactly at rest.
    C0 = make_scalar(pi_domain, [(1, 1, 0.3), (2, 1, 0.1)], offset=0.5)
    u0 = make_velocity(pi_domain, [])
    cfg = SolverConfig(T_run=0.5, rtol=1e-9, atol=1e-12)
    peaks = {}
    for dh in (0.0, 0.5):
        params = _params(korteweg=KortewegParams(delta_hat=dh, gamma=0.0))
        res = run(SimulationState(0.0, C0, u0), params, cfg)
        peaks[dh] = max(r.l2_u for r in res.ledger.rows)
    assert peaks[0.0] == 0.0
    assert peaks[0.5] > 1e-8


def test_checkpoints_land_exactly(pi_domain):
    C0 = make_scalar(pi_domain, [(1, 0, 0.5)], offset=0.5)
    u0 = make_velocity(pi_domain, [])
    res = run(
        SimulationState(0.0, C0, u0),
        _params(),
        SolverConfig(T_run=0.5, rtol=1e-8, atol=1e-12),
        checkpoint_times=(0.2, 0.35),
    )
    assert set(res.checkpoints) == {0.2, 0.35}
    assert res.checkpoints[0.2].t == 0.2
    assert res.checkpoints[0.35].t == 0.35


def test_run_from_nonzero_initial_time(pi_domain):
    # T_run is a horizon relative to the initial time; checkpoints are
    # absolute times inside (t0, t0 + T_run].
    C0 = make_scalar(pi_domain, [(1, 0, 0.5)], offset=0.5)
    state = SimulationState(2.0, C0, make_velocity(pi_domain, []))
    res = run(state, _params(), SolverConfig(T_run=0.5, rtol=1e-8, atol=1e-12),
              checkpoint_times=(2.25,))
    assert res.final_state.t == pytest.approx(2.5, abs=1e-12)
    assert 2.25 in res.checkpoints
    assert res.ledger[0].t == 2.0


def test_blowup_cap_must_exceed_initial_norm(pi_domain):
    C0 = make_scalar(pi_domain, [], offset=2.0)
    state = SimulationState(0.0, C0, make_velocity(pi_domain, []))
    with pytest.raises(ValueError, match="blowup_cap"):
        run(state, _params(kappa=1.0), SolverConfig(T_run=1.0, blowup_cap=1.0))


def test_step_underflow_reports_time(pi_domain):
    # A source that turns non-finite past t = 0.1 forces endless rejections.
    def bad_source(domain, t):
        out = np.zeros((domain.grid.M, domain.grid.M))
        if t > 0.1:
            out[0, 0] = math.nan
        return out

    C0 = make_scalar(pi_domain, [], offset=0.5)
    state = SimulationState(0.0, C0, make_velocity(pi_domain, []))
    with pytest.raises(StepSizeUnderflowError) as info:
        run(state, _params(kappa=1.0), SolverConfig(T_run=1.0, rtol=1e-8, atol=1e-12),
            transport_source=bad_source)
    assert 0.0 <= info.value.t <= 0.2


def test_existence_time_bound_cases(pi_domain):
    B = np.zeros((6, 6))
    B[1, 1] = 1.0  # unit L2 norm
    C_unit = ScalarField(pi_domain, B)
    assert existence_time_bound(C_unit, _params(kappa=0.0)) == math.inf
    assert existence_time_bound(C_unit, _params(kappa=1.0, d=1.0, m_gn=1.0)) == pytest.approx(2.0)
    C4 = ScalarField(pi_domain, 2.0 * B)  # squared norm 4
    assert existence_time_bound(C4, _params(kappa=2.0, d=1.0, m_gn=1.0)) == pytest.approx(0.125)
    zero = ScalarField(pi_domain, np.zeros((6, 6)))
    assert existence_time_bound(zero, _params(kappa=1.0)) == math.inf


def test_ledger_csv_values_and_monotone_time(pi_domain):
    C0 = make_scalar(pi_domain, [(1, 1, 0.2)], offset=0.5)
    u0 = make_velocity(pi_domain, [(1, 1, 0.3)])
    res = run(SimulationState(0.0, C0, u0), _params(kappa=0.3),
              SolverConfig(T_run=0.2, rtol=1e-8, atol=1e-12))
    ts = res.ledger.column("t")
    assert all(b > a for a, b in zip(ts, ts[1:]))
    for name in ("l2_C", "h1_semi_C", "h2_semi_C", "l2_u", "h1_semi_u", "dCdt_l2"):
        assert all(v >= 0.0 for v in res.ledger.column(name))


def test_ledger_norms_match_grid_quadrature(pi_domain):
    params = _params(kappa=0.4, mobility=MobilitySpec.polynomial(0.5, 1.0))
    C0 = make_scalar(pi_domain, [(1, 1, 0.2), (2, 1, 0.1)], offset=0.6)
    u0 = make_velocity(pi_domain, [(1, 1, 0.4), (2, 2, 0.2)])
    res = run(SimulationState(0.0, C0, u0), params,
              SolverConfig(T_run=0.1, rtol=1e-9, atol=1e-12))
    row = res.ledger.final
    state = res.final_state
    dom = pi_domain
    cg = dom.scalar_values(state.C.coeffs)
    cx, cy = dom.scalar_gradient_values(state.C.coeffs)
    lap = dom.scalar_values(-dom.scalar.eigenvalues * state.C.coeffs)
    ux, uy = dom.velocity_values(state.u.coeffs)
    gxx, gxy, gyx, gyy = dom.velocity_gradient_values(state.u.coeffs)
    checks = [
        (row.l2_C, dom.grid.integrate(cg**2)),
        (row.h1_semi_C, dom.grid.integrate(cx**2 + cy**2)),
        (row.h2_semi_C, dom.grid.integrate(lap**2)),
        (row.l2_u, dom.grid.integrate(ux**2 + uy**2)),
        (row.h1_semi_u, dom.grid.integrate(gxx**2 + gxy**2 + gyx**2 + gyy**2)),
    ]
    for coeff_val, grid_val in checks:
        assert abs(coeff_val - grid_val) <= 1e-10 * max(1.0, abs(grid_val))


def test_fq_u_marked_undefined_for_sign_indefinite_mobility(pi_domain):
    # A linear mobility goes negative where C < 0, making sqrt(F) undefined.
    params = _params(mobility=MobilitySpec.polynomial(0.0, 1.0))
    C0 = make_scalar(pi_domain, [(1, 0, 1.0)])  # cos x changes sign
    u0 = make_velocity(pi_domain, [(1, 1, 0.2)])
    res = run(SimulationState(0.0, C0, u0), params,
              SolverConfig(T_run=0.05, rtol=1e-8, atol=1e-12))
    assert math.isnan(res.ledger.final.fq_u)
    assert math.isnan(res.ledger[0].fq_u)


def _overshoot_case(integrating_factor=False, T_run=0.5):
    # dt_init = 1 overshoots the (3, 3) mode (d lam = 18): a trial stage
    # reaches |R C| ~ 4.2e3, past the exponential-mobility limit, although
    # every accepted state stays near R C = 300.
    domain = build_domain(DomainSpec(Lx=math.pi, Ly=math.pi, Ns=8, Nv=2))
    state = SimulationState(0.0, make_scalar(domain, [(3, 3, 0.4)], offset=3.0),
                            make_velocity(domain, []))
    params = PhysicalParams(mu_e=1.0, d=1.0, kappa=0.0, mobility=MobilitySpec.exponential(100.0))
    cfg = SolverConfig(T_run=T_run, rtol=1e-6, atol=1e-9, dt_init=1.0,
                       integrating_factor=integrating_factor)
    return state, params, cfg


def test_trial_stage_mobility_overflow_rejects_step():
    state, params, cfg = _overshoot_case()
    res = run(state, params, cfg)
    assert res.outcome == "completed"
    assert res.final_state.t == 0.5
    assert res.steps_rejected >= 1
    new = step(state, params, cfg)
    assert 0.0 < new.t < 1.0


def test_mobility_overflow_at_accepted_state_aborts_run(pi_domain):
    state = SimulationState(0.0, make_scalar(pi_domain, [], offset=8.0),
                            make_velocity(pi_domain, []))
    params = _params(mobility=MobilitySpec.exponential(100.0))
    with pytest.raises(MobilityOverflowError):
        run(state, params, SolverConfig(T_run=0.1))


@pytest.mark.parametrize("integrating_factor", [False, True])
def test_step_matches_first_accepted_step_of_run(integrating_factor):
    # T_run > dt_init, so run's first trial is not clipped to the horizon.
    state, params, cfg = _overshoot_case(integrating_factor, T_run=2.0)
    first = []
    res = run(state, params, cfg, snapshot_sink=first.append)
    assert res.steps_rejected >= 1
    new = step(state, params, cfg)
    assert new.t == first[1].t
    assert np.array_equal(new.C.coeffs, first[1].C.coeffs)
    assert np.array_equal(new.u.coeffs, first[1].u.coeffs)

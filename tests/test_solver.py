import io
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from poromix import (
    DomainSpec,
    ForcingSpec,
    GalerkinSystem,
    KortewegParams,
    MobilityOverflowError,
    MobilitySpec,
    PhysicalParams,
    ScalarField,
    SimulationState,
    SolverConfig,
    StepSizeUnderflowError,
    VelocityField,
    build_domain,
    existence_time_bound,
    integrand_degree,
    rhs_concentration,
    rhs_velocity,
    run,
)
from poromix import solver
from poromix.diagnostics import segment_residual_bounds
from poromix.forcing import FORCING_PRESETS

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


def test_cubic_grid_matches_oversampled_rhs_and_work():
    # At 16/4 the reaction projection's 3(Ns-1) sizes the grid.  With every
    # term on, a quadratic mobility and all modes excited, each block of the
    # right-hand side (concentration, velocity, work integrals) and the
    # diagnostics other than the nodal extremes match a grid four times the
    # size.
    spec = DomainSpec(Lx=math.pi, Ly=math.pi, Ns=16, Nv=4)
    assert integrand_degree(spec.Ns, spec.Nv) == 3 * (spec.Ns - 1)
    dom = build_domain(spec)
    fine = build_domain(DomainSpec(spec.Lx, spec.Ly, spec.Ns, spec.Nv, M=4 * dom.grid.M))
    params = _params(
        kappa=0.7,
        korteweg=KortewegParams(delta_hat=0.3, gamma=0.1),
        mobility=MobilitySpec.polynomial(0.5, 0.4, 0.3),
    )
    B = random_scalar(dom, seed=5, scale=0.1, decay=False).coeffs
    B[0, 0] += 0.5 / dom.scalar.norm_00
    A = np.random.default_rng(6).standard_normal((spec.Nv, spec.Nv)) / 4.0
    out = []
    for d in (dom, fine):
        system = GalerkinSystem(d, params, ForcingSpec.preset("steady_stream"))
        y = system.pack(ScalarField(d, B), VelocityField(d, A))
        out.append(system.evaluate_with_diagnostics(0.3, y))
    (y_dot, diag), (y_fine, diag_fine) = out
    n_coeffs = spec.Ns**2 + spec.Nv**2
    for block in (slice(0, spec.Ns**2), slice(spec.Ns**2, n_coeffs), slice(n_coeffs, None)):
        ref = y_fine[block]
        assert np.abs(y_dot[block] - ref).max() <= 1e-12 * np.abs(ref).max()
    # min_C and max_F are nodal extremes; implicit_pair is a vector.
    for key in diag.keys() - {"min_C", "max_F", "implicit_pair"}:
        assert diag[key] == pytest.approx(diag_fine[key], rel=1e-12)
    ref = diag_fine["implicit_pair"]
    assert np.abs(diag["implicit_pair"] - ref).max() <= 1e-12 * np.abs(ref).max()
    # h1_F_sq is on the midpoint rule in both: check it on the fine grid.
    cg = fine.scalar_values(B)
    cx, cy = fine.scalar_gradient_values(B)
    F, dF = 0.5 + 0.4 * cg + 0.3 * cg**2, 0.4 + 0.6 * cg
    h1_F_sq = fine.grid.integrate(F**2 + dF**2 * (cx**2 + cy**2))
    assert diag["h1_F_sq"] == pytest.approx(h1_F_sq, rel=1e-12)


def test_zero_forcing_is_skipped_with_identical_ledger(pi_domain, monkeypatch):
    # The zero preset is never evaluated; a callable that returns zeros is
    # evaluated and paired.  Both runs write the same ledger bytes.
    def fail(domain, t):
        raise AssertionError("zero forcing evaluated")

    def zeros(domain, t):
        z = np.zeros((domain.grid.M, domain.grid.M))
        return z, z

    monkeypatch.setitem(FORCING_PRESETS, "zero", fail)
    state = SimulationState(0.0, make_scalar(pi_domain, [(1, 1, 0.2)], offset=0.5),
                            make_velocity(pi_domain, [(1, 1, 0.3), (2, 1, -0.1)]))
    params = _params(kappa=0.5, korteweg=KortewegParams(delta_hat=0.2))
    csv = []
    for forcing in (ForcingSpec.zero(), ForcingSpec.from_function(zeros)):
        res = run(state, params, SolverConfig(T_run=0.2), forcing=forcing)
        assert res.ledger.final.i_f == 0.0 and res.ledger.final.i_fdotu == 0.0
        buf = io.StringIO()
        res.ledger.to_csv(buf)
        csv.append(buf.getvalue())
    assert csv[0] == csv[1]


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
    cfg = SolverConfig(T_run=0.01, rtol=1e-10, atol=1e-13, dt_init=0.01)
    res = run(state, _params(d=0.1), cfg)
    assert res.steps_accepted == 1
    new = res.final_state
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


def test_checkpoint_outside_the_run_is_rejected(pi_domain):
    state = SimulationState(2.0, make_scalar(pi_domain, [(1, 0, 0.5)], offset=0.5),
                            make_velocity(pi_domain, []))
    config = SolverConfig(T_run=0.5)
    for late_or_early in (2.75, 1.5):
        with pytest.raises(ValueError, match=f"checkpoint time {late_or_early} lies outside"):
            run(state, _params(), config, checkpoint_times=(2.25, late_or_early))


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


def test_ledger_columns_are_the_integrands_of_their_work_integrals(pi_domain):
    # Each state's ledger norms and the work-integral slopes come from one
    # evaluation, so a row's column equals, bit for bit, the slope of the
    # work integral that accumulates it, evaluated afresh at that state.
    params = _params(kappa=0.5, mobility=MobilitySpec.exponential(0.5),
                     korteweg=KortewegParams(delta_hat=0.1))
    forcing = ForcingSpec.preset("pulsed_stream")
    state = SimulationState(0.0, make_scalar(pi_domain, [(1, 1, 0.2), (2, 0, 0.1)], offset=0.5),
                            make_velocity(pi_domain, [(1, 1, 0.3), (2, 1, 0.1)]))
    states = []
    res = run(state, params, SolverConfig(T_run=0.4), forcing=forcing,
              snapshot_sink=states.append)
    system = GalerkinSystem(pi_domain, params, forcing)
    pairs = (("h1_semi_C", solver._I_GRAD_C), ("h2_semi_C", solver._I_LAP_C),
             ("h1_semi_u", solver._I_GRAD_U), ("dCdt_l2", solver._I_DCDT),
             ("l2_f", solver._I_F))
    assert len(states) == len(res.ledger) > 10
    for row, st in zip(res.ledger.rows, states):
        ex = system.extras(system.rhs(st.t, system.pack(st.C, st.u)))
        assert row.t == st.t
        assert [getattr(row, name) for name, _ in pairs] == [ex[i] for _, i in pairs]


def test_fq_u_marked_undefined_for_sign_indefinite_mobility(pi_domain):
    # A linear mobility goes negative where C < 0, making sqrt(F) undefined.
    params = _params(mobility=MobilitySpec.polynomial(0.0, 1.0))
    C0 = make_scalar(pi_domain, [(1, 0, 1.0)])  # cos x changes sign
    u0 = make_velocity(pi_domain, [(1, 1, 0.2)])
    res = run(SimulationState(0.0, C0, u0), params,
              SolverConfig(T_run=0.05, rtol=1e-8, atol=1e-12))
    assert math.isnan(res.ledger.final.fq_u)
    assert math.isnan(res.ledger[0].fq_u)


def _overshoot_case():
    # dt_init = 1 overshoots the (3, 3) mode (d lam = 18): a trial stage
    # reaches |R C| ~ 4.2e3, past the exponential-mobility limit, although
    # every accepted state stays near R C = 300.
    domain = build_domain(DomainSpec(Lx=math.pi, Ly=math.pi, Ns=8, Nv=2))
    state = SimulationState(0.0, make_scalar(domain, [(3, 3, 0.4)], offset=3.0),
                            make_velocity(domain, []))
    params = PhysicalParams(mu_e=1.0, d=1.0, kappa=0.0, mobility=MobilitySpec.exponential(100.0))
    cfg = SolverConfig(T_run=0.5, rtol=1e-6, atol=1e-9, dt_init=1.0)
    return state, params, cfg


def test_trial_stage_mobility_overflow_rejects_step():
    state, params, cfg = _overshoot_case()
    res = run(state, params, cfg)
    assert res.outcome == "completed"
    assert res.final_state.t == 0.5
    assert res.steps_rejected >= 1
    assert res.steps_implicit >= 1  # F ~ e^300 makes the stage loop implicit-explicit


def test_mobility_overflow_at_initial_state_aborts_run(pi_domain):
    state = SimulationState(0.0, make_scalar(pi_domain, [], offset=8.0),
                            make_velocity(pi_domain, []))
    params = _params(mobility=MobilitySpec.exponential(100.0))
    with pytest.raises(MobilityOverflowError):
        run(state, params, SolverConfig(T_run=0.1))


def _drag_stiff_case():
    # Drag F = e^(8C) up to about e^9 dominates d lambda_max = 9.8.
    domain = build_domain(DomainSpec(Lx=math.pi, Ly=math.pi, Ns=8, Nv=2))
    state = SimulationState(0.0, make_scalar(domain, [(1, 1, 0.3), (2, 1, 0.01)], offset=0.8),
                            make_velocity(domain, []))
    params = _params(korteweg=KortewegParams(delta_hat=0.1),
                     mobility=MobilitySpec.exponential(8.0))
    return state, params


def test_drag_stiff_run_takes_imex_steps_at_dp54_accuracy(monkeypatch):
    state, params = _drag_stiff_case()
    cfg = SolverConfig(T_run=0.2, rtol=1e-8, atol=1e-11)
    res = run(state, params, cfg)
    assert res.outcome == "completed" and res.final_state.t == 0.2
    assert res.steps_implicit >= res.steps_accepted // 2
    for which, col in (("C", "res_C"), ("u", "res_u")):
        bounds = segment_residual_bounds(res.ledger, cfg, which)
        assert all(abs(getattr(row, col)) <= b for row, b in zip(res.ledger.rows[1:], bounds))

    monkeypatch.setattr(solver, "_takes_imex", lambda system, dt, diag: False)
    explicit = run(state, params, cfg)
    assert explicit.steps_implicit == 0
    assert res.steps_accepted < explicit.steps_accepted
    ref = run(state, params, SolverConfig(T_run=0.2, rtol=1e-12, atol=1e-15)).final_state
    for got, exact in ((res.final_state.C.coeffs, ref.C.coeffs),
                       (res.final_state.u.coeffs, ref.u.coeffs)):
        assert np.all(np.abs(got - exact) <= 10 * (cfg.rtol * np.abs(exact) + cfg.atol))


def test_mild_run_takes_no_imex_trial(pi_domain, monkeypatch):
    trials = []
    orig = solver._ark_stages
    monkeypatch.setattr(solver, "_ark_stages", lambda *a: trials.append(a) or orig(*a))
    state = SimulationState(0.0, make_scalar(pi_domain, [(1, 1, 0.2)], offset=0.5),
                            make_velocity(pi_domain, [(1, 1, 0.3)]))
    params = _params(kappa=0.5, mobility=MobilitySpec.exponential(0.5),
                     korteweg=KortewegParams(delta_hat=0.1))
    res = run(state, params, SolverConfig(T_run=0.6),
              forcing=ForcingSpec.preset("pulsed_stream"))
    assert res.steps_accepted > 0
    assert trials == [] and res.steps_implicit == 0


# 0.1 + (0.45 - 0.1) rounds to 0.44999999999999996: the loose run's first
# step starts the next one with rhs(0.45, y) only if its last stage is taken
# at the stop itself rather than at t + dt.
@pytest.mark.parametrize("t0, rtol, dt_init, stop", [(0.1, 1e-2, 0.35, 0.45),
                                                     (0.0, 1e-8, 0.3, 0.35)])
def test_last_stage_is_the_next_steps_slope(pi_domain, monkeypatch, t0, rtol, dt_init, stop):
    # First same as last: each accepted state is evaluated once, as the last
    # stage of the trial that reaches it, and that slope starts the next
    # step.  Pulsed forcing makes the slope time-dependent, so the stage
    # must be taken at the recorded time, also at the interior checkpoint.
    calls = []
    starts = []
    for name in ("rhs", "evaluate_with_diagnostics"):
        orig = getattr(GalerkinSystem, name)

        def counted(self, t, y, _orig=orig):
            calls.append(t)
            return _orig(self, t, y)

        monkeypatch.setattr(GalerkinSystem, name, counted)
    orig_attempt = solver._attempt_step

    def recorded(system, t, y, dt, k1, t_new, diag):
        out = orig_attempt(system, t, y, dt, k1, t_new, diag)
        starts.append((system, t, y.copy(), k1.copy()))
        return out

    monkeypatch.setattr(solver, "_attempt_step", recorded)
    state = SimulationState(t0, make_scalar(pi_domain, [(1, 1, 0.2)], offset=0.5),
                            make_velocity(pi_domain, [(1, 1, 0.3)]))
    params = _params(kappa=0.5, mobility=MobilitySpec.exponential(0.5),
                     korteweg=KortewegParams(delta_hat=0.1))
    res = run(state, params,
              SolverConfig(T_run=0.6, rtol=rtol, atol=1e-3 * rtol, dt_init=dt_init),
              forcing=ForcingSpec.preset("pulsed_stream"), checkpoint_times=(stop,))
    monkeypatch.undo()

    trials = res.steps_accepted + res.steps_rejected
    assert res.checkpoints[stop].t == stop
    assert len(starts) == trials  # every trial ran to its last stage
    assert len(calls) == 1 + 6 * trials
    assert sorted({t for _, t, _, _ in starts}) == [row.t for row in res.ledger.rows[:-1]]
    assert stop in {t for _, t, _, _ in starts}
    for system, t, y, k1 in starts:
        assert np.array_equal(k1, system.rhs(t, y))
    if t0 == 0.0:
        assert res.steps_rejected >= 1
    else:
        assert res.ledger.rows[1].t == stop and t0 + (stop - t0) != stop


def _dp54_rationals():
    F = Fraction
    c = [F(0), F(1, 5), F(3, 10), F(4, 5), F(8, 9), F(1), F(1)]
    a = [
        [],
        [F(1, 5)],
        [F(3, 40), F(9, 40)],
        [F(44, 45), F(-56, 15), F(32, 9)],
        [F(19372, 6561), F(-25360, 2187), F(64448, 6561), F(-212, 729)],
        [F(9017, 3168), F(-355, 33), F(46732, 5247), F(49, 176), F(-5103, 18656)],
        [F(35, 384), F(0), F(500, 1113), F(125, 192), F(-2187, 6784), F(11, 84)],
    ]
    b5 = [F(35, 384), F(0), F(500, 1113), F(125, 192), F(-2187, 6784), F(11, 84), F(0)]
    b4 = [F(5179, 57600), F(0), F(7571, 16695), F(393, 640), F(-92097, 339200),
          F(187, 2100), F(1, 40)]
    return c, a, b5, b4


def _rooted_trees(order):
    """Rooted trees with `order` nodes, each a sorted tuple of child subtrees."""
    if order == 1:
        return [()]
    smaller = [(n, t) for n in range(1, order) for t in _rooted_trees(n)]
    trees = set()
    for m in range(1, order):
        for combo in itertools.combinations_with_replacement(smaller, m):
            if sum(n for n, _ in combo) == order - 1:
                trees.add(tuple(sorted(t for _, t in combo)))
    return sorted(trees)


def _tree_inverse_gamma(tree):
    """1 / gamma(tree), the weight the exact solution gives the tree."""
    def size(t):
        return 1 + sum(size(c) for c in t)

    def gamma(t):
        return size(t) * math.prod(gamma(c) for c in t)

    return Fraction(1, gamma(tree))


def test_dp54_tableau_is_the_published_pair_and_has_its_orders():
    c, a, b5, b4 = _dp54_rationals()
    e = [p - q for p, q in zip(b5, b4)]

    def close(x, q):
        return abs(x - float(q)) <= math.ulp(float(q))

    assert all(close(x, q) for x, q in zip(solver._C, c))
    assert all(close(x, q) for row, exact in zip(solver._A, a) for x, q in zip(row, exact))
    assert [len(row) for row in solver._A] == list(range(7))
    assert all(close(x, q) for x, q in zip(solver._E, e))

    assert all(sum(row) == ci for row, ci in zip(a, c))
    # FSAL: stage 7 sits at c = 1 with the propagated weights as its row.
    assert a[6] + [0] == b5 and c[6] == 1
    assert sum(e) == 0

    A = [row + [Fraction(0)] * (7 - len(row)) for row in a]

    def phi(tree):
        """Elementary weight of `tree` at each stage."""
        out = [Fraction(1)] * 7
        for child in tree:
            inner = phi(child)
            out = [o * sum(A[i][j] * inner[j] for j in range(7)) for i, o in enumerate(out)]
        return out

    assert [len(_rooted_trees(n)) for n in range(1, 6)] == [1, 1, 2, 4, 9]
    for order, weights in ((5, b5), (4, b4)):
        for n in range(1, order + 1):
            for tree in _rooted_trees(n):
                assert sum(b * p for b, p in zip(weights, phi(tree))) == _tree_inverse_gamma(tree)
    # The embedded weights are exactly 4th order: some 5th-order tree fails.
    assert any(sum(b * p for b, p in zip(b4, phi(tree))) != _tree_inverse_gamma(tree)
               for tree in _rooted_trees(5))


def _ark436_rationals():
    """ARK4(3)6L[2]SA as published: explicit rows, ESDIRK rows, b, b_hat, c."""
    F = Fraction
    c = [F(0), F(1, 2), F(83, 250), F(31, 50), F(17, 20), F(1)]
    ae = [
        [],
        [F(1, 2)],
        [F(13861, 62500), F(6889, 62500)],
        [F(-116923316275, 2393684061468), F(-2731218467317, 15368042101831),
         F(9408046702089, 11113171139209)],
        [F(-451086348788, 2902428689909), F(-2682348792572, 7519795681897),
         F(12662868775082, 11960479115383), F(3355817975965, 11060851509271)],
        [F(647845179188, 3216320057751), F(73281519250, 8382639484533),
         F(552539513391, 3454668386233), F(3354512671639, 8306763924573), F(4040, 17871)],
    ]
    b = [F(82889, 524892), F(0), F(15625, 83664), F(69875, 102672), F(-2260, 8211), F(1, 4)]
    ai = [
        [],
        [F(1, 4)],
        [F(8611, 62500), F(-1743, 31250)],
        [F(5012029, 34652500), F(-654441, 2922500), F(174375, 388108)],
        [F(15267082809, 155376265600), F(-71443401, 120774400), F(730878875, 902184768),
         F(2285395, 8070912)],
        b[:5],
    ]
    b_hat = [F(4586570599, 29645900160), F(0), F(178811875, 945068544),
             F(814220225, 1159782912), F(-3700637, 11593932), F(61727, 225920)]
    return c, ae, ai, b, b_hat


def test_ark436_tableau_is_the_published_pair_and_has_its_orders():
    c, ae, ai, b, b_hat = _ark436_rationals()
    gamma = Fraction(1, 4)
    s = len(c)

    def close(x, q):
        return abs(x - float(q)) <= math.ulp(float(q))

    assert solver._ARK_GAMMA == gamma
    assert all(close(x, q) for x, q in zip(solver._ARK_C, c))
    for got, exact in ((solver._ARK_AE, ae), (solver._ARK_AI, ai)):
        assert [len(row) for row in got] == list(range(s))
        assert all(close(x, q) for row, ex in zip(got, exact) for x, q in zip(row, ex))
    assert all(close(x, q) for x, q in zip(solver._ARK_B, b))
    # The error weights are b - b_hat evaluated in floating point.
    assert all(abs(x - float(p - q)) <= 2 * math.ulp(float(p)) + 2 * math.ulp(float(q))
               for x, p, q in zip(solver._ARK_E, b, b_hat))

    # Full square tableaux; the ESDIRK one has gamma after its explicit
    # first stage.
    AE = [row + [Fraction(0)] * (s - len(row)) for row in ae]
    AI = [row + [gamma if i > 0 else Fraction(0)] + [Fraction(0)] * (s - i - 1)
          for i, row in enumerate(ai)]

    # ESDIRK half, exactly: rows sum to c, stiffly accurate.
    assert all(sum(row) == ci for row, ci in zip(AI, c))
    assert AI[-1] == b
    # Explicit half: the published rationals carry about 26 digits.
    assert all(abs(sum(row) - ci) <= 1e-20 for row, ci in zip(AE, c))
    assert AE[-1] != b  # not first same as last

    def weights(tree, tableaux):
        """Stage weights of `tree` for every assignment of tableaux to its non-root nodes."""
        out = [[Fraction(1)] * s]
        for child in tree:
            inner = [[sum(A[i][j] * v[j] for j in range(s)) for i in range(s)]
                     for A in tableaux for v in weights(child, tableaux)]
            out = [[o * w for o, w in zip(vo, vw)] for vo in out for vw in inner]
        return out

    def defects(tableaux, bw, order):
        return [sum(bi * p for bi, p in zip(bw, phi)) - _tree_inverse_gamma(tree)
                for n in range(1, order + 1) for tree in _rooted_trees(n)
                for phi in weights(tree, tableaux)]

    # ESDIRK alone: order 4 for b and 3 for b_hat, exactly.
    assert all(d == 0 for d in defects([AI], b, 4))
    assert all(d == 0 for d in defects([AI], b_hat, 3))
    # Explicit alone and every coupled (mixed explicit/implicit) condition.
    assert max(abs(d) for d in defects([AE, AI], b, 4)) <= 1e-20
    assert max(abs(d) for d in defects([AE, AI], b_hat, 3)) <= 1e-20
    # The embedded solution is exactly third order: some 4th-order tree fails.
    assert any(abs(d) > 1e-6 for d in defects([AI], b_hat, 4))

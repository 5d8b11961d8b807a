import inspect
import io
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from poromix import (
    Domain,
    DomainSpec,
    ForcingSpec,
    GalerkinSystem,
    KortewegParams,
    MobilityOverflowError,
    MobilitySpec,
    NonFiniteStateError,
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
from poromix.mobility import evaluate as mobility_values

from conftest import make_scalar, make_velocity, random_scalar


def _params(**kw):
    defaults = dict(mu_e=0.1, d=0.1, kappa=0.0)
    defaults.update(kw)
    return PhysicalParams(**defaults)


def _fix_first_step(monkeypatch, dt):
    """Start each later run with a trial of dt, capped at its first stop,
    instead of the estimated one (run looks `_initial_step` up at call time)."""
    monkeypatch.setattr(solver, "_initial_step",
                        lambda system, t, y, k1, diag, span, config: min(dt, span))


def test_params_validation(pi_domain):
    with pytest.raises(ValueError, match="mu_e"):
        PhysicalParams(mu_e=0.0, d=1.0)
    with pytest.raises(ValueError, match="d must"):
        PhysicalParams(mu_e=1.0, d=-2.0)
    with pytest.raises(ValueError, match="kappa"):
        PhysicalParams(mu_e=1.0, d=1.0, kappa=-0.5)
    with pytest.raises(ValueError, match="M_GN"):
        PhysicalParams(mu_e=1.0, d=1.0, m_gn=0.0)
    with pytest.raises(ValueError) as info:
        SimulationState(math.nan, make_scalar(pi_domain, []), make_velocity(pi_domain, []))
    assert str(info.value) == "state time must be finite, got nan"
    with pytest.raises(ValueError) as info:
        SolverConfig(T_run=1.0, blowup_cap=0)
    assert str(info.value) == "blowup_cap must be > 0, got 0"


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
    # The drag pairing's 2(Ns-1) + 2(Nv+1) sizes the grid; the cubic
    # reaction projection is on the midpoint rule.  With every term on, a
    # quadratic mobility and all modes excited, each block of the
    # right-hand side (concentration, velocity, work integrals) and the
    # diagnostics other than the nodal extremes match a grid four times the
    # size.
    spec = DomainSpec(Lx=math.pi, Ly=math.pi, Ns=16, Nv=4)
    assert integrand_degree(spec.Ns, spec.Nv) == 2 * (spec.Ns - 1) + 2 * (spec.Nv + 1)
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


def test_reaction_rate_exact_above_the_grid_degree():
    # At 12/1 the reaction projection's cosine degree 3(Ns-1) = 33 lies
    # above the Gauss-Legendre grid's 2(Ns-1) + 2(Nv+1) = 26: only the
    # midpoint rule projects it exactly.  With u = 0 the concentration
    # rate is -d lam B - kappa P_z[C (1-C)], here against a grid four
    # times the size.
    spec = DomainSpec(Lx=2.0, Ly=1.0, Ns=12, Nv=1)
    assert integrand_degree(spec.Ns, spec.Nv) < 3 * (spec.Ns - 1)
    dom = build_domain(spec)
    fine = build_domain(DomainSpec(spec.Lx, spec.Ly, spec.Ns, spec.Nv, M=4 * dom.grid.M))
    B = random_scalar(dom, seed=8, decay=False).coeffs
    B[0, 0] += 0.5 / dom.scalar.norm_00
    params = _params(d=1e-6, kappa=0.9)
    u = VelocityField(dom, np.zeros((1, 1)))
    got = rhs_concentration(SimulationState(0.0, ScalarField(dom, B), u), params).coeffs
    cg = fine.scalar_values(B)
    want = -params.d * dom.scalar.eigenvalues * B - params.kappa * fine.scalar_project(
        cg * (1.0 - cg))
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_zero_forcing_is_skipped_with_identical_ledger(pi_domain, monkeypatch):
    # The zero preset (the default) is never evaluated; a callable that
    # returns zeros is evaluated and paired.  Both runs write the same
    # ledger bytes.
    def zeros(domain, t):
        z = np.zeros((domain.grid.M, domain.grid.M))
        return z, z

    evaluated = []
    evaluate = ForcingSpec.evaluate

    def spy(self, *args, **kw):
        evaluated.append(self)
        return evaluate(self, *args, **kw)

    monkeypatch.setattr(ForcingSpec, "evaluate", spy)
    state = SimulationState(0.0, make_scalar(pi_domain, [(1, 1, 0.2)], offset=0.5),
                            make_velocity(pi_domain, [(1, 1, 0.3), (2, 1, -0.1)]))
    params = _params(kappa=0.5, korteweg=KortewegParams(delta_hat=0.2))
    csv = []
    for forcing in (None, ForcingSpec(zeros)):
        evaluated.clear()
        res = run(state, params, SolverConfig(T_run=0.2), forcing=forcing)
        assert bool(evaluated) == (forcing is not None)
        assert res.ledger.final.i_f == 0.0 and res.ledger.final.i_fdotu == 0.0
        buf = io.StringIO()
        res.ledger.to_csv(buf)
        csv.append(buf.getvalue())
    assert csv[0] == csv[1]


@pytest.mark.parametrize("name", ["steady_stream", "pulsed_stream"])
def test_preset_forcing_pairs_in_coefficient_space_as_on_the_grid(rect_domain, name):
    # A preset is amp(t) w[1,1], so it pairs as amp G[:, 0] with
    # int |f|^2 = amp^2 G[0, 0].  The oracle is its nodal values paired on
    # the Gauss-Legendre grid, as a table or callable is.
    preset = ForcingSpec.preset(name)
    nodal = ForcingSpec(preset.evaluate)
    gram = rect_domain.velocity.gram
    for t in (0.0, 0.3, 1.7):
        (pair, f_sq), (ref, ref_sq) = preset.pairing(rect_domain, t), nodal.pairing(rect_domain, t)
        assert np.abs(pair - ref).max() <= 1e-14 * np.abs(gram[:, 0]).max()
        assert abs(f_sq - ref_sq) <= 1e-14 * gram[0, 0]


@pytest.mark.parametrize("kappa", [0.0, 0.7])
def test_rhs_is_the_domain_transforms_assembly(pi_domain, monkeypatch, kappa):
    # Both blocks of rhs, bit for bit, from the Domain's allocating midpoint
    # transforms and pairings, in the order rhs forms them:
    #   bdot = -d lam B - P_sin[u . grad C] - kappa P[C (1-C)],
    #   G alpha' = -mu_e S alpha - (F(C) u, w) + dh (-lap C grad C, w) + (f, w).
    # With kappa = 0 the reaction projection is not formed at all.
    dom, dh = pi_domain, 0.1
    params = _params(kappa=kappa, mobility=MobilitySpec.exponential(0.5),
                     korteweg=KortewegParams(delta_hat=dh))
    forcing = ForcingSpec.preset("steady_stream")
    system = GalerkinSystem(dom, params, forcing)
    C = ScalarField(dom, random_scalar(dom, 3, scale=0.1).coeffs
                    + make_scalar(dom, offset=0.5).coeffs)
    u = make_velocity(dom, [(1, 1, 0.3), (2, 1, -0.2), (1, 2, 0.1)])
    B, A, lam = C.coeffs, u.coeffs, dom.scalar.eigenvalues

    cm, cx, cy, neg_lap = dom.midpoint_scalar_values(B, lam * B)
    F = mobility_values(params.mobility, cm)
    korteweg = dh * dom.midpoint_gradient_pairing(neg_lap * cx, neg_lap * cy)
    ux, uy = dom.midpoint_velocity_values(A)
    beta = (-params.d * lam) * B - dom.midpoint_sine_project(ux * cx + uy * cy)
    if kappa:
        beta -= kappa * dom.midpoint_project(cm * (1.0 - cm))
    else:
        def no_projection(*args, **kwargs):
            raise AssertionError("midpoint_project called with kappa = 0")

        monkeypatch.setattr(type(dom), "midpoint_project", no_projection)
    pair = (-params.mu_e * (dom.velocity.stiffness @ A.reshape(-1))
            - dom.midpoint_velocity_pairing(F * ux, F * uy).reshape(-1)
            + korteweg.reshape(-1)
            + forcing.pairing(dom, 0.2)[0])

    ydot = system.rhs(0.2, system.pack(C, u))
    assert ydot[: system.ns2].tobytes() == beta.tobytes()
    assert ydot[system.alpha_slice].tobytes() == dom.velocity.solve_gram(pair).tobytes()


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


def test_single_step_advances_and_controls_error(pi_domain, monkeypatch):
    C0 = make_scalar(pi_domain, [(1, 0, 1.0)])
    state = SimulationState(0.0, C0, make_velocity(pi_domain, []))
    _fix_first_step(monkeypatch, 0.01)
    res = run(state, _params(d=0.1), SolverConfig(T_run=0.01, rtol=1e-10, atol=1e-13))
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
        out = np.zeros((domain.spec.Ns, domain.spec.Ns))
        if t > 0.1:
            out[0, 0] = math.nan
        return out

    C0 = make_scalar(pi_domain, [], offset=0.5)
    state = SimulationState(0.0, C0, make_velocity(pi_domain, []))
    with pytest.raises(StepSizeUnderflowError) as info:
        run(state, _params(kappa=1.0), SolverConfig(T_run=1.0, rtol=1e-8, atol=1e-12),
            transport_source=bad_source)
    assert 0.0 <= info.value.t <= 0.2


def test_retry_after_a_rejected_landing_stops_short(monkeypatch):
    # The first trial lands on a checkpoint 1.5e-12 away and fails.  Its
    # retry at half the size ends within 1e-12 of that checkpoint, but must
    # keep its dt rather than be moved back onto the stop.
    domain = build_domain(DomainSpec(Lx=math.pi, Ly=math.pi, Ns=4, Nv=1))
    state = SimulationState(0.0, make_scalar(domain, [(1, 1, 0.2)], offset=0.5),
                            make_velocity(domain, [(1, 1, 0.1)]))
    trials = []
    orig = solver._attempt_step

    def attempt(system, t, y, dt, *a):
        trials.append((t, dt))
        if len(trials) == 1:
            raise NonFiniteStateError(t)
        return orig(system, t, y, dt, *a)

    monkeypatch.setattr(solver, "_attempt_step", attempt)
    res = run(state, _params(), SolverConfig(T_run=1e-3), checkpoint_times=(1.5e-12,))
    assert trials[:2] == [(0.0, 1.5e-12), (0.0, 7.5e-13)]
    assert res.ledger[1].t == 7.5e-13
    assert 1.5e-12 in res.checkpoints and res.checkpoints[1.5e-12].t == 1.5e-12
    assert res.steps_rejected == 1


def test_error_norm_counts_the_solution_over_the_whole_state_length(pi_domain):
    # The work integrals are quadratures that the energy residual gates
    # check, so their error does not count.  The sum over the C and alpha
    # entries is still divided by n_state, so each of them keeps the
    # tolerance of the norm over the whole state, bit for bit.
    system = GalerkinSystem(pi_domain, _params())
    cfg = SolverConfig(T_run=1.0)
    n_sol = system.ns2 + system.nv2
    rng = np.random.default_rng(3)
    y_old, y_new = rng.standard_normal((2, system.n_state))

    def whole_state_norm(err):  # the norm with the riders counted
        scale = cfg.atol + cfg.rtol * np.maximum(np.abs(y_old), np.abs(y_new))
        return float(np.sqrt(((err / scale) ** 2).mean()))

    err = np.zeros(system.n_state)
    err[n_sol:] = rng.standard_normal(system.n_state - n_sol)
    assert solver._error_norm(err, y_old, y_new, cfg, n_sol) == 0.0
    for i in (0, system.ns2 - 1, system.ns2, n_sol - 1):  # first and last C, then alpha
        err = np.zeros(system.n_state)
        err[i] = 3e-8
        assert solver._error_norm(err, y_old, y_new, cfg, n_sol) == whole_state_norm(err) > 0.0


def test_trial_with_a_non_finite_rider_is_rejected(monkeypatch):
    # The riders leave the norm, not the finiteness check on y_new and err.
    domain = build_domain(DomainSpec(Lx=math.pi, Ly=math.pi, Ns=4, Nv=1))
    state = SimulationState(0.0, make_scalar(domain, [(1, 1, 0.2)], offset=0.5),
                            make_velocity(domain, [(1, 1, 0.1)]))
    trials = []
    orig = solver._attempt_step

    def attempt(system, t, y, dt, *a):
        trials.append(dt)
        y_new, k_new, diag_new, err, pair = orig(system, t, y, dt, *a)
        if len(trials) == 1:
            err[-1] = math.inf
        return y_new, k_new, diag_new, err, pair

    monkeypatch.setattr(solver, "_attempt_step", attempt)
    res = run(state, _params(), SolverConfig(T_run=1e-3))
    assert trials[1] == 0.5 * trials[0] and res.steps_rejected == 1


def test_automatic_first_trial_is_accepted_near_its_tolerance(monkeypatch):
    # The verify suites' mild nonlinear run (energy suite).  From a fixed
    # first step of 1e-4 the first error norm is some 1e-9; the estimated
    # first step is accepted with a norm within three decades of 1.
    domain = build_domain(DomainSpec(Lx=2.0, Ly=1.0, Ns=10, Nv=3))
    state = SimulationState(0.0, make_scalar(domain, [(1, 1, 0.2), (2, 0, 0.1), (0, 3, 0.05)],
                                             offset=0.4),
                            make_velocity(domain, [(1, 1, 0.4), (2, 1, 0.2)]))
    params = _params(d=0.05, kappa=0.8, korteweg=KortewegParams(delta_hat=0.2, gamma=0.1),
                     mobility=MobilitySpec.exponential(0.7))
    norms = []
    orig = solver._error_norm
    monkeypatch.setattr(solver, "_error_norm", lambda *a: norms.append(orig(*a)) or norms[-1])
    first = {}
    for fixed in (None, 1e-4):  # the estimate, then a fixed first step
        if fixed:
            _fix_first_step(monkeypatch, fixed)
        norms.clear()
        res = run(state, params, SolverConfig(T_run=0.4),
                  forcing=ForcingSpec.preset("pulsed_stream"))
        first[fixed] = norms[0]
        assert res.outcome == "completed" and res.steps_rejected == 0
    assert 1e-3 <= first[None] <= 1.0
    assert first[1e-4] < 1e-6


def _rhs_calls(monkeypatch, *args, **kwargs):
    """(calls to rhs, implicit_stage and evaluate_with_diagnostics, the result)
    of run(*args, **kwargs)."""
    calls = []
    for name in ("rhs", "implicit_stage", "evaluate_with_diagnostics"):
        orig = getattr(GalerkinSystem, name)

        def counted(self, *a, _orig=orig, **kw):
            calls.append(a[0])
            return _orig(self, *a, **kw)

        monkeypatch.setattr(GalerkinSystem, name, counted)
    res = run(*args, **kwargs)
    monkeypatch.undo()
    return len(calls), res


@pytest.mark.parametrize("case", ["mild", "drag"])
def test_automatic_first_step_costs_one_probe(pi_domain, monkeypatch, case):
    # Every trial of either pair makes six evaluations (see
    # test_each_trial_makes_its_pairs_calls), and the initial state one; the
    # estimate adds one probe, and a fixed first step none.
    if case == "mild":
        state = SimulationState(0.0, make_scalar(pi_domain, [(1, 1, 0.2)], offset=0.5),
                                make_velocity(pi_domain, [(1, 1, 0.3)]))
        params = _params(kappa=0.5, mobility=MobilitySpec.exponential(0.5))
    else:
        state, params = _drag_stiff_case()
    for fixed, probes in ((None, 1), (1e-4, 0)):
        if fixed:
            _fix_first_step(monkeypatch, fixed)  # _rhs_calls undoes it
        n_calls, res = _rhs_calls(monkeypatch, state, params, SolverConfig(T_run=0.2))
        assert n_calls == 1 + probes + 6 * (res.steps_accepted + res.steps_rejected)


def test_rest_state_takes_the_whole_span_to_its_first_stop(pi_domain):
    # A zero slope, at a uniform C without reaction and a fluid at rest or
    # at the zero state, gives a step capped at the first stop.
    for C0, kappa in ((make_scalar(pi_domain, [], offset=0.5), 0.0),
                      (make_scalar(pi_domain, []), 1.0)):
        state = SimulationState(0.0, C0, make_velocity(pi_domain, []))
        res = run(state, _params(kappa=kappa), SolverConfig(T_run=0.5))
        assert [row.t for row in res.ledger] == [0.0, 0.5]
        res = run(state, _params(kappa=kappa), SolverConfig(T_run=0.5), checkpoint_times=(0.2,))
        assert [row.t for row in res.ledger] == [0.0, 0.2, 0.5]


@pytest.mark.parametrize("n_fail", [1, 3, solver._PROBE_TRIES])
@pytest.mark.parametrize("failure", ["non-finite", "overflow", "huge"])
def test_a_failing_probe_is_retried_shorter_and_never_aborts(pi_domain, monkeypatch, failure,
                                                             n_fail):
    # A probe that raises, or whose slope is finite but so large that d2
    # overflows, is retried ten times shorter.  When every try fails, the
    # first trial takes the next shorter size and the run goes on.
    state = SimulationState(0.0, make_scalar(pi_domain, [(1, 1, 0.2)], offset=0.5),
                            make_velocity(pi_domain, [(1, 1, 0.3)]))
    probes, first_dt = [], []
    orig_rhs, orig_attempt = GalerkinSystem.rhs, solver._attempt_step

    def rhs(self, t, y, **kw):
        if not first_dt:
            probes.append(t)
            if len(probes) <= n_fail:
                if failure == "non-finite":
                    raise NonFiniteStateError(t)
                if failure == "overflow":
                    raise MobilityOverflowError("probe")
                return np.full_like(y, 1e300)
        return orig_rhs(self, t, y, **kw)

    def attempt(system, t, y, dt, *a):
        first_dt.append(dt)
        return orig_attempt(system, t, y, dt, *a)

    monkeypatch.setattr(GalerkinSystem, "rhs", rhs)
    monkeypatch.setattr(solver, "_attempt_step", attempt)
    res = run(state, _params(), SolverConfig(T_run=0.3))
    assert res.outcome == "completed" and res.final_state.t == 0.3
    assert len(probes) == min(n_fail + 1, solver._PROBE_TRIES)
    for h0, shorter in zip(probes, probes[1:]):
        assert shorter == pytest.approx(0.1 * h0, rel=1e-15)
    if n_fail == solver._PROBE_TRIES:
        assert first_dt[0] == pytest.approx(0.1 * probes[-1], rel=1e-15)


def test_a_slope_whose_norm_overflows_ends_as_a_fixed_start_does(monkeypatch):
    # F = e^350 drags a moving fluid, so the scaled norm of the initial
    # slope overflows.  The estimate neither divides by it nor returns 0:
    # the run underflows at its initial time, as it does from a fixed first
    # step of 1e-4.
    domain = build_domain(DomainSpec(Lx=math.pi, Ly=math.pi, Ns=8, Nv=2))
    state = SimulationState(0.0, make_scalar(domain, [(1, 1, 0.01)], offset=3.5),
                            make_velocity(domain, [(1, 1, 0.1)]))
    params = PhysicalParams(mu_e=1.0, d=1.0, mobility=MobilitySpec.exponential(100.0))
    for fixed in (None, 1e-4):  # the estimate, then a fixed first step
        if fixed:
            _fix_first_step(monkeypatch, fixed)
        with pytest.raises(StepSizeUnderflowError) as info:
            run(state, params, SolverConfig(T_run=0.5, rtol=1e-6, atol=1e-9))
        assert info.value.t == 0.0


@pytest.mark.parametrize("Ns, modes, offset, kappa", [(4, [(1, 0, 1.0)], 0.0, 0.0),
                                                      (2, [], 0.5, 1.0)],
                         ids=["diffusion", "logistic"])
def test_runs_the_riders_used_to_limit_keep_their_energy_gates(Ns, modes, offset, kappa):
    # The verify suites' diffusion run and logistic run from C = 0.5, whose
    # steps the riders' error set while it counted in the norm: every
    # segment's energy residuals stay within the unchanged bounds.
    domain = build_domain(DomainSpec(Lx=math.pi, Ly=math.pi, Ns=Ns, Nv=1))
    state = SimulationState(0.0, make_scalar(domain, modes, offset=offset),
                            make_velocity(domain, []))
    cfg = SolverConfig(T_run=1.0, rtol=1e-10, atol=1e-13)
    res = run(state, _params(kappa=kappa), cfg)
    assert res.outcome == "completed" and res.final_state.t == 1.0
    for which, col in (("C", "res_C"), ("u", "res_u")):
        bounds = segment_residual_bounds(res.ledger, cfg, which)
        assert all(abs(getattr(row, col)) <= b for row, b in zip(res.ledger.rows[1:], bounds))


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
    # ledger_row passes the columns in LedgerRow's field order.
    assert list(vars(res.ledger[0])) == ["t", *solver._STATE_COLUMNS, "res_C", "res_u", "blowup",
                                         *solver._WORK_FIELDS, *solver._STATE_TAIL]
    # Every column but the blow-up flag is a Python float, not a numpy scalar.
    for row in res.ledger:
        assert {type(value) for name, value in vars(row).items() if name != "blowup"} == {float}


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
    pairs = (("h1_semi_C", "i_grad_c"), ("h2_semi_C", "i_lap_c"), ("h1_semi_u", "i_grad_u"),
             ("dCdt_l2", "i_dcdt"), ("l2_f", "i_f"), ("fq_u", "i_fu"))
    assert len(states) == len(res.ledger) > 10
    for row, st in zip(res.ledger.rows, states):
        ex = system.extras(system.rhs(st.t, system.pack(st.C, st.u)))
        ex = dict(zip(solver._WORK_FIELDS, ex))
        assert row.t == st.t
        assert [getattr(row, name) for name, _ in pairs] == [ex[w] for _, w in pairs]


@pytest.mark.parametrize("Ns, Nv", [(2, 1), (8, 2), (32, 8)])
def test_work_integral_slopes_match_the_elementwise_oracle(Ns, Nv):
    # An independent oracle for the ten work-integral slopes, which rhs forms
    # as dot products over stacked transforms: the elementwise sums written
    # out over single-factor transforms, built here from the basis factors
    # and analysis matrices at the midpoints, with Korteweg on, kappa > 0,
    # pulsed forcing and a random state.  Each slope is held to its oracle
    # within 1e-13 of the sum of its terms' magnitudes, a rounding bound some
    # 200 times the largest difference seen (5.3e-16).
    from poromix.domain import (_analysis_matrix, _factor_expansions, _midpoint_nodes,
                                _scalar_factors, _stream_factors)

    dom = build_domain(DomainSpec(Lx=2.0, Ly=1.0, Ns=Ns, Nv=Nv))
    p = _params(mu_e=0.3, d=0.2, kappa=0.7, mobility=MobilitySpec.exponential(0.5),
                korteweg=KortewegParams(delta_hat=0.1))
    forcing = ForcingSpec.preset("pulsed_stream")
    system = GalerkinSystem(dom, p, forcing)
    rng = np.random.default_rng(Ns)
    B = 0.1 * rng.standard_normal((Ns, Ns))
    B[0, 0] += 0.5 / dom.scalar.norm_00
    A = 0.2 * rng.standard_normal((Nv, Nv))
    t = 0.3
    got = dict(zip(solver._WORK_FIELDS, system.extras(
        system.rhs(t, system.pack(ScalarField(dom, B), VelocityField(dom, A))))))

    P, cell = dom.midpoint.P, dom.midpoint.cell

    def side(L):  # z, z', phi, phi' and R against z, phi (sine data) and phi' (cosine data)
        s = _midpoint_nodes(P, L)[0]
        norm, z, zd, _ = _scalar_factors(s, L, Ns)
        z_f, phi_f, dphi_f = _factor_expansions(L, norm, Nv)
        return (z, zd, *_stream_factors(s, L, Nv)[:2], _analysis_matrix("sin", P, L, z_f),
                _analysis_matrix("sin", P, L, phi_f), _analysis_matrix("cos", P, L, dphi_f))

    zx, zxd, phx, phxd, rzx, rphx, rphxd = side(2.0)
    zy, zyd, phy, phyd, rzy, rphy, rphyd = side(1.0)
    lam, a = dom.scalar.eigenvalues, A.reshape(-1)
    C, Cx, Cy = zx @ B @ zy.T, zxd @ B @ zy.T, zx @ B @ zyd.T
    ux, uy = phx @ A @ phyd.T, -(phxd @ A @ phy.T)
    F, cc = np.exp(0.5 * C), C * (1.0 - C)
    p_adv = rzx.T @ (ux * Cx + uy * Cy) @ rzy
    p_cc = cell * (zx.T @ cc @ zy)
    bdot = -p.d * lam * B - p_adv - p.kappa * p_cc
    pair_F = cell * (phx.T @ (F * ux) @ phyd - phxd.T @ (F * uy) @ phy).reshape(-1)
    kt = 0.1 * (zx @ (lam * B) @ zy.T)  # -dh lap C
    pair_kt = (rphx.T @ (kt * Cx) @ rphyd - rphxd.T @ (kt * Cy) @ rphy).reshape(-1)
    pair_f, f_sq = forcing.pairing(dom, t)
    s_alpha = dom.velocity.stiffness @ a
    grad_c = (lam * B * B).sum()
    terms = {
        "iw_c": [p.d * grad_c, (B * p_adv).sum(), p.kappa * (B * p_cc).sum()],
        "iw_u": [p.mu_e * (a @ s_alpha), a @ pair_F, -(a @ pair_kt), -(a @ pair_f)],
        "i_grad_c": [grad_c],
        "i_lap_c": [(lam**2 * B * B).sum()],
        "i_grad_u": [a @ s_alpha],
        "i_fu": [a @ pair_F],
        "i_f": [f_sq],
        "i_fdotu": [a @ pair_f],
        "i_cc": [cell * (cc**2).sum()],
        "i_dcdt": [(bdot**2).sum()],
    }
    assert f_sq > 0.0 and a @ pair_kt != 0.0
    for name, parts in terms.items():
        assert abs(got[name] - sum(parts)) <= 1e-13 * sum(abs(x) for x in parts), name


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
    # A first step of 1 overshoots the (3, 3) mode (d lam = 18): a trial stage
    # reaches |R C| ~ 4.2e3, past the exponential-mobility limit, although
    # every accepted state stays near R C = 300.
    domain = build_domain(DomainSpec(Lx=math.pi, Ly=math.pi, Ns=8, Nv=2))
    state = SimulationState(0.0, make_scalar(domain, [(3, 3, 0.4)], offset=3.0),
                            make_velocity(domain, []))
    params = PhysicalParams(mu_e=1.0, d=1.0, kappa=0.0, mobility=MobilitySpec.exponential(100.0))
    cfg = SolverConfig(T_run=0.5, rtol=1e-6, atol=1e-9)
    return state, params, cfg


def test_trial_stage_mobility_overflow_rejects_step(monkeypatch):
    # The overshooting stage reaches the overflow guard, R C > 700.
    overflows = []

    def guarded(F, c):
        try:
            return mobility_values(F, c)
        except MobilityOverflowError as exc:
            overflows.append(exc)
            raise

    monkeypatch.setattr(solver, "mobility_values", guarded)
    state, params, cfg = _overshoot_case()
    _fix_first_step(monkeypatch, 1.0)
    res = run(state, params, cfg)
    assert overflows
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
    # Only the implicit-explicit pair takes an implicit stage.
    trials = []
    orig = GalerkinSystem.implicit_stage
    monkeypatch.setattr(GalerkinSystem, "implicit_stage",
                        lambda *a, **kw: trials.append(a) or orig(*a, **kw))
    state = SimulationState(0.0, make_scalar(pi_domain, [(1, 1, 0.2)], offset=0.5),
                            make_velocity(pi_domain, [(1, 1, 0.3)]))
    params = _params(kappa=0.5, mobility=MobilitySpec.exponential(0.5),
                     korteweg=KortewegParams(delta_hat=0.1))
    res = run(state, params, SolverConfig(T_run=0.6),
              forcing=ForcingSpec.preset("pulsed_stream"))
    assert res.steps_accepted > 0
    assert trials == [] and res.steps_implicit == 0


def test_each_trial_makes_its_pairs_calls(monkeypatch):
    # Per trial: an IMEX one takes 5 implicit stages, each one evaluation
    # that solves its momentum stage, and no rhs; a DP5(4) one makes 5
    # plain rhs calls.  Both end in one evaluation with diagnostics at the
    # result.
    trials = []  # per _attempt_step: the names of its calls
    accepted = []  # per accepted step: its accepted trial's calls
    for name in ("rhs", "evaluate_with_diagnostics", "implicit_stage"):
        orig = getattr(GalerkinSystem, name)

        def counted(self, *a, _name=name, _orig=orig, **kw):
            if trials:
                trials[-1].append(_name)
            return _orig(self, *a, **kw)

        monkeypatch.setattr(GalerkinSystem, name, counted)
    orig_attempt, orig_row = solver._attempt_step, GalerkinSystem.ledger_row

    def attempt(*a):
        trials.append([])
        return orig_attempt(*a)

    def ledger_row(self, *a):
        # Every row after the initial one records the trial just accepted.
        if trials:
            accepted.append(trials[-1])
        return orig_row(self, *a)

    monkeypatch.setattr(solver, "_attempt_step", attempt)
    monkeypatch.setattr(GalerkinSystem, "ledger_row", ledger_row)
    state, params = _drag_stiff_case()
    # From a small first step the run takes DP5(4) trials before the IMEX
    # ones; the automatic first step is IMEX at once.
    _fix_first_step(monkeypatch, 1e-4)
    res = run(state, params, SolverConfig(T_run=0.2))
    monkeypatch.undo()

    imex = ["implicit_stage"] * 5 + ["evaluate_with_diagnostics"]
    dp54 = ["rhs"] * 5 + ["evaluate_with_diagnostics"]
    n_imex = trials.count(imex)
    assert n_imex + trials.count(dp54) == len(trials) == res.steps_accepted + res.steps_rejected
    assert 0 < n_imex < len(trials)
    assert len(accepted) == res.steps_accepted
    assert res.steps_implicit == accepted.count(imex)


def test_dp54_step_is_the_textbook_recurrence(pi_domain):
    # An independent oracle: the Dormand-Prince 5(4) recurrence written out
    # here from its published tableau, not from the solver's constants,
    # k_i = rhs(t + c_i dt, y + dt sum_j a_ij k_j), y5 = y + dt sum_i b_i k_i,
    # err = dt sum_i e_i k_i with k_7 = rhs(t + dt, y5).  DP5(4)'s arithmetic
    # must never change, so one step must match it bit for bit.
    c = [0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0]
    a = [[],
         [1 / 5],
         [3 / 40, 9 / 40],
         [44 / 45, -56 / 15, 32 / 9],
         [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
         [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]]
    b = [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]
    e = [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
    system, (y, _) = _workspace_case(pi_domain)
    t, dt = 0.3, 0.05
    k1, diag = system.evaluate_with_diagnostics(t, y)
    y_new, k_new, diag_new, err, pair = solver._attempt_step(system, t, y, dt, k1, t + dt, diag)
    assert pair.ai is None and pair.order == 5

    k = [k1]
    for i in range(1, 6):
        k.append(system.rhs(t + c[i] * dt, y + dt * (np.array(a[i]) @ np.array(k))))
    y5 = y + dt * (np.array(b) @ np.array(k))
    k7, diag7 = system.evaluate_with_diagnostics(t + dt, y5)
    assert y_new.tobytes() == y5.tobytes()
    assert k_new.tobytes() == k7.tobytes() and diag_new["l2_C"] == diag7["l2_C"]
    assert err.tobytes() == (dt * (np.array(e) @ np.array(k + [k7]))).tobytes()


def _recorded_imex_trial(monkeypatch, system, t, y, dt):
    """One trial from (t, y), its stages' slopes k_1..k_6 and the
    concentration coefficients of its implicit stages."""
    k1, diag = system.evaluate_with_diagnostics(t, y)
    ks, stage_B = [k1], []
    stage = system.implicit_stage

    def recorded(t_i, z, gh):
        stage_B.append(z[: system.ns2].reshape(system.Ns, system.Ns).copy())
        out = stage(t_i, z, gh)
        ks.append(out[0])
        return out

    with monkeypatch.context() as m:
        m.setattr(system, "implicit_stage", recorded)
        trial = solver._attempt_step(system, t, y, dt, k1, t + dt, diag)
    assert trial[-1].ai is not None and diag["max_F"] * dt / 4 >= 1
    assert len(ks) == 6 and len(stage_B) == 5
    return trial, np.array(ks), stage_B


def _ark436_floats():
    """b and b - b_hat of the published ARK4(3)6L[2]SA, in floating point."""
    _, _, _, b, b_hat = _ark436_rationals()
    b, b_hat = np.array([float(q) for q in b]), np.array([float(q) for q in b_hat])
    return b, b - b_hat


def test_imex_step_is_the_filtered_recurrence(monkeypatch):
    # An independent oracle for an implicit-explicit trial: y_new =
    # y + dt sum_i b_i k_i and the estimate dt sum_i e_i k_i, e = b - b_hat,
    # from the published tableau and the slopes its stages evaluated; the
    # estimate's alpha block goes through (G + gh (mu_e S + D_F(C_6)))^-1 G,
    # with the matrix built here from the domain's methods at the last
    # stage's concentration C_6.  Bit for bit, as for DP5(4).
    state, params = _drag_stiff_case()
    dom, p = state.domain, params
    system = GalerkinSystem(dom, p)
    y, t, dt = system.pack(state.C, state.u), 0.3, 0.01
    (y_new, _, _, err, _), k, stage_B = _recorded_imex_trial(monkeypatch, system, t, y, dt)
    b, e = _ark436_floats()
    assert y_new.tobytes() == (y + dt * (b @ k)).tobytes()
    expected = dt * (e @ k)
    B_6 = stage_B[-1]  # the stage forms C with -lap C, as dh != 0
    c_6 = dom.midpoint_scalar_values(B_6, dom.scalar.eigenvalues * B_6)[0]
    f_6 = mobility_values(p.mobility, c_6)
    lhs = dom.velocity.gram + dt / 4 * (p.mu_e * dom.velocity.stiffness + dom.weighted_gram(f_6))
    va = system.alpha_slice
    expected[va] = np.linalg.solve(lhs, dom.velocity.gram @ expected[va])
    assert err.tobytes() == expected.tobytes()


def test_filtered_velocity_error_estimate_tracks_the_true_error(monkeypatch):
    # Where the drag is stiff (gh max F >= 1) the embedded estimate of the
    # alpha error overstates the step's true local error; the filtered one
    # tracks it.  The true errors are the step's result y_new, and the
    # embedded result y_hat = y + dt sum_i b_hat_i k_i, minus a run over
    # the same dt at rtol 1e-13.  The state is relaxed from rest, u != 0.
    # The raw estimate is y_new - y_hat; here the two errors are about as
    # large as each other and of opposite sign, so it is about twice
    # either.  The step keeps y_new, so the first target is its error; the
    # filtered estimate is within a factor 2 of both.  Measured at T_run
    # 0.04-0.06 and dt 0.008-0.012: filtered/true 0.63-0.70 for y_new (raw
    # 1.77-2.10), and |y_new error|/|y_hat error| 0.89-1.29.
    state, params = _drag_stiff_case()
    state = run(state, params, SolverConfig(T_run=0.05)).final_state
    system = GalerkinSystem(state.domain, params)
    y, dt, va = system.pack(state.C, state.u), 0.01, system.alpha_slice
    assert np.abs(y[va]).max() > 0
    (y_new, _, _, err, _), k, _ = _recorded_imex_trial(monkeypatch, system, state.t, y, dt)
    b, e = _ark436_floats()
    raw = (dt * (e @ k))[va]
    ref = run(state, params, SolverConfig(T_run=dt, rtol=1e-13, atol=1e-16)).final_state
    true = y_new[va] - ref.u.coeffs.reshape(-1)
    true_hat = (y + dt * ((b - e) @ k))[va] - ref.u.coeffs.reshape(-1)
    norm = np.linalg.norm
    assert norm(err[va] - true) < norm(raw - true)
    assert 0.5 <= norm(err[va]) / norm(true) <= 2
    assert 0.5 <= norm(err[va]) / norm(true_hat) <= 2


def _workspace_case(domain):
    """A system on `domain` with every evaluation branch on (Korteweg, reaction,
    exponential drag, pulsed forcing) and two distinct states."""
    params = _params(kappa=1.0, mobility=MobilitySpec.exponential(0.5),
                     korteweg=KortewegParams(delta_hat=0.1))
    system = GalerkinSystem(domain, params, ForcingSpec.preset("pulsed_stream"))
    rng = np.random.default_rng(7)
    states = []
    for seed in (1, 2):
        C = ScalarField(domain, random_scalar(domain, seed, scale=0.1).coeffs
                        + make_scalar(domain, offset=0.5).coeffs)
        A = 0.2 * rng.standard_normal((domain.spec.Nv, domain.spec.Nv))
        states.append(system.pack(C, VelocityField(domain, A)))
    return system, states


def test_evaluations_do_not_alias_the_workspace(pi_domain):
    # Each evaluation reuses the system's grid buffers.  What one returned
    # must survive the next evaluations, and a repeat must reproduce it bit
    # for bit.
    system, (y1, y2) = _workspace_case(pi_domain)
    r1 = system.rhs(0.3, y1)
    d1, diag1 = system.evaluate_with_diagnostics(0.3, y1)

    def values(ydot, diag):
        scalars = {k: v for k, v in diag.items() if k != "implicit_pair"}
        return ydot.tobytes(), diag["implicit_pair"].tobytes(), scalars

    first = (r1.tobytes(), *values(d1, diag1))

    r2 = system.rhs(0.7, y2)
    _, diag2 = system.evaluate_with_diagnostics(0.7, y2)
    assert r2.tobytes() != first[0] and diag2["l2_C"] != diag1["l2_C"]
    assert (r1.tobytes(), *values(d1, diag1)) == first

    r3 = system.rhs(0.3, y1)
    d3, diag3 = system.evaluate_with_diagnostics(0.3, y1)
    assert (r3.tobytes(), *values(d3, diag3)) == first


def test_implicit_stage_nodal_values_give_the_plain_rhs(pi_domain):
    # An implicit stage is one evaluation: its midpoint values of C and F(C)
    # in the workspace, which first holds another state's, give the slope of
    # rhs at the stage's solved value.  The stage pairs the drag as D_F
    # alpha; rhs pairs F(C) u through midpoint_velocity_pairing, a second
    # assembly of the drag that stays as the independent oracle for D_F
    # alpha.  What does not read the drag, the C block and every work
    # integral but iw_u and i_fu, is bit for bit rhs's; the rest agrees to
    # 1e-13 relative (measured: 1.5e-16).
    system, (y1, y2) = _workspace_case(pi_domain)
    va, n_sol = system.alpha_slice, system.ns2 + system.nv2
    drag = [n_sol + solver._WORK_FIELDS.index(name) for name in ("iw_u", "i_fu")]
    for gh in (0.05, 1.0, 10.0):
        system.rhs(0.1, y2)  # fill the workspace with another state's values
        z = y1.copy()
        k, (alpha, _) = system.implicit_stage(0.3, z, gh)
        assert z.tobytes() == y1.tobytes()  # the stage input is not written
        z[va] = alpha
        ref = system.rhs(0.3, z)
        plain = np.ones(ref.size, bool)
        plain[va] = plain[drag] = False
        assert k[plain].tobytes() == ref[plain].tobytes()
        assert np.abs(k[va] - ref[va]).max() <= 1e-13 * np.abs(ref[va]).max()
        assert np.all(np.abs(k[drag] - ref[drag]) <= 1e-13 * np.abs(ref[drag]))


def test_an_implicit_stage_assembles_the_drag_once(pi_domain, monkeypatch):
    # One midpoint pass over C, into the system's workspace, and one
    # D_F(C), which pairs the drag as D_F alpha: the midpoint pairing of
    # F(C) u never runs.
    system, (y, _) = _workspace_case(pi_domain)
    calls = []
    for name in ("weighted_gram", "midpoint_scalar_values"):
        orig = getattr(Domain, name)
        monkeypatch.setattr(Domain, name, lambda self, *a, _name=name, _orig=orig, **kw:
                            calls.append((_name, kw.get("out"))) or _orig(self, *a, **kw))

    def no_pairing(self, *a, **kw):
        raise AssertionError("an implicit stage paired F(C) u on the midpoint rule")

    monkeypatch.setattr(Domain, "midpoint_velocity_pairing", no_pairing)
    system.implicit_stage(0.3, y, 0.05)
    assert sorted(name for name, _ in calls) == ["midpoint_scalar_values", "weighted_gram"]
    out = dict(calls)["midpoint_scalar_values"]
    assert out is not None and all(np.shares_memory(a, system._mid_work) for a in out)


def test_rhs_is_a_function_of_t_and_y_alone():
    assert list(inspect.signature(GalerkinSystem.rhs).parameters) == ["self", "t", "y"]


def _ledger_csv(result):
    buf = io.StringIO()
    result.ledger.to_csv(buf)
    return buf.getvalue()


def test_an_unforced_system_pairs_no_body_force(pi_domain, monkeypatch):
    # forcing None is no body force: nothing is paired, yet rhs, the
    # evaluation with diagnostics and a whole run give the zero preset's bytes.
    system, (y, _) = _workspace_case(pi_domain)
    cfg = SolverConfig(T_run=0.05)

    def values(system):
        ydot, diag = system.evaluate_with_diagnostics(0.3, y)
        res = run(system.unpack(0.0, y), system.params, cfg, forcing=system.forcing)
        return ([a.tobytes() for a in (system.rhs(0.3, y), ydot, *map(np.asarray, diag.values()))],
                _ledger_csv(res))

    zero = values(GalerkinSystem(pi_domain, system.params, ForcingSpec.preset("zero")))

    def no_pairing(self, domain, t):
        raise AssertionError("an unforced system paired a body force")

    monkeypatch.setattr(ForcingSpec, "pairing", no_pairing)
    assert values(GalerkinSystem(pi_domain, system.params)) == zero


@pytest.mark.parametrize("imex", [False, True], ids=["dp54", "ark436"])
def test_a_trial_evaluates_forcing_and_source_once_per_stage_time(monkeypatch, imex):
    # Both depend on time alone.  A trial makes 6 evaluations at 5 times:
    # its last stage, c = 1, and its result share t + dt.
    state, params = _drag_stiff_case()
    domain = state.domain
    M, Ns = domain.grid.M, domain.spec.Ns
    forced, sourced = [], []
    forcing = ForcingSpec(lambda dom, t: forced.append(t) or (np.full((M, M), 0.1 + t),
                                                             np.full((M, M), -0.2 * t)))
    system = GalerkinSystem(domain, params, forcing,
                            transport_source=lambda dom, t: sourced.append(t) or np.full(
                                (Ns, Ns), 1e-3 * t))
    y = system.pack(state.C, state.u)
    k1, diag = system.evaluate_with_diagnostics(0.0, y)
    evaluations = []
    for name in ("rhs", "implicit_stage", "evaluate_with_diagnostics"):
        orig = getattr(system, name)
        monkeypatch.setattr(system, name, lambda *a, _orig=orig, **kw: evaluations.append(a[0])
                            or _orig(*a, **kw))
    monkeypatch.setattr(solver, "_takes_imex", lambda system, dt, diag: imex)
    forced.clear(), sourced.clear()
    dt = 1e-3
    *_, pair = solver._attempt_step(system, 0.0, y, dt, k1, dt, diag)
    assert (pair.ai is not None) == imex
    assert len(evaluations) == 6 and len(set(evaluations)) == 5
    assert forced == sourced == list(dict.fromkeys(evaluations))


def test_rhs_of_a_preset_forced_system_uses_no_gauss_legendre_array(pi_domain):
    # Every product of the solution, min C among them, is on the midpoint
    # rule and a preset forcing pairs in coefficient space: with the
    # Gauss-Legendre grid taken away, an rhs, an implicit stage, an
    # evaluation with diagnostics and a whole run give the same bytes.
    system, (y, _) = _workspace_case(pi_domain)
    bare = Domain(pi_domain.spec, pi_domain.scalar, pi_domain.velocity, None, pi_domain.midpoint)
    got = []
    for domain in (pi_domain, bare):
        system.domain = domain
        ydot, diag = system.evaluate_with_diagnostics(0.3, y)
        k, (alpha, lhs) = system.implicit_stage(0.3, y, 0.05)
        arrays = (system.rhs(0.3, y), k, alpha, lhs, ydot, *map(np.asarray, diag.values()))
        res = run(system.unpack(0.0, y), system.params, SolverConfig(T_run=0.05),
                  forcing=system.forcing)
        got.append(([a.tobytes() for a in arrays], _ledger_csv(res)))
    assert got[0] == got[1]


def test_a_run_does_not_depend_on_the_gauss_legendre_size():
    # The Gram and stiffness matrices and min C come from the midpoint rule,
    # so a preset-forced run writes the same ledger at the default M and at
    # twice it.
    csv = []
    for M in (None, 2 * build_domain(DomainSpec(Lx=math.pi, Ly=2.0, Ns=6, Nv=2)).grid.M):
        domain = build_domain(DomainSpec(Lx=math.pi, Ly=2.0, Ns=6, Nv=2, M=M))
        system, (y, _) = _workspace_case(domain)
        res = run(system.unpack(0.0, y), system.params, SolverConfig(T_run=0.05),
                  forcing=system.forcing)
        csv.append(_ledger_csv(res))
    assert csv[0] == csv[1]


def test_min_c_is_exact_on_a_corner(pi_domain):
    # C = 1.5 + cos x cos y takes its minimum 0.5 on the corners (pi, 0) and
    # (0, pi), which the midpoint nodes plus the walls contain and the
    # Gauss-Legendre nodes miss.
    state = SimulationState(0.0, make_scalar(pi_domain, [(1, 1, 1.0)], offset=1.5),
                            make_velocity(pi_domain, []))
    res = run(state, _params(), SolverConfig(T_run=0.01))
    assert abs(res.ledger[0].min_C - 0.5) <= 1e-14
    assert pi_domain.scalar_values(state.C.coeffs).min() > 0.5 + 1e-5


def test_drag_matrix_is_bounded_by_the_midpoint_max_of_f(pi_domain, monkeypatch):
    # _takes_imex's bound (D_F a, a) <= max_F (G a, a) holds with max_F the
    # diagnostics' maximum over the midpoint nodes that assemble D_F, and
    # D_F the matrix an implicit stage assembles.
    system, states = _workspace_case(pi_domain)
    gram = pi_domain.velocity.gram
    rng = np.random.default_rng(12)
    assembled = []
    weighted_gram = Domain.weighted_gram
    monkeypatch.setattr(Domain, "weighted_gram",
                        lambda self, v: assembled.append(weighted_gram(self, v)) or assembled[-1])
    for y in states:
        _, diag = system.evaluate_with_diagnostics(0.3, y)
        system.implicit_stage(0.3, y, 0.05)
        d_f = assembled[-1]
        for a in rng.standard_normal((20, system.nv2)):
            assert a @ d_f @ a <= diag["max_F"] * (a @ gram @ a) * (1 + 1e-13)


def test_evaluations_allocate_no_grid_array():
    # At 32/8 one grid array is 87^2 doubles.  After a warm-up, one rhs may
    # allocate under 2 of them at its peak and one evaluation with
    # diagnostics under 5 (13.4 and 16.0 when every intermediate was new).
    domain = build_domain(DomainSpec(Lx=math.pi, Ly=math.pi, Ns=32, Nv=8))
    system, (y, _) = _workspace_case(domain)
    grid_bytes = domain.grid.M ** 2 * 8
    system.evaluate_with_diagnostics(0.3, y)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        for evaluate, budget in ((system.rhs, 2), (system.evaluate_with_diagnostics, 5)):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            evaluate(0.3, y)
            assert tracemalloc.get_traced_memory()[1] - base < budget * grid_bytes
    finally:
        if not tracing:
            tracemalloc.stop()


def test_implicit_stage_matrix_is_the_allocating_sum(pi_domain):
    # The stage solves with G + gh (mu_e S + D_F(C)) exactly as this
    # expression forms it, and returns that matrix.
    system, (y, _) = _workspace_case(pi_domain)
    gh = 0.05
    _, (alpha, stage_lhs) = system.implicit_stage(0.3, y, gh)
    dom, p = pi_domain, system.params
    B = y[: system.ns2].reshape(system.Ns, system.Ns)  # with -lap C, as dh != 0
    f_mid = mobility_values(p.mobility, dom.midpoint_scalar_values(B, dom.scalar.eigenvalues * B)[0])
    lhs = dom.velocity.gram + gh * (p.mu_e * dom.velocity.stiffness + dom.weighted_gram(f_mid))
    expected = np.linalg.solve(lhs, dom.velocity.gram @ y[system.alpha_slice])
    assert alpha.tobytes() == expected.tobytes()
    assert stage_lhs.tobytes() == lhs.tobytes()
    # A non-finite stage matrix, or a finite one that gives a non-finite
    # alpha, is reported as such, never returned.
    with pytest.raises(NonFiniteStateError):
        system.implicit_stage(0.3, y, math.inf)
    z = y.copy()
    z[system.alpha_slice.start] = math.nan
    with pytest.raises(NonFiniteStateError):
        system.implicit_stage(0.3, z, gh)


def test_run_builds_only_the_final_state_without_sink_or_checkpoints(pi_domain, monkeypatch):
    unpacked = []
    unpack = GalerkinSystem.unpack
    monkeypatch.setattr(GalerkinSystem, "unpack",
                        lambda self, t, y: unpacked.append(t) or unpack(self, t, y))
    state = SimulationState(0.0, make_scalar(pi_domain, [(1, 1, 0.2)], offset=0.5),
                            make_velocity(pi_domain, [(1, 1, 0.3)]))
    res = run(state, _params(), SolverConfig(T_run=0.3))
    assert res.steps_accepted > 1
    assert unpacked == [res.final_state.t]
    unpacked.clear()
    snaps = []
    res = run(state, _params(), SolverConfig(T_run=0.3), snapshot_sink=snaps.append,
              checkpoint_times=(0.1,))
    assert [s.t for s in snaps] == unpacked[:-1] and len(snaps) == res.steps_accepted + 1
    assert res.checkpoints[0.1] is snaps[[s.t for s in snaps].index(0.1)]


# 0.1 + (0.45 - 0.1) rounds to 0.44999999999999996: the loose run's first
# step starts the next one with rhs(0.45, y) only if its last stage is taken
# at the stop itself rather than at t + dt.
@pytest.mark.parametrize("t0, rtol, dt_first, stop", [(0.1, 1e-2, 0.35, 0.45),
                                                      (0.0, 1e-8, 0.3, 0.35)])
def test_last_stage_is_the_next_steps_slope(pi_domain, monkeypatch, t0, rtol, dt_first, stop):
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
    _fix_first_step(monkeypatch, dt_first)
    res = run(state, params, SolverConfig(T_run=0.6, rtol=rtol, atol=1e-3 * rtol),
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

import math

import pytest

from poromix import (
    ForcingSpec,
    MobilitySpec,
    PhysicalParams,
    SimulationState,
    SolverConfig,
    apriori_flags,
    decay_to_mean_check,
    perturbation_stability,
    positivity_check,
    run,
)
from poromix.diagnostics import segment_residual_bounds
from poromix.ledger import EnergyLedger, LedgerRow
from poromix.oracles import logistic_solution

from conftest import make_scalar, make_velocity


def _params(**kw):
    defaults = dict(mu_e=0.1, d=0.1, kappa=0.0)
    defaults.update(kw)
    return PhysicalParams(**defaults)


def _still(domain, offset, modes=()):
    return SimulationState(
        0.0, make_scalar(domain, list(modes), offset=offset), make_velocity(domain, [])
    )


def test_positivity_steady_state(pi_domain):
    res = run(_still(pi_domain, 1.0), _params(), SolverConfig(T_run=0.5, rtol=1e-9, atol=1e-12))
    report = positivity_check(res)
    assert report.passed
    assert report.min_over_time == pytest.approx(1.0, abs=1e-9)


def test_positivity_tracks_logistic_minimum(pi_domain):
    # Uniform 0.5 under kappa = 1 follows the logistic curve exactly.
    T = 0.8
    res = run(_still(pi_domain, 0.5), _params(kappa=1.0),
              SolverConfig(T_run=T, rtol=1e-10, atol=1e-13))
    report = positivity_check(res)
    expected = logistic_solution(0.5, 1.0, T)
    assert report.min_over_time == pytest.approx(expected, abs=1e-8)
    assert report.min_time == pytest.approx(T, abs=1e-12)


def test_positivity_requires_positive_start(pi_domain):
    res = run(_still(pi_domain, 0.0), _params(), SolverConfig(T_run=0.1))
    with pytest.raises(ValueError, match="positive"):
        positivity_check(res)


def test_positivity_refinement_trend(pi_domain):
    cfg = SolverConfig(T_run=0.2, rtol=1e-9, atol=1e-12)
    res = run(_still(pi_domain, 1.5, [(1, 1, 1.0)]), _params(kappa=1.0), cfg)
    report = positivity_check(res, refined=res)
    assert report.undershoot_grew is False


def test_decay_check_rejects_reactive_runs(pi_domain):
    res = run(_still(pi_domain, 0.5), _params(kappa=1.0), SolverConfig(T_run=0.1))
    with pytest.raises(ValueError, match="kappa"):
        decay_to_mean_check(res, _params(kappa=1.0))


def test_decay_single_mode_rate(pi_domain):
    # u = 0, C0 = cos x, d = 0.1 on (0, pi)^2: squared deviation decays at
    # exactly 2 d lam_1 = 0.2.
    params = _params(d=0.1)
    res = run(_still(pi_domain, 0.5, [(1, 0, 1.0)]), params,
              SolverConfig(T_run=1.0, rtol=1e-10, atol=1e-13))
    report = decay_to_mean_check(res, params)
    assert report.passed
    assert report.rate_bound == pytest.approx(0.2)
    assert report.fitted_rate == pytest.approx(0.2, rel=1e-6)
    assert report.max_violation <= report.slack


def test_decay_already_at_mean(pi_domain):
    params = _params()
    res = run(_still(pi_domain, 0.7), params, SolverConfig(T_run=0.3, rtol=1e-9, atol=1e-12))
    report = decay_to_mean_check(res, params)
    assert report.passed


def test_perturbation_zero_eps_trivial(pi_domain):
    report = perturbation_stability(
        make_scalar(pi_domain, [], offset=0.5),
        make_scalar(pi_domain, [(1, 0, 1.0)]),
        0.0,
        _params(),
        SolverConfig(T_run=0.2),
    )
    assert report.conclusive
    assert all(v == 0.0 for v in report.ratios.values())


def test_perturbation_linear_diffusion_ratio_exactly_four(pi_domain):
    # kappa = 0, u = 0, delta_hat = 0: the difference field is linear in the
    # perturbation, so the distance ratio is 4 up to integrator noise.
    params = _params(d=0.2)
    report = perturbation_stability(
        make_scalar(pi_domain, [], offset=0.5),
        make_scalar(pi_domain, [(1, 0, 1.0)]),
        1e-3,
        params,
        SolverConfig(T_run=0.5, rtol=1e-12, atol=1e-15),
        checkpoint_times=(0.25, 0.5),
    )
    assert report.conclusive
    for ratio in report.ratios.values():
        assert ratio == pytest.approx(4.0, abs=1e-6)


def test_perturbation_inconclusive_on_blowup(pi_domain):
    params = _params(kappa=1.0)
    report = perturbation_stability(
        make_scalar(pi_domain, [], offset=2.0),
        make_scalar(pi_domain, [(1, 0, 1.0)]),
        1e-4,
        params,
        SolverConfig(T_run=1.5, rtol=1e-8, atol=1e-11, blowup_cap=1e4),
        checkpoint_times=(1.5,),
    )
    assert not report.conclusive
    assert "blew up" in report.detail


def test_perturbation_checkpoint_past_the_run_is_named(pi_domain):
    with pytest.raises(ValueError, match="checkpoint time 0.2 lies outside the run"):
        perturbation_stability(
            make_scalar(pi_domain, [], offset=0.5),
            make_scalar(pi_domain, [(1, 0, 1.0)]),
            1e-3,
            _params(),
            SolverConfig(T_run=0.1),
            checkpoint_times=(0.2,),
        )


def test_apriori_zero_solution(pi_domain):
    res = run(_still(pi_domain, 0.0), _params(kappa=1.0), SolverConfig(T_run=0.3))
    report = apriori_flags(res.ledger, _params(kappa=1.0))
    assert report.all_finite
    assert report.dissipation_holds
    assert report.dissipation_lhs == 0.0
    solution_keys = ("l2_C", "h1_semi_C", "h2_semi_C", "l2_u", "h1_semi_u",
                     "fq_u", "dCdt_l2", "l2_f", "korteweg_dual_majorant")
    assert all(report.sups[k] == 0.0 for k in solution_keys)
    # The mobility's own H1 norm is a property of F, not of the solution:
    # for F = 1 on the zero state it is the domain area.
    assert report.sups["h1_F_sq"] == pytest.approx(math.pi**2, rel=1e-12)


def test_apriori_pure_diffusion_identity(pi_domain):
    # kappa = 0, u = 0: int ||grad C||^2 dt = (||C0||^2 - ||C(T)||^2) / (2 d).
    params = _params(d=0.25)
    res = run(_still(pi_domain, 0.4, [(1, 1, 0.5), (2, 0, 0.3)]), params,
              SolverConfig(T_run=0.6, rtol=1e-10, atol=1e-13))
    report = apriori_flags(res.ledger, params)
    assert report.all_finite
    first, last = res.ledger[0], res.ledger.final
    expected = (first.l2_C - last.l2_C) / (2.0 * params.d)
    assert report.integrals["grad_C_sq"] == pytest.approx(expected, abs=1e-8)


def test_apriori_forced_brinkman_momentum_identity(pi_domain):
    # delta_hat = 0, C uniform: the velocity work balance closes against the
    # forcing power with the identity-form integrals.
    a = 0.6
    params = _params(mu_e=0.15, mobility=MobilitySpec.constant(a))
    state = SimulationState(
        0.0, make_scalar(pi_domain, [], offset=1.0), make_velocity(pi_domain, [(1, 1, 0.5)])
    )
    cfg = SolverConfig(T_run=0.5, rtol=1e-10, atol=1e-13)
    res = run(state, params, cfg, forcing=ForcingSpec.preset("pulsed_stream"))
    first, last = res.ledger[0], res.ledger.final
    lhs = 0.5 * (last.l2_u - first.l2_u)
    rhs = -(params.mu_e * last.i_grad_u + last.i_fu - last.i_fdotu)
    tol = 10 * (cfg.rtol * max(first.l2_u, last.l2_u, abs(last.iw_u)) + cfg.atol)
    assert abs(lhs - rhs) <= tol * len(res.ledger.rows)
    report = apriori_flags(res.ledger, params)
    assert report.all_finite and report.dissipation_holds


def test_apriori_flags_mobility_h1_overflow(pi_domain):
    # R C = 360 is below the exponential's overflow limit, so the run goes
    # on, but F^2 = e^720 exceeds the double range: the H1 majorant of F is
    # inf, flagged by all_finite rather than by a RuntimeWarning.
    params = _params(mobility=MobilitySpec.exponential(100.0))
    res = run(_still(pi_domain, 3.6), params, SolverConfig(T_run=0.1))
    assert res.outcome == "completed"
    report = apriori_flags(res.ledger, params)
    assert report.sups["h1_F_sq"] == math.inf
    assert not report.all_finite


def test_apriori_negative_drag_work_skips_the_dissipation_inequality():
    # A drag work integral that falls (a negative mobility) voids dropping
    # the drag term, so the inequality is reported as not applicable.
    ledger = EnergyLedger()
    row = LedgerRow(0.0, *[0.0] * 11, 0)
    ledger.append(row)
    ledger.append(LedgerRow(1.0, *[0.0] * 11, 0, i_fu=-1.0))
    report = apriori_flags(ledger, _params())
    assert report.integrals["drag_quadratic"] == -1.0
    assert report.drag_integral_nonneg is False
    assert report.dissipation_holds is None
    assert report.detail == "mobility quadratic went negative; inequality not applicable"


def test_segment_bounds_positive(pi_domain):
    res = run(_still(pi_domain, 0.5, [(1, 1, 0.2)]), _params(kappa=0.5),
              SolverConfig(T_run=0.2))
    bounds = segment_residual_bounds(res.ledger, SolverConfig(T_run=0.2), "C")
    assert len(bounds) == len(res.ledger.rows) - 1
    assert all(b > 0 for b in bounds)

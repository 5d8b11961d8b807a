import numpy as np
import pytest

from poromix import (
    ForcingSpec,
    KortewegParams,
    MobilitySpec,
    PhysicalParams,
    SimulationState,
    SolverConfig,
    momentum_gradient_residual,
    recover_pressure,
    run,
)

from conftest import make_scalar, make_velocity


def _params(**kw):
    defaults = dict(mu_e=0.1, d=0.1, kappa=0.5)
    defaults.update(kw)
    return PhysicalParams(**defaults)


def test_zero_state_zero_pressure(pi_domain):
    state = SimulationState(0.0, make_scalar(pi_domain, []), make_velocity(pi_domain, []))
    p = recover_pressure(state, None, _params())
    assert np.abs(p.coeffs).max() == 0.0


def test_gradient_forcing_absorbed_by_pressure(pi_domain):
    # f = grad g for a resolved cosine g: with a rest state, p = g - mean(g).
    s = pi_domain.scalar
    g_coeffs = np.zeros((6, 6))
    g_coeffs[1, 0] = 2.0 / (s.norm_x[1] * s.norm_y[0])
    g_coeffs[1, 2] = 0.5 / (s.norm_x[1] * s.norm_y[2])
    g_coeffs[0, 0] = 3.0 / s.norm_00  # mean part, must drop out

    def grad_g(domain, t):
        return domain.scalar_gradient_values(g_coeffs)

    state = SimulationState(0.0, make_scalar(pi_domain, []), make_velocity(pi_domain, []))
    p = recover_pressure(state, ForcingSpec(grad_g), _params())
    expected = g_coeffs.copy()
    expected[0, 0] = 0.0
    assert np.abs(p.coeffs - expected).max() <= 1e-8
    assert p.mean_value == 0.0


def test_generic_run_gradient_residual_small(pi_domain):
    params = _params(
        korteweg=KortewegParams(delta_hat=0.2, gamma=0.1),
        mobility=MobilitySpec.exponential(0.5),
    )
    state0 = SimulationState(
        0.0,
        make_scalar(pi_domain, [(1, 1, 0.3), (2, 0, 0.15)], offset=0.5),
        make_velocity(pi_domain, [(1, 1, 0.4)]),
    )
    forcing = ForcingSpec.preset("steady_stream")
    res = run(state0, params, SolverConfig(T_run=0.2, rtol=1e-9, atol=1e-12),
              forcing=forcing)
    state = res.final_state
    p = recover_pressure(state, forcing, params)
    assert p.coeffs[0, 0] == 0.0
    residual = momentum_gradient_residual(state, forcing, params, p)
    assert residual <= 1e-6


def test_gamma_shifts_pressure_only(pi_domain):
    # gamma never enters the (u, C) dynamics; it moves the recovered
    # pressure by exactly the isotropic-part contribution (2/3) gamma lap C.
    base = _params(korteweg=KortewegParams(delta_hat=0.2, gamma=0.0))
    bumped = _params(korteweg=KortewegParams(delta_hat=0.2, gamma=0.9))
    C0 = make_scalar(pi_domain, [(1, 1, 0.3)], offset=0.5)
    u0 = make_velocity(pi_domain, [(1, 1, 0.4)])
    cfg = SolverConfig(T_run=0.2, rtol=1e-9, atol=1e-12)
    finals = []
    pressures = []
    for params in (base, bumped):
        res = run(SimulationState(0.0, C0, u0), params, cfg)
        state = res.final_state
        finals.append(state)
        pressures.append(recover_pressure(state, None, params))
    assert np.array_equal(finals[0].C.coeffs, finals[1].C.coeffs)
    assert np.array_equal(finals[0].u.coeffs, finals[1].u.coeffs)
    lam = pi_domain.scalar.eigenvalues
    expected_shift = (2.0 / 3.0) * 0.9 * (-lam * finals[0].C.coeffs)
    expected_shift[0, 0] = 0.0
    got_shift = pressures[1].coeffs - pressures[0].coeffs
    assert np.abs(got_shift - expected_shift).max() <= 1e-9


def test_no_body_force_evaluates_none(pi_domain, monkeypatch):
    # forcing None adds nothing to the momentum residual, as in the solver:
    # nothing is evaluated, and the pressure and the gradient residual are
    # the zero preset's bytes.
    params = _params(korteweg=KortewegParams(delta_hat=0.2, gamma=0.3),
                     mobility=MobilitySpec.exponential(0.5))
    state = SimulationState(0.4, make_scalar(pi_domain, [(1, 1, 0.3), (2, 1, 0.1)], offset=0.5),
                            make_velocity(pi_domain, [(1, 1, 0.4), (2, 1, -0.1)]))

    def recovered(forcing):
        p = recover_pressure(state, forcing, params)
        return p.coeffs.tobytes(), momentum_gradient_residual(state, forcing, params, p)

    zero = recovered(ForcingSpec.preset("zero"))

    def no_evaluation(self, domain, t):
        raise AssertionError("no body force was evaluated")

    monkeypatch.setattr(ForcingSpec, "evaluate", no_evaluation)
    assert recovered(None) == zero

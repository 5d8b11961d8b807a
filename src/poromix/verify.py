"""
Named verification suites.

Each suite runs a self-contained scenario against an independent reference
(closed forms, manufactured solutions, quadrature cross-checks, or the
exact identity structure of the semi-discrete system) and returns one
CheckResult per criterion.  The CLI prints the pass/fail lines; the
acceptance test module asserts them.
"""

from __future__ import annotations

import math

import numpy as np

from ._record import Record
from .diagnostics import (
    decay_to_mean_check,
    perturbation_stability,
    positivity_check,
    segment_residual_bounds,
)
from .domain import DomainSpec, build_domain
from .fields import ScalarField, cosine_field, stream_field
from .forcing import ForcingSpec
from .korteweg import KortewegParams, korteweg_full_tensor
from .mobility import MobilitySpec, lipschitz_check
from .oracles import (logistic_blowup_time, logistic_solution, manufactured_run,
                      modal_diffusion_factor)
from .solver import PhysicalParams, SimulationState, SolverConfig, rhs_velocity, run

__all__ = ["CheckResult", "SUITE_NAMES", "run_suite"]


class CheckResult(Record):
    suite: str
    name: str
    passed: bool
    measured: float
    expected: float
    tol: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"[{status}] {self.suite}/{self.name}: measured={self.measured:.6g} "
            f"expected={self.expected:.6g} tol={self.tol:.3g}"
        )


def _make_domain(Lx=math.pi, Ly=math.pi, Ns=8, Nv=2):
    return build_domain(DomainSpec(Lx=Lx, Ly=Ly, Ns=Ns, Nv=Nv))


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def suite_diffusion():
    """Single cosine mode under pure diffusion decays at the exact modal rate."""
    domain = _make_domain(Ns=4, Nv=1)
    params = PhysicalParams(mu_e=0.1, d=0.1, kappa=0.0)
    C0 = cosine_field(domain, [(1, 0, 1.0)])
    config = SolverConfig(T_run=1.0, rtol=1e-10, atol=1e-13)
    res = run(SimulationState(0.0, C0, stream_field(domain)), params, config)
    ratio = math.sqrt(res.ledger.final.l2_C / res.ledger[0].l2_C)
    expected = modal_diffusion_factor((1, 0), params.d, config.T_run, domain.spec.Lx,
                                      domain.spec.Ly)
    err = abs(ratio - expected) / expected
    return [CheckResult("diffusion", "modal_decay_ratio", err <= 1e-6, ratio, expected, 1e-6)]


def suite_logistic():
    """Uniform reactive states follow the logistic closed form and blow up."""
    out = []
    domain = _make_domain(Ns=2, Nv=1)
    params = PhysicalParams(mu_e=0.1, d=0.1, kappa=1.0)

    c0 = 0.5
    C0 = cosine_field(domain, offset=c0)
    config = SolverConfig(T_run=1.0, rtol=1e-10, atol=1e-13)
    res = run(SimulationState(0.0, C0, stream_field(domain)), params, config)
    measured = res.final_state.C.mean_value
    expected = logistic_solution(c0, params.kappa, config.T_run)
    out.append(CheckResult("logistic", "uniform_value_at_t1",
                           abs(measured - expected) <= 1e-6, measured, expected, 1e-6))

    C0 = cosine_field(domain, offset=2.0)
    config = SolverConfig(T_run=2.0, rtol=1e-10, atol=1e-13, blowup_cap=1e6)
    res = run(SimulationState(0.0, C0, stream_field(domain)), params, config)
    t_star = logistic_blowup_time(2.0, 1.0)
    detected = res.outcome == "blowup" and res.blowup_time is not None
    rel = abs(res.blowup_time - t_star) / t_star if detected else math.inf
    out.append(CheckResult("logistic", "blowup_time",
                           detected and rel <= 0.01,
                           res.blowup_time if detected else math.nan, t_star, 0.01))
    return out


def _generic_nonlinear_run():
    domain = _make_domain(Lx=2.0, Ly=1.0, Ns=10, Nv=3)
    params = PhysicalParams(
        mu_e=0.1, d=0.05, kappa=0.8,
        korteweg=KortewegParams(delta_hat=0.2, gamma=0.1),
        mobility=MobilitySpec.exponential(0.7),
    )
    C0 = cosine_field(domain, [(1, 1, 0.2), (2, 0, 0.1), (0, 3, 0.05)], offset=0.4)
    u0 = stream_field(domain, [(1, 1, 0.4), (2, 1, 0.2)])
    config = SolverConfig(T_run=0.4, rtol=1e-8, atol=1e-11)
    res = run(SimulationState(0.0, C0, u0), params, config,
              forcing=ForcingSpec.preset("pulsed_stream"))
    return res, config


def suite_energy():
    """Work-integral residuals of both energy identities stay inside 10x tol."""
    res, config = _generic_nonlinear_run()
    out = []
    for which, col in (("C", "res_C"), ("u", "res_u")):
        bounds = segment_residual_bounds(res.ledger, config, which)
        residuals = [abs(getattr(r, col)) for r in res.ledger.rows[1:]]
        worst = max(r / b for r, b in zip(residuals, bounds))
        out.append(CheckResult("energy", f"identity_residual_{which}",
                               worst <= 1.0, worst, 0.0, 1.0))
    return out


def suite_mass():
    """Reaction-free runs conserve the total solute mass."""
    domain = _make_domain(Ns=8, Nv=2)
    params = PhysicalParams(
        mu_e=0.1, d=0.05, kappa=0.0,
        korteweg=KortewegParams(delta_hat=0.1, gamma=0.0),
        mobility=MobilitySpec.exponential(0.5),
    )
    C0 = cosine_field(domain, [(1, 1, 0.2), (2, 1, 0.1)], offset=0.7)
    u0 = stream_field(domain, [(1, 1, 0.5), (2, 2, 0.2)])
    config = SolverConfig(T_run=0.5, rtol=1e-10, atol=1e-13)
    res = run(SimulationState(0.0, C0, u0), params, config,
              forcing=ForcingSpec.preset("steady_stream"))
    m0 = res.ledger[0].mass
    drift = abs(res.ledger.final.mass - m0)
    tol = 1e-9 * (1.0 + abs(m0))
    return [CheckResult("mass", "conservation", drift <= tol, drift, 0.0, tol)]


def suite_positivity():
    """Positive initial data stays nonnegative up to spectral undershoot."""
    def one(Ns):
        domain = _make_domain(Ns=Ns, Nv=2)
        params = PhysicalParams(
            mu_e=0.1, d=0.1, kappa=1.0,
            korteweg=KortewegParams(delta_hat=0.05, gamma=0.0),
        )
        C0 = cosine_field(domain, [(1, 1, 1.0)], offset=1.5)
        config = SolverConfig(T_run=0.3, rtol=1e-8, atol=1e-11)
        return run(SimulationState(0.0, C0, stream_field(domain)), params, config)

    base = one(16)
    refined = one(32)
    report = positivity_check(base, refined)
    out = [
        CheckResult("positivity", "min_grid_value",
                    report.min_over_time >= report.threshold,
                    report.min_over_time, 0.0, 1e-6),
        CheckResult("positivity", "undershoot_stable_under_refinement",
                    not report.undershoot_grew,
                    max(0.0, -(report.refined_min_over_time or 0.0)),
                    max(0.0, -report.min_over_time), 1e-6),
    ]
    return out


def suite_decay():
    """Reaction-free concentration relaxes to its mean at the sharp rate."""
    out = []
    domain = _make_domain(Ns=8, Nv=2)
    params = PhysicalParams(
        mu_e=0.1, d=0.1, kappa=0.0,
        korteweg=KortewegParams(delta_hat=0.1, gamma=0.0),
        mobility=MobilitySpec.exponential(0.3),
    )
    C0 = cosine_field(domain, [(1, 0, 0.3), (1, 1, 0.2), (2, 1, 0.1)], offset=0.6)
    u0 = stream_field(domain, [(1, 1, 0.5)])
    config = SolverConfig(T_run=1.5, rtol=1e-10, atol=1e-13)
    res = run(SimulationState(0.0, C0, u0), params, config)
    report = decay_to_mean_check(res, params)
    out.append(CheckResult("decay", "envelope_bound_all_times",
                           report.passed, report.max_violation, 0.0, report.slack))

    params2 = PhysicalParams(mu_e=0.1, d=0.1, kappa=0.0)
    C0 = cosine_field(domain, [(1, 0, 1.0)], offset=0.5)
    res2 = run(SimulationState(0.0, C0, stream_field(domain)), params2, config)
    area = domain.spec.Lx * domain.spec.Ly
    dev0 = res2.ledger[0].l2_C - res2.ledger[0].mass ** 2 / area
    devT = res2.ledger.final.l2_C - res2.ledger.final.mass ** 2 / area
    expected = dev0 * math.exp(-0.2 * config.T_run)
    rel = abs(devT - expected) / expected
    out.append(CheckResult("decay", "single_mode_equality", rel <= 1e-6, devT, expected, 1e-6))
    return out


def suite_velocity_decay():
    """Unforced velocity dissipates; constant mobility gives a clean envelope."""
    out = []
    domain = _make_domain(Ns=4, Nv=3)
    params = PhysicalParams(mu_e=0.05, d=0.1, kappa=0.0,
                            mobility=MobilitySpec.constant(0.7))
    C0 = cosine_field(domain, offset=0.5)
    u0 = stream_field(domain, [(1, 1, 0.5), (2, 1, 0.3), (3, 2, 0.2)])
    config = SolverConfig(T_run=1.0, rtol=1e-10, atol=1e-13)
    res = run(SimulationState(0.0, C0, u0), params, config)
    n0 = math.sqrt(res.ledger[0].l2_u)
    worst = max(
        math.sqrt(r.l2_u) / (n0 * math.exp(-0.7 * r.t)) - 1.0 for r in res.ledger.rows
    )
    out.append(CheckResult("velocity-decay", "constant_mobility_envelope",
                           worst <= 1e-8, worst, 0.0, 1e-8))

    params2 = PhysicalParams(mu_e=0.05, d=0.1, kappa=0.0,
                             mobility=MobilitySpec.polynomial(0.5, 1.0))
    C0 = cosine_field(domain, [(1, 1, 0.2)], offset=0.8)
    res2 = run(SimulationState(0.0, C0, u0), params2, config)
    rows = res2.ledger.rows
    fq_defined = all(np.isfinite(r.fq_u) for r in rows)
    mono = all(
        b.l2_u <= a.l2_u * (1.0 + 1e-10) + 1e-14 for a, b in zip(rows, rows[1:])
    )
    out.append(CheckResult("velocity-decay", "nonneg_mobility_monotone",
                           fq_defined and mono,
                           max(b.l2_u - a.l2_u for a, b in zip(rows, rows[1:])), 0.0, 1e-10))
    return out


def suite_perturbation():
    """Lyapunov distance scales quadratically in the perturbation size."""
    domain = _make_domain(Ns=8, Nv=2)
    params = PhysicalParams(
        mu_e=0.1, d=0.1, kappa=1.0,
        korteweg=KortewegParams(delta_hat=0.05, gamma=0.0),
        mobility=MobilitySpec.exponential(0.5),
    )
    base = cosine_field(domain, [(1, 1, 0.25), (2, 0, 0.1)], offset=0.5)
    direction = cosine_field(domain, [(2, 1, 1.0)])
    u0 = stream_field(domain, [(1, 1, 0.3)])
    config = SolverConfig(T_run=0.5, rtol=1e-10, atol=1e-13)
    report = perturbation_stability(
        base, direction, 1e-4, params, config, u0=u0, checkpoint_times=(0.5,)
    )
    ratio = report.ratios.get(0.5, math.nan) if report.conclusive else math.nan
    passed = report.conclusive and 3.5 <= ratio <= 4.5
    return [CheckResult("perturbation", "quadratic_scaling_ratio", passed, ratio, 4.0, 0.5)]


def suite_mms():
    """Manufactured solutions: stationarity and spectral error drop.

    At Ns/Nv 16/2 the Gauss-Legendre grid is sized for degree
    2(Ns-1) + 2(Nv+1) = 36, but the swirl source's reaction part
    kappa C*(1-C*), paired with z, reaches cosine degree 2 * 11 + 15 = 37
    in x.  Its projection stays exact only because that top frequency is
    odd: odd modes cancel on the symmetric nodes.
    """
    out = []
    params = PhysicalParams(
        mu_e=0.1, d=0.1, kappa=0.5,
        korteweg=KortewegParams(delta_hat=0.1, gamma=0.05),
        mobility=MobilitySpec.exponential(0.5),
    )

    err_c, _ = manufactured_run("rest").run_errors(_make_domain(Ns=8, Nv=2), params, 0.5)
    out.append(CheckResult("mms", "rest_stationary", err_c <= 1e-8, err_c, 0.0, 1e-8))

    swirl = manufactured_run("swirl")
    errs = {Ns: swirl.run_errors(_make_domain(Ns=Ns, Nv=2), params, 0.25) for Ns in (8, 16)}
    floor = 1e-9
    for idx, label in ((0, "C"), (1, "u")):
        coarse, fine = errs[8][idx], errs[16][idx]
        ratio = coarse / max(fine, 1e-300)
        passed = ratio >= 10.0 or (coarse <= floor and fine <= floor)
        out.append(CheckResult("mms", f"swirl_error_drop_{label}", passed, ratio, 10.0, 0.0))
    return out


def suite_lipschitz():
    """Sampled Lipschitz quotients for the three mobility families."""
    out = []
    domain = _make_domain(Ns=6, Nv=1)
    rng = np.random.default_rng(20240811)

    def bounded_field(scale):
        B = rng.standard_normal((6, 6)) * 0.2
        C = ScalarField(domain, B)
        peak = float(np.max(np.abs(domain.scalar_values(C.coeffs))))
        return ScalarField(domain, (scale / peak) * B)

    direction = bounded_field(0.5)
    families = {
        "constant": MobilitySpec.constant(1.0),
        "polynomial": MobilitySpec.polynomial(1.0, 0.5, 0.25),
        "exponential_pos": MobilitySpec.exponential(2.0),
        "exponential_neg": MobilitySpec.exponential(-2.0),
    }
    for name, F in families.items():
        base = bounded_field(1.4)
        pairs = []
        for eps in (0.5, 0.1, 0.02, 0.004, 0.0008):
            pairs.append((base, ScalarField(domain, base.coeffs + eps * direction.coeffs)))
        report = lipschitz_check(F, pairs, amplitude_box=2.0)
        finite = math.isfinite(report.max_ratio) and not report.diverging
        tail = [r for _, r in report.ratios[-2:]]
        stable = abs(tail[-1] - tail[-2]) <= 0.05 * max(tail[-1], 1e-12) + 1e-12
        out.append(CheckResult("lipschitz", f"{name}_bounded_and_stable",
                               finite and stable, report.max_ratio, 0.0, 0.05))

    # Exponential with R = 0 must reproduce constant mobility exactly.
    domain2 = _make_domain(Ns=6, Nv=2)
    C0 = cosine_field(domain2, [(1, 1, 0.3)], offset=0.5)
    u0 = stream_field(domain2, [(1, 1, 0.4)])
    config = SolverConfig(T_run=0.3, rtol=1e-9, atol=1e-12)
    finals = []
    for F in (MobilitySpec.exponential(0.0), MobilitySpec.constant(1.0)):
        params = PhysicalParams(mu_e=0.1, d=0.1, kappa=0.5,
                                korteweg=KortewegParams(delta_hat=0.1, gamma=0.0),
                                mobility=F)
        res = run(SimulationState(0.0, C0, u0), params, config,
                  forcing=ForcingSpec.preset("pulsed_stream"))
        finals.append(res.final_state)
    dc = float(np.max(np.abs(finals[0].C.coeffs - finals[1].C.coeffs)))
    du = float(np.max(np.abs(finals[0].u.coeffs - finals[1].u.coeffs)))
    out.append(CheckResult("lipschitz", "exp0_equals_constant1",
                           max(dc, du) <= 1e-12, max(dc, du), 0.0, 1e-12))
    return out


def suite_korteweg_reduction():
    """Full-tensor pairing equals the solver's reduced pairing on every basis element.

    At rest with zero forcing the viscous and drag pairings vanish exactly,
    so G times the solver's velocity rate is its Korteweg pairing.
    """
    domain = _make_domain(Ns=10, Nv=4)
    rng = np.random.default_rng(7)
    lam = domain.scalar.eigenvalues
    B = rng.standard_normal((10, 10)) / (1.0 + lam)
    C = ScalarField(domain, B)
    params = KortewegParams(delta_hat=0.7, gamma=0.3)

    txx, txy, tyy = korteweg_full_tensor(C, params)
    Nv = domain.spec.Nv
    rate = rhs_velocity(SimulationState(0.0, C, stream_field(domain)),
                        PhysicalParams(mu_e=1.0, d=1.0, korteweg=params))
    reduced = (domain.velocity.gram @ rate.coeffs.reshape(-1)).reshape(Nv, Nv)

    worst = 0.0
    for j in range(Nv):
        for k in range(Nv):
            A = np.zeros((Nv, Nv))
            A[j, k] = 1.0
            gxx, gxy, gyx, gyy = domain.velocity_gradient_values(A)
            contracted = txx * gxx + txy * (gxy + gyx) + tyy * gyy
            full_pairing = -domain.grid.integrate(contracted)
            worst = max(worst, abs(full_pairing - reduced[j, k]))
    return [CheckResult("korteweg-reduction", "pairing_equivalence",
                        worst <= 1e-9, worst, 0.0, 1e-9)]


SUITES = {
    "diffusion": suite_diffusion,
    "logistic": suite_logistic,
    "energy": suite_energy,
    "mass": suite_mass,
    "positivity": suite_positivity,
    "decay": suite_decay,
    "velocity-decay": suite_velocity_decay,
    "perturbation": suite_perturbation,
    "mms": suite_mms,
    "lipschitz": suite_lipschitz,
    "korteweg-reduction": suite_korteweg_reduction,
}

SUITE_NAMES = tuple(SUITES)


def run_suite(name: str):
    """Run one named suite; raises ValueError for unknown names."""
    try:
        suite = SUITES[name]
    except KeyError:
        raise ValueError(
            f"unknown suite {name!r}; available: {', '.join(SUITE_NAMES)}"
        ) from None
    return suite()

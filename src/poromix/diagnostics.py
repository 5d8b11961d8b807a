"""
Trajectory-level checks of the model's qualitative guarantees.

Each check consumes immutable run results and produces a small report
object: positivity of the concentration, exponential relaxation to the
mean in the reaction-free regime, quadratic scaling of perturbation
growth (the computable shadow of uniqueness / continuous dependence), and
finiteness plus a dissipation inequality for the a priori quantities.
"""

from __future__ import annotations

import math

import numpy as np

from ._record import Record
from .fields import ScalarField, stream_field
from .solver import PhysicalParams, SimulationResult, SimulationState, SolverConfig, run

__all__ = [
    "PositivityReport",
    "positivity_check",
    "DecayReport",
    "decay_to_mean_check",
    "fit_decay_rate",
    "PerturbationReport",
    "perturbation_stability",
    "AprioriReport",
    "apriori_flags",
    "segment_residual_bounds",
]

_EPS_POS = 1e-6  # positivity: tolerated undershoot below zero
_DECAY_SLACK = 1e-8  # decay to the mean: tolerated relative excess over the envelope


def segment_residual_bounds(ledger, config: SolverConfig, which: str):
    """Per-segment tolerance 10 (rtol scale + atol) for the energy residuals.

    The scale of a segment is the larger of the tracked quadratic energy at
    its endpoints and the work accumulated across it, so the bound follows
    the integrator's own error scaling.
    """
    rows = ledger.rows
    energy = "l2_C" if which == "C" else "l2_u"
    work = "iw_c" if which == "C" else "iw_u"
    out = []
    for prev, cur in zip(rows, rows[1:]):
        scale = max(
            abs(getattr(prev, energy)),
            abs(getattr(cur, energy)),
            abs(getattr(cur, work) - getattr(prev, work)),
        )
        out.append(10.0 * (config.rtol * scale + config.atol))
    return out


# ---------------------------------------------------------------------------
# Positivity
# ---------------------------------------------------------------------------


class PositivityReport(Record):
    min_over_time: float
    min_time: float
    passed: bool
    threshold: float
    refined_min_over_time: float | None = None
    undershoot_grew: bool | None = None


def positivity_check(
    result: SimulationResult, refined: SimulationResult | None = None
) -> PositivityReport:
    """Minimum grid concentration over the trajectory versus -_EPS_POS.

    Spectral truncation can undershoot slightly where the continuum
    solution merely touches zero, so the check carries that tolerance and,
    when a refined run is supplied, verifies the undershoot does not grow
    with resolution.
    """
    rows = result.ledger.rows
    if rows[0].min_C <= 0.0:
        raise ValueError("positivity check requires a strictly positive initial minimum")
    min_row = min(rows, key=lambda r: r.min_C)
    min_val = min_row.min_C
    refined_min = None
    grew = None
    if refined is not None:
        refined_min = min(r.min_C for r in refined.ledger.rows)
        undershoot = max(0.0, -min_val)
        refined_undershoot = max(0.0, -refined_min)
        grew = bool(refined_undershoot > max(undershoot, _EPS_POS))
    passed = (min_val >= -_EPS_POS) and not grew
    return PositivityReport(
        min_over_time=float(min_val),
        min_time=float(min_row.t),
        passed=bool(passed),
        threshold=-_EPS_POS,
        refined_min_over_time=refined_min,
        undershoot_grew=grew,
    )


# ---------------------------------------------------------------------------
# Decay to the mean (reaction-free regime)
# ---------------------------------------------------------------------------


class DecayReport(Record):
    passed: bool
    rate_bound: float  # 2 d lam_1 for the squared norm
    fitted_rate: float
    max_violation: float  # worst ratio lhs/rhs - 1 over ledger times
    slack: float


def _mean_deviations(rows, area: float) -> list:
    """(t - t0, ||C - mean||^2) for the ledger rows above the noise floor.

    The deviation is a difference of near-equal quadratics; below
    1e-13 max(l2_C, 1) it is indistinguishable from the mean itself.
    """
    t0 = rows[0].t
    samples = ((r.t - t0, r.l2_C - r.mass**2 / area, r.l2_C) for r in rows)
    return [(t, dev) for t, dev, l2_C in samples if dev > 1e-13 * max(l2_C, 1.0)]


def fit_decay_rate(ledger, area: float) -> float:
    """Least-squares e-folding rate of ||C - mean||^2 along the ledger.

    Uses the rows above the noise floor; nan when fewer than two remain.
    """
    samples = _mean_deviations(ledger.rows, area)
    if len(samples) < 2:
        return math.nan
    ts = [t for t, _ in samples]
    logs = [math.log(dev) for _, dev in samples]
    return -float(np.polyfit(ts, logs, 1)[0])


def decay_to_mean_check(result: SimulationResult, params: PhysicalParams) -> DecayReport:
    """Check ||C - mean||^2 <= ||C0 - mean||^2 exp(-2 d lam_1 t) on the ledger.

    lam_1 is the smallest nonzero scalar eigenvalue (pi / max(Lx, Ly))^2;
    the fitted rate comes from a least-squares slope of the log deviation.
    Only reaction-free runs qualify.
    """
    if params.kappa != 0.0:
        raise ValueError(f"decay check requires kappa == 0, got {params.kappa}")
    spec = result.domain.spec
    lam1 = (math.pi / max(spec.Lx, spec.Ly)) ** 2
    rate = 2.0 * params.d * lam1
    area = spec.Lx * spec.Ly
    rows = result.ledger.rows
    dev0 = max(rows[0].l2_C - rows[0].mass**2 / area, 0.0)
    worst = 0.0
    for t, dev in _mean_deviations(rows, area):
        bound = dev0 * math.exp(-rate * t)
        worst = max(worst, dev / bound - 1.0 if bound > 0 else math.inf)
    passed = worst <= _DECAY_SLACK
    return DecayReport(
        passed=bool(passed),
        rate_bound=rate,
        fitted_rate=fit_decay_rate(result.ledger, area),
        max_violation=float(worst),
        slack=_DECAY_SLACK,
    )


# ---------------------------------------------------------------------------
# Perturbation scaling (uniqueness shadow)
# ---------------------------------------------------------------------------


class PerturbationReport(Record):
    conclusive: bool
    ratios: dict  # checkpoint time -> D_eps / D_(eps/2)
    eps: float
    detail: str = ""


def _lyapunov_distance(s1: SimulationState, s2: SimulationState, delta_hat: float) -> float:
    dC = s1.C.coeffs - s2.C.coeffs
    lam = s1.domain.scalar.eigenvalues
    dA = (s1.u.coeffs - s2.u.coeffs).reshape(-1)
    gram = s1.domain.velocity.gram
    return float(np.sum(dC * dC) + delta_hat * np.sum(lam * dC * dC) + dA @ gram @ dA)


def perturbation_stability(
    base_C0: ScalarField,
    direction: ScalarField,
    eps: float,
    params: PhysicalParams,
    config: SolverConfig,
    *,
    u0=None,
    forcing=None,
    checkpoint_times=(0.5,),
) -> PerturbationReport:
    """Quadratic-scaling test of the Lyapunov distance between runs.

    Runs the base state and two perturbed copies (eps and eps/2 along
    `direction`) to the same checkpoint times and reports the ratio of the
    squared distances; continuous dependence predicts ratios near 4.
    Blow-up of any run makes the test inconclusive.
    """
    domain = base_C0.domain
    if u0 is None:
        u0 = stream_field(domain)
    if eps == 0.0:
        return PerturbationReport(True, {float(t): 0.0 for t in checkpoint_times}, 0.0,
                                  "zero perturbation: distances vanish identically")

    results = []
    for amp in (0.0, eps, 0.5 * eps):
        C0 = ScalarField(domain, base_C0.coeffs + amp * direction.coeffs)
        res = run(
            SimulationState(0.0, C0, u0),
            params,
            config,
            forcing=forcing,
            checkpoint_times=checkpoint_times,
        )
        if res.outcome != "completed":
            return PerturbationReport(
                False, {}, eps, f"run with perturbation {amp} blew up at t={res.blowup_time}"
            )
        results.append(res)

    base, full, half = results
    dh = params.korteweg.delta_hat
    ratios = {}
    for t in checkpoint_times:
        t = float(t)
        d_full = _lyapunov_distance(full.checkpoints[t], base.checkpoints[t], dh)
        d_half = _lyapunov_distance(half.checkpoints[t], base.checkpoints[t], dh)
        ratios[t] = d_full / d_half if d_half > 0 else math.inf
    return PerturbationReport(True, ratios, eps)


# ---------------------------------------------------------------------------
# A priori boundedness flags
# ---------------------------------------------------------------------------


class AprioriReport(Record):
    all_finite: bool
    sups: dict
    integrals: dict
    dissipation_holds: bool | None
    dissipation_lhs: float
    dissipation_rhs: float
    dissipation_constant: float
    drag_integral_nonneg: bool
    detail: str = ""


def apriori_flags(ledger, params: PhysicalParams) -> AprioriReport:
    """Report boundedness of every tracked functional over a run's ledger.

    Also instantiates the combined-energy dissipation inequality

        delta[ (||u||^2 + delta_hat ||grad C||^2) / 2 ]
            <= int [ (||f||^2 + ||u||^2) / 2 + A ||C(1-C)||^2 ] dt

    with the recorded constant A = delta_hat kappa^2 / (4 d), obtained from
    the exact work identities by dropping the viscous, drag and
    fourth-order dissipation terms.  The drag term may only be dropped when
    the mobility stays nonnegative along the run, which is reported too.

    The sups include the computable majorants of the velocity-rate dual
    norm: the viscous seminorm, the mobility's H1 norm, the forcing norm,
    and the interpolation-form bound on the gradient-stress term.
    """
    rows = ledger.rows
    first, last = rows[0], rows[-1]
    dh = params.korteweg.delta_hat

    # Interpolation-form majorant of the gradient-stress dual norm,
    # m_gn^2 ||grad C|| ||grad C||_H1, computable from the ledger columns.
    kt_majorant = max(
        params.m_gn**2 * math.sqrt(r.h1_semi_C * (r.h1_semi_C + r.h2_semi_C)) for r in rows
    )
    fq_vals = [r.fq_u for r in rows if not math.isnan(r.fq_u)]
    sups = {
        "l2_C": max(r.l2_C for r in rows),
        "h1_semi_C": max(r.h1_semi_C for r in rows),
        "h2_semi_C": max(r.h2_semi_C for r in rows),
        "l2_u": max(r.l2_u for r in rows),
        "h1_semi_u": max(r.h1_semi_u for r in rows),
        "fq_u": max(fq_vals) if fq_vals else math.nan,
        "dCdt_l2": max(r.dCdt_l2 for r in rows),
        "h1_F_sq": max(r.h1_F_sq for r in rows),
        "l2_f": max(r.l2_f for r in rows),
        "korteweg_dual_majorant": kt_majorant,
    }
    integrals = {
        "grad_C_sq": last.i_grad_c - first.i_grad_c,
        "lap_C_sq": last.i_lap_c - first.i_lap_c,
        "grad_u_sq": last.i_grad_u - first.i_grad_u,
        "drag_quadratic": last.i_fu - first.i_fu,
        "forcing_sq": last.i_f - first.i_f,
        "forcing_power": last.i_fdotu - first.i_fdotu,
        "reaction_sq": last.i_cc - first.i_cc,
        "dCdt_sq": last.i_dcdt - first.i_dcdt,
    }
    # A NaN fq_u means the weighted norm was undefined, not unbounded.
    all_finite = all(
        np.isfinite(v) or (k == "fq_u" and math.isnan(v)) for k, v in sups.items()
    ) and all(np.isfinite(v) for v in integrals.values())

    drag_ok = integrals["drag_quadratic"] >= -1e-12 * max(1.0, sups["l2_u"])
    const_A = dh * params.kappa**2 / (4.0 * params.d)
    lhs = 0.5 * ((last.l2_u + dh * last.h1_semi_C) - (first.l2_u + dh * first.h1_semi_C))
    rhs = 0.5 * (integrals["forcing_sq"] + _time_integral(rows, "l2_u")) + const_A * integrals[
        "reaction_sq"
    ]
    holds = None
    detail = ""
    if drag_ok:
        holds = bool(lhs <= rhs + 1e-9 * max(1.0, abs(rhs)))
    else:
        detail = "mobility quadratic went negative; inequality not applicable"
    return AprioriReport(
        all_finite=bool(all_finite),
        sups=sups,
        integrals=integrals,
        dissipation_holds=holds,
        dissipation_lhs=float(lhs),
        dissipation_rhs=float(rhs),
        dissipation_constant=float(const_A),
        drag_integral_nonneg=bool(drag_ok),
        detail=detail,
    )


def _time_integral(rows, name: str) -> float:
    """Trapezoid integral of a ledger column (report-only quantities)."""
    ts = np.array([r.t for r in rows])
    vs = np.array([getattr(r, name) for r in rows])
    return float(np.trapezoid(vs, ts))

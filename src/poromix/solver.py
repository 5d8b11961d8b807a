"""
Coefficient ODE system of the coupled momentum/transport model and its
adaptive time integrator.

The semi-discrete system evolves cosine coefficients beta of the
concentration and streamfunction coefficients alpha of the velocity:

    beta'  = -d lam beta - P_z[u . grad C] - kappa P_z[C (1 - C)]
    G alpha' = -mu_e S alpha - P_w[F(C) u] + P_w[-delta_hat lap C grad C]
               + P_w[f]

with P_z / P_w the quadrature pairings against the scalar and velocity
bases, G and S the velocity Gram and stiffness matrices.  The body force
enters with a plus sign on the right-hand side, matching the strong form
of the momentum balance.

Alongside the physical coefficients, the state carries a small block of
work integrals (dissipation, forcing power, reaction quadratics).  These
make the energy identities checkable per accepted step without any extra
quadrature in time: the residuals are pure time-integration error.

Time stepping is an embedded Dormand-Prince 5(4) pair with a
proportional-integral step controller.  There is one stage loop,
`_attempt_step`, and `run` and `step` share one reject/shrink loop,
`_advance`.  The pair is first same as last: the seventh stage, taken
with diagnostics at the step's result, fills that state's ledger row and
starts the next step, so each accepted state is evaluated once.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .domain import Domain
from .fields import ScalarField, VelocityField, _check_same_domain
from .forcing import ForcingSpec
from .korteweg import KortewegParams
from .ledger import EnergyLedger, LedgerRow
from .mobility import MobilityOverflowError, MobilitySpec, evaluate as mobility_values

__all__ = [
    "PhysicalParams",
    "SimulationState",
    "SolverConfig",
    "SimulationResult",
    "GalerkinSystem",
    "StepSizeUnderflowError",
    "NonFiniteStateError",
    "run",
    "step",
    "rhs_concentration",
    "rhs_velocity",
    "existence_time_bound",
]


class StepSizeUnderflowError(RuntimeError):
    """The controller drove dt below representable resolution."""

    def __init__(self, t: float, dt: float):
        super().__init__(f"step size underflow at t={t!r} (dt={dt!r})")
        self.t = t
        self.dt = dt


class NonFiniteStateError(RuntimeError):
    """A right-hand-side evaluation produced non-finite values."""

    def __init__(self, t: float):
        super().__init__(f"non-finite state or derivative at t={t!r}")
        self.t = t


@dataclass(frozen=True)
class PhysicalParams:
    """Model constants: effective viscosity, diffusion, reaction, coupling."""

    mu_e: float
    d: float
    kappa: float = 0.0
    korteweg: KortewegParams = field(default_factory=KortewegParams)
    mobility: MobilitySpec = field(default_factory=lambda: MobilitySpec.constant(1.0))
    m_gn: float = 1.0  # interpolation-inequality constant for the horizon report

    def __post_init__(self):
        errs = self.validation_errors()
        if errs:
            raise ValueError("; ".join(errs))

    def validation_errors(self) -> list[str]:
        errs = []
        if not (np.isfinite(self.mu_e) and self.mu_e > 0):
            errs.append(f"mu_e must be finite and > 0, got {self.mu_e!r}")
        if not (np.isfinite(self.d) and self.d > 0):
            errs.append(f"d must be finite and > 0, got {self.d!r}")
        if not (np.isfinite(self.kappa) and self.kappa >= 0):
            errs.append(f"kappa must be finite and >= 0, got {self.kappa!r}")
        if not (np.isfinite(self.m_gn) and self.m_gn > 0):
            errs.append(f"M_GN must be finite and > 0, got {self.m_gn!r}")
        errs.extend(self.korteweg.validation_errors())
        errs.extend(self.mobility.validation_errors())
        return errs


@dataclass(frozen=True)
class SimulationState:
    """Instantaneous solution: time plus the two coefficient fields."""

    t: float
    C: ScalarField
    u: VelocityField

    def __post_init__(self):
        if not np.isfinite(self.t):
            raise ValueError(f"state time must be finite, got {self.t!r}")
        _check_same_domain(self.C, self.u)

    @property
    def domain(self) -> Domain:
        return self.C.domain


@dataclass(frozen=True)
class SolverConfig:
    """Horizon, tolerances, step bounds and blow-up cap."""

    T_run: float
    rtol: float = 1e-8
    atol: float = 1e-11
    dt_init: float = 1e-4
    dt_max: float = math.inf
    blowup_cap: float = 1e6

    def validation_errors(self) -> list[str]:
        errs = []
        if not (np.isfinite(self.T_run) and self.T_run > 0):
            errs.append(f"T_run must be finite and > 0, got {self.T_run!r}")
        for name in ("rtol", "atol", "dt_init"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                errs.append(f"{name} must be finite and > 0, got {v!r}")
        if not self.dt_max > 0:
            errs.append(f"dt_max must be > 0, got {self.dt_max!r}")
        if not self.blowup_cap > 0:
            errs.append(f"blowup_cap must be > 0, got {self.blowup_cap!r}")
        return errs


@dataclass(frozen=True)
class SimulationResult:
    outcome: str  # "completed" | "blowup"
    final_state: SimulationState
    ledger: EnergyLedger
    blowup_time: float | None = None
    checkpoints: dict = field(default_factory=dict)
    steps_accepted: int = 0
    steps_rejected: int = 0
    wall_time: float = 0.0

    @property
    def domain(self) -> Domain:
        return self.final_state.domain


# Dormand-Prince 5(4) tableau: the last row of _A is the propagated 5th-order
# weight vector (first same as last); _E = b5 - b4 gives the error weights.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_E = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)
_N_STAGES = 7
_ORDER = 5

# Indices of the work-integral block appended to the packed state.
_N_EXTRA = 10
_IW_C, _IW_U, _I_GRAD_C, _I_LAP_C, _I_GRAD_U, _I_FU, _I_F, _I_FDOTU, _I_CC, _I_DCDT = range(
    _N_EXTRA
)


class GalerkinSystem:
    """Right-hand-side assembly for one (domain, params, forcing) triple."""

    def __init__(self, domain: Domain, params: PhysicalParams, forcing: ForcingSpec | None = None,
                 transport_source=None):
        self.domain = domain
        self.params = params
        self.forcing = forcing if forcing is not None else ForcingSpec.zero()
        # Verification-only hook: nodal source added to the transport
        # equation so manufactured fields solve the full system exactly.
        self.transport_source = transport_source
        self.Ns = domain.spec.Ns
        self.Nv = domain.spec.Nv
        self.ns2 = self.Ns * self.Ns
        self.nv2 = self.Nv * self.Nv
        self.n_state = self.ns2 + self.nv2 + _N_EXTRA
        self.lam = domain.scalar.eigenvalues
        self.stiffness = domain.velocity.stiffness

    # -- packing ------------------------------------------------------------

    def pack(self, C: ScalarField, u: VelocityField) -> np.ndarray:
        y = np.zeros(self.n_state)
        y[: self.ns2] = C.coeffs.reshape(-1)
        y[self.ns2 : self.ns2 + self.nv2] = u.coeffs.reshape(-1)
        return y

    def unpack(self, t: float, y: np.ndarray) -> SimulationState:
        B = y[: self.ns2].reshape(self.Ns, self.Ns).copy()
        A = y[self.ns2 : self.ns2 + self.nv2].reshape(self.Nv, self.Nv).copy()
        return SimulationState(t, ScalarField(self.domain, B), VelocityField(self.domain, A))

    def extras(self, y: np.ndarray) -> np.ndarray:
        return y[self.ns2 + self.nv2 :]

    # -- right-hand side -----------------------------------------------------

    def rhs(self, t: float, y: np.ndarray) -> np.ndarray:
        ydot, _ = self._eval(t, y, want_diag=False)
        return ydot

    def evaluate_with_diagnostics(self, t, y):
        return self._eval(t, y, want_diag=True)

    def _eval(self, t, y, want_diag):
        dom = self.domain
        p = self.params
        dh = p.korteweg.delta_hat
        B = y[: self.ns2].reshape(self.Ns, self.Ns)
        A = y[self.ns2 : self.ns2 + self.nv2].reshape(self.Nv, self.Nv)
        a_flat = A.reshape(-1)

        cg = dom.scalar_values(B)
        cx, cy = dom.scalar_gradient_values(B)
        ux, uy = dom.velocity_values(A)

        # Transport: advection and reaction projections.
        p_adv = dom.scalar_project(ux * cx + uy * cy)
        cc_grid = cg * (1.0 - cg)
        p_cc = dom.scalar_project(cc_grid)
        bdot = -p.d * self.lam * B - p_adv - p.kappa * p_cc
        if self.transport_source is not None:
            bdot = bdot + dom.scalar_project(self.transport_source(dom, t))

        # Momentum: drag, Korteweg coupling, body force.
        f_grid = mobility_values(p.mobility, cg)
        pair_F = dom.velocity_pairing(f_grid * ux, f_grid * uy).reshape(-1)
        if dh != 0.0:
            lap_g = dom.scalar_values(-self.lam * B)
            pair_kt = dom.velocity_pairing(-dh * lap_g * cx, -dh * lap_g * cy).reshape(-1)
        else:
            pair_kt = np.zeros(self.nv2)
        if self.forcing.is_zero:
            pair_f = np.zeros(self.nv2)
            f_sq = 0.0
        else:
            fx, fy = self.forcing.evaluate(dom, t)
            pair_f = dom.velocity_pairing(fx, fy).reshape(-1)
            f_sq = dom.grid.integrate(fx * fx + fy * fy)

        s_alpha = self.stiffness @ a_flat
        rhs_pair = -p.mu_e * s_alpha - pair_F + pair_kt + pair_f
        adot = dom.velocity.solve_gram(rhs_pair)

        # Work integrals: exact quadrature complements of the energy
        # identities, so the per-step residuals isolate integrator error.
        # The quartic (C (1-C))^2 is a cosine polynomial: the midpoint rule
        # integrates it exactly.
        ex = np.empty(_N_EXTRA)
        grad_c_sq = float(np.sum(self.lam * B * B))
        ex[_I_GRAD_C] = grad_c_sq
        ex[_I_LAP_C] = float(np.sum(self.lam**2 * B * B))
        grad_u_sq = float(a_flat @ s_alpha)
        ex[_I_GRAD_U] = grad_u_sq
        fu_quad = float(a_flat @ pair_F)
        ex[_I_FU] = fu_quad
        ex[_I_F] = f_sq
        f_dot_u = float(a_flat @ pair_f)
        ex[_I_FDOTU] = f_dot_u
        cm = dom.midpoint_values(B)
        cc_mid = cm * (1.0 - cm)
        ex[_I_CC] = dom.midpoint.integrate(cc_mid * cc_mid)
        ex[_I_DCDT] = float(np.sum(bdot * bdot))
        ex[_IW_C] = p.d * grad_c_sq + float(np.sum(B * p_adv)) + p.kappa * float(np.sum(B * p_cc))
        ex[_IW_U] = p.mu_e * grad_u_sq + fu_quad - float(a_flat @ pair_kt) - f_dot_u

        ydot = np.concatenate([bdot.reshape(-1), adot, ex])
        if not np.all(np.isfinite(ydot)):
            raise NonFiniteStateError(t)

        diag = None
        if want_diag:
            # F^2 + F'^2 |grad C|^2 is a cosine polynomial for a polynomial
            # F (squares of sines are cosines), quartic for a quadratic F:
            # it goes on the midpoint rule like (C (1-C))^2.
            cmx, cmy = dom.midpoint_gradient_values(B)
            f_mid = mobility_values(p.mobility, cm)
            fp = p.mobility.derivative_values(cm, f_mid)
            # F is finite below the mobility's overflow limit, but F^2 or
            # F |u|^2 may not be: such a diagnostic is inf, which
            # apriori_flags reports, rather than a RuntimeWarning.
            with np.errstate(over="ignore"):
                diag = {
                    "min_C": float(np.min(cg)),
                    "fq_u": float(dom.grid.integrate(f_grid * (ux * ux + uy * uy)))
                    if float(np.min(f_grid)) >= 0.0
                    else math.nan,
                    "dCdt_l2": float(ex[_I_DCDT]),
                    # Dual-norm majorants of the velocity rate: the mobility's
                    # H1 norm and the instantaneous forcing norm.
                    "h1_F_sq": dom.midpoint.integrate(
                        f_mid**2 + (fp * cmx) ** 2 + (fp * cmy) ** 2
                    ),
                    "l2_f": float(ex[_I_F]),
                }
        return ydot, diag

    # -- ledger ---------------------------------------------------------------

    def ledger_row(self, t, y, diag, prev, blowup: bool) -> LedgerRow:
        B = y[: self.ns2].reshape(self.Ns, self.Ns)
        a_flat = y[self.ns2 : self.ns2 + self.nv2]
        ex = self.extras(y)
        s = self.domain.scalar
        l2_C = float(np.sum(B * B))
        l2_u = float(a_flat @ self.domain.velocity.gram @ a_flat)
        if prev is None:
            res_C = 0.0
            res_u = 0.0
        else:
            res_C = (0.5 * l2_C + ex[_IW_C]) - (0.5 * prev.l2_C + prev.iw_c)
            res_u = (0.5 * l2_u + ex[_IW_U]) - (0.5 * prev.l2_u + prev.iw_u)
        return LedgerRow(
            t=t,
            l2_C=l2_C,
            h1_semi_C=float(np.sum(self.lam * B * B)),
            h2_semi_C=float(np.sum(self.lam**2 * B * B)),
            l2_u=l2_u,
            h1_semi_u=float(a_flat @ self.stiffness @ a_flat),
            fq_u=diag["fq_u"],
            dCdt_l2=diag["dCdt_l2"],
            mass=float(B[0, 0] * s.norm_00 * s.Lx * s.Ly),
            min_C=diag["min_C"],
            res_C=res_C,
            res_u=res_u,
            blowup=int(blowup),
            iw_c=float(ex[_IW_C]),
            iw_u=float(ex[_IW_U]),
            i_grad_c=float(ex[_I_GRAD_C]),
            i_lap_c=float(ex[_I_LAP_C]),
            i_grad_u=float(ex[_I_GRAD_U]),
            i_fu=float(ex[_I_FU]),
            i_f=float(ex[_I_F]),
            i_fdotu=float(ex[_I_FDOTU]),
            i_cc=float(ex[_I_CC]),
            i_dcdt=float(ex[_I_DCDT]),
            h1_F_sq=diag["h1_F_sq"],
            l2_f=diag["l2_f"],
        )


def _attempt_step(system, t, y, dt, k1, t_new):
    """One embedded DP54 step from (t, y) with slope k1 = rhs(t, y).

    Returns (y5, k7, diag, error_estimate).  The last stage's input is y5
    itself (first same as last); it is evaluated with diagnostics at
    t_new, the time the step records.
    """
    k = np.empty((_N_STAGES, y.size))
    k[0] = k1
    for i in range(1, _N_STAGES - 1):
        k[i] = system.rhs(t + _C[i] * dt, y + dt * (_A[i] @ k[:i]))
    y5 = y + dt * (_A[-1] @ k[:-1])
    k[-1], diag = system.evaluate_with_diagnostics(t_new, y5)
    return y5, k[-1], diag, dt * (_E @ k)


def _error_norm(err, y_old, y_new, rtol, atol):
    scale = atol + rtol * np.maximum(np.abs(y_old), np.abs(y_new))
    return float(np.sqrt(np.mean((err / scale) ** 2)))


_SAFETY, _FAC_MIN, _FAC_MAX = 0.9, 0.2, 5.0


def _advance(system, t, y, dt, k1, t_new, config):
    """Try steps from (t, y), shrinking dt until one passes the error test.

    The first trial lands at t_new, a shrunk one at t + dt.  A trial whose
    stages raise NonFiniteStateError or MobilityOverflowError, or whose
    result is non-finite, halves dt; an error norm above 1 scales it by
    max(0.2, 0.9 err^(-1/5)).  Returns (dt, t_new, y_new, k_new, diag,
    err_norm, rejected) for the accepted trial, with its last stage's
    slope and diagnostics, `rejected` counting the trials before it.
    """
    rejected = 0
    while True:
        if dt <= 16 * np.finfo(float).eps * max(abs(t), 1.0):
            raise StepSizeUnderflowError(t, dt)
        try:
            y_new, k_new, diag, err = _attempt_step(system, t, y, dt, k1, t_new)
            finite = np.all(np.isfinite(y_new)) and np.all(np.isfinite(err))
        except (NonFiniteStateError, MobilityOverflowError):
            finite = False
        if finite:
            err_norm = _error_norm(err, y, y_new, config.rtol, config.atol)
            if err_norm <= 1.0:
                return dt, t_new, y_new, k_new, diag, err_norm, rejected
            dt *= max(_FAC_MIN, _SAFETY * err_norm ** (-1.0 / _ORDER))
        else:
            dt *= 0.5
        t_new = t + dt
        rejected += 1


def run(
    initial: SimulationState,
    params: PhysicalParams,
    config: SolverConfig,
    *,
    forcing: ForcingSpec | None = None,
    snapshot_sink=None,
    checkpoint_times=(),
    transport_source=None,
) -> SimulationResult:
    """Integrate from the initial state to T_run or blow-up.

    Emits a ledger row and calls `snapshot_sink(state)` per accepted step,
    lands exactly on every requested checkpoint time (kept in
    `checkpoints`), and halts with outcome "blowup" as soon as the
    concentration L2 norm exceeds the configured cap.  A trial step that
    fails (non-finite values, mobility overflow) is rejected and retried
    with a smaller dt.  Each later state is evaluated once, as the last
    stage of the trial that reaches it, which also gives its ledger
    diagnostics and the next step's slope; so only a failure at the
    initial state aborts the run.
    """
    errs = config.validation_errors()
    if errs:
        raise ValueError("; ".join(errs))
    t_start = time.perf_counter()

    system = GalerkinSystem(initial.domain, params, forcing, transport_source=transport_source)
    y = system.pack(initial.C, initial.u)
    t = float(initial.t)
    t_end = t + config.T_run

    init_norm = math.sqrt(float(np.sum(initial.C.coeffs**2)))
    if config.blowup_cap <= init_norm:
        raise ValueError(
            f"blowup_cap={config.blowup_cap} must exceed the initial "
            f"concentration norm {init_norm:.6g}"
        )

    stops = sorted({float(s) for s in checkpoint_times if t < float(s) <= t_end} | {t_end})
    checkpoint_set = {float(s) for s in checkpoint_times}

    ledger = EnergyLedger()
    checkpoints = {}

    ydot, diag = system.evaluate_with_diagnostics(t, y)
    row = system.ledger_row(t, y, diag, None, False)
    ledger.append(row)
    state0 = system.unpack(t, y)
    if snapshot_sink is not None:
        snapshot_sink(state0)
    if t in checkpoint_set:
        checkpoints[t] = state0

    dt = min(config.dt_init, config.dt_max, stops[0] - t)
    err_prev = 1.0
    alpha, beta_pi = 0.7 / _ORDER, 0.4 / _ORDER
    accepted = 0
    rejected = 0
    outcome = "completed"
    blowup_time = None
    stop_idx = 0

    while t < t_end - 1e-14 * max(1.0, abs(t_end)):
        while stop_idx < len(stops) and stops[stop_idx] <= t + 1e-14 * max(1.0, abs(t)):
            stop_idx += 1
        next_stop = stops[stop_idx] if stop_idx < len(stops) else t_end
        hit_stop = t + dt >= next_stop - 1e-12 * max(1.0, abs(next_stop))
        if hit_stop:
            dt = next_stop - t

        dt, t, y, ydot, diag, err_norm, n_rejected = _advance(
            system, t, y, dt, ydot, next_stop if hit_stop else t + dt, config)
        rejected += n_rejected
        hit_stop = hit_stop and n_rejected == 0  # a shrunk step stops short
        accepted += 1

        l2_C = float(np.sum(y[: system.ns2] ** 2))
        blowup = math.sqrt(l2_C) > config.blowup_cap
        row = system.ledger_row(t, y, diag, row, blowup)
        ledger.append(row)
        state = system.unpack(t, y)
        if snapshot_sink is not None:
            snapshot_sink(state)
        if hit_stop and next_stop in checkpoint_set:
            checkpoints[next_stop] = state

        if blowup:
            outcome = "blowup"
            blowup_time = t
            break

        if err_norm == 0.0:
            fac = _FAC_MAX
        else:
            fac = _SAFETY * err_norm ** (-alpha) * err_prev**beta_pi
        dt = dt * min(_FAC_MAX, max(_FAC_MIN, fac))
        dt = min(dt, config.dt_max)
        err_prev = max(err_norm, 1e-10)

    return SimulationResult(
        outcome=outcome,
        final_state=system.unpack(t, y),
        ledger=ledger,
        blowup_time=blowup_time,
        checkpoints=checkpoints,
        steps_accepted=accepted,
        steps_rejected=rejected,
        wall_time=time.perf_counter() - t_start,
    )


def step(
    state: SimulationState,
    params: PhysicalParams,
    config: SolverConfig,
    *,
    forcing: ForcingSpec | None = None,
) -> SimulationState:
    """Advance one accepted adaptive step from `state`.

    Tries min(dt_init, dt_max) and shrinks it by the same rule as `run`
    until a trial passes; `run` is the tool for whole trajectories.
    """
    errs = config.validation_errors()
    if errs:
        raise ValueError("; ".join(errs))
    system = GalerkinSystem(state.domain, params, forcing)
    y = system.pack(state.C, state.u)
    t = float(state.t)
    dt0 = min(config.dt_init, config.dt_max)
    _, t_new, y_new, *_ = _advance(system, t, y, dt0, system.rhs(t, y), t + dt0, config)
    return system.unpack(t_new, y_new)


def rhs_concentration(state: SimulationState, params: PhysicalParams) -> ScalarField:
    """Coefficient time derivative of the concentration at one state."""
    system = GalerkinSystem(state.domain, params, ForcingSpec.zero())
    y = system.pack(state.C, state.u)
    ydot = system.rhs(state.t, y)
    return ScalarField(state.domain, ydot[: system.ns2].reshape(system.Ns, system.Ns))


def rhs_velocity(
    state: SimulationState, params: PhysicalParams, forcing: ForcingSpec | None = None
) -> VelocityField:
    """Coefficient time derivative of the velocity at one state."""
    system = GalerkinSystem(state.domain, params, forcing)
    y = system.pack(state.C, state.u)
    ydot = system.rhs(state.t, y)
    A = ydot[system.ns2 : system.ns2 + system.nv2].reshape(system.Nv, system.Nv)
    return VelocityField(state.domain, A)


def existence_time_bound(C0: ScalarField, params: PhysicalParams) -> float:
    """Guaranteed existence horizon for the reactive regime.

    Returns 2 min(kappa, d) / (kappa^2 M_GN^2 ||C0||^2) when kappa > 0 and
    the initial concentration is nonzero; +inf otherwise (the reaction-free
    dynamics, and the trivial zero solution, persist for all time).  The
    solver never truncates runs at this bound; it is report-only.
    """
    norm_sq = float(np.sum(C0.coeffs**2))
    if params.kappa == 0.0 or norm_sq == 0.0:
        return math.inf
    return 2.0 * min(params.kappa, params.d) / (params.kappa**2 * params.m_gn**2 * norm_sq)

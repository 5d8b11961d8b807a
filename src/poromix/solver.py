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

Time stepping is adaptive, with one reject/shrink loop, `_advance`, and one
proportional-integral controller.  Each trial step picks one of two stage
loops in `_attempt_step`:

* an embedded Dormand-Prince 5(4) pair, explicit in everything;
* the additive pair ARK4(3)6L[2]SA (Kennedy & Carpenter 2003), explicit in
  transport, reaction, Korteweg stress and forcing and singly diagonally
  implicit in the momentum block's linear part -G^-1 (mu_e S + D_F(C)) alpha,
  with D_F(C) = (F(C) w_q, w_r).  The concentration of every stage is
  explicit, so each implicit stage is one dense linear solve.

The additive pair is taken when the drag sets the step: when the bound
rho_u = mu_e ||G^-1 S||_inf + max F(C_n) on the momentum block's spectral
radius exceeds twice the diffusion's d lambda_max, and dt rho_u > 1.  Both
loops end in one evaluation, with diagnostics, at the step's result; it
fills that state's ledger row and gives the next step's slope, so each
accepted state is evaluated once.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import cached_property

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
    """Horizon, tolerances, initial step and blow-up cap."""

    T_run: float
    rtol: float = 1e-8
    atol: float = 1e-11
    dt_init: float = 1e-4
    blowup_cap: float = 1e6

    def validation_errors(self) -> list[str]:
        errs = []
        if not (np.isfinite(self.T_run) and self.T_run > 0):
            errs.append(f"T_run must be finite and > 0, got {self.T_run!r}")
        for name in ("rtol", "atol", "dt_init"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                errs.append(f"{name} must be finite and > 0, got {v!r}")
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
    steps_implicit: int = 0  # accepted steps taken by the implicit-explicit pair
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

# ARK4(3)6L[2]SA (Kennedy & Carpenter, Appl. Numer. Math. 44, 2003): an
# explicit and an ESDIRK tableau on shared nodes _ARK_C and weights _ARK_B.
# _ARK_AE and _ARK_AI hold the rows below the diagonal; the ESDIRK diagonal
# is _ARK_GAMMA after its explicit first stage.  The ESDIRK half is stiffly
# accurate (its last row is _ARK_B); the explicit half's is not, so the pair
# is not first same as last.  _ARK_E = b - b_hat gives the error weights of
# the embedded third-order solution.
_ARK_GAMMA = 1 / 4
_ARK_C = np.array([0.0, 1 / 2, 83 / 250, 31 / 50, 17 / 20, 1.0])
_ARK_AE = [
    np.array([]),
    np.array([1 / 2]),
    np.array([13861 / 62500, 6889 / 62500]),
    np.array([-116923316275 / 2393684061468, -2731218467317 / 15368042101831,
              9408046702089 / 11113171139209]),
    np.array([-451086348788 / 2902428689909, -2682348792572 / 7519795681897,
              12662868775082 / 11960479115383, 3355817975965 / 11060851509271]),
    np.array([647845179188 / 3216320057751, 73281519250 / 8382639484533,
              552539513391 / 3454668386233, 3354512671639 / 8306763924573, 4040 / 17871]),
]
_ARK_AI = [
    np.array([]),
    np.array([1 / 4]),
    np.array([8611 / 62500, -1743 / 31250]),
    np.array([5012029 / 34652500, -654441 / 2922500, 174375 / 388108]),
    np.array([15267082809 / 155376265600, -71443401 / 120774400,
              730878875 / 902184768, 2285395 / 8070912]),
    np.array([82889 / 524892, 0.0, 15625 / 83664, 69875 / 102672, -2260 / 8211]),
]
_ARK_B = np.array([82889 / 524892, 0.0, 15625 / 83664, 69875 / 102672, -2260 / 8211, 1 / 4])
_ARK_E = _ARK_B - np.array([4586570599 / 29645900160, 0.0, 178811875 / 945068544,
                            814220225 / 1159782912, -3700637 / 11593932, 61727 / 225920])
_ARK_ORDER = 4

# The work-integral block appended to the packed state: the LedgerRow
# field of each entry, and the entries' indices.
_WORK_FIELDS = ("iw_c", "iw_u", "i_grad_c", "i_lap_c", "i_grad_u", "i_fu", "i_f", "i_fdotu",
                "i_cc", "i_dcdt")
_N_EXTRA = len(_WORK_FIELDS)
_IW_C, _IW_U, _I_GRAD_C, _I_LAP_C, _I_GRAD_U, _I_FU, _I_F, _I_FDOTU, _I_CC, _I_DCDT = range(
    _N_EXTRA
)
# The ledger columns that are functions of one state, all from its evaluation.
_STATE_COLUMNS = ("l2_C", "h1_semi_C", "h2_semi_C", "l2_u", "h1_semi_u", "fq_u", "dCdt_l2",
                  "mass", "min_C", "h1_F_sq", "l2_f")


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
        self.alpha_slice = slice(self.ns2, self.ns2 + self.nv2)

    # -- implicit-explicit stepping ---------------------------------------------

    @cached_property
    def rho_viscous(self) -> float:
        """mu_e ||G^-1 S||_inf, the largest absolute row sum of mu_e G^-1 S.

        An induced norm bounds the spectral radius.  This one is a row-sum
        of one product with the G^-1 formed at build, computed once per
        system; no eigenvalue or singular-value solve is needed.
        """
        gs = self.domain.velocity.solve_gram(self.stiffness)
        return self.params.mu_e * float(np.abs(gs).sum(axis=1).max())

    @property
    def rho_diffusion(self) -> float:
        """d lambda_max: the spectral radius of the diffusion block."""
        return self.params.d * float(self.lam[-1, -1])

    def solve_momentum_stage(self, t, z, gh):
        """Velocity coefficients of an implicit stage with concentration from z.

        Solves (G + gh (mu_e S + D_F(C))) alpha = G z_alpha.  C is fixed, so
        the stage is linear in alpha: one dense solve, no Newton iteration.
        A polynomial F can be negative, so the matrix need not be SPD.
        Returns alpha and the nodal (C, F(C)), which the stage's `rhs` reuses.
        """
        dom = self.domain
        B = z[: self.ns2].reshape(self.Ns, self.Ns)
        cg = dom.scalar_values(B)
        f_grid = mobility_values(self.params.mobility, cg)
        gram = dom.velocity.gram
        with np.errstate(over="ignore", invalid="ignore"):
            lhs = gram + gh * (self.params.mu_e * self.stiffness + dom.weighted_gram(f_grid))
        if not np.all(np.isfinite(lhs)):
            raise NonFiniteStateError(t)
        alpha = np.linalg.solve(lhs, gram @ z[self.alpha_slice])
        if not np.all(np.isfinite(alpha)):
            raise NonFiniteStateError(t)
        return alpha, (cg, f_grid)

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

    def rhs(self, t: float, y: np.ndarray, *, _nodal_c_f=None) -> np.ndarray:
        """Time derivative of the packed state y at time t.

        `_nodal_c_f` is for the implicit stage loop only: the nodal (C, F(C))
        that `solve_momentum_stage` computed from y's concentration.
        """
        ydot, _ = self._eval(t, y, want_diag=False, nodal_c_f=_nodal_c_f)
        return ydot

    def evaluate_with_diagnostics(self, t, y):
        return self._eval(t, y, want_diag=True)

    def _eval(self, t, y, want_diag, nodal_c_f=None):
        dom = self.domain
        p = self.params
        dh = p.korteweg.delta_hat
        B = y[: self.ns2].reshape(self.Ns, self.Ns)
        A = y[self.ns2 : self.ns2 + self.nv2].reshape(self.Nv, self.Nv)
        a_flat = A.reshape(-1)

        if nodal_c_f is None:
            cg = dom.scalar_values(B)
            f_grid = mobility_values(p.mobility, cg)
        else:
            cg, f_grid = nodal_c_f
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
        implicit_pair = -p.mu_e * s_alpha - pair_F
        rhs_pair = implicit_pair + pair_kt + pair_f
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
            sb = dom.scalar
            with np.errstate(over="ignore"):
                diag = {
                    "l2_C": float(np.sum(B * B)),
                    "h1_semi_C": float(ex[_I_GRAD_C]),
                    "h2_semi_C": float(ex[_I_LAP_C]),
                    "l2_u": float(a_flat @ dom.velocity.gram @ a_flat),
                    "h1_semi_u": float(ex[_I_GRAD_U]),
                    "fq_u": float(dom.grid.integrate(f_grid * (ux * ux + uy * uy)))
                    if float(np.min(f_grid)) >= 0.0
                    else math.nan,
                    "dCdt_l2": float(ex[_I_DCDT]),
                    "mass": float(B[0, 0] * sb.norm_00 * sb.Lx * sb.Ly),
                    "min_C": float(np.min(cg)),
                    # Dual-norm majorants of the velocity rate: the mobility's
                    # H1 norm and the instantaneous forcing norm.
                    "h1_F_sq": dom.midpoint.integrate(
                        f_mid**2 + (fp * cmx) ** 2 + (fp * cmy) ** 2
                    ),
                    "l2_f": float(ex[_I_F]),
                    # Not ledger columns: the stage-loop choice and the first
                    # stage's implicit slope G^-1 implicit_pair.
                    "max_F": float(np.max(f_grid)),
                    "implicit_pair": implicit_pair,
                }
        return ydot, diag

    # -- ledger ---------------------------------------------------------------

    def ledger_row(self, t, y, diag, prev, blowup: bool) -> LedgerRow:
        """The row of state y, with `diag` from its evaluation and `prev` the
        previous row (None at the initial state)."""
        ex = self.extras(y)
        if prev is None:
            res_C = 0.0
            res_u = 0.0
        else:
            res_C = (0.5 * diag["l2_C"] + ex[_IW_C]) - (0.5 * prev.l2_C + prev.iw_c)
            res_u = (0.5 * diag["l2_u"] + ex[_IW_U]) - (0.5 * prev.l2_u + prev.iw_u)
        return LedgerRow(
            t=t,
            res_C=res_C,
            res_u=res_u,
            blowup=int(blowup),
            **{name: diag[name] for name in _STATE_COLUMNS},
            **{name: float(v) for name, v in zip(_WORK_FIELDS, ex)},
        )


def _takes_imex(system, dt, diag) -> bool:
    """Whether a trial of size dt from a state with diagnostics `diag` is IMEX.

    rho_u = mu_e ||G^-1 S||_inf + max F bounds the momentum block's
    spectral radius: ||G^-1 S||_inf bounds the largest eigenvalue of G^-1 S,
    and (D_F a, a) <= max F (G a, a) on the certified rule.
    The drag or viscosity must dominate diffusion (rho_u > 2 d lambda_max),
    and dt must be past the scale where an explicit step resolves them.
    """
    rho_u = system.rho_viscous + diag["max_F"]
    return rho_u > 2.0 * system.rho_diffusion and dt * rho_u > 1.0


def _attempt_step(system, t, y, dt, k1, t_new, diag):
    """One trial step from (t, y) with slope k1 = rhs(t, y) and its diagnostics.

    Takes the ARK4(3)6L stage loop when `_takes_imex` says so, DP5(4)
    otherwise.  Returns (y_new, k_new, diag_new, error_estimate, order):
    the step's result is evaluated once, with diagnostics at t_new, the
    time the step records, which gives k_new and diag_new; `order` is that
    of the propagated solution, 5 or 4.
    """
    if _takes_imex(system, dt, diag):
        return (*_ark_stages(system, t, y, dt, k1, t_new, diag), _ARK_ORDER)
    return (*_dp54_stages(system, t, y, dt, k1, t_new), _ORDER)


def _dp54_stages(system, t, y, dt, k1, t_new):
    """DP5(4) stages; the last stage's input is y5 itself (first same as last)."""
    k = np.empty((_N_STAGES, y.size))
    k[0] = k1
    for i in range(1, _N_STAGES - 1):
        k[i] = system.rhs(t + _C[i] * dt, y + dt * (_A[i] @ k[:i]))
    y5 = y + dt * (_A[-1] @ k[:-1])
    k[-1], diag = system.evaluate_with_diagnostics(t_new, y5)
    return y5, k[-1], diag, dt * (_E @ k)


def _ark_stages(system, t, y, dt, k1, t_new, diag):
    """ARK4(3)6L stages, implicit only in the momentum block's linear part.

    k[i] is the full slope at stage i and ki[i] its implicit part in the
    velocity block; the explicit part is their difference, so the stage
    input is y + dt (AE k + (AI - AE) ki) and the weights apply to k alone.
    The work integrals ride in k at each stage's value after its solve.
    The first stage's implicit part is G^-1 diag["implicit_pair"].
    """
    va = system.alpha_slice
    k = np.empty((_ARK_C.size, y.size))
    ki = np.empty((_ARK_C.size, system.nv2))
    k[0] = k1
    ki[0] = system.domain.velocity.solve_gram(diag["implicit_pair"])
    gh = _ARK_GAMMA * dt
    for i in range(1, _ARK_C.size):
        t_i = t + _ARK_C[i] * dt
        z = y + dt * (_ARK_AE[i] @ k[:i])
        z[va] += dt * ((_ARK_AI[i] - _ARK_AE[i]) @ ki[:i])
        alpha, nodal_c_f = system.solve_momentum_stage(t_i, z, gh)
        ki[i] = (alpha - z[va]) / gh
        z[va] = alpha
        k[i] = system.rhs(t_i, z, _nodal_c_f=nodal_c_f)
    y_new = y + dt * (_ARK_B @ k)
    k_new, diag_new = system.evaluate_with_diagnostics(t_new, y_new)
    return y_new, k_new, diag_new, dt * (_ARK_E @ k)


def _error_norm(err, y_old, y_new, rtol, atol):
    scale = atol + rtol * np.maximum(np.abs(y_old), np.abs(y_new))
    return float(np.sqrt(np.mean((err / scale) ** 2)))


_SAFETY, _FAC_MIN, _FAC_MAX = 0.9, 0.2, 5.0


def _advance(system, t, y, dt, k1, diag, t_new, config):
    """Try steps from (t, y), shrinking dt until one passes the error test.

    k1 and diag are the slope and diagnostics at (t, y).  The first trial
    lands at t_new, a shrunk one at t + dt.  A trial whose stages raise
    NonFiniteStateError, MobilityOverflowError or a singular implicit
    stage, or whose result is non-finite, halves dt; an error norm above 1
    scales it by max(0.2, 0.9 err^(-1/q)), q the trial's order.  Returns
    (dt, t_new, y_new, k_new, diag, err_norm, order, rejected) for the
    accepted trial, with its result's slope and diagnostics, `rejected`
    counting the trials before it.
    """
    rejected = 0
    while True:
        if dt <= 16 * np.finfo(float).eps * max(abs(t), 1.0):
            raise StepSizeUnderflowError(t, dt)
        try:
            y_new, k_new, diag_new, err, order = _attempt_step(system, t, y, dt, k1, t_new, diag)
            finite = np.all(np.isfinite(y_new)) and np.all(np.isfinite(err))
        except (NonFiniteStateError, MobilityOverflowError, np.linalg.LinAlgError):
            finite = False
        if finite:
            err_norm = _error_norm(err, y, y_new, config.rtol, config.atol)
            if err_norm <= 1.0:
                return dt, t_new, y_new, k_new, diag_new, err_norm, order, rejected
            dt *= max(_FAC_MIN, _SAFETY * err_norm ** (-1.0 / order))
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
    `checkpoints`; a time outside [t0, t0 + T_run] is a ValueError), and
    halts with outcome "blowup" as soon as the concentration L2 norm
    exceeds the configured cap.  A trial step that fails (non-finite
    values, mobility overflow) is rejected and retried with a smaller dt.
    Each later state is evaluated once, as the last stage of the trial
    that reaches it, which also gives its ledger diagnostics and the next
    step's slope; so only a failure at the initial state aborts the run.  Each trial takes DP5(4) or, when the
    drag sets the step, the implicit-explicit ARK4(3)6L pair (see
    `_takes_imex`); `steps_implicit` counts the accepted ones of the latter.
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

    checkpoint_set = {float(s) for s in checkpoint_times}
    outside = sorted(s for s in checkpoint_set if not t <= s <= t_end)
    if outside:
        raise ValueError(f"checkpoint time {outside[0]!r} lies outside the run [{t!r}, {t_end!r}]")
    stops = sorted((checkpoint_set - {t}) | {t_end})

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

    dt = min(config.dt_init, stops[0] - t)
    err_prev = 1.0
    accepted = 0
    rejected = 0
    implicit = 0
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

        dt, t, y, ydot, diag, err_norm, order, n_rejected = _advance(
            system, t, y, dt, ydot, diag, next_stop if hit_stop else t + dt, config)
        rejected += n_rejected
        hit_stop = hit_stop and n_rejected == 0  # a shrunk step stops short
        accepted += 1
        implicit += order == _ARK_ORDER

        blowup = math.sqrt(diag["l2_C"]) > config.blowup_cap
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
            fac = _SAFETY * err_norm ** (-0.7 / order) * err_prev ** (0.4 / order)
        dt = dt * min(_FAC_MAX, max(_FAC_MIN, fac))
        err_prev = max(err_norm, 1e-10)

    return SimulationResult(
        outcome=outcome,
        final_state=system.unpack(t, y),
        ledger=ledger,
        blowup_time=blowup_time,
        checkpoints=checkpoints,
        steps_accepted=accepted,
        steps_rejected=rejected,
        steps_implicit=implicit,
        wall_time=time.perf_counter() - t_start,
    )


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

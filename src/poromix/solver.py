"""
Coefficient ODE system of the coupled momentum/transport model and its
adaptive time integrator.

The semi-discrete system evolves cosine coefficients beta of the
concentration and streamfunction coefficients alpha of the velocity:

    beta'  = -d lam beta - P_z[u . grad C] - kappa P_z[C (1 - C)]
    G alpha' = -mu_e S alpha - P_w[F(C) u] + P_w[-delta_hat lap C grad C]
               + P_w[f]

with P_z / P_w the pairings against the scalar and velocity bases, G and S
the velocity Gram and stiffness matrices.  The body force enters with a
plus sign on the right-hand side, matching the strong form of the
momentum balance.

Each pairing is exact.  Every product of the solution is formed at the
midpoint nodes (see the domain module): the reaction projection, the drag
pairing P_w[F(C) u], D_F(C) and the quartic work integrals are cosine
polynomials and go as plain midpoint sums; advection and the Korteweg
pairing go through the analysis matrices R.  Each product is one 2-D BLAS
call over factors stacked at build (see the domain module's MidpointRule).
The forcing comes as its pairing (see the forcing module) and a transport
source as its coefficients; with G, S and min C on the midpoint rule too,
this module calls no Gauss-Legendre method.

Alongside the physical coefficients, the state carries a small block of
work integrals (dissipation, forcing power, reaction quadratics), each
slope one dot product.  These make the energy identities checkable per
accepted step without any extra quadrature in time: the residuals are pure
time-integration error.  They are quadratures of the solution that no
right-hand side reads, so they ride in every stage but not in the step's
error norm, which covers C and alpha only (as CVODES treats quadrature
variables); the energy residual gates check them.  One RMS over both
blocks still lets each alpha entry sit a few times above its own scale
while the norm passes.

Time stepping is adaptive: one trial loop in `run` lands on stops, rejects
and shrinks, and grows the step by a proportional-integral controller.  It
starts from the step that the tolerances allow, estimated from the initial
slope and one probe evaluation (`_initial_step`).
Each trial step runs one stage loop, `_attempt_step`, over one of two
tableaux:

* an embedded Dormand-Prince 5(4) pair, explicit in everything;
* the additive pair ARK4(3)6L[2]SA (Kennedy & Carpenter 2003), explicit in
  transport, reaction, Korteweg stress and forcing and singly diagonally
  implicit in the momentum block's linear part -G^-1 (mu_e S + D_F(C)) alpha,
  with D_F(C) = (F(C) w_q, w_r).  Every stage's concentration is explicit,
  so an implicit stage is one dense solve, and D_F alpha its drag pairing.

The additive pair is taken when the drag sets the step: when the bound
rho_u = mu_e ||G^-1 S||_inf + max F(C_n) on the momentum block's spectral
radius exceeds twice the diffusion's d lambda_max, and dt rho_u > 1.  Both
pairs end in one evaluation, with diagnostics, at the step's result; it
fills that state's ledger row and gives the next step's slope, so each
accepted state is evaluated once.  The additive pair's alpha error
estimate overstates the stiff modes' error, so it is filtered by the last
implicit stage's matrix, (G + gamma dt (mu_e S + D_F))^-1 G err_alpha
(Shampine's filter; Hairer & Wanner, Solving ODEs II, IV.8).
"""

from __future__ import annotations

import math
import time
from collections import namedtuple
from functools import cached_property

import numpy as np

from ._record import Record
from .domain import Domain, SpecError
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


class PhysicalParams(Record):
    """Model constants: effective viscosity, diffusion, reaction, coupling."""

    mu_e: float
    d: float
    kappa: float = 0.0
    korteweg: KortewegParams = KortewegParams()
    mobility: MobilitySpec = MobilitySpec.constant(1.0)
    m_gn: float = 1.0  # interpolation-inequality constant for the horizon report

    def __post_init__(self):
        errs = []
        if not (np.isfinite(self.mu_e) and self.mu_e > 0):
            errs.append(f"mu_e must be finite and > 0, got {self.mu_e!r}")
        if not (np.isfinite(self.d) and self.d > 0):
            errs.append(f"d must be finite and > 0, got {self.d!r}")
        if not (np.isfinite(self.kappa) and self.kappa >= 0):
            errs.append(f"kappa must be finite and >= 0, got {self.kappa!r}")
        if not (np.isfinite(self.m_gn) and self.m_gn > 0):
            errs.append(f"M_GN must be finite and > 0, got {self.m_gn!r}")
        if errs:
            raise SpecError(*errs)


class SimulationState(Record):
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


class SolverConfig(Record):
    """Horizon, tolerances and blow-up cap; `run` estimates the first step
    from the tolerances (see `_initial_step`)."""

    T_run: float
    rtol: float = 1e-8
    atol: float = 1e-11
    blowup_cap: float = 1e6

    def __post_init__(self):
        errs = []
        if not (np.isfinite(self.T_run) and self.T_run > 0):
            errs.append(f"T_run must be finite and > 0, got {self.T_run!r}")
        for name in ("rtol", "atol"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                errs.append(f"{name} must be finite and > 0, got {v!r}")
        if not self.blowup_cap > 0:
            errs.append(f"blowup_cap must be > 0, got {self.blowup_cap!r}")
        if errs:
            raise SpecError(*errs)


class SimulationResult(Record):
    outcome: str  # "completed" | "blowup"
    final_state: SimulationState
    ledger: EnergyLedger
    blowup_time: float | None = None
    checkpoints: dict | None = None  # None: a new empty dict
    steps_accepted: int = 0
    steps_rejected: int = 0
    steps_implicit: int = 0  # accepted steps taken by the implicit-explicit pair
    wall_time: float = 0.0

    def __post_init__(self):
        if self.checkpoints is None:
            object.__setattr__(self, "checkpoints", {})

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

# An embedded pair as `_attempt_step` runs it: nodes, explicit rows, implicit
# rows below the ESDIRK diagonal gamma (both None if explicit), weights,
# error weights (one longer than b if they also weigh the result's slope) and
# the propagated order.
_Pair = namedtuple("_Pair", "c ae ai gamma b e order")
_DP54 = _Pair(_C, _A, None, None, _A[-1], _E, 5)
_ARK436 = _Pair(_ARK_C, _ARK_AE, _ARK_AI, _ARK_GAMMA, _ARK_B, _ARK_E, 4)

# The work-integral block appended to the packed state: the LedgerRow
# field of each entry, in the block's order.
_WORK_FIELDS = ("iw_c", "iw_u", "i_grad_c", "i_lap_c", "i_grad_u", "i_fu", "i_f", "i_fdotu",
                "i_cc", "i_dcdt")
_N_EXTRA = len(_WORK_FIELDS)
# (P, P) slots of GalerkinSystem's midpoint-rule workspace (see its __init__).
_N_MID_WORK = 8
# The ledger columns that are functions of one state, all from its evaluation:
# those LedgerRow lists before res_C, and those it lists after the work integrals.
_STATE_COLUMNS = ("l2_C", "h1_semi_C", "h2_semi_C", "l2_u", "h1_semi_u", "fq_u", "dCdt_l2",
                  "mass", "min_C")
_STATE_TAIL = ("h1_F_sq", "l2_f")


class _LastTime:
    """t -> fn(domain, t), which keeps its last value and returns it again,
    without calling fn, for the same t."""

    __slots__ = ("fn", "domain", "t", "value")

    def __init__(self, fn, domain):
        self.fn, self.domain, self.t, self.value = fn, domain, None, None

    def __call__(self, t):
        if t != self.t:
            self.value = self.fn(self.domain, t)
            self.t = t
        return self.value


class GalerkinSystem:
    """Right-hand-side assembly for one (domain, params, forcing) triple.

    `forcing` None is no body force: an evaluation then pairs nothing,
    adds nothing and forms no f . u work.  The forcing's pairing and
    `transport_source` are functions of (domain, t) alone, so each is
    evaluated once per stage time: the system keeps the last (t, value) of
    each, which DP5(4)'s last stage and the step's result, both at t + dt,
    share.

    An evaluation writes C, grad C, -lap C, u, C (1-C), its temporaries and
    the stacked products of its transforms and pairings into the workspace
    the system owns on the midpoint rule, `_mid_work`; F(C) and F'(C) are
    new arrays, and so are an implicit stage's D_F(C) and matrix.  Only a
    table or callable forcing allocates on the Gauss-Legendre grid, inside
    its pairing.  The arrays an evaluation or a stage returns never alias
    the workspace.  One instance must not evaluate in two threads at once.

    What no evaluation changes is formed once, at construction, and lives
    as long as the system: -d lam, mu_e S and the zero pairing of an absent
    Korteweg term, all read-only.  Each is the operand the evaluation's
    expression would have formed, so results are bit for bit those of
    forming it per call.
    """

    def __init__(self, domain: Domain, params: PhysicalParams, forcing: ForcingSpec | None = None,
                 transport_source=None):
        self.domain = domain
        self.params = params
        self.forcing = forcing
        # Verification-only hook: source(domain, t) -> (Ns, Ns) coefficients
        # added to the transport rate, so manufactured fields solve the system.
        self.transport_source = transport_source
        self._forcing_at = None if forcing is None else _LastTime(forcing.pairing, domain)
        self._source_at = None if transport_source is None else _LastTime(transport_source, domain)
        self.Ns = domain.spec.Ns
        self.Nv = domain.spec.Nv
        self.ns2 = self.Ns * self.Ns
        self.nv2 = self.Nv * self.Nv
        self.n_state = self.ns2 + self.nv2 + _N_EXTRA
        self.lam = domain.scalar.eigenvalues
        self.stiffness = domain.velocity.stiffness
        self.alpha_slice = slice(self.ns2, self.ns2 + self.nv2)
        self._neg_d_lam = -params.d * self.lam
        self._mu_stiffness = params.mu_e * self.stiffness
        self._zero_pair = np.zeros(self.nv2)
        for const in (self._neg_d_lam, self._mu_stiffness, self._zero_pair):
            const.flags.writeable = False

        # The workspace: (P, P) slots 0-7 hold C, C_x, -lap C (then a
        # temporary), C_y, u_x, u_y, C (1-C) and a temporary.  The stacked
        # operands lie over slots that hold nothing at their point of
        # _eval: the scalar pass's (3P, Ns) left products and each pairing's
        # (2P, Nv) right products over u, before u is formed or after its
        # last use, and the (2P, Nv) phxs A over slots 6-7, before either
        # is written.  P >= 2 Ns and P > Nv, so each fits in two slots.
        P = domain.midpoint.P
        self._mid_work = np.empty(_N_MID_WORK * P * P)

        def at(slot, rows, cols=P):
            return self._mid_work[slot * P * P :][: rows * cols].reshape(rows, cols)

        # Indexed by whether the Korteweg term is on, which adds -lap C.
        self._scalar_out = [(at(4, n * P, self.Ns), at(0, n * P), at(3, P)) for n in (2, 3)]
        self._velocity_out = (at(6, 2 * P, self.Nv), at(4, 2 * P))
        self._pair_out = at(4, 2 * P, self.Nv)
        self._cc, self._tmp_x, self._tmp_y = at(6, P), at(2, P), at(7, P)

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

    def implicit_stage(self, t, z, gh):
        """(slope, (alpha, matrix)) of an implicit stage with input z.

        alpha solves (G + gh (mu_e S + D_F(C))) alpha = G z_alpha, C from z.
        C is fixed, so that is one dense solve, no Newton iteration; a
        polynomial F can be negative, so the matrix need not be SPD.  The
        slope is rhs at z with alpha in place, its drag paired as D_F alpha.
        The matrix filters the step's error estimate.
        """
        return self._eval(t, z, False, gh)

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
        """Time derivative of the packed state y at time t."""
        return self._eval(t, y, False)[0]

    def evaluate_with_diagnostics(self, t, y):
        return self._eval(t, y, want_diag=True)

    def _eval(self, t, y, want_diag, gh=None):
        """(ydot, the diagnostics or None) at (t, y); with gh, an implicit
        stage's (ydot, (alpha, its matrix)), alpha solved for in y's place."""
        dom = self.domain
        p = self.params
        dh = p.korteweg.delta_hat
        B = y[: self.ns2].reshape(self.Ns, self.Ns)
        tmp_x, tmp_y, pair_out = self._tmp_x, self._tmp_y, self._pair_out
        ydot = np.empty(self.n_state)
        bdot = ydot[: self.ns2].reshape(self.Ns, self.Ns)
        extras = self.extras(ydot)
        lam_b = self.lam * B

        # The workspace's slots are reused in the order below (see
        # __init__).  C, grad C and -lap C, then F(C).
        cm, cx, cy, neg_lap = dom.midpoint_scalar_values(B, lam_b if dh != 0.0 else None,
                                                         out=self._scalar_out[dh != 0.0])
        f_mid = mobility_values(p.mobility, cm)
        if gh is None:
            a_flat = y[self.alpha_slice]
        else:
            # An implicit stage: alpha solves (G + gh (mu_e S + D_F)) alpha
            # = G z_alpha, and the drag is paired below as D_F alpha.
            d_f = dom.weighted_gram(f_mid)
            with np.errstate(over="ignore", invalid="ignore"):
                lhs = dom.velocity.gram + gh * (self._mu_stiffness + d_f)
            if not np.isfinite(lhs).all():
                raise NonFiniteStateError(t)
            a_flat = np.linalg.solve(lhs, dom.velocity.gram @ y[self.alpha_slice])
            if not np.isfinite(a_flat).all():
                raise NonFiniteStateError(t)
        A = a_flat.reshape(self.Nv, self.Nv)
        # Korteweg coupling: dh times the pairing of -lap C grad C; the y
        # product comes first, as -lap C sits in tmp_x.
        if dh != 0.0:
            kt_y = np.multiply(neg_lap, cy, out=tmp_y)
            pair_kt = dom.midpoint_gradient_pairing(np.multiply(neg_lap, cx, out=tmp_x), kt_y,
                                                    out=pair_out).reshape(-1)
            pair_kt *= dh
        else:
            pair_kt = self._zero_pair
        ux, uy = dom.midpoint_velocity_values(A, out=self._velocity_out)

        # Transport: advection and reaction projections,
        # bdot = -d lam B - P_z[adv] - kappa P_z[C (1-C)] (+ source).
        # u . grad C is a sine polynomial of degree Ns + Nv <= P, and
        # (C (1-C), z) a cosine polynomial of degree 3(Ns-1) < 2P; C (1-C)
        # also feeds the reaction work below.
        cc_mid = np.multiply(cm, np.subtract(1.0, cm, out=self._cc), out=self._cc)
        adv = np.add(np.multiply(ux, cx, out=tmp_x), np.multiply(uy, cy, out=tmp_y), out=tmp_x)
        p_adv = dom.midpoint_sine_project(adv)
        np.multiply(self._neg_d_lam, B, out=bdot)
        bdot -= p_adv
        if p.kappa != 0.0:
            p_cc = dom.midpoint_project(cc_mid)
            bdot -= p.kappa * p_cc
        if self._source_at is not None:
            bdot += self._source_at(t)

        # Momentum: drag, Korteweg coupling, body force.
        if gh is None:
            pair_F = dom.midpoint_velocity_pairing(np.multiply(f_mid, ux, out=tmp_x),
                                                   np.multiply(f_mid, uy, out=tmp_y),
                                                   out=pair_out).reshape(-1)
        else:
            pair_F = d_f @ a_flat
        s_alpha = self.stiffness @ a_flat
        implicit_pair = -p.mu_e * s_alpha - pair_F
        rhs_pair = implicit_pair + pair_kt
        if self._forcing_at is None:
            f_sq = f_dot_u = 0.0
        else:
            pair_f, f_sq = self._forcing_at(t)
            rhs_pair += pair_f
            f_dot_u = np.vdot(a_flat, pair_f)
        ydot[self.alpha_slice] = dom.velocity.solve_gram(rhs_pair)

        # Work integrals: exact quadrature complements of the energy
        # identities, so the per-step residuals isolate integrator error.
        # Each is one dot product: |grad C|^2 = lam B . B, |lap C|^2 =
        # lam B . lam B, and the velocity's work is -alpha . rhs_pair.  The
        # quartic (C (1-C))^2 is a cosine polynomial: the midpoint rule
        # integrates it exactly.
        grad_c_sq = np.vdot(lam_b, B)
        lap_c_sq = np.vdot(lam_b, lam_b)
        grad_u_sq = np.vdot(a_flat, s_alpha)
        fu_quad = np.vdot(a_flat, pair_F)
        dcdt_sq = np.vdot(bdot, bdot)
        iw_c = p.d * grad_c_sq + np.vdot(B, p_adv)
        if p.kappa != 0.0:
            iw_c += p.kappa * np.vdot(B, p_cc)
        # In _WORK_FIELDS order.
        extras[:] = (iw_c, -np.vdot(a_flat, rhs_pair), grad_c_sq, lap_c_sq, grad_u_sq, fu_quad,
                     f_sq, f_dot_u, dom.midpoint.cell * np.vdot(cc_mid, cc_mid), dcdt_sq)
        if not np.isfinite(ydot).all():
            raise NonFiniteStateError(t)

        if not want_diag:
            return ydot, None if gh is None else (a_flat, lhs)
        # max F(C) and the sign of F behind fq_u are over the midpoint nodes
        # that assemble the drag and D_F; min C, for the positivity check,
        # adds both walls to them (`Domain.scalar_min`).  F^2 + F'^2
        # |grad C|^2 is a cosine polynomial for a polynomial F (squares of
        # sines are cosines), quartic for a quadratic F: it goes on the
        # midpoint rule like (C (1-C))^2.
        fp = p.mobility.derivative_values(cm, f_mid)
        # F is finite below the mobility's overflow limit, but F^2 may not
        # be: such a diagnostic is inf, which apriori_flags reports, rather
        # than a RuntimeWarning.
        with np.errstate(over="ignore"):
            # f_mid^2 + (fp cx)^2 + (fp cy)^2, summed in that order.
            h1_f = np.square(f_mid, out=tmp_x)
            h1_f += np.square(np.multiply(fp, cx, out=cx), out=cx)
            h1_f += np.square(np.multiply(fp, cy, out=cy), out=cy)
            h1_f_sq = dom.midpoint.integrate(h1_f)
            diag = {
                "l2_C": float((B * B).sum()),
                "h1_semi_C": float(grad_c_sq),
                "h2_semi_C": float(lap_c_sq),
                "l2_u": float(a_flat @ dom.velocity.gram @ a_flat),
                "h1_semi_u": float(grad_u_sq),
                # The drag work's slope: int F |u|^2, a norm where F >= 0.
                "fq_u": float(fu_quad) if float(f_mid.min()) >= 0.0 else math.nan,
                "dCdt_l2": float(dcdt_sq),
                "mass": dom.scalar.mass(B),
                "min_C": dom.scalar_min(B),
                # Dual-norm majorants of the velocity rate: the mobility's
                # H1 norm and the instantaneous forcing norm.
                "h1_F_sq": h1_f_sq,
                "l2_f": f_sq,
                # Not ledger columns: the choice of pair and the first
                # stage's implicit slope G^-1 implicit_pair.
                "max_F": float(f_mid.max()),
                "implicit_pair": implicit_pair,
            }
        return ydot, diag

    # -- ledger ---------------------------------------------------------------

    def ledger_row(self, t, y, diag, prev, blowup: bool) -> LedgerRow:
        """The row of state y, with `diag` from its evaluation and `prev` the
        previous row (None at the initial state)."""
        work = self.extras(y).tolist()  # in _WORK_FIELDS order, iw_c and iw_u first
        if prev is None:
            res_C = res_u = 0.0
        else:
            res_C = (0.5 * diag["l2_C"] + work[0]) - (0.5 * prev.l2_C + prev.iw_c)
            res_u = (0.5 * diag["l2_u"] + work[1]) - (0.5 * prev.l2_u + prev.iw_u)
        # In LedgerRow's field order: a record binds positional arguments fastest.
        return LedgerRow(t, *[diag[name] for name in _STATE_COLUMNS], res_C, res_u, int(blowup),
                         *work, *[diag[name] for name in _STATE_TAIL])


def _takes_imex(system, dt, diag) -> bool:
    """Whether a trial of size dt from a state with diagnostics `diag` is IMEX.

    rho_u = mu_e ||G^-1 S||_inf + max F estimates a bound on the momentum
    block's spectral radius: ||G^-1 S||_inf bounds the largest eigenvalue of
    G^-1 S, and (D_F a, a) <= max F (G a, a) with diag["max_F"] the maximum
    over the midpoint nodes: (D_F a, a) is the plain midpoint sum of
    F |u_a|^2, at most max F times the sum of |u_a|^2, which the rule
    integrates exactly to (G a, a).
    The drag or viscosity must dominate diffusion (rho_u > 2 d lambda_max),
    and dt must be past the scale where an explicit step resolves them.
    """
    rho_u = system.rho_viscous + diag["max_F"]
    return rho_u > 2.0 * system.rho_diffusion and dt * rho_u > 1.0


def _attempt_step(system, t, y, dt, k1, t_new, diag):
    """One trial step from (t, y) with slope k1 = rhs(t, y) and its diagnostics.

    Runs the stages of ARK4(3)6L when `_takes_imex` says so, DP5(4)
    otherwise.  An implicit pair's stage is implicit only in the momentum
    block's linear part: ki[i] is that part of the full slope k[i], the
    explicit part is their difference, so the stage input is
    y + dt (AE k + (AI - AE) ki) and the weights apply to k alone.  Each
    later stage is one `implicit_stage`, with the work integrals in k; the
    first's implicit part is G^-1 diag["implicit_pair"].  The estimate is
    dt (e @ k), its alpha block filtered by the last implicit stage's matrix.

    Returns (y_new, k_new, diag_new, error_estimate, pair): the step's
    result is evaluated once, with diagnostics at t_new, the time the step
    records, which gives k_new and diag_new; `pair` is the _Pair taken.
    """
    pair = _ARK436 if _takes_imex(system, dt, diag) else _DP54
    n = pair.b.size
    k = np.empty((n + 1, y.size))
    k[0] = k1
    if pair.ai is not None:
        va = system.alpha_slice
        ki = np.empty((n, system.nv2))
        ki[0] = system.domain.velocity.solve_gram(diag["implicit_pair"])
        gh = pair.gamma * dt
    for i in range(1, n):
        t_i = t + pair.c[i] * dt
        z = y + dt * (pair.ae[i] @ k[:i])
        if pair.ai is None:
            k[i] = system.rhs(t_i, z)
            continue
        z[va] += dt * ((pair.ai[i] - pair.ae[i]) @ ki[:i])
        k[i], (alpha, lhs) = system.implicit_stage(t_i, z, gh)
        ki[i] = (alpha - z[va]) / gh
    y_new = y + dt * (pair.b @ k[:n])
    k[n], diag_new = system.evaluate_with_diagnostics(t_new, y_new)
    err = dt * (pair.e @ k[: pair.e.size])
    if pair.ai is not None:
        err[va] = np.linalg.solve(lhs, system.domain.velocity.gram @ err[va])
    return y_new, k[n], diag_new, err, pair


def _scaled_rms(v, scale):
    """RMS of v / scale over v's first scale.size entries, the solution's C
    and alpha, with the sum still divided by the whole state's length v.size:
    each C and alpha entry keeps the tolerance of an RMS over the whole
    state, and the work integrals after them do not count.  They are
    quadratures that no right-hand side reads; the energy residual gates
    (`diagnostics.segment_residual_bounds`) check them.
    """
    ratio = v[: scale.size] / scale
    return math.sqrt(np.vdot(ratio, ratio) / v.size)


def _error_norm(err, y_old, y_new, config, n_sol):
    """`_scaled_rms` of err, scaled by atol + rtol max(|y_old|, |y_new|) over
    the first n_sol entries."""
    scale = config.atol + config.rtol * np.maximum(np.abs(y_old[:n_sol]), np.abs(y_new[:n_sol]))
    return _scaled_rms(err, scale)


# A starting-step probe that fails is retried this much shorter, at most
# _PROBE_TRIES times in all.
_PROBE_SHRINK, _PROBE_TRIES = 0.1, 8


def _initial_step(system, t, y, k1, diag, span, config):
    """The first trial's step from state y at t, with slope k1 and diagnostics `diag`.

    The starting-step rule of Hairer, Norsett & Wanner (Solving ODEs I,
    II.4; DOPRI5's HINIT).  d0 and d1 are the `_scaled_rms` norms of y and
    k1, scaled by atol + rtol |y|.  One probe of size h0 = 0.01 d0 / d1
    gives d2 = ||rhs(t + h0, y + h0 k1) - k1|| / h0, and the step is
    min(100 h0, (0.01 / max(d1, d2))^(1/p)), p the propagated order of the
    pair the first trial takes (`_takes_imex`), capped at `span`, the
    distance to the first stop.

    h0 is capped at `span` too.  A state below its tolerance, d0 < 1e-5,
    says nothing of the step: its h0 is 1e-6, as in HINIT, as is that of a
    slope whose norm overflows.  A zero slope probes the whole span, and a
    zero max(d1, d2), an exact steady state, takes it.  A probe that fails
    (NonFiniteStateError, MobilityOverflowError or a non-finite d2) is
    retried _PROBE_SHRINK times shorter; if all _PROBE_TRIES fail, the step
    is _PROBE_SHRINK times the last, and the trial loop's rejections go on
    from there.  So only a failure at the initial state aborts a run.
    """
    scale = config.atol + config.rtol * np.abs(y[: system.alpha_slice.stop])
    with np.errstate(over="ignore", invalid="ignore"):
        d0, d1 = _scaled_rms(y, scale), _scaled_rms(k1, scale)
        if d1 == 0.0:
            h0 = span
        else:
            h0 = min(0.01 * d0 / d1 if d0 >= 1e-5 and d1 < math.inf else 1e-6, span)
        for _ in range(_PROBE_TRIES):
            try:
                d2 = _scaled_rms(system.rhs(t + h0, y + h0 * k1) - k1, scale) / h0
            except (NonFiniteStateError, MobilityOverflowError):
                d2 = math.nan
            if math.isfinite(d2):
                break
            h0 *= _PROBE_SHRINK
        else:
            return h0
    d12 = max(d1, d2)

    def step(pair):
        h1 = (0.01 / d12) ** (1.0 / pair.order) if d12 > 0.0 else math.inf
        return min(100.0 * h0, h1, span) or h0  # h1 is 0 if d1 overflowed

    h = step(_DP54)
    return step(_ARK436) if _takes_imex(system, h, diag) else h


_SAFETY, _FAC_MIN, _FAC_MAX = 0.9, 0.2, 5.0
# A step no longer than this times max(|t|, 1) underflows.
_DT_FLOOR = 16 * np.finfo(float).eps


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
    exceeds the configured cap.  Each later state is evaluated once, as the
    last stage of the trial that reaches it, which also gives its ledger
    diagnostics and the next step's slope; so only a failure at the initial
    state aborts the run.  Each trial takes DP5(4) or, when the drag sets
    the step, the implicit-explicit ARK4(3)6L pair (see `_takes_imex`);
    `steps_implicit` counts the accepted ones of the latter.

    The first trial's size is estimated from the tolerances by
    `_initial_step`, at the cost of one `rhs` probe whose failure never
    aborts the run, and is capped at the first stop.  One loop makes one
    trial per pass and sets every step size.  It cuts a trial that would
    pass the next stop, or end within 1e-12 of it, to land on it.  A trial
    that fails (NonFiniteStateError, MobilityOverflowError, a singular
    implicit stage, a non-finite result or error estimate in any entry, the
    work integrals' included) halves dt, and one with an error norm above 1
    scales it by max(0.2, 0.9 err^(-1/q)), q its pair's order; the retry
    keeps that dt, short of the stop.  The norm covers the C and alpha
    entries only (see `_error_norm`): the work integrals are checked by the
    energy residual gates, not by the step size, and alpha's error can still
    hide behind C's in the one RMS.  An accepted step grows dt by the PI
    rule; dt <= 16 eps max(|t|, 1) raises StepSizeUnderflowError.
    """
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

    def emit(t, y, checkpoint):
        # A state is built only when the sink or a checkpoint takes it; an
        # accepted y is already finite (the trial loop rejects any other).
        if snapshot_sink is None and not checkpoint:
            return
        state = system.unpack(t, y)
        if snapshot_sink is not None:
            snapshot_sink(state)
        if checkpoint:
            checkpoints[t] = state

    ydot, diag = system.evaluate_with_diagnostics(t, y)
    row = system.ledger_row(t, y, diag, None, False)
    ledger.append(row)
    emit(t, y, t in checkpoint_set)

    dt = _initial_step(system, t, y, ydot, diag, stops[0] - t, config)
    err_prev = 1.0
    accepted = 0
    rejected = 0
    implicit = 0
    outcome = "completed"
    blowup_time = None
    stop_idx = 0
    retry = False  # the last trial was rejected

    while t < t_end - 1e-14 * max(1.0, abs(t_end)):
        while stop_idx < len(stops) and stops[stop_idx] <= t + 1e-14 * max(1.0, abs(t)):
            stop_idx += 1
        next_stop = stops[stop_idx] if stop_idx < len(stops) else t_end
        # A retry is never moved back onto the stop it was shrunk away from.
        hit_stop = not retry and t + dt >= next_stop - 1e-12 * max(1.0, abs(next_stop))
        if hit_stop:
            dt = next_stop - t
        if dt <= _DT_FLOOR * max(abs(t), 1.0):
            raise StepSizeUnderflowError(t, dt)

        t_new = next_stop if hit_stop else t + dt
        try:
            y_new, k_new, diag_new, err, pair = _attempt_step(system, t, y, dt, ydot, t_new, diag)
            finite = np.isfinite(y_new).all() and np.isfinite(err).all()
        except (NonFiniteStateError, MobilityOverflowError, np.linalg.LinAlgError):
            finite = False
        err_norm = _error_norm(err, y, y_new, config, system.alpha_slice.stop) if finite else math.inf
        retry = err_norm > 1.0
        if retry:
            rejected += 1
            dt *= max(_FAC_MIN, _SAFETY * err_norm ** (-1.0 / pair.order)) if finite else 0.5
            continue

        t, y, ydot, diag = t_new, y_new, k_new, diag_new
        accepted += 1
        implicit += pair.ai is not None

        blowup = math.sqrt(diag["l2_C"]) > config.blowup_cap
        row = system.ledger_row(t, y, diag, row, blowup)
        ledger.append(row)
        # A step that hits its stop lands on it exactly: t == next_stop.
        emit(t, y, hit_stop and next_stop in checkpoint_set)

        if blowup:
            outcome = "blowup"
            blowup_time = t
            break

        if err_norm == 0.0:
            fac = _FAC_MAX
        else:
            fac = _SAFETY * err_norm ** (-0.7 / pair.order) * err_prev ** (0.4 / pair.order)
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
    system = GalerkinSystem(state.domain, params)
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

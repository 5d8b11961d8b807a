import csv
import math
import re

import numpy as np
import pytest

from poromix import (
    DomainSpec,
    KortewegParams,
    NonFiniteStateError,
    PhysicalParams,
    ScalarField,
    SimulationState,
    build_domain,
    rhs_velocity,
    solver,
)
from poromix.ledger import CSV_COLUMNS, EnergyLedger, LedgerRow
# The tests build their fields with the library's mode-list builders.
from poromix.fields import cosine_field as make_scalar  # noqa: F401
from poromix.fields import stream_field as make_velocity


@pytest.fixture(scope="session")
def pi_domain():
    """(0, pi)^2 with a mid-size scalar band and two velocity modes."""
    return build_domain(DomainSpec(Lx=math.pi, Ly=math.pi, Ns=6, Nv=2))


@pytest.fixture(scope="session")
def rect_domain():
    """Non-square rectangle to catch Lx/Ly mixups."""
    return build_domain(DomainSpec(Lx=2.0, Ly=1.0, Ns=5, Nv=2))


def random_scalar(domain, seed, scale=1.0, decay=True):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((domain.spec.Ns, domain.spec.Ns)) * scale
    if decay:
        B = B / (1.0 + domain.scalar.eigenvalues)
    return ScalarField(domain, B)


def solver_korteweg_pairing(C, delta_hat):
    """The solver's pairing -delta_hat (lap C grad C, w[j,k]), shape (Nv, Nv).

    At rest with zero forcing the viscous and drag pairings vanish exactly,
    so G times the velocity rate from rhs_velocity is the Korteweg pairing
    that GalerkinSystem assembles.
    """
    dom = C.domain
    Nv = dom.spec.Nv
    params = PhysicalParams(mu_e=1.0, d=1.0, korteweg=KortewegParams(delta_hat=delta_hat))
    rate = rhs_velocity(SimulationState(0.0, C, make_velocity(dom, [])), params)
    return (dom.velocity.gram @ rate.coeffs.reshape(-1)).reshape(Nv, Nv)


def read_ledger_csv(path) -> EnergyLedger:
    """Parse a ledger CSV back into rows (the work integrals are not in it)."""
    ledger = EnergyLedger()
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != CSV_COLUMNS:
            raise ValueError(f"unexpected ledger header: {reader.fieldnames}")
        for rec in reader:
            vals = {k: float(rec[k]) for k in CSV_COLUMNS}
            vals["blowup"] = int(vals["blowup"])
            ledger.append(LedgerRow(**vals))
    return ledger


def fail_trials_past(monkeypatch, t_fail, when=lambda system: True):
    """Make every trial step that would end past `t_fail` fail, in the runs
    whose system `when` picks: each such run's step size then underflows as
    its accepted steps close in on `t_fail`."""
    attempt = solver._attempt_step

    def attempt_step(system, t, y, dt, k1, t_new, diag):
        if t_new > t_fail and when(system):
            raise NonFiniteStateError(t_new)
        return attempt(system, t, y, dt, k1, t_new, diag)

    monkeypatch.setattr(solver, "_attempt_step", attempt_step)


def underflow_of(failure):
    """The (t, dt) that a run's step-size underflow `failure` names."""
    found = re.fullmatch(r"step size underflow at t=(\S+) \(dt=(\S+)\)", failure)
    assert found, failure
    return float(found[1]), float(found[2])

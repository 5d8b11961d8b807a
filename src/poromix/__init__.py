"""
poromix: spectral Galerkin simulation of unsteady porous-media flow with
variable mobility, Korteweg stress, and reactive solute transport on a
rectangle, with built-in verification of its energy, positivity, decay,
blow-up, and stability behavior.

`import poromix` loads the solver core only (numpy and the modules below).
The config reader (and PyYAML), the diagnostics, the oracles and pressure
recovery load on first use of one of their names (PEP 562).
"""

import importlib as _importlib

from .domain import (
    Domain,
    DomainError,
    DomainSpec,
    MidpointRule,
    QuadratureGrid,
    ScalarBasis,
    SpecError,
    VelocityBasis,
    build_domain,
    integrand_degree,
    midpoint_degree,
    required_quadrature_points,
)
from .fields import ResolutionMismatchError, ScalarField, VelocityField, grid_to_scalar
from .forcing import ForcingSpec
from .korteweg import KortewegParams, korteweg_full_tensor
from .ledger import EnergyLedger, LedgerRow
from .mobility import MobilityOverflowError, MobilitySpec, lipschitz_check
from .mobility import evaluate as mobility_evaluate
from .solver import (
    GalerkinSystem,
    NonFiniteStateError,
    PhysicalParams,
    SimulationResult,
    SimulationState,
    SolverConfig,
    existence_time_bound,
    rhs_concentration,
    rhs_velocity,
    run,
)

__version__ = "0.1.0"

# Each deferred name and the submodule it comes from; a submodule maps to itself.
_DEFERRED = {
    "ConfigError": "config",
    "RunConfig": "config",
    "apriori_flags": "diagnostics",
    "decay_to_mean_check": "diagnostics",
    "perturbation_stability": "diagnostics",
    "positivity_check": "diagnostics",
    "logistic_blowup_time": "oracles",
    "manufactured_run": "oracles",
    "momentum_gradient_residual": "pressure",
    "recover_pressure": "pressure",
    "config": "config",
    "diagnostics": "diagnostics",
    "oracles": "oracles",
    "pressure": "pressure",
}

# Every public name: the eager ones bound above (submodules included) and the deferred ones.
__all__ = sorted({n for n in globals() if n[0] != "_"} | set(_DEFERRED))


def __getattr__(name):
    try:
        module = _DEFERRED[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = _importlib.import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})

"""
poromix: spectral Galerkin simulation of unsteady porous-media flow with
variable mobility, Korteweg stress, and reactive solute transport on a
rectangle, with built-in verification of its energy, positivity, decay,
blow-up, and stability behavior.
"""

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
from .oracles import logistic_blowup_time, manufactured_run
from .pressure import momentum_gradient_residual, recover_pressure
from .solver import (
    GalerkinSystem,
    NonFiniteStateError,
    PhysicalParams,
    SimulationResult,
    SimulationState,
    SolverConfig,
    StepSizeUnderflowError,
    existence_time_bound,
    rhs_concentration,
    rhs_velocity,
    run,
)
from .diagnostics import (
    apriori_flags,
    decay_to_mean_check,
    perturbation_stability,
    positivity_check,
)
from .config import ConfigError, RunConfig

__version__ = "0.1.0"

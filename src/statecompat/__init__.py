"""Compatibility of density-matrix assignments.

Decide whether a set of density matrices can simultaneously describe one
physical system (their supports must share a state), construct a witness
ensemble and the multi-observer entangled state realizing any compatible
set, and evaluate the classical pairwise conditions (commutation, nonzero
product) for comparison.
"""

from .compat import (
    CompatReport,
    commutes,
    forbidden_subspace,
    full_report,
    product_nonzero,
    support_compatible,
)
from .density import (
    DensityMatrix,
    Ensemble,
    ensemble_containing,
    null_space,
    support,
    validate_density,
)
from .errors import (
    CommonStateMismatchError,
    DimensionMismatchError,
    IncompatibleError,
    InstanceFormatError,
    NotHermitianError,
    NotPositiveError,
    NotSquareError,
    NumericalFailureError,
    StateCompatError,
    StateOutsideSupportError,
    TraceNotOneError,
    VectorOutsideSubspaceError,
    ZeroProjectionError,
)
from .linalg import (
    DEFAULT_TOL,
    EigResult,
    Subspace,
    Tolerances,
    hermitian_eig,
    orthonormal_basis_containing,
    subspace_intersection,
)
from .scenario import (
    BlockState,
    CompositeState,
    ObserverRecovery,
    ScenarioResult,
    build_joint_state,
    joint_zero_outcome_probability,
    observer_conditional_state,
    observer_reduced_density,
    run_scenario,
    scenario_with_shared_state,
)

__version__ = "0.1.0"

__all__ = [
    "BlockState",
    "CompatReport",
    "CompositeState",
    "DEFAULT_TOL",
    "DensityMatrix",
    "EigResult",
    "Ensemble",
    "ObserverRecovery",
    "ScenarioResult",
    "Subspace",
    "Tolerances",
    "build_joint_state",
    "commutes",
    "ensemble_containing",
    "forbidden_subspace",
    "full_report",
    "hermitian_eig",
    "joint_zero_outcome_probability",
    "null_space",
    "observer_conditional_state",
    "observer_reduced_density",
    "orthonormal_basis_containing",
    "product_nonzero",
    "run_scenario",
    "scenario_with_shared_state",
    "subspace_intersection",
    "support",
    "support_compatible",
    "validate_density",
    # errors
    "CommonStateMismatchError",
    "DimensionMismatchError",
    "IncompatibleError",
    "InstanceFormatError",
    "NotHermitianError",
    "NotPositiveError",
    "NotSquareError",
    "NumericalFailureError",
    "StateCompatError",
    "StateOutsideSupportError",
    "TraceNotOneError",
    "VectorOutsideSubspaceError",
    "ZeroProjectionError",
]

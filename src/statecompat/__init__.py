"""Compatibility of density-matrix assignments.

Decide whether a set of density matrices can simultaneously describe one
physical system (their supports must share a state), construct a witness
ensemble and the multi-observer entangled state realizing any compatible
set, and evaluate the classical pairwise conditions (commutation, nonzero
product) for comparison.
"""

from .compat import (
    CompatReport,
    common_state_witness,
    commutes,
    forbidden_subspace,
    full_report,
    product_nonzero,
    support_compatible,
)
from .density import (
    DensityMatrix,
    Ensemble,
    eigen_ensemble,
    ensemble_containing,
    ensemble_to_density,
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
    orthogonal_complement,
    orthonormal_basis_containing,
    partial_trace,
    subspace_intersection,
    subspace_span_union,
    tensor_product_vec,
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
    "common_state_witness",
    "commutes",
    "eigen_ensemble",
    "ensemble_containing",
    "ensemble_to_density",
    "forbidden_subspace",
    "full_report",
    "hermitian_eig",
    "joint_zero_outcome_probability",
    "null_space",
    "observer_conditional_state",
    "observer_reduced_density",
    "orthogonal_complement",
    "orthonormal_basis_containing",
    "partial_trace",
    "product_nonzero",
    "run_scenario",
    "subspace_intersection",
    "subspace_span_union",
    "support",
    "support_compatible",
    "tensor_product_vec",
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

"""Recover a 1-D diffusion history from a weighted time average of its states.

The measured data is kappa*u(x,T) + integral_0^T w(t) u(x,t) dt; under a
positivity condition on the weight this determines the unknown initial state
and with it the whole evolution.  The package provides the spectral solver,
admissibility and stability diagnostics, an independent finite-difference
oracle, and a CLI wrapping the common workflows.
"""

__version__ = "0.1.0"

from .basis import (
    EigenSystem,
    Grid,
    GridFunction,
    GridMismatch,
    NonElliptic,
    OperatorSpec,
    SpectralVector,
    TruncationTooLarge,
    basis_vector,
    build_eigensystem,
    project,
    synthesize,
)
from .forward import (
    OnsetInvalid,
    SolutionField,
    SourceTerm,
    TimeOutOfRange,
    average_from_initial,
    average_from_source,
    solve_forward,
    weighted_average,
)
from .inverse import (
    BoundaryViolation,
    InverseReport,
    norm_h2,
    recover_initial,
    solve_inverse,
)
from .oracle import (
    BreakpointUnresolved,
    SingularStep,
    StepperConfig,
    step_evolution,
    time_average,
)
from .weights import (
    BoundViolated,
    IllPosedWeight,
    MultiplierOverflow,
    StabilityConstants,
    WeightReport,
    WeightSpec,
    stability_constants,
)

__all__ = [
    "BoundViolated",
    "BoundaryViolation",
    "BreakpointUnresolved",
    "EigenSystem",
    "Grid",
    "GridFunction",
    "GridMismatch",
    "IllPosedWeight",
    "InverseReport",
    "MultiplierOverflow",
    "NonElliptic",
    "OnsetInvalid",
    "OperatorSpec",
    "SingularStep",
    "SolutionField",
    "SourceTerm",
    "SpectralVector",
    "StabilityConstants",
    "StepperConfig",
    "TimeOutOfRange",
    "TruncationTooLarge",
    "WeightReport",
    "WeightSpec",
    "average_from_initial",
    "average_from_source",
    "basis_vector",
    "build_eigensystem",
    "norm_h2",
    "project",
    "recover_initial",
    "solve_forward",
    "solve_inverse",
    "stability_constants",
    "step_evolution",
    "synthesize",
    "time_average",
    "weighted_average",
]

"""First-order solver library and benchmark harness for smooth nonconvex
optimization under smooth nonconvex inequality constraints."""

from .baselines import AlmConfig, PenaltyConfig, solve_alm, solve_penalty
from .metrics import (
    InsufficientDataError,
    IterationRecord,
    KktResidual,
    RateFit,
    fit_rate,
    kkt_residual,
    weighted_average,
)
from .problem import (
    ConstrainedProblem,
    GradientCheckReport,
    ProblemConstants,
    UnsupportedProjectionError,
    check_gradients,
    effective_constants,
    estimate_sigma,
    seeded_check_points,
)
from .solver import (
    GdpaConfig,
    NumericalFailure,
    SolveResult,
    ValidationReport,
    active_set,
    dual_step,
    primal_step,
    schedule,
    solve,
    validate_alpha,
    validate_tau,
)
from .vec import (
    DimensionMismatchError,
    NonFiniteError,
    ProjectionSpec,
    positive_part,
    project,
)

__version__ = "0.1.0"

"""Adaptive-precision mesh adaptive direct search.

Minimises deterministic objectives observable only through centred
Gaussian noise whose standard deviation the solver chooses per call, at a
cost of 1/sigma**2 equivalent Monte-Carlo draws. Ships a monotone and a
dynamic precision-control variant, analytical benchmark problems, and a
draw-budget profiling harness.
"""

from .blackbox import (
    DrawLedger,
    NoisyBlackbox,
    Observation,
    Point,
    as_point,
    draws_for_sigma,
    vme_draws_for_sigma,
)
from .estimation import EvaluationCache, combined_sigma, sigma_to_reach
from .exceptions import (
    ApmadsError,
    ConfigError,
    DegenerateNormalizationError,
    InfeasibleStartError,
    InvalidInputError,
    InvalidSigmaError,
    NoIncumbentError,
    UndefinedComparisonError,
    UnknownProblemError,
)
from .mesh import (
    IterationStatus,
    PollSet,
    generate_poll,
    mesh_size,
    on_mesh,
    update_frame,
)
from .normal import p_value, phi, phi_inv
from .precision import PrecisionPolicy, RhoParams, check_condition, rho, update_r
from .problems import ProblemDef, available_problems, problem_registry
from .profiles import (
    RunResult,
    accuracy,
    accuracy_curve,
    budget_to_solve,
    data_profile,
    make_run_result,
    performance_profile,
    validate_records,
)
from .solver import (
    IterationRecord,
    RunOutput,
    SolverConfig,
    log_to_csv,
    parse_log,
    poll_step,
    read_log,
    run,
    run_fixed_precision_baseline,
    search_step,
    write_log,
)

__version__ = "0.1.0"

__all__ = [
    "ApmadsError",
    "ConfigError",
    "DegenerateNormalizationError",
    "DrawLedger",
    "EvaluationCache",
    "InfeasibleStartError",
    "InvalidInputError",
    "InvalidSigmaError",
    "IterationRecord",
    "IterationStatus",
    "NoIncumbentError",
    "NoisyBlackbox",
    "Observation",
    "Point",
    "PollSet",
    "PrecisionPolicy",
    "ProblemDef",
    "RhoParams",
    "RunOutput",
    "RunResult",
    "SolverConfig",
    "UndefinedComparisonError",
    "UnknownProblemError",
    "accuracy",
    "accuracy_curve",
    "as_point",
    "available_problems",
    "budget_to_solve",
    "check_condition",
    "combined_sigma",
    "data_profile",
    "draws_for_sigma",
    "generate_poll",
    "log_to_csv",
    "make_run_result",
    "mesh_size",
    "on_mesh",
    "p_value",
    "parse_log",
    "performance_profile",
    "phi",
    "phi_inv",
    "poll_step",
    "problem_registry",
    "read_log",
    "rho",
    "run",
    "run_fixed_precision_baseline",
    "search_step",
    "sigma_to_reach",
    "update_frame",
    "update_r",
    "validate_records",
    "vme_draws_for_sigma",
    "write_log",
]

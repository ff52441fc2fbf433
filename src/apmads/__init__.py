"""Adaptive-precision mesh adaptive direct search.

Minimises deterministic objectives observable only through centred
Gaussian noise whose standard deviation the solver chooses per call, at a
cost of 1/sigma**2 equivalent Monte-Carlo draws. Ships a monotone and a
dynamic precision-control variant, analytical benchmark problems, and a
draw-budget profiling harness.

The package exports the documented workflow: solve, log, profile. The
building blocks (blackbox, estimation, mesh, normal, precision) are
importable from their modules.
"""

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
    read_log,
    run,
    write_log,
)

__version__ = "0.1.0"

__all__ = [
    "ApmadsError",
    "ConfigError",
    "DegenerateNormalizationError",
    "InfeasibleStartError",
    "InvalidInputError",
    "InvalidSigmaError",
    "IterationRecord",
    "NoIncumbentError",
    "ProblemDef",
    "RunOutput",
    "RunResult",
    "SolverConfig",
    "UndefinedComparisonError",
    "UnknownProblemError",
    "accuracy",
    "accuracy_curve",
    "available_problems",
    "budget_to_solve",
    "data_profile",
    "log_to_csv",
    "make_run_result",
    "parse_log",
    "performance_profile",
    "problem_registry",
    "read_log",
    "run",
    "validate_records",
    "write_log",
]

"""The package exports the documented workflow; internals stay in their modules."""

import importlib

import pytest

import apmads

DOCUMENTED = [
    # solve
    "run",
    "run_fixed_precision_baseline",
    "SolverConfig",
    "RhoParams",
    # problems
    "ProblemDef",
    "problem_registry",
    "available_problems",
    # run logs
    "IterationRecord",
    "RunOutput",
    "write_log",
    "read_log",
    "log_to_csv",
    "parse_log",
    # profiles
    "RunResult",
    "make_run_result",
    "accuracy",
    "accuracy_curve",
    "budget_to_solve",
    "performance_profile",
    "data_profile",
    "validate_records",
    # exceptions
    "ApmadsError",
    "ConfigError",
    "DegenerateNormalizationError",
    "InfeasibleStartError",
    "InvalidInputError",
    "InvalidSigmaError",
    "NoIncumbentError",
    "UndefinedComparisonError",
    "UnknownProblemError",
]


def test_all_is_the_documented_workflow():
    assert len(DOCUMENTED) == 30
    assert len(set(apmads.__all__)) == len(apmads.__all__)
    assert sorted(apmads.__all__) == sorted(DOCUMENTED)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from apmads import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(DOCUMENTED)


@pytest.mark.parametrize(
    "module, name",
    [
        ("apmads.blackbox", "NoisyBlackbox"),
        ("apmads.estimation", "EvaluationCache"),
        ("apmads.solver", "search_step"),
        ("apmads.precision", "update_r"),
        ("apmads.mesh", "generate_poll"),
    ],
)
def test_internals_resolve_from_their_modules(module, name):
    assert hasattr(importlib.import_module(module), name)

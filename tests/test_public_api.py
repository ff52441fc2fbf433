"""The package exports the documented workflow; internals stay in their modules."""

import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import apmads
from apmads import cli, profiles, solver
from apmads.blackbox import NoisyBlackbox
from apmads.estimation import EvaluationCache

ROOT = Path(__file__).resolve().parent.parent

DOCUMENTED = [
    # solve
    "run",
    "run_fixed_precision_baseline",
    "SolverConfig",
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
    assert len(DOCUMENTED) == 29
    assert len(set(apmads.__all__)) == len(apmads.__all__)
    assert sorted(apmads.__all__) == sorted(DOCUMENTED)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from apmads import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(DOCUMENTED)


def readme_building_blocks() -> list[tuple[str, str]]:
    """(module, name) for each backticked name in README's building-blocks paragraph."""
    readme = (ROOT / "README.md").read_text()
    paragraph = readme[readme.index("The building blocks live"):].split("\n\n", 1)[0]
    return [
        (module, name)
        for module, names in re.findall(r"`(apmads\.\w+)`\s*\(([^)]*)\)", paragraph)
        for name in re.findall(r"`(\w+)`", names)
    ]


def test_readme_lists_the_building_blocks():
    blocks = readme_building_blocks()
    for pair in [
        ("apmads.blackbox", "NoisyBlackbox"),
        ("apmads.estimation", "EvaluationCache"),
        ("apmads.solver", "search_step"),
        ("apmads.precision", "update_r"),
        ("apmads.mesh", "generate_poll"),
    ]:
        assert pair in blocks


@pytest.mark.parametrize("module, name", readme_building_blocks())
def test_internals_resolve_from_their_modules(module, name):
    assert hasattr(importlib.import_module(module), name)


def test_runtime_imports_no_scipy():
    # README: the runtime needs numpy only; scipy serves the test oracles
    code = (
        "import sys, apmads, apmads.cli; "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"



def test_the_benchmark_trace_wraps_names_that_exist_and_restores_them():
    # perfbench/tracing.py patches functions by name: entering patched()
    # fails on a name that is gone, and leaving it must put every one back
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    owners = [cli, profiles, solver, NoisyBlackbox, EvaluationCache]
    before = [dict(vars(owner)) for owner in owners]
    with tracing.patched(tracing.Tracer()):
        during = [dict(vars(owner)) for owner in owners]
    wrapped = {
        (owner.__name__, name)
        for owner, old, new in zip(owners, before, during)
        for name in old
        if new[name] is not old[name]
    }
    # the profile-logs workload's layers: cmd_profile calls each of them
    profile_layers = [
        ("apmads.cli", "cmd_profile"), ("apmads.cli", "read_log"),
        ("apmads.cli", "make_run_result"), ("apmads.cli", "problem_registry"),
        ("apmads.cli", "performance_profile_csv"), ("apmads.cli", "data_profile_csv"),
        ("apmads.profiles", "performance_profile"), ("apmads.profiles", "data_profile"),
        ("apmads.profiles", "budget_to_solve"),
    ]
    assert wrapped >= set(profile_layers)
    assert [dict(vars(owner)) for owner in owners] == before

"""The benchmark's workloads: their inputs, their ops and the output checks.

Every workload is a closed loop with one client: an op starts only after
the previous one has ended. Inputs derive from the workload seed alone.

* ``norm2-n20``: one op is one dpmads or mpmads solve of norm2 in
  N20_DIM dimensions from N20_START, built here from the public
  ``ProblemDef``, plus its written run log; the cache grows to tens of
  thousands of points. The mpmads ops skip the search step.
* ``profile-logs``: one op is one ``apmads profile --tau 1e-2 1e-3`` pass
  over the run logs of the paper's experiment ({norm2, moustache} x
  {dpmads, mpmads, fixed} x SEEDS_PER_CELL solver seeds, the unit
  ``apmads bench`` runs), which set-up generates.

The paper's experiment is not timed op by op: on a shared two-core host a
third workload would leave too little time per run for steady figures.
It runs in profile-logs' set-up (``setup_s``) and, at fixed solver
seeds, in the draw-efficiency reference suite.

Ops call into apmads through module attributes (``solver.run``,
``cli.main``), so the tracer can substitute its wrappers; the checks and
fingerprints bind the original functions at import time and are never
traced.
"""

import contextlib
import hashlib
import io
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

from apmads import cli, solver
from apmads.problems import ProblemDef, norm2_feasible, norm2_truth, problem_registry
from apmads.profiles import budget_to_solve, make_run_result, validate_records
from apmads.solver import SolverConfig, log_to_csv, parse_log

# Named choices; later changes cite them by these names.
SIGMA_FIXED = 1e-3  # noise level of the fixed-precision baseline
TAU_SOLVE = 1e-3  # an instance is solved at accuracy 1 - TAU_SOLVE
FINGERPRINT_TAUS = (1e-2, 1e-3)
PROFILE_TAUS = ("1e-2", "1e-3")  # the --tau arguments of profile-logs
PAPER_PROBLEMS = ("norm2", "moustache")
ALGOS = ("dpmads", "mpmads", "fixed")
VARIANT = {"dpmads": "dp", "mpmads": "mp"}
SEEDS_PER_CELL = 10  # solver seeds per (problem, algo) in profile-logs' log set
N20_DIM = 20
# Solver seeds per variant. A dp solve's work (iterations x cache size)
# varies by about 10% across solver seeds, so ops_per_s averages over three.
N20_SEEDS = 3
N20_START = tuple(math.pi**2 if i % 2 == 0 else math.e**2 for i in range(N20_DIM))
# Draw efficiency is measured on a fixed suite, not on seed-derived solves:
# one instance's budget_to_solve spreads over a factor of e or more across
# solver seeds, so a seed-derived geometric mean would move more than any
# regression bound.
REFERENCE_SEEDS = tuple(range(10))


def solver_seeds(workload_seed: int, count: int) -> list[int]:
    """Distinct solver seeds for each workload seed, for count < 1000."""
    return [1000 * workload_seed + i for i in range(count)]


def norm2_n20() -> ProblemDef:
    return ProblemDef(
        name="norm2-n20",
        dimension=N20_DIM,
        start=N20_START,
        truth=norm2_truth,
        feasible=norm2_feasible,
        best_truth=0.0,
        stop_delta_p=problem_registry("norm2").stop_delta_p,
    )


@dataclass(frozen=True)
class Instance:
    """One solve: a problem, an algorithm (CLI name) and a solver seed."""

    problem: ProblemDef
    algo: str
    seed: int

    @property
    def key(self) -> str:
        # the CLI's log naming, which profile-logs parses back
        return f"{self.problem.name}__{self.algo}__s{self.seed}"


def paper_instances(seeds) -> list[Instance]:
    return [
        Instance(problem_registry(name), algo, seed)
        for name in PAPER_PROBLEMS
        for algo in ALGOS
        for seed in seeds
    ]


def solve(problem: ProblemDef, algo: str, seed: int):
    if algo == "fixed":
        return solver.run_fixed_precision_baseline(
            problem, SIGMA_FIXED, SolverConfig(seed=seed)
        )
    return solver.run(problem, SolverConfig(variant=VARIANT[algo], seed=seed))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _instance_fingerprint(inst: Instance, records, cache_points, draws, log_sha):
    result = make_run_result(inst.problem, inst.algo, inst.seed, records)
    fp = {"iterations": len(records), "cache_points": cache_points, "draws": draws}
    for tau in FINGERPRINT_TAUS:
        fp[f"budget_to_solve@{tau:g}"] = budget_to_solve(result, tau)
    fp["log_sha256"] = log_sha
    return fp


def _record_failures(inst: Instance, records) -> list[str]:
    return [
        f"{inst.key}: {name} failed {detail}".rstrip()
        for name, ok, detail in validate_records(records, inst.problem, VARIANT.get(inst.algo))
        if not ok
    ]


class SolverWorkload:
    """Ops that each solve one instance and write its run log."""

    def __init__(self, name: str, instances):
        self.name = name
        self._instances = instances
        self.input_fingerprints = {}
        self.input_failures = []

    def setup(self, seed: int, workdir: Path) -> None:
        """What a fresh process pays before its first op: the instance list."""
        self._instances(seed)

    def load(self, seed: int, workdir: Path) -> list[Instance]:
        return self._instances(seed)

    def input_digest(self, workdir: Path) -> str:
        return ""

    def key(self, inst: Instance) -> str:
        return inst.key

    def op(self, inst: Instance, workdir: Path, wrap_problem=None):
        problem = wrap_problem(inst.problem) if wrap_problem else inst.problem
        out = solve(problem, inst.algo, inst.seed)
        solver.write_log(out.records, workdir / f"{inst.key}.csv", dimension=problem.dimension)
        return out

    def memory_items(self, instances: list[Instance]) -> list[Instance]:
        """The first solver seed of each (problem, algo) cell: tracemalloc
        slows a solve about fourfold, too much to trace every op."""
        first = {}
        for inst in instances:
            first.setdefault((inst.problem.name, inst.algo), inst)
        return list(first.values())

    def iterations(self, inst: Instance, out) -> int:
        return len(out.records)

    def fingerprint(self, inst: Instance, out, workdir: Path) -> dict:
        return _instance_fingerprint(
            inst, out.records, len(out.cache), out.ledger.total_draws,
            _sha256(workdir / f"{inst.key}.csv"),
        )

    def check(self, inst: Instance, out, workdir: Path) -> list[str]:
        failures = _record_failures(inst, out.records)
        text = log_to_csv(out.records, inst.problem.dimension)
        if parse_log(text) != out.records:
            failures.append(f"{inst.key}: parse_log(log_to_csv(records)) != records")
        if (workdir / f"{inst.key}.csv").read_text() != text:
            failures.append(f"{inst.key}: written log differs from log_to_csv(records)")
        if not out.records or out.ledger.total_draws != out.records[-1].draws:
            failures.append(f"{inst.key}: ledger total_draws != last record's draws")
        return failures

    def layer_counts(self, inst: Instance, out) -> dict:
        rs = [rec.r for rec in out.records]
        steps = [b - a for a, b in zip(rs, rs[1:])]
        return {
            "blackbox.ledger_entries": len(getattr(out.ledger, "per_eval_log", ())),
            "estimation.cache_points": len(out.cache),
            "solver.iterations": len(out.records),
            "precision.r_up": sum(1 for d in steps if d > 0),
            "precision.r_down": sum(1 for d in steps if d < 0),
        }


@dataclass(frozen=True)
class LogSet:
    """The input of one profile-logs op: run logs and their total row count."""

    paths: tuple[str, ...]
    rows: int


class ProfileWorkload:
    """Ops that each run ``apmads profile`` over a set of run logs."""

    name = "profile-logs"

    def __init__(self):
        self.input_fingerprints = {}
        self.input_failures = []

    def setup(self, seed: int, workdir: Path) -> None:
        """Generate the run logs, as ``apmads bench`` would."""
        logs = workdir / "logs"
        logs.mkdir(parents=True, exist_ok=True)
        for inst in paper_instances(solver_seeds(seed, SEEDS_PER_CELL)):
            out = solve(inst.problem, inst.algo, inst.seed)
            solver.write_log(out.records, logs / f"{inst.key}.csv", dimension=inst.problem.dimension)

    def load(self, seed: int, workdir: Path) -> list[LogSet]:
        """Read back and check the generated logs; fingerprint each instance."""
        paths, rows = [], 0
        self.input_fingerprints = {}
        self.input_failures = []
        for inst in paper_instances(solver_seeds(seed, SEEDS_PER_CELL)):
            path = workdir / "logs" / f"{inst.key}.csv"
            text = path.read_text()
            records = parse_log(text)
            failures = _record_failures(inst, records)
            if log_to_csv(records, inst.problem.dimension) != text:
                failures.append(f"{inst.key}: log does not round-trip")
            self.input_failures += failures
            self.input_fingerprints[inst.key] = _instance_fingerprint(
                inst, records, records[-1].cache_size, records[-1].draws, _sha256(path)
            )
            paths.append(str(path))
            rows += len(records)
        return [LogSet(tuple(paths), rows)]

    def input_digest(self, workdir: Path) -> str:
        digest = hashlib.sha256()
        for path in sorted((workdir / "logs").iterdir()):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        return digest.hexdigest()

    def key(self, logs: LogSet) -> str:
        return "profile"

    def _expected(self, logs: LogSet) -> list[str]:
        names = ["acc.csv"]
        for tau in PROFILE_TAUS:
            names += [f"perf_tau{float(tau):g}.csv", f"data_tau{float(tau):g}.csv"]
        for path in logs.paths:
            names.append(f"conv__{Path(path).name}")
        return names

    def op(self, logs: LogSet, workdir: Path, wrap_problem=None):
        out_dir = workdir / "profile"
        shutil.rmtree(out_dir, ignore_errors=True)  # so each op must write every file
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(
                ["profile", *logs.paths, "--tau", *PROFILE_TAUS, "--out-dir", str(out_dir)]
            )
        if code != 0:
            raise RuntimeError(f"apmads profile exited with {code}")
        return out_dir

    def memory_items(self, items: list[LogSet]) -> list[LogSet]:
        return items

    def iterations(self, logs: LogSet, out_dir: Path) -> int:
        return logs.rows

    def fingerprint(self, logs: LogSet, out_dir: Path, workdir: Path) -> dict:
        digest = hashlib.sha256()
        for name in self._expected(logs):
            path = out_dir / name
            digest.update(name.encode() + b"\0" + (path.read_bytes() if path.exists() else b""))
        return {"outputs_sha256": digest.hexdigest()}

    def check(self, logs: LogSet, out_dir: Path, workdir: Path) -> list[str]:
        failures = []
        for name in self._expected(logs):
            path = out_dir / name
            if not path.is_file() or path.stat().st_size == 0:
                failures.append(f"profile: {name} not written")
            elif name.startswith(("perf_", "data_")):
                failures += _fraction_failures(name, path.read_text())
        return failures

    def layer_counts(self, logs: LogSet, out_dir: Path) -> dict:
        return {}


def _fraction_failures(name: str, text: str) -> list[str]:
    """Per-algorithm fractions must lie in [0, 1] and never decrease."""
    last = {}
    failures = []
    for line in text.splitlines()[1:]:
        _, algo, raw = line.split(",")
        fraction = float(raw)
        if not 0.0 <= fraction <= 1.0 or fraction < last.get(algo, 0.0):
            failures.append(f"profile: {name}: bad fraction {raw} for {algo}")
        last[algo] = fraction
    if not last:
        failures.append(f"profile: {name} has no rows")
    return failures


WORKLOADS = {
    w.name: w
    for w in (
        SolverWorkload(
            "norm2-n20",
            lambda seed: [
                Instance(norm2_n20(), algo, s)
                for s in solver_seeds(seed, N20_SEEDS)
                for algo in ("dpmads", "mpmads")
            ],
        ),
        ProfileWorkload(),
    )
}

# The draw-efficiency suite behind draws_to_solve_gm.* and solved_frac.*
REFERENCE = SolverWorkload("reference", lambda seed: paper_instances(REFERENCE_SEEDS))

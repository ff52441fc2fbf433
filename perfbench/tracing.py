"""Spans around the calls into each apmads module, recorded from outside.

``patched(tracer)`` replaces public functions in the namespaces that call
them (``apmads.solver.generate_poll``, ``NoisyBlackbox.observe``, ...) by
wrappers that record one span per call: name, start, end, parent span and
op id. Spans live in compact arrays in memory and are written out once,
at the end. A span's self time is its duration minus the time its child
spans cover. Calls made outside an op (the benchmark's own checks) are
passed through unrecorded.
"""

import dataclasses
import functools
import os
import re
import statistics
import subprocess
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from apmads import cli, profiles, solver
from apmads.blackbox import NoisyBlackbox
from apmads.estimation import EvaluationCache

OP = "op"
_CSV_RENDERERS = ("accuracy_csv", "convergence_csv", "data_profile_csv", "performance_profile_csv")


class Tracer:
    """Span arrays (name, parent, op, start, end) plus per-layer counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._op = -1
        self._problems = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self._stack.append(i)
        self.end.append(0.0)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    @contextmanager
    def op_span(self, op_id: int):
        self._op = op_id
        i = self._open(self._id(OP))
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, name: str, fn, before=None, after=None):
        nid = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            if before is not None:
                before(*args, **kwargs)
            i = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return traced

    def wrap_problem(self, problem):
        """The problem with its truth and feasibility callables traced."""
        if problem.name not in self._problems:
            self._problems[problem.name] = dataclasses.replace(
                problem,
                truth=self.wrap("problems.truth", problem.truth),
                feasible=self.wrap("problems.feasible", problem.feasible),
            )
        return self._problems[problem.name]

    def arrays(self):
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        name_id = np.frombuffer(self.name_id, dtype=np.uint16)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        op = np.frombuffer(self.op, dtype=np.int64)
        return name_id, parent, op, start, end

    def self_times(self) -> np.ndarray:
        _, parent, _, start, end = self.arrays()
        dur = end - start
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        return dur - covered

    def save(self, path) -> None:
        name_id, parent, op, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=name_id, parent=parent,
                 op=op, start=start, end=end)


@contextmanager
def patched(tracer: Tracer):
    """Route the public functions of every layer through ``tracer``."""

    def on_observe(obs, *args, **kwargs):
        tracer.count("observe.feasible", int(obs.feasible))

    def before_record(cache, x, obs):
        tracer.count("record.revisit", int(x in cache))

    def before_search(cache, *args, **kwargs):
        tracer.count("search_step.scanned", len(cache))

    def after_write(result, records, path, *args, **kwargs):
        tracer.count("write_log.bytes", os.path.getsize(path))

    registry = cli.problem_registry
    targets = [
        (solver, "generate_poll", "mesh.generate_poll", None, None),
        (NoisyBlackbox, "observe", "blackbox.observe", None, on_observe),
        (EvaluationCache, "record", "estimation.record", before_record, None),
        (EvaluationCache, "estimate", "estimation.estimate", None, None),
        (EvaluationCache, "incumbent", "estimation.incumbent", None, None),
        (solver, "search_step", "solver.search_step", before_search, None),
        (solver, "poll_step", "solver.poll_step", None, None),
        (solver, "run", "solver.run", None, None),
        (solver, "run_fixed_precision_baseline", "solver.run", None, None),
        (solver, "write_log", "solver.write_log", None, after_write),
        (cli, "read_log", "solver.read_log", None, None),
        (solver, "p_value", "normal.p_value", None, None),
        (solver, "phi_inv", "normal.phi_inv", None, None),
        (solver, "rho", "precision.rho", None, None),
        (solver, "update_r", "precision.update_r", None, None),
        (cli, "make_run_result", "profiles.make_run_result", None, None),
        (profiles, "budget_to_solve", "profiles.budget_to_solve", None, None),
        (profiles, "performance_profile", "profiles.performance_profile", None, None),
        (profiles, "data_profile", "profiles.data_profile", None, None),
        (cli, "cmd_profile", "cli.cmd_profile", None, None),
    ] + [(cli, name, "profiles.csv_render", None, None) for name in _CSV_RENDERERS]
    saved = []
    try:
        for owner, attr, name, before, after in targets:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, before, after))
        saved.append((cli, "problem_registry", registry))
        cli.problem_registry = lambda name: tracer.wrap_problem(registry(name))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def op_self_time_violations(tracer: Tracer, tolerance: float = 1e-9) -> list[str]:
    """Ops whose spans' self times add up to more than the op's wall time."""
    name_id, _, op, start, end = tracer.arrays()
    self_t = tracer.self_times()
    root = name_id == tracer.names.index(OP)
    wall = dict(zip(op[root].tolist(), (end - start)[root].tolist()))
    inner = ~root
    sums = np.bincount(op[inner], weights=self_t[inner], minlength=max(wall, default=0) + 1)
    problems = [
        f"op {i}: self times {sums[i]:.6f} s exceed wall {w:.6f} s"
        for i, w in wall.items()
        if sums[i] > w + tolerance
    ]
    if self_t.size and self_t.min() < -tolerance:
        problems.append(f"a span has negative self time {self_t.min():.3g} s")
    return problems


def span_metrics(tracer: Tracer) -> dict[str, float]:
    """calls, self_s and the derived ratios for every traced layer."""
    name_id, parent, _, _, _ = tracer.arrays()
    self_t = tracer.self_times()
    n = len(tracer.names)
    calls = np.bincount(name_id, minlength=n)
    busy = np.bincount(name_id, weights=self_t, minlength=n)
    metrics = {}
    for i, name in enumerate(tracer.names):
        metrics[f"{name}.calls"] = int(calls[i])
        metrics[f"{name}.self_s"] = float(busy[i])

    def calls_of(name):
        return metrics.get(f"{name}.calls", 0)

    observe = tracer._ids.get("blackbox.observe")
    search = tracer._ids.get("solver.search_step")
    selected = 0
    if observe is not None and search is not None:
        under = parent[name_id == observe]
        under = under[under >= 0]
        selected = int(np.count_nonzero(name_id[under] == search))
    scanned = tracer.counts.get("search_step.scanned", 0)
    metrics.update({
        "blackbox.observe.feasible_frac": _ratio(tracer.counts.get("observe.feasible", 0), calls_of("blackbox.observe")),
        "estimation.revisit_frac": _ratio(tracer.counts.get("record.revisit", 0), calls_of("estimation.record")),
        "solver.search_step.scanned": scanned,
        "solver.search_step.selected": selected,
        "solver.search_step.select_frac": _ratio(selected, scanned),
        "solver.write_log.bytes": tracer.counts.get("write_log.bytes", 0),
    })
    return metrics


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+\d+ \|( *)(\S+)")
_IMPORT_GROUPS = {"scipy": "import.scipy_special_s", "numpy": "import.numpy_s", "apmads": "import.apmads_own_s"}
_THIRD_PARTY = (_IMPORT_GROUPS["scipy"], _IMPORT_GROUPS["numpy"])


def import_times(repeats: int) -> dict[str, float]:
    """Import cost of scipy, numpy and apmads itself in fresh interpreters.

    Parses ``python -X importtime``. A module's self time counts toward
    the outermost numpy or scipy import enclosing it (itself included),
    else toward apmads when apmads imported it: numpy modules that scipy
    pulls in count as scipy, which is what dropping scipy would save.
    Median over ``repeats`` interpreters.
    """
    samples = {key: [] for key in _IMPORT_GROUPS.values()}
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import apmads"],
            capture_output=True, text=True, check=True, timeout=120,
        )
        totals = dict.fromkeys(samples, 0.0)
        stack = []  # (depth, group) of the enclosing imports
        lines = [m for m in map(_IMPORT_LINE.match, proc.stderr.splitlines()) if m]
        for m in reversed(lines):  # importtime prints children before parents
            depth = len(m.group(2))
            while stack and stack[-1][0] >= depth:
                stack.pop()
            outer = stack[-1][1] if stack else None
            own = _IMPORT_GROUPS.get(m.group(3).split(".")[0])
            group = outer if outer in _THIRD_PARTY or own is None else own
            stack.append((depth, group))
            if group is not None:
                totals[group] += int(m.group(1)) * 1e-6
        for key, value in totals.items():
            samples[key].append(value)
    return {key: statistics.median(values) for key, values in samples.items()}

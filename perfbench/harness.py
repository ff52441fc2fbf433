"""Orchestration of one benchmark invocation; see ``run.py`` for usage.

Untraced run (``--trace 0``), per workload:

1. set-up at least SETUP_MIN_REPEATS times in fresh interpreters (``setup_child.py``);
   ``setup_s`` is the median wall time, and every repeat must produce
   identical inputs;
2. the workload's ops round-robin until ``--seconds`` have elapsed and
   each op has run twice; the throughputs take each op at its mean
   latency (see ``throughput``);
3. one pass under tracemalloc for ``peak_mem_mb``;
4. the draw-efficiency reference suite (``workloads.REFERENCE``).

Traced run (``--trace 1``): import times from ``python -X importtime``,
untraced passes for half of ``--seconds``, then exactly one traced pass,
so that every count is a property of the code and the seed alone.

Every op's output is checked the first time its instance runs; later runs
of the same instance, traced or under tracemalloc included, must
reproduce its fingerprint exactly. Either failure marks only that op as
failed.
"""

import argparse
import gc
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import traceback
import tracemalloc
from pathlib import Path
from time import perf_counter

import apmads
import numpy

import env
import metrics
import tracing
import workloads

SETUP_MIN_REPEATS = 3  # set-ups per run: at least this many, and
SETUP_MIN_SECONDS = 3.0  # until this much time has gone into them
TAIL_ABOVE = 10  # samples a tail percentile must leave above it
HERE = Path(__file__).resolve().parent


class Runner:
    """Runs the ops of one workload and checks every output."""

    def __init__(self, workload, workdir: Path):
        self.workload = workload
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.fingerprints: dict[str, dict] = {}
        self.layer_counts: dict[str, int] = {}
        self._bad: set[str] = set()
        self.timed_latencies: dict[str, list] = {}  # op key -> latency (s) of each timed run

    def run(self, item, tracer=None, memory=False):
        """One op. Returns (latency_s, iterations, peak_bytes), or None if it failed."""
        wl = self.workload
        self.attempted += 1
        gc.collect()  # so no op pays for the garbage of the one before
        try:
            if memory:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            if tracer is None:
                t0 = perf_counter()
                result = wl.op(item, self.workdir)
                latency = perf_counter() - t0
            else:
                with tracer.op_span(self.attempted):
                    t0 = perf_counter()
                    result = wl.op(item, self.workdir, tracer.wrap_problem)
                    latency = perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1] - base if memory else 0
            failures = self._verify(item, result)
        except Exception:
            failures = [f"{wl.key(item)}: op raised\n{traceback.format_exc()}"]
        if failures:
            self.failed += 1
            self.failures += failures
            return None
        if tracer is not None:
            for key, value in wl.layer_counts(item, result).items():
                self.layer_counts[key] = self.layer_counts.get(key, 0) + value
        return latency, wl.iterations(item, result), peak

    def _verify(self, item, result) -> list[str]:
        key = self.workload.key(item)
        fingerprint = self.workload.fingerprint(item, result, self.workdir)
        if key not in self.fingerprints:
            self.fingerprints[key] = fingerprint
            failures = self.workload.check(item, result, self.workdir)
            if failures:
                self._bad.add(key)
            return failures
        if key in self._bad:
            return [f"{key}: output failed its checks on its first run"]
        if fingerprint != self.fingerprints[key]:
            return [f"{key}: fingerprint {fingerprint} differs from {self.fingerprints[key]}"]
        return []

    def one_pass(self, items, **kwargs) -> list[tuple | None]:
        """Runs each item once; None in place of each failed op."""
        return [self.run(item, **kwargs) for item in items]

    def timed_runs(self, items, seconds: float, min_runs: int) -> list[list]:
        """Runs the items round-robin until ``seconds`` have elapsed and each
        item has run ``min_runs`` times; each item's results, None for a
        failed run. The last round may stop part-way."""
        runs = [[] for _ in items]
        deadline = perf_counter() + seconds
        i = 0
        while len(runs[-1]) < min_runs or perf_counter() < deadline:
            runs[i].append(self.run(items[i]))
            i = (i + 1) % len(items)
        for item, op_runs in zip(items, runs):
            self.timed_latencies[self.workload.key(item)] = [r and r[0] for r in op_runs]
        return runs


def throughput(runs) -> tuple[float, float, float, list[float]]:
    """(ops/s, iterations/s, median op ms) of one round of the ops, and all latencies.

    ``runs`` holds each op's results. The speed of a shared host swings by
    up to twofold within seconds, so the throughputs take each op at its
    mean latency, which averages the host's speed over the whole run; on
    a two-core host this gave a narrower spread between runs than each
    op's median or fastest run. ``op_ms_p50`` is the median over the ops
    of each op's median latency.
    """
    means, medians, iterations = [], [], 0
    for op_runs in runs:
        done = [r[0] for r in op_runs if r is not None]
        if done:
            means.append(statistics.fmean(done))
            medians.append(statistics.median(done))
            iterations += next(r[1] for r in op_runs if r is not None)
    latencies = [r[0] for op_runs in runs for r in op_runs if r is not None]
    busy = sum(means)
    if not busy:
        return math.nan, math.nan, math.nan, latencies
    return len(means) / busy, iterations / busy, statistics.median(medians) * 1e3, latencies


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value) of the sample with exactly TAIL_ABOVE samples above it.

    That is the highest percentile that still has TAIL_ABOVE samples above
    it; with fewer than TAIL_ABOVE + 1 samples it is the minimum.
    """
    xs = sorted(latencies)
    i = max(len(xs) - TAIL_ABOVE - 1, 0)
    return 100.0 * (i + 1) / len(xs), xs[i]


def draw_metrics(reference: Runner) -> dict[str, float]:
    solved_key = f"budget_to_solve@{workloads.TAU_SOLVE:g}"
    result = {}
    for algo, short in (("dpmads", "dp"), ("mpmads", "mp"), ("fixed", "fixed")):
        budgets = [
            fp[solved_key]
            for key, fp in reference.fingerprints.items()
            if key.split("__")[1] == algo
        ]
        solved = [b for b in budgets if math.isfinite(b)]
        if not solved:
            reference.failures.append(f"reference: no {algo} instance solved")
        result[f"draws_to_solve_gm.{short}"] = (
            math.exp(statistics.fmean(math.log(b) for b in solved)) if solved else math.inf
        )
        result[f"solved_frac.{short}"] = len(solved) / len(budgets) if budgets else 0.0
    return result


def measure_end_to_end(workload, seed: int, seconds: float, workdir: Path):
    setup_times, digests = [], []
    while len(setup_times) < SETUP_MIN_REPEATS or sum(setup_times) < SETUP_MIN_SECONDS:
        inputs = workdir / f"setup{len(setup_times)}"
        t0 = perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "setup_child.py"), workload.name, str(seed), str(inputs)],
            check=True, timeout=170,
        )
        setup_times.append(perf_counter() - t0)
        digests.append(workload.input_digest(inputs))
    items = workload.load(seed, inputs)
    runner = Runner(workload, workdir)
    runner.failures += workload.input_failures
    if len(set(digests)) > 1:
        runner.failures.append("set-up repeats produced different inputs")

    # No floor on the op count beyond two runs of each op (the second checks
    # the fingerprint): --seconds bounds the run, so on a slow host
    # norm2-n20 may time fewer than 2 * TAIL_ABOVE ops, and op_ms_tail's
    # printed percentile then lies at or below the median.
    runs = runner.timed_runs(items, seconds, 2)
    ops_per_s, iters_per_s, op_ms_p50, latencies = throughput(runs)

    tracemalloc.start()
    try:
        done = runner.one_pass(workload.memory_items(items), memory=True)
        peaks = [d[2] for d in done if d is not None]
    finally:
        tracemalloc.stop()

    reference_dir = workdir / "reference"
    reference_dir.mkdir()
    reference = Runner(workloads.REFERENCE, reference_dir)
    reference.one_pass(workloads.REFERENCE.load(seed, reference_dir))

    q, tail_s = tail(latencies) if latencies else (50.0, math.nan)
    values = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": ops_per_s,
        "op_ms_p50": op_ms_p50,
        "op_ms_tail": tail_s * 1e3,
        "iters_per_s": iters_per_s,
        "peak_mem_mb": max(peaks, default=math.nan) / 1e6,
        **draw_metrics(reference),
    }
    notes = {
        "op_ms_tail": f"p{q:g} of {len(latencies)} ops",
        "setup_s": f"median of {len(setup_times)} fresh interpreters",
        "ops_per_s": f"mean of {min(map(len, runs))}+ runs of each of {len(items)} ops",
    }
    return values, notes, [runner, reference]


def measure_layers(workload, seed: int, seconds: float, workdir: Path):
    imports = tracing.import_times(SETUP_MIN_REPEATS)
    workload.setup(seed, workdir)
    items = workload.load(seed, workdir)
    runner = Runner(workload, workdir)
    runner.failures += workload.input_failures
    untraced_ops_per_s, *_ = throughput(runner.timed_runs(items, seconds / 2, 1))

    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        traced_ops_per_s, *_ = throughput([[r] for r in runner.one_pass(items, tracer=tracer)])
    runner.failures += tracing.op_self_time_violations(tracer)
    env.OUT.mkdir(exist_ok=True)
    tracer.save(env.OUT / f"spans-{workload.name}.npz")  # one file per workload bounds the disk used

    found = {**imports, **tracing.span_metrics(tracer), **runner.layer_counts}
    found["trace.overhead_x"] = untraced_ops_per_s / traced_ops_per_s
    values = {name: found.get(name, 0) for name, *_ in metrics.PER_LAYER}
    notes = {name: f"-> {target}" for name, _, _, target in metrics.PER_LAYER}
    notes["trace.overhead_x"] = (
        f"untraced {untraced_ops_per_s:.4g} ops/s, traced {traced_ops_per_s:.4g} ops/s "
        f"over one pass of {len(items)} ops"
    )
    return values, notes, [runner]


def provenance(seed: int) -> dict:
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = "absent"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "apmads": apmads.__version__,
        "git_sha": git_sha(),
        "seed": seed,
        "blas_threads": os.environ["OMP_NUM_THREADS"],
    }


def git_sha() -> str:
    """HEAD of the checkout; 'unknown' outside a git work tree."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=env.ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(env.ROOT.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def check_spec() -> None:
    """BENCHMARK.json must name the same workloads and metrics as this code."""
    path = env.ROOT / "BENCHMARK.json"
    if not path.exists():
        return
    spec = json.loads(path.read_text())
    pairs = [
        ("workloads", [w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS)),
        ("end_to_end", [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]],
         [m[:4] for m in metrics.END_TO_END]),
        ("per_layer", [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
         [m[:3] for m in metrics.PER_LAYER]),
    ]
    for section, declared, implemented in pairs:
        if declared != implemented:
            raise SystemExit(f"error: BENCHMARK.json {section} disagrees with perfbench/metrics.py")


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    parser.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _units() -> dict[str, str]:
    return {m[0]: m[1] for m in metrics.END_TO_END + metrics.REPORTED + metrics.PER_LAYER}


def main(argv) -> int:
    args = parse_args(argv)
    env.check_imported(apmads)
    check_spec()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    measure = measure_layers if args.trace else measure_end_to_end
    info = provenance(args.seed)
    print("provenance: " + " ".join(f"{k}={v}" for k, v in info.items()))
    units = _units()
    gated = [m[0] for m in (metrics.PER_LAYER if args.trace else metrics.END_TO_END)]
    results, correct, attempted, failed = {}, True, 0, 0
    env.OUT.mkdir(exist_ok=True)
    for name in names:
        workdir = env.OUT / f"work-{name}-s{args.seed}-{os.getpid()}"
        workdir.mkdir(parents=True)
        try:
            values, notes, runners = measure(workloads.WORKLOADS[name], args.seed, args.seconds, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        w_attempted = sum(r.attempted for r in runners)
        w_failed = sum(r.failed for r in runners)
        failures = [f for r in runners for f in r.failures]
        correct = correct and not failures
        attempted += w_attempted
        failed += w_failed
        if not args.trace:
            values["fail_frac"] = w_failed / max(w_attempted, 1)
            notes["fail_frac"] = f"{w_failed} of {w_attempted} ops"
        results[name] = {m: values[m] for m in gated}

        print(f"== {name}  seed={args.seed}  seconds={args.seconds:g}  trace={args.trace}")
        for metric, value in values.items():
            note = f"  ({notes[metric]})" if metric in notes else ""
            print(f"  {metric:<38} {value:>14.6g} {units[metric]}{note}")
        for failure in failures:
            print(f"  FAILED: {failure}", file=sys.stderr)
        report = {
            "workload": name, "trace": args.trace, "seconds": args.seconds,
            "provenance": info, "metrics": values, "notes": notes,
            "attempted": w_attempted, "failed": w_failed, "failures": failures,
            "fingerprints": {r.workload.name: r.fingerprints for r in runners},
            "input_fingerprints": runners[0].workload.input_fingerprints,
            "timed_latencies_s": runners[0].timed_latencies,
        }
        out = env.OUT / f"result-{name}-s{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(report, indent=1, default=str))

    if len(names) == 1:
        flat = results[names[0]]
    else:
        flat = {f"{w}/{m}": v for w, values in results.items() for m, v in values.items()}
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m.split("/")[-1]]} for m, v in flat.items()},
    }))
    return 0 if correct else 1

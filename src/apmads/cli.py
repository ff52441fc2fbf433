"""Command-line front end.

Subcommands: ``run`` (one solve, writing a run-log CSV), ``bench`` (a
parallel cross product of problems x algorithms x seeds plus a manifest),
``profile`` (accuracy / performance / data profile CSVs and per-run
convergence curves from run logs), and ``validate`` (structural invariant
checks on a log). Exit codes: 0 success, 1 usage error, 2 runtime failure.

Benchmark logs are named ``<problem>__<algo>__s<seed>.csv``; ``profile``
recovers the run metadata from that naming convention.
"""

import argparse
import os
import sys
from dataclasses import fields
from multiprocessing import Pool

from .exceptions import ApmadsError, ConfigError, InvalidSigmaError, UnknownProblemError
from .problems import available_problems, problem_registry
# accuracy_csv and convergence_csv are not called here; they stay importable
# from this module because perfbench/tracing.py wraps them here
from .profiles import (
    REFERENCE_SIGMA,
    accuracy_csv,
    convergence_csv,
    data_profile_csv,
    join_accuracy_rows,
    make_run_result,
    performance_profile_csv,
    reference_draws,
    run_outputs,
    validate_records,
)
from .solver import (
    SolverConfig,
    read_log,
    run,
    run_fixed_precision_baseline,
    write_log,
)

ALGOS = ("dpmads", "mpmads", "fixed")
_ALGO_VARIANT = {"dpmads": "dp", "mpmads": "mp"}

_CONFIG_KEYS = tuple(f.name for f in fields(SolverConfig))


class UsageError(Exception):
    pass


def _parse_value(raw: str):
    low = raw.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        return raw


def load_config_file(path: str) -> dict:
    """Flat ``key = value`` text; '#' starts a comment."""
    values, set_on = {}, {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected 'key = value'")
            key, raw = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG_KEYS:
                raise UsageError(
                    f"{path}:{lineno}: unknown key {key!r}; known keys: "
                    + ", ".join(_CONFIG_KEYS)
                )
            if key in set_on:
                raise UsageError(
                    f"{path}:{lineno}: key {key!r} is set twice (lines {set_on[key]} and {lineno})"
                )
            set_on[key] = lineno
            values[key] = _parse_value(raw)
    return values


def _execute_run(problem_name, algo, seed, budget, stop_delta_p, sigma_fixed, file_values):
    values = dict(file_values or {})
    if algo is None:
        # the config file's variant picks the algorithm; SolverConfig rejects
        # a variant other than dp or mp
        algo = "mpmads" if values.get("variant") == "mp" else "dpmads"
    elif algo != "fixed":
        values["variant"] = _ALGO_VARIANT[algo]
    problem = problem_registry(problem_name)
    if seed is not None:
        values["seed"] = seed
    if budget is not None:
        values["stop_draws"] = budget
    if stop_delta_p is not None:
        values["stop_delta_p"] = stop_delta_p
    config = SolverConfig(**values)
    if algo == "fixed":
        if sigma_fixed is None:
            raise UsageError("--sigma-fixed is required with --algo fixed")
        return problem, run_fixed_precision_baseline(problem, sigma_fixed, config), algo, config
    return problem, run(problem, config), algo, config


def cmd_run(args) -> int:
    file_values = load_config_file(args.config) if args.config else {}
    problem, out, algo, config = _execute_run(
        args.problem, args.algo, args.seed, args.budget, args.stop_delta_p,
        args.sigma_fixed, file_values,
    )
    write_log(out.records, args.out, dimension=problem.dimension)
    print(
        f"{args.problem} {algo} seed={config.seed}: "
        f"{len(out.records)} iterations, {out.ledger.total_draws:.6g} draws, "
        f"stop={out.stop_reason}, "
        f"f_inc={out.cache.estimate(out.incumbent)[0] if out.records else 'n/a'}, "
        f"incumbent={out.incumbent} -> {args.out}"
    )
    return 0


def _bench_task(task) -> tuple:
    """One bench run: its manifest row, with status "ok" or "failed:<ErrorType>".

    A run that raises an ``ApmadsError`` writes no log and leaves its path
    empty; the other runs go on.
    """
    (problem_name, algo, seed, budget, stop_delta_p, sigma_fixed, file_values,
     out_path) = task
    try:
        problem, out, _, _ = _execute_run(
            problem_name, algo, seed, budget, stop_delta_p, sigma_fixed, file_values
        )
    except ApmadsError as exc:
        return problem_name, algo, seed, "", f"failed:{type(exc).__name__}"
    write_log(out.records, out_path, dimension=problem.dimension)
    return problem_name, algo, seed, out_path, "ok"


def bench_workers(requested: int | None, n_tasks: int) -> int:
    """Worker processes for ``n_tasks`` bench runs or profiled logs: never more than the tasks.

    ``None`` means one per core; values <= 0 are a usage error.
    """
    if requested is not None and requested <= 0:
        raise UsageError(f"--workers must be a positive integer, got {requested}")
    workers = requested if requested is not None else os.cpu_count() or 1
    return max(1, min(workers, n_tasks))


def _map_in_workers(task, tasks: list, workers: int) -> list:
    """``[task(t) for t in tasks]``, in ``workers`` processes when that is more than one.

    The results keep the order of ``tasks``, so an error is the first failing task's.
    """
    if workers == 1:
        return [task(t) for t in tasks]
    # chunks as Pool.map sizes them, since one round trip per task can cost
    # about as much as the second worker saves
    chunksize = -(-len(tasks) // (4 * workers))
    with Pool(processes=workers) as pool:
        try:
            return list(pool.imap(task, tasks, chunksize))
        except Exception:
            # let the workers finish the queued tasks first: Pool.terminate
            # can hang for good when it kills a worker sending a result
            pool.close()
            pool.join()
            raise


def _refuse_repeats(runs) -> None:
    """``UsageError`` for a (problem, algo, seed) given twice: its two runs would share a name."""
    seen = set()
    for run_id in runs:
        if run_id in seen:
            raise UsageError("run %s__%s__s%d is given twice" % run_id)
        seen.add(run_id)


def cmd_bench(args) -> int:
    file_values = load_config_file(args.config) if args.config else {}
    for problem_name in args.problems:
        problem_registry(problem_name)  # fail fast on unknown names
    if "fixed" in args.algos and args.sigma_fixed is None:
        raise UsageError("--sigma-fixed is required when benching 'fixed'")
    runs = [(p, a, s) for p in args.problems for a in args.algos for s in args.seeds]
    _refuse_repeats(runs)
    tasks = [
        (*run_id, args.budget, args.stop_delta_p, args.sigma_fixed, file_values,
         os.path.join(args.out_dir, "%s__%s__s%d.csv" % run_id))
        for run_id in runs
    ]
    workers = bench_workers(args.workers, len(tasks))
    os.makedirs(args.out_dir, exist_ok=True)
    rows = _map_in_workers(_bench_task, tasks, workers)
    manifest = os.path.join(args.out_dir, "manifest.csv")
    with open(manifest, "w") as fh:
        fh.write("problem,algo,seed,path,status\n")
        for row in sorted(rows):
            fh.write(",".join(map(str, row)) + "\n")
    print(f"{len(rows)} runs -> {args.out_dir} (manifest: {manifest})")
    failed = sum(status != "ok" for *_, status in rows)
    if failed:
        print(f"error: {failed} of {len(rows)} runs failed (see {manifest})", file=sys.stderr)
        return 1
    return 0


def _parse_log_name(path: str) -> tuple[str, str, int]:
    stem = os.path.splitext(os.path.basename(path))[0]
    parts = stem.split("__")
    if len(parts) != 3 or not parts[2].startswith("s"):
        raise UsageError(
            f"cannot infer (problem, algo, seed) from {path!r}; expected "
            "<problem>__<algo>__s<seed>.csv"
        )
    try:
        seed = int(parts[2][1:])
    except ValueError:
        raise UsageError(f"bad seed in log name {path!r}") from None
    return parts[0], parts[1], seed


def _profile_task(task) -> tuple:
    """One log's share of ``profile``: its ``RunCurve``, acc.csv rows and conv__*.csv text.

    It returns no records, so little crosses back from a worker process.
    """
    path, problem_name, algo, seed = task
    try:
        result = make_run_result(problem_registry(problem_name), algo, seed, read_log(path))
        return run_outputs(result)
    except ApmadsError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def cmd_profile(args) -> int:
    # check every value and name before any log is read or any file is written
    for tau in args.tau:
        if not 0.0 < tau < 1.0:
            raise UsageError(f"--tau must lie in (0, 1), got {tau}")
    try:
        reference_draws(args.sigma_ref)
    except InvalidSigmaError as exc:
        raise UsageError(f"bad --sigma-ref: {exc}") from None
    workers = bench_workers(args.workers, len(args.logs))
    runs = [_parse_log_name(path) for path in args.logs]
    _refuse_repeats(runs)
    for problem_name, _, _ in runs:
        problem_registry(problem_name)
    tasks = [(path, *run_id) for path, run_id in zip(args.logs, runs)]
    outputs = _map_in_workers(_profile_task, tasks, workers)

    curves = [curve for curve, _, _ in outputs]
    texts = {"acc.csv": join_accuracy_rows((curve, rows) for curve, rows, _ in outputs)}
    single = len(args.tau) == 1
    for tau in args.tau:
        suffix = "" if single else f"_tau{tau:g}"
        texts[f"perf{suffix}.csv"] = performance_profile_csv(curves, tau)
        texts[f"data{suffix}.csv"] = data_profile_csv(curves, tau, args.sigma_ref)
    texts.update(
        (f"conv__{c.problem}__{c.algorithm}__s{c.seed}.csv", conv) for c, _, conv in outputs
    )
    os.makedirs(args.out_dir, exist_ok=True)
    for name, text in texts.items():
        with open(os.path.join(args.out_dir, name), "w") as fh:
            fh.write(text)
    print(f"wrote {', '.join(texts)} in {args.out_dir}")
    return 0


def cmd_validate(args) -> int:
    problem = problem_registry(args.problem) if args.problem else None
    failures = 0
    for path in args.logs:
        records = read_log(path)
        variant = args.variant
        if variant is None:
            try:
                _, algo, _ = _parse_log_name(path)
                variant = _ALGO_VARIANT.get(algo)
            except UsageError:
                variant = None
        for name, ok, detail in validate_records(records, problem, variant):
            tag = "ok" if ok else "FAIL"
            extra = f" ({detail})" if detail and not ok else ""
            print(f"{path}: {tag} {name}{extra}")
            failures += 0 if ok else 1
    return 0 if failures == 0 else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apmads",
        description="Adaptive-precision direct search runs, benchmarks and profiles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="one solve, writing a run-log CSV")
    p_run.add_argument("--problem", required=True)
    p_run.add_argument("--algo", default=None, choices=ALGOS)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--budget", type=float, default=None,
                       help="stop once this many equivalent draws are consumed")
    p_run.add_argument("--stop-delta-p", type=float, default=None)
    p_run.add_argument("--sigma-fixed", type=float, default=None,
                       help="per-evaluation sigma for --algo fixed")
    p_run.add_argument("--config", default=None, help="flat key=value config file")
    p_run.add_argument("--out", required=True, help="run-log CSV path")
    p_run.set_defaults(func=cmd_run)

    p_bench = sub.add_parser("bench", help="cross product of problems x algos x seeds")
    p_bench.add_argument("--problems", nargs="+", default=list(available_problems()))
    p_bench.add_argument("--algos", nargs="+", default=["dpmads", "mpmads"], choices=ALGOS)
    p_bench.add_argument("--seeds", nargs="+", type=int, default=[0])
    p_bench.add_argument("--budget", type=float, default=None)
    p_bench.add_argument("--stop-delta-p", type=float, default=None)
    p_bench.add_argument("--sigma-fixed", type=float, default=None)
    p_bench.add_argument("--config", default=None)
    p_bench.add_argument("--workers", type=int, default=None,
                         help="worker processes, at most one per run (default: all cores)")
    p_bench.add_argument("--out-dir", required=True)
    p_bench.set_defaults(func=cmd_bench)

    p_prof = sub.add_parser("profile", help="profiles and convergence curves from logs")
    p_prof.add_argument("logs", nargs="+", help="run logs named <problem>__<algo>__s<seed>.csv")
    p_prof.add_argument("--tau", nargs="+", type=float, default=[1e-3])
    p_prof.add_argument("--sigma-ref", type=float, default=REFERENCE_SIGMA)
    p_prof.add_argument("--workers", type=int, default=None,
                        help="worker processes, at most one per log (default: all cores)")
    p_prof.add_argument("--out-dir", default=".")
    p_prof.set_defaults(func=cmd_profile)

    p_val = sub.add_parser("validate", help="structural invariant checks on run logs")
    p_val.add_argument("logs", nargs="+")
    p_val.add_argument("--problem", default=None,
                       help="enables the exact mesh-membership check")
    p_val.add_argument("--variant", default=None, choices=["mp", "dp"])
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses 2 for usage errors; the interface contract wants 1
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (UsageError, UnknownProblemError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ApmadsError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()

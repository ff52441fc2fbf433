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
import errno
import os
import shutil
import sys
import tempfile
from contextlib import closing
from dataclasses import fields
from multiprocessing import Pool

from .exceptions import ApmadsError, ConfigError, InvalidSigmaError, UnknownProblemError
from .problems import available_problems, problem_registry
# accuracy_csv, convergence_csv and make_run_result are not called here; they
# stay importable from this module because perfbench/tracing.py wraps them here
from .profiles import (
    ACCURACY_HEADER,
    REFERENCE_SIGMA,
    accuracy_csv,
    convergence_csv,
    data_profile_csv,
    log_outputs,
    make_run_result,
    performance_profile_csv,
    reference_draws,
    validate_records,
)
from .solver import SolverConfig, check_run_settings, read_log, run, write_log

_ALGO_VARIANT = {"dpmads": "dp", "mpmads": "mp", "fixed": "fixed"}
ALGOS = tuple(_ALGO_VARIANT)

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
                raise UsageError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
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


def build_run(args, file_values: dict, algo: str | None, seed: int | None) -> tuple:
    """One run's ``(algo, config)``, checked before any solve starts.

    File values first, then ``algo``'s variant, ``seed``, ``--budget``, ``--stop-delta-p``
    and, for a fixed run, ``--sigma-fixed``. With ``algo`` None the file's variant picks
    the algorithm. A fixed run without a sigma, or with a bad one, is a usage error.
    """
    values = dict(file_values)
    if algo is not None:
        values["variant"] = _ALGO_VARIANT[algo]
    flags = {"seed": seed, "stop_draws": args.budget, "stop_delta_p": args.stop_delta_p}
    if values.get("variant") == "fixed":
        flags["sigma_fixed"] = args.sigma_fixed
        if args.sigma_fixed is None and "sigma_fixed" not in values:
            raise UsageError("--sigma-fixed is required for the fixed algorithm")
    values.update((key, flag) for key, flag in flags.items() if flag is not None)
    config = SolverConfig(**values)
    try:
        check_run_settings(config)
    except InvalidSigmaError as exc:
        raise UsageError(f"bad --sigma-fixed: {exc}") from None
    algo = next(a for a, variant in _ALGO_VARIANT.items() if variant == config.variant)
    return algo, config


def cmd_run(args) -> int:
    file_values = load_config_file(args.config) if args.config else {}
    problem = problem_registry(args.problem)
    algo, config = build_run(args, file_values, args.algo, args.seed)
    out = run(problem, config)
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

    A run that raises an ``ApmadsError`` while solving writes no log and
    leaves its path empty; the other runs go on.
    """
    problem, algo, config, out_path = task
    row = (problem.name, algo, config.seed)
    try:
        out = run(problem, config)
    except ApmadsError as exc:
        return *row, "", f"failed:{type(exc).__name__}"
    write_log(out.records, out_path, dimension=problem.dimension)
    return *row, out_path, "ok"


def bench_workers(requested: int | None, n_tasks: int) -> int:
    """Worker processes for ``n_tasks`` bench runs or profiled logs: never more than the tasks.

    ``None`` means one per core; values <= 0 are a usage error.
    """
    if requested is not None and requested <= 0:
        raise UsageError(f"--workers must be a positive integer, got {requested}")
    workers = requested if requested is not None else os.cpu_count() or 1
    return max(1, min(workers, n_tasks))


def _map_in_workers(task, tasks: list, workers: int):
    """``task(t)`` for each of ``tasks`` in order, in ``workers`` processes if more than one.

    A task that raises stops the generator there, so the error is the first failing
    task's. When a task raises, or the caller closes the generator before its last
    result, the workers finish the tasks already queued before the generator returns.
    """
    if workers == 1:
        yield from map(task, tasks)
        return
    # chunks as Pool.map sizes them, since one round trip per task can cost
    # about as much as the second worker saves
    chunksize = -(-len(tasks) // (4 * workers))
    with Pool(processes=workers) as pool:
        try:
            yield from pool.imap(task, tasks, chunksize)
        except (Exception, GeneratorExit):
            # let the workers finish the queued tasks first: Pool.terminate
            # can hang for good when it kills a worker sending a result
            pool.close()
            pool.join()
            raise


def _run_name(problem_name: str, algo: str, seed: int) -> str:
    """``<problem>__<algo>__s<seed>``, the stem of a bench log; ``_parse_log_name`` reads it."""
    return "%s__%s__s%d" % (problem_name, algo, seed)


def _refuse_repeats(runs) -> None:
    """``UsageError`` for a (problem, algo, seed) given twice: its two runs would share a name."""
    seen = set()
    for run_id in runs:
        if run_id in seen:
            raise UsageError(f"run {_run_name(*run_id)} is given twice")
        seen.add(run_id)


def cmd_bench(args) -> int:
    file_values = load_config_file(args.config) if args.config else {}
    problems = {name: problem_registry(name) for name in args.problems}
    runs = [(p, a, s) for p in args.problems for a in args.algos for s in args.seeds]
    _refuse_repeats(runs)
    tasks = [
        (problems[name], *build_run(args, file_values, algo, seed),
         os.path.join(args.out_dir, _run_name(name, algo, seed) + ".csv"))
        for name, algo, seed in runs
    ]
    workers = bench_workers(args.workers, len(tasks))
    os.makedirs(args.out_dir, exist_ok=True)
    rows = list(_map_in_workers(_bench_task, tasks, workers))
    manifest = os.path.join(args.out_dir, "manifest.csv")
    with open(manifest, "w", newline="") as fh:
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
    seed = parts[2][1:]  # as _run_name writes it: ASCII digits, no sign or leading zero
    if not (seed.isascii() and seed.isdigit() and str(int(seed)) == seed):
        raise UsageError(f"bad seed in log name {path!r}")
    return parts[0], parts[1], int(seed)


def _profile_task(task):
    """One log's share of ``profile``: its ``RunCurve`` and its acc.csv rows, or its error.

    ``log_outputs`` renders the log's text, without records. The task writes the
    run's conv__*.csv to ``conv_path`` itself, so only the curve and the rows
    cross back from a worker process. A log it cannot read, annotate or write
    out returns its error instead of raising it: a raised error would also drop
    the rest of its worker's chunk, which may hold a bad log given earlier.
    """
    conv_path, path, problem_name, algo, seed = task
    try:
        with open(path, "r", newline="") as fh:  # as read_log opens a log
            curve, rows, conv = log_outputs(problem_registry(problem_name), algo, seed, fh.read())
        with open(conv_path, "w", newline="") as fh:
            fh.write(conv)
    except ApmadsError as exc:
        return type(exc)(f"{path}: {exc}")
    except (OSError, ValueError) as exc:
        return exc
    return curve, rows


def _move_into_place(src: str, dst: str) -> None:
    """Rename ``src`` to ``dst``, or copy it when they lie on different filesystems.

    Either way a directory at ``dst`` raises ``IsADirectoryError``.
    """
    try:
        os.replace(src, dst)
    except OSError as exc:
        if exc.errno != errno.EXDEV:
            raise
        shutil.copyfile(src, dst)


def cmd_profile(args) -> int:
    """Write acc.csv, the perf/data files of each ``--tau`` and a conv__*.csv per log.

    Every log is read before a bad one is reported: the error is then the first
    bad log's in argument order, and nothing is written to ``--out-dir``.
    """
    # check every value and name before any log is read or any file is written
    tau_of = {}  # file suffix -> tau: two taus must not write the same files
    for tau in args.tau:
        if not 0.0 < tau < 1.0:
            raise UsageError(f"--tau must lie in (0, 1), got {tau}")
        suffix = "" if len(args.tau) == 1 else f"_tau{tau:g}"
        if suffix in tau_of:
            raise UsageError(
                f"--tau {tau_of[suffix]!r} and {tau!r} would both write perf{suffix}.csv"
            )
        tau_of[suffix] = tau
    try:
        reference_draws(args.sigma_ref)
    except InvalidSigmaError as exc:
        raise UsageError(f"bad --sigma-ref: {exc}") from None
    workers = bench_workers(args.workers, len(args.logs))
    runs = [_parse_log_name(path) for path in args.logs]
    _refuse_repeats(runs)
    for problem_name, _, _ in runs:
        problem_registry(problem_name)
    conv_names = [f"conv__{_run_name(*run_id)}.csv" for run_id in runs]
    # the logs are read in acc.csv's row order, so each log's rows are written
    # as they arrive and only its curve is kept
    order = sorted(range(len(runs)), key=lambda i: (runs[i][1], runs[i][0], runs[i][2]))

    # acc.csv and the workers' conv__*.csv files are staged in the system's
    # temporary directory, so a failing log leaves nothing near --out-dir; it
    # is removed on every exit
    with tempfile.TemporaryDirectory(prefix="apmads-profile-") as staging:
        tasks = [(os.path.join(staging, conv_names[i]), args.logs[i], *runs[i]) for i in order]
        curves, errors = [], []
        with open(os.path.join(staging, "acc.csv"), "w", newline="") as acc, \
                closing(_map_in_workers(_profile_task, tasks, workers)) as outputs:
            acc.write(ACCURACY_HEADER)
            for i, output in zip(order, outputs):
                if isinstance(output, Exception):
                    errors.append((i, output))
                else:
                    curve, rows = output
                    curves.append(curve)
                    acc.write(rows)
        if errors:
            raise min(errors, key=lambda error: error[0])[1]

        profiles = {}
        for suffix, tau in tau_of.items():
            profiles[f"perf{suffix}.csv"] = performance_profile_csv(curves, tau)
            profiles[f"data{suffix}.csv"] = data_profile_csv(curves, tau, args.sigma_ref)
        os.makedirs(args.out_dir, exist_ok=True)
        for name, text in profiles.items():
            with open(os.path.join(args.out_dir, name), "w", newline="") as fh:
                fh.write(text)
        for name in ["acc.csv", *conv_names]:
            _move_into_place(os.path.join(staging, name), os.path.join(args.out_dir, name))
    print(f"wrote {', '.join(['acc.csv', *profiles, *conv_names])} in {args.out_dir}")
    return 0


def _tau_value(token: str) -> float:
    """One ``--tau`` value: ``--tau`` takes every word up to the next option, logs too."""
    try:
        return float(token)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{token!r} is not a number; give the run logs before --tau"
        ) from None


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

    solve_flags = argparse.ArgumentParser(add_help=False)  # run and bench
    solve_flags.add_argument("--budget", type=float, help="stop after this many equivalent draws")
    solve_flags.add_argument("--stop-delta-p", type=float)
    solve_flags.add_argument("--sigma-fixed", type=float, help="per-evaluation sigma of 'fixed'")
    solve_flags.add_argument("--config", help="flat key=value config file")
    pool_flags = argparse.ArgumentParser(add_help=False)  # bench and profile
    pool_flags.add_argument("--workers", type=int,
                            help="worker processes, at most one per task (default: one per core)")

    p_run = sub.add_parser("run", parents=[solve_flags], help="one solve, writing a run-log CSV")
    p_run.add_argument("--problem", required=True)
    p_run.add_argument("--algo", choices=ALGOS)
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--out", required=True, help="run-log CSV path")
    p_run.set_defaults(func=cmd_run)

    p_bench = sub.add_parser("bench", parents=[solve_flags, pool_flags],
                             help="cross product of problems x algos x seeds")
    p_bench.add_argument("--problems", nargs="+", default=list(available_problems()))
    p_bench.add_argument("--algos", nargs="+", default=["dpmads", "mpmads"], choices=ALGOS)
    p_bench.add_argument("--seeds", nargs="+", type=int, default=[0])
    p_bench.add_argument("--out-dir", required=True)
    p_bench.set_defaults(func=cmd_bench)

    # argparse would list the logs last, after --tau, where they would be read as levels
    p_prof = sub.add_parser("profile", parents=[pool_flags],
                            help="profiles and convergence curves from logs",
                            usage="%(prog)s [-h] logs [logs ...] [--workers WORKERS] "
                                  "[--tau TAU [TAU ...]] [--sigma-ref SIGMA_REF] "
                                  "[--out-dir OUT_DIR]")
    p_prof.add_argument("logs", nargs="+",
                        help="run logs named <problem>__<algo>__s<seed>.csv, given before --tau")
    p_prof.add_argument("--tau", nargs="+", type=_tau_value, default=[1e-3],
                        help="accuracy levels in (0, 1) (default: 1e-3); every word after "
                             "--tau up to the next option is a level, so give the run logs first")
    p_prof.add_argument("--sigma-ref", type=float, default=REFERENCE_SIGMA)
    p_prof.add_argument("--out-dir", default=".")
    p_prof.set_defaults(func=cmd_profile)

    p_val = sub.add_parser("validate", help="structural invariant checks on run logs")
    p_val.add_argument("logs", nargs="+")
    p_val.add_argument("--problem", help="enables the exact mesh-membership check")
    p_val.add_argument("--variant", choices=["mp", "dp"])
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

"""Command-line interface: subcommands, exit codes, file outputs."""

import contextlib
import dataclasses
import errno
import functools
import io
import multiprocessing
import multiprocessing.pool
import os
import re
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apmads import (
    InvalidSigmaError,
    SolverConfig,
    cli,
    problem_registry,
    read_log,
    run,
    solver,
    validate_records,
    write_log,
)
from apmads.cli import UsageError, bench_workers, load_config_file, main

SRC = Path(__file__).resolve().parents[1] / "src"


def test_run_writes_log_with_fixed_header(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code = main(
        ["run", "--problem", "norm2", "--algo", "dpmads", "--seed", "7",
         "--budget", "1e4", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k,draws,inc0,inc1,f_inc,sig_inc,delta_p,delta_m,r,p,status,cache_size"
    assert len(lines) > 1
    assert "stop=budget" in capsys.readouterr().out


def test_run_unknown_problem_exits_1(capsys):
    code = main(["run", "--problem", "bogus", "--out", "x.csv"])
    assert code == 1
    err = capsys.readouterr().err
    assert "norm2" in err and "moustache" in err


def test_run_fixed_requires_sigma(tmp_path, capsys):
    code = main(
        ["run", "--problem", "norm2", "--algo", "fixed",
         "--out", str(tmp_path / "f.csv")]
    )
    assert code == 1
    assert "--sigma-fixed" in capsys.readouterr().err


def test_run_fixed_baseline(tmp_path, capsys):
    out = tmp_path / "f.csv"
    code = main(
        ["run", "--problem", "norm2", "--algo", "fixed", "--sigma-fixed", "1e-2",
         "--budget", "1e6", "--out", str(out)]
    )
    assert code == 0
    assert out.exists()
    assert "stop=budget" in capsys.readouterr().out


def test_a_config_file_can_describe_a_fixed_run(tmp_path, capsys):
    cfg = tmp_path / "fixed.cfg"
    cfg.write_text("variant = fixed\nsigma_fixed = 1e-2\n")
    from_file, from_flags = tmp_path / "file.csv", tmp_path / "flags.csv"
    assert main(["run", "--problem", "norm2", "--config", str(cfg), "--budget", "1e6",
                 "--out", str(from_file)]) == 0
    assert main(["run", "--problem", "norm2", "--algo", "fixed", "--sigma-fixed", "1e-2",
                 "--budget", "1e6", "--out", str(from_flags)]) == 0
    assert " fixed seed=0: " in capsys.readouterr().out
    assert from_file.read_bytes() == from_flags.read_bytes()


def test_a_fixed_config_ignores_the_settings_of_dp_and_mp(tmp_path):
    # bench applies one --config to every algorithm, so fixed accepts them
    base = "variant = fixed\nsigma_fixed = 1e-3\n"
    logs = []
    for extra in ("", "sigma_max = 2\ntau = 0.9\nr_s = 7\n"):
        cfg, out = tmp_path / f"{len(logs)}.cfg", tmp_path / f"{len(logs)}.csv"
        cfg.write_text(base + extra)
        assert main(["run", "--problem", "norm2", "--config", str(cfg), "--budget", "1e6",
                     "--out", str(out)]) == 0
        logs.append(out.read_bytes())
    assert logs[0] == logs[1]


@pytest.mark.parametrize("lines, algo, key", [
    ("sigma_fixed = 1e-3", "dpmads", "sigma_fixed"),
    ("sigma_fixed = 1e-3", "mpmads", "sigma_fixed"),
    ("sigma_fixed = 1e-3\nsearch_enabled = true", "fixed", "search_enabled"),
])
def test_a_config_key_the_algorithm_refuses_exits_1(tmp_path, capsys, lines, algo, key):
    cfg = tmp_path / "solver.cfg"
    cfg.write_text(lines + "\n")
    out = tmp_path / "x.csv"
    assert main(["run", "--problem", "norm2", "--algo", algo, "--config", str(cfg),
                 "--out", str(out)]) == 1
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_usage_error_exits_1():
    assert main(["run", "--problem", "norm2"]) == 1  # --out missing
    assert main(["nonsense"]) == 1


def test_the_module_exits_with_the_codes_of_main(tmp_path):
    # `python -m apmads.cli` runs entry_point, as the installed `apmads` script does
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)

    def apmads(*args):
        return subprocess.run([sys.executable, "-m", "apmads.cli", *args], env=env,
                              capture_output=True, text=True, timeout=120)

    log, refused_log = tmp_path / "norm2__dpmads__s0.csv", tmp_path / "refused.csv"
    solve = ["run", "--problem", "norm2", "--algo", "dpmads", "--budget", "1e4"]
    done = apmads(*solve, "--out", str(log))
    assert (done.returncode, done.stderr) == (0, "")
    assert "stop=budget" in done.stdout
    refused = apmads(*solve, "--stop-delta-p", "0", "--out", str(refused_log))
    assert refused.returncode == 1
    assert "error: stop_delta_p must be positive" in refused.stderr
    assert not refused_log.exists()
    log.write_text(log.read_text() + "1,x\n")
    failed = apmads("profile", str(log), "--out-dir", str(tmp_path / "out"))
    assert failed.returncode == 2
    assert "malformed log row" in failed.stderr


def test_bench_and_profile_pipeline(tmp_path):
    bench_dir = tmp_path / "logs"
    code = main(
        ["bench", "--problems", "norm2", "--algos", "dpmads", "mpmads",
         "--seeds", "0", "1", "--budget", "2e4", "--workers", "1",
         "--out-dir", str(bench_dir)]
    )
    assert code == 0
    manifest = (bench_dir / "manifest.csv").read_text().splitlines()
    assert manifest[0] == "problem,algo,seed,path,status"
    assert all(row.endswith(",ok") for row in manifest[1:])
    assert len(manifest) == 5
    logs = sorted(str(p) for p in bench_dir.glob("norm2__*__s*.csv"))
    assert len(logs) == 4

    prof_dir = tmp_path / "profiles"
    code = main(
        ["profile", "--tau", "0.5", "--sigma-ref", "1e-3",
         "--out-dir", str(prof_dir), *logs]
    )
    assert code == 0
    for name in ("acc.csv", "perf.csv", "data.csv"):
        assert (prof_dir / name).exists()
    convs = list(prof_dir.glob("conv__norm2__*__s*.csv"))
    assert len(convs) == 4
    assert (prof_dir / "perf.csv").read_text().splitlines()[0] == "alpha,algo,fraction"

    # profiles are pure functions of the logs
    rerun_dir = tmp_path / "profiles2"
    main(["profile", "--tau", "0.5", "--out-dir", str(rerun_dir), *logs])
    assert (rerun_dir / "perf.csv").read_text() == (prof_dir / "perf.csv").read_text()


def test_profile_multiple_taus(tmp_path):
    bench_dir = tmp_path / "logs"
    main(["bench", "--problems", "norm2", "--algos", "dpmads", "--seeds", "0",
          "--budget", "1e4", "--workers", "1", "--out-dir", str(bench_dir)])
    logs = [str(p) for p in bench_dir.glob("norm2__*.csv")]
    prof_dir = tmp_path / "profiles"
    code = main(
        ["profile", "--tau", "0.5", "0.1", "--out-dir", str(prof_dir), *logs]
    )
    assert code == 0
    assert (prof_dir / "perf_tau0.5.csv").exists()
    assert (prof_dir / "data_tau0.1.csv").exists()


def test_profile_refuses_a_repeated_run_before_writing(tmp_path, capsys):
    logs = []
    for algo in ("dpmads", "mpmads"):
        logs.append(str(tmp_path / f"norm2__{algo}__s0.csv"))
        assert main(["run", "--problem", "norm2", "--algo", algo, "--seed", "0",
                     "--budget", "1e4", "--out", logs[-1]]) == 0
    capsys.readouterr()
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert main(["profile", "--out-dir", str(out_dir), logs[0], logs[0], logs[1]]) == 1
    assert "run norm2__dpmads__s0 is given twice" in capsys.readouterr().err
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("taus", [["1e-3", "0.0010000001"], ["0.5", "0.1", "0.5"]])
def test_profile_refuses_two_taus_with_one_file_name(tmp_path, capsys, taus):
    out_dir = tmp_path / "out"
    # the log does not exist: reading it would exit 2
    code = main(["profile", str(tmp_path / "norm2__dpmads__s0.csv"), "--tau", *taus,
                 "--out-dir", str(out_dir)])
    assert code == 1
    assert "would both write perf_tau" in capsys.readouterr().err
    assert not out_dir.exists()


def test_profile_rejects_unparseable_names(tmp_path, capsys):
    log = tmp_path / "weird-name.csv"
    log.write_text("k,draws\n")
    code = main(["profile", str(log), "--out-dir", str(tmp_path)])
    assert code == 1
    assert "cannot infer" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["--tau", "2"], ["--tau", "0.5", "2"], ["--tau", "nan"],
    ["--sigma-ref", "0"], ["--sigma-ref", "nan"], ["--sigma-ref", "inf"],
    # 1e-200 ** 2 underflows, so one reference estimate has no finite cost
    ["--sigma-ref", "1e-200"],
], ids=" ".join)
def test_profile_bad_value_exits_1_before_writing(tmp_path, capsys, args):
    log = tmp_path / "norm2__dpmads__s0.csv"
    assert main(["run", "--problem", "norm2", "--algo", "dpmads", "--seed", "0",
                 "--budget", "1e4", "--out", str(log)]) == 0
    capsys.readouterr()
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert main(["profile", *args, "--out-dir", str(out_dir), str(log)]) == 1
    assert "error:" in capsys.readouterr().err
    assert list(out_dir.iterdir()) == []


# names int() would read, but not as _run_name writes them: s1_0 would be seed 10
@pytest.mark.parametrize("seed", ["sx", "s1_0", "s01", "s+1", "s-1", "s 1"])
def test_profile_refuses_a_log_name_with_a_bad_seed_before_reading_any_log(
    tmp_path, monkeypatch, capsys, seed
):
    logs = _bench_norm2_logs(tmp_path / "logs")
    bad = tmp_path / f"norm2__dpmads__{seed}.csv"
    bad.write_text("not a log\n")
    read = []
    monkeypatch.setattr(cli, "read_log", lambda path: read.append(path) or read_log(path))
    out_dir = tmp_path / "out"
    code = main(["profile", *logs, str(bad), "--workers", "1", "--out-dir", str(out_dir)])
    assert code == 1
    assert f"error: bad seed in log name {str(bad)!r}" in capsys.readouterr().err
    assert read == []
    assert not out_dir.exists()


def test_profile_on_a_malformed_log_exits_2(tmp_path, capsys):
    log = tmp_path / "norm2__dpmads__s0.csv"
    log.write_text(
        "k,draws,inc0,inc1,f_inc,sig_inc,delta_p,delta_m,r,p,status,cache_size\n"
        "1,44,0.5,-1,2.5,0.25,1,1,0,0.75,Z,5\n"
    )
    code = main(["profile", str(log), "--out-dir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "malformed log row at line 2: bad status 'Z'" in err


def _bench_norm2_logs(bench_dir, seeds=("0", "1")) -> list[str]:
    assert main(["bench", "--problems", "norm2", "--algos", "dpmads", "mpmads",
                 "--seeds", *seeds, "--budget", "1e4", "--workers", "1",
                 "--out-dir", str(bench_dir)]) == 0
    return sorted(str(p) for p in bench_dir.glob("norm2__*__s*.csv"))


def test_profile_parallel_workers(tmp_path):
    logs = _bench_norm2_logs(tmp_path / "logs", seeds=("0", "1", "2"))

    def profile(workers):
        out_dir = tmp_path / f"workers{workers}"
        assert main(["profile", *logs, "--tau", "0.5", "0.1", "--workers", workers,
                     "--out-dir", str(out_dir)]) == 0
        assert multiprocessing.active_children() == []
        return {path.name: path.read_bytes() for path in out_dir.iterdir()}

    parallel = profile("2")
    assert len(parallel) == 5 + len(logs)
    # every output is independent of the worker count
    assert profile("1") == parallel


@pytest.mark.parametrize("workers", ["1", "2"])
def test_profile_names_the_first_malformed_log(tmp_path, capsys, workers):
    # 12 logs: two workers take them in chunks of two, so the bad logs
    # fall in different chunks and more logs are queued behind them
    good = _bench_norm2_logs(tmp_path / "logs", seeds=("0", "1", "2", "3", "4"))
    header = "k,draws,inc0,inc1,f_inc,sig_inc,delta_p,delta_m,r,p,status,cache_size\n"
    first = tmp_path / "norm2__fixed__s1.csv"
    first.write_text(header + "1,44,0.5,-1,2.5,0.25,1,1,0,0.75,Z,5\n")
    second = tmp_path / "norm2__fixed__s0.csv"
    second.write_text(header + "1,44,0.5\n")
    out_dir = tmp_path / "out"
    code = main(["profile", *good[:5], str(first), *good[5:9], str(second), good[9],
                 "--workers", workers, "--out-dir", str(out_dir)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: {first}: malformed log row at line 2: bad status 'Z'" in err
    assert str(second) not in err
    assert not out_dir.exists()


def test_profile_renders_each_tau_through_the_public_renderers(tmp_path, monkeypatch):
    # perfbench/tracing.py times the renderers where cmd_profile looks them up
    logs = _bench_norm2_logs(tmp_path / "logs")
    calls = []

    def counted(name):
        renderer = getattr(cli, name)
        return lambda curves, *args: calls.append((name, args)) or renderer(curves, *args)

    for name in ("performance_profile_csv", "data_profile_csv"):
        monkeypatch.setattr(cli, name, counted(name))
    assert main(["profile", *logs, "--tau", "0.5", "0.1", "--sigma-ref", "0.01",
                 "--workers", "1", "--out-dir", str(tmp_path / "out")]) == 0
    assert sorted(calls) == [
        ("data_profile_csv", (0.1, 0.01)), ("data_profile_csv", (0.5, 0.01)),
        ("performance_profile_csv", (0.1,)), ("performance_profile_csv", (0.5,)),
    ]


def test_profile_opens_every_output_without_newline_translation(tmp_path, monkeypatch):
    # as run logs are opened: the outputs' bytes then do not depend on the
    # platform's line ending
    logs = _bench_norm2_logs(tmp_path / "logs")
    opened = []

    def spy(path, mode="r", **kwargs):
        opened.append((path, mode, kwargs.get("newline")))
        return open(path, mode, **kwargs)

    monkeypatch.setattr(cli, "open", spy, raising=False)
    out_dir = tmp_path / "out"
    assert main(["profile", *logs, "--tau", "0.5", "0.1", "--workers", "1",
                 "--out-dir", str(out_dir)]) == 0
    # every output is opened for writing here, and every other file opened for
    # writing is one staged acc.csv part per log, inside the staging directory
    written = [os.path.split(path) for path, mode, _ in opened if mode == "w"]
    outputs = sorted(os.listdir(out_dir))
    assert sorted(name for _, name in written if name in outputs) == outputs
    staging = next(folder for folder, name in written if name == "acc.csv")
    assert staging != str(out_dir)
    assert sorted(entry for entry in written if entry[1] not in outputs) == sorted(
        (staging, f"acc__{os.path.basename(log)}") for log in logs)
    assert {newline for _, _, newline in opened} == {""}


def test_bench_opens_every_output_without_newline_translation(tmp_path, monkeypatch):
    # the manifest, like the run logs, has the same bytes on every platform
    opened = []

    def spy(path, mode="r", **kwargs):
        opened.append((os.path.basename(path), mode, kwargs.get("newline")))
        return open(path, mode, **kwargs)

    monkeypatch.setattr(cli, "open", spy, raising=False)
    monkeypatch.setattr(solver, "open", spy, raising=False)
    out_dir = tmp_path / "logs"
    assert main(["bench", "--problems", "norm2", "--algos", "dpmads", "mpmads",
                 "--seeds", "0", "--budget", "1e4", "--workers", "1",
                 "--out-dir", str(out_dir)]) == 0
    assert sorted(name for name, mode, _ in opened if mode == "w") == sorted(os.listdir(out_dir))
    assert {newline for _, _, newline in opened} == {""}


def test_profile_parent_holds_no_convergence_text(tmp_path):
    # 2 x 30 moustache logs of about 365 rows: 1.65 MB of conv__*.csv text,
    # 1.25 MB of acc.csv rows and 0.35 MB of curves (two float64 per row).
    # Measured on Linux, Python 3.11: the parent's traced peak exceeds the
    # rows plus the curves by about 0.34 MB when the workers write the conv
    # files and by about 2.2 MB when the parent holds their text, so the
    # allowance leaves about 0.66 MB of margin either way. Nor does the
    # parent hold the acc.csv rows, which it writes as each log's rows arrive:
    # over 20 runs its peak was 0.98-1.14 MB, at least 0.21 MB below the
    # curves plus the allowance (1.35 MB); a parent that holds every log's
    # rows until the last log is read peaked at 1.85-1.95 MB.
    allowance = 1_000_000
    bench_dir = tmp_path / "bench"
    assert main(["bench", "--problems", "moustache", "--algos", "dpmads", "mpmads",
                 "--seeds", "0", "--workers", "1", "--out-dir", str(bench_dir)]) == 0
    logs = []
    for algo in ("dpmads", "mpmads"):
        for seed in range(30):
            log = tmp_path / "logs" / f"moustache__{algo}__s{seed}.csv"
            log.parent.mkdir(exist_ok=True)
            shutil.copyfile(bench_dir / f"moustache__{algo}__s0.csv", log)
            logs.append(str(log))

    def profile(out_dir):
        assert main(["profile", *logs, "--workers", "2", "--out-dir", str(out_dir)]) == 0

    profile(tmp_path / "warm")  # lazy imports and first-call set-up are not traced
    tracemalloc.start()
    try:
        profile(tmp_path / "out")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out_dir = tmp_path / "out"
    acc = (out_dir / "acc.csv").stat().st_size
    rows = len((out_dir / "acc.csv").read_text().splitlines()) - 1
    conv = sum(path.stat().st_size for path in out_dir.glob("conv__*.csv"))
    assert conv > allowance
    assert peak < acc + 16 * rows + allowance
    assert peak < 16 * rows + allowance


def test_profile_parent_peak_does_not_grow_with_log_length(tmp_path):
    # 40 logs of 400 rows, then the same 40 logs at 1600 rows. Measured on
    # Linux, Python 3.11, over 3 runs: the parent's traced peak grew by 0.10-0.11
    # MB (0.19 -> 0.30 MB), what copying a longer acc.csv part through
    # shutil.copyfileobj's 64 KiB reads takes, and no more however long the
    # logs. A parent that keeps each log's curve and receives its rows in the
    # chunk messages grew by 1.70-1.79 MB (0.74-0.84 -> 2.53 MB). The slack
    # leaves about 0.19 MB of margin one way and 1.4 MB the other.
    slack = 300_000
    problem = problem_registry("moustache")
    records = run(problem, SolverConfig(variant="dp", seed=0, stop_delta_p=1e-30,
                                        max_iterations=1600)).records
    assert len(records) == 1600

    def peak(rows):
        logs = []
        text = solver.log_to_csv(records[:rows], problem.dimension)
        for algo in ("dpmads", "mpmads"):
            for seed in range(20):
                log = tmp_path / f"logs{rows}" / f"moustache__{algo}__s{seed}.csv"
                log.parent.mkdir(exist_ok=True)
                log.write_text(text)
                logs.append(str(log))
        out_dir = tmp_path / f"out{rows}"
        tracemalloc.start()
        try:
            assert main(["profile", *logs, "--workers", "2", "--out-dir", str(out_dir)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(400)  # lazy imports and first-call set-up are not traced
    short, long = peak(400), peak(1600)
    assert long - short < slack


@pytest.mark.parametrize("workers", ["1", "2"])
def test_profile_failure_leaves_no_staging_or_out_dir(tmp_path, monkeypatch, capsys, workers):
    staging_root = tmp_path / "tmp"
    staging_root.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(staging_root))
    good = _bench_norm2_logs(tmp_path / "logs", seeds=("0", "1", "2", "3", "4"))
    header = "k,draws,inc0,inc1,f_inc,sig_inc,delta_p,delta_m,r,p,status,cache_size\n"
    first = tmp_path / "norm2__fixed__s1.csv"
    first.write_text(header + "1,44,0.5,-1,2.5,0.25,1,1,0,0.75,Z,5\n")
    second = tmp_path / "norm2__fixed__s0.csv"
    second.write_text(header + "1,44,0.5\n")
    out_parent = tmp_path / "new"
    out_dir = out_parent / "out"
    code = main(["profile", *good[:5], str(first), *good[5:9], str(second), good[9],
                 "--workers", workers, "--out-dir", str(out_dir)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: {first}: malformed log row at line 2: bad status 'Z'" in err
    assert str(second) not in err
    assert os.listdir(staging_root) == []
    assert not out_parent.exists()
    assert multiprocessing.active_children() == []

    # a rerun into an --out-dir with stale, longer conv files replaces them
    moved_from = []
    move = cli._move_into_place
    monkeypatch.setattr(cli, "_move_into_place",
                        lambda src, dst: moved_from.append(os.path.dirname(src)) or move(src, dst))
    fresh_dir, stale_dir = tmp_path / "fresh", tmp_path / "stale"
    stale_dir.mkdir()
    for log in good:
        (stale_dir / f"conv__{os.path.basename(log)}").write_text("stale\n" * 10_000)
    for target in (fresh_dir, stale_dir):
        assert main(["profile", *good, "--workers", workers, "--out-dir", str(target)]) == 0
    assert {path.name: path.read_bytes() for path in stale_dir.iterdir()} == {
        path.name: path.read_bytes() for path in fresh_dir.iterdir()
    }
    assert len(moved_from) == 2 * (len(good) + 1)
    assert {os.path.dirname(d) for d in moved_from} == {str(staging_root)}
    assert os.listdir(staging_root) == []


@pytest.mark.parametrize("workers", ["1", "2"])
def test_profile_names_the_first_bad_log_given_though_it_is_read_last(
        tmp_path, monkeypatch, capsys, workers):
    # the logs are read in acc.csv's row order, by (algo, problem, seed): the
    # moustache dpmads log first and the norm2 mpmads log, given first, last
    staging_root = tmp_path / "tmp"
    staging_root.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(staging_root))
    good = _bench_norm2_logs(tmp_path / "logs", seeds=("0", "1", "2", "3", "4"))
    header = "k,draws,inc0,inc1,f_inc,sig_inc,delta_p,delta_m,r,p,status,cache_size\n"
    first = tmp_path / "norm2__mpmads__s7.csv"
    first.write_text(header + "1,44,0.5,-1,2.5,0.25,1,1,0,0.75,Z,5\n")
    second = tmp_path / "moustache__dpmads__s0.csv"
    second.write_text(header + "1,44,0.5\n")
    out_parent = tmp_path / "new"
    code = main(["profile", *good[:2], str(first), *good[2:9], str(second), good[9],
                 "--workers", workers, "--out-dir", str(out_parent / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: {first}: malformed log row at line 2: bad status 'Z'" in err
    assert str(second) not in err
    assert not out_parent.exists()
    assert os.listdir(staging_root) == []
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", ["1", "2"])
def test_profile_joins_its_workers_when_writing_acc_csv_fails(
        tmp_path, monkeypatch, capsys, workers):
    staging_root = tmp_path / "tmp"
    staging_root.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(staging_root))
    logs = _bench_norm2_logs(tmp_path / "logs", seeds=("0", "1", "2", "3", "4"))

    class FullDisk:
        """A file that takes two writes, acc.csv's header and one log's rows, then fails."""

        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.writes += 1
            if self.writes > 2:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return self.fh.write(text)

    def spy(path, mode="r", **kwargs):
        fh = open(path, mode, **kwargs)
        return FullDisk(fh) if os.path.basename(path) == "acc.csv" else fh

    monkeypatch.setattr(cli, "open", spy, raising=False)
    # Pool.terminate can hang for good when it kills a worker sending a result,
    # so the workers are joined first; the pool's exit then has none to kill
    calls = []
    for name in ("close", "join", "terminate"):
        method = getattr(multiprocessing.pool.Pool, name)
        monkeypatch.setattr(multiprocessing.pool.Pool, name,
                            lambda pool, name=name, method=method:
                            calls.append(name) or method(pool))
    out_parent = tmp_path / "new"
    assert main(["profile", *logs, "--workers", workers,
                 "--out-dir", str(out_parent / "out")]) == 2
    assert f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}" in capsys.readouterr().err
    assert calls[:2] == ([] if workers == "1" else ["close", "join"])
    assert multiprocessing.active_children() == []
    assert not out_parent.exists()
    assert os.listdir(staging_root) == []


@pytest.mark.parametrize("workers", ["1", "2"])
def test_profile_reports_a_failing_acc_csv_part_write(tmp_path, monkeypatch, capsys, workers):
    staging_root = tmp_path / "tmp"
    staging_root.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(staging_root))
    logs = _bench_norm2_logs(tmp_path / "logs", seeds=("0", "1", "2", "3", "4"))
    full = f"acc__{os.path.basename(logs[3])}"

    def spy(path, mode="r", **kwargs):
        # the forked workers inherit the spy
        if mode == "w" and os.path.basename(path) == full:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return open(path, mode, **kwargs)

    monkeypatch.setattr(cli, "open", spy, raising=False)
    out_parent = tmp_path / "new"
    assert main(["profile", *logs, "--workers", workers,
                 "--out-dir", str(out_parent / "out")]) == 2
    assert f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}" in capsys.readouterr().err
    assert not out_parent.exists()
    assert os.listdir(staging_root) == []
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cross_device", [False, True])
def test_profile_refuses_a_directory_at_a_conv_name(tmp_path, monkeypatch, capsys, cross_device):
    staging_root = tmp_path / "tmp"
    staging_root.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(staging_root))
    logs = _bench_norm2_logs(tmp_path / "logs")
    if cross_device:
        # as os.replace fails when the temporary directory is on another filesystem
        def replace(src, dst):
            raise OSError(errno.EXDEV, os.strerror(errno.EXDEV), src, None, dst)

        monkeypatch.setattr(os, "replace", replace)
    fresh_dir, out_dir = tmp_path / "fresh", tmp_path / "out"
    assert main(["profile", *logs, "--workers", "1", "--out-dir", str(fresh_dir)]) == 0
    blocked = out_dir / f"conv__{os.path.basename(logs[1])}"
    blocked.mkdir(parents=True)
    assert main(["profile", *logs, "--workers", "1", "--out-dir", str(out_dir)]) == 2
    assert re.search(rf"^error: .*{re.escape(str(blocked))}", capsys.readouterr().err, re.M)
    assert blocked.is_dir() and os.listdir(blocked) == []
    assert os.listdir(staging_root) == []
    # the conv files staged before the blocked one are in place
    first = f"conv__{os.path.basename(logs[0])}"
    assert (out_dir / first).read_bytes() == (fresh_dir / first).read_bytes()


def test_profile_refuses_a_log_given_after_tau_with_a_hint(tmp_path, capsys):
    # --tau takes every word up to the next option, so the log is read as a level
    log = tmp_path / "norm2__dpmads__s0.csv"
    out_dir = tmp_path / "out"
    assert main(["profile", "--tau", "1e-3", str(log), "--out-dir", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert f"argument --tau: {str(log)!r} is not a number; give the run logs before --tau" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_profile_zero_workers_exits_1_before_any_log_is_read(tmp_path, capsys, workers):
    out_dir = tmp_path / "out"
    # the log does not exist: reading it would exit 2
    code = main(["profile", str(tmp_path / "norm2__dpmads__s0.csv"),
                 "--workers", workers, "--out-dir", str(out_dir)])
    assert code == 1
    assert f"--workers must be a positive integer, got {workers}" in capsys.readouterr().err
    assert not out_dir.exists()


def test_profile_unknown_problem_exits_1_before_creating_the_out_dir(tmp_path, capsys):
    log = tmp_path / "foo__dpmads__s0.csv"
    log.write_text("k,draws\n")
    out_dir = tmp_path / "out"
    assert main(["profile", str(log), "--out-dir", str(out_dir)]) == 1
    assert "unknown problem 'foo'" in capsys.readouterr().err
    assert not out_dir.exists()


PROFILE_USAGE = ("usage: apmads profile [-h] logs [logs ...] [--workers WORKERS] "
                 "[--tau TAU [TAU ...]] [--sigma-ref SIGMA_REF] [--out-dir OUT_DIR]\n")


def test_profile_usage_shows_the_logs_before_tau(tmp_path, capsys):
    assert main(["profile", "--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(PROFILE_USAGE)
    # the usage is written out by hand: it must list every option the help lists
    options = set(re.findall(r"--[a-z-]+", out.split("options:", 1)[1]))
    assert options == set(re.findall(r"--[a-z-]+", PROFILE_USAGE)) | {"--help"}
    log = tmp_path / "norm2__dpmads__s0.csv"
    assert main(["profile", "--tau", "1e-3", str(log)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(PROFILE_USAGE)
    assert "give the run logs before --tau" in err


@functools.lru_cache(maxsize=None)
def writer_log(problem_name: str) -> str:
    """The text ``write_log`` writes for a short dp run."""
    problem = problem_registry(problem_name)
    records = run(problem, SolverConfig(variant="dp", seed=0, stop_draws=2e3)).records
    assert len(records) >= 3
    return solver.log_to_csv(records, problem.dimension)


ARABIC_INDIC_DIGITS = str.maketrans("0123456789", "".join(chr(0x660 + d) for d in range(10)))


@st.composite
def malformed_logs(draw):
    """(log name, text, line a row error names or None) for a mutated writer log."""
    problem = draw(st.sampled_from(["norm2", "moustache"]))
    lines = writer_log(problem).splitlines()
    header = lines[0].split(",")
    i = draw(st.integers(1, len(lines) - 1))  # the row to break, at line i + 1
    row = lines[i].split(",")
    kind = draw(st.sampled_from(["drop", "add", "word", "nan", "empty", "status", "stray",
                                 "header", "no header", "dimension"]))
    # an f_inc of NaN is the estimate of a point whose fusion sums
    # overflowed: the reader takes it (test below)
    j = draw(st.sampled_from([c for c, name in enumerate(header)
                              if kind != "nan" or name != "f_inc"]))
    if kind == "drop":
        del row[j]
    elif kind == "add":
        row.insert(j, draw(st.sampled_from(["0", "1.5", "S", ""])))
    elif kind in ("word", "nan", "empty"):
        row[j] = draw(st.sampled_from({"word": ["x", "0x10", "1.5.2", "--1"],
                                       "nan": ["nan", "NaN", "-nan"], "empty": [""]}[kind]))
    elif kind == "status":
        row[-2] = draw(st.sampled_from(["X", "s", "SUCCESS", "0", " S"]))
    elif kind == "stray":
        # the field as float and int read it, in a form write_log never writes
        forms = [" " + row[j], row[j] + "\t", re.sub(r"(\d)(\d)", r"\1_\2", row[j], count=1),
                 row[j].translate(ARABIC_INDIC_DIGITS)]
        row[j] = draw(st.sampled_from([form for form in forms if form != row[j]]))
    lines[i] = ",".join(row)
    if kind == "header":
        a, b = draw(st.lists(st.integers(0, len(header) - 1), min_size=2, max_size=2,
                             unique=True))
        header[a], header[b] = header[b], header[a] if draw(st.booleans()) else "x"
        lines[0] = ",".join(header)
    elif kind == "no header":
        del lines[0]
    elif kind == "dimension":
        # every incumbent gains a coordinate of 0: a well-formed log of the wrong width
        lines = [solver.log_header(3)] + [
            ",".join([*fields[:4], "0", *fields[4:]])
            for fields in (line.split(",") for line in lines[1:])
        ]
    line = i + 1 if kind in ("drop", "add", "word", "nan", "empty", "status", "stray") else None
    return f"{problem}__dpmads__s0.csv", "".join(ln + "\n" for ln in lines), line


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(log=malformed_logs())
def test_profile_and_validate_refuse_a_malformed_log_cleanly(log):
    name, text, line = log
    with tempfile.TemporaryDirectory() as tmp:
        path, out_dir = os.path.join(tmp, name), os.path.join(tmp, "out")
        with open(path, "w", newline="") as fh:
            fh.write(text)
        staging_root = os.path.join(tmp, "staging")
        os.mkdir(staging_root)
        saved, tempfile.tempdir = tempfile.tempdir, staging_root
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(["profile", path, "--workers", "1", "--out-dir", out_dir])
        finally:
            tempfile.tempdir = saved
        err = err.getvalue()
        assert code == 2, err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, err
        if line is not None:
            assert f": malformed log row at line {line}: " in err
        assert not os.path.exists(out_dir)
        assert os.listdir(staging_root) == []

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
            code = main(["validate", path, "--problem", name.split("__")[0]])
        assert code == 2
        assert "Traceback" not in err.getvalue()
        assert "FAIL" in out.getvalue() or err.getvalue().startswith(f"error: {path}: ")


@pytest.mark.parametrize("workers", ["1", "2"])
def test_profile_and_validate_name_a_log_that_is_not_utf8_text(tmp_path, capsys, workers):
    good = _bench_norm2_logs(tmp_path / "logs")
    bad = tmp_path / "norm2__fixed__s0.csv"
    bad.write_bytes(b"\xff\xfe" + writer_log("norm2").encode())
    out_dir = tmp_path / "out"
    assert main(["profile", good[0], str(bad), *good[1:], "--workers", workers,
                 "--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: 'utf-8' codec can't decode byte 0xff") and (
        err.count("\n") == 1), err
    assert not out_dir.exists()
    assert main(["validate", good[0], str(bad)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith(f"error: {bad}: 'utf-8' codec can't decode byte 0xff"), err
    assert f"{good[0]}: ok " in out and "FAIL" not in out


def test_validate_checks_every_log_after_one_it_cannot_read(tmp_path, capsys):
    good = _bench_norm2_logs(tmp_path / "logs")
    bad = tmp_path / "norm2__fixed__s0.csv"
    bad.write_bytes(b"\xff\xfe" + writer_log("norm2").encode())
    missing = tmp_path / "norm2__fixed__s1.csv"
    assert main(["validate", good[0], str(bad), str(missing), good[1]]) == 2
    out, err = capsys.readouterr()
    lines = err.splitlines()
    assert len(lines) == 2, err
    assert lines[0].startswith(f"error: {bad}: 'utf-8' codec can't decode byte 0xff"), err
    assert lines[1].startswith("error: ") and str(missing) in lines[1], err
    assert f"{good[0]}: ok " in out and f"{good[1]}: ok " in out and "FAIL" not in out


def test_profile_copies_a_nan_f_inc_and_takes_a_header_alone(tmp_path):
    # f_inc is the incumbent's estimate: inf / inf, NaN, when its fusion sums
    # overflow. A header alone is the log of a run stopped before its first
    # iteration (as by --budget 0); profile counts it as a run that never solved
    lines = writer_log("norm2").splitlines()
    f_inc = lines[0].split(",").index("f_inc")
    row = lines[-1].split(",")
    row[f_inc] = "nan"
    (tmp_path / "norm2__dpmads__s0.csv").write_text("\n".join([*lines[:-1], ",".join(row)]) + "\n")
    (tmp_path / "norm2__mpmads__s0.csv").write_text(lines[0] + "\n")
    out_dir = tmp_path / "out"
    assert main(["profile", str(tmp_path / "norm2__dpmads__s0.csv"),
                 str(tmp_path / "norm2__mpmads__s0.csv"), "--tau", "0.5",
                 "--workers", "1", "--out-dir", str(out_dir)]) == 0
    conv = (out_dir / "conv__norm2__dpmads__s0.csv").read_text().splitlines()
    assert conv[-1].split(",")[2] == "nan"
    header_only = (out_dir / "conv__norm2__mpmads__s0.csv").read_text()
    assert header_only == "draws,f_true_inc,f_inc,sig_inc\n"
    perf = (out_dir / "perf.csv").read_text().splitlines()
    assert perf[-1].startswith("1,mpmads,") and perf[-1].endswith(",0")
    for log in tmp_path.glob("*.csv"):
        assert main(["validate", str(log), "--problem", "norm2"]) == 0


@pytest.mark.parametrize("column, field", [
    ("draws", "1_000"), ("sig_inc", " 0.5"), ("p", "0.5\t"), ("k", "\u0661"),
])
def test_profile_and_validate_refuse_a_field_write_log_never_writes(
        tmp_path, capsys, column, field):
    # float and int accept each field, and profile would copy a draws field
    # such as 1_000 into acc.csv as written
    lines = writer_log("norm2").splitlines()
    row = lines[2].split(",")
    row[lines[0].split(",").index(column)] = field
    lines[2] = ",".join(row)
    log = tmp_path / "norm2__dpmads__s0.csv"
    log.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    error = f"malformed log row at line 3: bad {column} {field!r}"
    out_dir = tmp_path / "out"
    assert main(["profile", str(log), "--workers", "1", "--out-dir", str(out_dir)]) == 2
    assert f"error: {log}: {error}" in capsys.readouterr().err
    assert not out_dir.exists()
    assert main(["validate", str(log), "--problem", "norm2"]) == 2
    assert f"error: {log}: {error}" in capsys.readouterr().err


def test_profile_reads_a_log_with_crlf_line_endings_as_written_with_lf(tmp_path):
    text = writer_log("moustache")
    for folder, newline in (("lf", "\n"), ("crlf", "\r\n")):
        (tmp_path / folder).mkdir()
        log = tmp_path / folder / "moustache__dpmads__s0.csv"
        log.write_bytes(text.replace("\n", newline).encode())
        assert main(["profile", str(log), "--workers", "1",
                     "--out-dir", str(tmp_path / folder / "out")]) == 0
        assert main(["validate", str(log), "--problem", "moustache"]) == 0
    assert {path.name: path.read_bytes() for path in (tmp_path / "crlf" / "out").iterdir()} == {
        path.name: path.read_bytes() for path in (tmp_path / "lf" / "out").iterdir()}


def test_validate_ok_and_corrupted(tmp_path, capsys):
    log = tmp_path / "norm2__mpmads__s0.csv"
    main(["run", "--problem", "norm2", "--algo", "mpmads", "--seed", "0",
          "--budget", "1e4", "--out", str(log)])
    code = main(["validate", str(log), "--problem", "norm2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "ok incumbents-on-mesh" in out
    assert "ok r-nondecreasing" in out

    text = log.read_text().splitlines()
    row = text[1].split(",")
    row[7] = "0.3"  # break the delta_m coupling
    text[1] = ",".join(row)
    log.write_text("\n".join(text) + "\n")
    code = main(["validate", str(log)])
    assert code == 2
    assert "FAIL mesh-frame-coupling" in capsys.readouterr().out


def test_validate_finds_an_incumbent_off_the_mesh(tmp_path, capsys):
    log = tmp_path / "norm2__dpmads__s0.csv"
    assert main(["run", "--problem", "norm2", "--algo", "dpmads", "--seed", "0",
                 "--budget", "1e4", "--out", str(log)]) == 0
    problem = problem_registry("norm2")
    records = read_log(log)
    assert all(ok for _, ok, _ in validate_records(records, problem))
    # move the incumbent at k=5 by half the finest mesh size so far
    x0, *rest = records[4].incumbent
    records[4].incumbent = (x0 + min(rec.delta_m for rec in records[:5]) / 2, *rest)
    checks = {name: (ok, detail) for name, ok, detail in validate_records(records, problem)}
    assert checks["incumbents-on-mesh"] == (False, "incumbent off mesh at k=5")
    write_log(records, log)
    capsys.readouterr()
    assert main(["validate", str(log), "--problem", "norm2"]) == 2
    out = capsys.readouterr().out
    assert f"{log}: FAIL incumbents-on-mesh (incumbent off mesh at k=5)" in out
    assert "FAIL" not in out.replace("FAIL incumbents-on-mesh", "")


def test_validate_takes_each_variant_a_log_name_can_give(tmp_path, capsys):
    log = tmp_path / "norm2__fixed__s0.csv"
    assert main(["run", "--problem", "norm2", "--algo", "fixed", "--sigma-fixed", "1e-2",
                 "--seed", "0", "--budget", "1e4", "--out", str(log)]) == 0
    for variant in ("fixed", "dp", "mp"):
        assert main(["validate", str(log), "--problem", "norm2", "--variant", variant]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out and f"{log}: ok r-nondecreasing" in out
    assert main(["validate", str(log), "--variant", "fixd"]) == 1


@pytest.mark.parametrize("name", ["norm2__mpmads__s1.csv", "moustache__dpmads__s1.csv"])
def test_a_log_of_the_wrong_dimension_fails_profile_and_validate(tmp_path, capsys, name):
    # a norm2 log whose incumbents carry a third coordinate of 0
    log = tmp_path / name
    assert main(["run", "--problem", "norm2", "--algo", "mpmads", "--seed", "1",
                 "--budget", "1e4", "--out", str(log)]) == 0
    records = read_log(log)
    for rec in records:
        rec.incumbent = (*rec.incumbent, 0.0)
    write_log(records, log)
    capsys.readouterr()
    out_dir = tmp_path / "out"
    assert main(["profile", str(log), "--out-dir", str(out_dir)]) == 2
    assert f"error: {log}: incumbent at k=1 has 3 coordinates" in capsys.readouterr().err
    assert not out_dir.exists()
    problem = name.split("__")[0]
    assert main(["validate", str(log), "--problem", problem]) == 2
    out = capsys.readouterr().out
    assert f"{log}: FAIL dimension (incumbent at k=1 does not have 2 coordinates)" in out
    assert "incumbents-on-mesh" not in out


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "solver.cfg"
    cfg.write_text(
        "# comment line\n"
        "variant = mp\n"
        "sigma_max = 0.5\n"
        "tau = 0.3\n"
        "seed = 11\n"
        "search_enabled = false\n"
    )
    values = load_config_file(str(cfg))
    assert values == {
        "variant": "mp",
        "sigma_max": 0.5,
        "tau": 0.3,
        "seed": 11,
        "search_enabled": False,
    }
    config = SolverConfig(**values)
    assert config.variant == "mp"
    assert config.sigma_max == 0.5
    assert config.seed == 11

    # config files and run logs are UTF-8 text whatever the locale: under the C
    # locale a comment with non-ASCII text is read, and a log with a byte that is
    # not UTF-8 is refused by the UTF-8 codec
    cfg.write_text("# \u03c3 schedule\nseed = 3\n", encoding="utf-8")
    log = tmp_path / "bad.csv"
    log.write_bytes(b"\xff\xfe")
    code = ("import sys\nfrom apmads.cli import load_config_file\nfrom apmads import read_log\n"
            "print(load_config_file(sys.argv[1]))\n"
            "try:\n    read_log(sys.argv[2])\nexcept UnicodeDecodeError as exc:\n"
            "    print(exc.encoding)\n")
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code, str(cfg), str(log)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "{'seed': 3}\nutf-8\n"), proc.stderr
    # a config file that is not UTF-8 text is a usage error that names the file
    cfg.write_bytes(b"seed = 1\n\xff\n")
    with pytest.raises(UsageError, match=re.escape(f"{cfg}: 'utf-8' codec can't decode byte "
                                                   "0xff in position 9")):
        load_config_file(str(cfg))
    assert main(["run", "--problem", "norm2", "--config", str(cfg), "--out",
                 str(tmp_path / "x.csv")]) == 1


def test_config_file_unknown_key_exits_1(tmp_path, capsys):
    cfg = tmp_path / "solver.cfg"
    cfg.write_text("sigma_typo = 1\n")
    code = main(["run", "--problem", "norm2", "--config", str(cfg), "--out",
                 str(tmp_path / "x.csv")])
    assert code == 1
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("line", [
    "delta_p0 = inf", "stop_draws = nan",
    # values of the wrong type
    "tau = abc", "r_s = abc", "max_iterations = abc", "seed = 1.5", "seed = -1",
    "max_iterations = nan", "search_enabled = yes",
    # the sigma schedule's keys; sigma_max = 2 is above the observable cap SIGMA_MAX = 1
    "sigma_max = inf", "theta = 0", "sigma_min = -1", "r0 = nan", "theta = abc",
    "sigma_max = 2",
    # with no --algo the variant picks the algorithm; it is not replaced by dp
    "variant = xx",
    # rho(2000) and rho(2005), the first search's sigma, have no finite draw cost
    "r_init = 2000",
    # a line without '='
    "seed 1",
])
def test_config_file_non_finite_value_exits_1(tmp_path, capsys, line):
    cfg = tmp_path / "solver.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "x.csv"
    code = main(["run", "--problem", "norm2", "--config", str(cfg), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert line.split()[0] in err
    if line == "variant = xx":
        assert "'mp', 'dp', 'fixed'" in err
    if "=" not in line:
        assert f"error: {cfg}:1: expected 'key = value', got 'seed 1'" in err
    assert not out.exists()

    # bench checks each run's settings as run does, before it creates --out-dir;
    # with the same flags, a file value that a flag overrides is overridden in both
    def error_lines():
        return [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error:")]

    flags = ["--budget", "1e4", "--config", str(cfg)]
    run_code = main(["run", "--problem", "norm2", "--algo", "dpmads", "--seed", "0",
                     *flags, "--out", str(tmp_path / "y.csv")])
    run_errors = error_lines()
    bench_dir = tmp_path / "logs"
    bench_code = main(["bench", "--problems", "norm2", "--algos", "dpmads", "--seeds", "0",
                       *flags, "--workers", "1", "--out-dir", str(bench_dir)])
    assert (bench_code, error_lines()) == (run_code, run_errors)
    if bench_code == 1:
        assert not bench_dir.exists()


def test_config_file_key_set_twice_exits_1(tmp_path, capsys):
    cfg = tmp_path / "solver.cfg"
    cfg.write_text("seed = 1\n# a comment\nstop_draws = 1e4\nseed = 2\n")
    out = tmp_path / "x.csv"
    code = main(["run", "--problem", "norm2", "--config", str(cfg), "--out", str(out)])
    assert code == 1
    assert f"error: {cfg}:4: key 'seed' is set twice (lines 1 and 4)" in capsys.readouterr().err
    assert not out.exists()


CONFIG_KEYS = tuple(f.name for f in dataclasses.fields(SolverConfig))
CONFIG_VALUES = st.one_of(
    st.sampled_from(["0", "1", "0.5", "0.1", "0.01", "1e-3", "10", "-5", "true", "false", "mp"]),
    st.sampled_from(["-1", "2", "1e300", "-1e300", "5e-324", "nan", "inf", "-inf", "word",
                     "dp", "fixed", ""]),
    st.integers(-10, 2000).map(str),
    st.floats().map(repr),
)


@st.composite
def config_lines(draw):
    """Up to three known keys, each set once, and now and then one faulty line."""
    values = draw(st.dictionaries(st.sampled_from(CONFIG_KEYS), CONFIG_VALUES, max_size=3))
    lines = [f"{key} = {value}" for key, value in values.items()]
    fault = draw(st.sampled_from(["", "", "", "set twice", "sigma = 1", "Seed = 1",
                                  "seed 1", "tau"]))  # an unknown key, or no '='
    if fault == "set twice":
        fault = f"{draw(st.sampled_from(sorted(values) or ['seed']))} = {draw(CONFIG_VALUES)}"
    if fault:
        lines.insert(draw(st.integers(0, len(lines))), fault)
    return lines


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(lines=config_lines(), command=st.sampled_from(["run", "bench"]))
def test_every_config_file_runs_or_exits_1_naming_its_fault(lines, command):
    with tempfile.TemporaryDirectory() as tmp:
        cfg, made = os.path.join(tmp, "solver.cfg"), os.path.join(tmp, "made")
        with open(cfg, "w") as fh:
            fh.write("".join(line + "\n" for line in lines))
        if command == "run":
            args = ["run", "--problem", "norm2", "--out", made]
        else:
            args = ["bench", "--problems", "norm2", "--algos", "dpmads", "mpmads",
                    "--seeds", "0", "--workers", "1", "--out-dir", made]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([*args, "--budget", "1e3", "--config", cfg])
        err = err.getvalue()
        assert "Traceback" not in err
        if code == 0:
            assert os.path.exists(made)
            return
        assert code == 1 and not os.path.exists(made)
        fault = next(line for line in err.splitlines() if line.startswith("error: "))
        # the file's faulty line, or a key the file sets; a fixed run's missing
        # sigma is named by its flag
        named = [f"{cfg}:", "--sigma-fixed", *(line.split("=")[0].strip() for line in lines)]
        assert any(name in fault for name in named), fault


@pytest.mark.parametrize("line, index", [
    ("theta = 2178574739", "rho(5.0)"), ("r_s = -1e300", "rho(1e+300)"),
    ("r0 = -1e300", "rho(0.0)"), ("sigma_max = 1e-160", "rho(0.0)"),
])
def test_a_run_past_the_precision_floor_names_the_key_that_put_it_there(tmp_path, capsys,
                                                                         line, index):
    cfg = tmp_path / "solver.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "x.csv"
    assert main(["run", "--problem", "norm2", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    key, value = (part.strip() for part in line.split("="))
    assert f"{key} = {cli._parse_value(value)}" in err
    assert f"start the run past the precision floor: {index} = " in err
    # r_s is named when the search's index, r_init - r_s, is past the floor
    assert ("r_s = " in err) == (index != "rho(0.0)")
    assert not out.exists()


def test_cli_flags_override_config_file(tmp_path):
    cfg = tmp_path / "solver.cfg"
    cfg.write_text("seed = 3\nstop_draws = 1e4\n")
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    main(["run", "--problem", "norm2", "--config", str(cfg), "--out", str(out_a)])
    main(["run", "--problem", "norm2", "--config", str(cfg), "--seed", "3",
          "--out", str(out_b)])
    assert out_a.read_text() == out_b.read_text()
    out_c = tmp_path / "c.csv"
    main(["run", "--problem", "norm2", "--config", str(cfg), "--seed", "4",
          "--out", str(out_c)])
    assert out_c.read_text() != out_a.read_text()


def test_bench_parallel_workers(tmp_path, monkeypatch):
    def bench(workers):
        # a relative --out-dir in a fresh directory: the manifest's paths
        # are the same for both runs
        run_dir = tmp_path / f"workers{workers}"
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        code = main(
            ["bench", "--problems", "norm2", "--algos", "dpmads",
             "--seeds", "0", "1", "2", "3", "--budget", "1e4", "--workers", workers,
             "--out-dir", "logs"]
        )
        assert code == 0
        return {path.name: path.read_bytes() for path in (run_dir / "logs").iterdir()}

    parallel = bench("2")
    assert sorted(parallel) == ["manifest.csv"] + [f"norm2__dpmads__s{i}.csv" for i in range(4)]
    # each log and the manifest are independent of the worker count
    assert bench("1") == parallel


def test_bench_refuses_a_repeated_run_before_any_run(tmp_path, capsys):
    bench_dir = tmp_path / "logs"
    code = main(["bench", "--problems", "norm2", "--algos", "dpmads", "mpmads",
                 "--seeds", "0", "1", "0", "--budget", "1e4", "--out-dir", str(bench_dir)])
    assert code == 1
    assert "error: run norm2__dpmads__s0 is given twice" in capsys.readouterr().err
    assert not bench_dir.exists()


def test_bench_error_in_a_worker_exits_2_without_a_manifest(tmp_path, capsys):
    bench_dir = tmp_path / "logs"
    blocked = bench_dir / "norm2__dpmads__s1.csv"
    blocked.mkdir(parents=True)  # the run cannot write its log there
    code = main(["bench", "--problems", "norm2", "--algos", "dpmads",
                 "--seeds", "0", "1", "2", "3", "--budget", "1e4", "--workers", "2",
                 "--out-dir", str(bench_dir)])
    assert code == 2
    assert re.search(rf"^error: .*{re.escape(str(blocked))}", capsys.readouterr().err, re.M)
    assert not (bench_dir / "manifest.csv").exists()
    assert multiprocessing.active_children() == []


def test_bench_workers_capped_at_task_count():
    assert bench_workers(2, 6) == 2
    assert bench_workers(10**9, 3) == 3
    assert bench_workers(4, 1) == 1
    assert bench_workers(None, 10**6) == (os.cpu_count() or 1)
    assert bench_workers(None, 1) == 1


@pytest.mark.parametrize("requested", [0, -1, -10**9])
def test_bench_workers_rejects_non_positive(requested):
    with pytest.raises(UsageError):
        bench_workers(requested, 4)


@pytest.mark.parametrize("sigma_fixed", [None, "0", "-1", "2", "nan", "1e-200"])
def test_bad_sigma_fixed_exits_1_before_any_solve(tmp_path, capsys, sigma_fixed):
    # 1e-200 ** 2 underflows, so one observation at it has no finite draw cost
    flag = [] if sigma_fixed is None else ["--sigma-fixed", sigma_fixed]
    out = tmp_path / "f.csv"
    assert main(["run", "--problem", "norm2", "--algo", "fixed", *flag,
                 "--budget", "1e4", "--out", str(out)]) == 1
    run_error = capsys.readouterr().err
    assert "error:" in run_error and "--sigma-fixed" in run_error
    assert not out.exists()
    # the dp runs come first, and none of them starts
    bench_dir = tmp_path / "logs"
    assert main(["bench", "--problems", "norm2", "--algos", "dpmads", "fixed", *flag,
                 "--seeds", "0", "--budget", "1e4", "--workers", "1",
                 "--out-dir", str(bench_dir)]) == 1
    assert capsys.readouterr().err == run_error
    assert not bench_dir.exists()


def test_bench_zero_workers_exits_1_before_any_run(tmp_path, capsys):
    bench_dir = tmp_path / "logs"
    code = main(
        ["bench", "--problems", "norm2", "--algos", "dpmads", "--seeds", "0",
         "--workers", "0", "--out-dir", str(bench_dir)]
    )
    assert code == 1
    assert "--workers" in capsys.readouterr().err
    assert not bench_dir.exists()


def test_bench_unknown_algo_exits_1_before_any_run(tmp_path, capsys):
    bench_dir = tmp_path / "logs"
    code = main(
        ["bench", "--problems", "norm2", "--algos", "dpmads", "xx", "--seeds", "0",
         "--out-dir", str(bench_dir)]
    )
    assert code == 1
    assert "invalid choice: 'xx'" in capsys.readouterr().err
    assert not bench_dir.exists()


def test_bench_keeps_going_past_a_failed_run(tmp_path, monkeypatch, capsys):
    # seed 1 raises; workers=1 runs every task in this process
    real_run = cli.run

    def run(problem, config):
        if config.seed == 1:
            raise InvalidSigmaError("sigma past the floor")
        return real_run(problem, config)

    monkeypatch.setattr(cli, "run", run)
    bench_dir = tmp_path / "logs"
    code = main(
        ["bench", "--problems", "norm2", "--algos", "dpmads", "--seeds", "0", "1", "2",
         "--budget", "1e4", "--workers", "1", "--out-dir", str(bench_dir)]
    )
    assert code == 1
    assert "1 of 3 runs failed" in capsys.readouterr().err
    manifest = (bench_dir / "manifest.csv").read_text().splitlines()
    ok = [str(bench_dir / f"norm2__dpmads__s{seed}.csv") for seed in (0, 2)]
    assert manifest == [
        "problem,algo,seed,path,status",
        f"norm2,dpmads,0,{ok[0]},ok",
        "norm2,dpmads,1,,failed:InvalidSigmaError",
        f"norm2,dpmads,2,{ok[1]},ok",
    ]
    assert sorted(str(p) for p in bench_dir.glob("norm2__*.csv")) == ok

"""Command-line interface: subcommands, exit codes, file outputs."""

import os
import re
from pathlib import Path

import pytest

from apmads import InvalidSigmaError, SolverConfig, cli
from apmads.cli import UsageError, bench_workers, load_config_file, main


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


def test_usage_error_exits_1():
    assert main(["run", "--problem", "norm2"]) == 1  # --out missing
    assert main(["nonsense"]) == 1


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
    # the sigma schedule's keys; sigma_max = 2 is above norm2's cap of 1
    "sigma_max = inf", "theta = 0", "sigma_min = -1", "r0 = nan", "theta = abc",
    "sigma_max = 2",
    # with no --algo the variant picks the algorithm; it is not replaced by dp
    "variant = xx",
])
def test_config_file_non_finite_value_exits_1(tmp_path, capsys, line):
    cfg = tmp_path / "solver.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "x.csv"
    code = main(["run", "--problem", "norm2", "--config", str(cfg), "--out", str(out)])
    assert code == 1
    assert line.split()[0] in capsys.readouterr().err
    assert not out.exists()


def test_readme_lists_the_config_keys_in_order():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    paragraph = readme[readme.index("`--config FILE`"):].split("\n\n", 1)[0]
    spans = re.findall(r"`([^`]*)`", paragraph[paragraph.index("Keys:"):])
    keys = [key.strip() for span in spans for key in span.split(",")]
    assert tuple(keys) == cli._CONFIG_KEYS


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
    real_execute_run = cli._execute_run

    def execute_run(problem_name, algo, seed, *args):
        if seed == 1:
            raise InvalidSigmaError("sigma past the floor")
        return real_execute_run(problem_name, algo, seed, *args)

    monkeypatch.setattr(cli, "_execute_run", execute_run)
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

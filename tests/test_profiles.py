"""Profile computations on hand-built logs with known answers."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apmads import (
    DegenerateNormalizationError,
    InvalidInputError,
    RunResult,
    SolverConfig,
    accuracy,
    accuracy_curve,
    budget_to_solve,
    data_profile,
    make_run_result,
    performance_profile,
    problem_registry,
    run,
    validate_records,
)
from apmads import profiles
from apmads.mesh import IterationStatus
from apmads.profiles import (
    ACCURACY_HEADER,
    SolveBudgets,
    accuracy_csv,
    convergence_csv,
    data_profile_csv,
    log_outputs,
    performance_profile_csv,
    run_outputs,
)
from apmads.solver import IterationRecord, log_to_csv, parse_log


def record(k, draws, inc, delta_p=1.0):
    """Log row with consistent plumbing fields."""
    return IterationRecord(
        k=k,
        draws=draws,
        incumbent=inc,
        f_inc=0.0,
        sig_inc=1.0,
        delta_p=delta_p,
        delta_m=min(delta_p, delta_p**2),
        r=0.0,
        p=0.5,
        status=IterationStatus.FAILURE,
        cache_size=k,
    )


def synthetic_result(algorithm, seed, pairs, problem="synth"):
    """Run result with direct control of the (draws, truth) trace.

    Truth decreases from 0 at the start toward -10 at the optimum; the
    incumbent coordinate IS the truth value.
    """
    records = [record(k, draws, (truth,)) for k, (draws, truth) in enumerate(pairs, 1)]
    return RunResult(
        algorithm=algorithm,
        problem=problem,
        seed=seed,
        records=records,
        truth_trace=[truth for _, truth in pairs],
        start_truth=0.0,
        best_truth=-10.0,
    )


def test_accuracy_endpoints():
    res = synthetic_result("a", 0, [(10.0, 0.0), (100.0, -10.0)])
    assert accuracy(res, 10.0) == 0.0  # still at the start value
    assert accuracy(res, 100.0) == 1.0  # at the optimum
    assert accuracy(res, 5.0) == 0.0  # before any logged budget


def test_accuracy_step_semantics():
    res = synthetic_result("a", 0, [(10.0, -1.0), (100.0, -5.0), (1000.0, -9.0)])
    assert accuracy(res, 10.0) == pytest.approx(0.1)
    assert accuracy(res, 99.0) == pytest.approx(0.1)
    assert accuracy(res, 100.0) == pytest.approx(0.5)
    assert accuracy(res, 1e9) == pytest.approx(0.9)


def test_accuracy_best_so_far_monotone_despite_regression():
    res = synthetic_result("a", 0, [(10.0, -5.0), (100.0, -2.0), (1000.0, -4.0)])
    _, facc = accuracy_curve(res)
    assert list(facc) == [0.5, 0.5, 0.5]
    assert all(b >= a for a, b in zip(facc, facc[1:]))


def test_accuracy_curve_is_computed_once_per_result(monkeypatch):
    res = synthetic_result("a", 0, [(10.0, -1.0), (100.0, -5.0)])
    fresh = synthetic_result("a", 0, [(10.0, -1.0), (100.0, -5.0)])
    calls = []
    monkeypatch.setattr(
        profiles, "accuracy_curve", lambda run: calls.append(run) or accuracy_curve(run)
    )
    acc, _ = run_outputs(res)
    # one curve serves the accuracy rows
    assert calls == [res]
    budgets, facc = accuracy_curve(res)
    assert not budgets.flags.writeable and not facc.flags.writeable
    assert [row.rsplit(",", 1)[1] for row in acc.splitlines()] == ["0.10000000000000001", "0.5"]
    assert res == fresh


def test_a_tau_outside_the_unit_interval_or_a_negative_budget_raises():
    res = synthetic_result("a", 0, [(10.0, -1.0)])
    for tau in (0.0, 1.0, -0.5, 2.0, math.nan):
        with pytest.raises(InvalidInputError, match="tau must lie in"):
            budget_to_solve(res, tau)
    with pytest.raises(InvalidInputError, match="budget must be >= 0"):
        accuracy(res, -1.0)


def test_accuracy_degenerate_normalisation():
    res = synthetic_result("a", 0, [(10.0, 0.0)])
    res.best_truth = 0.0
    with pytest.raises(DegenerateNormalizationError):
        accuracy(res, 10.0)


def test_budget_to_solve():
    res = synthetic_result("a", 0, [(10.0, -1.0), (100.0, -5.0), (1000.0, -9.99)])
    assert budget_to_solve(res, tau=0.5) == 100.0
    assert budget_to_solve(res, tau=1e-3) == 1000.0
    assert budget_to_solve(res, tau=1e-4) == math.inf


def test_budget_to_solve_immediate():
    res = synthetic_result("a", 0, [(10.0, -10.0)])
    assert budget_to_solve(res, tau=0.5) == 10.0


def test_performance_profile_two_algorithms():
    fast = synthetic_result("fast", 0, [(100.0, -10.0)])
    slow = synthetic_result("slow", 0, [(200.0, -10.0)])
    alphas, fractions = performance_profile([fast, slow], tau=0.5)
    assert list(alphas) == [1.0, 2.0]
    assert list(fractions["fast"]) == [1.0, 1.0]
    assert list(fractions["slow"]) == [0.0, 1.0]


def test_performance_profile_never_solving_algorithm():
    good = synthetic_result("good", 0, [(100.0, -10.0)])
    bad = synthetic_result("bad", 0, [(100.0, -0.1)])
    alphas, fractions = performance_profile([good, bad], tau=0.5)
    assert all(f == 0.0 for f in fractions["bad"])
    assert all(f == 1.0 for f in fractions["good"])


def test_performance_profile_multiple_instances():
    results = [
        synthetic_result("a", 0, [(100.0, -10.0)]),
        synthetic_result("a", 1, [(300.0, -10.0)]),
        synthetic_result("b", 0, [(200.0, -10.0)]),
        synthetic_result("b", 1, [(150.0, -10.0)]),
    ]
    alphas, fractions = performance_profile(results, tau=0.5)
    assert list(alphas) == [1.0, 2.0]
    assert list(fractions["a"]) == [0.5, 1.0]
    assert list(fractions["b"]) == [0.5, 1.0]


def test_performance_profile_monotone_bounded_terminal():
    results = [
        synthetic_result("a", 0, [(100.0, -10.0)]),
        synthetic_result("a", 1, [(900.0, -0.1)]),  # never solves this instance
        synthetic_result("b", 0, [(300.0, -10.0)]),
        synthetic_result("b", 1, [(200.0, -10.0)]),
    ]
    alphas, fractions = performance_profile(results, tau=0.5)
    for algo, values in fractions.items():
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(b >= a for a, b in zip(values, values[1:]))
    # the terminal value is each algorithm's plain solve fraction
    assert fractions["a"][-1] == 0.5
    assert fractions["b"][-1] == 1.0


def test_data_profile_reference_scaling():
    res = synthetic_result("a", 0, [(3e6, -10.0)])
    groups, fractions = data_profile([res], tau=0.5, sigma_ref=1e-3)
    assert list(groups) == [3.0]
    assert list(fractions["a"]) == [1.0]


def test_data_profile_zero_budget_unsolved():
    res = synthetic_result("a", 0, [(100.0, -0.5)])
    groups, fractions = data_profile([res], tau=0.5, sigma_ref=1e-3)
    assert all(f == 0.0 for f in fractions["a"])


def test_profiles_count_a_missing_run_as_unsolved():
    # "b" has no run on instance 1, so it solves half of the instances
    results = [
        synthetic_result("a", 0, [(2e6, -10.0)]),
        synthetic_result("a", 1, [(4e6, -10.0)]),
        synthetic_result("b", 0, [(1e6, -10.0)]),
    ]
    alphas, fractions = performance_profile(results, tau=0.5)
    assert list(alphas) == [1.0, 2.0]
    assert list(fractions["a"]) == [0.5, 1.0]
    assert list(fractions["b"]) == [0.5, 0.5]
    groups, fractions = data_profile(results, tau=0.5)
    assert list(groups) == [1.0, 2.0, 4.0]
    assert list(fractions["a"]) == [0.0, 0.5, 1.0]
    assert list(fractions["b"]) == [0.5, 0.5, 0.5]


@pytest.mark.parametrize("profile", [performance_profile, data_profile])
def test_profiles_reject_no_runs_and_duplicate_runs(profile):
    with pytest.raises(InvalidInputError, match="no runs given"):
        profile([], tau=0.5)
    twice = [synthetic_result("a", 0, [(100.0, -10.0)])] * 2
    with pytest.raises(InvalidInputError, match="duplicate run"):
        profile(twice, tau=0.5)


def test_profile_csvs_deterministic():
    results = [
        synthetic_result("a", 0, [(100.0, -10.0), (200.0, -10.0)]),
        synthetic_result("b", 0, [(150.0, -10.0)]),
    ]
    assert performance_profile_csv(results, 0.5) == performance_profile_csv(results, 0.5)
    assert data_profile_csv(results, 0.5) == data_profile_csv(results, 0.5)
    assert accuracy_csv(results) == accuracy_csv(results)
    lines = performance_profile_csv(results, 0.5).splitlines()
    assert lines[0] == "alpha,algo,fraction"
    assert data_profile_csv(results, 0.5).splitlines()[0] == "groups,algo,fraction"
    assert accuracy_csv(results).splitlines()[0] == "budget,algo,problem,seed,f_acc"


def test_convergence_csv_shape():
    res = synthetic_result("a", 0, [(10.0, -1.0), (100.0, -2.0)])
    lines = convergence_csv(res).splitlines()
    assert lines[0] == "draws,f_true_inc,f_inc,sig_inc"
    assert len(lines) == 3
    assert lines[1].split(",")[1] == "-1"


def test_accuracy_csv_is_the_header_and_the_rows_of_each_run_in_order():
    results = [
        synthetic_result("b", 1, [(10.0, -1.0), (150.0, -10.0)]),
        synthetic_result("a", 0, [(100.0, -9.0), (200.0, -10.0)]),
        synthetic_result("a", 1, [(50.0, -2.0)]),
        synthetic_result("b", 0, []),
    ]
    outputs = [run_outputs(r) for r in results]
    assert [conv for _, conv in outputs] == [convergence_csv(r) for r in results]
    # sorted by (algorithm, problem, seed): a0, a1, b0 (no rows), b1
    assert accuracy_csv(results) == "".join(
        [ACCURACY_HEADER] + [outputs[i][0] for i in (1, 2, 3, 0)])
    assert accuracy_csv(results).splitlines()[1:] == [
        "100,a,synth,0,0.90000000000000002", "200,a,synth,0,1",
        "50,a,synth,1,0.20000000000000001", "10,b,synth,1,0.10000000000000001",
        "150,b,synth,1,1"]


def test_solve_budgets_give_the_profiles_of_their_results():
    # apmads profile keeps only these budgets of each log, for the perf/data files
    results = [
        synthetic_result("b", 1, [(10.0, -1.0), (150.0, -10.0)]),
        synthetic_result("a", 0, [(100.0, -9.0), (200.0, -10.0)]),
        synthetic_result("a", 1, [(50.0, -2.0)]),
        synthetic_result("b", 0, []),
    ]
    taus = (0.5, 0.01)
    solved = [SolveBudgets(r.algorithm, r.problem, r.seed,
                           tuple((tau, budget_to_solve(r, tau)) for tau in taus))
              for r in results]
    assert solved[1].budgets == ((0.5, 100.0), (0.01, 200.0))
    for tau in taus:
        assert performance_profile_csv(solved, tau) == performance_profile_csv(results, tau)
        assert data_profile_csv(solved, tau, 1e-1) == data_profile_csv(results, tau, 1e-1)
    with pytest.raises(InvalidInputError, match="no solve budget at tau=0.1 for"):
        budget_to_solve(solved[0], 0.1)
    with pytest.raises(InvalidInputError, match="duplicate run"):
        performance_profile(solved + solved[:1], 0.5)


def test_make_run_result_reuses_truth_only_for_equal_nonzero_incumbents():
    asked = []

    def truth(x):
        asked.append(x)
        return math.copysign(1.0, x[0]) + x[1]  # tells -0.0 from 0.0

    problem = dataclasses.replace(problem_registry("norm2"), truth=truth)
    incumbents = [
        (1.0, 2.0), (1.0, 2.0),  # the repeat reuses its truth
        (0.0, 2.0), (-0.0, 2.0), (-0.0, 2.0),  # equal to 0.0, so always asked
        (float("nan"), 2.0), (float("nan"), 2.0),  # never equal, so always asked
        (1.0, 2.0),
    ]
    records = [record(k, 10.0 * k, x) for k, x in enumerate(incumbents, 1)]
    res = make_run_result(problem, "dpmads", 0, records)
    # one row fewer than the log, besides the start point of start_truth
    assert [x for x in asked if x is not problem.start] == incumbents[:1] + incumbents[2:]
    assert res.truth_trace == [truth(x) for x in incumbents] == [3, 3, 3, 1, 1, 3, 3, 3]


def test_make_run_result_norm2_accuracy():
    # an incumbent at a tenth of the start norm sits at accuracy 0.9
    problem = problem_registry("norm2")
    start_norm = problem.start_truth
    scale = 0.1
    inc = (problem.start[0] * scale, problem.start[1] * scale)
    records = [record(1, 50.0, problem.start), record(2, 500.0, inc)]
    res = make_run_result(problem, "dpmads", 0, records)
    assert res.truth_trace[0] == pytest.approx(start_norm, rel=1e-15)
    assert accuracy(res, 50.0) == pytest.approx(0.0, abs=1e-15)
    assert accuracy(res, 500.0) == pytest.approx(0.9, rel=1e-12)


def test_validate_records_on_real_run():
    problem = problem_registry("moustache")
    out = run(problem, SolverConfig(variant="dp", seed=1, stop_draws=1e6))
    checks = validate_records(out.records, problem=problem, variant="dp")
    assert checks
    assert all(ok for _, ok, _ in checks)


def test_validate_records_detects_corruption():
    problem = problem_registry("norm2")
    out = run(problem, SolverConfig(variant="mp", seed=1, stop_draws=1e5))
    records = list(out.records)
    broken = IterationRecord(
        k=records[-1].k + 1,
        draws=records[-1].draws - 1.0,  # draws regress
        incumbent=records[-1].incumbent,
        f_inc=0.0,
        sig_inc=1.0,
        delta_p=0.5,
        delta_m=0.3,  # violates the coupling
        r=records[-1].r - 5.0,  # monotone variant cannot decrease
        p=0.5,
        status=IterationStatus.FAILURE,
        cache_size=1,
    )
    checks = dict(
        (name, ok) for name, ok, _ in validate_records(records + [broken], variant="mp")
    )
    assert not checks["draws-nondecreasing"]
    assert not checks["mesh-frame-coupling"]
    assert not checks["r-nondecreasing"]


# the taus at which log_outputs is checked against budget_to_solve
TAUS = (0.5, 1e-2, 1e-3)


def record_outputs(problem, algorithm, seed, text):
    """The outputs of ``text`` computed from its records: the reference of ``log_outputs``."""
    result = make_run_result(problem, algorithm, seed, parse_log(text))
    return (tuple(budget_to_solve(result, tau) for tau in TAUS), *run_outputs(result))


def assert_same_outputs(ours, reference):
    (budgets, acc, conv), (ref_budgets, ref_acc, ref_conv) = ours, reference
    assert [b.hex() for b in budgets] == [b.hex() for b in ref_budgets]
    # f_acc in %.17g round-trips each double, so the rows pin the whole curve
    assert (acc, conv) == (ref_acc, ref_conv)


# values the writer logs, zeros of both signs and infinities among them
LOGGED = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 0.1, math.inf, -math.inf]),
                   st.floats(allow_nan=False))


@st.composite
def writer_logs(draw):
    """(problem, log text) of records that ``log_to_csv`` writes: repeated incumbents,
    coordinates of 0.0 and -0.0, moustache's start (truth -0.0), draws up to about 1e308."""
    problem = problem_registry(draw(st.sampled_from(["norm2", "moustache"])))
    points = [problem.start, (0.0, 2.0), (-0.0, 2.0), (0.0, -0.0), (1.5, 2.25), (-3.0, 1e-300)]
    n = draw(st.integers(0, 30))
    incumbents = draw(st.lists(st.one_of(st.sampled_from(points),
                                         st.tuples(LOGGED, LOGGED).filter(
                                             lambda x: all(map(math.isfinite, x)))),
                               min_size=n, max_size=n))
    draws = sorted(draw(st.lists(st.floats(0.0, 1.7e308), min_size=n, max_size=n)))
    records = [
        IterationRecord(
            k=k, draws=d, incumbent=x, f_inc=draw(st.one_of(LOGGED, st.just(math.nan))),
            sig_inc=draw(LOGGED), delta_p=draw(LOGGED), delta_m=draw(LOGGED), r=draw(LOGGED),
            p=draw(LOGGED), status=draw(st.sampled_from(IterationStatus)),
            cache_size=draw(st.integers(0, 10**6)),
        )
        for k, (d, x) in enumerate(zip(draws, incumbents), start=1)
    ]
    return problem, log_to_csv(records, problem.dimension)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(log=writer_logs(), algorithm=st.sampled_from(["dpmads", "mpmads", "fixed"]))
def test_a_writer_log_renders_the_bytes_of_its_records(log, algorithm):
    # log_outputs copies the log's draws, f_inc and sig_inc fields, which
    # write_log formats with %.17g, as run_outputs formats the records
    problem, text = log
    ours = log_outputs(problem, algorithm, 3, text, TAUS)
    assert_same_outputs(ours, record_outputs(problem, algorithm, 3, text))
    # each derived value is formatted as itself, -0.0 apart from 0.0
    result = make_run_result(problem, algorithm, 3, parse_log(text))
    _, acc, conv = ours
    assert [row.split(",")[1] for row in conv.splitlines()[1:]] == [
        "%.17g" % truth for truth in result.truth_trace]
    assert [row.rsplit(",", 1)[1] for row in acc.splitlines()] == [
        "%.17g" % f for f in accuracy_curve(result)[1].tolist()]


def test_a_hand_edited_log_is_copied_as_written():
    # the fields are valid floats, but not in %.17g form
    problem = problem_registry("norm2")
    text = (
        "k,draws,inc0,inc1,f_inc,sig_inc,delta_p,delta_m,r,p,status,cache_size\n"
        "1,1e3,0.5,-1,2.50,0.1,1,1,0,0.75,S,5\n"
        "2,2000.0,0.5,-1.0,+2.5,1E-1,1,1,0,0.75,F,5\n"
        "3,3e+03,0.25,0.125,0.1,.1,1,1,0,0.75,S,6\n"
    )
    budgets, acc, conv = log_outputs(problem, "dpmads", 0, text, TAUS)
    assert budgets == record_outputs(problem, "dpmads", 0, text)[0] == (1e3, math.inf, math.inf)
    assert [row.split(",")[0] for row in acc.splitlines()] == ["1e3", "2000.0", "3e+03"]
    assert [row.split(",")[::2] for row in conv.splitlines()[1:]] == [
        ["1e3", "2.50"], ["2000.0", "+2.5"], ["3e+03", "0.1"]]
    assert [row.split(",")[3] for row in conv.splitlines()[1:]] == ["0.1", "1E-1", ".1"]
    # the numbers are those of the canonical log, and so are its profiles
    canonical = log_to_csv(parse_log(text))
    assert canonical != text
    ref_budgets, ref_acc, ref_conv = log_outputs(problem, "dpmads", 0, canonical, TAUS)
    assert ref_acc.splitlines()[0].split(",")[0] == "1000"
    assert budgets == ref_budgets
    run, ref_run = (SolveBudgets("dpmads", "norm2", 0, tuple(zip(TAUS, b)))
                    for b in (budgets, ref_budgets))
    for tau in TAUS:
        assert performance_profile_csv([run], tau) == performance_profile_csv([ref_run], tau)
        assert data_profile_csv([run], tau) == data_profile_csv([ref_run], tau)
    # every field but the copied ones is formatted as in the canonical log
    assert [row.split(",")[1:] for row in acc.splitlines()] == [
        row.split(",")[1:] for row in ref_acc.splitlines()]


def test_log_outputs_refuses_a_log_as_the_record_path_does():
    problem = problem_registry("norm2")
    header = "k,draws,inc0,inc1,f_inc,sig_inc,delta_p,delta_m,r,p,status,cache_size\n"
    wide = "k,draws,inc0,inc1,inc2,f_inc,sig_inc,delta_p,delta_m,r,p,status,cache_size\n"
    flat = dataclasses.replace(problem, best_truth=problem.start_truth)
    for prob, text in [
        (problem, ""),
        (problem, header + "1,44,0.5,-1,2.5,0.25,1,1,0,0.75,Z,5\n"),
        (problem, header + "1,44,0.5,-1,2.5,0.25,1,nan,0,0.75,S,5\n"),
        (problem, wide + "4,44,0.5,-1,0,2.5,0.25,1,1,0,0.75,S,5\n"),
        (flat, header),
    ]:
        with pytest.raises(Exception) as ours:
            log_outputs(prob, "dpmads", 0, text, TAUS)
        with pytest.raises(Exception) as reference:
            record_outputs(prob, "dpmads", 0, text)
        assert (type(ours.value), str(ours.value)) == (
            type(reference.value), str(reference.value))
        assert isinstance(ours.value, (InvalidInputError, DegenerateNormalizationError))


def test_a_header_only_log_never_solves():
    # the log of a run stopped before its first iteration
    problem = problem_registry("moustache")
    text = log_to_csv([], problem.dimension)
    ours = log_outputs(problem, "mpmads", 2, text, TAUS)
    assert_same_outputs(ours, record_outputs(problem, "mpmads", 2, text))
    assert ours == ((math.inf,) * len(TAUS), "", "draws,f_true_inc,f_inc,sig_inc\n")

"""Solver loops: poll/search steps, run invariants, baseline, log format."""

import dataclasses
import io
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import apmads.blackbox
import apmads.solver
from apmads import (
    ConfigError,
    InfeasibleStartError,
    InvalidInputError,
    InvalidSigmaError,
    ProblemDef,
    SolverConfig,
    log_to_csv,
    parse_log,
    problem_registry,
    run,
    validate_records,
    write_log,
)
from apmads.blackbox import NoisyBlackbox, Observation, draws_for_sigma
from apmads.estimation import EvaluationCache, plausible_rows, sigma_to_reach
from apmads.mesh import IterationStatus, generate_poll, on_mesh
from apmads.normal import phi_inv
from apmads.precision import rho
from apmads.problems import norm2_feasible
from apmads.solver import observe_points, poll_step, search_step

from oracles import cache_state, log_rows_fieldwise, parse_log_rowwise
from test_golden_logs import golden_run


class StubRng:
    """Fixed poll direction, noise-free observations.

    Observation noise and the poll direction are both sized draws, so the
    stub tells them apart by caller: the blackbox's observation batch gets
    zeros (no noise), every other draw gets ones (the poll direction).
    """

    def standard_normal(self, size=None):
        if size is None:
            return 0.0
        if sys._getframe(1).f_code.co_name == "observe_batch":
            return np.zeros(size)
        return np.ones(size)


def make_blackbox(truth, feasible=lambda x: True, dimension=2):
    return NoisyBlackbox(truth, feasible, dimension)


def candidates(coords):
    """The poll's candidates as tuples, in generation order."""
    return list(map(tuple, coords.tolist()))


def test_stub_rng_is_noise_free_with_fixed_direction():
    bb = make_blackbox(lambda x: math.hypot(*x))
    points = [(3.0, 4.0), (1.0, 0.0), (0.0, 2.0)]
    values, _ = bb.observe_batch(np.array(points), [0.5, 0.25, 1.0], StubRng())
    assert values == [5.0, 1.0, 2.0]
    assert bb.observe((3.0, 4.0), 0.5, StubRng()).value == 5.0
    first = generate_poll((0.0, 0.0), 1.0, StubRng())
    again = generate_poll((0.0, 0.0), 1.0, StubRng())
    assert np.array_equal(again, first)


def test_poll_step_barrier_when_no_candidate_feasible():
    center = (0.0, 0.0)
    bb = make_blackbox(lambda x: 0.0, feasible=lambda x: x == center)
    cache = EvaluationCache()
    x_c, status, coords = poll_step(
        center, 1.0, 0.0, SolverConfig(), cache, bb, np.random.default_rng(0)
    )
    assert status is IterationStatus.BARRIER
    assert x_c is None
    assert all(not cache.feasible_at(cache.row(x)) for x in candidates(coords))
    # barrier candidates cost nothing; only the center was observed
    assert len(bb.ledger) == 1


def test_poll_step_success_and_generation_order_tiebreak():
    bb = make_blackbox(lambda x: math.hypot(*x))
    cache = EvaluationCache()
    x_c, status, coords = poll_step((1.0, 1.0), 1.0, 0.0, SolverConfig(), cache, bb, StubRng())
    assert status is IterationStatus.SUCCESS
    # noise-free: both (1,0) and (0,1) estimate to 1; the first generated wins
    assert x_c == candidates(coords)[0]
    assert cache.estimate(x_c)[0] < cache.estimate((1.0, 1.0))[0]


def test_poll_step_failure_at_optimum():
    bb = make_blackbox(lambda x: math.hypot(*x))
    cache = EvaluationCache()
    x_c, status, _ = poll_step((0.0, 0.0), 1.0, 0.0, SolverConfig(), cache, bb, StubRng())
    assert status is IterationStatus.FAILURE
    assert cache.estimate(x_c)[0] > 0.0


def test_poll_step_skips_already_precise_center():
    bb = make_blackbox(lambda x: 1.0)
    cache = EvaluationCache()
    center = (0.0, 0.0)
    cache.record(center, Observation(1.0, 0.01))  # tighter than rho(0) = 0.5
    _, _, coords = poll_step(center, 1.0, 0.0, SolverConfig(), cache, bb, StubRng())
    # one charge per candidate, none for the center
    assert len(bb.ledger) == len(coords)
    assert cache.estimate(center) == (1.0, 0.01)


def test_poll_step_enforces_sigma_target():
    bb = make_blackbox(lambda x: math.hypot(*x))
    cache = EvaluationCache()
    rng = np.random.default_rng(5)
    config = SolverConfig()
    for r in (0.0, 3.0, 7.0):
        _, _, coords = poll_step((1.0, 1.0), 0.5, r, config, cache, bb, rng)
        target = rho(config, r)
        for x in (*candidates(coords), (1.0, 1.0)):
            _, sigk = cache.estimate(x)
            assert sigk <= target * (1.0 + 1e-12)


def test_search_step_no_qualifying_point():
    # tau above 0.5 excludes even the incumbent's self-comparison
    bb = make_blackbox(lambda x: math.hypot(*x))
    cache = EvaluationCache()
    inc = (1.0, 0.0)
    cache.record(inc, Observation(1.0, 0.1))
    cache.record((5.0, 0.0), Observation(5.0, 0.1))
    x_s = search_step(cache, inc, 0.0, SolverConfig(tau=0.6), bb, StubRng())
    assert x_s == inc
    assert bb.ledger.total_draws == 0.0


def test_search_step_audits_incumbent_estimate():
    # a lucky low estimate at the incumbent is pulled back toward truth
    bb = make_blackbox(lambda x: 2.0)
    cache = EvaluationCache()
    inc = (0.0, 0.0)
    cache.record(inc, Observation(-5.0, 0.5))
    x_s = search_step(cache, inc, 40.0, SolverConfig(), bb, StubRng())
    assert x_s == inc
    # one audit observation, at rho(r - r_s)
    assert list(bb.ledger.sigmas) == [rho(SolverConfig(), 45.0)]
    assert cache.estimate(inc)[0] == pytest.approx(2.0, abs=1e-3)


def test_search_step_on_an_empty_cache_observes_nothing():
    bb = make_blackbox(lambda x: 1.0)
    cache = EvaluationCache()
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    inc = (1.0, 2.0)
    assert search_step(cache, inc, 0.0, SolverConfig(), bb, rng) == inc
    assert rng.bit_generator.state == before
    assert len(bb.ledger) == 0 and bb.ledger.total_draws == 0.0
    assert len(cache) == 0


def test_search_step_recovers_better_cached_point():
    truths = {(0.0, 0.0): 2.0, (1.0, 0.0): 0.0}
    bb = make_blackbox(lambda x: truths[x])
    cache = EvaluationCache()
    cache.record((0.0, 0.0), Observation(1.0, 0.5))  # incumbent, lucky estimate
    cache.record((1.0, 0.0), Observation(1.1, 0.5))  # truly better point
    x_s = search_step(cache, (0.0, 0.0), 40.0, SolverConfig(), bb, StubRng())
    assert x_s == (1.0, 0.0)


def test_a_dp_solve_rescans_the_cache_only_while_its_incumbent_row_is_unknown(monkeypatch):
    # the golden case norm2-n20-dp-s0 (150 iterations): the search and the
    # loop each ask for the incumbent once an iteration, and the full
    # argmin runs only after a batch raised the kept row's estimate (the
    # search's re-audit, mostly) or marked it infeasible
    calls = {"incumbent": 0, "scan": 0}

    def counted(name, method):
        def wrapper(self):
            calls[name] += 1
            return method(self)
        return wrapper

    monkeypatch.setattr(EvaluationCache, "incumbent",
                        counted("incumbent", EvaluationCache.incumbent))
    monkeypatch.setattr(EvaluationCache, "_argmin_row",
                        counted("scan", EvaluationCache._argmin_row))
    out = golden_run("norm2-n20-dp-s0")
    assert len(out.records) == 150
    assert calls == {"incumbent": 299, "scan": 112}


@pytest.mark.parametrize("algo", ["dp", "mp", "fixed"])
def test_run_zero_budget_returns_start(algo):
    problem = problem_registry("norm2")
    sigma_fixed = 1e-3 if algo == "fixed" else None
    out = run(problem, SolverConfig(variant=algo, sigma_fixed=sigma_fixed, stop_draws=0.0))
    assert out.incumbent == problem.start
    assert out.records == []
    assert out.ledger.total_draws == 0.0
    assert out.stop_reason == "budget"


@pytest.mark.parametrize("variant", ["dp", "mp"])
def test_run_stop_reasons_budget_and_iteration_cap(variant):
    problem = problem_registry("norm2")
    out = run(problem, SolverConfig(variant=variant, seed=5, stop_draws=1e4))
    assert out.stop_reason == "budget"
    assert out.records[-1].draws >= 1e4 > out.records[-2].draws
    out = run(problem, SolverConfig(variant=variant, seed=5, max_iterations=3))
    assert out.stop_reason == "max_iterations"
    assert len(out.records) == 3


def _flat_norm2_at_origin():
    # every comparison stays uncertain, so the precision index keeps climbing
    return dataclasses.replace(
        problem_registry("norm2"), truth=lambda x: 0.0, start=(0.0, 0.0)
    )


def lin_problem() -> ProblemDef:
    """-x[0] over the whole plane: the frame keeps doubling towards the largest float."""
    return ProblemDef(name="lin", dimension=2, start=(0.0, 0.0), truth=lambda x: -x[0],
                      feasible=norm2_feasible, best_truth=-1e300, stop_delta_p=1e-10)


STOP_REASONS = {"frame", "budget", "max_iterations", "precision-floor"}


def assert_clean_end(problem, config, out):
    """A documented stop, a log that round-trips and validates, and the ledger's total."""
    assert out.stop_reason in STOP_REASONS
    assert out.ledger.total_draws == (out.records[-1].draws if out.records else 0.0)
    assert parse_log(log_to_csv(out.records, problem.dimension)) == out.records
    checks = validate_records(out.records, problem, config.variant)
    assert [name for name, ok, _ in checks if not ok] == []


@pytest.mark.parametrize("variant, sigma_fixed", [
    ("dp", None), ("mp", None), ("fixed", 1.0), ("fixed", 1e-3),
])
def test_a_run_that_polls_past_the_largest_float_ends_cleanly(variant, sigma_fixed):
    # near k = 1024 a poll candidate's first coordinate overflows to inf: it
    # is dropped, the run goes on, and an overflowing estimate then stops it
    problem = lin_problem()
    config = SolverConfig(variant=variant, sigma_fixed=sigma_fixed, max_iterations=5000)
    out = run(problem, config)
    assert_clean_end(problem, config, out)
    assert out.stop_reason in ("frame", "precision-floor")
    assert len(out.records) > 1000


def test_run_stops_at_precision_floor_when_the_ledger_overflows():
    # the draw costs near rho(1534) are finite, but their sum overflows
    config = SolverConfig(variant="mp", r_init=1520.0, stop_delta_p=1e-300, seed=0)
    out = run(_flat_norm2_at_origin(), config)
    assert out.stop_reason == "precision-floor"
    assert len(out.records) == 15
    assert out.records[-1].draws == math.inf
    assert all(math.isfinite(rec.draws) for rec in out.records[:-1])
    assert_clean_end(_flat_norm2_at_origin(), config, out)


@pytest.mark.parametrize("variant", ["dp", "mp"])
def test_run_stops_at_precision_floor_when_the_estimates_overflow(variant):
    # rho(1534) has a finite draw cost, but its weight 1 / rho**2 times the
    # start's value (about 11.8) overflows every fusion sum of the first poll
    config = SolverConfig(variant=variant, search_enabled=False, r_init=1534.0, seed=0)
    out = run(problem_registry("norm2"), config)
    assert out.stop_reason == "precision-floor"
    assert out.cache.overflowed
    assert len(out.records) == 1
    last = out.records[-1]
    assert last.f_inc == math.inf and last.status is IterationStatus.BARRIER
    assert last.incumbent == out.incumbent == problem_registry("norm2").start
    assert_clean_end(problem_registry("norm2"), config, out)


@pytest.mark.parametrize("offset", [100.0, -100.0])
def test_run_stops_at_precision_floor_when_an_estimate_overflows_mid_run(offset):
    # the second iteration's search and poll overflow a fusion sum: to +inf
    # beside finite estimates, or to -inf (which would otherwise win)
    problem = dataclasses.replace(
        problem_registry("norm2"), truth=lambda x: offset + math.hypot(*x)
    )
    config = SolverConfig(variant="dp", r_init=1526.0, seed=0)
    out = run(problem, config)
    assert out.stop_reason == "precision-floor"
    assert out.cache.overflowed
    assert len(out.records) == 2
    # no p-value is computed after the overflow: the row logs 0.5, which its status allows
    assert out.records[-1].p == 0.5
    assert_clean_end(problem, config, out)


@pytest.mark.parametrize("variant", ["dp", "mp"])
def test_run_stops_before_an_unpayable_iteration(variant, monkeypatch):
    # a draw cost with its floor at sigma = 1e-3: the index climbs until
    # the poll's rho(r) (mp) or the search's rho(r - r_s) (dp) falls below it
    def floored_cost(sigma):
        if sigma < 1e-3:
            raise InvalidSigmaError(f"sigma {sigma} is past the floor")
        return draws_for_sigma(sigma)

    monkeypatch.setattr(apmads.blackbox, "draws_for_sigma", floored_cost)
    monkeypatch.setattr(apmads.solver, "draws_for_sigma", floored_cost)
    config = SolverConfig(variant=variant, stop_delta_p=1e-300, seed=0)
    out = run(_flat_norm2_at_origin(), config)
    assert out.stop_reason == "precision-floor"
    assert out.records and math.isfinite(out.ledger.total_draws)
    assert min(out.ledger.sigmas) >= 1e-3


def test_run_rejects_infeasible_start():
    problem = dataclasses.replace(problem_registry("moustache"), start=(0.0, 3.0))
    with pytest.raises(InfeasibleStartError):
        run(problem, SolverConfig(variant="dp"))


def test_config_variant_defaults():
    dp = SolverConfig(variant="dp")
    assert (dp.beta_l, dp.beta_u, dp.search_enabled) == (0.15, 0.85, True)
    mp = SolverConfig(variant="mp")
    assert (mp.beta_l, mp.beta_u, mp.search_enabled) == (0.0003, 0.997, False)


def test_config_fixed_variant():
    fixed = SolverConfig(variant="fixed", sigma_fixed=1e-3)
    assert (fixed.beta_l, fixed.beta_u, fixed.search_enabled) == (0.15, 0.85, False)
    with pytest.raises(ConfigError, match="sigma_fixed"):
        SolverConfig(variant="fixed")
    for variant in ("dp", "mp"):
        with pytest.raises(ConfigError, match="sigma_fixed"):
            SolverConfig(variant=variant, sigma_fixed=1e-3)
    with pytest.raises(ConfigError, match="sigma_fixed"):
        SolverConfig(variant="fixed", sigma_fixed="1e-3")
    with pytest.raises(ConfigError, match="search_enabled"):
        SolverConfig(variant="fixed", sigma_fixed=1e-3, search_enabled=True)
    # fixed has no sigma schedule, but refuses a sigma_min rather than ignore it
    with pytest.raises(ConfigError, match="sigma_min"):
        SolverConfig(variant="fixed", sigma_fixed=1e-3, sigma_min=1e-4)
    with pytest.raises(ConfigError, match="'mp', 'dp', 'fixed'"):
        SolverConfig(variant="nope")


def test_config_rejects_sigma_min_without_search():
    with pytest.raises(ConfigError):
        SolverConfig(variant="mp", sigma_min=0.1)
    # fine when the search step can keep tightening estimates
    SolverConfig(variant="dp", sigma_min=0.1)


def test_config_rejects_bad_fields():
    with pytest.raises(ConfigError):
        SolverConfig(variant="nope")
    with pytest.raises(ConfigError):
        SolverConfig(tau=0.0)
    with pytest.raises(ConfigError):
        SolverConfig(delta_p0=0.0)
    # NaN and inf must not slip past the range checks
    for bad in (math.inf, math.nan):
        with pytest.raises(ConfigError):
            SolverConfig(delta_p0=bad)
    with pytest.raises(ConfigError):
        SolverConfig(stop_draws=math.nan)
    with pytest.raises(ConfigError):
        SolverConfig(stop_draws=-1.0)
    with pytest.raises(ConfigError):
        SolverConfig(beta_l=0.7)
    with pytest.raises(ConfigError, match="stop_delta_p must be positive"):
        SolverConfig(stop_delta_p=0)


def test_run_deterministic_logs():
    problem = problem_registry("norm2")
    config = SolverConfig(variant="dp", seed=21, stop_draws=1e5)
    first = log_to_csv(run(problem, config).records)
    second = log_to_csv(run(problem, config).records)
    assert first == second


def test_run_seeds_differ():
    problem = problem_registry("norm2")
    a = run(problem, SolverConfig(variant="dp", seed=0, stop_draws=1e4))
    b = run(problem, SolverConfig(variant="dp", seed=1, stop_draws=1e4))
    assert log_to_csv(a.records) != log_to_csv(b.records)


def test_run_record_invariants_moustache():
    problem = problem_registry("moustache")
    out = run(problem, SolverConfig(variant="dp", seed=3, stop_draws=3e6))
    records = out.records
    assert records
    draws = [rec.draws for rec in records]
    assert all(b >= a for a, b in zip(draws, draws[1:]))
    assert draws[-1] == out.ledger.total_draws
    for rec in records:
        assert rec.delta_m == min(rec.delta_p, rec.delta_p**2)
        assert 0.0 <= rec.p <= 1.0
        if rec.status is IterationStatus.SUCCESS:
            assert rec.p >= 0.5
        elif rec.status is IterationStatus.FAILURE:
            assert rec.p <= 0.5
    # barrier iterations leave the precision index alone
    for prev, nxt in zip(records, records[1:]):
        if prev.status is IterationStatus.BARRIER:
            assert nxt.r == prev.r
    assert any(rec.status is IterationStatus.BARRIER for rec in records)


def test_run_mp_has_nondecreasing_r():
    problem = problem_registry("norm2")
    out = run(problem, SolverConfig(variant="mp", seed=2, stop_draws=1e6))
    rs = [rec.r for rec in out.records]
    assert all(b >= a for a, b in zip(rs, rs[1:]))
    assert rs[-1] > rs[0]


def test_run_all_evaluated_points_on_mesh():
    problem = problem_registry("moustache")
    out = run(problem, SolverConfig(variant="dp", seed=9, stop_draws=1e6))
    delta_min = min(rec.delta_m for rec in out.records)
    for point in out.cache.coords_at(range(len(out.cache))).tolist():
        assert on_mesh(point, problem.start, delta_min)


def sigma_checking_poll_step(checked: list):
    """``poll_step`` asserting that the poll leaves its feasible points at rho(r).

    After each poll, the centre and every feasible candidate must have
    sigma_hat <= rho(r), up to rounding; each point checked is appended
    to ``checked``. The run itself is unchanged.
    """
    original = apmads.solver.poll_step

    def poll_step_then_check(center, delta_p, r, config, cache, blackbox, rng):
        best, status, coords = original(center, delta_p, r, config, cache, blackbox, rng)
        target = rho(config, r)
        for x in (center, *candidates(coords)):
            f, sigk = cache.estimate(x)
            if math.isfinite(f):
                assert sigk <= target * (1.0 + 1e-12)
                checked.append(x)
        return best, status, coords

    return poll_step_then_check


def test_run_poll_enforces_target_sigma(monkeypatch):
    checked = []
    monkeypatch.setattr(apmads.solver, "poll_step", sigma_checking_poll_step(checked))
    run(problem_registry("norm2"), SolverConfig(variant="dp", seed=4, stop_draws=1e5))
    assert checked


def test_run_ledger_matches_log():
    problem = problem_registry("norm2")
    out = run(problem, SolverConfig(variant="dp", seed=13, stop_draws=1e5))
    prefix = set()
    total = 0.0
    for s in out.ledger.sigmas:
        total += draws_for_sigma(s)
        prefix.add(total)
    for rec in out.records:
        assert rec.draws in prefix
    expected = math.fsum(1.0 / s**2 for s in out.ledger.sigmas)
    assert out.ledger.total_draws == pytest.approx(expected, rel=1e-9)


def test_baseline_near_deterministic_limit():
    problem = problem_registry("norm2")
    out = run(problem, SolverConfig(variant="fixed", sigma_fixed=1e-15, seed=0))
    assert problem.truth(out.incumbent) <= 1e-8
    for rec in out.records:
        assert rec.r == 0.0
        assert rec.p in (0.0, 1.0)
        assert rec.delta_m == min(rec.delta_p, rec.delta_p**2)


def test_baseline_observes_each_point_once():
    problem = problem_registry("norm2")
    out = run(problem, SolverConfig(variant="fixed", sigma_fixed=1e-3, seed=1, stop_draws=1e9))
    # one charge per point, each at the fixed sigma
    assert len(out.ledger) == len(out.cache)
    assert np.allclose(out.cache.estimate_arrays()[1], 1e-3, rtol=1e-12, atol=0.0)
    assert set(out.ledger.sigmas) == {1e-3}


def test_baseline_moustache_improves_feasibly():
    problem = problem_registry("moustache")
    out = run(problem, SolverConfig(variant="fixed", sigma_fixed=1e-3, seed=0, stop_draws=1e12))
    assert problem.truth(out.incumbent) < problem.start_truth
    assert problem.feasible(out.incumbent)
    truths = [problem.truth(rec.incumbent) for rec in out.records]
    assert min(truths) == truths[-1] or min(truths) < problem.start_truth


def test_baseline_rejects_bad_sigma():
    problem = problem_registry("norm2")
    with pytest.raises(InvalidSigmaError):
        run(problem, SolverConfig(variant="fixed", sigma_fixed=0.0))
    with pytest.raises(InvalidSigmaError):
        run(problem, SolverConfig(variant="fixed", sigma_fixed=2.0))
    # in range, but one observation's draw cost 1 / sigma**2 overflows:
    # check_run_settings refuses it before the first draw
    with pytest.raises(InvalidSigmaError, match="not finite"):
        run(problem, SolverConfig(variant="fixed", sigma_fixed=1e-200))


def test_baseline_stops_at_precision_floor_when_the_ledger_overflows():
    config = SolverConfig(variant="fixed", sigma_fixed=1e-153, seed=0)
    out = run(problem_registry("norm2"), config)
    assert out.stop_reason == "precision-floor"
    assert out.records[-1].draws == math.inf
    assert all(math.isfinite(rec.draws) for rec in out.records[:-1])
    assert_clean_end(problem_registry("norm2"), config, out)


def test_baseline_stops_when_the_mesh_size_underflows():
    # halving the frame towards stop_delta_p = 1e-300 passes 1.6e-162,
    # below which delta_p**2, the mesh size, underflows to 0
    config = SolverConfig(variant="fixed", sigma_fixed=1e-3, stop_delta_p=1e-300, seed=0)
    out = run(problem_registry("norm2"), config)
    assert out.stop_reason == "frame"
    assert all(rec.delta_m > 0.0 for rec in out.records)
    assert out.records[-1].delta_p < 1e-161


@pytest.mark.parametrize("variant", ["dp", "mp"])
def test_run_stops_when_the_first_mesh_size_underflows(variant):
    config = SolverConfig(variant=variant, delta_p0=1e-200, stop_delta_p=1e-300)
    out = run(problem_registry("norm2"), config)
    assert out.stop_reason == "frame"
    assert out.records == []
    assert out.ledger.total_draws == 0.0


def test_log_round_trip_is_lossless():
    problem = problem_registry("moustache")
    out = run(problem, SolverConfig(variant="dp", seed=6, stop_draws=1e5))
    text = log_to_csv(out.records)
    assert text.splitlines()[0] == (
        "k,draws,inc0,inc1,f_inc,sig_inc,delta_p,delta_m,r,p,status,cache_size"
    )
    parsed = parse_log(text)
    assert parsed == out.records
    assert log_to_csv(parsed) == text


HEADER = "k,draws,inc0,inc1,f_inc,sig_inc,delta_p,delta_m,r,p,status,cache_size"
ROW = "1,44,0.5,-1,2.5,0.25,1,1,0,0.75,S,5"


@pytest.mark.parametrize(
    "row, message",
    [
        ("1,x,0.5,-1,2.5,0.25,1,1,0,0.75,S,5", "bad draws 'x'"),
        ("1,44,0.5,-1,2.5,0.25,1,1,0,0.75,Z,5", "bad status 'Z'"),
        ("1.5,44,0.5,-1,2.5,0.25,1,1,0,0.75,S,5", "bad k '1.5'"),
        ("1,44,0.5,-1,2.5,0.25,1,1,0,0.75,S,5.0", "bad cache_size '5.0'"),
        ("1,44,0.5,2.5,0.25,1,1,0,0.75,S,5", "expected 12 fields, got 11"),
        (ROW + ",7", "expected 12 fields, got 13"),
    ],
)
def test_parse_log_names_the_malformed_row(row, message):
    # the bad row follows a good one and a blank line: line 4 of the text
    text = f"{HEADER}\n{ROW}\n\n{row}\n{ROW}\n"
    with pytest.raises(InvalidInputError, match="line 4") as err:
        parse_log(text)
    assert message in str(err.value)
    assert row in str(err.value)


@pytest.mark.parametrize("text", ["", "\n\n"])
def test_parse_log_rejects_an_empty_log(text):
    with pytest.raises(InvalidInputError, match="empty log"):
        parse_log(text)


@pytest.mark.parametrize(
    "header",
    ["draws,k,inc0,f_inc,sig_inc,delta_p,delta_m,r,p,status,cache_size",
     "k,draws,f_inc,sig_inc,delta_p,delta_m,r,p,status,cache_size",
     HEADER + ",extra",
     # the right width and ends, but not log_header(2): f_inc and sig_inc
     # would swap, or the columns have no known names
     "k,draws,inc0,inc1,sig_inc,f_inc,delta_p,delta_m,r,p,status,cache_size",
     "k,draws,a,b,c,d,e,f,g,h,i,cache_size"],
)
def test_parse_log_rejects_a_bad_header(header):
    with pytest.raises(InvalidInputError, match="unrecognised log header"):
        parse_log(f"{header}\n{ROW}\n")


def test_parse_log_of_a_header_alone_is_empty():
    assert parse_log(HEADER + "\n") == []
    assert log_to_csv([], dimension=2) == HEADER + "\n"
    with pytest.raises(InvalidInputError, match="cannot infer dimension"):
        log_to_csv([])


def test_log_to_csv_rejects_an_incumbent_of_the_wrong_width():
    rec = parse_log(f"{HEADER}\n{ROW}\n")[0]
    with pytest.raises(InvalidInputError, match="log row with 3 coordinates"):
        log_to_csv([rec], dimension=3)


def test_write_log_refuses_a_record_that_does_not_fit_before_opening_the_path(tmp_path):
    rec = parse_log(f"{HEADER}\n{ROW}\n")[0]
    path = tmp_path / "log.csv"
    path.write_text("an earlier log\n")
    with pytest.raises(InvalidInputError, match="log row with 3 coordinates"):
        write_log([rec, rec], path, dimension=3)
    assert path.read_text() == "an earlier log\n"


def log_record(n: int, k: int = 1) -> "apmads.solver.IterationRecord":
    return apmads.solver.IterationRecord(
        k=k, draws=44.0 * k, incumbent=tuple(0.1 * (i + k) for i in range(n)), f_inc=2.5 / k,
        sig_inc=0.25, delta_p=1.0, delta_m=1.0, r=0.0, p=0.75,
        status=IterationStatus.SUCCESS, cache_size=5,
    )


def records_of_length(n: int, size: int) -> list:
    """Records whose n-coordinate log is exactly ``size`` bytes: as many rows
    as fit, then the last row's ``cache_size`` gains the missing digits."""
    records = [log_record(n)]
    while len(log_to_csv(records + [log_record(n, len(records) + 1)])) <= size:
        records.append(log_record(n, len(records) + 1))
    records[-1].cache_size = 5 * 10 ** (size - len(log_to_csv(records)))
    return records


# a log of one block fills the writer's buffer exactly
BLOCK = io.DEFAULT_BUFFER_SIZE


@pytest.mark.parametrize("n", [2, 20])
@pytest.mark.parametrize("size, given", [("0 rows", True)] + [
    (size, given) for size in ("1 row", BLOCK, BLOCK + 1) for given in (True, False)
])
def test_write_log_writes_the_bytes_of_log_to_csv(tmp_path, n, size, given):
    if size == "0 rows":
        records = []
    elif size == "1 row":
        records = [log_record(n)]
    else:
        records = records_of_length(n, size)
        assert len(log_to_csv(records)) == size
    dimension = n if given else None
    path = tmp_path / "log.csv"
    write_log(records, path, dimension)
    assert path.read_bytes() == log_to_csv(records, dimension).encode()


def test_write_log_never_holds_the_text_whole(tmp_path):
    # a log built whole, as a row list, its join and the header's
    # concatenation, peaks at about 3x its length
    records = [log_record(20, k) for k in range(1, 5001)]
    length = len(log_to_csv(records))
    path = tmp_path / "log.csv"
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        write_log(records, path)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert path.stat().st_size == length
    assert peak < length / 4


def test_iteration_record_has_no_ad_hoc_attributes():
    rec = parse_log(f"{HEADER}\n{ROW}\n")[0]
    with pytest.raises(AttributeError):
        rec.note = "x"


LOG_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-310, 1e308,
                     -1e308, 1.7976931348623157e308, math.inf, -math.inf]),
    st.floats(allow_nan=False),
)


@st.composite
def log_records(draw):
    n = draw(st.integers(1, 4))
    count = draw(st.integers(0, 6))
    records = [
        apmads.solver.IterationRecord(
            k=draw(st.integers(-(2**70), 2**70)),
            draws=draw(st.one_of(st.just(math.inf), LOG_FLOATS)),
            incumbent=tuple(draw(LOG_FLOATS) for _ in range(n)),
            f_inc=draw(LOG_FLOATS),
            sig_inc=draw(LOG_FLOATS),
            delta_p=draw(LOG_FLOATS),
            delta_m=draw(LOG_FLOATS),
            r=draw(LOG_FLOATS),
            p=draw(LOG_FLOATS),
            status=draw(st.sampled_from(IterationStatus)),
            cache_size=draw(st.integers(0, 2**70)),
        )
        for _ in range(count)
    ]
    return n, records


@settings(max_examples=300, deadline=None)
@given(log_records())
def test_log_round_trip_property(case):
    n, records = case
    text = log_to_csv(records, dimension=n)
    assert text.splitlines()[1:] == log_rows_fieldwise(records)
    parsed = parse_log(text)
    assert parsed == records == parse_log_rowwise(text)
    assert log_to_csv(parsed, dimension=n) == text
    # -0.0 == 0.0, so compare the signs too
    assert [math.copysign(1.0, c) for rec in parsed for c in rec.incumbent] == [
        math.copysign(1.0, c) for rec in records for c in rec.incumbent
    ]


def test_stop_delta_p_override():
    problem = problem_registry("norm2")
    out = run(problem, SolverConfig(variant="dp", seed=0, stop_delta_p=0.25))
    assert out.records[-1].delta_p >= 0.25
    assert all(rec.delta_p >= 0.25 for rec in out.records)


def test_run_mesh_refines_to_stopping_scale():
    problem = problem_registry("norm2")
    out = run(problem, SolverConfig(variant="dp", seed=1))
    min_so_far = math.inf
    for rec in out.records:
        assert min(min_so_far, rec.delta_m) <= min_so_far
        min_so_far = min(min_so_far, rec.delta_m)
    assert min_so_far <= 4.0 * problem.stop_delta_p**2


def test_run_incumbents_stay_bounded():
    problem = problem_registry("norm2")
    start_norm = problem.start_truth
    for seed in range(10):
        out = run(problem, SolverConfig(variant="dp", seed=seed, stop_draws=1e12))
        for rec in out.records:
            assert math.hypot(*rec.incumbent) <= start_norm + 10.0


def _observe_points_one_by_one(cache, blackbox, coords, sigma_for, rng):
    """The per-point loop that ``observe_points`` batches."""
    for x in map(tuple, coords.tolist()):
        sigma = sigma_for(cache.row(x))
        if sigma is not None:
            cache.record(x, blackbox.observe(x, sigma, rng))


def _tighten_rule(cache, target):
    def sigma_for(i):
        if i is None:
            return sigma_to_reach(math.inf, target, 1.0)
        if not cache.feasible_at(i):
            return None
        return sigma_to_reach(cache.estimate_at(i)[1], target, 1.0)

    return sigma_for


def _once_rule(cache, sigma):
    return lambda i: sigma if i is None else None


@pytest.mark.parametrize("rule", [_tighten_rule, _once_rule])
def test_observe_points_flushes_on_repeat_like_point_by_point(rule):
    # repeats within one call, an infeasible point, a point cached before
    a, b, c, far = (0.0, 2.0), (0.5, 2.0), (0.25, 2.0), (0.0, 3.0)
    points = [a, b, a, far, c, b, b, a, far]
    moustache = problem_registry("moustache")

    def state(observe):
        cache = EvaluationCache()
        bb = moustache.blackbox()
        rng = np.random.default_rng(31)
        cache.record(c, bb.observe(c, 0.9, rng))
        param = 0.3 if rule is _tighten_rule else 0.2
        observe(cache, bb, np.array(points), rule(cache, param), rng)
        return cache, bb, rng

    cache, bb, rng = state(observe_points)
    ref_cache, ref_bb, ref_rng = state(_observe_points_one_by_one)
    assert cache_state(cache) == cache_state(ref_cache)
    assert bb.ledger.sigmas == ref_bb.ledger.sigmas
    assert bb.ledger.total_draws == ref_bb.ledger.total_draws
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert math.isfinite(cache.estimate(a)[1])  # a was observed


FINITE_SIGMA = st.one_of(
    st.sampled_from([5e-324, 1e-310, 1e-160, 1e-3, 0.9, 1.0, 1e160, 1e300, 1.7e308]),
    st.floats(min_value=5e-324, max_value=1.7e308),
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    tau=st.one_of(
        st.sampled_from([0.5, 0.25, 0.75, 0.5 - 2**-53, 0.5 + 2**-53, 1e-300, 1.0 - 2**-53]),
        st.floats(min_value=1e-300, max_value=1.0 - 2**-53),
    ),
    f_inc=st.one_of(st.just(0.0), st.floats(-1e6, 1e6)),
    sig_inc=FINITE_SIGMA,
    data=st.data(),
)
def test_plausible_rows_equals_full_scan(tau, f_inc, sig_inc, data):
    z_min = phi_inv(tau)
    fk, sigk = [], []
    for _ in range(data.draw(st.integers(0, 40))):
        kind = data.draw(st.sampled_from(["free", "threshold", "undefined"]))
        if kind == "undefined":  # unevaluated or infeasible
            fk.append(math.inf)
            sigk.append(math.inf)
            continue
        s = data.draw(st.one_of(FINITE_SIGMA, st.just(math.inf)))
        if kind == "threshold":
            # d / hypot lands on z_min, or a few ulps to either side
            d = z_min * float(np.hypot(s, sig_inc))
            for _ in range(abs(step := data.draw(st.integers(-2, 2)))):
                d = math.nextafter(d, math.copysign(math.inf, step))
            fk.append(f_inc - d)
        else:
            fk.append(data.draw(st.floats(allow_nan=False)))
        sigk.append(s)
    fk, sigk = np.array(fk, dtype=float), np.array(sigk, dtype=float)
    with np.errstate(all="ignore"):
        full = np.flatnonzero((f_inc - fk) / np.hypot(sigk, sig_inc) >= z_min)
    assert plausible_rows(fk, sigk, f_inc, sig_inc, z_min).tolist() == full.tolist()


# sigmas up to 1 whose square does not underflow to 0 (record_batch divides by
# it), from 2.2e-162; below about 1e-154 their weight 1/s**2 overflows
UNIT_SIGMA = st.one_of(
    st.sampled_from([math.sqrt(5e-324), 1e-160, 1e-154, 1e-3, 0.5, 1.0]),
    st.floats(min_value=math.sqrt(5e-324), max_value=1.0),
)
# observed values: zeros of both signs, subnormals, and values whose fusion sums overflow
OBSERVED_VALUE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, 1e308, -1e308]),
    st.floats(min_value=-1e6, max_value=1e6),
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_searched_rows_equal_plausible_rows_over_the_whole_cache(data):
    # one cache, its bound column kept by record_batch between queries at
    # switching tau; f_inc is free, or puts a cached row on the threshold
    cache = EvaluationCache()
    for _ in range(data.draw(st.integers(1, 5))):
        if data.draw(st.integers(0, 4)) == 0:  # fresh rows past the cache's capacity
            start = len(cache)
            coords = np.arange(start, start + 300, dtype=float).reshape(300, 1) + 100.0
            values = np.random.default_rng(start).standard_normal(300).tolist()
            cache.record_batch(cache.keys(coords), values, [0.5] * 300, [True] * 300)
        batch = data.draw(st.lists(
            st.tuples(st.integers(0, 19), OBSERVED_VALUE, UNIT_SIGMA,
                      st.sampled_from([True, True, True, False])),
            max_size=30,
        ))
        if batch:
            points, values, sigmas, feasible = zip(*batch)
            cache.record_batch([cache.key((float(x),)) for x in points], values, sigmas,
                               feasible)
        fk, sigk = cache.estimate_arrays()
        for _ in range(data.draw(st.integers(1, 3))):
            z_min = phi_inv(data.draw(st.sampled_from([0.05, 0.25, 0.5, 0.75, 0.95])))
            sig_inc = data.draw(st.one_of(UNIT_SIGMA, FINITE_SIGMA))
            j = data.draw(st.integers(0, len(cache) - 1)) if len(cache) else None
            if j is not None and math.isfinite(fk[j]) and data.draw(st.booleans()):
                with np.errstate(over="ignore"):
                    f_inc = float(fk[j] + z_min * np.hypot(sigk[j], sig_inc))
                for _ in range(abs(step := data.draw(st.integers(-2, 2)))):
                    f_inc = math.nextafter(f_inc, math.copysign(math.inf, step))
            else:
                f_inc = data.draw(st.one_of(OBSERVED_VALUE, st.floats(-1e300, 1e300)))
            if not math.isfinite(f_inc):
                continue
            full = plausible_rows(fk, sigk, f_inc, sig_inc, z_min)
            assert cache.searched_rows(f_inc, sig_inc, z_min) == full.tolist()


def test_plausible_rows_keeps_edge_quotients():
    # at tau = 0.5, z = -0.0 passes: here z = -5e-324 / hypot(1.9, 0.9)
    # underflows, and z = -1.7e8 / hypot(5.9e307, 1.7e308) = -1.7e8 / inf
    fk, sigk = np.array([5e-324]), np.array([1.9])
    assert plausible_rows(fk, sigk, 0.0, 0.9, 0.0).tolist() == [0]
    fk, sigk = np.array([1.7e8]), np.array([5.9e307])
    assert plausible_rows(fk, sigk, 0.0, 1.7e308, 0.0).tolist() == [0]
    # fk = -inf: z = inf / hypot(9.8e306, 1.7e308) = inf, though a + b overflows
    fk, sigk = np.array([-math.inf]), np.array([9.8e306])
    assert plausible_rows(fk, sigk, 0.0, 1.7e308, 0.0).tolist() == [0]
    # at tau = 0.25: hypot(1.04e308, 1.46e308) overflows, so
    # z = -1.8e308 / inf = -0.0 passes
    fk, sigk = np.array([1.7976931348623157e308]), np.array([1.0446954579968726e308])
    assert plausible_rows(fk, sigk, 0.0, 1.4629805218019156e308, phi_inv(0.25)).tolist() == [0]


def test_run_rejects_start_past_precision_floor():
    # rho(1560) = 5e-157: its draw cost 1 / rho**2 overflows
    problem = problem_registry("norm2")
    for variant in ("dp", "mp"):
        with pytest.raises(ConfigError, match="precision floor"):
            run(problem, SolverConfig(variant=variant, r_init=1560.0))
    # at r_init = 1534 the poll's cost is finite, but the first search
    # observes at rho(r_init - r_s) = rho(1539), whose cost overflows; the
    # start sits at the optimum so that value / rho**2 stays finite too
    at_optimum = dataclasses.replace(problem, start=(0.0, 0.0))
    with pytest.raises(ConfigError, match="precision floor"):
        run(at_optimum, SolverConfig(variant="dp", r_init=1534.0))
    out = run(at_optimum, SolverConfig(variant="mp", r_init=1534.0, max_iterations=1))
    assert len(out.records) == 1 and math.isfinite(out.ledger.total_draws)


# in (0, 1], the observable range, with a few values past its ends
SIGMAS = st.one_of(
    st.sampled_from([1.0, 1e-3, 1e-10, 1e-153, 1e-200, 5e-324, 0.0, 2.0]),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
)


@st.composite
def run_configs(draw):
    """Settings of every variant, legal or not; a sigma_fixed is mismatched now and then."""
    variant = draw(st.sampled_from(["dp", "mp", "fixed"]))
    mismatched = draw(st.integers(0, 9)) == 5  # not 0, which Hypothesis favours
    sigma_fixed = draw(SIGMAS) if (variant == "fixed") != mismatched else None
    return dict(
        variant=variant,
        sigma_fixed=sigma_fixed,
        tau=draw(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)),
        # the default schedule's precision floor lies near r = 1534
        r_init=draw(st.one_of(st.sampled_from([0.0, 1520.0, 1534.0, 1560.0]),
                              st.floats(min_value=-100.0, max_value=1600.0))),
        sigma_max=draw(st.one_of(st.sampled_from([1.0, 1e-153, 0.0, 2.0]),
                                 st.floats(min_value=1e-6, max_value=1.0))),
        delta_p0=draw(st.sampled_from([1.0, 1e-3, 1e100, 1e300])),
        stop_draws=draw(st.floats(min_value=0.0, max_value=1e6)),
        max_iterations=draw(st.integers(0, 50)),
        seed=draw(st.integers(0, 1000)),
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(["norm2", "moustache", "lin"]), values=run_configs(),
       # a constant added to the truth; near +-1e308 the fused estimates overflow
       offset=st.sampled_from([0.0, 1e300, -1e300, 1e308, -1e308]))
def test_every_run_ends_cleanly_or_is_refused_before_its_first_draw(name, values, offset):
    base = lin_problem() if name == "lin" else problem_registry(name)
    calls = []

    def truth(x):
        calls.append(x)
        return base.truth(x) + offset

    problem = dataclasses.replace(base, truth=truth)
    try:
        config = SolverConfig(**values)
        out = run(problem, config)
    except (ConfigError, InvalidSigmaError):
        assert calls == []
        return
    assert_clean_end(problem, config, out)
    n = problem.dimension
    assert log_to_csv(run(problem, config).records, n) == log_to_csv(out.records, n)

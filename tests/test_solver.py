"""Solver loops: poll/search steps, run invariants, baseline, log format."""

import dataclasses
import math
import sys

import numpy as np
import pytest

from apmads import (
    ConfigError,
    EvaluationCache,
    InfeasibleStartError,
    InvalidSigmaError,
    IterationStatus,
    Observation,
    RhoParams,
    SolverConfig,
    log_to_csv,
    on_mesh,
    parse_log,
    poll_step,
    problem_registry,
    rho,
    run,
    run_fixed_precision_baseline,
    search_step,
)
from apmads.blackbox import NoisyBlackbox
from apmads.estimation import sigma_to_reach
from apmads.mesh import generate_poll
from apmads.solver import observe_points


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


def test_stub_rng_is_noise_free_with_fixed_direction():
    bb = make_blackbox(lambda x: math.hypot(*x))
    points = [(3.0, 4.0), (1.0, 0.0), (0.0, 2.0)]
    out = bb.observe_batch(points, [0.5, 0.25, 1.0], StubRng())
    assert [o.value for o in out] == [5.0, 1.0, 2.0]
    assert bb.observe((3.0, 4.0), 0.5, StubRng()).value == 5.0
    first = generate_poll((0.0, 0.0), 1.0, StubRng())
    assert generate_poll((0.0, 0.0), 1.0, StubRng()) == first


def test_poll_step_barrier_when_no_candidate_feasible():
    center = (0.0, 0.0)
    bb = make_blackbox(lambda x: 0.0, feasible=lambda x: x == center)
    cache = EvaluationCache()
    x_c, status, poll = poll_step(
        center, 1.0, 0.0, RhoParams(), cache, bb, np.random.default_rng(0)
    )
    assert status is IterationStatus.BARRIER
    assert x_c is None
    assert all(not cache.history(x).feasible for x in poll.points)
    # barrier candidates cost nothing; only the center was observed
    assert len(bb.ledger.per_eval_log) == 1


def test_poll_step_success_and_generation_order_tiebreak():
    bb = make_blackbox(lambda x: math.hypot(*x))
    cache = EvaluationCache()
    x_c, status, poll = poll_step((1.0, 1.0), 1.0, 0.0, RhoParams(), cache, bb, StubRng())
    assert status is IterationStatus.SUCCESS
    # noise-free: both (1,0) and (0,1) estimate to 1; the first generated wins
    assert x_c == poll.points[0]
    assert cache.estimate(x_c)[0] < cache.estimate((1.0, 1.0))[0]


def test_poll_step_failure_at_optimum():
    bb = make_blackbox(lambda x: math.hypot(*x))
    cache = EvaluationCache()
    x_c, status, _ = poll_step((0.0, 0.0), 1.0, 0.0, RhoParams(), cache, bb, StubRng())
    assert status is IterationStatus.FAILURE
    assert cache.estimate(x_c)[0] > 0.0


def test_poll_step_skips_already_precise_center():
    bb = make_blackbox(lambda x: 1.0)
    cache = EvaluationCache()
    center = (0.0, 0.0)
    cache.record(center, Observation(1.0, 0.01))  # tighter than rho(0) = 0.5
    poll_step(center, 1.0, 0.0, RhoParams(), cache, bb, StubRng())
    assert len(cache.history(center).observations) == 1


def test_poll_step_enforces_sigma_target():
    bb = make_blackbox(lambda x: math.hypot(*x))
    cache = EvaluationCache()
    rng = np.random.default_rng(5)
    params = RhoParams()
    for r in (0.0, 3.0, 7.0):
        _, _, poll = poll_step((1.0, 1.0), 0.5, r, params, cache, bb, rng)
        target = rho(params, r)
        for x in (*poll.points, poll.center):
            _, sigk = cache.estimate(x)
            assert sigk <= target * (1.0 + 1e-12)


def test_search_step_disabled_returns_incumbent_untouched():
    bb = make_blackbox(lambda x: math.hypot(*x))
    cache = EvaluationCache()
    inc = (1.0, 0.0)
    cache.record(inc, Observation(1.0, 0.5))
    x_s = search_step(
        cache, inc, 0.0, RhoParams(), -5.0, 0.25, bb, StubRng(), enabled=False
    )
    assert x_s == inc
    assert len(cache.history(inc).observations) == 1
    assert bb.ledger.total_draws == 0.0


def test_search_step_no_qualifying_point():
    # tau above 0.5 excludes even the incumbent's self-comparison
    bb = make_blackbox(lambda x: math.hypot(*x))
    cache = EvaluationCache()
    inc = (1.0, 0.0)
    cache.record(inc, Observation(1.0, 0.1))
    cache.record((5.0, 0.0), Observation(5.0, 0.1))
    x_s = search_step(cache, inc, 0.0, RhoParams(), -5.0, 0.6, bb, StubRng())
    assert x_s == inc
    assert bb.ledger.total_draws == 0.0


def test_search_step_audits_incumbent_estimate():
    # a lucky low estimate at the incumbent is pulled back toward truth
    bb = make_blackbox(lambda x: 2.0)
    cache = EvaluationCache()
    inc = (0.0, 0.0)
    cache.record(inc, Observation(-5.0, 0.5))
    x_s = search_step(cache, inc, 40.0, RhoParams(), -5.0, 0.25, bb, StubRng())
    assert x_s == inc
    assert len(cache.history(inc).observations) == 2
    assert cache.estimate(inc)[0] == pytest.approx(2.0, abs=1e-3)


def test_search_step_recovers_better_cached_point():
    truths = {(0.0, 0.0): 2.0, (1.0, 0.0): 0.0}
    bb = make_blackbox(lambda x: truths[x])
    cache = EvaluationCache()
    cache.record((0.0, 0.0), Observation(1.0, 0.5))  # incumbent, lucky estimate
    cache.record((1.0, 0.0), Observation(1.1, 0.5))  # truly better point
    x_s = search_step(cache, (0.0, 0.0), 40.0, RhoParams(), -5.0, 0.25, bb, StubRng())
    assert x_s == (1.0, 0.0)


def test_run_zero_budget_returns_start():
    problem = problem_registry("norm2")
    out = run(problem, SolverConfig(variant="dp", stop_draws=0.0))
    assert out.incumbent == problem.start
    assert out.records == []
    assert out.ledger.total_draws == 0.0


def test_run_rejects_infeasible_start():
    problem = dataclasses.replace(problem_registry("moustache"), start=(0.0, 3.0))
    with pytest.raises(InfeasibleStartError):
        run(problem, SolverConfig(variant="dp"))


def test_config_variant_defaults():
    dp = SolverConfig(variant="dp")
    assert (dp.beta_l, dp.beta_u, dp.search_enabled) == (0.15, 0.85, True)
    mp = SolverConfig(variant="mp")
    assert (mp.beta_l, mp.beta_u, mp.search_enabled) == (0.0003, 0.997, False)


def test_config_rejects_sigma_min_without_search():
    with pytest.raises(ConfigError):
        SolverConfig(variant="mp", rho_params=RhoParams(sigma_min=0.1))
    # fine when the search step can keep tightening estimates
    SolverConfig(variant="dp", rho_params=RhoParams(sigma_min=0.1))


def test_config_rejects_bad_fields():
    with pytest.raises(ConfigError):
        SolverConfig(variant="nope")
    with pytest.raises(ConfigError):
        SolverConfig(tau=0.0)
    with pytest.raises(ConfigError):
        SolverConfig(delta_p0=0.0)
    with pytest.raises(ConfigError):
        SolverConfig(beta_l=0.7)


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
    for point in out.cache.points():
        assert on_mesh(point, problem.start, delta_min)


def test_run_hook_sees_sigma_enforcement():
    problem = problem_registry("norm2")
    config = SolverConfig(variant="dp", seed=4, stop_draws=1e5)
    target_of = lambda r: rho(config.rho_params, r)
    checked = []

    def hook(record, poll, center, cache):
        target = target_of(record.r)
        for x in (*poll.points, center):
            f, sigk = cache.estimate(x)
            if math.isfinite(f):
                assert sigk <= target * (1.0 + 1e-12)
                checked.append(x)

    run(problem, config, iteration_hook=hook)
    assert checked


def test_run_ledger_matches_log():
    problem = problem_registry("norm2")
    out = run(problem, SolverConfig(variant="dp", seed=13, stop_draws=1e5))
    prefix = set()
    total = 0.0
    for _, _, d in out.ledger.per_eval_log:
        total += d
        prefix.add(total)
    for rec in out.records:
        assert rec.draws in prefix
    expected = math.fsum(1.0 / s**2 for _, s, _ in out.ledger.per_eval_log)
    assert out.ledger.total_draws == pytest.approx(expected, rel=1e-9)


def test_baseline_near_deterministic_limit():
    problem = problem_registry("norm2")
    out = run_fixed_precision_baseline(problem, 1e-15, SolverConfig(seed=0))
    assert problem.truth(out.incumbent) <= 1e-8
    for rec in out.records:
        assert rec.r == 0.0
        assert rec.p in (0.0, 1.0)
        assert rec.delta_m == min(rec.delta_p, rec.delta_p**2)


def test_baseline_observes_each_point_once():
    problem = problem_registry("norm2")
    out = run_fixed_precision_baseline(
        problem, 1e-3, SolverConfig(seed=1, stop_draws=1e9)
    )
    for point in out.cache.points():
        assert len(out.cache.history(point).observations) == 1
        assert out.cache.history(point).observations[0].sigma == 1e-3


def test_baseline_moustache_improves_feasibly():
    problem = problem_registry("moustache")
    out = run_fixed_precision_baseline(
        problem, 1e-3, SolverConfig(seed=0, stop_draws=1e12)
    )
    assert problem.truth(out.incumbent) < problem.start_truth
    assert problem.feasible(out.incumbent)
    truths = [problem.truth(rec.incumbent) for rec in out.records]
    assert min(truths) == truths[-1] or min(truths) < problem.start_truth


def test_baseline_rejects_bad_sigma():
    problem = problem_registry("norm2")
    with pytest.raises(InvalidSigmaError):
        run_fixed_precision_baseline(problem, 0.0, SolverConfig())
    with pytest.raises(InvalidSigmaError):
        run_fixed_precision_baseline(problem, 2.0, SolverConfig())


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


def _observe_points_one_by_one(cache, blackbox, points, sigma_for, rng):
    """The per-point loop that ``observe_points`` batches."""
    for x in points:
        sigma = sigma_for(x)
        if sigma is not None:
            cache.record(x, blackbox.observe(x, sigma, rng))


def _tighten_rule(cache, target):
    def sigma_for(x):
        hist = cache.history(x)
        if hist is not None and not hist.feasible:
            return None
        return sigma_to_reach(cache.estimate(x)[1], target, 1.0)

    return sigma_for


def _once_rule(cache, sigma):
    return lambda x: None if x in cache else sigma


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
        observe(cache, bb, points, rule(cache, param), rng)
        return cache, bb, rng

    cache, bb, rng = state(observe_points)
    ref_cache, ref_bb, ref_rng = state(_observe_points_one_by_one)
    assert cache.dump_csv() == ref_cache.dump_csv()
    assert bb.ledger.per_eval_log == ref_bb.ledger.per_eval_log
    assert bb.ledger.total_draws == ref_bb.ledger.total_draws
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert len(cache.history(a).observations) >= 1

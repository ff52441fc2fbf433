"""Acceptance suite: one test per criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one pass/fail line
per criterion inline.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest

import apmads.solver
from apmads import (
    SolverConfig,
    accuracy,
    budget_to_solve,
    data_profile,
    log_to_csv,
    make_run_result,
    performance_profile,
    problem_registry,
    run,
)
from apmads.blackbox import Observation
from apmads.estimation import EvaluationCache, sigma_to_reach
from apmads.mesh import on_mesh

from oracles import check_condition, combined_sigma, ks_critical, weighted_mle
from test_normal import pvalue_limit_pass_rate, pvalue_uniformity_ks
from test_precision import conformance_rate
from test_profiles import synthetic_result
from test_solver import sigma_checking_poll_step


@contextmanager
def report(line: str):
    try:
        yield
    except BaseException:
        print(f"{line}: FAIL")
        raise
    print(f"{line}: PASS")


@pytest.fixture(scope="module")
def moustache_dp_runs():
    problem = problem_registry("moustache")
    results = []
    for seed in range(10):
        out = run(problem, SolverConfig(variant="dp", seed=seed, stop_draws=1e8))
        results.append(make_run_result(problem, "dpmads", seed, out.records))
    return results


@pytest.fixture(scope="module")
def moustache_mp_runs():
    problem = problem_registry("moustache")
    results = []
    for seed in range(10):
        out = run(problem, SolverConfig(variant="mp", seed=seed, stop_draws=1e11))
        results.append(make_run_result(problem, "mpmads", seed, out.records))
    return results


@pytest.fixture(scope="module")
def norm2_dp_runs():
    problem = problem_registry("norm2")
    outputs = []
    for seed in range(5):
        outputs.append(run(problem, SolverConfig(variant="dp", seed=seed)))
    return outputs


def test_criterion_1_moustache_dp_solves_within_budget(moustache_dp_runs):
    with report("[1] moustache: dpmads reaches -19.99 within 1e8 draws, >= 9/10 seeds"):
        solved = 0
        for res in moustache_dp_runs:
            hit = next(
                (
                    rec.draws
                    for rec, truth in zip(res.records, res.truth_trace)
                    if truth <= -19.99
                ),
                math.inf,
            )
            if hit <= 1e8:
                solved += 1
        assert solved >= 9


def test_criterion_2_moustache_mp_vs_dp_budget_ordering(
    moustache_dp_runs, moustache_mp_runs
):
    with report("[2] moustache: median mpmads budget >= 5x median dpmads budget"):
        dp = [budget_to_solve(res, 1e-3) for res in moustache_dp_runs]
        mp = [budget_to_solve(res, 1e-3) for res in moustache_mp_runs]
        assert np.median(mp) >= 5.0 * np.median(dp)


def test_criterion_3_norm2_dp_convergence(norm2_dp_runs):
    with report("[3] norm2: dpmads truth <= 1e-8 with draws in [1e19, 1e25], 5 seeds"):
        problem = problem_registry("norm2")
        for out in norm2_dp_runs:
            assert problem.truth(out.incumbent) <= 1e-8
            assert 1e19 <= out.ledger.total_draws <= 1e25


def test_criterion_4_fixed_precision_stall():
    with report("[4] norm2: fixed sigma 1e-10 baseline stalls in [1e-12, 1e-8]"):
        problem = problem_registry("norm2")
        out = run(problem, SolverConfig(variant="fixed", sigma_fixed=1e-10, seed=0))
        assert 1e-12 <= problem.truth(out.incumbent) <= 1e-8


def test_criterion_5_estimator_oracle_suite():
    with report("[5] estimates match brute-force fusion to 1e-12; sigma algebra to 1e-9"):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            m = int(rng.integers(1, 21))
            history = [
                (float(rng.normal(0.0, 5.0)), float(10.0 ** rng.uniform(-2, 1)))
                for _ in range(m)
            ]
            cache = EvaluationCache()
            for v, s in history:
                cache.record((0.0,), Observation(v, s))
            expected_f, expected_sig = weighted_mle(history)
            fk, sigk = cache.estimate((0.0,))
            assert fk == pytest.approx(expected_f, rel=1e-12, abs=1e-12)
            assert sigk == pytest.approx(expected_sig, rel=1e-12)
        for _ in range(1000):
            existing = float(10.0 ** rng.uniform(-2, 1))
            target = existing * float(rng.uniform(0.05, 0.999))
            sigma = sigma_to_reach(existing, target, sigma_max=math.inf)
            assert combined_sigma(existing, [sigma]) == pytest.approx(target, rel=1e-9)


def test_criterion_6_statistical_suite():
    with report("[6] p-value limit (>= 95% of trials) and uniformity (KS below 1% critical)"):
        assert pvalue_limit_pass_rate(n_trials=200, n_obs=100, threshold=0.99) >= 0.95
        assert pvalue_uniformity_ks(n_samples=10_000) < ks_critical(10_000, alpha=0.01)


def test_criterion_7_condition_conformance(moustache_mp_runs):
    with report("[7] update rules satisfy their conditions; monotone logs never decrease r"):
        assert conformance_rate("mp", n=10_000) == 1.0
        assert conformance_rate("dp", n=10_000) == 1.0
        # spot-check the checker against a hand-rolled violating rule
        assert not check_condition(SolverConfig(variant="dp"), 0.0, 0.0, 0.5)
        for res in moustache_mp_runs:
            rs = [rec.r for rec in res.records]
            assert all(b >= a for a, b in zip(rs, rs[1:]))


def test_criterion_8_structural_invariants_per_run(monkeypatch):
    with report("[8] mesh membership, coupling, sigma enforcement, ledger, determinism"):
        problem = problem_registry("norm2")
        config = SolverConfig(variant="dp", seed=0, stop_draws=1e10)
        checked = []
        monkeypatch.setattr(apmads.solver, "poll_step", sigma_checking_poll_step(checked))
        out = run(problem, config)
        assert checked
        delta_min = min(rec.delta_m for rec in out.records)
        for point in out.cache.coords_at(range(len(out.cache))).tolist():
            assert on_mesh(point, problem.start, delta_min)
        for rec in out.records:
            assert rec.delta_m == min(rec.delta_p, rec.delta_p**2)
        expected = math.fsum(1.0 / s**2 for s in out.ledger.sigmas)
        assert out.ledger.total_draws == pytest.approx(expected, rel=1e-9)
        assert out.records[-1].draws == out.ledger.total_draws
        again = run(problem, config)
        assert log_to_csv(again.records) == log_to_csv(out.records)


def test_criterion_9_profile_correctness():
    with report("[9] profiles on synthetic logs match hand-computed step functions"):
        # start and optimum accuracies
        res = synthetic_result("a", 0, [(10.0, 0.0), (100.0, -10.0)])
        assert accuracy(res, 10.0) == 0.0
        assert accuracy(res, 100.0) == 1.0
        # hand-computed performance profile: budgets 100 vs 200 on one instance
        fast = synthetic_result("fast", 0, [(100.0, -10.0)])
        slow = synthetic_result("slow", 0, [(200.0, -10.0)])
        alphas, fractions = performance_profile([fast, slow], tau=0.5)
        assert list(alphas) == [1.0, 2.0]
        assert list(fractions["fast"]) == [1.0, 1.0]
        assert list(fractions["slow"]) == [0.0, 1.0]
        # hand-computed data profile: one instance solved at 3e6 draws
        solved = synthetic_result("a", 0, [(3e6, -10.0)])
        groups, dfracs = data_profile([solved], tau=0.5, sigma_ref=1e-3)
        assert list(groups) == [3.0]
        assert list(dfracs["a"]) == [1.0]
        # budgets: first crossing wins, +inf when never reached
        staged = synthetic_result(
            "a", 0, [(10.0, -1.0), (100.0, -5.0), (1000.0, -9.99)]
        )
        assert budget_to_solve(staged, tau=0.5) == 100.0
        assert budget_to_solve(staged, tau=1e-4) == math.inf

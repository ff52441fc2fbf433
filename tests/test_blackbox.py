"""Observation layer: noise law, draw accounting, determinism, barriers."""

import math

import numpy as np
import pytest

import apmads.blackbox
from apmads import InvalidInputError, InvalidSigmaError, problem_registry
from apmads.blackbox import NoisyBlackbox, Observation, draws_for_sigma
from apmads.problems import moustache_half_width, moustache_ridge

from oracles import ks_critical, ks_statistic_normal


class ZeroRng:
    """Stub generator yielding z = 0 (noise-free observations)."""

    def standard_normal(self, size=None):
        return 0.0 if size is None else np.zeros(size)


def test_draws_for_sigma_values():
    assert draws_for_sigma(1.0) == 1.0
    assert draws_for_sigma(1e-3) == pytest.approx(1e6, rel=1e-12)
    with pytest.raises(InvalidSigmaError):
        draws_for_sigma(0.0)
    with pytest.raises(InvalidSigmaError):
        draws_for_sigma(-2.0)


def test_observe_noise_free_at_origin():
    bb = problem_registry("norm2").blackbox()
    obs = bb.observe((0.0, 0.0), 1.0, ZeroRng())
    assert obs.feasible
    assert obs.value == 0.0
    assert bb.ledger.total_draws == 1.0


def test_observe_feasibility_moustache():
    bb = problem_registry("moustache").blackbox()
    rng = np.random.default_rng(0)
    assert bb.observe((0.0, 2.0), 0.5, rng).feasible

    # oracle: the admissible band at x = 0 from the ridge/half-width formulas
    lo = moustache_ridge(0.0) - moustache_half_width(0.0)
    hi = moustache_ridge(0.0) + moustache_half_width(0.0)
    assert not lo <= 3.0 <= hi

    before = bb.ledger.total_draws
    obs = bb.observe((0.0, 3.0), 0.5, rng)
    assert not obs.feasible
    assert obs.value == math.inf
    assert bb.ledger.total_draws == before


def test_observe_validates_inputs():
    bb = problem_registry("norm2").blackbox()
    rng = np.random.default_rng(0)
    with pytest.raises(InvalidInputError):
        bb.observe((math.nan, 0.0), 0.5, rng)
    with pytest.raises(InvalidInputError):
        bb.observe((0.0, 0.0, 0.0), 0.5, rng)
    with pytest.raises(InvalidInputError):
        bb.observe((0.0, (1.0, 2.0)), 0.5, rng)  # ragged
    with pytest.raises(InvalidInputError):
        bb.observe(("a", 0.0), 0.5, rng)  # not numeric
    with pytest.raises(InvalidSigmaError):
        bb.observe((0.0, 0.0), 0.0, rng)
    with pytest.raises(InvalidSigmaError):
        bb.observe((0.0, 0.0), 1.5, rng)  # above sigma_max = 1
    assert len(bb.ledger) == 0


def test_noise_law_of_observations():
    bb = problem_registry("norm2").blackbox()
    rng = np.random.default_rng(11)
    x = (3.0, 4.0)
    sigma = 0.25
    n = 10**5
    noise = np.array([bb.observe(x, sigma, rng).value - 5.0 for _ in range(n)])
    assert abs(noise.std() - sigma) / sigma < 0.02
    assert ks_statistic_normal(noise, sigma) < ks_critical(n, alpha=0.01)


def test_ledger_additivity():
    bb = problem_registry("norm2").blackbox()
    rng = np.random.default_rng(3)
    sigmas = 10.0 ** rng.uniform(-3, 0, size=500)
    for s in sigmas:
        bb.observe((1.0, 2.0), float(s), rng)
    expected = math.fsum(1.0 / s**2 for s in sigmas)
    assert bb.ledger.total_draws == pytest.approx(expected, rel=1e-9)
    assert len(bb.ledger) == len(sigmas)
    assert list(bb.ledger.sigmas) == sigmas.tolist()
    running = 0.0
    for s in bb.ledger.sigmas:
        d = draws_for_sigma(s)
        assert d == 1.0 / (s * s)
        running += d
    assert running == pytest.approx(bb.ledger.total_draws, rel=1e-12)


def test_observation_sequence_bit_reproducible():
    def sequence():
        bb = problem_registry("moustache").blackbox()
        rng = np.random.default_rng(99)
        return [bb.observe((0.0, 2.0), s, rng).value for s in (0.5, 0.1, 0.9, 0.01)]

    assert sequence() == sequence()


def test_feasibility_deterministic():
    bb = problem_registry("moustache").blackbox()
    rng = np.random.default_rng(1)
    flags = {bb.observe((10.0, 2.0), 0.5, rng).feasible for _ in range(5)}
    assert len(flags) == 1


def test_infeasible_observation_sentinel():
    obs = Observation.infeasible()
    assert not obs.feasible
    assert obs.value == math.inf and obs.sigma == math.inf


def counting_blackbox(name="moustache"):
    """A problem's blackbox whose truth/feasible calls are counted."""
    problem = problem_registry(name)
    calls = {"truth": 0, "feasible": 0}

    def truth(x):
        calls["truth"] += 1
        return problem.truth(x)

    def feasible(x):
        calls["feasible"] += 1
        return problem.feasible(x)

    bb = NoisyBlackbox(truth, feasible, problem.dimension)
    return bb, calls


# a moustache batch with infeasible points and a repeated point
BATCH = [(0.0, 2.0), (0.0, 3.0), (0.5, 2.0), (0.0, 2.0), (30.0, 2.0), (1.0, 1.5)]
BATCH_SIGMAS = [0.5, 0.5, 0.1, 0.25, 0.9, 1.0]


def test_observe_batch_matches_sequential_observe():
    seq_bb = problem_registry("moustache").blackbox()
    seq_rng = np.random.default_rng(17)
    expected = [seq_bb.observe(x, s, seq_rng) for x, s in zip(BATCH, BATCH_SIGMAS)]

    bb = problem_registry("moustache").blackbox()
    rng = np.random.default_rng(17)
    values, feasible = bb.observe_batch(np.array(BATCH), BATCH_SIGMAS, rng)

    assert feasible == [True, False, False, True, False, True]
    assert feasible == [o.feasible for o in expected]
    assert values == [o.value for o in expected]
    assert all(v == math.inf for v, ok in zip(values, feasible) if not ok)
    # independent reference: one scalar draw per feasible point, in order
    problem = problem_registry("moustache")
    ref_rng = np.random.default_rng(17)
    assert [v for v, ok in zip(values, feasible) if ok] == [
        problem.truth(x) + float(ref_rng.standard_normal()) * s
        for x, s in zip(BATCH, BATCH_SIGMAS)
        if problem.feasible(x)
    ]
    assert bb.ledger.sigmas == seq_bb.ledger.sigmas
    assert bb.ledger.total_draws == seq_bb.ledger.total_draws
    assert rng.bit_generator.state == seq_rng.bit_generator.state


def test_observe_batch_calls_truth_and_feasible_once_per_point():
    bb, calls = counting_blackbox()
    bb.observe_batch(np.array(BATCH), BATCH_SIGMAS, np.random.default_rng(0))
    assert calls == {"truth": 3, "feasible": len(BATCH)}


def test_observe_batch_costs_each_distinct_sigma_once(monkeypatch):
    costed = []

    def counting(sigma):
        costed.append(sigma)
        return draws_for_sigma(sigma)

    monkeypatch.setattr(apmads.blackbox, "draws_for_sigma", counting)
    bb = problem_registry("norm2").blackbox()
    sigmas = [0.5, 0.25, 0.5, 0.5, 0.25, 0.125]
    coords = np.array([(float(i), 0.0) for i in range(len(sigmas))])
    bb.observe_batch(coords, sigmas, np.random.default_rng(0))
    assert costed == [0.5, 0.25, 0.125]
    assert list(bb.ledger.sigmas) == sigmas
    assert [draws_for_sigma(s) for s in bb.ledger.sigmas] == [4.0, 16.0, 4.0, 4.0, 16.0, 64.0]
    assert bb.ledger.total_draws == 108.0


def test_observe_batch_infeasible_points_consume_no_randomness():
    bb = problem_registry("moustache").blackbox()
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    values, feasible = bb.observe_batch(np.array([(0.0, 3.0), (-1.0, 2.0)]), [0.5, 0.5], rng)
    assert feasible == [False, False] and values == [math.inf, math.inf]
    assert rng.bit_generator.state == before
    assert bb.ledger.total_draws == 0.0 and len(bb.ledger) == 0

    # a mixed batch draws exactly one variate per feasible point
    mixed = problem_registry("moustache").blackbox()
    mixed.observe_batch(np.array([(0.0, 3.0), (0.0, 2.0), (-1.0, 2.0)]), [0.5] * 3, rng)
    reference = np.random.default_rng(5)
    reference.standard_normal()
    assert rng.bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize(
    "bad_point, bad_sigma, error",
    [
        ((0.0, math.nan), 0.5, InvalidInputError),
        ((0.0, math.inf), 0.5, InvalidInputError),
        ((0.0, 2.0, 1.0), 0.5, InvalidInputError),
        ((0.0,), 0.5, InvalidInputError),
        ((0.0, 2.0), 0.0, InvalidSigmaError),
        ((0.0, 2.0), -0.1, InvalidSigmaError),
        ((0.0, 2.0), 1.5, InvalidSigmaError),
        ((0.0, 2.0), math.nan, InvalidSigmaError),
        ((0.0, 2.0), 1e-170, InvalidSigmaError),  # draw cost overflows
    ],
)
def test_observe_batch_rejects_bad_entry_before_any_draw(bad_point, bad_sigma, error):
    for position in (0, 2, 4):
        bb, calls = counting_blackbox()
        rng = np.random.default_rng(2)
        before = rng.bit_generator.state
        xs = [(0.0, 2.0), (0.5, 2.0), (0.0, 2.0), (0.0, 3.0)]
        sigmas = [0.5, 0.5, 0.25, 0.5]
        xs.insert(position, bad_point)
        sigmas.insert(position, bad_sigma)
        # a point of another width makes the batch an array of that width
        width = len(bad_point)
        coords = np.array([x if len(x) == width else (x * width)[:width] for x in xs])
        with pytest.raises(error):
            bb.observe_batch(coords, sigmas, rng)
        assert rng.bit_generator.state == before
        assert bb.ledger.total_draws == 0.0 and len(bb.ledger) == 0
        assert calls["truth"] == 0


def test_observe_batch_validates_the_given_coordinates():
    coords = np.array(BATCH)
    bad_arrays = {
        r"non-finite coordinate: \(nan, 2\.0\)": np.where(coords == 30.0, math.nan, coords),
        r"shape \(6, 1\)": coords[:, :1],
        r"5 points": coords[1:],
        r"shape \(6,\)": coords[:, 0],
        r"shape \(6, 2, 1\)": coords[:, :, None],
    }
    for message, bad in bad_arrays.items():
        bb, calls = counting_blackbox()
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        with pytest.raises(InvalidInputError, match=message):
            bb.observe_batch(bad, BATCH_SIGMAS, rng)
        assert rng.bit_generator.state == before
        assert len(bb.ledger) == 0 and calls == {"truth": 0, "feasible": 0}


def test_observe_batch_rejects_mismatched_sigmas():
    bb = problem_registry("norm2").blackbox()
    with pytest.raises(InvalidInputError):
        bb.observe_batch(np.array([(0.0, 0.0), (1.0, 0.0)]), [0.5], np.random.default_rng(0))
    assert bb.observe_batch(np.empty((0, 2)), [], np.random.default_rng(0)) == ([], [])


def test_draw_cost_overflow_raises_typed_error():
    for sigma in (1e-160, 1e-170, 5e-324):
        with pytest.raises(InvalidSigmaError):
            draws_for_sigma(sigma)
    # the smallest sigma with a finite cost still works
    assert math.isfinite(draws_for_sigma(1e-154))

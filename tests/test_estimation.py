"""Estimate fusion: cache bookkeeping, combination algebra, incumbents."""

import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apmads import InvalidInputError, InvalidSigmaError, NoIncumbentError
from apmads.blackbox import Observation
from apmads.estimation import EvaluationCache, sigma_to_reach
from apmads.normal import phi_inv

from oracles import cache_state, combined_sigma, weighted_mle


def obs(value, sigma):
    return Observation(value=value, sigma=sigma)


def record_all(cache, points, observations):
    """``record_batch`` at the keys of ``points``, with the columns of ``observations``."""
    return cache.record_batch(
        [cache.key(x) for x in points],
        [o.value for o in observations],
        [o.sigma for o in observations],
        [o.feasible for o in observations],
    )


def test_single_observation():
    cache = EvaluationCache()
    cache.record((1.0,), obs(5.0, 1.0))
    assert cache.estimate((1.0,)) == (5.0, 1.0)


def test_two_equal_weight_observations_average():
    cache = EvaluationCache()
    x = (1.0,)
    cache.record(x, obs(5.0, 1.0))
    cache.record(x, obs(7.0, 1.0))
    fk, sigk = cache.estimate(x)
    assert fk == pytest.approx(6.0, abs=1e-15)
    assert sigk == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)


def test_mixed_sigma_history_matches_direct_formula():
    # oracle: weighted least squares on {(10, 1), (20, 2)} gives
    # (10/1 + 20/4) / (1/1 + 1/4) = 12 and (5/4) ** -0.5
    cache = EvaluationCache()
    x = (0.0,)
    cache.record(x, obs(10.0, 1.0))
    cache.record(x, obs(20.0, 2.0))
    fk, sigk = cache.estimate(x)
    assert fk == pytest.approx(12.0, rel=1e-14)
    assert sigk == pytest.approx(0.8944271909999159, rel=1e-12)


def test_unevaluated_point_estimates_to_infinity():
    cache = EvaluationCache()
    assert cache.estimate((3.0, 4.0)) == (math.inf, math.inf)


def test_four_repeats_halve_sigma():
    cache = EvaluationCache()
    x = (2.0,)
    for _ in range(4):
        cache.record(x, obs(0.0, 1.0))
    assert cache.estimate(x) == (0.0, 0.5)


def test_estimates_match_brute_force_oracle():
    rng = np.random.default_rng(12)
    for _ in range(1000):
        m = int(rng.integers(1, 21))
        history = [
            (float(rng.normal(0.0, 5.0)), float(10.0 ** rng.uniform(-2, 1)))
            for _ in range(m)
        ]
        cache = EvaluationCache()
        x = (0.0,)
        for v, s in history:
            cache.record(x, obs(v, s))
        expected_f, expected_sig = weighted_mle(history)
        fk, sigk = cache.estimate(x)
        assert fk == pytest.approx(expected_f, rel=1e-12, abs=1e-12)
        assert sigk == pytest.approx(expected_sig, rel=1e-12)


def test_recording_strictly_tightens_sigma():
    rng = np.random.default_rng(5)
    cache = EvaluationCache()
    x = (1.0, 1.0)
    previous = math.inf
    for _ in range(50):
        cache.record(x, obs(float(rng.normal()), float(10.0 ** rng.uniform(-2, 1))))
        _, sigk = cache.estimate(x)
        assert sigk < previous
        previous = sigk


def test_estimator_consistency_under_repetition():
    # repeated unit-sigma observations concentrate around the true value
    rng = np.random.default_rng(123)
    m = 10_000
    trials = 200
    failures = 0
    for _ in range(trials):
        noise_mean = float(np.mean(rng.standard_normal(m)))
        if abs(noise_mean) >= 5.0 / math.sqrt(m):
            failures += 1
    assert failures / trials <= 0.01


def test_combined_sigma():
    assert combined_sigma(math.inf, [2.0]) == 2.0
    assert combined_sigma(1.0, [1.0]) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)
    assert combined_sigma(0.8944271909999159, [0.5]) == pytest.approx(
        0.4364357804719848, rel=1e-12
    )
    assert combined_sigma(math.inf, []) == math.inf
    with pytest.raises(InvalidInputError):
        combined_sigma(1.0, [0.0])
    with pytest.raises(InvalidInputError):
        combined_sigma(-1.0, [1.0])


def test_sigma_to_reach():
    assert sigma_to_reach(0.5, 1.0, sigma_max=1.0) is None
    assert sigma_to_reach(math.inf, 0.1, sigma_max=1.0) == pytest.approx(0.1)
    assert sigma_to_reach(1.0, 1.0 / math.sqrt(2.0), sigma_max=10.0) == pytest.approx(
        1.0, rel=1e-12
    )
    with pytest.raises(InvalidInputError):
        sigma_to_reach(1.0, 0.0, sigma_max=1.0)


def test_sigma_to_reach_clamps_at_sigma_max():
    # target barely below existing: the exact solution is enormous
    assert sigma_to_reach(0.1000000001, 0.1, sigma_max=1.0) == 1.0


def test_sigma_to_reach_roundtrip():
    rng = np.random.default_rng(8)
    for _ in range(500):
        existing = float(10.0 ** rng.uniform(-2, 1))
        target = existing * float(rng.uniform(0.05, 0.999))
        sigma = sigma_to_reach(existing, target, sigma_max=math.inf)
        combined = combined_sigma(existing, [sigma])
        assert combined == pytest.approx(target, rel=1e-9)


def test_incumbent_minimises_and_breaks_ties_by_insertion():
    cache = EvaluationCache()
    cache.record((0.0,), obs(3.0, 1.0))
    cache.record((1.0,), obs(2.0, 1.0))
    assert cache.incumbent() == (1.0,)

    tie = EvaluationCache()
    tie.record((0.0,), obs(2.0, 1.0))
    tie.record((1.0,), obs(2.0, 1.0))
    assert tie.incumbent() == (0.0,)


def test_incumbent_skips_infeasible_points():
    cache = EvaluationCache()
    cache.record((0.0,), Observation.infeasible())
    cache.record((1.0,), obs(4.0, 1.0))
    cache.record((2.0,), Observation.infeasible())
    assert cache.incumbent() == (1.0,)


def test_incumbent_errors_without_feasible_points():
    cache = EvaluationCache()
    with pytest.raises(NoIncumbentError):
        cache.incumbent()
    cache.record((0.0,), Observation.infeasible())
    with pytest.raises(NoIncumbentError):
        cache.incumbent()


def test_infeasible_point_estimates_to_infinity():
    cache = EvaluationCache()
    cache.record((0.0,), Observation.infeasible())
    assert cache.estimate((0.0,)) == (math.inf, math.inf)


def test_cache_growth_beyond_initial_capacity():
    cache = EvaluationCache()
    for i in range(1000):
        cache.record((float(i),), obs(float(i), 1.0))
    assert len(cache) == 1000
    assert cache.incumbent() == (0.0,)
    assert cache.estimate((999.0,)) == (999.0, 1.0)


# a few ulps: the weights 1/s**2, their sum and the final **-0.5 each round
SIGMA_REL_TOL = 4 * sys.float_info.epsilon
# sigmas whose weights 1/s**2 and sums of a few weights stay finite and normal
SIGMA = st.floats(min_value=1e-150, max_value=1e150)
SIGMA_ALGEBRA = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@SIGMA_ALGEBRA
@given(
    existing=st.one_of(SIGMA, st.just(math.inf)),
    new=st.lists(SIGMA, max_size=8),
    added=SIGMA,
)
def test_combined_sigma_is_monotone(existing, new, added):
    combined = combined_sigma(existing, new)
    for sigma in (existing, *new):
        assert combined <= sigma * (1 + SIGMA_REL_TOL)
    # one more observation never loosens the estimate
    assert combined_sigma(existing, [*new, added]) <= combined * (1 + SIGMA_REL_TOL)


@SIGMA_ALGEBRA
@given(existing=st.one_of(SIGMA, st.just(math.inf)), target=SIGMA, sigma_max=SIGMA)
def test_sigma_to_reach_reaches_the_target(existing, target, sigma_max):
    sigma = sigma_to_reach(existing, target, sigma_max)
    assert (sigma is None) == (existing <= target)
    if sigma is not None:
        assert 0.0 < sigma <= sigma_max
        assert combined_sigma(existing, [sigma]) <= target * (1 + SIGMA_REL_TOL)


def test_clamped_observation_overshoots_target():
    # existing barely above the target: the exact sigma is far above
    # sigma_max, so the clamped (smaller) sigma ends below the target
    cache = EvaluationCache()
    x = (0.0,)
    existing, target, sigma_max = 0.5001, 0.5, 1.0
    cache.record(x, obs(1.0, existing))
    sigma = sigma_to_reach(existing, target, sigma_max)
    assert sigma == sigma_max
    cache.record(x, obs(1.0, sigma))
    _, sigk = cache.estimate(x)
    assert sigk <= target
    assert sigk < 0.9 * target  # the clamp pays for far more than the target


def test_record_batch_matches_sequential_record():
    rng = np.random.default_rng(4)
    pairs = []
    for j in range(600):  # grows past the initial capacity
        x = (float(j % 250),)  # repeats, within and across batches
        if j % 7 == 3:
            pairs.append((x, Observation.infeasible()))
        else:
            pairs.append((x, obs(float(rng.normal()), float(rng.uniform(0.1, 1.0)))))
    sequential = EvaluationCache()
    for x, o in pairs:
        sequential.record(x, o)
    batched = EvaluationCache()
    for start in range(0, len(pairs), 37):
        chunk = pairs[start : start + 37]
        record_all(batched, [x for x, _ in chunk], [o for _, o in chunk])
    assert cache_state(batched) == cache_state(sequential)
    assert batched.incumbent() == sequential.incumbent()
    for x, _ in pairs:
        assert batched.estimate(x) == sequential.estimate(x)


def test_record_batch_rejects_mismatched_lengths():
    with pytest.raises(InvalidInputError):
        record_all(EvaluationCache(), [(0.0,), (1.0,)], [obs(1.0, 1.0)])
    with pytest.raises(InvalidInputError):
        keys = [EvaluationCache.key((0.0,)), EvaluationCache.key((1.0,))]
        EvaluationCache().record_batch(keys, [1.0, 1.0], [1.0, 1.0], [True])


@pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, 5e-324])
def test_record_batch_rejects_a_sigma_without_a_positive_square_before_writing(sigma):
    # 5e-324 squares to 0: its weight 1 / sigma**2 would divide by zero
    cache = EvaluationCache()
    record_all(cache, [(0.0,), (1.0,), (2.0,)], [obs(2.0, 1.0), obs(1.0, 0.5), obs(3.0, 1.0)])
    query = (2.0, 0.5, phi_inv(0.25))
    searched = cache.searched_rows(*query)  # activates the bound column
    fk, sigk = (a.copy() for a in cache.estimate_arrays())
    with pytest.raises(InvalidSigmaError):
        # a new point that would take over the incumbent, then a revisit at the bad sigma
        record_all(cache, [(3.0,), (1.0,)], [obs(-10.0, 1.0), obs(1.0, sigma)])
    assert len(cache) == 3
    assert [a.tolist() for a in cache.estimate_arrays()] == [fk.tolist(), sigk.tolist()]
    assert cache.incumbent() == (1.0,)
    assert cache.searched_rows(*query) == searched


PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)

# finite coordinates, with zeros of both signs, subnormals and repeats likely
COORDINATE = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 5e-324, -1e-300, 1e300, math.pi]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@PROPERTY
@given(
    origin=st.lists(st.integers(-(2**15), 2**15), min_size=1, max_size=6),
    scale=st.integers(0, 10),
    k=st.integers(0, 20),
    data=st.data(),
)
def test_mesh_point_from_two_centres_maps_to_one_row(origin, scale, k, data):
    # every value is a multiple of 2**-30 below 2**17 in magnitude, so the
    # mesh arithmetic is exact and both routes land on the same floats
    n = len(origin)
    steps = st.lists(st.integers(-(2**10), 2**10), min_size=n, max_size=n)
    z1, z2 = data.draw(steps), data.draw(steps)
    delta = 2.0**-k
    base = [o * 2.0**-scale for o in origin]
    centre1 = [b + delta * a for b, a in zip(base, z1)]
    centre2 = [b + delta * a for b, a in zip(base, z2)]
    via1 = tuple(c + delta * a for c, a in zip(centre1, z2))
    via2 = tuple(c + delta * a for c, a in zip(centre2, z1))
    assert via1 == via2
    cache = EvaluationCache()
    rows = record_all(cache, [via1, via2], [obs(1.0, 1.0), obs(3.0, 1.0)])
    assert rows == [0, 0]
    assert len(cache) == 1
    assert cache.estimate(via2) == (2.0, 2.0**-0.5)  # both observations fused


@PROPERTY
@given(point=st.lists(COORDINATE, min_size=1, max_size=6))
def test_negative_and_positive_zero_map_to_one_row(point):
    negative = tuple(-0.0 if c == 0.0 else c for c in point)
    positive = tuple(0.0 if c == 0.0 else c for c in point)
    cache = EvaluationCache()
    assert cache.record(negative, obs(1.0, 1.0)) == 0
    assert cache.row(positive) == 0 and positive in cache
    assert cache.record(positive, obs(3.0, 1.0)) == 0
    assert len(cache) == 1 and cache.estimate(negative) == (2.0, 2.0**-0.5)
    # the batch key path agrees with the one-point path
    assert cache.keys(np.array([negative, positive])) == [cache.key(positive)] * 2
    # coordinates come back with 0.0 for -0.0
    assert cache.coords_at([0]).tobytes() == (np.array([point]) + 0.0).tobytes()


@PROPERTY
@given(
    n=st.integers(1, 4),
    data=st.data(),
)
def test_rows_follow_tuple_equality_and_points_round_trip(n, data):
    points = data.draw(
        st.lists(st.tuples(*[COORDINATE] * n), max_size=40)
        | st.lists(st.tuples(*[st.sampled_from([0.0, -0.0, 1.0])] * n), max_size=40)
    )
    cache = EvaluationCache()
    rows = record_all(cache, points, [obs(1.0, 1.0)] * len(points))
    for i, a in enumerate(points):
        for j, b in enumerate(points):
            assert (rows[i] == rows[j]) == (a == b)
    first = list(dict.fromkeys(points))  # distinct points, first occurrence first
    assert len(cache) == len(first)
    assert sorted(set(rows)) == list(range(len(first)))
    assert [cache.row(x) for x in points] == rows
    if points:
        assert cache.keys(np.array(points)) == [cache.key(x) for x in points]
    got = cache.coords_at(range(len(cache))).reshape(len(first), n)
    assert got.tobytes() == (np.array(first, dtype=float).reshape(len(first), n) + 0.0).tobytes()


# values that tie, values whose fusion sums overflow (to +-inf, or NaN when
# both signs meet) and zeros of both signs; a NaN estimate is sticky, so the
# values and sigmas that make one come less often than the others
FUSED_VALUE = st.one_of(
    st.integers(-3, 3).map(float),
    st.floats(min_value=-1e6, max_value=1e6),
    st.sampled_from([0.0, -0.0, 1e308, -1e308, 1.7976931348623157e308]),
)
# sigmas up to 1 whose square does not underflow to 0 (record_batch divides by
# it), from 2.2e-162; below about 1e-154 their weight 1/s**2 overflows
UNIT_SIGMA = st.one_of(
    st.sampled_from([0.5, 1.0]),
    st.floats(min_value=1e-3, max_value=1.0),
    st.sampled_from([math.sqrt(5e-324), 1e-160, 1e-154, 1e-3]),
    st.floats(min_value=math.sqrt(5e-324), max_value=1.0),
)


def argmin_incumbent(cache):
    """The incumbent by a full scan of the estimates, or None when there is none."""
    fk = cache.estimate_arrays()[0]
    if not len(fk):
        return None
    i = int(fk.argmin())  # the first NaN, else the first lowest estimate
    return cache.point_at(i) if math.isfinite(fk[i]) else None


@PROPERTY
@given(data=st.data())
def test_kept_incumbent_equals_the_argmin_after_every_batch(data):
    cache = EvaluationCache()
    for _ in range(data.draw(st.integers(1, 8))):
        incumbent = argmin_incumbent(cache)
        batch = []
        for _ in range(data.draw(st.integers(1, 12))):
            kind = data.draw(st.sampled_from(["observe", "observe", "infeasible", "incumbent"]))
            if kind == "incumbent" and incumbent is not None:
                batch.append((incumbent, math.nan, math.nan, False))
                continue
            x = (float(data.draw(st.integers(0, 9))),)  # repeats within and across batches
            batch.append((x, data.draw(FUSED_VALUE), data.draw(UNIT_SIGMA), kind == "observe"))
        points, values, sigmas, feasible = zip(*batch)
        cache.record_batch([cache.key(x) for x in points], values, sigmas, feasible)
        expected = argmin_incumbent(cache)
        if expected is None:
            with pytest.raises(NoIncumbentError):
                cache.incumbent()
        else:
            assert cache.incumbent() == expected


def test_an_equal_estimate_at_a_lower_row_takes_over_the_incumbent():
    # argmin breaks ties by the lowest row, and -0.0 ties with 0.0
    cache = EvaluationCache()
    record_all(cache, [(0.0,), (1.0,)], [obs(1.0, 1.0), obs(0.0, 1.0)])
    assert cache.incumbent() == (1.0,)
    record_all(cache, [(0.0,)], [obs(-1.0, 1.0)])  # row 0 fuses to 0.0
    assert cache.incumbent() == (0.0,)
    record_all(cache, [(2.0,)], [obs(-0.0, 1.0)])  # a later row ties and loses
    assert cache.incumbent() == (0.0,)


def test_cache_memory_per_point():
    # 20k distinct n=20 points, recorded by the keys of each batch's rows
    # as the solver's polls are: one packed key, its dict entry and array
    # rows per point (about 313 B; 326 B with the bound column that the
    # search reads, its 8 B a row over a capacity that grows by doubling),
    # where keeping a tuple and a Python object graph per point cost about
    # 1.2 kB
    n_points, batch = 20_000, 40
    coords = np.random.default_rng(0).standard_normal((n_points, 20))
    values, sigmas, feasible = [1.0] * batch, [0.5] * batch, [True] * batch
    for bound_column in (False, True):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cache = EvaluationCache()
            for start in range(0, n_points, batch):
                cache.record_batch(cache.keys(coords[start : start + batch]), values, sigmas,
                                   feasible)
                if bound_column:
                    cache.searched_rows(1.0, 0.5, phi_inv(0.25))
            used = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(cache) == n_points
        assert used / n_points <= 400


def test_record_batch_rejects_mixed_dimensions():
    cache = EvaluationCache()
    cache.record((0.0, 1.0), obs(1.0, 1.0))
    with pytest.raises(InvalidInputError):
        record_all(cache, [(1.0, 1.0), (2.0,)], [obs(1.0, 1.0)] * 2)
    with pytest.raises(InvalidInputError):
        cache.record((1.0, 2.0, 3.0), obs(1.0, 1.0))
    assert len(cache) == 1
    assert (1.0, 2.0, 3.0) not in cache


@pytest.mark.parametrize("point", [("a", 1.0), (None, 0.0), (0.0, "b"), 5, "ab"])
def test_key_rejects_non_numeric_points(point):
    cache = EvaluationCache()
    with pytest.raises(InvalidInputError, match="sequence of numbers"):
        cache.key(point)
    with pytest.raises(InvalidInputError):
        cache.record(point, obs(1.0, 1.0))
    assert len(cache) == 0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_record_rejects_non_finite_points_before_writing(bad):
    cache = EvaluationCache()
    with pytest.raises(InvalidInputError, match="non-finite coordinate"):
        cache.record((bad, 1.0), obs(1.0, 1.0))
    assert len(cache) == 0
    with pytest.raises(NoIncumbentError):
        cache.incumbent()
    cache.record((0.0, 1.0), obs(2.0, 1.0))
    with pytest.raises(InvalidInputError):
        cache.record((1.0, bad), obs(-5.0, 1.0))
    assert len(cache) == 1
    assert cache.incumbent() == (0.0, 1.0)

"""Normal CDF accuracy and the statistical behaviour of point comparisons."""

import math

import numpy as np
import pytest

from apmads import InvalidInputError, UndefinedComparisonError
from apmads.blackbox import Observation
from apmads.estimation import EvaluationCache
from apmads.normal import p_value, phi, phi_inv

from oracles import (
    cdf_by_quadrature,
    inverse_cdf_by_bisection,
    ks_critical,
    ks_statistic_uniform,
)


def cache_with(points: dict) -> EvaluationCache:
    cache = EvaluationCache()
    for x, history in points.items():
        for value, sigma in history:
            cache.record(x, Observation(value=value, sigma=sigma))
    return cache


def test_phi_reference_points():
    assert phi(0.0) == 0.5
    # frozen from the quadrature oracle
    assert phi(-1.0) == pytest.approx(0.15865525393145707, abs=1e-12)
    assert phi(-3.0) == pytest.approx(0.0013498980316300933, abs=1e-12)
    assert phi(1.0) == pytest.approx(0.8413447460685429, abs=1e-12)


def test_phi_matches_quadrature_oracle():
    for z in np.linspace(-6.0, 6.0, 25):
        assert phi(float(z)) == pytest.approx(cdf_by_quadrature(float(z)), abs=1e-9)


def test_phi_inv_reference_points():
    assert phi_inv(0.5) == 0.0
    assert phi_inv(0.841344746068543) == pytest.approx(1.0, abs=1e-9)
    # frozen from the bisection oracle on the quadrature CDF
    assert phi_inv(0.997) == pytest.approx(2.7477813854449917, abs=1e-9)
    assert inverse_cdf_by_bisection(0.997) == pytest.approx(2.7477813854, abs=1e-7)


def test_phi_inv_round_trip():
    for p in np.linspace(1e-6, 1.0 - 1e-6, 41):
        assert abs(phi(phi_inv(float(p))) - p) <= 1e-8


def test_phi_inv_matches_scipy_ndtri():
    special = pytest.importorskip("scipy.special")
    # the default search threshold tau = 0.25 is bit-equal, which keeps
    # the run logs of the default configuration unchanged
    assert phi_inv(0.25) == float(special.ndtri(0.25)) == -0.6744897501960817
    for p in np.concatenate([np.logspace(-300, -1, 60), np.linspace(0.01, 0.99, 99)]):
        for q in (float(p), 1.0 - float(p)):
            if 0.0 < q < 1.0:
                assert phi_inv(q) == pytest.approx(float(special.ndtri(q)), rel=1e-15, abs=1e-300)


def test_phi_inv_domain():
    for bad in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(InvalidInputError):
            phi_inv(bad)


def test_p_value_equal_estimates():
    cache = cache_with({(0.0,): [(1.0, 1.0)], (1.0,): [(1.0, 1.0)]})
    assert p_value(cache, (0.0,), (1.0,)) == 0.5


def test_p_value_unit_gap():
    # estimates 1 apart, sigma 1/sqrt(2) each: combined sigma is exactly 1
    s = 1.0 / math.sqrt(2.0)
    cache = cache_with({(0.0,): [(3.0, s)], (1.0,): [(4.0, s)]})
    assert p_value(cache, (0.0,), (1.0,)) == pytest.approx(
        0.8413447460685429, rel=1e-12
    )


def test_p_value_three_sigma_against():
    s = 1.0 / math.sqrt(2.0)
    cache = cache_with({(0.0,): [(4.0, s)], (1.0,): [(1.0, s)]})
    assert p_value(cache, (0.0,), (1.0,)) == pytest.approx(
        0.0013498980316300933, rel=1e-9
    )


def test_p_value_undefined_for_missing_points():
    cache = cache_with({(0.0,): [(1.0, 1.0)]})
    with pytest.raises(UndefinedComparisonError):
        p_value(cache, (0.0,), (9.0,))
    cache.record((2.0,), Observation.infeasible())
    with pytest.raises(UndefinedComparisonError):
        p_value(cache, (2.0,), (0.0,))


def test_p_value_antisymmetry():
    rng = np.random.default_rng(4)
    for _ in range(200):
        cache = cache_with(
            {
                (0.0,): [(float(rng.normal()), float(10 ** rng.uniform(-2, 0)))],
                (1.0,): [(float(rng.normal()), float(10 ** rng.uniform(-2, 0)))],
            }
        )
        total = p_value(cache, (0.0,), (1.0,)) + p_value(cache, (1.0,), (0.0,))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_p_value_monotone_in_candidate_estimate():
    previous = 1.0
    for value in np.linspace(-3.0, 3.0, 25):
        cache = cache_with({(0.0,): [(float(value), 0.5)], (1.0,): [(0.0, 0.5)]})
        p = p_value(cache, (0.0,), (1.0,))
        assert p < previous
        previous = p


def pvalue_limit_pass_rate(
    n_trials: int = 200, n_obs: int = 100, threshold: float = 0.99, seed: int = 0
) -> float:
    """Fraction of trials where p supports the truly-better point after
    ``n_obs`` unit-sigma observations of each."""
    rng = np.random.default_rng(seed)
    passed = 0
    for _ in range(n_trials):
        cache = EvaluationCache()
        for _ in range(n_obs):
            cache.record((0.0,), Observation(float(rng.normal(0.0, 1.0)), 1.0))
            cache.record((1.0,), Observation(float(rng.normal(1.0, 1.0)), 1.0))
        if p_value(cache, (0.0,), (1.0,)) >= threshold:
            passed += 1
    return passed / n_trials


def pvalue_uniformity_ks(n_samples: int = 10_000, seed: int = 1) -> float:
    """KS distance to uniform of p-values for two points with equal truth."""
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(n_samples):
        cache = EvaluationCache()
        cache.record((0.0,), Observation(float(rng.normal(0.0, 1.0)), 1.0))
        cache.record((1.0,), Observation(float(rng.normal(0.0, 1.0)), 1.0))
        samples.append(p_value(cache, (0.0,), (1.0,)))
    return ks_statistic_uniform(samples)


def test_p_value_converges_when_truths_differ():
    assert pvalue_limit_pass_rate() >= 0.95


def test_p_value_uniform_when_truths_equal():
    assert pvalue_uniformity_ks() < ks_critical(10_000, alpha=0.01)

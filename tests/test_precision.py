"""Precision schedule and the index update policies."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from apmads import ConfigError, InvalidInputError, SolverConfig
from apmads.precision import rho, update_r

from oracles import check_condition


# rho reads only sigma_min, sigma_max, r0 and theta; a schedule above the
# observable cap SIGMA_MAX = 1, which SolverConfig refuses, is given as a namespace


def test_rho_midpoint_with_illustration_parameters():
    config = SimpleNamespace(sigma_min=1.0, sigma_max=10.0, r0=-3.0, theta=0.1)
    assert rho(config, -3.0) == pytest.approx(5.5, abs=1e-12)


def test_rho_defaults():
    config = SolverConfig()
    assert rho(config, 0.0) == pytest.approx(0.5, abs=1e-15)
    assert rho(config, 10.0) == pytest.approx(0.05, rel=1e-14)


def test_rho_strictly_decreasing_on_grid():
    for config in (
        SolverConfig(),
        SimpleNamespace(sigma_min=1.0, sigma_max=10.0, r0=-3.0, theta=0.1),
    ):
        grid = np.linspace(-50.0, 50.0, 1000)
        values = [rho(config, float(r)) for r in grid]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_rho_nonincreasing_when_floating_point_saturates():
    # steep theta drives the exponential below one ulp of the plateau
    config = SimpleNamespace(sigma_min=0.0, sigma_max=2.0, r0=4.0, theta=0.37)
    grid = np.linspace(-50.0, 50.0, 1000)
    values = [rho(config, float(r)) for r in grid]
    assert all(a >= b for a, b in zip(values, values[1:]))
    # strictly decreasing where the exponential is well conditioned
    window = np.linspace(config.r0 - 2.0 / config.theta, config.r0 + 2.0 / config.theta, 200)
    mid = [rho(config, float(r)) for r in window]
    assert all(a > b for a, b in zip(mid, mid[1:]))


def test_rho_midpoint_and_branch_continuity():
    rng = np.random.default_rng(2)
    for _ in range(50):
        lo = float(rng.uniform(0.0, 2.0))
        config = SimpleNamespace(
            sigma_min=lo,
            sigma_max=lo + float(rng.uniform(0.1, 10.0)),
            r0=float(rng.uniform(-5.0, 5.0)),
            theta=float(rng.uniform(0.01, 1.0)),
        )
        mid = 0.5 * (config.sigma_min + config.sigma_max)
        assert abs(rho(config, config.r0) - mid) <= 1e-12
        assert rho(config, config.r0 - 1e-12) == pytest.approx(mid, abs=1e-9)


def test_rho_clamped_into_range():
    config = SimpleNamespace(sigma_min=0.25, sigma_max=4.0, r0=0.0, theta=0.1)
    assert rho(config, 1e9) == 0.25
    assert rho(config, -1e9) == 4.0


def test_rho_params_validation():
    with pytest.raises(ConfigError):
        SolverConfig(sigma_min=-1.0)
    with pytest.raises(ConfigError):
        SolverConfig(sigma_min=2.0, sigma_max=1.0)
    with pytest.raises(ConfigError):
        SolverConfig(theta=0.0)
    # NaN and inf must not slip past the range checks
    for theta in (math.inf, math.nan):
        with pytest.raises(ConfigError, match="theta"):
            SolverConfig(theta=theta)
    with pytest.raises(ConfigError, match="sigma_min"):
        SolverConfig(sigma_min=math.nan)
    with pytest.raises(ConfigError, match="sigma_max must be finite and above sigma_min"):
        SolverConfig(sigma_max=math.inf)
    with pytest.raises(ConfigError, match="r0 must be finite"):
        SolverConfig(r0=math.nan)
    for name in ("sigma_min", "sigma_max", "r0", "theta"):
        with pytest.raises(ConfigError, match=f"{name} must be a real number"):
            SolverConfig(**{name: True})


def test_policy_defaults_and_validation():
    mp = SolverConfig(variant="mp")
    assert (mp.beta_l, mp.beta_u) == (0.0003, 0.997)
    dp = SolverConfig(variant="dp")
    assert (dp.beta_l, dp.beta_u) == (0.15, 0.85)
    with pytest.raises(ConfigError):
        SolverConfig(variant="mp", beta_l=0.0)
    with pytest.raises(ConfigError):
        SolverConfig(variant="mp", beta_l=0.6)
    with pytest.raises(ConfigError):
        SolverConfig(variant="dp", beta_u=1.0)
    with pytest.raises(ConfigError):
        SolverConfig(variant="dp", dp_decrease_threshold=0.2)  # not below beta_l
    with pytest.raises(ConfigError):
        SolverConfig(variant="xx")


def test_update_r_monotone_variant():
    mp = SolverConfig(variant="mp")
    assert update_r(mp, 3.0, 0.5) == 4.0
    assert update_r(mp, 3.0, 0.999) == 3.0
    assert update_r(mp, 3.0, 0.0001) == 3.0


def test_update_r_dynamic_variant():
    dp = SolverConfig(variant="dp")
    assert update_r(dp, 3.0, 0.5) == 4.0  # uncertain: must increase
    assert update_r(dp, 3.0, 0.999) == 2.0  # decisively better: can relax
    assert update_r(dp, 3.0, 0.001) == 2.0  # decisively worse: can relax
    assert update_r(dp, 3.0, 0.9) == 3.0  # outside but not decisive: hold
    assert update_r(dp, 3.0, 0.1) == 3.0


def test_update_r_rejects_bad_p():
    with pytest.raises(InvalidInputError):
        update_r(SolverConfig(variant="dp"), 0.0, 1.5)
    with pytest.raises(InvalidInputError):
        update_r(SolverConfig(variant="mp"), 0.0, -0.1)


def test_check_condition_examples():
    dp = SolverConfig(variant="dp")
    assert check_condition(dp, 3.0, 4.0, 0.5)
    assert not check_condition(dp, 3.0, 3.0, 0.5)
    mp = SolverConfig(variant="mp")
    # p = 0.99 sits inside the monotone interval, so r must increase
    assert not check_condition(mp, 3.0, 2.0, 0.99)
    # outside the interval the monotone variant freezes r
    assert not check_condition(mp, 3.0, 4.0, 0.9999)
    assert check_condition(mp, 3.0, 3.0, 0.9999)


def conformance_rate(variant: str, n: int = 10_000, seed: int = 0) -> float:
    """Fraction of random p values whose update satisfies its own condition."""
    rng = np.random.default_rng(seed)
    config = SolverConfig(variant=variant)
    r = 0.0
    ok = 0
    for _ in range(n):
        p = float(rng.uniform(0.0, 1.0))
        new_r = update_r(config, r, p)
        if check_condition(config, r, new_r, p):
            ok += 1
        r = new_r
    return ok / n


def test_update_r_satisfies_own_condition():
    assert conformance_rate("mp") == 1.0
    assert conformance_rate("dp") == 1.0

"""Mesh geometry, poll generation and frame updates."""

from fractions import Fraction

import numpy as np
import pytest

from apmads import InvalidInputError
from apmads.mesh import IterationStatus, generate_poll, mesh_size, on_mesh, update_frame

from oracles import positively_spans


def test_mesh_size():
    assert mesh_size(1.0) == 1.0
    assert mesh_size(0.1) == pytest.approx(0.01, rel=1e-15)
    assert mesh_size(4.0) == 4.0
    with pytest.raises(InvalidInputError):
        mesh_size(0.0)


def test_poll_1d_is_plus_minus_one():
    rng = np.random.default_rng(0)
    coords = generate_poll((3.0,), 1.0, rng)
    assert set(map(tuple, coords.tolist())) == {(2.0,), (4.0,)}
    assert positively_spans(coords - 3.0)


def test_poll_drops_candidates_past_the_largest_float():
    big = np.finfo(float).max
    coords = generate_poll((big, 0.0), 2.0**1000, np.random.default_rng(3))
    # the same rng draws at the origin: the same steps, none of them overflowing
    steps = generate_poll((0.0, 0.0), 2.0**1000, np.random.default_rng(3))
    with np.errstate(over="ignore"):
        shifted = steps + [big, 0.0]
    kept = [row for row in shifted.tolist() if np.isfinite(row).all()]
    assert 0 < len(coords) < len(steps) == 4
    assert coords.tolist() == kept


def test_poll_2d_unit_frame():
    rng = np.random.default_rng(1)
    coords = generate_poll((0.0, 0.0), 1.0, rng)
    assert coords.shape == (4, 2)
    # zero centre and power-of-two mesh: the division is exact
    steps = coords / mesh_size(1.0)
    for z in steps:
        assert max(abs(c) for c in z) <= 1.0
        assert all(c == int(c) for c in z)
    assert positively_spans(steps)


def test_poll_candidates_inside_frame_and_on_mesh():
    rng = np.random.default_rng(2)
    center = (0.5, -1.25)
    coords = generate_poll(center, 0.5, rng)
    assert mesh_size(0.5) == 0.25
    for x in coords.tolist():
        assert max(abs(a - b) for a, b in zip(x, center)) <= 0.5 + 1e-15
        assert on_mesh(x, center, 0.25)


def test_poll_positive_spanning_property():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 4):
        center = tuple(0.0 for _ in range(n))
        for _ in range(100):
            delta_p = float(2.0 ** rng.integers(-8, 3))
            coords = generate_poll(center, delta_p, rng)
            assert coords.shape == (2 * n, n)
            assert positively_spans(coords / mesh_size(delta_p))


def test_poll_respects_frame_for_small_delta():
    rng = np.random.default_rng(3)
    for _ in range(50):
        delta_p = float(2.0 ** rng.integers(-20, 1))
        center = (1.0, 2.0, 3.0)
        for x in generate_poll(center, delta_p, rng).tolist():
            assert max(abs(a - b) for a, b in zip(x, center)) <= delta_p * (1 + 1e-12)
            assert on_mesh(x, center, mesh_size(delta_p))


def test_update_frame_rules():
    assert update_frame(1.0, IterationStatus.SUCCESS, 0.99, 0.15, 0.85) == 2.0
    assert update_frame(1.0, IterationStatus.SUCCESS, 0.6, 0.15, 0.85) == 1.0
    assert update_frame(1.0, IterationStatus.FAILURE, 0.4, 0.15, 0.85) == 1.0
    assert update_frame(1.0, IterationStatus.FAILURE, 0.01, 0.15, 0.85) == 0.5
    assert update_frame(1.0, IterationStatus.BARRIER, 0.0, 0.15, 0.85) == 0.5
    assert update_frame(1.0, IterationStatus.BARRIER, 1.0, 0.15, 0.85) == 0.5


def test_update_frame_keeps_the_frame_when_p_equals_a_beta():
    # doubling needs p > beta_u and halving p < beta_l, strictly
    assert update_frame(1.0, IterationStatus.SUCCESS, 0.85, 0.15, 0.85) == 1.0
    assert update_frame(1.0, IterationStatus.FAILURE, 0.15, 0.15, 0.85) == 1.0


def test_frame_mesh_coupling_after_updates():
    delta_p = 1.0
    rng = np.random.default_rng(11)
    for _ in range(100):
        status = rng.choice(list(IterationStatus))
        p = float(rng.uniform())
        delta_p = update_frame(delta_p, status, p, 0.15, 0.85)
        assert mesh_size(delta_p) == min(delta_p, delta_p**2)
        # power-of-two updates stay exact in binary floating point
        assert Fraction(delta_p).numerator == 1 or Fraction(delta_p).denominator == 1


def test_on_mesh_exactness():
    assert on_mesh((1.25,), (1.0,), 0.25)
    assert not on_mesh((1.3,), (1.0,), 0.25)
    assert on_mesh((2.0**-30 * 7 + 5.0,), (5.0,), 2.0**-30)
    with pytest.raises(InvalidInputError):
        on_mesh((1.0,), (1.0,), 0.0)

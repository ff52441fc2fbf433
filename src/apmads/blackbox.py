"""Noisy observation layer over a deterministic objective.

Solvers never see true objective values. Every query goes through
``NoisyBlackbox.observe_batch`` (or its one-point form ``observe``), which
adds centred Gaussian noise of the requested standard deviation and
charges the equivalent Monte-Carlo draw cost to a per-run ledger. Points
outside the domain are reported as infeasible at zero draw cost; the
domain check itself is deterministic.
"""

import math
from array import array
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .exceptions import InvalidInputError, InvalidSigmaError

Point = tuple[float, ...]

# the largest sigma an observation may ask for: one draw, costing 1 equivalent draw
SIGMA_MAX = 1.0


def as_point(coords) -> Point:
    """Normalise a coordinate sequence to a finite float tuple."""
    pt = tuple(float(c) for c in coords)
    for c in pt:
        if not math.isfinite(c):
            raise InvalidInputError(f"point has non-finite coordinate: {pt}")
    return pt


def draws_for_sigma(sigma: float) -> float:
    """Equivalent Monte-Carlo draw cost of one observation at ``sigma``.

    An estimate with standard deviation ``sigma`` costs ``1 / sigma**2``
    draws; the count is real-valued, not an integer. A sigma so small that
    the count overflows raises ``InvalidSigmaError``.
    """
    if not sigma > 0:
        raise InvalidSigmaError(f"sigma must be positive, got {sigma}")
    square = sigma * sigma
    cost = 1.0 / square if square > 0.0 else math.inf
    if not math.isfinite(cost):
        raise InvalidSigmaError(f"draw cost of sigma={sigma} is not finite")
    return cost


@dataclass(frozen=True, slots=True)
class Observation:
    """One noisy evaluation: the value seen and the sigma it was requested at."""

    value: float
    sigma: float
    feasible: bool = True

    @staticmethod
    def infeasible() -> "Observation":
        return Observation(value=math.inf, sigma=math.inf, feasible=False)


@dataclass
class DrawLedger:
    """Exact running account of the equivalent Monte-Carlo draws consumed.

    ``total_draws`` is the running sum in charge order; ``sigmas`` holds
    one entry per charged observation, which cost ``draws_for_sigma(sigma)``.
    """

    total_draws: float = 0.0
    sigmas: array = field(default_factory=lambda: array("d"))

    def __len__(self) -> int:
        return len(self.sigmas)

    def charge_batch(self, sigmas, draws) -> None:
        """Charge one observation at ``sigmas[j]`` costing ``draws[j]``, in order."""
        total = self.total_draws
        for d in draws:
            total += d
        self.total_draws = total
        self.sigmas.extend(sigmas)


class NoisyBlackbox:
    """Solver-facing view of a problem: feasibility plus noisy observations.

    A blackbox instance (with its ledger) belongs to a single run and is
    used from one thread; independent runs build independent instances.
    """

    def __init__(self, truth: Callable[[Point], float], feasible: Callable[[Point], bool],
                 dimension: int):
        self._truth = truth
        self._feasible = feasible
        self.dimension = int(dimension)
        self.ledger = DrawLedger()

    def feasible(self, x: Point) -> bool:
        return bool(self._feasible(x))

    def observe(self, x: Point, sigma: float, rng) -> Observation:
        """Observe the objective at ``x`` with noise level ``sigma``.

        The one-point form of ``observe_batch``.
        """
        try:
            coords = np.array([x], dtype=float)
        except (TypeError, ValueError):
            raise InvalidInputError(
                f"points must each have {self.dimension} numeric coordinates"
            ) from None
        values, feasible = self.observe_batch(coords, [sigma], rng)
        return Observation(values[0], sigma) if feasible[0] else Observation.infeasible()

    def observe_batch(self, coords, sigmas, rng) -> tuple[list[float], list[bool]]:
        """Observe row j of the (k, dimension) array ``coords`` at ``sigmas[j]``, in order.

        Returns the observed values and the feasibility flags, one per
        point. Feasible points give ``truth(x) + z * sigma`` and charge
        ``draws_for_sigma(sigma)`` to the ledger; the ``z`` are one
        ``rng.standard_normal(k)`` draw for the k feasible points, which
        equals k scalar draws in sequence. Infeasible points give +inf,
        consume no randomness and cost nothing. The whole batch is
        validated before any noise is drawn or any draw charged, so a bad
        point or sigma leaves the ledger and ``rng`` untouched. ``truth``
        and ``feasible`` are called once per point, with the row as a
        tuple of floats.
        """
        k = len(coords)
        if len(sigmas) != k:
            raise InvalidInputError(f"got {len(sigmas)} sigmas for {k} points")
        if k == 0:
            return [], []
        if coords.shape != (k, self.dimension):
            raise InvalidInputError(
                f"points have shape {coords.shape}, expected ({k}, {self.dimension})"
            )
        if not np.isfinite(coords).all():
            bad = int(np.isfinite(coords).all(axis=1).argmin())  # the first bad point
            raise InvalidInputError(
                f"point has non-finite coordinate: {tuple(coords[bad].tolist())}"
            )
        for sigma in sigmas:
            if not 0.0 < sigma <= SIGMA_MAX:
                raise InvalidSigmaError(f"sigma must lie in (0, {SIGMA_MAX}], got {sigma}")
        xs = list(map(tuple, coords.tolist()))
        is_feasible = self._feasible
        feasible = [bool(is_feasible(x)) for x in xs]
        charged = [s for s, ok in zip(sigmas, feasible) if ok]
        # a poll's fresh candidates share one sigma: cost each distinct sigma once
        cost_of = {s: draws_for_sigma(s) for s in dict.fromkeys(charged)}
        costs = list(map(cost_of.__getitem__, charged))
        noise = iter(rng.standard_normal(len(costs)).tolist() if costs else ())
        truth = self._truth
        values = [
            truth(x) + next(noise) * sigma if ok else math.inf
            for x, sigma, ok in zip(xs, sigmas, feasible)
        ]
        self.ledger.charge_batch(charged, costs)
        return values, feasible

"""Analytical benchmark problems behind the noisy observation interface.

Each problem definition is immutable and shareable; the true objective is
exposed for profiling and validation only, never to a solver (solvers get
a ``NoisyBlackbox`` built by ``ProblemDef.blackbox``).
"""

import math
from dataclasses import dataclass
from typing import Callable

from .blackbox import NoisyBlackbox, Point
from .exceptions import UnknownProblemError

MOUSTACHE_L_MIN = 0.05
MOUSTACHE_L_MAX = 0.1
MOUSTACHE_X_M = 11.0


def norm2_truth(x: Point) -> float:
    """Euclidean norm of the coordinates; zero only at the origin."""
    return math.hypot(*x)


def norm2_feasible(x: Point) -> bool:
    return True


def moustache_ridge(x1: float) -> float:
    """Center line of the feasible ribbon."""
    return -(abs(math.cos(x1)) + 0.1) * math.sin(x1) + 2.0


def moustache_half_width(x1: float) -> float:
    """Half-width of the ribbon: narrowest (0.05) at x1 = 11, up to 0.1 far away."""
    return MOUSTACHE_L_MIN + (MOUSTACHE_L_MAX - MOUSTACHE_L_MIN) * (
        1.0 - 1.0 / (1.0 + abs(x1 - MOUSTACHE_X_M))
    )


def moustache_truth(x: Point) -> float:
    return -x[0]


def moustache_feasible(x: Point) -> bool:
    x1, x2 = x
    if not 0.0 <= x1 <= 20.0:
        return False
    return abs(x2 - moustache_ridge(x1)) <= moustache_half_width(x1)


@dataclass(frozen=True)
class ProblemDef:
    """One benchmark problem: truth, domain, start point and defaults.

    ``best_truth`` is the known optimal objective value, used only for
    accuracy normalisation in the profiling layer.
    """

    name: str
    dimension: int
    start: Point
    truth: Callable[[Point], float]
    feasible: Callable[[Point], bool]
    best_truth: float
    stop_delta_p: float

    def blackbox(self) -> NoisyBlackbox:
        """Fresh solver-facing blackbox with its own empty draw ledger."""
        return NoisyBlackbox(self.truth, self.feasible, self.dimension)

    @property
    def start_truth(self) -> float:
        return self.truth(self.start)


_REGISTRY = {
    "norm2": ProblemDef(
        name="norm2",
        dimension=2,
        start=(math.pi**2, math.e**2),
        truth=norm2_truth,
        feasible=norm2_feasible,
        best_truth=0.0,
        stop_delta_p=1e-10,
    ),
    "moustache": ProblemDef(
        name="moustache",
        dimension=2,
        start=(0.0, 2.0),
        truth=moustache_truth,
        feasible=moustache_feasible,
        best_truth=-20.0,
        stop_delta_p=1e-5,
    ),
}


def available_problems() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def problem_registry(name: str) -> ProblemDef:
    """Look up a problem by name; unknown names list the available ones."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownProblemError(
            f"unknown problem {name!r}; available: {', '.join(available_problems())}"
        ) from None

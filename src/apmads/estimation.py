"""Maximum-likelihood fusion of repeated noisy observations.

All observations of one point are independent Gaussians centred on the
same unknown true value. The inverse-variance weighted mean is the
maximum-likelihood estimate of that value, and its statistical standard
deviation shrinks monotonically as observations accumulate:

    f_hat   = sum(value / sigma**2) / sum(1 / sigma**2)
    sig_hat = sum(1 / sigma**2) ** -0.5

Unevaluated and infeasible points estimate to (+inf, +inf).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .blackbox import Observation, Point
from .exceptions import InvalidInputError, NoIncumbentError

_INITIAL_CAPACITY = 256


def combined_sigma(existing_sigk: float, new_sigmas) -> float:
    """Standard deviation after fusing new observation sigmas into an estimate.

    ``existing_sigk`` may be +inf (fresh point), contributing zero weight.
    """
    if not existing_sigk > 0:
        raise InvalidInputError(f"sigmas must be positive, got {existing_sigk}")
    weight = 0.0 if math.isinf(existing_sigk) else 1.0 / existing_sigk**2
    for s in new_sigmas:
        if not s > 0:
            raise InvalidInputError(f"sigmas must be positive, got {s}")
        if not math.isinf(s):
            weight += 1.0 / (s * s)
    return weight**-0.5 if weight > 0.0 else math.inf


def sigma_to_reach(existing_sigk: float, target: float, sigma_max: float):
    """Sigma for one observation bringing a combined estimate down to ``target``.

    Returns None when the current standard deviation already meets the
    target. The exact solution of ``1/sigma**2 = 1/target**2 - 1/existing**2``
    is clamped to ``sigma_max`` from above. A clamped sigma is smaller than
    the exact one, so the fused estimate overshoots the target (ends below
    it) and the observation costs more draws than the exact solution would.
    """
    if not target > 0:
        raise InvalidInputError(f"target sigma must be positive, got {target}")
    if existing_sigk <= target:
        return None
    needed_weight = 1.0 / (target * target)
    if not math.isinf(existing_sigk):
        needed_weight -= 1.0 / (existing_sigk * existing_sigk)
    if needed_weight <= 0.0:
        # existing barely above target: the exact solution overflows, and
        # sigma_max overshoots as any clamp does
        return sigma_max
    return min(needed_weight**-0.5, sigma_max)


@dataclass(slots=True)
class PointHistory:
    """Observation history at one point with incrementally maintained sums."""

    observations: list[Observation] = field(default_factory=list)
    feasible: bool = True
    sum_w: float = 0.0
    sum_wv: float = 0.0

    def add(self, obs: Observation) -> None:
        self.observations.append(obs)
        w = 1.0 / (obs.sigma * obs.sigma)
        self.sum_w += w
        self.sum_wv += w * obs.value

    @property
    def fk(self) -> float:
        if not self.feasible or self.sum_w == 0.0:
            return math.inf
        return self.sum_wv / self.sum_w

    @property
    def sigk(self) -> float:
        if not self.feasible or self.sum_w == 0.0:
            return math.inf
        return self.sum_w**-0.5


class EvaluationCache:
    """Point-indexed observation histories with O(1) estimate lookups.

    Keys are exact coordinate tuples: candidates are generated on binary
    meshes, so revisited points collide bit-for-bit and no epsilon keying
    is needed. Estimates are kept in flat arrays so that whole-cache scans
    (incumbent selection, search-step filtering) stay vectorised.
    """

    def __init__(self):
        self._index: dict[Point, int] = {}
        self._points: list[Point] = []
        self._histories: list[PointHistory] = []
        self._fk = np.full(_INITIAL_CAPACITY, math.inf)
        self._sigk = np.full(_INITIAL_CAPACITY, math.inf)
        self._n = 0
        self._n_estimated = 0

    def __len__(self) -> int:
        return self._n

    def __contains__(self, x: Point) -> bool:
        return x in self._index

    def _append(self, x: Point) -> int:
        if self._n == self._fk.shape[0]:
            grown = np.full(2 * self._n, math.inf)
            grown[: self._n] = self._fk
            self._fk = grown
            grown = np.full(2 * self._n, math.inf)
            grown[: self._n] = self._sigk
            self._sigk = grown
        i = self._n
        self._index[x] = i
        self._points.append(x)
        self._histories.append(PointHistory())
        self._n += 1
        return i

    def record(self, x: Point, obs: Observation) -> None:
        """Append one observation (or an infeasibility marker) at ``x``."""
        self.record_batch([x], [obs])

    def record_batch(self, xs, observations) -> None:
        """Append ``observations[j]`` at ``xs[j]``, in order.

        Equivalent to ``record`` on each pair in turn, repeated points
        included: a later observation of a point fuses into the estimate
        left by an earlier one.
        """
        if len(xs) != len(observations):
            raise InvalidInputError(
                f"got {len(observations)} observations for {len(xs)} points"
            )
        index, histories, fk, sigk = self._index, self._histories, self._fk, self._sigk
        for x, obs in zip(xs, observations):
            i = index.get(x)
            if i is None:
                i = self._append(x)
                fk, sigk = self._fk, self._sigk  # the arrays may have grown
            hist = histories[i]
            if not obs.feasible:
                hist.feasible = False
                fk[i] = math.inf
                sigk[i] = math.inf
                continue
            if not hist.observations:
                self._n_estimated += 1
            hist.add(obs)
            fk[i] = hist.fk
            sigk[i] = hist.sigk

    def estimate(self, x: Point) -> tuple[float, float]:
        """Return (f_hat, sig_hat) at ``x``; (+inf, +inf) when undefined."""
        i = self._index.get(x)
        if i is None:
            return math.inf, math.inf
        return float(self._fk[i]), float(self._sigk[i])

    def history(self, x: Point):
        i = self._index.get(x)
        return None if i is None else self._histories[i]

    def points(self) -> list[Point]:
        """All cached points in insertion order (including infeasible ones)."""
        return list(self._points)

    def index_of(self, x: Point) -> int:
        return self._index[x]

    def point_at(self, i: int) -> Point:
        return self._points[i]

    @property
    def has_incumbent(self) -> bool:
        return self._n_estimated > 0

    def estimate_arrays(self):
        """Views (f_hat, sig_hat) aligned with insertion order.

        Undefined points (unevaluated or infeasible) hold (+inf, +inf).
        """
        return self._fk[: self._n], self._sigk[: self._n]

    def incumbent(self) -> Point:
        """The earliest-inserted point with the lowest estimate."""
        if self._n == 0:
            raise NoIncumbentError("cache is empty")
        i = int(np.argmin(self._fk[: self._n]))
        if not math.isfinite(self._fk[i]):
            raise NoIncumbentError("cache holds no feasible evaluated point")
        return self._points[i]

    def dump_csv(self) -> str:
        """Per-point summary (coordinates, observation count, estimates) as CSV."""
        if self._n == 0:
            return ""
        n_coords = len(self._points[0])
        header = ",".join(f"x{j}" for j in range(n_coords)) + ",n_obs,f_k,sigma_k"
        lines = [header]
        for i in range(self._n):
            coords = ",".join(format(c, ".17g") for c in self._points[i])
            hist = self._histories[i]
            lines.append(
                f"{coords},{len(hist.observations)},"
                f"{format(self._fk[i], '.17g')},{format(self._sigk[i], '.17g')}"
            )
        return "\n".join(lines) + "\n"

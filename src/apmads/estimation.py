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
import struct

import numpy as np

from .blackbox import Observation, Point
from .exceptions import InvalidInputError, InvalidSigmaError, NoIncumbentError

_INITIAL_CAPACITY = 256


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


class EvaluationCache:
    """Fused estimates per point, with no Python object per point but its key.

    Each point is keyed once by its packed float64 coordinates (``key``),
    and the key is also the only copy of the coordinates: ``point_at``,
    ``coords_at`` and ``incumbent`` unpack them on demand. Adding 0.0 before
    packing maps -0.0 to 0.0, so two points share a key exactly when their
    coordinate tuples compare equal; points come back with 0.0 for -0.0.
    Candidates are generated on binary meshes, so revisited points collide
    bit-for-bit and no epsilon keying is needed.

    A point's row (its insertion index) indexes flat arrays that grow by
    doubling: the fusion sums ``sum_w`` and ``sum_wv``, the feasibility
    flag and the estimates ``fk``/``sigk``, so whole-cache scans
    (incumbent selection, search-step filtering) stay vectorised.
    ``overflowed`` turns True once a feasible point's fused estimate is
    not finite, i.e. once ``sum_wv`` overflowed (an observed value times
    its weight ``1 / sigma**2`` past the largest float).

    Two things are kept up to date by ``record_batch`` at the rows it
    writes, so that a search does not re-derive the whole cache: the row
    of the incumbent (see ``incumbent``), and, once ``searched_rows`` has
    been asked about some z, a bound column ``fk + c * sigk`` with c just
    below z, from which ``searched_rows`` reads its candidates.
    """

    def __init__(self):
        self._index: dict[bytes, int] = {}
        self.find = self._index.get  # find(key): the key's row, or None when not cached
        self._keys: list[bytes] = []
        self._unpack = None  # struct unpacker for the key width, set by the first point
        self._sum_w = np.zeros(_INITIAL_CAPACITY)
        self._sum_wv = np.zeros(_INITIAL_CAPACITY)
        self._feasible = np.ones(_INITIAL_CAPACITY, dtype=bool)
        self._fk = np.full(_INITIAL_CAPACITY, math.inf)
        self._sigk = np.full(_INITIAL_CAPACITY, math.inf)
        self._incumbent: tuple[int, Point | None] = (-1, None)
        # the row fk[:n].argmin() returns and its estimate; row -1 while unknown
        self._best_row, self._best_f = -1, math.inf
        # the bound column, built by the first searched_rows call, and its c
        self._bound: np.ndarray | None = None
        self._bound_c: float | None = None
        self.overflowed = False

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, x: Point) -> bool:
        return self.row(x) is not None

    @staticmethod
    def key(x: Point) -> bytes:
        """The cache key of ``x``: its coordinates packed as float64.

        Raises ``InvalidInputError`` when ``x`` is not a sequence of numbers.
        """
        try:
            if 0.0 in x:  # -0.0 == 0.0 too: + 0.0 maps -0.0 to 0.0
                x = [c + 0.0 for c in x]
            return struct.pack(f"{len(x)}d", *x)
        except (struct.error, TypeError):
            raise InvalidInputError(f"a point must be a sequence of numbers, got {x!r}") from None

    @staticmethod
    def keys(coords: np.ndarray) -> list[bytes]:
        """The keys of the rows of a (k, n) array: ``key`` of each row, vectorised."""
        if coords.ndim != 2:
            raise InvalidInputError(f"coordinates must form a (k, n) array, got {coords.shape}")
        rows = np.add(coords, 0.0, dtype=np.float64, order="C")
        # each row as one void scalar of its bytes, which tolist() returns as bytes
        return rows.view(f"V{8 * rows.shape[1]}").ravel().tolist()

    def row(self, x: Point) -> int | None:
        """The row of ``x``, or None when it is not cached."""
        return self._index.get(self.key(x))

    def _grow(self) -> None:
        n, capacity = len(self._fk), 2 * len(self._fk)
        self._sum_w = _extended(self._sum_w, n, capacity, 0.0)
        self._sum_wv = _extended(self._sum_wv, n, capacity, 0.0)
        self._feasible = _extended(self._feasible, n, capacity, True)
        self._fk = _extended(self._fk, n, capacity, math.inf)
        self._sigk = _extended(self._sigk, n, capacity, math.inf)
        if self._bound is not None:
            self._bound = _extended(self._bound, n, capacity, math.inf)

    def record(self, x: Point, obs: Observation) -> int:
        """Append one observation (or an infeasibility marker) at ``x``; its row.

        A point with a non-finite coordinate raises ``InvalidInputError``
        and leaves the cache as it was.
        """
        key = self.key(x)
        if not all(map(math.isfinite, x)):
            raise InvalidInputError(f"point has non-finite coordinate: {tuple(x)}")
        return self.record_batch([key], [obs.value], [obs.sigma], [obs.feasible])[0]

    def record_batch(self, keys, values, sigmas, feasible) -> list[int]:
        """Fuse ``values[j]``, observed at ``sigmas[j]``, into the point keyed ``keys[j]``.

        ``feasible[j]`` False marks the point infeasible instead (its value
        and sigma are ignored). Equivalent to ``record`` on each point in
        turn, repeated points included: a later observation of a point
        fuses into the estimate left by an earlier one. The keys are those
        of ``key`` or ``keys``. Returns the points' rows. A feasible point's
        sigma must be positive with a positive square (its weight is
        ``1 / sigma**2``), else ``InvalidSigmaError`` is raised before any write.

        Each row it writes also updates the kept incumbent row: a lower
        estimate, or an equal one at a lower row, takes over; the kept
        row becomes unknown when its own estimate rises, when it is
        marked infeasible, or when any written estimate is NaN. With the
        bound column active, the row's bound is rewritten too (+inf for
        an infeasible mark).
        """
        if not len(keys) == len(values) == len(sigmas) == len(feasible):
            raise InvalidInputError(
                f"got {len(values)} values, {len(sigmas)} sigmas and "
                f"{len(feasible)} feasibility flags for {len(keys)} points"
            )
        if not keys:
            return []
        width = len(self._keys[0]) if self._keys else len(keys[0])
        if set(map(len, keys)) != {width}:
            raise InvalidInputError(f"points must all have {width // 8} coordinates")
        bad = [s for s, ok in zip(sigmas, feasible) if ok and not (s > 0.0 and s * s > 0.0)]
        if bad:
            raise InvalidSigmaError(f"sigma must be positive with a positive square, got {bad[0]}")
        if self._unpack is None:
            self._unpack = struct.Struct(f"{width // 8}d").unpack
        while len(self._keys) + len(keys) > len(self._fk):
            self._grow()
        index, new_key = self._index, self._keys.append
        sum_w, sum_wv = self._sum_w, self._sum_wv
        is_feasible, fk, sigk = self._feasible, self._fk, self._sigk
        bound, c = self._bound, self._bound_c
        best, best_f = self._best_row, self._best_f
        self._best_row = -1  # unknown until the loop ends, should it raise
        rows = []
        for key, value, sigma, ok in zip(keys, values, sigmas, feasible):
            i = index.get(key)
            fresh = i is None
            if fresh:
                i = index[key] = len(index)
                new_key(key)
            rows.append(i)
            if not ok:
                is_feasible[i] = False
                if not fresh:  # a new row's estimates are already (+inf, +inf)
                    fk[i] = math.inf
                    sigk[i] = math.inf
                    if c is not None:
                        bound[i] = math.inf
                if i == best:
                    best = -1
                continue
            if fresh:  # a new row has no observation yet and is feasible
                total_w, total_wv, estimated = 0.0, 0.0, True
            else:
                total_w, total_wv = sum_w.item(i), sum_wv.item(i)
                estimated = is_feasible.item(i)
            # Python floats throughout: the order and the scalar pow are
            # what pin the estimates bit for bit
            w = 1.0 / (sigma * sigma)
            total_w += w
            total_wv += w * value
            sum_w[i] = total_w
            sum_wv[i] = total_wv
            if estimated and total_w != 0.0:
                f = fk[i] = total_wv / total_w
                s = sigk[i] = total_w**-0.5
                if c is not None:
                    bound[i] = f + c * s
                if f - f != 0.0:  # inf or NaN: a fusion sum overflowed
                    self.overflowed = True
                    if f != f:  # argmin returns the first NaN row
                        best = -1
                if best < 0:
                    continue
                if f < best_f or (f == best_f and i <= best):
                    best, best_f = i, f
                elif i == best:  # its estimate rose: another row may now be lowest
                    best = -1
        self._best_row, self._best_f = best, best_f
        return rows

    def estimate(self, x: Point) -> tuple[float, float]:
        """Return (f_hat, sig_hat) at ``x``; (+inf, +inf) when undefined."""
        i = self._index.get(self.key(x))
        if i is None:
            return math.inf, math.inf
        return self._fk.item(i), self._sigk.item(i)

    def estimate_at(self, i: int) -> tuple[float, float]:
        """(f_hat, sig_hat) at row ``i``, as Python floats."""
        return self._fk.item(i), self._sigk.item(i)

    def feasible_at(self, i: int) -> bool:
        """False once row ``i`` has been recorded infeasible."""
        return self._feasible.item(i)

    def point_at(self, i: int) -> Point:
        return self._unpack(self._keys[i])

    def coords_at(self, rows) -> np.ndarray:
        """The points at ``rows`` as a read-only (len(rows), n) array."""
        n = len(self._keys[0]) // 8 if self._keys else 0
        return np.frombuffer(b"".join([self._keys[i] for i in rows])).reshape(len(rows), n)

    def estimate_arrays(self):
        """Views (f_hat, sig_hat) aligned with insertion order.

        Undefined points (unevaluated or infeasible) hold (+inf, +inf).
        The views go stale when the cache next grows.
        """
        n = len(self._keys)
        return self._fk[:n], self._sigk[:n]

    def searched_rows(self, f_inc: float, sig_inc: float, z_min: float) -> list[int]:
        """The rows, ascending, that ``plausible_rows`` selects over the whole cache.

        The exact test runs on the bound column's candidates alone. With
        c = ``_plausible_slope(z_min)``, a row is a candidate when its bound
        ``fk + c * sigk`` is at most q = ``f_inc - min(c, 0) * sig_inc``.
        Since max(a, b) <= hypot(a, b) <= a + b, a row whose z-score
        ``(f_inc - fk) / hypot(sigk, sig_inc)`` reaches z_min has
        fk + z_min * sigk <= f_inc when z_min > 0, and fk + z_min * sigk <=
        f_inc - z_min * sig_inc when z_min <= 0. c sits below z_min by more
        than the roundings of the z-score and of the products c * sigk and
        c * sig_inc (a cached sigk is 0 or at least 7e-155), and at z_min = 0,
        where a score that underflows to -0.0 passes, by 1e-300 * (sigk +
        sig_inc); rounding the two sums is monotone, so no selected row bounds
        above q. An estimate of NaN never is a candidate, and -inf always is;
        unevaluated and infeasible rows bound to NaN or +inf. The column is
        built in one pass the first time a z_min of its c is asked about, and
        kept by ``record_batch`` after that.
        """
        n = len(self._keys)
        c = _plausible_slope(z_min)
        if c != self._bound_c:
            if self._bound is None:
                self._bound = np.full(len(self._fk), math.inf)
            with np.errstate(invalid="ignore", over="ignore"):  # inf - inf is NaN
                np.multiply(self._sigk[:n], c, out=self._bound[:n])
                self._bound[:n] += self._fk[:n]
            self._bound_c = c
        q = f_inc - min(c, 0.0) * sig_inc
        rows = (self._bound[:n] <= q).nonzero()[0]
        return rows[plausible_rows(self._fk[rows], self._sigk[rows], f_inc, sig_inc,
                                   z_min)].tolist()

    def _argmin_row(self) -> int:
        """The row ``incumbent`` keeps: the first NaN, else the first lowest estimate."""
        return int(self._fk[: len(self._keys)].argmin())

    def incumbent(self) -> Point:
        """The earliest-inserted point with the lowest estimate.

        ``record_batch`` keeps that row; the whole cache is scanned only
        while the kept row is unknown.
        """
        if not self._keys:
            raise NoIncumbentError("cache is empty")
        i = self._best_row
        if i < 0:
            i = self._best_row = self._argmin_row()
            self._best_f = self._fk.item(i)
        if not math.isfinite(self._fk.item(i)):
            raise NoIncumbentError("cache holds no feasible evaluated point")
        if self._incumbent[0] != i:  # one tuple per incumbent, shared by the run log
            self._incumbent = (i, self.point_at(i))
        return self._incumbent[1]


def plausible_rows(fk, sigk, f_inc: float, sig_inc: float, z_min: float) -> np.ndarray:
    """Indices j, ascending, with ``(f_inc - fk[j]) / hypot(sigk[j], sig_inc) >= z_min``.

    NaN never passes; a quotient that underflows to -0.0 passes at z_min = 0.
    """
    with np.errstate(invalid="ignore", divide="ignore", over="ignore", under="ignore"):
        z = np.subtract(f_inc, fk) / np.hypot(sigk, sig_inc)
    return (z >= z_min).nonzero()[0]


def _plausible_slope(z: float) -> float:
    """c = z - 1e-9 * |z| - 1e-300: a slope just below ``z``, for bounds that must not miss.

    The relative slack is far above the few roundings that separate a
    bound from the exact z-score test, and the absolute one keeps the
    scores that underflow to -0.0 (which pass at z = 0).
    """
    return z - 1e-9 * abs(z) - 1e-300


def _extended(a: np.ndarray, n: int, capacity: int, fill) -> np.ndarray:
    """``a[:n]`` in a new array of ``capacity`` entries, the rest ``fill``."""
    out = np.full(capacity, fill, dtype=a.dtype)
    out[:n] = a[:n]
    return out

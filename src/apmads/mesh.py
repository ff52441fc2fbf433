"""Binary-mesh geometry and the orthogonal poll-direction generator.

All trial points live on the lattice {center + delta_m * z, z integer}.
The frame size delta_p bounds how far candidates may stray from the
center (in max norm) and couples to the mesh size through
delta_m = min(delta_p, delta_p**2). Frame updates use powers of two only,
which keeps all mesh arithmetic exact in binary floating point.
"""

import math
from enum import Enum
from fractions import Fraction

import numpy as np

from .blackbox import Point
from .exceptions import InvalidInputError


class IterationStatus(Enum):
    SUCCESS = "S"
    FAILURE = "F"
    BARRIER = "B"


def mesh_size(delta_p: float) -> float:
    """Mesh size coupled to the frame size: min(delta_p, delta_p**2)."""
    if not delta_p > 0:
        raise InvalidInputError(f"delta_p must be positive, got {delta_p}")
    return min(delta_p, delta_p * delta_p)


def generate_poll(center: Point, delta_p: float, rng) -> np.ndarray:
    """Candidates from a rounded random orthogonal basis, mirrored.

    Returns the (m, n) array whose row j is center + delta_m * z_j, with
    delta_m = ``mesh_size(delta_p)`` and z_j the integer mesh steps: all
    2n candidates, less any with a coordinate past the largest float.
    Such a point lies outside every domain, so it is dropped rather than
    observed; a poll left with no candidates is a barrier.

    The rows of the Householder reflection of a random unit direction are
    scaled to the frame radius in mesh units and rounded half away from
    zero, giving an integer basis whose +/- rows positively span R^n while
    every candidate stays on the mesh and inside the frame. A row rounded
    to zero is replaced by a signed axis row; a (rare) singular rounding
    falls back to the axis basis.
    """
    n = len(center)
    delta_m = mesh_size(delta_p)
    radius = max(1.0, math.floor(delta_p / delta_m))

    # sqrt(v . v) and v[:, None] * v are what np.linalg.norm and np.outer
    # compute, bit for bit, without their per-call overhead
    v = rng.standard_normal(n)
    norm = math.sqrt(v.dot(v))
    while norm == 0.0:
        v = rng.standard_normal(n)
        norm = math.sqrt(v.dot(v))
    v = v / norm
    house = np.eye(n) - 2.0 * (v[:, None] * v)

    basis = np.copysign(np.floor(np.abs(radius * house) + 0.5), house)
    for i in (~basis.any(axis=1)).nonzero()[0].tolist():
        j = int(np.argmax(np.abs(house[i])))
        basis[i, j] = math.copysign(1.0, house[i, j])
    if radius < n and round(float(np.linalg.det(basis))) == 0:
        basis = radius * np.eye(n)

    steps = np.concatenate((basis, -basis))
    with np.errstate(over="ignore"):
        coords = np.asarray(center, dtype=float) + delta_m * steps
    if not np.isfinite(coords).all():
        coords = coords[np.isfinite(coords).all(axis=1)]
    return coords


def update_frame(
    delta_p: float,
    status: IterationStatus,
    p: float,
    beta_l: float,
    beta_u: float,
) -> float:
    """Next frame size after an iteration.

    Successes double the frame only when decisively better (p > beta_u);
    failures halve it only when decisively worse (p < beta_l); an all-
    infeasible poll halves it unconditionally.
    """
    if status is IterationStatus.SUCCESS:
        return 2.0 * delta_p if p > beta_u else delta_p
    if status is IterationStatus.FAILURE:
        return delta_p / 2.0 if p < beta_l else delta_p
    return delta_p / 2.0


def on_mesh(point: Point, origin: Point, delta: float, rel_tol: float = 1e-9) -> bool:
    """Check that ``point`` lies on the lattice origin + delta * Z^n.

    Mesh arithmetic with power-of-two sizes is exact in binary floating
    point except when an addition crosses a binade boundary, which rounds
    the sum by at most half an ulp. The off-lattice residual is therefore
    computed exactly (rational arithmetic) and compared against a
    coordinate-scale-relative tolerance: legitimate roundings sit around
    1e-16 of the coordinate scale, while genuine violations are fractions
    of ``delta``.
    """
    if not delta > 0:
        raise InvalidInputError(f"delta must be positive, got {delta}")
    d = Fraction(delta)
    for c, o in zip(point, origin):
        q = (Fraction(c) - Fraction(o)) / d
        nearest = round(q)
        residual = abs(q - nearest) * d  # exact off-lattice distance
        if residual > rel_tol * max(abs(c), abs(o), delta):
            return False
    return True

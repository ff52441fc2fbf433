"""Standard-normal CDF machinery and the plausibility comparison of points.

The p-value here answers: how plausible is it that the true objective at a
candidate lies below the true objective at a reference point, given the
cached estimates and their statistical standard deviations? Values above
0.5 favour the candidate; 0.5 means the estimates are equal.
"""

import math
from statistics import NormalDist

from .blackbox import Point
from .exceptions import InvalidInputError, UndefinedComparisonError

_SQRT2 = math.sqrt(2.0)
_STANDARD_NORMAL = NormalDist()


def phi(z: float) -> float:
    """Standard normal CDF via the complementary error function.

    Accurate to machine precision in both tails.
    """
    return 0.5 * math.erfc(-z / _SQRT2)


def phi_inv(p: float) -> float:
    """Inverse standard normal CDF on (0, 1).

    Wichura's AS241 algorithm (``statistics.NormalDist``), accurate to
    about 1e-16 relative error.
    """
    if not 0.0 < p < 1.0:
        raise InvalidInputError(f"p must lie strictly inside (0, 1), got {p}")
    return _STANDARD_NORMAL.inv_cdf(p)


def p_value(cache, x_c: Point, x_ref: Point) -> float:
    """Plausibility that the true value at ``x_c`` is below the one at ``x_ref``.

    The difference of the two estimates is treated as a draw from a centred
    normal law with variance equal to the sum of the two estimate variances;
    the returned value is the probability mass supporting the candidate.
    """
    f_c, s_c = cache.estimate(x_c)
    f_r, s_r = cache.estimate(x_ref)
    if not (math.isfinite(f_c) and math.isfinite(f_r)):
        raise UndefinedComparisonError(
            "p-value needs two evaluated feasible points, got estimates "
            f"{f_c} and {f_r}"
        )
    return phi((f_r - f_c) / math.hypot(s_c, s_r))

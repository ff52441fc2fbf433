"""Precision index machinery.

The abstract index r is mapped to a target standard deviation by a strictly
decreasing schedule bounded by [sigma_min, sigma_max]. Two update policies
move r from one iteration to the next based on the p-value of the latest
comparison:

* monotone ("mp"): r increases by one step whenever the comparison is
  uncertain (p inside [beta_l, beta_u]) and is frozen otherwise;
* dynamic ("dp"): r increases when uncertain, and may decrease when the
  comparison is far more decisive than required.
"""

import math
import numbers
from dataclasses import dataclass, fields

from .exceptions import ConfigError, InvalidInputError

# (beta_l, beta_u) of each variant: the monotone variant needs near
# certainty (0.03%, 99.7%) to freeze r, the dynamic one acts at (15%, 85%)
VARIANT_BETAS = {"mp": (0.0003, 0.997), "dp": (0.15, 0.85)}


def check_real(name: str, value) -> None:
    """Raise ``ConfigError`` unless ``value`` is a real number (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a real number, got {value!r}")


@dataclass(frozen=True)
class RhoParams:
    """Parameters of the index-to-sigma mapping.

    ``theta`` controls the decrease rate (decibel-like) and ``r0`` anchors
    the midpoint: rho(r0) = (sigma_min + sigma_max) / 2.
    """

    sigma_min: float = 0.0
    sigma_max: float = 1.0
    r0: float = 0.0
    theta: float = 0.1

    def __post_init__(self):
        for f in fields(self):
            check_real(f.name, getattr(self, f.name))
        if not self.sigma_min >= 0:
            raise ConfigError(f"sigma_min must be >= 0, got {self.sigma_min}")
        if not math.isfinite(self.sigma_max) or self.sigma_max <= self.sigma_min:
            raise ConfigError(
                f"sigma_max must be finite and above sigma_min, got {self.sigma_max}"
            )
        if not 0.0 < self.theta < math.inf:
            raise ConfigError(f"theta must be positive and finite, got {self.theta}")
        if not math.isfinite(self.r0):
            raise ConfigError(f"r0 must be finite, got {self.r0}")


def rho(params: RhoParams, r: float) -> float:
    """Target standard deviation for precision index ``r``.

    Strictly decreasing in r, approaching sigma_max as r -> -inf and
    sigma_min as r -> +inf; the result is clamped into
    [sigma_min, sigma_max] against floating drift.
    """
    half = 0.5 * (params.sigma_max - params.sigma_min)
    if r >= params.r0:
        value = params.sigma_min + half * 10.0 ** (-(r - params.r0) * params.theta)
    else:
        value = params.sigma_min + half * (2.0 - 10.0 ** ((r - params.r0) * params.theta))
    return min(max(value, params.sigma_min), params.sigma_max)


def update_r(config, r: float, p: float) -> float:
    """New precision index after a comparison at index ``r`` with p-value ``p``.

    ``config`` is a ``SolverConfig``: the rule reads its ``variant``,
    ``beta_l``, ``beta_u`` and ``dp_decrease_threshold``. Both variants
    take unit steps. The increase branch is checked first so the required
    behaviour inside [beta_l, beta_u] always wins; the dynamic variant
    decreases r when min(p, 1 - p) falls below ``dp_decrease_threshold``,
    a comparison decisive enough to pay for less precision.
    """
    if not 0.0 <= p <= 1.0:
        raise InvalidInputError(f"p must lie in [0, 1], got {p}")
    if config.beta_l <= p <= config.beta_u:
        return r + 1.0
    if config.variant == "mp":
        return r
    if min(p, 1.0 - p) < config.dp_decrease_threshold:
        return r - 1.0
    return r


def check_condition(config, r_old: float, r_new: float, p: float) -> bool:
    """Whether an (r_old -> r_new) update is legal for ``config``'s variant.

    The dynamic condition requires a strict increase whenever p lies inside
    [beta_l, beta_u]; the monotone condition additionally freezes r outside
    that interval. Usable as a universal checker for any update rule.
    """
    if not 0.0 <= p <= 1.0:
        raise InvalidInputError(f"p must lie in [0, 1], got {p}")
    inside = config.beta_l <= p <= config.beta_u
    if inside and not r_new > r_old:
        return False
    if config.variant == "mp" and not inside and r_new != r_old:
        return False
    return True

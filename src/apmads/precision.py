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
from dataclasses import dataclass

from .exceptions import ConfigError, InvalidInputError

# (beta_l, beta_u) of each variant: the monotone variant needs near
# certainty (0.03%, 99.7%) to freeze r, the dynamic one acts at (15%, 85%)
VARIANT_BETAS = {"mp": (0.0003, 0.997), "dp": (0.15, 0.85)}
DP_DEFAULT_DECREASE_THRESHOLD = 0.05


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


@dataclass
class PrecisionPolicy:
    """Update policy for the precision index, with its current value.

    Unset betas take the variant's defaults (``VARIANT_BETAS``).
    ``dp_decrease_threshold`` only matters for the dynamic variant: when
    min(p, 1 - p) falls below it, the comparison is considered decisive
    enough to pay for a precision decrease.
    """

    variant: str = "dp"
    beta_l: float | None = None
    beta_u: float | None = None
    dp_decrease_threshold: float = DP_DEFAULT_DECREASE_THRESHOLD
    r: float = 0.0

    def __post_init__(self):
        if self.variant not in VARIANT_BETAS:
            raise ConfigError(f"variant must be 'mp' or 'dp', got {self.variant!r}")
        default_l, default_u = VARIANT_BETAS[self.variant]
        if self.beta_l is None:
            self.beta_l = default_l
        if self.beta_u is None:
            self.beta_u = default_u
        if not 0.0 < self.beta_l <= 0.5:
            raise ConfigError(f"beta_l must lie in (0, 0.5], got {self.beta_l}")
        if not 0.5 <= self.beta_u < 1.0:
            raise ConfigError(f"beta_u must lie in [0.5, 1), got {self.beta_u}")
        if self.variant == "dp" and not 0.0 < self.dp_decrease_threshold < self.beta_l:
            raise ConfigError(
                "dp_decrease_threshold must lie in (0, beta_l), got "
                f"{self.dp_decrease_threshold}"
            )


def update_r(policy: PrecisionPolicy, p: float) -> float:
    """New precision index after a comparison with p-value ``p``.

    Both variants take unit steps. The increase branch is checked first so
    the required behaviour inside [beta_l, beta_u] always wins.
    """
    if not 0.0 <= p <= 1.0:
        raise InvalidInputError(f"p must lie in [0, 1], got {p}")
    if policy.beta_l <= p <= policy.beta_u:
        return policy.r + 1.0
    if policy.variant == "mp":
        return policy.r
    if min(p, 1.0 - p) < policy.dp_decrease_threshold:
        return policy.r - 1.0
    return policy.r


def check_condition(policy: PrecisionPolicy, r_old: float, r_new: float, p: float) -> bool:
    """Whether an (r_old -> r_new) update is legal for the policy's variant.

    The dynamic condition requires a strict increase whenever p lies inside
    [beta_l, beta_u]; the monotone condition additionally freezes r outside
    that interval. Usable as a universal checker for any update rule.
    """
    if not 0.0 <= p <= 1.0:
        raise InvalidInputError(f"p must lie in [0, 1], got {p}")
    inside = policy.beta_l <= p <= policy.beta_u
    if inside and not r_new > r_old:
        return False
    if policy.variant == "mp" and not inside and r_new != r_old:
        return False
    return True

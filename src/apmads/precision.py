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

from .exceptions import InvalidInputError

# (beta_l, beta_u) of each variant: the monotone variant needs near
# certainty (0.03%, 99.7%) to freeze r, the dynamic one acts at (15%, 85%);
# the fixed baseline scores p in {0, 1}, so any legal pair gives its frame
VARIANT_BETAS = {"mp": (0.0003, 0.997), "dp": (0.15, 0.85), "fixed": (0.15, 0.85)}


def rho(config, r: float) -> float:
    """Target standard deviation for precision index ``r``.

    ``config`` is a ``SolverConfig``: the schedule reads its ``sigma_min``,
    ``sigma_max``, ``r0`` and ``theta``. ``theta`` sets the decrease rate
    (decibel-like) and ``r0`` anchors the midpoint:
    rho(r0) = (sigma_min + sigma_max) / 2. Strictly decreasing in r,
    approaching sigma_max as r -> -inf and sigma_min as r -> +inf; the
    result is clamped into [sigma_min, sigma_max] against floating drift.
    """
    half = 0.5 * (config.sigma_max - config.sigma_min)
    if r >= config.r0:
        value = config.sigma_min + half * 10.0 ** (-(r - config.r0) * config.theta)
    else:
        value = config.sigma_min + half * (2.0 - 10.0 ** ((r - config.r0) * config.theta))
    return min(max(value, config.sigma_min), config.sigma_max)


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

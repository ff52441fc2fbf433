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

from dataclasses import dataclass

from .exceptions import InvalidInputError


@dataclass(frozen=True)
class VariantRules:
    """A variant's row of ``VARIANTS``, the one place that says how variants differ."""

    algo: str  # the CLI's name
    betas: tuple[float, float]  # the default (beta_l, beta_u)
    searches: bool  # the default search_enabled
    adaptive: bool  # adaptive step from r_init under the precision floor, else sigma_fixed at r=0
    lowers_r: bool  # whether update_r may move r down


# the monotone variant needs near certainty (0.03%, 99.7%) to freeze r, the dynamic one
# acts at (15%, 85%); the fixed baseline scores p in {0, 1}, so any legal pair gives its frame
VARIANTS = {
    "mp": VariantRules("mpmads", (0.0003, 0.997), searches=False, adaptive=True, lowers_r=False),
    "dp": VariantRules("dpmads", (0.15, 0.85), searches=True, adaptive=True, lowers_r=True),
    "fixed": VariantRules("fixed", (0.15, 0.85), searches=False, adaptive=False, lowers_r=False),
}


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

    ``config`` is a ``SolverConfig``: the rule reads its ``betas``,
    ``rules.lowers_r`` and ``dp_decrease_threshold``. Both variants
    take unit steps. The increase branch is checked first so the required
    behaviour inside [beta_l, beta_u] always wins; a variant that lowers r
    (dp) does so when min(p, 1 - p) falls below ``dp_decrease_threshold``,
    a comparison decisive enough to pay for less precision.
    """
    if not 0.0 <= p <= 1.0:
        raise InvalidInputError(f"p must lie in [0, 1], got {p}")
    beta_l, beta_u = config.betas
    if beta_l <= p <= beta_u:
        return r + 1.0
    if not config.rules.lowers_r:
        return r
    if min(p, 1.0 - p) < config.dp_decrease_threshold:
        return r - 1.0
    return r

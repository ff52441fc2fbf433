"""Independent oracles used to pin expected values in the tests.

These deliberately avoid the implementation paths they check: the CDF
oracle integrates the density by quadrature, the estimator oracle is a
direct brute-force weighted least squares, and positive spanning is
verified directionally on a dense sphere sample. ``cache_state`` reads
an evaluation cache whole, to compare two routes to the same state.
``log_rows_fieldwise`` and ``parse_log_rowwise`` are the run-log writer
and reader one field at a time, the reference for the column-wise ones.
``combined_sigma`` fuses observation sigmas one by one, the reference for
the cache's estimates, ``plausible_rows_by_row`` is the search's z-score
test one row at a time, and ``check_condition`` checks any precision
update against its variant's condition.
"""

import math

import numpy as np
from scipy import integrate

from apmads.exceptions import InvalidInputError


def cdf_by_quadrature(z: float) -> float:
    """Standard normal CDF via adaptive quadrature of the density."""
    if z < 0:
        return 1.0 - cdf_by_quadrature(-z)
    tail, _ = integrate.quad(
        lambda t: math.exp(-t * t / 2.0) / math.sqrt(2.0 * math.pi), z, math.inf
    )
    return 1.0 - tail


def inverse_cdf_by_bisection(p: float, tol: float = 1e-12) -> float:
    """Invert the quadrature CDF by bisection on [-40, 40]."""
    lo, hi = -40.0, 40.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if cdf_by_quadrature(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def weighted_mle(observations) -> tuple[float, float]:
    """Brute-force inverse-variance estimate over (value, sigma) pairs."""
    weights = [1.0 / (s * s) for _, s in observations]
    total = math.fsum(weights)
    if total == 0.0:
        return math.inf, math.inf
    value = math.fsum(w * v for w, (v, _) in zip(weights, observations)) / total
    return value, math.sqrt(1.0 / total)


def ks_statistic_uniform(samples) -> float:
    """Kolmogorov-Smirnov distance of samples to the uniform law on [0, 1]."""
    s = np.sort(np.asarray(samples))
    n = len(s)
    grid_hi = np.arange(1, n + 1) / n
    grid_lo = np.arange(0, n) / n
    return float(max(np.max(grid_hi - s), np.max(s - grid_lo)))


def ks_statistic_normal(samples, sigma: float) -> float:
    """KS distance of samples to a centred normal law with scale ``sigma``."""
    s = np.sort(np.asarray(samples)) / sigma
    cdf = 0.5 * (1.0 + np.vectorize(math.erf)(s / math.sqrt(2.0)))
    n = len(s)
    grid_hi = np.arange(1, n + 1) / n
    grid_lo = np.arange(0, n) / n
    return float(max(np.max(grid_hi - cdf), np.max(cdf - grid_lo)))


def ks_critical(n: int, alpha: float = 0.01) -> float:
    """Asymptotic KS critical value at significance ``alpha``."""
    return math.sqrt(-0.5 * math.log(alpha / 2.0)) / math.sqrt(n)


def positively_spans(directions, n_samples: int = 4096, seed: int = 0) -> bool:
    """Directional check: every sampled unit vector sees a positive dot product."""
    dirs = np.asarray(directions, dtype=float)
    n = dirs.shape[1]
    if n == 1:
        signs = np.sign(dirs[:, 0])
        return (signs > 0).any() and (signs < 0).any()
    if n == 2:
        angles = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
        sample = np.column_stack([np.cos(angles), np.sin(angles)])
    else:
        rng = np.random.default_rng(seed)
        sample = rng.standard_normal((n_samples, n))
        sample /= np.linalg.norm(sample, axis=1, keepdims=True)
    return bool((sample @ dirs.T > 1e-12).any(axis=1).all())


def cache_state(cache) -> tuple:
    """Every row of an ``EvaluationCache``: its point, estimates and feasibility.

    Points and estimates compare as bytes, so a -0.0 or a NaN that differs
    from the reference shows.
    """
    rows = range(len(cache))
    fk, sigk = cache.estimate_arrays()
    return (
        cache.coords_at(rows).tobytes(),
        fk.tobytes(),
        sigk.tobytes(),
        [cache.feasible_at(i) for i in rows],
    )


def log_rows_fieldwise(records) -> list[str]:
    """The data rows of a run log, one ``format(x, ".17g")`` per float field."""
    def fmt(x):
        return format(x, ".17g")

    return [
        ",".join([str(rec.k), fmt(rec.draws), *map(fmt, rec.incumbent), fmt(rec.f_inc),
                  fmt(rec.sig_inc), fmt(rec.delta_p), fmt(rec.delta_m), fmt(rec.r),
                  fmt(rec.p), rec.status.value, str(rec.cache_size)])
        for rec in records
    ]


def parse_log_rowwise(text: str) -> list:
    """A run log's records, parsed row by row and field by field."""
    from apmads.mesh import IterationStatus
    from apmads.solver import IterationRecord

    lines = [ln for ln in text.splitlines() if ln]
    n = len(lines[0].split(",")) - 10
    records = []
    for line in lines[1:]:
        parts = line.split(",")
        records.append(IterationRecord(
            k=int(parts[0]),
            draws=float(parts[1]),
            incumbent=tuple(float(c) for c in parts[2 : 2 + n]),
            f_inc=float(parts[2 + n]),
            sig_inc=float(parts[3 + n]),
            delta_p=float(parts[4 + n]),
            delta_m=float(parts[5 + n]),
            r=float(parts[6 + n]),
            p=float(parts[7 + n]),
            status=IterationStatus(parts[8 + n]),
            cache_size=int(parts[9 + n]),
        ))
    return records


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


def plausible_rows_by_row(fk, sigk, f_inc: float, sig_inc: float, z_min: float) -> list[int]:
    """The rows j with ``(f_inc - fk[j]) / hypot(sigk[j], sig_inc) >= z_min``, one at a time.

    The difference, quotient and test are Python float operations: one past
    the largest float is +-inf, inf - inf and inf / inf are NaN, and NaN
    passes no test. hypot is numpy's scalar one, the C library's, since
    ``math.hypot`` rounds differently in about one case in 400.
    """
    rows = []
    for j, (f, s) in enumerate(zip(fk.tolist(), sigk.tolist())):
        with np.errstate(over="ignore"):
            norm = float(np.hypot(s, sig_inc))
        if (f_inc - f) / norm >= z_min:
            rows.append(j)
    return rows


def check_condition(config, r_old: float, r_new: float, p: float) -> bool:
    """Whether an (r_old -> r_new) update is legal for ``config``'s variant.

    The dynamic condition requires a strict increase whenever p lies inside
    [beta_l, beta_u]; the monotone condition additionally freezes r outside
    that interval. Usable as a universal checker for any update rule. It
    reads the config's resolved ``betas``, but says itself that ``mp`` is
    the monotone variant rather than read ``precision.VARIANTS``, the table
    it checks.
    """
    if not 0.0 <= p <= 1.0:
        raise InvalidInputError(f"p must lie in [0, 1], got {p}")
    beta_l, beta_u = config.betas
    inside = beta_l <= p <= beta_u
    if inside and not r_new > r_old:
        return False
    if config.variant == "mp" and not inside and r_new != r_old:
        return False
    return True

"""Fusing repeated noisy observations into maximum-likelihood estimates.

The cache combines every observation of a point by inverse-variance
weighting; the estimate's own standard deviation shrinks monotonically.
The p-value then quantifies how plausibly one cached point beats another.
"""

import numpy as np

from apmads import problem_registry
from apmads.blackbox import SIGMA_MAX
from apmads.estimation import EvaluationCache, sigma_to_reach
from apmads.normal import p_value

problem = problem_registry("norm2")
bb = problem.blackbox()
rng = np.random.default_rng(7)
cache = EvaluationCache()

x, y = (3.0, 4.0), (3.0, 4.5)  # true values 5.0 and about 5.408
print(f"true values: f{x} = 5.0, f{y} = {problem.truth(y):.4f}")
print()
print("accumulating observations at sigma = 0.5:")
for k in range(1, 9):
    cache.record(x, bb.observe(x, 0.5, rng))
    cache.record(y, bb.observe(y, 0.5, rng))
    fx, sx = cache.estimate(x)
    p = p_value(cache, x, y)
    print(f"  after {k} obs each: f^k{x} = {fx:.4f} +- {sx:.4f}   p[x better] = {p:.4f}")

print()
print("sigma_to_reach: one observation bringing an estimate to a target")
_, sig_now = cache.estimate(x)
target = sig_now / 2.0
needed = sigma_to_reach(sig_now, target, SIGMA_MAX)
print(f"  current sigma {sig_now:.4f}, target {target:.4f} -> observe once at {needed:.4f}")
cache.record(x, bb.observe(x, needed, rng))
print(f"  reached: {cache.estimate(x)[1]:.6f} (target {target:.6f})")

print()
print(f"incumbent (lowest estimate among evaluated points): {cache.incumbent()}")
print(f"total budget spent: {bb.ledger.total_draws:.1f} draws")

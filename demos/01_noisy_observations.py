"""Observing a function through solver-chosen Gaussian noise.

Every observation costs 1/sigma**2 equivalent Monte-Carlo draws: asking
for ten times less noise costs a hundred times more budget. The ledger
tracks this exactly.
"""

import numpy as np

from apmads import problem_registry
from apmads.blackbox import draws_for_sigma

problem = problem_registry("norm2")
bb = problem.blackbox()
rng = np.random.default_rng(0)

x = (3.0, 4.0)  # true objective value: 5
print("observing the norm at", x, "with decreasing noise:")
for sigma in (1.0, 0.1, 0.01, 0.001):
    obs = bb.observe(x, sigma, rng)
    print(
        f"  sigma={sigma:<7g} value={obs.value:.6f} "
        f"(error {obs.value - 5.0:+.2e}, cost {draws_for_sigma(sigma):.0f} draws)"
    )
print(f"ledger total: {bb.ledger.total_draws:.0f} equivalent draws")

print()
print("infeasible points cost nothing (extreme barrier):")
moustache = problem_registry("moustache").blackbox()
before = moustache.ledger.total_draws
obs = moustache.observe((0.0, 3.0), 0.5, rng)
print(f"  (0, 3) outside the ribbon: feasible={obs.feasible}, value={obs.value}")
print(f"  ledger unchanged: {moustache.ledger.total_draws == before}")

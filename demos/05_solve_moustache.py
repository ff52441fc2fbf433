"""Exploring a thin wiggly ribbon toward its far end.

The feasible set is a band of half-width 0.05 to 0.1 around an
oscillating center line; the objective rewards moving right, the optimum
sits on the boundary x = 20. Infeasible candidates trigger barrier
iterations that shrink the frame at zero draw cost.
"""

from apmads import SolverConfig, problem_registry, run
from apmads.mesh import IterationStatus
from apmads.problems import moustache_half_width, moustache_ridge

problem = problem_registry("moustache")
print("ribbon center and width along the way:")
for x1 in (0.0, 5.0, 11.0, 17.0, 20.0):
    print(
        f"  x={x1:>4}: center {moustache_ridge(x1):+.3f}, "
        f"half-width {moustache_half_width(x1):.3f}"
    )
print()

out = run(problem, SolverConfig(variant="dp", seed=0, stop_draws=1e8))
statuses = [rec.status for rec in out.records]
print(
    f"dynamic run: {len(out.records)} iterations "
    f"({statuses.count(IterationStatus.SUCCESS)} successes, "
    f"{statuses.count(IterationStatus.FAILURE)} failures, "
    f"{statuses.count(IterationStatus.BARRIER)} barriers)"
)
print(f"final incumbent: {out.incumbent}, truth {problem.truth(out.incumbent):.5f}")

hit = next(
    (rec for rec in out.records if problem.truth(rec.incumbent) <= -19.99), None
)
if hit is not None:
    print(f"reached truth <= -19.99 after {hit.draws:.2e} draws (iteration {hit.k})")

print()
print("progress of the incumbent along the ribbon:")
last_x = None
for rec in out.records:
    x1 = round(rec.incumbent[0])
    if x1 != last_x:
        print(
            f"  k={rec.k:4d} draws={rec.draws:10.2e} "
            f"incumbent x={rec.incumbent[0]:7.3f} y={rec.incumbent[1]:6.3f}"
        )
        last_x = x1

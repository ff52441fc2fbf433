"""Minimising the Euclidean norm under adaptive noise.

Compares the dynamic-precision solver, the monotone-precision solver and
a fixed-precision baseline on the same problem and seed. The baseline
pays 1e20 draws per evaluation from the first iteration; the adaptive
runs spend almost nothing until the geometry demands precision.
"""

import numpy as np

from apmads import SolverConfig, problem_registry, run

problem = problem_registry("norm2")
print(f"start: {problem.start}, truth {problem.start_truth:.4f}; optimum 0 at the origin")
print(f"stopping rule: frame size below {problem.stop_delta_p:g}")
print()

for variant in ("dp", "mp"):
    out = run(problem, SolverConfig(variant=variant, seed=0))
    truth = problem.truth(out.incumbent)
    print(
        f"{variant}mads : {len(out.records):4d} iterations, "
        f"{out.ledger.total_draws:.2e} draws, final truth {truth:.2e}, "
        f"final r {out.records[-1].r:.0f}"
    )

out = run(problem, SolverConfig(variant="fixed", sigma_fixed=1e-10, seed=0))
truth = problem.truth(out.incumbent)
print(
    f"fixed  : {len(out.records):4d} iterations, "
    f"{out.ledger.total_draws:.2e} draws, final truth {truth:.2e} "
    f"(stalls at the noise scale)"
)

print()
print("dynamic run, truth of the incumbent versus budget:")
out = run(problem, SolverConfig(variant="dp", seed=0))
marks = np.geomspace(out.records[0].draws, out.records[-1].draws, 10)
i = 0
for rec in out.records:
    if i < len(marks) and rec.draws >= marks[i]:
        print(f"  {rec.draws:10.2e}  truth {problem.truth(rec.incumbent):.3e}")
        i += 1

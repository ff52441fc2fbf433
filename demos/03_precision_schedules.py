"""The precision index, its sigma schedule, and the two update policies.

rho maps the abstract index r to a target standard deviation, decreasing
from sigma_max toward sigma_min. The monotone policy only ever raises r
(when a comparison is uncertain); the dynamic policy also lowers it when
a comparison was far more decisive than needed. A SolverConfig holds the
schedule's settings and each variant's thresholds.
"""

from apmads import SolverConfig
from apmads.precision import rho, update_r

config = SolverConfig()  # sigma_min=0, sigma_max=1, r0=0, theta=0.1
print("sigma schedule rho(r) with default parameters:")
for r in (-20, -10, 0, 10, 20, 50, 100):
    print(f"  r={r:>4} -> sigma={rho(config, r):.3e}")

print()
print("policies reacting to the same stream of comparison p-values:")
stream = [0.52, 0.93, 0.999, 0.45, 0.03, 0.5, 0.97, 0.72]
mp, dp = SolverConfig(variant="mp"), SolverConfig(variant="dp")
mp_r = dp_r = 0.0
print(f"  {'p':>6} {'mp r':>6} {'dp r':>6}")
for p in stream:
    mp_r = update_r(mp, mp_r, p)
    dp_r = update_r(dp, dp_r, p)
    print(f"  {p:>6.3f} {mp_r:>6.1f} {dp_r:>6.1f}")

print()
print("the monotone policy needs near-certainty (outside [0.03%, 99.7%])")
print("to freeze r; the dynamic one relaxes precision whenever min(p, 1-p)")
print("drops below 5%, trading certainty for budget.")

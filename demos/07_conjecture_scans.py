"""Scanning the two conjectured limit dichotomies.

Above the threshold beta1*k1 > b + alpha the disease-free state turns
saddle and the trajectory is conjectured to settle at the three-class
point (boundary case, beta2 = 0) or the interior point (all rates
positive).  The scan checks every grid cell against the claimed target and
reports match / counterexample / inconclusive per cell -- deterministic
under a fixed seed, counterexamples never suppressed.

The full 5-values-per-axis scans live in the acceptance tests; this demo
runs a trimmed grid plus the equilibrium-curve picture behind the claim.
"""

from sisi import ModelParams, conjecture_scan, equilibrium_curves
from sisi.dynamics import GridSpec

small = GridSpec(
    b=(0.1, 0.35, 0.6),
    alpha=(0.05, 0.2),
    beta1=(0.25, 0.5, 0.75),
    beta2=(0.0,),
    k1=(0.5, 1.0),
    k2=(0.3, 0.9),
)
report = conjecture_scan(1, grid=small, n_init=3, seed=42)
print("boundary-conjecture scan on a trimmed grid:")
for verdict, count in sorted(report.summary.items()):
    print(f"    {verdict:15s} {count}")
print("    counterexamples:", report.summary["counterexample"])

# The dichotomy mirrors the equilibrium balance curves: the linear side
# b + beta1*A against the saturating side.  One crossing above threshold,
# none below (when b(b+alpha) >= alpha*beta2*k2).
above = ModelParams(b=0.2, alpha=0.3, beta1=0.6, beta2=0.4, k1=1.0, k2=1.0)
below = ModelParams(b=0.6, alpha=0.1, beta1=0.5, beta2=0.01, k1=1.2, k2=1.1)
for name, params in (("above threshold", above), ("below threshold", below)):
    cur = equilibrium_curves(params)
    print(f"\n{name}: beta1*k1 = {params.beta1 * params.k1:.3f}, "
          f"b + alpha = {params.b + params.alpha:.3f}")
    print(f"    saturating side starts at {cur.value_at_zero:.4f}, "
          f"asymptote {cur.asymptote:.4f}")
    print(f"    crossings on A > 0: {cur.sign_changes} "
          f"{[round(c, 5) for c in cur.crossings]}")

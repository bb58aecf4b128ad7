"""The fixed-point catalog across parameter regimes.

The catalog is derived from the fixed-point equations.  For b > 0 each
positive root A of the interior quadratic Q gives one fixed point besides
the disease-free state lambda_1, labelled by its support (lambda_9,
lambda_10, or lambda_11 and lambda_11b for the larger and smaller interior
root).  For b = 0 the fixed set is a union of coordinate faces: the
labelled ones (lambda_2 ... lambda_4, Lambda_5 ... Lambda_8, S3) wherever
they are fixed, and any other maximal fixed face by its support
(face_uv, ...).  Every entry passes the one-step residual check.
"""

import math

from sisi import ModelParams, fixed_point_set, interior_fixed_point, interior_quadratic


def show(title, params):
    print(f"\n--- {title}")
    print("    rates:", params.as_tuple())
    for fp in fixed_point_set(params):
        if fp.point is not None:
            body = "(" + ", ".join(f"{c:.6f}" for c in fp.point) + ")"
        else:
            body = fp.family
        stab = f"  [{fp.stability}]" if fp.stability else ""
        print(f"    {fp.label:10s} {body}  residual={fp.residual:.2e}{stab}")


# Only the disease-free state in the subcritical regime.
show("subcritical (attracting disease-free state)",
     ModelParams(b=0.6, alpha=0.2, beta1=0.5, beta2=0.0, k1=1.0, k2=0.3))

# A persistent-infection point appears on the (x, u) edge without recovery.
show("no recovery, supercritical first wave",
     ModelParams(b=0.2, alpha=0.0, beta1=0.6, beta2=0.1, k1=1.0, k2=0.5))

# With recovery but no reinfection, the catalog gains a three-class point.
show("recovery without reinfection",
     ModelParams(b=0.1, alpha=0.2, beta1=0.5, beta2=0.0, k1=1.0, k2=0.3))

# Q can have two positive roots, A = 1/8 and A = 1/12 here: two interior
# fixed points.
show("two interior equilibria",
     ModelParams(b=0.125, alpha=0.125, beta1=0.75, beta2=0.5, k1=0.25, k2=1.0))

# Fixed faces appear without turnover; the edge x = y = 0 carries no flow
# at all here, so it is listed by its support.
show("no turnover, no recovery", ModelParams(0.0, 0.0, 0.5, 0.5, 1.0, 1.0))

# The interior fixed point comes from a quadratic in the equilibrium force
# of infection.  This instance clears to 30A^2 - 5A - 1 = 0.
params = ModelParams(b=0.2, alpha=0.3, beta1=0.6, beta2=0.4, k1=1.0, k2=1.0)
quad = interior_quadratic(params)
print("\n--- interior equilibrium quadratic")
print(f"    c2={quad.c2}, c1={quad.c1}, c0={quad.c0}")
print(f"    positive root A* = {quad.positive_root}")
print(f"    (5 + sqrt(145))/60 = {(5 + math.sqrt(145)) / 60}")
fp = interior_fixed_point(params)
print("    lambda_11 = (" + ", ".join(f"{c:.8f}" for c in fp.point) + ")",
      f"residual={fp.residual:.2e}")
print("   ", fp.note)

"""The operator as a quadratic stochastic operator.

On the simplex the one-step map can be written x'_k = sum_ij P[i,j,k] x_i x_j
with a symmetric, entry-wise bounded, row-stochastic coefficient array P.
Building P and evaluating the generic quadratic form gives an independent
route to the same dynamics -- a cross-check we exploit throughout the tests.
"""

import numpy as np

from sisi import (ModelParams, QsoTensor, SimplexPoint, apply_V, apply_qso, build_tensor,
                  check_axioms)
from sisi.tensor import heredity_values

params = ModelParams(b=0.2, alpha=0.1, beta1=0.6, beta2=0.2, k1=1.0, k2=0.5)
tensor = build_tensor(params)

print("P[1,1,1] (susceptible x susceptible stays susceptible):",
      tensor.values[0, 0, 0])
print("P[1,2,1] = (1 + b - beta1*k1)/2 =", tensor.values[0, 1, 0])

print("\nrow-stochasticity: max |sum_k P[i,j,k] - 1| =",
      np.max(np.abs(tensor.row_sums() - 1.0)))
print("axiom check:", check_axioms(tensor))

# The two routes agree on the simplex (the rewrite uses x+u+y+v = 1).
rng = np.random.default_rng(0)
worst = 0.0
for _ in range(200):
    s = SimplexPoint.from_array(rng.dirichlet(np.ones(4)))
    gap = np.max(np.abs(apply_qso(tensor, s).as_array() - apply_V(s, params).as_array()))
    worst = max(worst, gap)
print("\nsup |tensor route - direct route| over 200 random states:", worst)

# Inadmissible rates push some coefficient out of [0, 1]; the axiom report
# names the offender.
loud = ModelParams(b=0.0, alpha=0.0, beta1=4.0, beta2=0.0, k1=0.0, k2=1.0)
report = check_axioms(QsoTensor(heredity_values(loud)))
print("\ninadmissible rates break the bounds:")
for violation in report.violations[:4]:
    print("  ", violation)

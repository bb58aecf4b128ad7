"""Hyperbolicity of the disease-free state.

At (1, 0, 0, 0) the Jacobian is triangular enough to read off: 1 - b with
multiplicity three and 1 - b - alpha + beta1*k1 once.  The three-way rule
(nonhyperbolic on b = 0 or beta1*k1 = b + alpha, attracting below the
threshold, saddle above) matches the generic eigenvalue route.  Here that
route reads the eigenvalues off the diagonal, since a symmetric permutation
makes the Jacobian triangular; at a point where it does not, LAPACK computes
the eigenpairs, each accepted only after a residual check.
"""

import numpy as np

from sisi import ModelParams, SimplexPoint, classify_at, classify_lambda1, eigenvalues, jacobian

lam1 = SimplexPoint(1, 0, 0, 0)

print("classification over a (b, beta1*k1) table at alpha = 0.2:")
print("   b \\ bk", "  ".join(f"{bk:5.2f}" for bk in (0.1, 0.4, 0.7, 1.0, 1.3)))
for b in (0.0, 0.1, 0.3, 0.5, 0.7):
    row = []
    for bk in (0.1, 0.4, 0.7, 1.0, 1.3):
        p = ModelParams(b, 0.2, bk, 0.0, 1.0, 0.0)
        if not p.admissible:
            row.append("  -  ")
            continue
        row.append(classify_lambda1(p).classification[:5])
    print(f"   {b:4.1f}  ", "  ".join(row))

# The generic path: Jacobian, then its eigenvalues (here its diagonal).
params = ModelParams(b=0.1, alpha=0.2, beta1=0.5, beta2=0.0, k1=1.0, k2=0.3)
J = jacobian(lam1, params)
print("\nJacobian at the disease-free state:")
print(np.array_str(J, precision=3, suppress_small=True))
eigs = eigenvalues(J)
print("eigenvalues:", np.round(eigs.real, 6))
print("closed form gives 1-b (x3) and 1-b-alpha+beta1*k1 =",
      1 - params.b - params.alpha + params.beta1 * params.k1)
print("generic route says:", classify_at(lam1, params).classification)
print("closed-form rule says:", classify_lambda1(params).classification)

# Other fixed points go through the same generic route, but their types are
# outside the analyzed scope -- treat the answer as exploratory.
other = SimplexPoint(0.6, 2 / 15, 4 / 15, 0.0)
print("\nexploratory: generic classification at the three-class point:",
      classify_at(other, params).classification)

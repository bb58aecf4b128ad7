"""Jacobian and hyperbolicity classification for the SISI operator.

A fixed point is hyperbolic when the Jacobian there has no eigenvalue on
the unit circle: attracting if all moduli are < 1, repelling if all are
> 1, saddle otherwise.  The disease-free state (1, 0, 0, 0) admits a
closed-form rule (see :func:`classify_lambda1`); every other point goes
through the generic eigenvalue path, which the model's source analysis
does not cover -- reports label it accordingly.

When a symmetric permutation makes the Jacobian triangular, its eigenvalues
are its diagonal, returned exactly and with no residual check.  That is the
case at the disease-free state, so the generic path there returns the
closed-form spectrum, triple eigenvalue 1 - b included.  Every other matrix
goes to LAPACK, with every eigenpair checked by its residual; there a
multiple eigenvalue is only accurate to about eps^(1/m) for multiplicity m,
which is why the closed-form rule, not the eigenvalues, decides
nonhyperbolicity at (1, 0, 0, 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from sisi.model import ModelParams, SimplexPoint, _per_params, force_of_infection

__all__ = [
    "NonConvergence",
    "StabilityClass",
    "UNIT_CIRCLE_TOL",
    "jacobian",
    "eigenvalues",
    "classify",
    "classify_at",
    "lambda1_spectrum",
    "classify_lambda1",
]

# |modulus - 1| below this counts as "on the unit circle".
UNIT_CIRCLE_TOL = 1e-10
# Exact-equality tolerance for the closed-form boundary rule.
BOUNDARY_TOL = 1e-12
# Relative eigenpair residual an eigenvalue must meet to be accepted.
_EIGENPAIR_TOL = 1e-8

LAMBDA1 = SimplexPoint(1.0, 0.0, 0.0, 0.0)


class NonConvergence(RuntimeError):
    """The eigensolver failed to produce residual-verified eigenvalues."""


def _jacobian_rows(s: SimplexPoint, p: ModelParams) -> list[list[float]]:
    """The rows of :func:`jacobian`, as lists of floats."""
    b, al, b1, b2, k1, k2 = p.as_tuple()
    x, _, y, _ = s.as_tuple()
    A = force_of_infection(s, p)
    return [
        [1 - b - b1 * A, -b1 * k1 * x, 0.0, -b1 * k2 * x],
        [b1 * A, 1 - b - al + b1 * k1 * x, 0.0, b1 * k2 * x],
        [0.0, al - b2 * k1 * y, 1 - b - b2 * A, -b2 * k2 * y],
        [0.0, b2 * k1 * y, b2 * A, 1 - b + b2 * k2 * y],
    ]


def jacobian(s: SimplexPoint, p: ModelParams) -> np.ndarray:
    """Jacobian matrix of the one-step map at ``s``."""
    return np.array(_jacobian_rows(s, p))


def _triangular_diagonal(rows) -> list[float] | None:
    """The diagonal of the 4x4 matrix ``rows`` (four rows of four entries:
    nested lists, or an array) if a symmetric permutation makes it
    triangular, else None.

    Repeatedly removes a row whose off-diagonal entries, in the columns of
    the rows still left, are all zero: the permutation step of LAPACK's
    balancing (dgebal).  Every row is removed exactly when no cycle of
    nonzero off-diagonal entries exists.
    """
    left = [0, 1, 2, 3]
    while left:
        for i in left:
            row = rows[i]
            for j in left:
                if j != i and row[j]:
                    break
            else:  # row i is zero off the diagonal among the rows left
                left.remove(i)
                break
        else:  # no row can be removed
            return None
    return [rows[i][i] for i in range(4)]


def _spectrum(rows) -> list:
    """The eigenvalues of the 4x4 matrix ``rows`` (four rows of four
    floats), sorted by (real, imag): its diagonal, as floats, if a symmetric
    permutation makes it triangular, else LAPACK's, as complex numbers, each
    eigenpair checked by its residual.  ValueError unless every entry is
    finite; the one route of :func:`eigenvalues` and :func:`classify_at`.
    """
    if not all(map(math.isfinite, chain.from_iterable(rows))):
        raise ValueError("matrix entries must be finite")
    diagonal = _triangular_diagonal(rows)
    if diagonal is not None:
        return sorted(diagonal)
    J = np.array(rows)
    mu, V = np.linalg.eig(J)
    scale = max(1.0, float(abs(J).sum(axis=1).max()))
    res = abs(J @ V - V * mu).max(axis=0)
    bad = res > _EIGENPAIR_TOL * scale * abs(V).max(axis=0)
    if np.count_nonzero(bad):
        raise NonConvergence(
            f"eigenvalue {mu[bad][0]!r} has eigenpair residual above {_EIGENPAIR_TOL:g}"
        )
    return np.sort_complex(mu).tolist()


def eigenvalues(J: np.ndarray) -> np.ndarray:
    """The four eigenvalues of a real 4x4 matrix, sorted by (real, imag).

    When a symmetric permutation makes ``J`` triangular, they are its
    diagonal entries, exact, and no residual check runs (a -0.0 and a 0.0
    there compare equal, so they may come in either order).  Otherwise
    LAPACK (``np.linalg.eig``) computes the eigenpairs, and each pair is
    accepted only if ||J v - mu v||_inf <= _EIGENPAIR_TOL * max(1,
    ||J||_inf) * ||v||_inf; else :class:`NonConvergence` is raised rather
    than guessing.
    """
    J = np.asarray(J, dtype=float)
    if J.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {J.shape}")
    return np.array(_spectrum(J.tolist()), dtype=complex)


@dataclass(frozen=True)
class StabilityClass:
    """Hyperbolicity verdict plus the eigenvalue list it rests on."""

    classification: str  # "attracting" | "repelling" | "saddle" | "nonhyperbolic"
    eigenvalues: tuple[complex, ...]

    def __str__(self) -> str:
        eigs = ", ".join(f"{e.real:.6g}{e.imag:+.2g}j" if e.imag else f"{e.real:.6g}"
                         for e in self.eigenvalues)
        return f"{self.classification} (eigenvalues: {eigs})"


def classify(eigs) -> StabilityClass:
    """Three-type classification from an eigenvalue list."""
    eigs = tuple(complex(e) for e in eigs)
    moduli = [abs(e) for e in eigs]
    if any(abs(m - 1.0) <= UNIT_CIRCLE_TOL for m in moduli):
        kind = "nonhyperbolic"
    elif all(m < 1.0 for m in moduli):
        kind = "attracting"
    elif all(m > 1.0 for m in moduli):
        kind = "repelling"
    else:
        kind = "saddle"
    return StabilityClass(kind, eigs)


def classify_at(s: SimplexPoint, p: ModelParams) -> StabilityClass:
    """Generic classification at an arbitrary point (Jacobian + eigenvalues).

    The same class and eigenvalues as ``classify(eigenvalues(jacobian(s,
    p)).tolist())``, by the same route, but from the Jacobian's rows: a
    triangular spectrum is read off them before any array is made; only
    the LAPACK route makes one.
    """
    return classify(_spectrum(_jacobian_rows(s, p)))


def lambda1_spectrum(p: ModelParams) -> tuple[float, float, float, float]:
    """Spectrum at the disease-free state, in closed form.

    The Jacobian there is upper triangular once u and y swap places (a
    symmetric permutation), so its eigenvalues are its diagonal: 1 - b
    with multiplicity three and 1 - b - alpha + beta1*k1 once.
    """
    mu1 = 1.0 - p.b
    mu2 = 1.0 - p.b - p.alpha + p.beta1 * p.k1
    return (mu1, mu1, mu1, mu2)


@_per_params
def classify_lambda1(p: ModelParams) -> StabilityClass:
    """Closed-form classification of the disease-free state (1, 0, 0, 0).

    nonhyperbolic  if b = 0 or beta1*k1 = b + alpha (within BOUNDARY_TOL)
    attracting     if b > 0 and beta1*k1 < b + alpha
    saddle         if b > 0 and beta1*k1 > b + alpha

    Agrees with the generic eigenvalue path wherever the point is
    hyperbolic; on the boundary set the closed form is the honest answer
    while root-finding noise is not.  The class is computed once per ``p``.
    """
    eigs = tuple(map(complex, lambda1_spectrum(p)))
    gap = p.beta1 * p.k1 - (p.b + p.alpha)
    if abs(p.b) <= BOUNDARY_TOL or abs(gap) <= BOUNDARY_TOL:
        kind = "nonhyperbolic"
    elif gap < 0.0:
        kind = "attracting"
    else:
        kind = "saddle"
    return StabilityClass(kind, eigs)

"""Heredity-coefficient form of the SISI operator.

On the simplex the one-step map can be rewritten as a quadratic stochastic
operator

    x'_k = sum_{i,j} P[i,j,k] * x_i * x_j

whose cubic coefficient array P is symmetric in (i, j), lies in [0, 1]
entry-wise, and is row-stochastic (sum_k P[i,j,k] = 1 for every pair).
:func:`build_tensor` materializes P from the model rates and
:func:`apply_qso` evaluates the generic quadratic form; together they give
an independent cross-check of the direct operator in :mod:`sisi.model`.
The rewrite uses x+u+y+v = 1, so agreement is only promised on the simplex.

Indices are 0-based internally; reports and CSV rows use 1-based indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from sisi.model import (
    IDENTITY_TOL,
    InadmissibleParams,
    ModelParams,
    SimplexPoint,
)

__all__ = [
    "InvalidTensor",
    "QsoTensor",
    "AxiomViolation",
    "AxiomReport",
    "heredity_values",
    "build_tensor",
    "check_axioms",
    "apply_qso",
    "tensor_rows",
]


class InvalidTensor(ValueError):
    """The coefficient array violates the stochastic-tensor axioms."""


@dataclass(frozen=True, eq=False)
class QsoTensor:
    """Dense 4x4x4 heredity coefficients with symmetry materialized."""

    values: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.values, dtype=float)
        if a.shape != (4, 4, 4):
            raise ValueError(f"expected shape (4, 4, 4), got {a.shape}")
        object.__setattr__(self, "values", a)

    def row_sums(self) -> np.ndarray:
        """sum_k P[i,j,k] for every (i, j); all 1 for a valid tensor."""
        return self.values.sum(axis=2)


def heredity_values(p: ModelParams) -> np.ndarray:
    """Raw coefficient array for the given rates (no validity check).

    Splitting each off-diagonal coefficient evenly between (i, j) and
    (j, i) makes the array symmetric by construction.
    """
    b, al, b1, b2, k1, k2 = p.as_tuple()
    P = [0.0] * 64  # in C order: 1-based (i, j, k) is entry 16*i + 4*j + k - 21

    def put(i: int, j: int, k: int, value: float) -> None:
        P[16 * i + 4 * j + k - 21] = value
        P[16 * j + 4 * i + k - 21] = value

    # image component 1: susceptibles
    put(1, 1, 1, 1.0)
    put(1, 2, 1, (1 + b - b1 * k1) / 2)
    put(1, 3, 1, (1 + b) / 2)
    put(1, 4, 1, (1 + b - b1 * k2) / 2)
    put(2, 2, 1, b)
    put(2, 3, 1, b)
    put(2, 4, 1, b)
    put(3, 3, 1, b)
    put(3, 4, 1, b)
    put(4, 4, 1, b)
    # image component 2: first infected
    put(1, 2, 2, (1 - b - al + b1 * k1) / 2)
    put(1, 4, 2, b1 * k2 / 2)
    put(2, 2, 2, 1 - b - al)
    put(2, 3, 2, (1 - b - al) / 2)
    put(2, 4, 2, (1 - b - al) / 2)
    # image component 3: recovered
    put(1, 2, 3, al / 2)
    put(1, 3, 3, (1 - b) / 2)
    put(2, 2, 3, al)
    put(2, 3, 3, (1 - b + al - b2 * k1) / 2)
    put(2, 4, 3, al / 2)
    put(3, 3, 3, 1 - b)
    put(3, 4, 3, (1 - b - b2 * k2) / 2)
    # image component 4: second infected
    put(1, 4, 4, (1 - b) / 2)
    put(2, 3, 4, b2 * k1 / 2)
    put(2, 4, 4, (1 - b) / 2)
    put(3, 4, 4, (1 - b + b2 * k2) / 2)
    put(4, 4, 4, 1 - b)
    return np.array(P, dtype=float).reshape(4, 4, 4)


def build_tensor(p: ModelParams) -> QsoTensor:
    """Construct the heredity tensor for admissible rates.

    An entry outside [0, 1] raises :class:`InadmissibleParams` naming the
    offending coefficient; this is exactly the failure mode of inadmissible
    rates.  ``QsoTensor(heredity_values(p))`` is the raw array, for
    diagnostic use with :func:`check_axioms`.
    """
    P = heredity_values(p)
    bad = (P < 0.0) | (P > 1.0)
    if np.count_nonzero(bad):
        i, j, k = (int(a[0]) for a in np.nonzero(bad))  # first in C order
        raise InadmissibleParams(
            f"P_{{{i + 1}{j + 1},{k + 1}}} = {P[i, j, k]:.17g} "
            "lies outside [0, 1]"
        )
    return QsoTensor(P)


@dataclass(frozen=True)
class AxiomViolation:
    axiom: str               # "non-negative" | "bounded" | "symmetry" | "row-sum"
    indices: tuple[int, ...]  # 1-based
    magnitude: float

    def __str__(self) -> str:
        idx = ",".join(str(i) for i in self.indices)
        return f"{self.axiom} violated at ({idx}) by {self.magnitude:.3g}"


@dataclass(frozen=True)
class AxiomReport:
    violations: tuple[AxiomViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        return "valid QSO tensor" if self.ok else "; ".join(map(str, self.violations))


def _hits(mask: np.ndarray):
    """0-based indices of the True entries of ``mask``, in C order."""
    if not np.count_nonzero(mask):
        return ()
    return zip(*(a.tolist() for a in np.nonzero(mask)))


def check_axioms(t: QsoTensor) -> AxiomReport:
    """Report every violated tensor axiom with indices and magnitude."""
    P = t.values
    out: list[AxiomViolation] = []
    for i, j, k in _hits(P < 0.0):
        out.append(AxiomViolation("non-negative", (i + 1, j + 1, k + 1), float(-P[i, j, k])))
    for i, j, k in _hits(P > 1.0):
        out.append(AxiomViolation("bounded", (i + 1, j + 1, k + 1), float(P[i, j, k] - 1.0)))
    asym = P - P.transpose(1, 0, 2)
    for i, j, k in _hits(asym != 0.0):
        if i < j:
            out.append(AxiomViolation("symmetry", (i + 1, j + 1, k + 1), float(abs(asym[i, j, k]))))
    off = abs(P.sum(axis=2) - 1.0)
    for i, j in _hits(off > IDENTITY_TOL):
        out.append(AxiomViolation("row-sum", (i + 1, j + 1), float(off[i, j])))
    return AxiomReport(tuple(out))


def apply_qso(t: QsoTensor, s: SimplexPoint) -> SimplexPoint:
    """Evaluate the generic quadratic form x'_k = sum_ij P[i,j,k] x_i x_j.

    Row-stochasticity forces the output back onto the simplex exactly, so
    this needs no admissibility knowledge: it is the independent oracle for
    :func:`sisi.model.apply_V`.
    """
    report = check_axioms(t)
    if not report.ok:
        raise InvalidTensor(str(report))
    xs = s.as_array()
    image = np.einsum("ijk,i,j->k", t.values, xs, xs)
    return SimplexPoint.from_array(image)


def tensor_rows(t: QsoTensor) -> Iterator[tuple[int, int, int, float]]:
    """All 64 entries as (i, j, k, value) with 1-based indices."""
    for i in range(4):
        for j in range(4):
            for k in range(4):
                yield (i + 1, j + 1, k + 1, float(t.values[i, j, k]))

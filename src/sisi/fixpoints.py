"""Fixed-point catalog of the SISI operator.

Isolated fixed points carry the catalog labels lambda_1 ... lambda_11;
fixed faces of the simplex carry Lambda_5 ... Lambda_8, and S3 marks the
regimes in which every point is fixed.  Candidates are produced from
closed-form branch formulas whose conditions overlap, so the catalog is
assembled by union-and-verify: every candidate must pass the one-step
residual test ||V(q) - q||_inf <= RESIDUAL_TOL before it is kept.  The
residual check is ground truth; the branch table is only a guide.

The interior fixed point lambda_11 is parametrized by the positive root of
a quadratic in the equilibrium force of infection A; see
:func:`interior_quadratic`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from sisi.model import (
    ModelParams,
    RESIDUAL_TOL,
    SimplexPoint,
    _step,
    require_admissible,
)
from sisi import stability

__all__ = [
    "DegenerateRegime",
    "NoInteriorPoint",
    "InteriorQuadratic",
    "FixedPoint",
    "interior_quadratic",
    "interior_fixed_point",
    "lambda9_point",
    "lambda10_point",
    "bracketed_root",
    "fixed_point_set",
    "residual",
    "barycentric_grid",
]


class DegenerateRegime(ValueError):
    """The interior-equilibrium quadratic degenerates (leading coefficient 0)."""


class NoInteriorPoint(ValueError):
    """No positive equilibrium force of infection exists for these rates."""


def residual(point: np.ndarray, p: ModelParams) -> float:
    """One-step fixed-point residual ||V(q) - q||_inf."""
    image = _step(*(float(c) for c in point), *p.as_tuple())
    return max(abs(a - b) for a, b in zip(image, point))


@dataclass(frozen=True)
class InteriorQuadratic:
    """The cleared fixed-point equation c2*A^2 + c1*A + c0 = 0.

    A is the equilibrium force of infection.  Coefficients in terms of the
    rates:

        c2 = (b + alpha) * beta1 * beta2
        c1 = (b + alpha) * b * (beta1 + beta2) - beta1*beta2*(b*k1 + alpha*k2)
        c0 = b^2 * (b + alpha - beta1*k1)

    c0 < 0 iff beta1*k1 > b + alpha (first-wave pressure beats the joint
    removal rate), which forces exactly one positive root; at or below the
    threshold there is no positive root when the slope condition
    b*(b+alpha) >= alpha*beta2*k2 holds, and zero or two otherwise.
    """

    c2: float
    c1: float
    c0: float
    roots: tuple[float, ...]
    positive_root: float | None


def _quadratic(b, al, b1, b2, k1, k2):
    """(c2, c1, c0, disc) of the interior quadratic c2*A^2 + c1*A + c0.

    Elementwise: takes floats or equal-shape arrays.
    """
    joint = b + al
    c2 = joint * b1 * b2
    c1 = joint * b * (b1 + b2) - b1 * b2 * (b * k1 + al * k2)
    c0 = b * b * (joint - b1 * k1)
    return c2, c1, c0, c1 * c1 - 4.0 * c2 * c0


def _roots(c2, c1, c0, disc):
    """The two roots (q/c2, c0/q) where c2 != 0 and disc > 0, elementwise.

    Citardauq form, q = -(c1 + sign(c1)*sqrt(disc))/2 with sign(0) = +1,
    which avoids cancellation when c1^2 >> |4*c2*c0|.  Array entries with
    disc < 0 come out NaN.
    """
    q = -0.5 * (c1 + (2.0 * (c1 >= 0.0) - 1.0) * np.sqrt(disc))
    return q / c2, c0 / q


def _interior_coordinates(b, al, b1, b2, A):
    """lambda_11 = (x, u, y, v) at equilibrium force of infection A, elementwise."""
    x = b / (b + b1 * A)
    u = b1 * A * x / (b + al)
    y = al * u / (b + b2 * A)
    v = b2 * A * y / b
    return x, u, y, v


def _lambda9_coordinates(b, bk):
    """(x, u) of lambda_9 (y = v = 0) with bk = beta1*k1, elementwise."""
    return b / bk, (bk - b) / bk


def _lambda10_coordinates(b, al, bk):
    """(x, u, y) of lambda_10 (v = 0) with bk = beta1*k1, elementwise."""
    joint = b + al
    excess = bk - joint
    return joint / bk, b * excess / (bk * joint), al * excess / (bk * joint)


def bracketed_root(f, lo: float, hi: float) -> float:
    """A root of ``f`` in [lo, hi] (lo < hi) where f(lo), f(hi) differ in sign.

    Illinois regula falsi: secant steps on the bracket, halving the stored
    value of an end that is kept twice in a row, so both ends close in.  A
    secant point outside the open bracket is replaced by the midpoint.
    Stops on an exact zero or once the bracket is at most
    1e-15 + 8.9e-16*|x| wide, which a bracket of adjacent floats always is.
    Raises ValueError when f(lo) and f(hi) have the same strict sign.
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0.0 or fhi == 0.0:
        return lo if flo == 0.0 else hi
    if (flo < 0.0) == (fhi < 0.0):
        raise ValueError(f"f({lo!r}) = {flo!r} and f({hi!r}) = {fhi!r} "
                         "do not bracket a sign change")
    x, kept = 0.5 * (lo + hi), 0  # kept: +1 lo kept last step, -1 hi kept
    while hi - lo > 1e-15 + 8.9e-16 * max(abs(lo), abs(hi)):
        x = (lo * fhi - hi * flo) / (fhi - flo)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        fx = f(x)
        if fx == 0.0:
            return x
        if (fx < 0.0) == (flo < 0.0):
            lo, flo = x, fx
            if kept == -1:
                fhi *= 0.5
            kept = -1
        else:
            hi, fhi = x, fx
            if kept == 1:
                flo *= 0.5
            kept = 1
    return x


def _balance_gap(p: ModelParams, A: float) -> float:
    """Residual of the uncleared equilibrium balance at force of infection A.

    Zero exactly when A solves the interior fixed-point condition; used as
    an independent cross-check of the cleared quadratic.
    """
    b, al, b1, b2, k1, k2 = p.as_tuple()
    first = b * b1 * k1 / ((b + b1 * A) * (b + al))
    second = al * b1 * b2 * k2 * A / ((b + b1 * A) * (b + b2 * A) * (b + al))
    return first + second - 1.0


def interior_quadratic(p: ModelParams, cross_check: bool = True) -> InteriorQuadratic:
    """Coefficients and real roots of the interior equilibrium quadratic.

    The positive root r (largest root > 0, when one exists) is cross-checked
    against a bracketing root-find on the uncleared balance equation to
    1e-12*max(1, r).  The check runs when all six rates are positive, the
    roots r0 < r are distinct, the balance gap changes sign on
    [lo, 1.5*r + 1e-12] (lo: the midpoint of r0 and r if r0 > 0, else 0.5*r),
    and rounding in the gap cannot move its root by the tolerance: its slope
    at r is c2*(r - r0)/D with D = (b + beta1*r)*(b + beta2*r)*(b + alpha),
    and 8*eps*D/(c2*(r - r0)) <= 1e-12*max(1, r) is required (measured
    shifts stay under half of that).  So a double root, which has no sign
    change, and roots a fold apart are not checked.
    """
    c2, c1, c0, disc = _quadratic(*p.as_tuple())
    if c2 == 0.0:
        raise DegenerateRegime(
            "leading coefficient (b+alpha)*beta1*beta2 is zero; "
            "no interior equilibrium quadratic in this regime"
        )
    if disc < 0.0:
        roots = ()
    elif disc == 0.0:
        roots = (-c1 / (2.0 * c2),)
    else:
        roots = tuple(sorted(float(r) for r in _roots(c2, c1, c0, disc)))
    positive = max((r for r in roots if r > 0.0), default=None)
    if cross_check and positive is not None and roots[0] < positive and min(p.as_tuple()) > 0.0:
        b, al, b1, b2, _, _ = p.as_tuple()
        tol = 1e-12 * max(1.0, positive)
        D = (b + b1 * positive) * (b + b2 * positive) * (b + al)
        drift = 8.0 * np.finfo(float).eps * D / (c2 * (positive - roots[0]))
        lo = max(0.5 * positive, 0.5 * (roots[0] + positive))
        hi = positive * 1.5 + 1e-12
        if drift <= tol and _balance_gap(p, lo) * _balance_gap(p, hi) < 0.0:
            refined = bracketed_root(lambda A: _balance_gap(p, A), lo, hi)
            if abs(refined - positive) > tol:
                raise ArithmeticError(
                    f"quadratic root {positive!r} disagrees with direct "
                    f"root-find {refined!r}"
                )
    return InteriorQuadratic(c2, c1, c0, roots, positive)


@dataclass(frozen=True, eq=False)
class FixedPoint:
    """A catalog entry: an isolated point or a parametrized fixed family."""

    label: str
    point: np.ndarray | None = None
    family: str | None = None            # description of the free coordinates
    representatives: tuple = ()          # sampled members, families only
    residual: float = 0.0                # max one-step residual over members
    stability: str | None = None         # filled for lambda_1 only
    note: str = ""

    @property
    def is_family(self) -> bool:
        return self.family is not None

    def members(self) -> tuple[np.ndarray, ...]:
        if self.point is not None:
            return (self.point,)
        return self.representatives


_EDGE_TS = (0.05, 0.275, 0.5, 0.725, 0.95)
_FACE_TS = (
    (0.8, 0.15, 0.05),
    (0.1, 0.8, 0.1),
    (0.05, 0.15, 0.8),
    (1 / 3, 1 / 3, 1 / 3),
    (0.5, 0.25, 0.25),
)
_FULL_TS = (
    (0.7, 0.1, 0.1, 0.1),
    (0.1, 0.7, 0.1, 0.1),
    (0.1, 0.1, 0.7, 0.1),
    (0.1, 0.1, 0.1, 0.7),
    (0.25, 0.25, 0.25, 0.25),
)


def _family_candidates(label: str) -> tuple[str, tuple[np.ndarray, ...]]:
    if label == "Lambda_5":
        desc = "u = v = 0; x in [0, 1], y = 1 - x"
        reps = tuple(np.array([t, 0.0, 1.0 - t, 0.0]) for t in _EDGE_TS)
    elif label == "Lambda_6":
        desc = "u = 0; x, y, v >= 0 with x + y + v = 1"
        reps = tuple(np.array([a, 0.0, b, c]) for a, b, c in _FACE_TS)
    elif label == "Lambda_7":
        desc = "x = 0; u, y, v >= 0 with u + y + v = 1"
        reps = tuple(np.array([0.0, a, b, c]) for a, b, c in _FACE_TS)
    elif label == "Lambda_8":
        desc = "x = u = 0; y in [0, 1], v = 1 - y"
        reps = tuple(np.array([0.0, 0.0, t, 1.0 - t]) for t in _EDGE_TS)
    elif label == "S3":
        desc = "the whole simplex (identity dynamics)"
        reps = tuple(np.array(t) for t in _FULL_TS)
    else:
        raise ValueError(f"unknown family label {label!r}")
    return desc, reps


def lambda9_point(p: ModelParams) -> np.ndarray:
    """Disease-persistent point on the (x, u) edge: (b/(beta1*k1), 1 - b/(beta1*k1), 0, 0)."""
    bk = p.beta1 * p.k1
    if bk <= 0.0:
        raise DegenerateRegime("beta1*k1 must be positive for lambda_9")
    return np.array([*_lambda9_coordinates(p.b, bk), 0.0, 0.0])


def lambda10_point(p: ModelParams) -> np.ndarray:
    """Boundary point with recovered individuals but no second infection (v = 0)."""
    b, al = p.b, p.alpha
    bk = p.beta1 * p.k1
    if bk <= 0.0 or b + al <= 0.0:
        raise DegenerateRegime("lambda_10 needs beta1*k1 > 0 and b + alpha > 0")
    return np.array([*_lambda10_coordinates(b, al, bk), 0.0])


def interior_fixed_point(p: ModelParams, residual_tol: float = RESIDUAL_TOL) -> FixedPoint:
    """The fully interior fixed point lambda_11.

    Built from the closed form

        x = b / (b + beta1*A)
        u = beta1*A*x / (b + alpha)
        y = alpha*u / (b + beta2*A)
        v = beta2*A*y / b

    with A the positive root of :func:`interior_quadratic`.  The residual
    bound is enforced as a postcondition: an alternative form with
    x = b/(b + alpha) circulates but does not satisfy V(q) = q, and this
    check is what arbitrates between them.
    """
    try:
        quad = interior_quadratic(p)
    except DegenerateRegime as exc:
        raise NoInteriorPoint(str(exc)) from exc
    if quad.positive_root is None:
        raise NoInteriorPoint(
            "the equilibrium quadratic has no positive root for these rates"
        )
    b, al, b1, b2, _, _ = p.as_tuple()
    x, u, y, v = _interior_coordinates(b, al, b1, b2, quad.positive_root)
    point = np.array([x, u, y, v])
    res = residual(point, p)
    if res > residual_tol:
        raise ArithmeticError(
            f"interior fixed-point residual {res:.3e} exceeds {residual_tol:g}"
        )
    alt = np.array([b / (b + al), u, y, v])
    note = ""
    if residual(alt, p) > residual_tol:
        note = ("x = b/(b+beta1*A) verified; the alternative x = b/(b+alpha) "
                "fails the residual check")
    return FixedPoint(label="lambda_11", point=point, residual=res, note=note)


_LAMBDA_POINTS = {
    "lambda_1": np.array([1.0, 0.0, 0.0, 0.0]),
    "lambda_2": np.array([0.0, 0.0, 0.0, 1.0]),
    "lambda_3": np.array([0.0, 0.0, 1.0, 0.0]),
    "lambda_4": np.array([0.0, 1.0, 0.0, 0.0]),
}


def fixed_point_set(p: ModelParams, residual_tol: float = RESIDUAL_TOL) -> list[FixedPoint]:
    """The full catalog of fixed points for admissible rates.

    Evaluates every branch condition (they overlap and are not mutually
    exclusive), unions the produced candidates, de-duplicates, and keeps
    exactly those passing the residual bound.  lambda_1 = (1, 0, 0, 0) is
    always fixed and always listed first.
    """
    require_admissible(p)
    b, al, b1, b2, k1, k2 = p.as_tuple()

    point_labels: list[str] = ["lambda_1"]
    family_labels: list[str] = []
    extra: list[FixedPoint] = []

    if b == 0.0:
        point_labels += ["lambda_2", "lambda_3"]
        if al == 0.0:
            point_labels.append("lambda_4")
            family_labels.append("Lambda_5")
            if b2 == 0.0 and b1 > 0.0:
                family_labels.append("Lambda_7")
            if (k1 == 0.0 and k2 == 0.0) or (b1 == 0.0 and b2 == 0.0):
                family_labels.append("S3")
        if b1 == 0.0 and b2 == 0.0:
            family_labels.append("Lambda_6")
        if b2 == 0.0 and b1 > 0.0 and al > 0.0 and k1 * k2 > 0.0:
            point_labels.append("lambda_4")
            family_labels.append("Lambda_8")
    else:
        if al == 0.0 and b1 * k1 > b:
            extra.append(FixedPoint("lambda_9", point=lambda9_point(p)))
        if al > 0.0 and b2 == 0.0 and b1 * k1 > b + al:
            extra.append(FixedPoint("lambda_10", point=lambda10_point(p)))
        if al * b * b1 * b2 * k1 * k2 > 0.0:
            try:
                extra.append(interior_fixed_point(p, residual_tol))
            except NoInteriorPoint:
                pass

    candidates: list[FixedPoint] = []
    seen: set[str] = set()
    for label in point_labels:
        if label not in seen:
            seen.add(label)
            candidates.append(FixedPoint(label, point=_LAMBDA_POINTS[label].copy()))
    candidates.extend(extra)
    for label in family_labels:
        if label not in seen:
            seen.add(label)
            desc, reps = _family_candidates(label)
            candidates.append(FixedPoint(label, family=desc, representatives=reps))

    kept: list[FixedPoint] = []
    for cand in candidates:
        res = max(residual(m, p) for m in cand.members())
        if res > residual_tol:
            continue  # branch condition fired but the point is not fixed
        if cand.point is not None and any(
            k.point is not None and np.max(np.abs(k.point - cand.point)) <= 1e-12
            for k in kept
        ):
            continue
        stab = None
        if cand.label == "lambda_1":
            stab = stability.classify_lambda1(p).classification
        kept.append(FixedPoint(
            label=cand.label,
            point=cand.point,
            family=cand.family,
            representatives=cand.representatives,
            residual=res,
            stability=stab,
            note=cand.note,
        ))
    return kept


def barycentric_grid(resolution: int) -> np.ndarray:
    """All simplex points with coordinates i/resolution, i integer >= 0.

    Returns an (M, 4) array; M = C(resolution + 3, 3).
    """
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    pts = []
    for i, j, k in combinations_with_replacement(range(resolution + 1), 3):
        # i <= j <= k are the cumulative cut positions of a composition
        pts.append((i, j - i, k - j, resolution - k))
    return np.asarray(pts, dtype=float) / float(resolution)

"""Fixed-point catalog of the SISI operator, derived from V(q) = q.

lambda_1 = (1, 0, 0, 0) is always fixed and listed first.  For b > 0 a
fixed point has x = b/(b + beta1*A), u = beta1*A*x/(b + alpha),
y = alpha*u/(b + beta2*A) and v = beta2*A*y/b, and substituting these into
A = k1*u + k2*v gives A*Q(A) = 0 with Q the quadratic of
:func:`interior_quadratic`: each positive root of Q adds one point,
labelled by its support as lambda_9 (y = v = 0), lambda_10 (v = 0), or
lambda_11 and lambda_11b (interior; larger and smaller root).  For b = 0
the equations are beta1*A*x = alpha*u = beta2*A*y = 0, so the fixed set
is the union of the coordinate faces on which all three vanish: each face
with a label (vertices lambda_2 ... lambda_4, Lambda_5 ... Lambda_8, and S3
for the whole simplex) is listed where it is fixed, then every other
maximal fixed face by its support, as face_uv.  An entry is kept only if
its one-step residual ||V(q) - q||_inf is at most RESIDUAL_TOL.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement

import numpy as np

from sisi.model import (
    ModelParams,
    RESIDUAL_TOL,
    _per_params,
    _require_count,
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
    return _residual(np.asarray(point, dtype=float).tolist(), p.as_tuple())


def _residual(q, rates) -> float:
    """:func:`residual` of the four floats ``q`` under the six ``rates``."""
    x, u, y, v = q
    x1, u1, y1, v1 = _step(x, u, y, v, *rates)
    return max(abs(x1 - x), abs(u1 - u), abs(y1 - y), abs(v1 - v))


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


def _roots(c2, c1, c0, sqrt_disc):
    """The two roots (q/c2, c0/q) where c2 != 0 and disc > 0, elementwise,
    given sqrt(disc).

    Citardauq form, q = -(c1 + sign(c1)*sqrt(disc))/2 with sign(0) = +1,
    which avoids cancellation when c1^2 >> |4*c2*c0|.  Array entries with
    disc < 0 (a NaN square root) come out NaN.
    """
    q = -0.5 * (c1 + (2.0 * (c1 >= 0.0) - 1.0) * sqrt_disc)
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


def _balance_gap(p: ModelParams):
    """The residual of the uncleared equilibrium balance, as a function of
    the force of infection A:

        b*beta1*k1 / ((b + beta1*A)*(b + alpha))
        + alpha*beta1*beta2*k2*A / ((b + beta1*A)*(b + beta2*A)*(b + alpha)) - 1

    Zero exactly when A solves the interior fixed-point condition; used as
    an independent cross-check of the cleared quadratic.  The factors that
    do not depend on A are formed once, in the order the formula reads.
    """
    b, al, b1, b2, k1, k2 = p.as_tuple()
    joint = b + al
    first_wave = b * b1 * k1
    reinfection = al * b1 * b2 * k2

    def gap(A):
        infect1 = b + b1 * A
        return (first_wave / (infect1 * joint)
                + reinfection * A / (infect1 * (b + b2 * A) * joint) - 1.0)
    return gap


@_per_params
def interior_quadratic(p: ModelParams) -> InteriorQuadratic:
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
    change, and roots a fold apart are not checked.  The result is computed
    once per ``p``.
    """
    rates = p.as_tuple()
    c2, c1, c0, disc = _quadratic(*rates)
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
        roots = tuple(sorted(float(r) for r in _roots(c2, c1, c0, math.sqrt(disc))))
    positive = max((r for r in roots if r > 0.0), default=None)
    if positive is not None and roots[0] < positive and min(rates) > 0.0:
        b, al, b1, b2, _, _ = rates
        tol = 1e-12 * max(1.0, positive)
        D = (b + b1 * positive) * (b + b2 * positive) * (b + al)
        drift = 8.0 * sys.float_info.epsilon * D / (c2 * (positive - roots[0]))
        lo = max(0.5 * positive, 0.5 * (roots[0] + positive))
        hi = positive * 1.5 + 1e-12
        gap = _balance_gap(p)
        if drift <= tol and gap(lo) * gap(hi) < 0.0:
            refined = bracketed_root(gap, lo, hi)
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

    def members(self) -> tuple[np.ndarray, ...]:
        if self.point is not None:
            return (self.point,)
        return self.representatives


def _interior_point(label, p, A) -> FixedPoint:
    """The interior map's point at root ``A``, with its residual and note."""
    b, al, b1, b2, _, _ = rates = p.as_tuple()
    point = np.array(_interior_coordinates(b, al, b1, b2, A))
    x, u, y, v = q = point.tolist()
    note = ""
    if _residual((b / (b + al), u, y, v), rates) > RESIDUAL_TOL:
        note = ("x = b/(b+beta1*A) verified; the alternative x = b/(b+alpha) "
                "fails the residual check")
    return FixedPoint(label, point=point, residual=_residual(q, rates), note=note)


def interior_fixed_point(p: ModelParams) -> FixedPoint:
    """The interior fixed point lambda_11 of admissible rates.

    Built from the closed form

        x = b / (b + beta1*A)
        u = beta1*A*x / (b + alpha)
        y = alpha*u / (b + beta2*A)
        v = beta2*A*y / b

    with A the positive root of :func:`interior_quadratic`.  The residual
    bound RESIDUAL_TOL is enforced as a postcondition: an alternative form
    with x = b/(b + alpha) circulates but does not satisfy V(q) = q, and
    this check is what arbitrates between them.  Raises NoInteriorPoint
    where lambda_11 does not exist, also at b = 0, where the catalog holds
    fixed faces only, and at alpha = 0, where the endemic point is
    lambda_9, on the boundary (y = v = 0).
    """
    require_admissible(p)
    try:
        quad = interior_quadratic(p)
    except DegenerateRegime as exc:
        raise NoInteriorPoint(str(exc)) from exc
    if quad.positive_root is None or p.b == 0.0 or p.alpha == 0.0:
        raise NoInteriorPoint("no lambda_11 for these rates: b = 0, alpha = 0 or "
                              "the equilibrium quadratic has no positive root")
    fp = _interior_point("lambda_11", p, quad.positive_root)
    if fp.residual > RESIDUAL_TOL:
        raise ArithmeticError(
            f"interior fixed-point residual {fp.residual:.3e} exceeds {RESIDUAL_TOL:g}"
        )
    return fp


def _entry(label, q, rates) -> FixedPoint:
    return FixedPoint(label, point=np.array(q), residual=_residual(q, rates))


def _endemic_points(p: ModelParams):
    """b > 0: the points at the positive roots of Q, larger root first.

    With alpha = 0 or beta2 = 0, Q is a positive multiple of A - A*, with
    A* = b*(beta1*k1 - b - alpha)/((b + alpha)*beta1): one point, at the
    closed form of lambda_9 or lambda_10, iff beta1*k1 > b + alpha.  That
    sign is read off the rates, since the b^2 in Q's c0 can underflow.
    """
    b, al, b1, b2, k1, _ = rates = p.as_tuple()
    bk = b1 * k1
    if al == 0.0 or b2 == 0.0:
        if bk > b + al and al == 0.0:
            yield _entry("lambda_9", (*_lambda9_coordinates(b, bk), 0.0, 0.0), rates)
        elif bk > b + al:
            try:
                q = (*_lambda10_coordinates(b, al, bk), 0.0)
            except ZeroDivisionError:  # bk*(b + alpha) underflows
                q = _interior_coordinates(b, al, b1, b2, b / (b + al) * ((bk - b - al) / b1))
            yield _entry("lambda_10", q, rates)
        return
    if min(rates) > 0.0 and math.prod(rates) == 0.0:
        return  # the rates' product underflows, and Q's coefficients lose its roots
    try:
        roots = interior_quadratic(p).roots
    except DegenerateRegime:  # c2 = 0: beta1 = 0 (no positive root) or an underflow
        return
    for label, A in zip(("lambda_11", "lambda_11b"), [r for r in reversed(roots) if r > 0.0]):
        yield _interior_point(label, p, A)


# The paper's labels of coordinate faces, by support, in listing order;
# lambda_1, the vertex x, comes first in every catalog.
_NAMED = {"v": "lambda_2", "y": "lambda_3", "u": "lambda_4", "xy": "Lambda_5",
          "uyv": "Lambda_7", "xuyv": "S3", "xyv": "Lambda_6", "yv": "Lambda_8"}
# Sampled members of an edge, a triangle and the whole simplex: the
# coordinates on the support, in x, u, y, v order.
_SAMPLES = {
    2: tuple((t, 1.0 - t) for t in (0.05, 0.275, 0.5, 0.725, 0.95)),
    3: ((0.8, 0.15, 0.05), (0.1, 0.8, 0.1), (0.05, 0.15, 0.8), (1 / 3, 1 / 3, 1 / 3),
        (0.5, 0.25, 0.25)),
    4: ((0.7, 0.1, 0.1, 0.1), (0.1, 0.7, 0.1, 0.1), (0.1, 0.1, 0.7, 0.1),
        (0.1, 0.1, 0.1, 0.7), (0.25, 0.25, 0.25, 0.25)),
}


def _face_fixed(support, al, b1, b2, k1, k2) -> bool:
    """b = 0: whether beta1*A*x, alpha*u and beta2*A*y vanish on the face.

    A rate product that underflows counts as zero, as it does in V.
    """
    ks = [k for c, k in zip("uv", (k1, k2)) if c in support]
    return ("u" not in support or al == 0.0) and all(
        rate * k == 0.0 for c, rate in zip("xy", (b1, b2)) if c in support for k in ks)


def _face(label, support, rates) -> FixedPoint:
    """The vertex, or the family sampled at _SAMPLES, with support ``support``."""
    if len(support) == 1:
        return _entry(label, tuple(float(c == support) for c in "xuyv"), rates)
    zero = " = ".join(c for c in "xuyv" if c not in support)
    family = {2: f"{zero} = 0; {support[0]} in [0, 1], {support[1]} = 1 - {support[0]}",
              3: f"{zero} = 0; {', '.join(support)} >= 0 with {' + '.join(support)} = 1",
              4: "the whole simplex (identity dynamics)"}[len(support)]
    members = [tuple(dict(zip(support, t)).get(c, 0.0) for c in "xuyv")
               for t in _SAMPLES[len(support)]]
    return FixedPoint(label, family=family,
                      representatives=tuple(np.array(m) for m in members),
                      residual=max(_residual(m, rates) for m in members))


def _faces(rates):
    """b = 0: the named faces that are fixed, then the other maximal ones."""
    fixed = [s for n in (1, 2, 3, 4) for s in map("".join, combinations("xuyv", n))
             if _face_fixed(s, *rates[1:])]
    maximal = [s for s in fixed if s not in _NAMED and not any(set(s) < set(t) for t in fixed)]
    for support in [s for s in _NAMED if s in fixed] + maximal:
        yield _face(_NAMED.get(support, "face_" + support), support, rates)


def fixed_point_set(p: ModelParams) -> list[FixedPoint]:
    """The full catalog of fixed points for admissible rates: lambda_1, with
    its closed-form stability, then what the rule for b > 0 or b = 0 derives.
    An isolated point within 1e-12 of one already kept is dropped.
    """
    require_admissible(p)
    rates = p.as_tuple()
    q = (1.0, 0.0, 0.0, 0.0)
    lambda1 = FixedPoint("lambda_1", point=np.array(q), residual=_residual(q, rates),
                         stability=stability.classify_lambda1(p).classification)
    kept: list[FixedPoint] = []
    points: list[list[float]] = []  # coordinates of the kept isolated points
    for fp in [lambda1, *(_endemic_points(p) if rates[0] > 0.0 else _faces(rates))]:
        if fp.residual > RESIDUAL_TOL:
            continue  # derived, but not fixed in floating point
        if fp.point is not None:
            x, u, y, v = q = fp.point.tolist()
            if any(abs(a - x) <= 1e-12 and abs(b - u) <= 1e-12
                   and abs(c - y) <= 1e-12 and abs(d - v) <= 1e-12
                   for a, b, c, d in points):
                continue
            points.append(q)
        kept.append(fp)
    return kept


def barycentric_grid(resolution: int) -> np.ndarray:
    """All simplex points with coordinates i/resolution, i integer >= 0.

    Returns an (M, 4) array; M = C(resolution + 3, 3).  ``resolution``
    must be an integer >= 1.
    """
    resolution = _require_count("resolution", resolution, 1)
    pts = []
    for i, j, k in combinations_with_replacement(range(resolution + 1), 3):
        # i <= j <= k are the cumulative cut positions of a composition
        pts.append((i, j - i, k - j, resolution - k))
    return np.asarray(pts, dtype=float) / float(resolution)

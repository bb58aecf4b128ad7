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

The catalog is derived once, as plain floats (``_catalog_entries``), and
:func:`fixed_point_set` makes its records of that derivation; limit
detection reads the derivation's isolated points directly.
"""

from __future__ import annotations

import functools
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
    "fixed_point_set",
    "residual",
    "barycentric_grid",
]


class DegenerateRegime(ValueError):
    """The interior-equilibrium quadratic degenerates (leading coefficient 0)."""


class NoInteriorPoint(ValueError):
    """No positive equilibrium force of infection exists for these rates."""


def residual(point: np.ndarray, p: ModelParams) -> float:
    """One-step fixed-point residual ||V(q) - q||_inf, NaN if any
    coordinate's difference is NaN."""
    q = np.asarray(point, dtype=float)
    image = np.array(_step(*q.tolist(), *p.as_tuple()))
    return float(np.max(np.abs(image - q)))  # unlike max, np.max keeps a NaN


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
    return c2, c1, c0, c1 * c1 - 4 * c2 * c0


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


def _lambda10_point(b, al, b1, b2, bk):
    """lambda_10 = (x, u, y, 0) with bk = beta1*k1 > b + alpha, elementwise.

    Where bk*(b + alpha) underflows, floats raise ZeroDivisionError (arrays
    never do), and the interior map's coordinates at lambda_10's force of
    infection, A* = b/(b + alpha)*((bk - b - alpha)/beta1), stand in.
    """
    try:
        return (*_lambda10_coordinates(b, al, bk), 0.0)
    except ZeroDivisionError:
        return _interior_coordinates(b, al, b1, b2, b / (b + al) * ((bk - b - al) / b1))


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

    The positive root r (largest root > 0, when one exists) is checked
    against the uncleared balance equation: its gap must change sign
    within tol = 1e-12*max(1, r) of r, between the two points r - tol and
    r + tol clipped to [lo, hi] = [lo, 1.5*r + 1e-12] (lo: the midpoint of
    r0 and r if r0 > 0, else 0.5*r), or ArithmeticError is raised.  The
    check runs when all six rates are positive, the roots r0 < r are
    distinct, rounding in the gap cannot move its root by tol (its slope
    at r is c2*(r - r0)/D with D = (b + beta1*r)*(b + beta2*r)*(b + alpha),
    and 8*eps*D/(c2*(r - r0)) <= tol is required; measured shifts stay
    under half of that) and the gap changes sign on [lo, hi].  So a double
    root, which has no sign change, and roots a fold apart are not
    checked.  The result is computed once per ``p``.
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
        if drift <= tol:
            lo = max(0.5 * positive, 0.5 * (roots[0] + positive))
            hi = positive * 1.5 + 1e-12
            gap = _balance_gap(p)
            # clipped, so the window never reaches the gap's pole at A < 0
            if (gap(lo) * gap(hi) < 0.0
                    and gap(max(lo, positive - tol)) * gap(min(hi, positive + tol)) > 0.0):
                raise ArithmeticError(
                    f"balance gap keeps its sign within {tol:.3g} of "
                    f"quadratic root {positive!r}"
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


def interior_fixed_point(p: ModelParams) -> FixedPoint:
    """The interior fixed point lambda_11 of admissible rates.

    Built from the closed form

        x = b / (b + beta1*A)
        u = beta1*A*x / (b + alpha)
        y = alpha*u / (b + beta2*A)
        v = beta2*A*y / b

    with A the lambda_11 root of :func:`_endemic_roots`: this returns the
    catalog's lambda_11 decision, and raises the catalog's ArithmeticError
    where the balance check refuses the root.  The residual
    bound RESIDUAL_TOL is enforced as a postcondition: an alternative form
    with x = b/(b + alpha) circulates but does not satisfy V(q) = q, and
    this check is what arbitrates between them.  Raises NoInteriorPoint
    where lambda_11 does not exist, also at b = 0, where the catalog holds
    fixed faces only, and at alpha = 0, where the endemic point is
    lambda_9, on the boundary (y = v = 0).
    """
    require_admissible(p)
    A = dict(_endemic_roots(p)).get("lambda_11") if p.b > 0.0 else None
    if A is None:
        raise NoInteriorPoint("no lambda_11 for these rates: b = 0, alpha = 0, beta2 = 0 "
                              "or the equilibrium quadratic has no positive root")
    b, al, b1, b2, _, _ = rates = p.as_tuple()
    q = _interior_coordinates(b, al, b1, b2, A)
    fp = _point("lambda_11", q, _residual(q, rates), p)
    if fp.residual > RESIDUAL_TOL:
        raise ArithmeticError(
            f"interior fixed-point residual {fp.residual:.3e} exceeds {RESIDUAL_TOL:g}"
        )
    return fp


def _endemic_roots(p: ModelParams):
    """b > 0: (label, A) for each positive root A of Q, larger root first.

    With alpha = 0 or beta2 = 0, Q has one positive root at most,
    A* = b/(b + alpha)*((beta1*k1 - b - alpha)/beta1), that of lambda_9 or
    lambda_10, iff beta1*k1 > b + alpha.  That sign is read off the rates,
    since the b^2 in Q's c0 can underflow.  Otherwise the roots are Q's,
    through :func:`interior_quadratic` and its balance check, at every
    scale; the catalog's residual filter then tests each point.  This is
    the one decision whether lambda_11 exists: the catalog, the balance
    curves' crossings, limit detection's anchors and
    :func:`interior_fixed_point` read it.
    """
    b, al, b1, b2, k1, _ = p.as_tuple()
    if al == 0.0 or b2 == 0.0:
        if b1 * k1 > b + al:
            label = "lambda_9" if al == 0.0 else "lambda_10"
            yield label, b / (b + al) * ((b1 * k1 - b - al) / b1)
        return
    try:
        roots = interior_quadratic(p).roots
    except DegenerateRegime:  # c2 = 0: beta1 = 0 (no positive root) or an underflow
        return
    yield from zip(("lambda_11", "lambda_11b"), [r for r in reversed(roots) if r > 0.0])


def _endemic_points(p: ModelParams):
    """b > 0: (label, q, None) for the point q at each of
    :func:`_endemic_roots`, lambda_9 and lambda_10 at their closed forms."""
    b, al, b1, b2, k1, _ = p.as_tuple()
    for label, A in _endemic_roots(p):
        if label == "lambda_9":
            yield label, (*_lambda9_coordinates(b, b1 * k1), 0.0, 0.0), None
        elif label == "lambda_10":
            yield label, _lambda10_point(b, al, b1, b2, b1 * k1), None
        else:
            yield label, _interior_coordinates(b, al, b1, b2, A), None


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


@functools.cache
def _members(support) -> tuple[tuple[float, float, float, float], ...]:
    """The sampled members of the family with support ``support``, made
    once per support."""
    return tuple(tuple(dict(zip(support, t)).get(c, 0.0) for c in "xuyv")
                 for t in _SAMPLES[len(support)])


# The 15 supports, by size and then in x, u, y, v order, each with its set.
_SUPPORTS = tuple((s, frozenset(s)) for n in (1, 2, 3, 4)
                  for s in map("".join, combinations("xuyv", n)))


def _faces(rates):
    """b = 0: the named faces that are fixed, then the other maximal ones, as
    (label, q, None) for a vertex q and (label, None, support) for a family.

    A face moves where it holds u with alpha != 0, or both coordinates of a
    pair xu, xv, yu or yv whose rate product beta*k is not 0 (one that
    underflows counts as 0, as it does in V); every other face is fixed.
    """
    _, al, b1, b2, k1, k2 = rates
    moving = [pair for pair, rate in (("u", al), ("xu", b1 * k1), ("xv", b1 * k2),
                                      ("yu", b2 * k1), ("yv", b2 * k2)) if rate != 0.0]
    fixed = {s: f for s, f in _SUPPORTS if not any(f.issuperset(m) for m in moving)}
    maximal = [s for s, f in fixed.items()
               if s not in _NAMED and not any(f < g for g in fixed.values())]
    for support in [s for s in _NAMED if s in fixed] + maximal:
        label = _NAMED.get(support, "face_" + support)
        if len(support) == 1:
            yield label, tuple(float(c == support) for c in "xuyv"), None
        else:
            yield label, None, support


def _catalog_entries(p: ModelParams) -> list[tuple]:
    """The catalog's entries as plain floats, in catalog order, each
    (label, q, residual, support): an isolated point has its four
    coordinates q and support None, a family (b = 0) has q None and the
    support of its face, and its residual is the largest of its members'.

    lambda_1 comes first, then what the rule for b > 0 or b = 0 derives.
    An entry whose residual exceeds RESIDUAL_TOL is dropped, and so is an
    isolated point within 1e-12 of one already kept.  Raises
    InadmissibleParams before anything else.
    """
    require_admissible(p)
    rates = p.as_tuple()
    kept: list[tuple] = []
    points: list[tuple] = []  # coordinates of the kept isolated points
    for label, q, support in [("lambda_1", (1.0, 0.0, 0.0, 0.0), None),
                              *(_endemic_points(p) if rates[0] > 0.0 else _faces(rates))]:
        if q is None:
            res = max(_residual(m, rates) for m in _members(support))
        else:
            res = _residual(q, rates)
        if res > RESIDUAL_TOL:
            continue  # derived, but not fixed in floating point
        if q is not None:
            x, u, y, v = q
            if any(abs(a - x) <= 1e-12 and abs(b - u) <= 1e-12
                   and abs(c - y) <= 1e-12 and abs(d - v) <= 1e-12
                   for a, b, c, d in points):
                continue
            points.append(q)
        kept.append((label, q, res, support))
    return kept


def _point(label, q, res, p: ModelParams) -> FixedPoint:
    """The record of the isolated point ``q`` with residual ``res``: its
    array, lambda_1's closed-form stability, and at lambda_11 and
    lambda_11b a note on whether the alternative x = b/(b + alpha) fails
    the residual check."""
    if label == "lambda_1":
        return FixedPoint(label, point=np.array(q), residual=res,
                          stability=stability.classify_lambda1(p).classification)
    note = ""
    if label in ("lambda_11", "lambda_11b"):
        b, al, _, _, _, _ = rates = p.as_tuple()
        _, u, y, v = q
        if _residual((b / (b + al), u, y, v), rates) > RESIDUAL_TOL:
            note = ("x = b/(b+beta1*A) verified; the alternative x = b/(b+alpha) "
                    "fails the residual check")
    return FixedPoint(label, point=np.array(q), residual=res, note=note)


def _family(label, support, res) -> FixedPoint:
    """The record of the family with support ``support``: its description
    and sampled members."""
    zero = " = ".join(c for c in "xuyv" if c not in support)
    family = {2: f"{zero} = 0; {support[0]} in [0, 1], {support[1]} = 1 - {support[0]}",
              3: f"{zero} = 0; {', '.join(support)} >= 0 with {' + '.join(support)} = 1",
              4: "the whole simplex (identity dynamics)"}[len(support)]
    return FixedPoint(label, family=family, residual=res,
                      representatives=tuple(np.array(m) for m in _members(support)))


def fixed_point_set(p: ModelParams) -> list[FixedPoint]:
    """The full catalog of fixed points for admissible rates: the records of
    :func:`_catalog_entries`.  Only they hold point arrays, lambda_1's
    closed-form stability, an interior point's note and a family's
    description and sampled members.
    """
    return [_family(label, support, res) if q is None else _point(label, q, res, p)
            for label, q, res, support in _catalog_entries(p)]


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

"""Fixed-point catalog of the SISI operator.

Isolated fixed points carry the catalog labels lambda_1 ... lambda_11;
fixed faces of the simplex carry Lambda_5 ... Lambda_8, and S3 marks the
regimes in which every point is fixed.  One ordered table, _CANDIDATES,
gives each entry's label, the condition on the rates under which it is
proposed, and its closed-form point or sampled family members.  The
conditions overlap, so the catalog is assembled by union-and-verify:
every proposed candidate must pass the one-step residual test
||V(q) - q||_inf <= RESIDUAL_TOL before it is kept.  The residual check is
ground truth and the conditions only propose, though each family's
condition is exactly where all of it is fixed.

The interior fixed point lambda_11 is parametrized by the positive root of
a quadratic in the equilibrium force of infection A; see
:func:`interior_quadratic`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from sisi.model import (
    ModelParams,
    RESIDUAL_TOL,
    _per_params,
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


def interior_fixed_point(p: ModelParams) -> FixedPoint:
    """The fully interior fixed point lambda_11.

    Built from the closed form

        x = b / (b + beta1*A)
        u = beta1*A*x / (b + alpha)
        y = alpha*u / (b + beta2*A)
        v = beta2*A*y / b

    with A the positive root of :func:`interior_quadratic`.  The residual
    bound RESIDUAL_TOL is enforced as a postcondition: an alternative form
    with x = b/(b + alpha) circulates but does not satisfy V(q) = q, and
    this check is what arbitrates between them.
    """
    try:
        quad = interior_quadratic(p)
    except DegenerateRegime as exc:
        raise NoInteriorPoint(str(exc)) from exc
    if quad.positive_root is None:
        raise NoInteriorPoint(
            "the equilibrium quadratic has no positive root for these rates"
        )
    b, al, b1, b2, _, _ = rates = p.as_tuple()
    point = np.array(_interior_coordinates(b, al, b1, b2, quad.positive_root))
    x, u, y, v = q = point.tolist()
    res = _residual(q, rates)
    if res > RESIDUAL_TOL:
        raise ArithmeticError(
            f"interior fixed-point residual {res:.3e} exceeds {RESIDUAL_TOL:g}"
        )
    note = ""
    if _residual((b / (b + al), u, y, v), rates) > RESIDUAL_TOL:
        note = ("x = b/(b+beta1*A) verified; the alternative x = b/(b+alpha) "
                "fails the residual check")
    return FixedPoint(label="lambda_11", point=point, residual=res, note=note)


def _lambda1(label, p):
    """Row maker: (1, 0, 0, 0) with its residual and closed-form stability."""
    q = (1.0, 0.0, 0.0, 0.0)
    return FixedPoint(label, point=np.array(q), residual=_residual(q, p.as_tuple()),
                      stability=stability.classify_lambda1(p).classification)


def _isolated(coords):
    """Row maker: the point coords(b, al, b1, b2, k1, k2) with its residual."""
    def make(label, p):
        rates = p.as_tuple()
        point = np.array(coords(*rates))
        return FixedPoint(label, point=point, residual=_residual(point.tolist(), rates))
    return make


def _family(description, members):
    """Row maker: a family sampled at ``members``, with its largest residual."""
    def make(label, p):
        rates = p.as_tuple()
        return FixedPoint(label, family=description,
                          representatives=tuple(np.array(m) for m in members),
                          residual=max(_residual(m, rates) for m in members))
    return make


# The catalog's candidates in listing order: a label, the rates under which
# it is proposed, and how it is made from them.  The conditions overlap and
# only propose; fixed_point_set keeps what passes the residual check.
_CANDIDATES = (
    ("lambda_1", lambda b, al, b1, b2, k1, k2: True, _lambda1),
    ("lambda_2", lambda b, al, b1, b2, k1, k2: b == 0.0,
     _isolated(lambda *r: (0.0, 0.0, 0.0, 1.0))),
    ("lambda_3", lambda b, al, b1, b2, k1, k2: b == 0.0,
     _isolated(lambda *r: (0.0, 0.0, 1.0, 0.0))),
    ("lambda_4", lambda b, al, b1, b2, k1, k2: b == 0.0 and al == 0.0,
     _isolated(lambda *r: (0.0, 1.0, 0.0, 0.0))),
    ("lambda_9", lambda b, al, b1, b2, k1, k2: b > 0.0 and al == 0.0 and b1 * k1 > b,
     _isolated(lambda b, al, b1, b2, k1, k2: (*_lambda9_coordinates(b, b1 * k1), 0.0, 0.0))),
    ("lambda_10", lambda b, al, b1, b2, k1, k2: (
        b > 0.0 and al > 0.0 and b2 == 0.0 and b1 * k1 > b + al),
     _isolated(lambda b, al, b1, b2, k1, k2: (*_lambda10_coordinates(b, al, b1 * k1), 0.0))),
    # NoInteriorPoint means no candidate
    ("lambda_11", lambda b, al, b1, b2, k1, k2: al * b * b1 * b2 * k1 * k2 > 0.0,
     lambda label, p: interior_fixed_point(p)),
    # each family's condition is exactly where all of it is fixed
    ("Lambda_5", lambda b, al, b1, b2, k1, k2: b == 0.0,
     _family("u = v = 0; x in [0, 1], y = 1 - x",
             [(t, 0.0, 1.0 - t, 0.0) for t in _EDGE_TS])),
    ("Lambda_7", lambda b, al, b1, b2, k1, k2: (
        b == 0.0 and al == 0.0 and (b2 == 0.0 or k1 == k2 == 0.0)),
     _family("x = 0; u, y, v >= 0 with u + y + v = 1",
             [(0.0, a, c, d) for a, c, d in _FACE_TS])),
    ("S3", lambda b, al, b1, b2, k1, k2: (
        b == 0.0 and al == 0.0 and (k1 == k2 == 0.0 or b1 == b2 == 0.0)),
     _family("the whole simplex (identity dynamics)", _FULL_TS)),
    ("Lambda_6", lambda b, al, b1, b2, k1, k2: (
        b == 0.0 and b1 * k2 == 0.0 and b2 * k2 == 0.0),
     _family("u = 0; x, y, v >= 0 with x + y + v = 1",
             [(a, 0.0, c, d) for a, c, d in _FACE_TS])),
    ("Lambda_8", lambda b, al, b1, b2, k1, k2: b == 0.0 and b2 * k2 == 0.0,
     _family("x = u = 0; y in [0, 1], v = 1 - y",
             [(0.0, 0.0, t, 1.0 - t) for t in _EDGE_TS])),
)


def fixed_point_set(p: ModelParams) -> list[FixedPoint]:
    """The full catalog of fixed points for admissible rates.

    Proposes every ``_CANDIDATES`` row whose condition holds, in table
    order, and keeps exactly those whose residual is at most RESIDUAL_TOL;
    an isolated point within 1e-12 of one already kept is dropped.
    lambda_1 = (1, 0, 0, 0) is always fixed and always listed first.
    """
    require_admissible(p)
    rates = p.as_tuple()
    kept: list[FixedPoint] = []
    points: list[list[float]] = []  # coordinates of the kept isolated points
    for label, when, make in _CANDIDATES:
        if not when(*rates):
            continue
        try:
            fp = make(label, p)
        except NoInteriorPoint:
            continue
        if fp.residual > RESIDUAL_TOL:
            continue  # proposed, but not fixed
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

    Returns an (M, 4) array; M = C(resolution + 3, 3).
    """
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    pts = []
    for i, j, k in combinations_with_replacement(range(resolution + 1), 3):
        # i <= j <= k are the cumulative cut positions of a composition
        pts.append((i, j - i, k - j, resolution - k))
    return np.asarray(pts, dtype=float) / float(resolution)

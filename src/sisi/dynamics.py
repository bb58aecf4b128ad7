"""Trajectory limits: detection, regime-by-regime predictions, and scans.

Every trajectory of the SISI operator converges to one of the cataloged
fixed points (proven in several parameter regimes, conjectured in two).
This module provides

* :func:`detect_limit` -- honest numerical limit detection with a dual
  stopping rule (step size, proximity to the fixed-point catalog);
* :func:`predicted_limit` -- the target of the first rule that holds in
  ``_RULES``, one ordered table of the proven limit rules and the two
  conjectured dichotomies, with conjectural predictions flagged as such;
* :func:`verify_proposition` -- seeded randomized agreement suites, one
  per proven rule of the same table (:func:`list_regimes`), whose trials
  are generic draws kept where that rule is the first that holds;
* :func:`conjecture_scan` -- deterministic grid scans that read the same
  table on columns, claim a (cell, initial point) row exactly when its
  first rule is the conjecture's, and give every row a verdict, returned
  as a :class:`ScanReport` of per-row columns (a counterexample is
  reported, never suppressed);
* :func:`equilibrium_curves` -- the linear-vs-saturating curve pair whose
  intersections are the endemic equilibrium forces of infection; its
  crossings are the fixed-point catalog's endemic roots, not a sampled
  search.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product, repeat
from types import SimpleNamespace

import numpy as np

from sisi.model import (
    LIMIT_TOL,
    ModelParams,
    RESIDUAL_TOL,
    SimplexPoint,
    _CONDITIONS,
    _rate_ok,
    _require_count,
    _samples,
    _step,
    require_admissible,
)
from sisi.fixpoints import (
    DegenerateRegime,
    _catalog_entries,
    _endemic_roots,
    _interior_coordinates,
    _lambda9_coordinates,
    _lambda10_point,
    _quadratic,
    _roots,
    fixed_point_set,  # not called here; perfbench/workloads.py traces this binding
)

__all__ = [
    "RegimeUnsatisfiable",
    "PredictedLimit",
    "LimitReport",
    "SuiteReport",
    "GridSpec",
    "ScanReport",
    "EquilibriumCurves",
    "detect_limit",
    "predicted_limit",
    "verify_proposition",
    "list_regimes",
    "conjecture_scan",
    "default_grid",
    "equilibrium_curves",
]

# Rounding allowance of detect_limit's proximity skip.  Coordinates lie
# within 1e-12 of [0, 1], so each computed difference of two coordinates
# (hence each distance and each step) and each rounding in an update of the
# slack is within 2**-53 of its exact value.  A reset or a decrement of the
# slack carries at most three such errors, and the check's own distance one
# more: 4 * 2**-52 = 8 * 2**-53 covers them.
_SKIP_MARGIN = 4 * 2.0 ** -52

SRC_NO_SUSCEPTIBILITY = "limit rule for beta1 = beta2 = 0 (no susceptibility)"
SRC_RECOVERED_ONLY = ("limit rule for beta1 = 0, beta2 > 0 "
                      "(susceptibility only after recovery)")
SRC_NO_TURNOVER = "limit rule for b = alpha = 0 (no turnover)"
SRC_NO_RECOVERY = ("limit rule for alpha = k2 = 0 "
                   "(no recovery; dynamics close on the infected edge)")
SRC_NO_REINFECTION = ("limit rule for beta2 = 0, beta1 > 0 "
                      "(recovered never reinfected), proven cases")
SRC_BOUNDARY_CONJ = "boundary-limit conjecture (beta2 = 0, b*alpha > 0)"
SRC_INTERIOR_CONJ = "interior-limit conjecture (all six rates positive)"
SRC_NO_INFECTION = ("limit rule for u0 = v0 = 0, all six rates positive "
                    "(no infected individuals at the start)")
SRC_FIXED_START = "initial point is fixed"


class RegimeUnsatisfiable(ValueError):
    """No admissible parameters satisfy the requested regime constraints."""


@dataclass(frozen=True, eq=False)
class PredictedLimit:
    """A limit target for one regime.

    ``target`` pins coordinates by value; NaN marks a coordinate the rule
    leaves free (it depends on the initial point).  ``conjectural`` marks
    targets backed by a conjecture rather than a proof.
    """

    regime: str
    source: str
    target: np.ndarray
    conjectural: bool = False
    note: str = ""

    def pinned_deviation(self, limit: np.ndarray) -> float:
        """Largest |limit_i - target_i| over the pinned (non-NaN) coordinates
        of the target, NaN if any of those is NaN, and 0.0 when none is
        pinned.  ``limit`` has the target's length."""
        dev = 0.0
        for c, t in zip(limit.tolist(), self.target.tolist(), strict=True):
            if t == t:  # pinned
                d = abs(c - t)
                if d > dev or d != d:  # a NaN stays, as in np.max
                    dev = d
        return dev

    def check(self, limit: np.ndarray, tol: float) -> tuple[bool, float]:
        dev = self.pinned_deviation(limit)
        return dev <= tol, dev


@dataclass(frozen=True, eq=False)
class LimitReport:
    """Outcome of iterating to a (possible) limit."""

    converged: bool
    limit: np.ndarray | None
    iterations: int
    final_step: float
    snapped: str | None = None            # catalog label, when within tol_fix
    predicted: PredictedLimit | None = None
    match: bool | None = None
    deviation: float | None = None


def _require_budget(max_iter: int, **tolerances: float) -> int:
    """``max_iter`` as an int; raise ValueError unless it is an integer >= 1
    and every tolerance is finite and >= 0 (NaN is not)."""
    max_iter = _require_count("max_iter", max_iter, 1)
    for tol in tolerances.values():
        if not 0.0 <= tol < math.inf:
            raise ValueError("tolerances must be >= 0 and finite: "
                             + ", ".join(f"{k}={v!r}" for k, v in tolerances.items()))
    return max_iter


def _nearest(x, u, y, v, anchors):
    """(sup-norm distance, label, point) of the anchor nearest to (x, u, y, v),
    the first on ties; (inf, None, None) when there is none."""
    best = (math.inf, None, None)
    for label, a in anchors:
        dist = max(abs(x - a[0]), abs(u - a[1]), abs(y - a[2]), abs(v - a[3]))
        if dist < best[0]:
            best = (dist, label, a)
    return best


def detect_limit(
    s0: SimplexPoint,
    p: ModelParams,
    max_iter: int = 1_000_000,
    tol_step: float = 1e-12,
    tol_fix: float = 1e-10,
    predicted: PredictedLimit | None = None,
    match_tol: float = LIMIT_TOL,
) -> LimitReport:
    """Iterate until the step size is at most ``tol_step``, the state comes
    within ``tol_fix`` of a cataloged fixed point, or ``max_iter`` steps.

    The dual stopping rule matters near nonhyperbolic boundaries, where
    step sizes shrink sub-geometrically.  Convergence is reported honestly:
    hitting ``max_iter`` yields ``converged=False`` with the data so far.

    Proximity is checked exactly, against every isolated point of the
    fixed-point catalog, as plain floats from the derivation that
    :func:`fixed_point_set` records (no record is made here); the check is
    skipped only on steps where a rounding-safe lower bound on the
    distance to the catalog (the last checked distance minus every step
    since) excludes a hit, so skipping changes no result.  ``max_iter``
    must be an integer >= 1 and all three tolerances finite and >= 0.  The
    states the loop passes through, ``s0`` first, are
    ``iterate(s0, p, report.iterations).states``.

    The step is the sup-norm of the move, taken with comparisons: every
    coordinate is finite, so it equals ``max(abs(...))`` bit for bit (an
    all-zero move gives 0.0, never -0.0).  The loop writes out
    :func:`sisi.model._step`'s assignments in its left-to-right order, so
    each operation rounds as there without the call's cost (a fifth of a
    step); the tests' every-step oracle, which calls ``_step``, pins every
    report field bit for bit.
    """
    entries = _catalog_entries(p)  # validates p: InadmissibleParams comes first
    max_iter = _require_budget(max_iter, tol_step=tol_step, tol_fix=tol_fix,
                               match_tol=match_tol)
    anchors = [(label, q) for label, q, _, _ in entries if q is not None]
    b, al, b1, b2, k1, k2 = p.as_tuple()
    margin = _SKIP_MARGIN

    x, u, y, v = s0.as_tuple()
    iterations = max_iter  # unless a stop rule fires first
    converged = False
    near = (math.inf, None, None)  # the last proximity check's _nearest
    slack = 0.0  # no bound yet: check after the first step
    for n in range(max_iter):  # n steps done so far
        # model._step's eight assignments, in its order (see the docstring)
        A = k1 * u + k2 * v
        infect1 = b1 * A * x
        recover = al * u
        infect2 = b2 * A * y
        nx = x + b - b * x - infect1
        nu = u - b * u + infect1 - recover
        ny = y - b * y + recover - infect2
        nv = v - b * v + infect2
        # each |new - old| as the difference taken in the order that makes
        # it >= 0: the bits of abs(), and +0.0 for no move
        step = nx - x if nx >= x else x - nx
        d = nu - u if nu >= u else u - nu
        if d > step:
            step = d
        d = ny - y if ny >= y else y - ny
        if d > step:
            step = d
        d = nv - v if nv >= v else v - nv
        if d > step:
            step = d
        if step <= tol_step:
            converged = True  # (x, u, y, v) is (numerically) fixed; do not advance
            iterations = n
            break
        x, u, y, v = nx, nu, ny, nv
        # The sup-norm distance to any anchor falls by at most one step per
        # step, so the check cannot fire while slack > 0.
        slack -= step + margin
        if not slack > 0.0:
            near = _nearest(x, u, y, v, anchors)
            if near[0] <= tol_fix:
                converged = True
                iterations = n + 1
                break
            slack = near[0] - tol_fix - margin

    limit = snapped = None
    if converged:
        # a proximity stop has measured this state's nearest anchor already
        dist, label, a = near if near[0] <= tol_fix else _nearest(x, u, y, v, anchors)
        if dist <= tol_fix:
            snapped = label
            limit = np.array(a)
        else:
            limit = np.array((x, u, y, v))

    match = None
    deviation = None
    if predicted is not None and converged:
        match, deviation = predicted.check(limit, match_tol)
    return LimitReport(
        converged=converged,
        limit=limit,
        iterations=iterations,
        final_step=step,
        snapped=snapped,
        predicted=predicted,
        match=match,
        deviation=deviation,
    )


@dataclass(frozen=True)
class _Rule:
    """Where ``premise`` (a rate regime, a key of ``_PREMISES``) and ``when``
    hold, and no earlier rule does, the limit is ``target``: a label of
    ``_POINTS`` or the four coordinates, NaN where the limit depends on the
    start.  All three take :func:`_inputs` and work elementwise.  ``source``
    is what a prediction cites, the premise's name unless given.

    For :func:`verify_proposition`: ``_gap``, also on :func:`_inputs`, is
    the signed distance to the threshold the convergence rate depends on
    (geometric only away from it), and ``_reading`` summarizes the agreeing
    trials' start and limit rows."""

    regime: str
    premise: str
    when: Callable
    target: str | Callable
    conjectural: bool = False
    note: str = ""
    source: str = ""
    _gap: Callable | None = None
    _reading: Callable | None = None

    def __post_init__(self):
        if not self.source:
            object.__setattr__(self, "source", self.premise)


def _fixed(point, rates, tol):
    """Whether one step moves no coordinate of ``point`` (four floats or
    broadcastable columns) by more than ``tol``, elementwise; NaN is not."""
    x, u, y, v = point
    nx, nu, ny, nv = _step(x, u, y, v, *rates)
    return ((abs(nx - x) <= tol) & (abs(nu - u) <= tol)
            & (abs(ny - y) <= tol) & (abs(nv - v) <= tol))


class _Inputs(SimpleNamespace):
    """The rates, the start and what the rules derive from them, elementwise."""

    @cached_property
    def root(self):
        """The interior quadratic's largest root, elementwise (NaN where
        none), computed on first use only.  One rate set of Python floats
        with two distinct roots skips numpy's scalar wrappers, with the same
        bits: math.sqrt is correctly rounded too, and the comparison picks
        the root np.fmax would."""
        c2, c1, c0, disc = _quadratic(self.b, self.al, self.b1, self.b2, self.k1, self.k2)
        if type(disc) is float and disc > 0.0 and c2 != 0.0:
            r, s = _roots(c2, c1, c0, math.sqrt(disc))
            return r if r >= s or s != s else s
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.fmax(*_roots(c2, c1, c0, np.sqrt(disc)))


def _inputs(rates, start) -> _Inputs:
    """The :class:`_Inputs` of rate and start columns, or of one rate set
    and start as floats."""
    b, al, b1, b2, k1, k2 = rates
    x, u, y, v = start
    return _Inputs(b=b, al=al, b1=b1, b2=b2, k1=k1, k2=k2, x=x, u=u, y=y, v=v,
                   A0=k1 * u + k2 * v, bk=b1 * k1, joint=b + al,
                   fixed=_fixed(start, rates, 1e-13))


def _u_growth(rows) -> dict:
    """The open reading question: does the u-limit stay at u0?  Read on
    starts with x0 > 0 only, where the u-limit exceeds u0 (with A0 > 0);
    a start with x0 = 0 keeps u = u0."""
    lifts = [rec["limit"][1] - rec["s0"][1] for rec in rows if rec["s0"][0] > 0.0]
    if not lifts:
        return {}
    return {
        "u_lift_min": float(min(lifts)),
        "u_lift_max": float(max(lifts)),
        "u_stays_at_u0_count": int(sum(1 for d in lifts if abs(d) <= LIMIT_TOL)),
    }


_POINTS = {  # catalog points fixed by the rates alone
    "lambda_1": lambda a: (1.0, 0.0, 0.0, 0.0),
    "lambda_9": lambda a: (*_lambda9_coordinates(a.b, a.bk), 0.0, 0.0),
    "lambda_10": lambda a: _lambda10_point(a.b, a.al, a.b1, a.b2, a.bk),
    "lambda_11": lambda a: _interior_coordinates(a.b, a.al, a.b1, a.b2, a.root),
}

# The rate regimes the rules hold in, named by the source their rules cite
# (unless a rule names its own); a rule holds only inside its premise
_PREMISES = {
    SRC_FIXED_START: lambda a: a.fixed,
    SRC_INTERIOR_CONJ: lambda a: a.al * a.b * a.b1 * a.b2 * a.k1 * a.k2 > 0.0,
    SRC_NO_SUSCEPTIBILITY: lambda a: (a.b1 == 0.0) & (a.b2 == 0.0),
    # a start with A0 = 0 is fixed when b = alpha = 0
    SRC_NO_TURNOVER: lambda a: (a.b == 0.0) & (a.al == 0.0) & (a.A0 > 0.0),
    SRC_RECOVERED_ONLY: lambda a: (a.b1 == 0.0) & (a.b2 > 0.0),
    SRC_NO_RECOVERY: lambda a: (a.al == 0.0) & (a.k2 == 0.0) & (a.b > 0.0),
    SRC_NO_REINFECTION: lambda a: (a.b2 == 0.0) & (a.b1 > 0.0) & (a.al > 0.0),
    SRC_BOUNDARY_CONJ: lambda a: (a.b2 == 0.0) & (a.b1 > 0.0) & (a.b > 0.0) & (a.al > 0.0),
}

# The rules in the order they are tried; where none holds, nothing is
# predicted.  A condition omits what an earlier rule already took.
_RULES = (
    _Rule("fixed-initial", SRC_FIXED_START, lambda a: True, lambda a: (a.x, a.u, a.y, a.v)),
    # all six rates positive, the generic case: no later rule can hold
    _Rule("interior-conjecture/u0=v0=0", SRC_INTERIOR_CONJ,
          lambda a: (a.u == 0.0) & (a.v == 0.0), "lambda_1", source=SRC_NO_INFECTION),
    _Rule("interior-conjecture/beta1k1<=b+alpha", SRC_INTERIOR_CONJ,
          lambda a: (a.bk <= a.joint) & (a.b * a.joint >= a.al * a.b2 * a.k2),
          "lambda_1", conjectural=True),
    _Rule("interior-conjecture/beta1k1>b+alpha", SRC_INTERIOR_CONJ,
          lambda a: (a.bk > a.joint) & (a.root > 0.0), "lambda_11", conjectural=True),
    # with b = alpha = 0 as well, every start is fixed
    _Rule("no-susceptibility/b=0,alpha>0", SRC_NO_SUSCEPTIBILITY,
          lambda a: (a.b == 0.0) & (a.al > 0.0), lambda a: (a.x, 0.0, 1.0 - a.x - a.v, a.v)),
    _Rule("no-susceptibility/b>0", SRC_NO_SUSCEPTIBILITY, lambda a: a.b > 0.0, "lambda_1"),
    _Rule("no-turnover/beta1=0,beta2>0", SRC_NO_TURNOVER,
          lambda a: (a.b1 == 0.0) & (a.b2 > 0.0), lambda a: (a.x, a.u, 0.0, 1.0 - a.x - a.u)),
    _Rule("no-turnover/beta1>0,beta2=0", SRC_NO_TURNOVER,
          lambda a: (a.b1 > 0.0) & (a.b2 == 0.0), lambda a: (0.0, 1.0 - a.y - a.v, a.y, a.v)),
    _Rule("no-turnover/beta1>0,beta2>0", SRC_NO_TURNOVER,
          lambda a: (a.b1 > 0.0) & (a.b2 > 0.0) & (a.k1 * a.k2 > 0.0),
          lambda a: (0.0, np.nan, 0.0, np.nan),
          note="the u-limit is >= u0 and depends on the initial point; v-limit = 1 - u-limit",
          _reading=_u_growth),
    _Rule("recovered-susceptibility/b>0,alpha=0", SRC_RECOVERED_ONLY,
          lambda a: (a.b > 0.0) & (a.al == 0.0), "lambda_1"),
    _Rule("recovered-susceptibility/b>0,alpha>0", SRC_RECOVERED_ONLY,
          lambda a: (a.b > 0.0) & (a.al > 0.0), "lambda_1"),
    _Rule("recovered-susceptibility/b=0,alpha>0,k2=0", SRC_RECOVERED_ONLY,
          lambda a: (a.al > 0.0) & (a.k2 == 0.0), lambda a: (a.x, 0.0, np.nan, np.nan),
          note="the y-limit depends on the initial point; v = 1 - x0 - y"),
    _Rule("recovered-susceptibility/b=0,alpha>0,k2>0", SRC_RECOVERED_ONLY,
          lambda a: (a.al > 0.0) & (a.A0 > 0.0), lambda a: (a.x, 0.0, 0.0, 1.0 - a.x)),
    _Rule("no-recovery/disease-free", SRC_NO_RECOVERY,
          lambda a: (a.u == 0.0) | (a.bk <= a.b), "lambda_1", _gap=lambda a: a.bk - a.b),
    _Rule("no-recovery/persistent", SRC_NO_RECOVERY, lambda a: True, "lambda_9",
          _gap=lambda a: a.bk - a.b),
    _Rule("no-reinfection/b=0,A0=0", SRC_NO_REINFECTION,
          lambda a: (a.b == 0.0) & (a.A0 == 0.0), lambda a: (a.x, 0.0, 1.0 - a.x - a.v, a.v)),
    _Rule("no-reinfection/b=0,k2v0>0", SRC_NO_REINFECTION,
          lambda a: (a.b == 0.0) & (a.k2 * a.v > 0.0), lambda a: (0.0, 0.0, 1.0 - a.v, a.v)),
    _Rule("no-reinfection/b=0,k2v0=0,k1u0>0", SRC_NO_REINFECTION,
          lambda a: (a.b == 0.0) & (a.k1 * a.u > 0.0), lambda a: (np.nan, 0.0, np.nan, a.v),
          note="the x-limit depends on the initial point; y = 1 - x - v0"),
    _Rule("no-reinfection/b*alpha>0,A0=0", SRC_NO_REINFECTION,
          lambda a: (a.b > 0.0) & (a.A0 == 0.0), "lambda_1"),
    _Rule("no-reinfection/b*alpha>0,k2v0=0,beta1k1<=b+alpha", SRC_NO_REINFECTION,
          lambda a: (a.b > 0.0) & (a.k2 * a.v == 0.0) & (a.bk <= a.joint), "lambda_1",
          _gap=lambda a: a.bk - a.joint),
    _Rule("boundary-conjecture/beta1k1<=b+alpha", SRC_BOUNDARY_CONJ,
          lambda a: (a.bk <= a.joint) & (a.k2 * a.v > 0.0), "lambda_1", conjectural=True),
    _Rule("boundary-conjecture/beta1k1>b+alpha", SRC_BOUNDARY_CONJ,
          lambda a: (a.bk > a.joint) & (a.u + a.v > 0.0), "lambda_10", conjectural=True),
)


def _first_rule(a) -> np.ndarray:
    """Each row's first rule that holds on :func:`_inputs` ``a``, as an
    index into ``_RULES`` (-1 for none)."""
    held = [_PREMISES[rule.premise](a) & rule.when(a) for rule in _RULES]
    return np.select(held, list(range(len(_RULES))), -1)


def predicted_limit(s0: SimplexPoint, p: ModelParams) -> PredictedLimit | None:
    """The target of the first rule of ``_RULES`` that holds for (s0, p), or
    None where none does; nothing is guessed.  Conjecture-backed targets carry
    ``conjectural=True``; a catalog point not fixed raises ArithmeticError.
    """
    require_admissible(p)
    rates = p.as_tuple()
    a = _inputs(rates, s0.as_tuple())
    for rule in _RULES:
        if _PREMISES[rule.premise](a) and rule.when(a):
            break
    else:
        return None
    coords = _POINTS.get(rule.target, rule.target)(a)
    target = np.array(coords)
    # a catalog point that is not fixed comes from a wrong closed form
    if rule.target in _POINTS and not _fixed(coords, rates, RESIDUAL_TOL):
        raise ArithmeticError(f"{rule.regime}: target {target} is not fixed")
    return PredictedLimit(rule.regime, rule.source, target, rule.conjectural, rule.note)


# --------------------------------------------------------------------------
# randomized per-rule verification suites


def _admissible(cells: np.ndarray) -> np.ndarray:
    """Per row of (n, 6) rates, whether a ModelParams of them can be made
    (every rate finite and >= 0) and passes validate_params.  An infinite
    rate gives inf*0 = NaN terms, which violate nothing; its row fails on
    the rates."""
    admissible = np.all(_rate_ok(cells), axis=1)
    rates = cells.T
    with np.errstate(invalid="ignore", over="ignore"):
        for _, value, bound in _CONDITIONS:
            admissible &= ~(value(*rates) > bound)
    return admissible


# The suites' candidate draws and their cap (see verify_proposition)
_RATE_HI = (0.9, 0.95, 1.2, 1.2, 1.5, 1.5)
_BATCH = 4096
_MAX_DRAWS = 1024 * _BATCH
_GAP_MARGIN = 0.02


def _draw(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Up to ``n`` candidate (rates, start) rows; a draw with all four start
    coordinates 0 is dropped."""
    rates = np.where(rng.random((n, 6)) < 0.4, 0.0, rng.uniform(0.05, _RATE_HI, (n, 6)))
    free = rng.random((n, 4)) >= 0.25
    # exponential weights on the free coordinates: Dirichlet(1, ..., 1) on them
    weights = rng.exponential(size=(n, 4)) * free
    some = free.any(axis=1)
    rates, free, weights = rates[some], free[some], weights[some]
    room = 1.0 - 0.1 * free.sum(axis=1, keepdims=True)
    starts = np.where(free, 0.1 + weights / weights.sum(axis=1, keepdims=True) * room, 0.0)
    return rates, starts


def _sample(index: int, trials: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The first ``trials`` draws with admissible rates whose first rule is
    ``_RULES[index]``, at least _GAP_MARGIN off its threshold where it names
    one, as (trials, 6) rates and (trials, 4) starts."""
    rule = _RULES[index]
    kept: list[tuple[np.ndarray, np.ndarray]] = []
    n_kept = 0
    for _ in range(_MAX_DRAWS // _BATCH):
        rates, starts = _draw(rng, _BATCH)
        a = _inputs(tuple(rates.T), tuple(starts.T))
        with np.errstate(divide="ignore", invalid="ignore"):
            keep = _admissible(rates) & (_first_rule(a) == index)
        if rule._gap is not None:
            keep &= np.abs(rule._gap(a)) >= _GAP_MARGIN
        kept.append((rates[keep], starts[keep]))
        n_kept += int(np.count_nonzero(keep))
        if n_kept >= trials:
            rates, starts = map(np.concatenate, zip(*kept))
            return rates[:trials], starts[:trials]
    raise RegimeUnsatisfiable(
        f"{rule.regime}: {n_kept} of {trials} trials found in {_MAX_DRAWS} draws")


# the regimes verify_proposition takes: the proven rules, by index in _RULES
_SUITES = {rule.regime: i for i, rule in enumerate(_RULES) if not rule.conjectural}


def list_regimes() -> tuple[str, ...]:
    """Names accepted by :func:`verify_proposition`: the regimes of the
    proven (non-conjectural) limit rules, in the order they are tried."""
    return tuple(_SUITES)


@dataclass(frozen=True, eq=False)
class TrialFailure:
    index: int
    reason: str
    params: tuple[float, ...]
    init: tuple[float, ...]
    deviation: float | None


@dataclass(frozen=True, eq=False)
class SuiteReport:
    regime: str
    description: str
    trials: int
    seed: int
    passes: int
    failures: tuple[TrialFailure, ...]
    worst_deviation: float
    extra: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures

    def __str__(self) -> str:
        status = "PASS" if self.passed else f"FAIL ({len(self.failures)} failures)"
        return (f"{self.regime}: {self.passes}/{self.trials} agree, "
                f"worst deviation {self.worst_deviation:.3e} "
                f"[seed {self.seed}] {status}")


def verify_proposition(
    regime: str,
    trials: int = 100,
    seed: int = 0,
    tol: float = LIMIT_TOL,
    max_iter: int = 200_000,
    tol_step: float = 1e-10,
) -> SuiteReport:
    """Randomized agreement suite for one proven limit rule.

    ``regime`` names a rule of :func:`list_regimes`.  Candidate (rates,
    start) pairs are drawn in seeded batches: each rate is 0 with
    probability 0.4, else uniform on [0.05, hi]; each start coordinate is 0
    with probability 0.25, and every other one >= 0.1.  A draw is kept when
    its rates are admissible, the rule is the first of ``_RULES`` that
    holds, and, for a rule whose convergence rate depends on a threshold,
    it is at least 0.02 off that threshold, so convergence stays geometric.
    Each kept trial checks that :func:`predicted_limit` names the rule,
    runs :func:`detect_limit`, and compares every pinned coordinate of the
    target at tolerance ``tol``.  ``trials`` and ``max_iter`` must be
    integers >= 1, ``seed`` an integer >= 0 and both tolerances finite and
    >= 0.  The seed is recorded in the report for reproducibility.
    """
    index = _SUITES.get(regime)
    if index is None:
        raise RegimeUnsatisfiable(
            f"unknown or conjectural regime {regime!r}; see list_regimes()")
    trials = _require_count("trials", trials, 1)
    seed = _require_count("seed", seed, 0)
    _require_budget(max_iter, tol=tol, tol_step=tol_step)
    rule = _RULES[index]
    rates, starts = _sample(index, trials, np.random.default_rng(seed))
    passes = 0
    failures: list[TrialFailure] = []
    worst = 0.0
    rows: list[dict] = []
    for i, (r, s) in enumerate(zip(rates.tolist(), starts.tolist())):
        p, s0 = ModelParams(*r), SimplexPoint(*s)
        pred = predicted_limit(s0, p)
        if pred is None or pred.regime != regime:
            failures.append(TrialFailure(
                i, f"dispatcher returned {None if pred is None else pred.regime!r}",
                p.as_tuple(), s0.as_tuple(), None))
            continue
        report = detect_limit(s0, p, max_iter=max_iter, tol_step=tol_step,
                              predicted=pred, match_tol=tol)
        if not report.converged:
            failures.append(TrialFailure(
                i, f"no convergence in {max_iter} steps",
                p.as_tuple(), s0.as_tuple(), None))
            continue
        worst = max(worst, report.deviation)
        if report.match:
            passes += 1
            rows.append({"limit": report.limit, "s0": s0.as_array()})
        else:
            failures.append(TrialFailure(
                i, "limit disagrees with prediction",
                p.as_tuple(), s0.as_tuple(), report.deviation))
    extra = rule._reading(rows) if (rule._reading and rows) else {}
    return SuiteReport(
        regime=regime,
        description=rule.source,
        trials=trials,
        seed=seed,
        passes=passes,
        failures=tuple(failures),
        worst_deviation=worst,
        extra=extra,
    )


# --------------------------------------------------------------------------
# conjecture scans


@dataclass(frozen=True)
class GridSpec:
    """Axis values per rate, in the order (b, alpha, beta1, beta2, k1, k2)."""

    b: tuple[float, ...]
    alpha: tuple[float, ...]
    beta1: tuple[float, ...]
    beta2: tuple[float, ...]
    k1: tuple[float, ...]
    k2: tuple[float, ...]

    def cells(self) -> np.ndarray:
        """The (n_cells, 6) rate rows, last axis fastest; (0, 6) if an axis is empty."""
        return np.array(list(product(self.b, self.alpha, self.beta1,
                                     self.beta2, self.k1, self.k2))).reshape(-1, 6)


# Per conjecture: the premise of the rules it claims rows by, and its
# default grid, 5 values per axis covering the reference simulation settings
_CONJECTURES = {
    1: (SRC_BOUNDARY_CONJ, GridSpec(
        b=(0.1, 0.2, 0.35, 0.5, 0.6),
        alpha=(0.05, 0.1, 0.2, 0.3, 0.4),
        beta1=(0.25, 0.5, 0.75, 1.0, 1.25),
        beta2=(0.0, 0.05, 0.1, 0.2, 0.4),
        k1=(0.25, 0.5, 1.0, 1.5, 2.0),
        k2=(0.15, 0.3, 0.6, 0.9, 1.2),
    )),
    2: (SRC_INTERIOR_CONJ, GridSpec(
        b=(0.1, 0.2, 0.35, 0.5, 0.6),
        alpha=(0.01, 0.05, 0.1, 0.2, 0.3),
        beta1=(0.2, 0.4, 0.5, 0.6, 0.8),
        beta2=(0.01, 0.05, 0.1, 0.2, 0.4),
        k1=(0.3, 0.5, 0.8, 1.0, 1.2),
        k2=(0.3, 0.6, 0.8, 1.1, 1.2),
    )),
}


def default_grid(conjecture: int) -> GridSpec:
    """5-values-per-axis grids covering the reference simulation settings."""
    if conjecture not in tuple(_CONJECTURES):  # compared by ==, so unhashable input too
        raise ValueError("conjecture must be 1 (boundary) or 2 (interior)")
    return _CONJECTURES[conjecture][1]


# In the order conjecture_scan tests their conditions; the last is the default.
_VERDICTS = ("inadmissible", "no-claim", "match", "counterexample", "inconclusive")


# Rows of scan work from which a stage is split: claimed rows for the step
# kernel, iterated rows for the JSONL writer.  Below it a fork and its
# socket pair cost more than sharing the work saves: a 12-cell, 2-start
# grid (24 rows) scanned and written as JSONL took 2.2 ms in one process
# and 11.8 ms split (medians of 30, 2 CPUs).  Conjecture 1's default grid
# (12,325 claimed rows) is above it: conjecture_scan(1) took 0.665 s with
# its kernel split and 0.701 s without (medians of 20 alternating pairs,
# split faster in 14); conjecture 2's 75,095 rows gain more.
_SPLIT_MIN = 4_096


def _n_parts(rows: int) -> int:
    """How many processes share ``rows`` rows of scan work: 2 when ``rows``
    is at least ``_SPLIT_MIN`` and this process may run on at least two
    CPUs, can fork and runs no other Python thread; else 1."""
    import os
    import threading

    cpus = getattr(os, "sched_getaffinity", None)
    if (rows < _SPLIT_MIN or cpus is None or not hasattr(os, "fork")
            or threading.active_count() > 1):
        return 1
    return 2 if len(cpus(0)) >= 2 else 1


def _in_parts(fn, parts, sink) -> None:
    """Pass each item of ``fn(part)`` to ``sink``, part by part in order,
    for one or two parts.

    The first part runs in this process.  A second part runs in a forked
    child, which makes its whole list of items first, so it never waits on
    this process, then sends them pickled over a socket pair, or sends the
    exception it raised, which is raised here; it always leaves by
    ``os._exit``.  The child is killed, if still running, and reaped before
    this returns or raises.  It also leaves as soon as this process ends,
    even by a signal that runs no ``finally``: this process alone holds the
    other end of the socket pair, and a thread in the child returns from
    ``recv(1)`` at EOF, once that end is closed.
    """
    import os
    import pickle
    import signal
    import socket
    import threading

    if len(parts) == 1:
        for item in fn(parts[0]):
            sink(item)
        return
    first, second = parts
    mine, theirs = socket.socketpair()
    pid = os.fork()
    if pid == 0:
        try:
            mine.close()

            def leave_with_parent():
                theirs.recv(1)  # nothing is sent this way: returns at EOF
                os._exit(0)

            threading.Thread(target=leave_with_parent, daemon=True).start()
            try:
                sent = [("item", item) for item in fn(second)] + [("end", None)]
            except BaseException as exc:
                sent = [("error", exc)]
            with theirs.makefile("wb") as out:
                for message in sent:
                    pickle.dump(message, out, pickle.HIGHEST_PROTOCOL)
        finally:
            os._exit(0)
    theirs.close()
    try:
        for item in fn(first):
            sink(item)
        with mine.makefile("rb") as pipe:
            while True:
                try:
                    kind, value = pickle.load(pipe)
                except EOFError:
                    raise ChildProcessError(
                        f"forked worker {pid} ended without its result") from None
                if kind == "error":
                    raise value
                if kind == "end":
                    break
                sink(value)
    finally:
        mine.close()
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


@dataclass(frozen=True, eq=False)
class ScanReport:
    """One scan as (n_cells, n_init) columns; ``limit`` adds an axis of 4.

    ``verdict`` is match, counterexample, inconclusive, no-claim or
    inadmissible; ``target`` is the claimed limit's catalog label (None
    without a claim); ``distance`` is the limit's largest coordinate
    deviation from the target (NaN without a claim).  Only claimed rows are
    iterated; a no-claim or inadmissible row has a NaN limit and final step
    and 0 iterations.  ``summary`` counts the rows per verdict.
    """

    conjecture: int
    seed: int
    inits: np.ndarray
    cells: np.ndarray
    verdict: np.ndarray
    target: np.ndarray
    distance: np.ndarray
    iterations: np.ndarray
    final_step: np.ndarray
    limit: np.ndarray
    summary: dict[str, int]
    max_iter: int
    tol_step: float
    match_tol: float

    def to_jsonl(self, fh) -> None:
        """A header line, then one JSON line per row in (cell, init) order.

        Each line is what ``json.dumps(row, sort_keys=True)`` writes, with
        ``"limit": null`` for a row of 0 iterations, which was not iterated.
        Rows are rendered and written in blocks, so the file is never held
        whole.  With two parts (:func:`_n_parts` of the iterated rows, the
        rule the scan's kernel splits by), a forked child renders the
        blocks after the one where half of the iterated rows are done
        while this process writes the header and the blocks before; then
        the child's blocks are copied into ``fh``.
        """
        n_init = self.inits.shape[0]
        header = {
            "conjecture": self.conjecture,
            "seed": self.seed,
            "n_cells": int(self.cells.shape[0]),
            "n_init": n_init,
            "max_iter": self.max_iter,
            "tol_step": self.tol_step,
            "match_tol": self.match_tol,
            "summary": self.summary,
        }
        params = _json_rows(self.cells)
        points = _json_rows(self.inits)
        verdict, target = self.verdict.ravel(), self.target.ravel()
        labels = {v: json.dumps(v) for v in {*verdict.tolist(), *target.tolist()}}
        distance, final_step = self.distance.ravel(), self.final_step.ravel()
        iterations, limit = self.iterations.ravel(), self.limit.reshape(-1, 4)

        def block(lo: int) -> str:
            rows = slice(lo, lo + _JSONL_BLOCK)
            limits = ["null"] * len(verdict[rows])
            ran = np.flatnonzero(iterations[rows])
            for i, x, u, y, v in zip(ran.tolist(), *map(_json_floats, limit[rows][ran].T)):
                limits[i] = f"[{x}, {u}, {y}, {v}]"
            return "".join(
                f'{{"cell": {cell}, "distance": {dist}, "final_step": {step}, '
                f'"init": {init}, "init_point": {points[init]}, '
                f'"iterations": {n}, "limit": {lim}, "params": {params[cell]}, '
                f'"target": {labels[tgt]}, "verdict": {labels[verd]}}}\n'
                for (cell, init), verd, tgt, dist, n, step, lim in zip(
                    map(divmod, range(lo, lo + len(limits)), repeat(n_init)),
                    verdict[rows].tolist(), target[rows].tolist(),
                    _json_floats(distance[rows]), iterations[rows].tolist(),
                    _json_floats(final_step[rows]), limits))

        starts = range(0, verdict.size, _JSONL_BLOCK)
        parts = [starts]
        n_ran = np.count_nonzero(iterations)
        if _n_parts(n_ran) == 2:
            # this process takes the blocks up to the one where half of
            # the iterated rows are done
            half = int(np.searchsorted(np.cumsum(iterations != 0), n_ran / 2))
            parts = [starts[:half // _JSONL_BLOCK + 1], starts[half // _JSONL_BLOCK + 1:]]
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        _in_parts(lambda los: map(block, los), parts, fh.write)


_JSONL_BLOCK = 4096
# json's spelling of a non-finite float, indexed by isnan + 2 * (x < 0)
_JSON_NONFINITE = np.array(["Infinity", "NaN", "-Infinity"], dtype=object)


def _json_floats(a: np.ndarray) -> list[str]:
    """The floats of a 1-D array, each as ``json.dumps`` writes it; only
    the finite ones go through ``float.__repr__``."""
    finite = np.isfinite(a)
    if finite.all():
        return list(map(float.__repr__, a.tolist()))
    text = _JSON_NONFINITE[np.isnan(a) + 2 * (a < 0)]
    text[finite] = list(map(float.__repr__, a[finite].tolist()))
    return text.tolist()


def _json_rows(a: np.ndarray) -> list[str]:
    """``json.dumps(row)`` of each row of a 2-D numeric array's ``tolist()``,
    joined from the text of each distinct value.  Values are told apart by
    their bits, so -0.0 and 0.0 differ, every NaN is one value and an
    integer array stays integer."""
    flat = a.reshape(-1)
    _, first, which = np.unique(flat.view(f"u{flat.itemsize}"),
                                return_index=True, return_inverse=True)
    text = np.array([json.dumps(x) for x in flat[first].tolist()], dtype=object)
    return ["[" + ", ".join(row) + "]" for row in text[which].reshape(a.shape).tolist()]


def _sup_dist(a, b):
    """Row-wise largest |a_i - b_i| over two tuples of column arrays."""
    out = np.abs(a[0] - b[0])
    for ai, bi in zip(a[1:], b[1:]):
        np.maximum(out, np.abs(ai - bi), out=out)
    return out


def _batch_limits(rates, cur, tgt, max_iter: int, tol_step: float, prox_tol: float):
    """Iterate many (rates, start) rows at once, freezing converged rows.

    ``rates``, the start ``cur`` and the target ``tgt`` are tuples of 1-D
    columns, six, four and four of them, one entry per row; they are read,
    not copied.  Every 16 steps, freezes a row when its last step is <=
    tol_step or it is within prox_tol of its target (rows with a NaN target
    use the step rule only); the step runs on the live rows' columns.
    Returns (final states as a (4, n) array of columns, iterations, final
    steps, distances to target), each distance the sup-norm the proximity
    rule read when the row froze.
    """
    n = cur[0].size
    final = np.empty((4, n))
    iters = np.zeros(n, dtype=np.int64)
    fstep = np.full(n, np.inf)
    dist = np.empty(n)

    live = np.arange(n)
    done = 0
    CHUNK = 16
    while live.size and done < max_iter:
        span = min(CHUNK, max_iter - done)
        prev = cur
        for _ in range(span - 1):
            prev = _step(*prev, *rates)
        cur = _step(*prev, *rates)
        done += span
        step = _sup_dist(cur, prev)
        frozen = step <= tol_step
        with np.errstate(invalid="ignore"):
            near = _sup_dist(cur, tgt)
            frozen |= near <= prox_tol
        if done >= max_iter:
            frozen[:] = True
        if np.any(frozen):
            rows = live[frozen]
            for out, col in zip(final, cur):
                out[rows] = col[frozen]
            iters[rows] = done
            fstep[rows] = step[frozen]
            dist[rows] = near[frozen]
            keep = ~frozen
            live = live[keep]
            cur = tuple(col[keep] for col in cur)
            rates = tuple(r[keep] for r in rates)
            tgt = tuple(t[keep] for t in tgt)
    return final, iters, fstep, dist


def conjecture_scan(
    conjecture: int,
    grid: GridSpec | None = None,
    n_init: int = 5,
    seed: int = 0,
    max_iter: int = 20_000,
    tol_step: float = 1e-11,
    match_tol: float = 1e-4,
) -> ScanReport:
    """Grid scan of one conjectured limit dichotomy.

    Every (cell, initial point) pair gets a verdict backed by its stored
    limit data: ``match`` when the trajectory reaches the claimed target,
    ``counterexample`` when it demonstrably converges elsewhere,
    ``inconclusive`` when the budget ran out (typical on the nonhyperbolic
    threshold beta1*k1 = b + alpha, where convergence is sub-geometric),
    ``no-claim`` when the conjecture does not speak, and ``inadmissible``
    for cells outside the admissible region.  Only claimed rows are
    iterated: no-claim and inadmissible rows keep a NaN limit and final
    step and 0 iterations.  Scans are deterministic for a fixed seed;
    counterexamples are reported, never suppressed.  ``n_init`` and
    ``max_iter`` must be integers >= 1, ``seed`` an integer >= 0 and both
    tolerances finite and >= 0.
    The claimed rows' rate, start and target columns are built once.  With
    two parts (:func:`_n_parts` of the claimed rows, the rule the JSONL
    writer splits by), a forked child iterates every other claimed row, on
    strided views of those columns; the report is the same to the bit.
    """
    default = default_grid(conjecture)  # raises for an unknown conjecture
    grid = default if grid is None else grid
    n_init = _require_count("n_init", n_init, 1)
    seed = _require_count("seed", seed, 0)
    max_iter = _require_budget(max_iter, tol_step=tol_step, match_tol=match_tol)
    cells = grid.cells()
    n_cells = cells.shape[0]
    rng = np.random.default_rng(seed)
    # random simplex points with every coordinate >= 0.1
    inits = 0.1 + rng.dirichlet(np.ones(4), size=n_init) * (1.0 - 0.1 * 4)

    admissible = _admissible(cells)
    # an admissible row is claimed when its first rule is one of the
    # conjecture's; its label is that rule's catalog point (-1: None)
    premise = _CONJECTURES[conjecture][0]
    labels = [rule.target if rule.premise == premise else None for rule in _RULES]
    # the rules divide by zero on rows they do not take, and an infinite
    # rate gives inf*0 = NaN terms; those are never read
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a = _inputs(tuple(cells.T[:, :, None]), tuple(inits.T[:, None, :]))
        target_label = np.array(labels + [None], dtype=object)[
            np.where(admissible[:, None], _first_rule(a), -1)]
        claim = target_label.astype(bool)
        cell_idx, init_idx = np.nonzero(claim)
        # the claimed rows' rate, start and target columns; each target is
        # the catalog point its label names
        rates = tuple(col[cell_idx] for col in cells.T)
        start = tuple(col[init_idx] for col in inits.T)
        claimed = target_label[claim]
        target = tuple(np.empty(claimed.size) for _ in range(4))
        for label in {*claimed.tolist()}:
            on = claimed == label
            for out, coord in zip(target, _POINTS[label](a)):
                out[on] = np.broadcast_to(coord, claim.shape)[cell_idx[on], init_idx[on]]
    del a, claimed  # the grid-wide rule inputs
    if not np.all(_fixed(target, rates, RESIDUAL_TOL)):
        raise ArithmeticError("a claimed target is not fixed")

    # evolve the claimed rows only; every other row stays NaN, 0 iterations.
    # Row i goes to part i mod n; rows are independent and the 16-step
    # cadence counts from the start, so a part gives each row's bits.
    # The report's columns are made once this process's part of the kernel
    # is done, so they reuse its memory rather than add to its peak.
    columns = []

    def store(part):
        if not columns:
            columns[:] = (np.full((n_cells, n_init, 4), np.nan),
                          np.zeros((n_cells, n_init), dtype=np.int64),
                          np.full((n_cells, n_init), np.nan), np.full((n_cells, n_init), np.nan))
        limit, iterations, final_step, distance = columns
        rows, (final, iters, fstep, dist) = part
        at = cell_idx[rows], init_idx[rows]
        limit[at], iterations[at], final_step[at], distance[at] = final.T, iters, fstep, dist

    n = _n_parts(cell_idx.size)
    _in_parts(lambda rows: [(rows, _batch_limits(
        *(tuple(col[rows] for col in cols) for cols in (rates, start, target)),
        max_iter, tol_step, min(1e-8, match_tol / 10.0)))],
        [slice(i, None, n) for i in range(n)], store)
    limit, iterations, final_step, distance = columns
    code = np.select([~admissible[:, None], ~claim,
                      distance <= match_tol, final_step <= tol_step],
                     [0, 1, 2, 3], default=4)
    return ScanReport(
        conjecture=conjecture,
        seed=seed,
        inits=inits,
        cells=cells,
        verdict=np.array(_VERDICTS, dtype=object)[code],
        target=target_label,
        distance=distance,
        iterations=iterations,
        final_step=final_step,
        limit=limit,
        summary=dict(zip(_VERDICTS, np.bincount(code.ravel(), minlength=5).tolist())),
        max_iter=max_iter,
        tol_step=tol_step,
        match_tol=match_tol,
    )


# --------------------------------------------------------------------------
# equilibrium force-of-infection curves


@dataclass(frozen=True, eq=False)
class EquilibriumCurves:
    """The linear and saturating sides of the interior balance equation.

    In the force-of-infection variable, interior equilibria solve
    linear(A) = saturating(A) where

        linear(A)     = b + beta1*A
        saturating(A) = b*beta1*k1/(b+alpha)
                        + alpha*beta1*beta2*k2*A / ((b+beta2*A)*(b+alpha))

    The saturating side starts at b*beta1*k1/(b+alpha) with initial slope
    alpha*beta1*beta2*k2/(b*(b+alpha)) and flattens toward the horizontal
    asymptote beta1*(b*k1+alpha*k2)/(b+alpha).  ``crossings`` are the
    catalog's endemic roots, the positive roots of the cleared quadratic
    (or its linear root where alpha = 0 or beta2 = 0) in increasing order,
    not a search on the samples; ``sign_changes`` is their count.
    """

    xs: np.ndarray
    linear: np.ndarray
    saturating: np.ndarray
    value_at_zero: float        # saturating(0)
    asymptote: float
    slope_linear: float
    slope_saturating_at_zero: float
    sign_changes: int
    crossings: tuple[float, ...]


def equilibrium_curves(p: ModelParams) -> EquilibriumCurves:
    """The two balance curves sampled at 513 points on [0, x_max], with
    x_max = max(1, k1, k2, 1.5*largest crossing), plus analytic markers.

    The crossings are the endemic roots the fixed-point catalog solves
    for, so the curves and the catalog share one solver.  Raises
    DegenerateRegime where b*(b + alpha), the saturating side's denominator
    at the origin, is 0, in exact arithmetic or by underflow."""
    b, al, b1, b2, k1, k2 = p.as_tuple()
    if b * (b + al) == 0.0:
        raise DegenerateRegime(
            "b*(b + alpha) = 0 leaves the saturating curve undefined at the origin")
    crossings = tuple(sorted(A for _, A in _endemic_roots(p)))

    def linear(t):
        return b + b1 * t

    def saturating(t):
        return (b * b1 * k1 / (b + al)
                + al * b1 * b2 * k2 * t / ((b + b2 * t) * (b + al)))

    xs = _samples(max(1.0, k1, k2, *(1.5 * A for A in crossings)), 513)
    return EquilibriumCurves(
        xs=xs,
        linear=linear(xs),
        saturating=saturating(xs),
        value_at_zero=saturating(0.0),
        asymptote=b1 * (b * k1 + al * k2) / (b + al),
        slope_linear=b1,
        slope_saturating_at_zero=al * b1 * b2 * k2 / (b * (b + al)),
        sign_changes=len(crossings),
        crossings=crossings,
    )

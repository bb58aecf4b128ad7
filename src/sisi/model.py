"""Discrete-time SISI epidemic dynamics on the 3-simplex.

The state (x, u, y, v) holds the population fractions of susceptibles,
first-time infected, recovered, and second-time infected individuals.
One time step applies the evolution operator

    x' = x + b - b*x - beta1*A*x
    u' = u - b*u + beta1*A*x - alpha*u
    y' = y - b*y + alpha*u - beta2*A*y
    v' = v - b*v + beta2*A*y

where A = k1*u + k2*v is the force of infection.  Births replace deaths
one-for-one (both at rate ``b``), so the total population is constant: on
the simplex the four components always sum to 1 again.  The operator maps
the simplex into itself exactly when the six rates satisfy nine
inequalities; see :func:`validate_params`.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "COORD_CLAMP",
    "IDENTITY_TOL",
    "RESIDUAL_TOL",
    "LIMIT_TOL",
    "NegativeParameter",
    "InadmissibleParams",
    "ModelParams",
    "Violation",
    "AdmissibilityReport",
    "SimplexPoint",
    "Trajectory",
    "validate_params",
    "require_admissible",
    "force_of_infection",
    "apply_V",
    "iterate",
]

# Negative round-off tolerated (and clamped) on point construction.
COORD_CLAMP = 1e-12
# Guard on the coordinate sum at construction; iteration drift stays far below.
SUM_GUARD = 1e-9

# Shared tolerance tiers: algebraic identities, fixed-point residuals,
# trajectory limits.
IDENTITY_TOL = 1e-12
RESIDUAL_TOL = 1e-10
LIMIT_TOL = 1e-6

_FIELDS = ("b", "alpha", "beta1", "beta2", "k1", "k2")


class NegativeParameter(ValueError):
    """A model rate was negative or not finite; all six must be finite and >= 0."""


class InadmissibleParams(ValueError):
    """The rates violate the simplex-preservation inequalities."""


@dataclass(frozen=True)
class ModelParams:
    """The six non-negative rates of the SISI model.

    b      birth rate (equal to the death rate; population size is constant)
    alpha  recovery rate of the first infected class
    beta1  susceptibility of never-infected individuals
    beta2  susceptibility of recovered individuals
    k1     infectivity of the first infected class
    k2     infectivity of the second infected class

    Every rate must be finite and >= 0, or construction raises
    :class:`NegativeParameter` naming each bad one; the values are stored
    as given.  Only such rates can make the operator a quadratic
    stochastic operator (whether they do is :func:`validate_params`'s
    question), so no function that takes a ``ModelParams`` checks them
    again.

    What derives from the rates alone (the admissibility report, the
    interior quadratic, the closed-form class of lambda_1) is computed
    once per instance; see :func:`_per_params`.
    """

    b: float
    alpha: float
    beta1: float
    beta2: float
    k1: float
    k2: float

    def __post_init__(self) -> None:
        bad = [f"{f}={r!r}" for f, r in zip(_FIELDS, self.as_tuple()) if not _rate_ok(r)]
        if bad:
            raise NegativeParameter(f"rate(s) must be finite and >= 0: {', '.join(bad)}")

    def as_tuple(self) -> tuple[float, float, float, float, float, float]:
        return (self.b, self.alpha, self.beta1, self.beta2, self.k1, self.k2)

    @property
    def admissible(self) -> bool:
        """True iff the evolution operator maps the simplex into itself."""
        return validate_params(self).ok


@dataclass(frozen=True)
class Violation:
    condition: str
    value: float
    bound: float

    def __str__(self) -> str:
        return f"{self.condition} violated: {self.value:.17g} > {self.bound:g}"


@dataclass(frozen=True)
class AdmissibilityReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "admissible"
        return "; ".join(str(v) for v in self.violations)


# The nine inequalities equivalent to every heredity coefficient lying in
# [0, 1] (see the tensor module).
_CONDITIONS = (
    ("alpha + b <= 1", lambda b, al, b1, b2, k1, k2: al + b, 1.0),
    ("beta1*k2 <= 2", lambda b, al, b1, b2, k1, k2: b1 * k2, 2.0),
    ("beta2*k1 <= 2", lambda b, al, b1, b2, k1, k2: b2 * k1, 2.0),
    ("b + beta2*k2 <= 1", lambda b, al, b1, b2, k1, k2: b + b2 * k2, 1.0),
    ("|b - beta1*k1| <= 1", lambda b, al, b1, b2, k1, k2: abs(b - b1 * k1), 1.0),
    ("|b - beta2*k2| <= 1", lambda b, al, b1, b2, k1, k2: abs(b - b2 * k2), 1.0),
    ("|b - beta1*k2| <= 1", lambda b, al, b1, b2, k1, k2: abs(b - b1 * k2), 1.0),
    ("|alpha + b - beta1*k1| <= 1",
     lambda b, al, b1, b2, k1, k2: abs(al + b - b1 * k1), 1.0),
    ("|alpha - b - beta2*k1| <= 1",
     lambda b, al, b1, b2, k1, k2: abs(al - b - b2 * k1), 1.0),
)


def _rate_ok(rate):
    """True where a rate is finite and >= 0 (NaN is not); floats or arrays."""
    return (rate >= 0.0) & (rate < math.inf)


def _require_count(name: str, value, least: int) -> int:
    """``value`` as an int; raise ValueError, naming ``name``, unless it is
    an integer (one that ``operator.index`` takes, so not 2.5, NaN or inf)
    >= ``least``."""
    try:
        count = int(operator.index(value))
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if count < least:
        raise ValueError(f"{name} must be >= {least}, got {value!r}")
    return count


def _per_params(fn):
    """Memoize ``fn(p)`` on the frozen :class:`ModelParams` ``p``.

    The value is stored in the instance's ``__dict__``, beside the rates it
    derives from, so a later call on the same instance returns it without
    recomputing; a call that raises stores nothing.
    """
    key = f"_{fn.__module__}.{fn.__qualname__}"

    @functools.wraps(fn)
    def memoized(p):
        memo = p.__dict__
        if key in memo:
            return memo[key]
        value = memo[key] = fn(p)
        return value
    return memoized


@_per_params
def validate_params(p: ModelParams) -> AdmissibilityReport:
    """Check the nine simplex-preservation inequalities.

    The report is computed once per ``p``.
    """
    args = p.as_tuple()
    violations = tuple([
        Violation(name, value, bound)
        for name, fn, bound in _CONDITIONS
        if (value := fn(*args)) > bound
    ])
    return AdmissibilityReport(violations)


def require_admissible(p: ModelParams) -> None:
    """Raise :class:`InadmissibleParams` unless ``p`` passes validation."""
    report = validate_params(p)
    if not report.ok:
        raise InadmissibleParams(str(report))


@dataclass(frozen=True)
class SimplexPoint:
    """A state (x, u, y, v) on the standard 3-simplex.

    Coordinates down to -1e-12, and -0.0, are stored as 0.0 (round-off
    tolerance); anything more negative, and NaN, is rejected.  The
    coordinate sum must be 1 up to a loose guard: iteration is never
    renormalized, so a small measured drift is legal and observable via
    :attr:`drift`.
    """

    x: float
    u: float
    y: float
    v: float

    def __post_init__(self) -> None:
        for name in ("x", "u", "y", "v"):
            c = float(getattr(self, name))
            if not c >= -COORD_CLAMP:
                raise ValueError(
                    f"coordinate {name}={c!r} is NaN or negative beyond round-off"
                )
            # <= rather than <, so that -0.0 is stored as 0.0 too
            object.__setattr__(self, name, 0.0 if c <= 0.0 else c)
        total = self.x + self.u + self.y + self.v
        if abs(total - 1.0) > SUM_GUARD:
            raise ValueError(f"coordinates sum to {total!r}, not 1")

    @classmethod
    def from_array(cls, a) -> "SimplexPoint":
        """The point whose coordinates are the four entries of ``a``, of
        shape (4,); any other shape raises ValueError."""
        shape = np.shape(a)
        if shape != (4,):
            raise ValueError(f"a simplex point takes shape (4,), got {shape}")
        return cls(float(a[0]), float(a[1]), float(a[2]), float(a[3]))

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.u, self.y, self.v])

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x, self.u, self.y, self.v)

    @property
    def drift(self) -> float:
        """Signed deviation of the coordinate sum from 1."""
        return (self.x + self.u + self.y + self.v) - 1.0


def force_of_infection(s: SimplexPoint, p: ModelParams) -> float:
    """Infection pressure A = k1*u + k2*v felt by one susceptible."""
    return p.k1 * s.u + p.k2 * s.v


def _step(x, u, y, v, b, al, b1, b2, k1, k2):
    """One application of the evolution operator, elementwise.

    Takes floats or equal-shape numpy arrays (one entry per row of a batch);
    both give the same bits for the same inputs.  The three flows between
    classes (``b1*A*x``, ``al*u``, ``b2*A*y``) are computed once, and each
    output keeps the left-to-right operation order of its formula in the
    module docstring.
    """
    A = k1 * u + k2 * v
    infect1 = b1 * A * x
    recover = al * u
    infect2 = b2 * A * y
    return (
        x + b - b * x - infect1,
        u - b * u + infect1 - recover,
        y - b * y + recover - infect2,
        v - b * v + infect2,
    )


def apply_V(s: SimplexPoint, p: ModelParams) -> SimplexPoint:
    """One step of the evolution operator.

    Requires admissible rates; otherwise the image may leave the simplex.
    """
    require_admissible(p)
    return SimplexPoint(*_step(*s.as_tuple(), *p.as_tuple()))


@dataclass(frozen=True)
class Trajectory:
    """An iterate sequence: row n of :attr:`states` is the n-th iterate."""

    states: np.ndarray  # shape (n+1, 4)
    params: ModelParams

    def __len__(self) -> int:
        return self.states.shape[0]

    def __getitem__(self, n: int) -> SimplexPoint:
        return SimplexPoint.from_array(self.states[n])

    @property
    def final(self) -> SimplexPoint:
        return SimplexPoint.from_array(self.states[-1])

    def max_drift(self) -> float:
        """Largest |coordinate sum - 1| along the trajectory."""
        return float(np.max(np.abs(self.states.sum(axis=1) - 1.0)))


def iterate(s0: SimplexPoint, p: ModelParams, n: int) -> Trajectory:
    """Iterate the operator ``n`` times from ``s0`` (no renormalization).

    Returns the full sequence of n+1 states starting at ``s0``.  ``n`` must
    be an integer >= 0.
    """
    _require_count("n", n, 0)
    require_admissible(p)
    b, al, b1, b2, k1, k2 = p.as_tuple()
    x, u, y, v = state = s0.as_tuple()
    states = [state]
    for _ in range(n):
        x, u, y, v = state = _step(x, u, y, v, b, al, b1, b2, k1, k2)
        states.append(state)
    return Trajectory(np.array(states), p)

"""One-dimensional reduction of the no-recovery regime (alpha = k2 = 0).

In that regime the recovered and twice-infected fractions die out and the
action on the susceptible/infected pair (x, u) closes on itself:

    W:  x' = x + b - b*x - B*u*x      u' = u - b*u + B*u*x

with B = beta1*k1.  Dividing by the common factor x + u + b - b*(x + u)
normalizes the pair back onto x + u = 1, and on that line the x-coordinate
obeys the quadratic map

    f(x) = b + (1 - b - B)*x + B*x^2

which is topologically conjugate to the logistic family
F_mu(x) = mu*x*(1 - x) with mu = B - b + 1 through the affine change of
coordinates h(x) = ((b - B - 1)/B)*x + 1.  For b < B <= 2 the logistic
parameter lies in (1, 3), the window where every interior orbit converges
to the attracting fixed point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from sisi.model import ModelParams, _require_count
from sisi.stability import BOUNDARY_TOL

__all__ = [
    "WrongRegime",
    "DegenerateInput",
    "QuadraticMap1D",
    "ConjugacyMap",
    "FixedPoint1D",
    "edge_map",
    "normalized_edge_map",
    "logistic",
    "conjugacy_map",
    "verify_conjugacy",
    "classify_1d_fixed_points",
]


class WrongRegime(ValueError):
    """Operation requires the no-recovery regime alpha = k2 = 0."""


class DegenerateInput(ValueError):
    """Input outside the domain of the normalized pair map."""


def _require_edge_regime(p: ModelParams) -> None:
    off = [f"{name}={rate!r}" for name, rate in (("alpha", p.alpha), ("k2", p.k2))
           if rate != 0.0]
    if off:
        raise WrongRegime(f"requires alpha = k2 = 0, got {', '.join(off)}")


def edge_map(x: float, u: float, p: ModelParams) -> tuple[float, float]:
    """Restriction of the evolution operator to the (x, u) pair.

    Matches the first two components of the full operator at (x, u, 0, 0).
    """
    _require_edge_regime(p)
    if x < 0.0 or u < 0.0:
        raise DegenerateInput("x and u must be non-negative")
    b = p.b
    B = p.beta1 * p.k1
    return (x + b - b * x - B * u * x, u - b * u + B * u * x)


def normalized_edge_map(x: float, u: float, p: ModelParams) -> tuple[float, float]:
    """Pair map rescaled so the output satisfies x' + u' = 1 exactly.

    The divisor x + u + b - b*(x + u) is the component sum of the raw pair
    map, so normalization changes nothing on the line x + u = 1 and the
    two maps share their dynamics.
    """
    xw, uw = edge_map(x, u, p)
    denom = x + u + p.b - p.b * (x + u)
    if denom <= 0.0:
        raise DegenerateInput(f"normalization divisor {denom!r} is not positive")
    return (xw / denom, uw / denom)


def logistic(mu: float, x):
    """The logistic family F_mu(x) = mu*x*(1 - x)."""
    return mu * x * (1.0 - x)


@dataclass(frozen=True)
class QuadraticMap1D:
    """f(x) = b + (1 - b - B)*x + B*x^2, the x-dynamics on x + u = 1.

    Fixed points: 1 (always) and b/B (for B > 0); note f(1) = 1 exactly in
    the coefficient algebra.
    """

    b: float
    bk: float  # B = beta1*k1

    @classmethod
    def from_params(cls, p: ModelParams) -> "QuadraticMap1D":
        """The map of rates in the no-recovery regime; WrongRegime elsewhere."""
        _require_edge_regime(p)
        return cls(p.b, p.beta1 * p.k1)

    @property
    def coefficients(self) -> tuple[float, float, float]:
        """(constant, linear, quadratic) coefficients."""
        return (self.b, 1.0 - self.b - self.bk, self.bk)

    def __call__(self, x):
        return self.b + (1.0 - self.b - self.bk) * x + self.bk * x * x

    def derivative(self, x):
        return 1.0 - self.b - self.bk + 2.0 * self.bk * x

    @property
    def fixed_points(self) -> tuple[float, float]:
        if self.bk <= 0.0:
            raise WrongRegime("the second fixed point b/B needs B > 0")
        return (1.0, self.b / self.bk)


@dataclass(frozen=True)
class ConjugacyMap:
    """Affine h with h(F_mu(x)) = f(h(x)) identically.

    ``root_choice`` records which root q of B*q^2 - (b + B)*q + b = 0 fixes
    the intercept: the canonical choice q = 1 gives mu = B - b + 1; the
    alternative q = b/B (exploratory only) gives mu = 1 + b - B.
    """

    mu: float
    slope: float
    intercept: float
    root_choice: str

    def __call__(self, x):
        return self.slope * x + self.intercept

    @property
    def in_logistic_window(self) -> bool:
        """True when mu sits in the monotone-convergence window (1, 3)."""
        return 1.0 < self.mu < 3.0


def conjugacy_map(p: ModelParams, root: str = "one") -> ConjugacyMap:
    """The affine conjugacy between the logistic family and the x-dynamics,
    for rates in the no-recovery regime with beta1*k1 > 0; WrongRegime
    elsewhere."""
    _require_edge_regime(p)
    b = p.b
    B = p.beta1 * p.k1
    if B <= 0.0:
        raise WrongRegime("conjugacy requires beta1*k1 > 0")
    if root == "one":
        q = 1.0
        mu = B - b + 1.0
    elif root == "interior":
        q = b / B
        mu = 1.0 + b - B
    else:
        raise ValueError(f"root must be 'one' or 'interior', got {root!r}")
    slope = -mu / B
    return ConjugacyMap(mu=mu, slope=slope, intercept=q, root_choice=root)


def verify_conjugacy(p: ModelParams, grid_size: int = 10_000,
                     root: str = "one") -> float:
    """Sup-norm of h(F_mu(x)) - f(h(x)) over a uniform grid on [0, 1].

    The identity is polynomial in the rates, so the returned value is pure
    round-off (<= 1e-12) whenever the implementation is correct.
    ``grid_size`` must be an integer >= 1.
    """
    grid_size = _require_count("grid_size", grid_size, 1)
    h = conjugacy_map(p, root)
    f = QuadraticMap1D.from_params(p)
    xs = np.linspace(0.0, 1.0, grid_size)
    lhs = h(logistic(h.mu, xs))
    rhs = f(h(xs))
    return float(np.max(np.abs(lhs - rhs)))


@dataclass(frozen=True)
class FixedPoint1D:
    location: float
    derivative: float
    label: str  # "attracting" | "repelling" | "nonhyperbolic"


def classify_1d_fixed_points(p: ModelParams) -> tuple[FixedPoint1D, FixedPoint1D]:
    """Stability of the two fixed points of the x-dynamics.

    f'(1) = 1 - b + B and f'(b/B) = 1 + b - B, so for B > b the point 1
    repels and b/B attracts; at B = b the two coincide and are
    nonhyperbolic.
    """
    f = QuadraticMap1D.from_params(p)
    out = []
    for loc in f.fixed_points:
        d = f.derivative(loc)
        if abs(abs(d) - 1.0) <= BOUNDARY_TOL:
            label = "nonhyperbolic"
        elif abs(d) < 1.0:
            label = "attracting"
        else:
            label = "repelling"
        out.append(FixedPoint1D(loc, d, label))
    return (out[0], out[1])

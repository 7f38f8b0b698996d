"""Independent upper half-plane oracle.

One hyperbolic plane, scalar formulas only.  The half-space geometry
factors through two copies of this plane, so every factor-decomposed result
in the package can be cross-checked against these routines, which share no
code with the factor geometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainViolation
from .numkit import DEFAULT_TOL

__all__ = [
    "HalfPlanePoint",
    "mobius",
    "pair_lambda",
    "hyp_distance",
]


@dataclass(frozen=True)
class HalfPlanePoint:
    """Point x + iy of the upper half plane, y > 0."""

    x: float
    y: float

    def __post_init__(self) -> None:
        x, y = float(self.x), float(self.y)
        if not (math.isfinite(x) and math.isfinite(y) and y > DEFAULT_TOL.dom_eps):
            raise DomainViolation(f"({x!r}, {y!r}) is not in the upper half plane")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def as_complex(self) -> complex:
        return complex(self.x, self.y)


#: A real 2x2 matrix [[a, b], [c, d]] as the tuple (a, b, c, d).
Matrix2 = tuple[float, float, float, float]


def mobius(m: Matrix2, z: HalfPlanePoint) -> HalfPlanePoint:
    """Linear fractional action (a z + b) / (c z + d) of m = (a, b, c, d)."""
    a, b, c, d = m
    w = (a * z.as_complex() + b) / (c * z.as_complex() + d)
    return HalfPlanePoint(w.real, w.imag)


def _lambda_minus_one(z1: HalfPlanePoint, z2: HalfPlanePoint) -> float:
    """lambda - 1 = q/2 + sqrt(q) sqrt(1 + q/4) for the pair dilation lambda and
    q = ((x1 - x2)^2 + (y1 - y2)^2) / (y1 y2) = lambda + 1/lambda - 2, which
    is >= 0: no cancellation for near pairs."""
    q = ((z1.x - z2.x) ** 2 + (z1.y - z2.y) ** 2) / (z1.y * z2.y)
    return q / 2.0 + math.sqrt(q) * math.sqrt(1.0 + q / 4.0)


def pair_lambda(z1: HalfPlanePoint, z2: HalfPlanePoint) -> float:
    """The dilation >= 1 carrying (z1, z2) to (i, lambda*i) along a common motion."""
    return 1.0 + _lambda_minus_one(z1, z2)


def hyp_distance(z1: HalfPlanePoint, z2: HalfPlanePoint) -> float:
    """Hyperbolic distance, the log of the pair dilation, as log1p(lambda - 1)."""
    return math.log1p(_lambda_minus_one(z1, z2))

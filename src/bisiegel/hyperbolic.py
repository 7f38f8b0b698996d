"""Independent upper half-plane oracle.

One hyperbolic plane, scalar formulas only.  The half-space geometry
factors through two copies of this plane, so every factor-decomposed result
in the package can be cross-checked against these routines, which share no
code with the matrix side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainViolation, NonPositiveMu, ZeroParameter
from .numkit import DEFAULT_TOL

__all__ = [
    "HalfPlanePoint",
    "mobius",
    "map_to_imaginary",
    "pair_lambda",
    "hyp_distance",
    "dilation_link_residual",
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


def map_to_imaginary(z: HalfPlanePoint, mu: float, theta: float = 0.0) -> Matrix2:
    """Unimodular matrix (a, b, c, d) sending z to mu*i.

    The family of all such matrices is a dilation times a rotation about i
    times the normalizing shear of z; ``theta`` selects the rotation.
    """
    mu = float(mu)
    if not mu > 0.0:
        raise NonPositiveMu(f"mu={mu!r} must be positive")
    rmu = math.sqrt(mu)
    ct, st = math.cos(theta), math.sin(theta)
    ry = math.sqrt(z.y)
    # diag(rmu, 1/rmu) @ [[ct, st], [-st, ct]] @ [[1/ry, -x/ry], [0, ry]]
    return (
        rmu * ct / ry,
        rmu * (-ct * z.x / ry + st * ry),
        -st / (rmu * ry),
        (st * z.x / ry + ct * ry) / rmu,
    )


def pair_lambda(z1: HalfPlanePoint, z2: HalfPlanePoint) -> float:
    """The dilation >= 1 carrying (z1, z2) to (i, lambda*i) along a common motion.

    lambda + 1/lambda equals y1/y2 + y2/y1 + (x1 - x2)^2/(y1 y2), which is
    always >= 2; the root >= 1 is returned.
    """
    rhs = z1.y / z2.y + z2.y / z1.y + (z1.x - z2.x) ** 2 / (z1.y * z2.y)
    return (rhs + math.sqrt(max(rhs * rhs - 4.0, 0.0))) / 2.0


def hyp_distance(z1: HalfPlanePoint, z2: HalfPlanePoint) -> float:
    """Hyperbolic distance, the log of the pair dilation."""
    return math.log(pair_lambda(z1, z2))


def dilation_link_residual(l1: float, l2: float, mu1: float, mu2: float, lam: float) -> float:
    """Residual of the identity linking two rotation-shear routes to one matrix.

    If rot(t1) [[l1, mu1], [0, 1/l1]] equals diag(lam, 1/lam) rot(t2)
    [[l2, mu2], [0, 1/l2]] for some angles t1, t2, the dilation satisfies
    lam^2 + lam^-2 = (l2/l1)^2 + (l1/l2)^2 + (l1 mu2 - l2 mu1)^2; this
    returns |lhs - rhs| as a verification utility.
    """
    for name, v in (("l1", l1), ("l2", l2), ("lam", lam)):
        if float(v) == 0.0:
            raise ZeroParameter(f"{name} must be nonzero")
    lhs = lam * lam + 1.0 / (lam * lam)
    rhs = (l2 / l1) ** 2 + (l1 / l2) ** 2 + (l1 * mu2 - l2 * mu1) ** 2
    return abs(lhs - rhs)

"""The two models of the space and the maps between them.

A point of the half-space model is a bi-symmetric complex 2x2 matrix
``[[tau, z], [z, tau]]`` whose imaginary part is positive definite, which for
bi-symmetric matrices reads ``Im tau > |Im z|``.  The bounded (disc) model
consists of bi-symmetric ``[[z1, z2], [z2, z1]]`` with ``I - Z0 conj(Z0)``
positive definite, equivalently ``|z1 + z2| < 1`` and ``|z1 - z2| < 1``.

Points of both models are stored by their factor coordinates, the two
eigenvalues ``(tau + z, tau - z)`` and ``(z1 + z2, z1 - z2)``.  They identify
the half-space with a product of two upper half-planes and the bounded model
with a product of two unit discs, and every closed form in this package is
two copies of a one-plane (or one-disc) formula.  ``(tau, z)`` and
``(z1, z2)`` are derived from the factors, for JSON and the matrix
references in ``verify``.  The Cayley maps ``Z -> (Z - iI)(Z + iI)^-1`` and
``Z0 -> i(I + Z0)(I - Z0)^-1`` are, per factor, ``w -> (w - i)/(w + i)`` and
``u -> i(1 + u)/(1 - u)``.  The image of a valid point that falls inside the
other model's ``dom_eps`` margin is a numerical limit, not bad input.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

from .errors import DomainViolation, NumericalBreakdown
from .numkit import DEFAULT_TOL, Tolerance

__all__ = [
    "HPoint",
    "EPoint",
    "h_contains",
    "e_contains",
    "cayley_to_disc",
    "cayley_to_halfspace",
    "random_hpoint",
]


@dataclass(frozen=True, init=False, slots=True)
class HPoint:
    """Half-space point, stored by its factor coordinates (w1, w2) = (tau + z, tau - z).

    ``HPoint(tau, z)`` converts once; ``from_factors`` stores its arguments
    as given.  ``tau``, ``z`` and the JSON form are derived from the factors,
    each halved first so that no readout overflows.  Each rounds by u = 2^-53
    of the larger factor, so a JSON round trip moves the real (imaginary) part
    of a factor by at most 2u times the larger real (imaginary) part of the two.
    """

    w1: complex
    w2: complex

    tau = property(lambda self: self.w1 / 2.0 + self.w2 / 2.0)
    z = property(lambda self: self.w1 / 2.0 - self.w2 / 2.0)

    def __init__(self, tau: complex, z: complex) -> None:
        tau, z = complex(tau), complex(z)
        if not h_contains(tau, z):
            raise DomainViolation(f"(tau={tau!r}, z={z!r}) is outside the half-space model")
        object.__setattr__(self, "w1", tau + z)  # frozen: bypass __setattr__
        object.__setattr__(self, "w2", tau - z)

    @classmethod
    def from_factors(cls, w1: complex, w2: complex, tol: Tolerance = DEFAULT_TOL) -> "HPoint":
        """The point with these factor coordinates (each finite, Im w > dom_eps)."""
        return _hpoint(complex(w1), complex(w2), tol.dom_eps)

    def factors(self) -> tuple[complex, complex]:
        """Coordinates (tau + z, tau - z) in the two half-plane factors."""
        return (self.w1, self.w2)

    def to_json_dict(self) -> dict:
        tau, z = self.tau, self.z
        return {"tau": [tau.real, tau.imag], "z": [z.real, z.imag]}


@dataclass(frozen=True, init=False, slots=True)
class EPoint:
    """Bounded-model point, stored by its factor coordinates (u1, u2) = (z1 + z2, z1 - z2).

    ``EPoint(z1, z2)`` converts once; ``from_factors`` stores its arguments
    as given.  ``z1``, ``z2`` and the JSON form are derived, as for ``HPoint``.
    """

    u1: complex
    u2: complex

    z1 = property(lambda self: self.u1 / 2.0 + self.u2 / 2.0)
    z2 = property(lambda self: self.u1 / 2.0 - self.u2 / 2.0)

    def __init__(self, z1: complex, z2: complex) -> None:
        z1, z2 = complex(z1), complex(z2)
        if not e_contains(z1, z2):
            raise DomainViolation(f"(z1={z1!r}, z2={z2!r}) is outside the bounded model")
        object.__setattr__(self, "u1", z1 + z2)  # frozen: bypass __setattr__
        object.__setattr__(self, "u2", z1 - z2)

    @classmethod
    def from_factors(cls, u1: complex, u2: complex, tol: Tolerance = DEFAULT_TOL) -> "EPoint":
        """The point with these factor coordinates (each of modulus below 1 - dom_eps)."""
        return _epoint(complex(u1), complex(u2), tol.dom_eps)

    def factors(self) -> tuple[complex, complex]:
        """Coordinates (z1 + z2, z1 - z2) in the two disc factors."""
        return (self.u1, self.u2)

    def to_json_dict(self) -> dict:
        z1, z2 = self.z1, self.z2
        return {"z1": [z1.real, z1.imag], "z2": [z2.real, z2.imag]}


#: Bound once for the point builders (slot setters bypass the frozen __setattr__) and ``random_hpoint``.
_inf, _isfinite, _new = math.inf, math.isfinite, object.__new__
_set_w1, _set_w2 = HPoint.w1.__set__, HPoint.w2.__set__
_set_u1, _set_u2 = EPoint.u1.__set__, EPoint.u2.__set__
_LOG_LO, _LOG_SPAN = math.log(0.1), math.log(10.0) - math.log(0.1)


def _hpoint(w1: complex, w2: complex, dom_eps: float) -> HPoint:
    """The point with complex factors w1, w2 (finite, Im w > dom_eps): the one membership test."""
    if not (dom_eps < w1.imag < _inf and dom_eps < w2.imag < _inf
            and _isfinite(w1.real) and _isfinite(w2.real)):
        raise DomainViolation(f"factors ({w1!r}, {w2!r}) are outside the half-space model")
    point = _new(HPoint)
    _set_w1(point, w1)
    _set_w2(point, w2)
    return point


def _epoint(u1: complex, u2: complex, dom_eps: float) -> EPoint:
    """The point with complex factors u1, u2 (|u| < 1 - dom_eps, which NaN and inf are not):
    the one membership test.  A finite factor whose modulus overflows is outside too."""
    try:
        inside = abs(u1) < 1.0 - dom_eps and abs(u2) < 1.0 - dom_eps
    except OverflowError:
        inside = False
    if not inside:
        raise DomainViolation(f"factors ({u1!r}, {u2!r}) are outside the bounded model")
    point = _new(EPoint)
    _set_u1(point, u1)
    _set_u2(point, u2)
    return point


def h_contains(tau: complex, z: complex, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Half-space membership: Im tau exceeds |Im z| by more than the margin,
    that is both factors tau +- z lie above it (and are finite)."""
    tau, z = complex(tau), complex(z)
    try:
        _hpoint(tau + z, tau - z, tol.dom_eps)
    except DomainViolation:
        return False
    return True


def e_contains(z1: complex, z2: complex, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Disc-model membership: both factor coordinates strictly inside the unit disc."""
    z1, z2 = complex(z1), complex(z2)
    try:
        _epoint(z1 + z2, z1 - z2, tol.dom_eps)
    except DomainViolation:
        return False
    return True


def _image(make: Callable, f1: complex, f2: complex, tol: Tolerance):
    """Build with ``make`` the image of a valid point under a map of the space
    (a Cayley map or a motion), which can fall inside the margin: a numerical limit."""
    try:
        return make(f1, f2, tol.dom_eps)
    except DomainViolation as exc:
        raise NumericalBreakdown(f"image not resolved at the dom_eps margin: {exc}") from exc


def cayley_to_disc(point: HPoint, tol: Tolerance = DEFAULT_TOL) -> EPoint:
    """Map the half-space model onto the bounded model, (Z - iI)(Z + iI)^-1:
    (w - i)/(w + i) per factor.  No guard: for Im w > 0, |w + i| > 1."""
    w1, w2 = point.factors()
    return _image(_epoint, (w1 - 1j) / (w1 + 1j), (w2 - 1j) / (w2 + 1j), tol)


def cayley_to_halfspace(point: EPoint, tol: Tolerance = DEFAULT_TOL) -> HPoint:
    """Inverse Cayley map, i(I + Z0)(I - Z0)^-1: i(1 + u)/(1 - u) per factor.
    No guard: for |u| < 1, 1 - u is not 0; a high image is checked as a point."""
    u1, u2 = point.factors()
    return _image(_hpoint, 1j * (1.0 + u1) / (1.0 - u1), 1j * (1.0 + u2) / (1.0 - u2), tol)


def random_hpoint(rng: random.Random) -> HPoint:
    """Seeded half-space sample.

    Draw order (documented so goldens stay stable): the two factor heights
    log-uniform in [0.1, 10], then the two factor offsets uniform in [-5, 5].
    The heights are at least 0.1, so the membership test needs no margin.
    """
    y_plus = math.exp(_LOG_LO + _LOG_SPAN * rng.random())  # a + (b - a) U, as Random.uniform does
    y_minus = math.exp(_LOG_LO + _LOG_SPAN * rng.random())
    x_plus = -5.0 + 10.0 * rng.random()
    x_minus = -5.0 + 10.0 * rng.random()
    return _hpoint(complex(x_plus, y_plus), complex(x_minus, y_minus), 0.0)

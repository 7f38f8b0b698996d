"""The two models of the space and the maps between them.

A point of the half-space model is a bi-symmetric complex 2x2 matrix
``[[tau, z], [z, tau]]`` whose imaginary part is positive definite, which for
bi-symmetric matrices reads ``Im tau > |Im z|``.  The bounded (disc) model
consists of bi-symmetric ``[[z1, z2], [z2, z1]]`` with ``I - Z0 conj(Z0)``
positive definite, equivalently ``|z1 + z2| < 1`` and ``|z1 - z2| < 1``.  The
two are exchanged by the Cayley maps ``Z -> (Z - iI)(Z + iI)^-1`` and
``Z0 -> i(I + Z0)(I - Z0)^-1``.

The coordinates ``(z1 + z2, z1 - z2)`` identify the bounded model with a
product of two unit discs; most closed forms in this package are two copies
of a one-disc (or one half-plane) formula glued through that identification.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import DomainViolation
from .numkit import DEFAULT_TOL, Mat2C, Mat4R, Tolerance

__all__ = [
    "HPoint",
    "EPoint",
    "BidiscPoint",
    "h_contains",
    "e_contains",
    "cayley_to_disc",
    "cayley_to_halfspace",
    "sigma",
    "sigma_inv",
    "random_hpoint",
    "EXCHANGE_2",
    "EXCHANGE_4",
]


# Exchange involution: swaps the two coordinates; squares to the identity.
EXCHANGE_2 = Mat2C(0.0, 1.0, 1.0, 0.0)

EXCHANGE_4 = Mat4R.from_blocks(EXCHANGE_2, Mat2C.zero(), Mat2C.zero(), EXCHANGE_2)

_I2 = Mat2C.identity()
_iI2 = _I2.scale(1j)


def h_contains(tau: complex, z: complex, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Half-space membership: Im tau exceeds |Im z| by more than the margin."""
    tau, z = complex(tau), complex(z)
    if not all(map(math.isfinite, (tau.real, tau.imag, z.real, z.imag))):
        return False
    return tau.imag - abs(z.imag) > tol.dom_eps


def e_contains(z1: complex, z2: complex, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Disc-model membership: both factor coordinates strictly inside the unit disc."""
    z1, z2 = complex(z1), complex(z2)
    if not all(map(math.isfinite, (z1.real, z1.imag, z2.real, z2.imag))):
        return False
    return abs(z1 + z2) < 1.0 - tol.dom_eps and abs(z1 - z2) < 1.0 - tol.dom_eps


@dataclass(frozen=True)
class HPoint:
    """Half-space point, stored by its two complex freedoms (tau, z)."""

    tau: complex
    z: complex

    def __post_init__(self) -> None:
        tau, z = complex(self.tau), complex(self.z)
        if not h_contains(tau, z):
            raise DomainViolation(f"(tau={tau!r}, z={z!r}) is outside the half-space model")
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "z", z)

    def as_matrix(self) -> Mat2C:
        return Mat2C.bisym(self.tau, self.z)

    def imag_matrix(self) -> Mat2C:
        return Mat2C.bisym(self.tau.imag, self.z.imag)

    def factors(self) -> tuple[complex, complex]:
        """Coordinates (tau + z, tau - z) in the two half-plane factors."""
        return (self.tau + self.z, self.tau - self.z)

    @classmethod
    def from_factors(cls, plus: complex, minus: complex) -> "HPoint":
        return cls((plus + minus) / 2.0, (plus - minus) / 2.0)

    def to_json_dict(self) -> dict:
        return {"tau": [self.tau.real, self.tau.imag], "z": [self.z.real, self.z.imag]}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "HPoint":
        return cls(complex(*doc["tau"]), complex(*doc["z"]))


@dataclass(frozen=True)
class EPoint:
    """Bounded-model point, stored by its two complex freedoms (z1, z2)."""

    z1: complex
    z2: complex

    def __post_init__(self) -> None:
        z1, z2 = complex(self.z1), complex(self.z2)
        if not e_contains(z1, z2):
            raise DomainViolation(f"(z1={z1!r}, z2={z2!r}) is outside the bounded model")
        object.__setattr__(self, "z1", z1)
        object.__setattr__(self, "z2", z2)

    def as_matrix(self) -> Mat2C:
        return Mat2C.bisym(self.z1, self.z2)

    def factors(self) -> tuple[complex, complex]:
        """Coordinates (z1 + z2, z1 - z2) in the two disc factors."""
        return (self.z1 + self.z2, self.z1 - self.z2)

    @classmethod
    def from_factors(cls, plus: complex, minus: complex) -> "EPoint":
        return cls((plus + minus) / 2.0, (plus - minus) / 2.0)

    def to_json_dict(self) -> dict:
        return {"z1": [self.z1.real, self.z1.imag], "z2": [self.z2.real, self.z2.imag]}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "EPoint":
        return cls(complex(*doc["z1"]), complex(*doc["z2"]))


@dataclass(frozen=True)
class BidiscPoint:
    """A point of the product of two unit discs."""

    w1: complex
    w2: complex

    def __post_init__(self) -> None:
        w1, w2 = complex(self.w1), complex(self.w2)
        if not (abs(w1) < 1.0 and abs(w2) < 1.0):
            raise DomainViolation(f"({w1!r}, {w2!r}) is outside the bidisc")
        object.__setattr__(self, "w1", w1)
        object.__setattr__(self, "w2", w2)


def cayley_to_disc(point: HPoint, tol: Tolerance = DEFAULT_TOL) -> EPoint:
    """Map the half-space model onto the bounded model, (Z - iI)(Z + iI)^-1."""
    zm = point.as_matrix()
    w = (zm - _iI2) @ (zm + _iI2).inverse(tol)
    return EPoint((w.a + w.d) / 2.0, (w.b + w.c) / 2.0)


def cayley_to_halfspace(point: EPoint, tol: Tolerance = DEFAULT_TOL) -> HPoint:
    """Inverse Cayley map, i(I + Z0)(I - Z0)^-1."""
    zm = point.as_matrix()
    w = ((_I2 + zm) @ (_I2 - zm).inverse(tol)).scale(1j)
    return HPoint((w.a + w.d) / 2.0, (w.b + w.c) / 2.0)


def sigma(point: EPoint) -> BidiscPoint:
    """Factor coordinates of a bounded-model point: (z1 + z2, z1 - z2)."""
    plus, minus = point.factors()
    return BidiscPoint(plus, minus)


def sigma_inv(point: BidiscPoint) -> EPoint:
    """Bounded-model point with the given factor coordinates."""
    return EPoint((point.w1 + point.w2) / 2.0, (point.w1 - point.w2) / 2.0)


def random_hpoint(rng: random.Random) -> HPoint:
    """Seeded half-space sample.

    Draw order (documented so goldens stay stable): the two factor heights
    log-uniform in [0.1, 10], then the two factor offsets uniform in [-5, 5].
    """
    lo, hi = math.log(0.1), math.log(10.0)
    y_plus = math.exp(rng.uniform(lo, hi))
    y_minus = math.exp(rng.uniform(lo, hi))
    x_plus = rng.uniform(-5.0, 5.0)
    x_minus = rng.uniform(-5.0, 5.0)
    return HPoint.from_factors(complex(x_plus, y_plus), complex(x_minus, y_minus))

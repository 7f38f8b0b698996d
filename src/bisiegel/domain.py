"""The two models of the space and the maps between them.

A point of the half-space model is a bi-symmetric complex 2x2 matrix
``[[tau, z], [z, tau]]`` whose imaginary part is positive definite, which for
bi-symmetric matrices reads ``Im tau > |Im z|``.  The bounded (disc) model
consists of bi-symmetric ``[[z1, z2], [z2, z1]]`` with ``I - Z0 conj(Z0)``
positive definite, equivalently ``|z1 + z2| < 1`` and ``|z1 - z2| < 1``.

Half-space points are stored by their factor coordinates, the two eigenvalues
``(tau + z, tau - z)``, and the bounded model is read and written as its factors
``(u1, u2) = (z1 + z2, z1 - z2)``.  They identify the half-space with a product of two upper
half-planes and the bounded model with a product of two unit discs, and every closed form in this
package is two copies of a one-plane (or one-disc) formula.  ``(tau, z)`` is derived from the
factors, for JSON and the matrix references in ``verify``; the CLI owns the disc view ``(z1, z2)``.
The Cayley maps ``Z -> (Z - iI)(Z + iI)^-1`` and ``Z0 -> i(I + Z0)(I - Z0)^-1`` are, per factor,
``w -> (w - i)/(w + i)`` and ``u -> i(1 + u)/(1 - u)``.  The image of a valid point that falls
inside the other model's margin is a numerical limit, not bad input.

Each model has one membership test, in its private builder, with the one margin ``_DOM_EPS``:
``_hpoint`` tests the factors' parts as floats, which its callers hold or read once, and builds
every point (``HPoint(tau, z)``'s ``__new__`` returns that one record); ``_epoint`` tests the disc
factors' moduli and returns the factors.  Membership is asked by building the point or passing
the factors; a ``DomainViolation`` is the answer no.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import DomainViolation, NumericalBreakdown
from .numkit import _DOM_EPS, _past_float_range

__all__ = [
    "HPoint",
    "cayley_to_disc",
    "cayley_to_halfspace",
    "random_hpoint",
]


@dataclass(frozen=True, init=False, slots=True)
class HPoint:
    """Half-space point, stored by its factor coordinates (w1, w2) = (tau + z, tau - z).

    ``HPoint(tau, z)`` converts once and is the one record that ``_hpoint`` builds;
    ``from_factors`` stores its arguments as given.  ``_readout()`` gives (tau, z) from
    the factors, each halved once first so that no readout overflows; ``tau``, ``z``, the
    JSON form and ``verify`` read it.  Each rounds by u = 2^-53 of the larger factor, so a
    JSON round trip moves the real (imaginary) part of a factor by at most 2u times the
    larger real (imaginary) part of the two.
    """

    w1: complex
    w2: complex

    tau = property(lambda self: self._readout()[0])
    z = property(lambda self: self._readout()[1])

    def __new__(cls, tau: complex, z: complex) -> "HPoint":
        try:
            tau, z = complex(tau), complex(z)
        except OverflowError:
            raise _past_float_range(DomainViolation, tau=tau, z=z) from None
        w1, w2 = tau + z, tau - z
        try:
            return _hpoint(w1, w2, w1.real, w1.imag, w2.real, w2.imag)
        except DomainViolation:
            raise DomainViolation(f"(tau={tau!r}, z={z!r}) is outside the half-space model") from None

    def _readout(self) -> tuple[complex, complex]:
        """(tau, z) = (w1/2 + w2/2, w1/2 - w2/2)."""
        h1, h2 = self.w1 / 2.0, self.w2 / 2.0
        return h1 + h2, h1 - h2

    @classmethod
    def from_factors(cls, w1: complex, w2: complex) -> "HPoint":
        """The point with these factor coordinates (each finite, Im w > ``_DOM_EPS``)."""
        try:
            w1, w2 = complex(w1), complex(w2)
        except OverflowError:
            raise _past_float_range(DomainViolation, w1=w1, w2=w2) from None
        return _hpoint(w1, w2, w1.real, w1.imag, w2.real, w2.imag)

    def factors(self) -> tuple[complex, complex]:
        """Coordinates (tau + z, tau - z) in the two half-plane factors."""
        return (self.w1, self.w2)

    def to_json_dict(self) -> dict:
        tau, z = self._readout()
        return {"tau": [tau.real, tau.imag], "z": [z.real, z.imag]}


#: Bound once for the point builders (slot setters bypass the frozen __setattr__) and ``random_hpoint``.
_inf, _isfinite, _new = math.inf, math.isfinite, object.__new__
_set_w1, _set_w2 = HPoint.w1.__set__, HPoint.w2.__set__
#: Copy and pickle rebuild a point from its factors: ``__new__`` takes (tau, z).
HPoint.__reduce__ = lambda self: (HPoint.from_factors, self.factors())
_LOG_LO, _LOG_SPAN = math.log(0.1), math.log(10.0) - math.log(0.1)


def _hpoint(w1: complex, w2: complex, x1: float, y1: float, x2: float, y2: float) -> HPoint:
    """The point with factors w1 = x1 + i y1, w2 = x2 + i y2: the one membership test (each finite,
    y > ``_DOM_EPS``), on the parts, which each caller passes as the floats it holds or reads once."""
    if not (_DOM_EPS < y1 < _inf and _DOM_EPS < y2 < _inf and _isfinite(x1) and _isfinite(x2)):
        raise DomainViolation(f"factors ({w1!r}, {w2!r}) are outside the half-space model")
    point = _new(HPoint)
    _set_w1(point, w1)
    _set_w2(point, w2)
    return point


def _epoint(u1: complex, u2: complex) -> tuple[complex, complex]:
    """The disc factors u1, u2 as complex numbers, if |u| < 1 - ``_DOM_EPS`` (which NaN and inf are
    not): the one membership test.  A finite factor whose modulus overflows is outside too."""
    try:
        u1, u2 = complex(u1), complex(u2)
    except OverflowError:
        raise _past_float_range(DomainViolation, u1=u1, u2=u2) from None
    try:
        inside = abs(u1) < 1.0 - _DOM_EPS and abs(u2) < 1.0 - _DOM_EPS
    except OverflowError:
        inside = False
    if not inside:
        raise DomainViolation(f"factors ({u1!r}, {u2!r}) are outside the bounded model")
    return u1, u2


def _image_breakdown(exc: DomainViolation) -> NumericalBreakdown:
    """An image of a valid point under a map (Cayley, a motion) inside the margin: a numerical limit."""
    return NumericalBreakdown(f"image not resolved at the dom_eps margin: {exc}")


def cayley_to_disc(point: HPoint) -> tuple[complex, complex]:
    """Map the half-space model onto the bounded model, (Z - iI)(Z + iI)^-1: the disc factors
    (w - i)/(w + i) per factor.  No guard: for Im w > 0, |w + i| > 1."""
    w1, w2 = point.factors()
    try:
        return _epoint((w1 - 1j) / (w1 + 1j), (w2 - 1j) / (w2 + 1j))
    except DomainViolation as exc:
        raise _image_breakdown(exc) from exc


def cayley_to_halfspace(u1: complex, u2: complex) -> HPoint:
    """Inverse Cayley map, i(I + Z0)(I - Z0)^-1, of the disc factors u1, u2: i(1 + u)/(1 - u) per
    factor.  ``_epoint`` gates the factors first, so bad input is a ``DomainViolation``.
    No guard: for |u| < 1, 1 - u is not 0; a high image is checked as a point."""
    u1, u2 = _epoint(u1, u2)
    g1, g2 = 1j * (1.0 + u1) / (1.0 - u1), 1j * (1.0 + u2) / (1.0 - u2)
    try:
        return _hpoint(g1, g2, g1.real, g1.imag, g2.real, g2.imag)
    except DomainViolation as exc:
        raise _image_breakdown(exc) from exc


def random_hpoint(rng: random.Random) -> HPoint:
    """Seeded half-space sample.

    Draw order (documented so goldens stay stable): the two factor heights
    log-uniform in [0.1, 10], then the two factor offsets uniform in [-5, 5].
    The heights are at least 0.1, far above the membership test's margin.
    """
    y_plus = math.exp(_LOG_LO + _LOG_SPAN * rng.random())  # a + (b - a) U, as Random.uniform does
    y_minus = math.exp(_LOG_LO + _LOG_SPAN * rng.random())
    x_plus = -5.0 + 10.0 * rng.random()
    x_minus = -5.0 + 10.0 * rng.random()
    return _hpoint(complex(x_plus, y_plus), complex(x_minus, y_minus), x_plus, y_plus, x_minus, y_minus)

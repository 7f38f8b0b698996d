"""Metric structure: cross-ratio eigenvalues, invariant metric, distance,
geodesics, volume density.

The invariant metric is tr(Y^-1 dZ Y^-1 d(conj Z)) at Z = X + iY.  In the
factor coordinates (tau + z, tau - z) it splits into two half-plane metrics
|dw|^2 / (Im w)^2, and every closed form below is computed per factor from
one quantity, the chord s = |w - w'| / (2 sqrt(y y')) = sinh(d/2) of the
half-plane distance d: the distance is the root-sum-square of the two
2 asinh(s), the matrix cross ratio has the eigenvalues tanh^2(d/2), and a
geodesic is a pair of half-plane geodesics traversed with a common arc-length
parameter.  The matrix cross ratio itself is computed only by the literal
reference in ``verify``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from math import expm1, inf

from .domain import HPoint, _hpoint, _new
from .errors import DegeneratePair, DomainViolation, NumericalBreakdown, OutOfRange
from .numkit import DEFAULT_TOL, Tolerance

__all__ = [
    "Tangent",
    "GeodesicSpec",
    "cross_ratio_eigenvalues",
    "metric_form",
    "distance",
    "distance_params",
    "connect",
    "geodesic",
    "volume_density",
]


@dataclass(frozen=True, slots=True)
class Tangent:
    """Bi-symmetric displacement (dtau, dz) at a half-space point."""

    dtau: complex
    dz: complex

    def __post_init__(self) -> None:
        dtau, dz = complex(self.dtau), complex(self.dz)
        for v in (dtau, dz):
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise DomainViolation(f"non-finite tangent component {v!r}")
        object.__setattr__(self, "dtau", dtau)
        object.__setattr__(self, "dz", dz)

    def factors(self) -> tuple[complex, complex]:
        return (self.dtau + self.dz, self.dtau - self.dz)


def _chord(w1: complex, w2: complex) -> float:
    """sinh(d/2) for the half-plane distance d between two factor coordinates.

    |w1 - w2| / (2 sqrt(y1 y2)) (Beardon, The Geometry of Discrete Groups,
    1983, 7.2): no cancellation for near pairs; inf past the float range.  Where
    |w1 - w2| overflows though w1 - w2 does not, the chord is |w1/2 - w2/2| / sqrt(y1 y2).
    """
    try:
        return abs(w1 - w2) / (2.0 * math.sqrt(w1.imag) * math.sqrt(w2.imag))
    except OverflowError:
        return abs(w1 / 2.0 - w2 / 2.0) / (math.sqrt(w1.imag) * math.sqrt(w2.imag))


def _half_distance(w1: complex, w2: complex) -> float:
    """d/2 = asinh(s) for the chord s; where s overflows, log(2 s) in logs, from |w1/4 - w2/4|."""
    s = _chord(w1, w2)
    if s < math.inf:
        return math.asinh(s)
    return math.log(abs(w1 / 4.0 - w2 / 4.0)) + math.log(2.0) + math.log(4.0 / (w1.imag * w2.imag)) / 2.0


def _chords(z1: HPoint, z2: HPoint) -> tuple[float, float]:
    return _chord(z1.w1, z2.w1), _chord(z1.w2, z2.w2)


def _tanh_sq(s: float) -> float:
    """|w - w1|^2 / |w - conj w1|^2 = tanh^2(d/2) from the chord s = sinh(d/2)."""
    return (s / math.hypot(1.0, s)) ** 2 if s < math.inf else 1.0


def cross_ratio_eigenvalues(z: HPoint, z1: HPoint) -> tuple[float, float]:
    """Eigenvalues, descending, of the matrix cross ratio (Z-Z1)(Z-conj Z1)^-1
    (conj Z-conj Z1)(conj Z-Z1)^-1: the per-factor tanh^2(d/2), which lie in
    [0, 1) and classify the pair up to a motion."""
    a, b = _tanh_sq(_chord(z.w1, z1.w1)), _tanh_sq(_chord(z.w2, z1.w2))
    return (b, a) if b > a else (a, b)


def metric_form(point: HPoint, d: Tangent) -> float:
    """Squared length tr(Y^-1 dZ Y^-1 d(conj Z)) of a tangent displacement,
    summed over the factors as |dw|^2 / (Im w)^2."""
    h = math.hypot(*(abs(dw) / w.imag for w, dw in zip(point.factors(), d.factors())))
    return h * h


def distance_params(z1: HPoint, z2: HPoint) -> tuple[float, ...]:
    """The two per-factor ratios 2 cosh d = 2 + 4 sinh^2(d/2) (each >= 2)."""
    out = tuple(2.0 + 4.0 * s * s for s in _chords(z1, z2))
    if not max(out) < math.inf:
        raise NumericalBreakdown(f"2 cosh d overflows: {out!r}")
    return out


def distance(z1: HPoint, z2: HPoint) -> float:
    """Invariant distance: root-sum-square of the two factor distances."""
    return math.hypot(2.0 * _half_distance(z1.w1, z2.w1), 2.0 * _half_distance(z1.w2, z2.w2))


def _legs(f1: complex, f2: complex) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Constants of the half-plane geodesic between f1 and f2, one tuple from
    each end: (x, y, dx, v, d, -2d, expm1(-2d), e^{d/2}) for the start x + iy,
    the offset dx and height v of the other end, and the length d = 2 asinh(s),
    with e^{d/2} = s + sqrt(1 + s^2) for the chord s."""
    s = _chord(f1, f2)
    d, m = 2.0 * math.asinh(s), s + math.hypot(1.0, s)
    if m == math.inf:
        raise NumericalBreakdown(f"e^(d/2) overflows for the factor chord {s!r}")
    shared = (d, -2.0 * d, expm1(-2.0 * d), m)
    return ((f1.real, f1.imag, f2.real - f1.real, f2.imag) + shared,
            (f2.real, f2.imag, f1.real - f2.real, f1.imag) + shared)


def _leg_point(leg: tuple[float, ...], t: float) -> complex:
    """Point at fraction t <= 1/2 of a half-plane geodesic leg.

    With sig(t) = sinh(dt) / sinh(d) the point is x + y (dx sig(t) + i v) /
    (y sig(t) + v sig(1 - t)).  Numerator and denominator are scaled by
    e^{dt} = (e^{d/2})^{2t}, which keeps a = e^{dt} sig(1 - t) in [1/2, 1],
    b = e^{dt} sig(t) in [0, 1] and e^{dt} / (a + b y / v) below 2 e^{d/2}:
    only r = b y / v can overflow, and only where y / v itself does.  There
    the same point is taken as (b / v, c) / (a / y + b / v), which stays in
    range for heights above dom_eps.
    """
    x, y, dx, v, d, n, em, m = leg
    if dx == 0.0:
        # A vertical leg is y^(1-t) v^t, with fewer roundings.
        return complex(x, y ** (1.0 - t) * v**t)
    if d < 1e-16:
        # The t-dependence of a and b beyond 1 - t and t is below rounding
        # (and d = 0 would divide by expm1(0) = 0).
        a, b, c = 1.0 - t, t, 1.0
    else:
        # n = -2d, as -2.0 * d * (1 - t) evaluates it.
        a = expm1(n * (1.0 - t)) / em
        b = m ** (4.0 * t - 2.0) * expm1(n * t) / em
        c = m ** (2.0 * t)
    r = b * y / v
    if r == inf:
        q = b / v
        k = a / y + q
        return complex(x + dx * (q / k), c / k)
    k = a + r
    return complex(x + dx * (r / k), y * (c / k))


@dataclass(frozen=True, init=False, slots=True)
class GeodesicSpec:
    """Endpoint data of a geodesic segment: points, length, factor distances.

    ``connect`` is its only builder; it takes ``d1``, ``d2`` from the legs.
    """

    z1: HPoint
    z2: HPoint
    s0: float
    d1: float
    d2: float
    _legs: tuple = field(repr=False, compare=False)

    def _factors(self, s: float) -> tuple[complex, complex]:
        """Factors (w1, w2) of ``line_point(s)``, unchecked: each moves the fraction t = s / s0."""
        t = s / self.s0
        # Forward legs (from z1) serve t <= 1/2, backward legs (from z2) the rest.
        fwd1, bwd1, fwd2, bwd2 = self._legs
        if t <= 0.5:
            return _leg_point(fwd1, t), _leg_point(fwd2, t)
        return _leg_point(bwd1, 1.0 - t), _leg_point(bwd2, 1.0 - t)

    def line_point(self, s: float, tol: Tolerance = DEFAULT_TOL) -> HPoint:
        """Point on the full geodesic line at arc length s from the first
        endpoint (s may leave [0, s0]; the segment endpoints are at 0 and s0),
        a point above the ``tol.dom_eps`` margin.

        A point inside the margin is bad input on the segment (an end is inside it) and a
        breakdown off it, as is a leg denominator that vanishes on a wide pair.
        """
        try:
            w1, w2 = self._factors(s)
            return _hpoint(w1, w2, tol.dom_eps)
        except (ZeroDivisionError, DomainViolation) as exc:
            if 0.0 <= s / self.s0 <= 1.0 and isinstance(exc, DomainViolation):
                raise
            raise NumericalBreakdown(f"point at s={s!r} of s0={self.s0!r} not resolved: {exc}") from exc

    def point(self, s: float, tol: Tolerance = DEFAULT_TOL) -> HPoint:
        """Point at arc length s of the segment: s within ``tol.abs_eps`` of
        [0, s0], the point above the ``tol.dom_eps`` margin.  ``line_point``'s
        two steps, inline (the hottest call); on a failure ``line_point`` raises."""
        if not (-tol.abs_eps <= s <= self.s0 + tol.abs_eps):
            raise OutOfRange(f"arc length s={s!r} outside [0, {self.s0!r}]")
        try:
            w1, w2 = self._factors(s)
            return _hpoint(w1, w2, tol.dom_eps)
        except (ZeroDivisionError, DomainViolation):
            pass
        return self.line_point(s, tol)  # fails the same way, outside the handler: no chained error


#: Slot setters, bound once for ``connect``.
_set_z1, _set_z2, _set_s0, _set_d1, _set_d2, _set_legs = (
    getattr(GeodesicSpec, name).__set__ for name in ("z1", "z2", "s0", "d1", "d2", "_legs"))


def connect(z1: HPoint, z2: HPoint, tol: Tolerance = DEFAULT_TOL) -> GeodesicSpec:
    """Geodesic segment data for a pair of distinct points: each factor chord
    is taken once."""
    legs = _legs(z1.w1, z2.w1) + _legs(z1.w2, z2.w2)
    d1, d2 = legs[0][4], legs[2][4]
    s0 = math.hypot(d1, d2)
    if s0 < tol.dom_eps:
        raise DegeneratePair("geodesic through coincident points is undetermined")
    spec = _new(GeodesicSpec)
    _set_z1(spec, z1)
    _set_z2(spec, z2)
    _set_s0(spec, s0)
    _set_d1(spec, d1)
    _set_d2(spec, d2)
    _set_legs(spec, legs)
    return spec


def geodesic(z1: HPoint, z2: HPoint, s: float, tol: Tolerance = DEFAULT_TOL) -> HPoint:
    """Point at arc length s on the geodesic segment from z1 to z2."""
    return connect(z1, z2, tol).point(s, tol)


def volume_density(point: HPoint) -> float:
    """Invariant volume density against dx1 dx2 dy1 dy2 at the point.

    Equal to 4 / ((y1 + y2)^2 (y1 - y2)^2) for y1 = Im tau, y2 = Im z; taken as
    (2 / (h1 h2))^2 for the factor heights h1, h2, squared last so that it leaves
    the float range only where the density itself does.
    """
    h1, h2 = point.w1.imag, point.w2.imag
    try:
        density = (2.0 / (h1 * h2)) ** 2
    except (OverflowError, ZeroDivisionError):  # heights far below the default margin
        density = math.inf
    if not 0.0 < density < math.inf:
        raise NumericalBreakdown(f"volume density at factor heights {h1!r}, {h2!r} leaves the float range")
    return density

"""Metric structure: cross-ratio eigenvalues, invariant metric, distance, geodesics, volume density.

The invariant metric is tr(Y^-1 dZ Y^-1 d(conj Z)) at Z = X + iY.  In the factor coordinates
(tau + z, tau - z) it splits into two half-plane metrics |dw|^2 / (Im w)^2, and every closed form
below is computed per factor from one quantity, the chord s = |w - w'| / (2 sqrt(y y')) = sinh(d/2)
of the half-plane distance d: the distance is the root-sum-square of the two 2 asinh(s), the
matrix cross ratio has the eigenvalues tanh^2(d/2), and a geodesic is a pair of half-plane
geodesics at a common arc-length parameter.  ``GeodesicSpec`` holds the length and leg constants;
``_leg_points`` takes both factors' points from the sinh form of their legs in one pass, and
``point``, the record's one reader, builds the point from those floats (``verify`` reads them
unchecked, through ``_factors``).  The matrix cross ratio itself is computed only by the literal
reference in ``verify``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from math import exp, expm1, inf, sinh

from .domain import HPoint, _hpoint, _new
from .errors import DegeneratePair, DomainViolation, NumericalBreakdown, OutOfRange
from .numkit import _ABS_EPS, _DOM_EPS

__all__ = [
    "GeodesicSpec",
    "cross_ratio_eigenvalues",
    "metric_form",
    "distance",
    "distance_params",
    "connect",
    "volume_density",
]


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


def _tanh_sq(s: float) -> float:
    """|w - w1|^2 / |w - conj w1|^2 = tanh^2(d/2) from the chord s = sinh(d/2), squared as one product."""
    t = s / math.hypot(1.0, s)
    return t * t if s < math.inf else 1.0


def cross_ratio_eigenvalues(z: HPoint, z1: HPoint) -> tuple[float, float]:
    """Eigenvalues, descending, of the matrix cross ratio (Z-Z1)(Z-conj Z1)^-1
    (conj Z-conj Z1)(conj Z-Z1)^-1: the per-factor tanh^2(d/2), which lie in
    [0, 1].  They classify the pair up to a motion only while tanh^2(d/2) < 1: a
    far factor pair rounds to 1.0."""
    a, b = _tanh_sq(_chord(z.w1, z1.w1)), _tanh_sq(_chord(z.w2, z1.w2))
    return (b, a) if b > a else (a, b)


def metric_form(point: HPoint, dtau: complex, dz: complex) -> float:
    """Squared length tr(Y^-1 dZ Y^-1 d(conj Z)) of dZ = [[dtau, dz], [dz, dtau]], summed over the
    factors as |dw|^2 / (Im w)^2, dw = dtau +- dz.  The tangent's one gate runs only where that is
    not finite: a component that is not finite, or is past the float range as an int can be, is a
    ``DomainViolation`` naming it, an overflow of the form a ``NumericalBreakdown``."""
    h1, h2 = point.w1.imag, point.w2.imag
    try:
        h = math.hypot(abs(dtau + dz) / h1, abs(dtau - dz) / h2)
    except OverflowError:  # |dw| past the float range
        h = inf
    if not h * h < inf:  # `not <` rejects NaN
        for name, v in (("dtau", dtau), ("dz", dz)):
            try:
                v = complex(v)
            except OverflowError:  # a number past the float range, as an int can be
                raise DomainViolation(f"tangent component {name} is past the float range") from None
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise DomainViolation(f"non-finite tangent component {v!r}")
        raise NumericalBreakdown(f"metric form of ({dtau!r}, {dz!r}) at heights {h1!r}, {h2!r} leaves the float range")
    return h * h


def distance_params(z1: HPoint, z2: HPoint) -> tuple[float, ...]:
    """The two per-factor ratios 2 cosh d = 2 + 4 sinh^2(d/2) (each >= 2)."""
    out = tuple(2.0 + 4.0 * s * s for s in (_chord(z1.w1, z2.w1), _chord(z1.w2, z2.w2)))
    if not max(out) < math.inf:
        raise NumericalBreakdown(f"2 cosh d overflows: {out!r}")
    return out


def distance(z1: HPoint, z2: HPoint) -> float:
    """Invariant distance: root-sum-square of the two factor distances."""
    return math.hypot(2.0 * _half_distance(z1.w1, z2.w1), 2.0 * _half_distance(z1.w2, z2.w2))


def _legs(f1: complex, f2: complex) -> tuple[float, tuple[float, ...], tuple[float, ...]]:
    """The length d = 2 asinh(s) of the half-plane geodesic from f1 to f2 (chord s) and its leg
    constants from each end: (x, y, dx, yn, vn, vs, d) for the start x + iy, the other end's
    offset dx and height v, the heights over h = max(y, v), and vs = vn sinh(d); where sinh(d)
    overflows (d >= 710), h = 1 and vs = inf.  A chord that underflows to 0 (ends within
    rounding) gives the legs the least positive length, which keeps each at its own end."""
    s = _chord(f1, f2)
    d = 2.0 * math.asinh(s)
    x1, y1, x2, y2 = f1.real, f1.imag, f2.real, f2.imag
    dl = d or 5e-324
    if dl < 710.0:
        h, sd = max(y1, y2), sinh(dl)
    elif d / 2.0 <= 709.782712893384:  # the log of the largest float
        h, sd = 1.0, inf
    else:
        raise NumericalBreakdown(f"e^(d/2) overflows for the factor chord {s!r}")
    yn, vn = y1 / h, y2 / h
    return d, (x1, y1, x2 - x1, yn, vn, vn * sd, dl), (x2, y2, x1 - x2, vn, yn, yn * sd, dl)


def _leg_points(legs: tuple, t: float) -> tuple[float, float, float, float]:
    """Parts (x1, y1, x2, y2) of both factors' points at fraction t, unchecked: the forward
    legs (from z1) serve t <= 1/2, the backward legs (from z2) the rest at 1 - t.  With
    sig(t) = sinh(dt) / sinh(d) a leg's point is x + y (dx sig(t) + i v) / (y sig(t) + v sig(1 - t)),
    here times sinh(d) / h: x + dx ys / k with ys / k in [0, 1], and height y vs / k with
    vs / k <= sinh(d) / sinh(d/2).  No term overflows for heights above ``_DOM_EPS`` or cancels
    as d -> 0, and a vertical leg needs no case of its own.  The form is written once per
    factor.  A factor whose sinh(d) overflows takes it times e^{dt} instead (``_scaled_leg_point``,
    its ``vn`` is v itself): a = e^{dt} sig(1 - t) ~ 1, c = e^{dt}, and r = e^{dt} sig(t) y / v from
    one exponential, so no subnormal factor enters; where r overflows with y / v, the point is
    (q, c) / (a / y + q), q = r / y."""
    if t <= 0.5:
        leg = legs[0]
    else:
        leg, t = legs[1], 1.0 - t
    x1, y1, dx1, yn1, vn1, vs1, d1, x2, y2, dx2, yn2, vn2, vs2, d2 = leg
    if vs1 < inf:
        ys1 = yn1 * sinh(dt1 := d1 * t)
        k1 = ys1 + vn1 * sinh(d1 - dt1)
        x1, y1 = x1 + dx1 * (ys1 / k1), y1 * (vs1 / k1)
    else:
        x1, y1 = _scaled_leg_point(x1, y1, dx1, vn1, d1, t)
    if vs2 < inf:
        ys2 = yn2 * sinh(dt2 := d2 * t)
        k2 = ys2 + vn2 * sinh(d2 - dt2)
        x2, y2 = x2 + dx2 * (ys2 / k2), y2 * (vs2 / k2)
    else:
        x2, y2 = _scaled_leg_point(x2, y2, dx2, vn2, d2, t)
    return x1, y1, x2, y2


def _scaled_leg_point(x: float, y: float, dx: float, v: float, d: float, t: float) -> tuple[float, float]:
    """Parts of the point at fraction t <= 1/2 of a leg whose sinh(d) overflows (``_leg_points``)."""
    a, f, c = -expm1(-2.0 * d * (1.0 - t)), -expm1(-2.0 * d * t), exp(d * t)
    r = exp(d * (2.0 * t - 1.0) + math.log(y)) * f / v
    if r < inf:
        return x + dx * (r / (a + r)), y * (c / (a + r))
    q = exp(d * (2.0 * t - 1.0)) * f / v
    return x + dx * (q / (a / y + q)), c / (a / y + q)


@dataclass(frozen=True, init=False, slots=True)
class GeodesicSpec:
    """A geodesic segment: its length and its legs' constants, forward and backward, each
    of both factors, which hold both ends, so two specs are equal only for the same segment.

    ``connect`` is its only builder (calling the class is a ``TypeError``) and ``point``
    its one reader.
    """

    s0: float
    _legs: tuple = field(repr=False)

    def __init__(self, *args, **kwargs) -> None:
        raise TypeError("GeodesicSpec has no constructor: connect(z1, z2) builds one")

    def _factors(self, s: float) -> tuple[complex, complex]:
        """Factors (w1, w2) of ``point(s)``, unchecked: each moves the fraction t = s / s0."""
        x1, y1, x2, y2 = _leg_points(self._legs, s / self.s0)
        return complex(x1, y1), complex(x2, y2)

    def point(self, s: float) -> HPoint:
        """Point at arc length s of the segment: s within ``_ABS_EPS`` of [0, s0].

        Both ends lie above the ``_DOM_EPS`` margin, and the height along a half-plane
        geodesic has no interior minimum, so the exact segment does too: a point that is
        not resolved above it, or a leg denominator that vanishes, is a numerical breakdown.
        """
        if not (-_ABS_EPS <= s <= self.s0 + _ABS_EPS):
            raise OutOfRange(f"arc length s={s!r} outside [0, {self.s0!r}]")
        try:
            x1, y1, x2, y2 = _leg_points(self._legs, s / self.s0)
            return _hpoint(complex(x1, y1), complex(x2, y2), x1, y1, x2, y2)
        except (ZeroDivisionError, DomainViolation) as exc:
            raise NumericalBreakdown(f"point at s={s!r} of s0={self.s0!r} not resolved: {exc}") from exc


#: Slot setters, bound once for ``connect``.
_set_s0, _set_legs = GeodesicSpec.s0.__set__, GeodesicSpec._legs.__set__


def connect(z1: HPoint, z2: HPoint) -> GeodesicSpec:
    """Geodesic segment data for two points at least ``_DOM_EPS`` apart: each factor
    chord is taken once.  A shorter segment is refused as coincident, since its points
    round at u |w| in the coordinates, which can exceed its length many times over."""
    (d1, fwd1, bwd1), (d2, fwd2, bwd2) = _legs(z1.w1, z2.w1), _legs(z1.w2, z2.w2)
    s0 = math.hypot(d1, d2)
    if s0 < _DOM_EPS:
        raise DegeneratePair(f"geodesic length {s0!r} is below dom_eps={_DOM_EPS!r}: coincident points")
    spec = _new(GeodesicSpec)
    _set_s0(spec, s0)
    _set_legs(spec, (fwd1 + fwd2, bwd1 + bwd2))
    return spec


def volume_density(point: HPoint) -> float:
    """Invariant volume density against dx1 dx2 dy1 dy2 at the point.

    Equal to 4 / ((y1 + y2)^2 (y1 - y2)^2) for y1 = Im tau, y2 = Im z; taken as
    (2 / (h1 h2))^2 for the factor heights h1, h2, squared last, as one product, so
    that it leaves the float range only where the density itself does.  h1 h2 is 0 only
    where the product underflows, which a margin below 1e-162 allows.
    """
    h1, h2 = point.w1.imag, point.w2.imag
    hh = h1 * h2
    r = 2.0 / hh if hh else math.inf
    density = r * r
    if not 0.0 < density < math.inf:
        raise NumericalBreakdown(f"volume density at factor heights {h1!r}, {h2!r} leaves the float range")
    return density

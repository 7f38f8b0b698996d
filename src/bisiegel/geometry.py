"""Metric structure: cross-ratio eigenvalues, invariant metric, distance,
geodesics, volume density.

The invariant metric is tr(Y^-1 dZ Y^-1 d(conj Z)) at Z = X + iY.  In the
factor coordinates (tau + z, tau - z) it splits into two half-plane metrics
|dw|^2 / (Im w)^2, and every closed form below is computed per factor from
one quantity, the chord s = |w - w'| / (2 sqrt(y y')) = sinh(d/2) of the
half-plane distance d: the distance is the root-sum-square of the two
2 asinh(s), the matrix cross ratio has the eigenvalues tanh^2(d/2), and a
geodesic is a pair of half-plane geodesics at a common arc-length parameter, each
point from the sinh form of its legs: ``GeodesicSpec`` holds the length and leg
constants, ``point`` is its one reader (``verify`` reads the legs unchecked, through
``_factors``).  The matrix cross ratio itself is computed only by the literal reference in ``verify``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from math import exp, expm1, inf, sinh

from .domain import HPoint, _hpoint, _new
from .errors import DegeneratePair, DomainViolation, NumericalBreakdown, OutOfRange
from .numkit import _ABS_EPS, _DOM_EPS

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


def _legs(f1: complex, f2: complex) -> tuple[float, tuple[float, ...], tuple[float, ...]]:
    """The length d = 2 asinh(s) of the half-plane geodesic between f1 and f2, for the
    chord s, and its constants from each end: (x, y, dx, yn, vn, vs, d) for the start
    x + iy, the offset dx and height v of the other end, the heights over h = max(y, v)
    and vs = vn sinh(d).  Where sinh(d) overflows (d >= 710), h = 1 and vs = inf for
    ``_leg_point``'s scaled form.  A chord that underflows to 0 (ends within rounding)
    gives the legs the least positive length, which keeps each at its own end.
    """
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


def _leg_point(leg: tuple[float, ...], t: float) -> complex:
    """Point at fraction t <= 1/2 of a half-plane geodesic leg.

    With sig(t) = sinh(dt) / sinh(d) the point is x + y (dx sig(t) + i v) / (y sig(t)
    + v sig(1 - t)), taken times sinh(d) / h: x + dx ys / k with ys / k in [0, 1], and
    height y vs / k with vs / k <= sinh(d) / sinh(d/2).  No term overflows for heights
    above ``_DOM_EPS`` or cancels as d -> 0, and a vertical leg needs no case of its own.
    Where sinh(d) overflows, the form is taken times e^{dt}: a = e^{dt} sig(1 - t) ~ 1,
    c = e^{dt}, and r = e^{dt} sig(t) y / v from one exponential, so that no subnormal
    factor enters; where r overflows with y / v, the point is (q, c) / (a / y + q), q = r / y.
    """
    x, y, dx, yn, vn, vs, d = leg
    if vs < inf:
        dt = d * t
        ys = yn * sinh(dt)
        k = ys + vn * sinh(d - dt)
        return complex(x + dx * (ys / k), y * (vs / k))
    a, f, c = -expm1(-2.0 * d * (1.0 - t)), -expm1(-2.0 * d * t), exp(d * t)
    r = exp(d * (2.0 * t - 1.0) + math.log(y)) * f / vn  # vn is v itself here
    if r < inf:
        return complex(x + dx * (r / (a + r)), y * (c / (a + r)))
    q = exp(d * (2.0 * t - 1.0)) * f / vn
    return complex(x + dx * (q / (a / y + q)), c / (a / y + q))


@dataclass(frozen=True, init=False, slots=True)
class GeodesicSpec:
    """A geodesic segment: its length and the constants of its four legs, which hold
    both ends, so two specs are equal only for the same segment.

    ``connect`` is its only builder and ``point`` its one reader.
    """

    s0: float
    _legs: tuple = field(repr=False)

    def _factors(self, s: float) -> tuple[complex, complex]:
        """Factors (w1, w2) of ``point(s)``, unchecked: each moves the fraction t = s / s0."""
        t = s / self.s0
        # Forward legs (from z1) serve t <= 1/2, backward legs (from z2) the rest.
        fwd1, bwd1, fwd2, bwd2 = self._legs
        if t <= 0.5:
            return _leg_point(fwd1, t), _leg_point(fwd2, t)
        return _leg_point(bwd1, 1.0 - t), _leg_point(bwd2, 1.0 - t)

    def point(self, s: float) -> HPoint:
        """Point at arc length s of the segment: s within ``_ABS_EPS`` of [0, s0].

        Both ends lie above the ``_DOM_EPS`` margin, and the height along a half-plane
        geodesic has no interior minimum, so the exact segment does too: a point that is
        not resolved above it, or a leg denominator that vanishes, is a numerical breakdown.
        """
        if not (-_ABS_EPS <= s <= self.s0 + _ABS_EPS):
            raise OutOfRange(f"arc length s={s!r} outside [0, {self.s0!r}]")
        try:
            w1, w2 = self._factors(s)
            return _hpoint(w1, w2)
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
    _set_legs(spec, (fwd1, bwd1, fwd2, bwd2))
    return spec


def geodesic(z1: HPoint, z2: HPoint, s: float) -> HPoint:
    """Point at arc length s on the geodesic segment from z1 to z2."""
    return connect(z1, z2).point(s)


def volume_density(point: HPoint) -> float:
    """Invariant volume density against dx1 dx2 dy1 dy2 at the point.

    Equal to 4 / ((y1 + y2)^2 (y1 - y2)^2) for y1 = Im tau, y2 = Im z; taken as
    (2 / (h1 h2))^2 for the factor heights h1, h2, squared last so that it leaves
    the float range only where the density itself does.
    """
    h1, h2 = point.w1.imag, point.w2.imag
    try:
        density = (2.0 / (h1 * h2)) ** 2
    except (OverflowError, ZeroDivisionError):  # heights far below the margin
        density = math.inf
    if not 0.0 < density < math.inf:
        raise NumericalBreakdown(f"volume density at factor heights {h1!r}, {h2!r} leaves the float range")
    return density

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
from typing import Callable

from .domain import HPoint, _hpoint
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
    "geodesic_ode_residual",
    "path_speed",
    "path_length",
    "simpson",
    "volume_density",
]


@dataclass(frozen=True)
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
    1983, 7.2): no cancellation for near pairs; inf past the float range.
    """
    return abs(w1 - w2) / (2.0 * math.sqrt(w1.imag) * math.sqrt(w2.imag))


def _half_distance(w1: complex, w2: complex) -> float:
    """d/2 = asinh(s) for the chord s; where s overflows, log(2 s) in logs."""
    s = _chord(w1, w2)
    if s < math.inf:
        return math.asinh(s)
    return math.log(abs(w1 / 2.0 - w2 / 2.0)) + math.log(4.0 / (w1.imag * w2.imag)) / 2.0


def _chords(z1: HPoint, z2: HPoint) -> tuple[float, float]:
    return _chord(z1.w1, z2.w1), _chord(z1.w2, z2.w2)


def _tanh_sq(s: float) -> float:
    """|w - w1|^2 / |w - conj w1|^2 = tanh^2(d/2) from the chord s = sinh(d/2)."""
    return (s / math.hypot(1.0, s)) ** 2 if s < math.inf else 1.0


def cross_ratio_eigenvalues(z: HPoint, z1: HPoint) -> tuple[float, float]:
    """Eigenvalues, descending, of the matrix cross ratio (Z-Z1)(Z-conj Z1)^-1
    (conj Z-conj Z1)(conj Z-Z1)^-1: the per-factor tanh^2(d/2), which lie in
    [0, 1) and classify the pair up to a motion."""
    lo, hi = sorted(_tanh_sq(s) for s in _chords(z, z1))
    return (hi, lo)


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
    shared = (d, -2.0 * d, math.expm1(-2.0 * d), m)
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
        a = math.expm1(n * (1.0 - t)) / em
        b = m ** (4.0 * t - 2.0) * math.expm1(n * t) / em
        c = m ** (2.0 * t)
    r = b * y / v
    if r == math.inf:
        q = b / v
        k = a / y + q
        return complex(x + dx * (q / k), c / k)
    k = a + r
    return complex(x + dx * (r / k), y * (c / k))


@dataclass(frozen=True, init=False)
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

    def line_point(self, s: float, tol: Tolerance = DEFAULT_TOL) -> HPoint:
        """Point on the full geodesic line at arc length s from the first
        endpoint (s may leave [0, s0]; the segment endpoints are at 0 and s0),
        a point above the ``tol.dom_eps`` margin.

        Both factors move the same fraction t = s / s0 of their distance.  Off
        the segment a leg's denominator can vanish on wide pairs: a breakdown.
        """
        t = s / self.s0
        # Forward legs (from z1) serve t <= 1/2, backward legs (from z2) the rest.
        fwd1, bwd1, fwd2, bwd2 = self._legs
        try:
            if t <= 0.5:
                return _hpoint(_leg_point(fwd1, t), _leg_point(fwd2, t), tol.dom_eps)
            return _hpoint(_leg_point(bwd1, 1.0 - t), _leg_point(bwd2, 1.0 - t), tol.dom_eps)
        except ZeroDivisionError:
            raise NumericalBreakdown(f"point at s={s!r} of s0={self.s0!r} not resolved") from None

    def point(self, s: float, tol: Tolerance = DEFAULT_TOL) -> HPoint:
        """Point at arc length s of the segment: s within ``tol.abs_eps`` of
        [0, s0], the point above the ``tol.dom_eps`` margin."""
        if not (-tol.abs_eps <= s <= self.s0 + tol.abs_eps):
            raise OutOfRange(f"arc length s={s!r} outside [0, {self.s0!r}]")
        return self.line_point(s, tol)


def connect(z1: HPoint, z2: HPoint, tol: Tolerance = DEFAULT_TOL) -> GeodesicSpec:
    """Geodesic segment data for a pair of distinct points: each factor chord
    is taken once."""
    legs = _legs(z1.w1, z2.w1) + _legs(z1.w2, z2.w2)
    d1, d2 = legs[0][4], legs[2][4]
    s0 = math.hypot(d1, d2)
    if s0 < tol.dom_eps:
        raise DegeneratePair("geodesic through coincident points is undetermined")
    spec = object.__new__(GeodesicSpec)
    vars(spec).update(z1=z1, z2=z2, s0=s0, d1=d1, d2=d2, _legs=legs)
    return spec


def geodesic(z1: HPoint, z2: HPoint, s: float, tol: Tolerance = DEFAULT_TOL) -> HPoint:
    """Point at arc length s on the geodesic segment from z1 to z2."""
    return connect(z1, z2, tol).point(s, tol)


def geodesic_ode_residual(curve: Callable[[float], HPoint], s: float, h: float) -> float:
    """Central-difference residual of the geodesic equation Z'' + i Z' Y^-1 Z' = 0,
    which per factor is the half-plane equation w'' + i w'^2 / Im w = 0; the
    larger of the two factor residuals.

    For a true geodesic this decays like h^2; for a non-geodesic it stays
    bounded away from zero as h -> 0.
    """
    if not h > 0.0:
        raise OutOfRange(f"step h={h!r} must be positive")
    ends = zip(curve(s - h).factors(), curve(s).factors(), curve(s + h).factors())
    return max(
        abs((wp - 2.0 * w + wm) / (h * h) + 1j * ((wp - wm) / (2.0 * h)) ** 2 / w.imag)
        for wm, w, wp in ends
    )


def simpson(f: Callable[[float], float], a: float, b: float, panels: int) -> float:
    """Composite Simpson rule with the given (even) number of panels."""
    if panels < 2 or panels % 2 != 0:
        raise ValueError("panels must be a positive even integer")
    h = (b - a) / panels
    total = f(a) + f(b)
    for k in range(1, panels):
        total += f(a + k * h) * (4.0 if k % 2 else 2.0)
    return total * h / 3.0


def path_speed(curve: Callable[[float], HPoint], s: float, h: float) -> float:
    """Metric speed of a curve at s: per factor |dw| / Im w, with dw taken by
    central differences."""
    zp, zm, z = curve(s + h), curve(s - h), curve(s)
    dw1, dw2 = abs(zp.w1 - zm.w1) / (2.0 * h), abs(zp.w2 - zm.w2) / (2.0 * h)
    return math.hypot(dw1 / z.w1.imag, dw2 / z.w2.imag)


def path_length(
    curve: Callable[[float], HPoint],
    s_from: float,
    s_to: float,
    panels: int = 10_000,
) -> float:
    """Simpson-integrated metric length of a curve between two parameters."""
    h = max(abs(s_to - s_from), 1.0) * 1e-5
    return simpson(lambda s: path_speed(curve, s, h), s_from, s_to, panels)


def volume_density(point: HPoint) -> float:
    """Invariant volume density against dx1 dx2 dy1 dy2 at the point.

    Equal to 4 / ((y1 + y2)^2 (y1 - y2)^2) for y1 = Im tau, y2 = Im z; the
    product of the two squared factor heights in disguise.
    """
    return 4.0 / (point.w1.imag**2 * point.w2.imag**2)

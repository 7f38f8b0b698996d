"""Seeded self-verification suite.

Each check is one trial: it draws its inputs from the stream it is given and
returns that trial's residuals.  ``_fold``, the one trial loop, folds them into the
worst residual; ``run_suite`` folds each check on its own deterministic stream (seed
mixed with the check name), compares the worst against the tolerance pinned for the
invariant, and the CLI renders a pass/fail table.  The tests fold the same checks.

Points, motions and the geometry are computed per factor; the literal 4x4
action ``(AZ + B)(CZ + D)^-1``, matrix cross ratio and matrix Cayley map live
here only, as the references that the factor forms are checked against, in
plain complex arithmetic on 2x2 matrices held as row-major 4-tuples, and the
volume check's Jacobian determinant is a Laplace expansion: no NumPy.  The
finite-difference helpers of the geodesic checks are private here too, and the
half-plane oracle ``hyperbolic.hyp_distance`` is read only here.
Those helpers take curves of factor pairs (w1, w2), which the checks read unchecked
from ``GeodesicSpec._factors``; ``_worst`` keeps a NaN residual, so such a check fails.
``closure`` counts an image that ``apply`` refuses at the margin as a residual of 1.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

from .domain import (
    EPoint,
    HPoint,
    cayley_to_disc,
    cayley_to_halfspace,
    random_hpoint,
)
from .errors import NumericalBreakdown, OutOfRange
from .geometry import (
    Tangent,
    connect,
    cross_ratio_eigenvalues,
    distance,
    metric_form,
    volume_density,
)
from .group import (
    apply,
    assemble,
    classify,
    random_motion,
    random_sl2,
    reduce_pair,
    split,
)
from .hyperbolic import hyp_distance
from .numkit import Mat4R

__all__ = ["CheckResult", "run_suite", "SUITE"]


@dataclass(frozen=True, slots=True)
class CheckResult:
    name: str
    max_residual: float
    tolerance: float
    trials: int

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance


def _worst(worst: float, *residuals: float) -> float:
    """``max``, except that a NaN once seen is kept (``max(0.0, nan)`` is 0.0, a false PASS)."""
    for r in residuals:
        if worst == worst and not r <= worst:  # larger, or the first NaN
            worst = r
    return worst


def _rng(seed: int, name: str) -> random.Random:
    return random.Random(f"{seed}:{name}")


def _random_tangent(rng: random.Random) -> Tangent:
    return Tangent(
        complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
        complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
    )


def _points_gap(p: HPoint, q: HPoint) -> float:
    return max(abs(p.tau - q.tau), abs(p.z - q.z))


#: A curve s -> its factor pair (w1, w2), as ``GeodesicSpec._factors``.
_Curve = Callable[[float], tuple[complex, complex]]

#: A complex 2x2 matrix [[a, b], [c, d]] as the row-major tuple (a, b, c, d).
_M2 = tuple[complex, complex, complex, complex]


def _mul(x: _M2, y: _M2) -> _M2:
    (a, b, c, d), (e, f, g, h) = x, y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _inv(x: _M2) -> _M2:
    """Adjugate inverse (the references invert only matrices regular at valid points)."""
    a, b, c, d = x
    det = a * d - b * c
    return (d / det, -b / det, -c / det, a / det)


def _sub(x: _M2, y: _M2) -> _M2:
    return (x[0] - y[0], x[1] - y[1], x[2] - y[2], x[3] - y[3])


def _reference_apply(rows: tuple, point: HPoint) -> HPoint:
    """The 4x4 action (A Z + B)(C Z + D)^-1 of the rows of a real 4x4, computed literally."""

    def block(i: int, j: int, sign: float = 1.0) -> _M2:
        return tuple(complex(sign * rows[r][k]) for r in (i, i + 1) for k in (j, j + 1))

    zm = (point.tau, point.z, point.z, point.tau)
    # A Z + B as A Z - (-B): negation is exact.
    num = _sub(_mul(block(0, 0), zm), block(0, 2, -1.0))
    den = _sub(_mul(block(2, 0), zm), block(2, 2, -1.0))
    w = _mul(num, _inv(den))
    # The image of a bi-symmetric point is bi-symmetric; averaging removes
    # the rounding skew.
    return HPoint((w[0] + w[3]) / 2.0, (w[1] + w[2]) / 2.0)


def _reference_cross_ratio(z: HPoint, z1: HPoint) -> _M2:
    """The matrix cross ratio (Z-Z1)(Z-conj Z1)^-1 (conj Z-conj Z1)(conj Z-Z1)^-1,
    computed literally."""
    a, b = (z.tau, z.z, z.z, z.tau), (z1.tau, z1.z, z1.z, z1.tau)
    ac, bc = (tuple(v.conjugate() for v in x) for x in (a, b))
    return _mul(_mul(_mul(_sub(a, b), _inv(_sub(a, bc))), _sub(ac, bc)), _inv(_sub(ac, b)))


def _reference_cayley(z: HPoint) -> EPoint:
    """The Cayley map (Z - iI)(Z + iI)^-1, computed literally."""
    zm = (z.tau, z.z, z.z, z.tau)
    w = _mul(_sub(zm, (1j, 0j, 0j, 1j)), _inv(_sub(zm, (-1j, 0j, 0j, -1j))))
    return EPoint((w[0] + w[3]) / 2.0, (w[1] + w[2]) / 2.0)


_EYE = ((1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 1.0))
#: The motions that fix every point: +-I and +-Q, with Q the exchange involution.
_KERNEL = tuple(classify(Mat4R(tuple(tuple(s * x for x in row) for row in m)))
                for m in (_EYE, (_EYE[1], _EYE[0], _EYE[3], _EYE[2])) for s in (1.0, -1.0))
_BASE = HPoint(1j, 0.0)  # iI


def _check_cayley_roundtrip(rng: random.Random) -> tuple[float, ...]:
    z = random_hpoint(rng)
    disc = cayley_to_disc(z)
    back = cayley_to_halfspace(disc)
    literal = max(abs(p - q) for p, q in zip(disc.factors(), _reference_cayley(z).factors()))
    return _points_gap(z, back), literal


def _check_closure(rng: random.Random) -> tuple[float, ...]:
    m = random_motion(rng)
    z = random_hpoint(rng)
    try:
        apply(m, z)  # its image passes the dom_eps margin, or it raises
    except NumericalBreakdown:
        return (1.0,)
    return ()


def _check_kernel(rng: random.Random) -> tuple[float, ...]:
    z = random_hpoint(rng)
    return tuple(_points_gap(apply(m, z), z) for m in _KERNEL)


def _check_group_law(rng: random.Random) -> tuple[float, ...]:
    m1 = random_motion(rng)
    m2 = random_motion(rng)
    z = random_hpoint(rng)
    return (_points_gap(apply(m1 @ m2, z), apply(m1, apply(m2, z))),)


def _check_factorization(rng: random.Random) -> tuple[float, ...]:
    m = random_motion(rng)
    z = random_hpoint(rng)
    return (_points_gap(apply(m, z), _reference_apply(m._rows(), z)),)


def _check_split_assemble(rng: random.Random) -> tuple[float, ...]:
    m1 = random_sl2(rng)
    m2 = random_sl2(rng)
    eps = 1 if rng.random() < 0.5 else -1
    r1, r2 = split(classify(assemble(m1, m2, eps).m))
    return tuple(abs(getattr(got, n) - getattr(want, n))
                 for got, want in ((r1, m1), (r2, m2)) for n in "abcd")


def _check_reduction(rng: random.Random) -> tuple[float, ...]:
    # Residuals are scale-normalized: moving a point to height lambda through
    # a float matrix cannot beat lambda^2 * eps absolutely, so the honest
    # conditioning measure divides by the canonical height.
    z1 = random_hpoint(rng)
    z2 = random_hpoint(rng)
    red = reduce_pair(z1, z2)
    img1 = apply(red.mover, z1)
    img2 = apply(red.mover, z2)
    scale = max(1.0, red.lambda1)
    return (
        _points_gap(img1, _BASE),
        abs(img2.tau - complex(0.0, red.lambda1)) / scale,
        abs(img2.z - complex(0.0, red.lambda2)) / scale,
    )


def _check_reduction_invariance(rng: random.Random) -> tuple[float, ...]:
    z1 = random_hpoint(rng)
    z2 = random_hpoint(rng)
    m = random_motion(rng)
    red = reduce_pair(z1, z2)
    red_moved = reduce_pair(apply(m, z1), apply(m, z2))
    scale = max(1.0, red.lambda1)
    return (
        abs(red.lambda1 - red_moved.lambda1) / scale,
        abs(red.lambda2 - red_moved.lambda2) / scale,
    )


def _check_isometry(rng: random.Random) -> tuple[float, ...]:
    m = random_motion(rng)
    z1 = random_hpoint(rng)
    z2 = random_hpoint(rng)
    return (abs(distance(apply(m, z1), apply(m, z2)) - distance(z1, z2)),)


def _check_pythagoras(rng: random.Random) -> tuple[float, ...]:
    z1 = random_hpoint(rng)
    z2 = random_hpoint(rng)
    d_plus, d_minus = (hyp_distance(a, b) for a, b in zip(z1.factors(), z2.factors()))
    return (abs(distance(z1, z2) ** 2 - d_plus**2 - d_minus**2),)


def _check_cross_ratio_invariance(rng: random.Random) -> tuple[float, ...]:
    z1 = random_hpoint(rng)
    z2 = random_hpoint(rng)
    m = random_motion(rng)
    ev = cross_ratio_eigenvalues(z1, z2)
    ev_m = cross_ratio_eigenvalues(apply(m, z1), apply(m, z2))
    # The literal matrix is bi-symmetric: its eigenvalues are p +- q for
    # the diagonal entry p and the off-diagonal entry q.
    r = _reference_cross_ratio(z1, z2)
    p, q = (r[0] + r[3]) / 2.0, (r[1] + r[2]) / 2.0
    literal = sorted((p + q, p - q), key=lambda v: v.real, reverse=True)
    return (*(abs(x - y) for x, y in zip(ev, ev_m)), *(abs(x - y) for x, y in zip(ev, literal)))


def _check_metric_base(rng: random.Random) -> tuple[float, ...]:
    d = _random_tangent(rng)
    expected = 2.0 * (
        d.dtau.real**2 + d.dtau.imag**2 + d.dz.real**2 + d.dz.imag**2
    )
    return (abs(metric_form(_BASE, d) - expected),)


def _check_metric_invariance(rng: random.Random) -> tuple[float, ...]:
    h = 1e-6
    z = random_hpoint(rng)
    d = _random_tangent(rng)
    m = random_motion(rng)
    w_plus = apply(m, HPoint(z.tau + h * d.dtau, z.z + h * d.dz))
    w_minus = apply(m, HPoint(z.tau - h * d.dtau, z.z - h * d.dz))
    pushed = Tangent(
        (w_plus.tau - w_minus.tau) / (2.0 * h), (w_plus.z - w_minus.z) / (2.0 * h)
    )
    before = metric_form(z, d)
    after = metric_form(apply(m, z), pushed)
    return (abs(after - before) / before,)


def _check_geodesic_endpoints(rng: random.Random) -> tuple[float, ...]:
    z1 = random_hpoint(rng)
    z2 = random_hpoint(rng)
    spec = connect(z1, z2)
    return _points_gap(spec.point(0.0), z1), _points_gap(spec.point(spec.s0), z2)


def _check_geodesic_reversal(rng: random.Random) -> tuple[float, ...]:
    z1 = random_hpoint(rng)
    z2 = random_hpoint(rng)
    fwd = connect(z1, z2)
    bwd = connect(z2, z1)
    steps = [frac * fwd.s0 for frac in (0.25, 0.5, 0.75)]
    return tuple(_points_gap(fwd.point(s), bwd.point(fwd.s0 - s)) for s in steps)


def _geodesic_ode_residual(curve: _Curve, s: float, h: float) -> float:
    """Central-difference residual of the geodesic equation Z'' + i Z' Y^-1 Z' = 0,
    which per factor is the half-plane equation w'' + i w'^2 / Im w = 0; the
    larger of the two factor residuals.  ``curve`` returns the factor pair (w1, w2).

    For a true geodesic this decays like h^2; for a non-geodesic it stays
    bounded away from zero as h -> 0.
    """
    if not h > 0.0:
        raise OutOfRange(f"step h={h!r} must be positive")
    return _worst(*(abs((wp - 2.0 * w + wm) / (h * h) + 1j * ((wp - wm) / (2.0 * h)) ** 2 / w.imag)
                    for wm, w, wp in zip(curve(s - h), curve(s), curve(s + h))))


def _path_speed(curve: _Curve, s: float, h: float) -> float:
    """Metric speed at s of a curve that returns the factor pair (w1, w2): per
    factor |dw| / Im w, with dw taken by central differences."""
    (p1, p2), (m1, m2), (w1, w2) = curve(s + h), curve(s - h), curve(s)
    return math.hypot(abs(p1 - m1) / (2.0 * h) / w1.imag, abs(p2 - m2) / (2.0 * h) / w2.imag)


def _check_ode_residual(rng: random.Random) -> tuple[float, ...]:
    z1 = random_hpoint(rng)
    z2 = random_hpoint(rng)
    spec = connect(z1, z2)
    return tuple(_geodesic_ode_residual(spec._factors, frac * spec.s0, 1e-3)
                 for frac in (0.2, 0.5, 0.8))


def _check_arc_length(rng: random.Random) -> tuple[float, ...]:
    # Metric speed 1 at each node; the one at 0.5 straddles the forward/backward leg switch.
    z1 = random_hpoint(rng)
    z2 = random_hpoint(rng)
    spec = connect(z1, z2)
    h = max(spec.s0, 1.0) * 1e-5
    return tuple(abs(_path_speed(spec._factors, frac * spec.s0, h) - 1.0)
                 for frac in (0.1, 0.3, 0.5, 0.7, 0.9))


def _det4(m: list) -> float:
    """4x4 determinant by Laplace expansion over the 2x2 minors of rows (0, 1) and (2, 3)."""
    def minor(r: int, i: int, j: int) -> float:
        return m[r][i] * m[r + 1][j] - m[r][j] * m[r + 1][i]
    return (minor(0, 0, 1) * minor(2, 2, 3) - minor(0, 0, 2) * minor(2, 1, 3)
            + minor(0, 0, 3) * minor(2, 1, 2) + minor(0, 1, 2) * minor(2, 0, 3)
            - minor(0, 1, 3) * minor(2, 0, 2) + minor(0, 2, 3) * minor(2, 0, 1))


def _check_volume_jacobian(rng: random.Random) -> tuple[float, ...]:
    h = 1e-6
    z = random_hpoint(rng)
    m = random_motion(rng)

    def coords(x1: float, x2: float, y1: float, y2: float) -> tuple[float, ...]:
        w = apply(m, HPoint(complex(x1, y1), complex(x2, y2)))
        return (w.tau.real, w.z.real, w.tau.imag, w.z.imag)

    base = (z.tau.real, z.z.real, z.tau.imag, z.z.imag)
    jac = [[0.0] * 4 for _ in range(4)]
    for j in range(4):
        f_plus = coords(*(x + h if k == j else x for k, x in enumerate(base)))
        f_minus = coords(*(x - h if k == j else x for k, x in enumerate(base)))
        for i in range(4):
            jac[i][j] = (f_plus[i] - f_minus[i]) / (2.0 * h)
    w = apply(m, z)
    lhs = volume_density(w) * abs(_det4(jac))
    rhs = volume_density(z)
    return (abs(lhs - rhs) / rhs,)


def _check_triangle(rng: random.Random) -> tuple[float, ...]:
    z1 = random_hpoint(rng)
    z2 = random_hpoint(rng)
    z3 = random_hpoint(rng)
    return (distance(z1, z3) - distance(z1, z2) - distance(z2, z3),)


#: name -> (one-trial check, tolerance, trial divisor); divisors keep the expensive
#: finite-difference checks proportionate when --trials is large.  arc_length takes
#: five speeds per trial, about the cost of a cheap check, so it runs on every trial.
SUITE: dict[str, tuple[Callable[[random.Random], tuple[float, ...]], float, int]] = {
    "cayley_roundtrip": (_check_cayley_roundtrip, 1e-10, 1),
    "closure": (_check_closure, 0.0, 1),
    "kernel": (_check_kernel, 1e-12, 1),
    "group_law": (_check_group_law, 1e-9, 1),
    "factorization": (_check_factorization, 1e-9, 1),
    "split_assemble": (_check_split_assemble, 1e-12, 1),
    "reduction": (_check_reduction, 1e-8, 2),
    "reduction_invariance": (_check_reduction_invariance, 1e-8, 2),
    "isometry": (_check_isometry, 1e-8, 1),
    "pythagoras": (_check_pythagoras, 1e-9, 1),
    "cross_ratio_invariance": (_check_cross_ratio_invariance, 1e-8, 1),
    "metric_base": (_check_metric_base, 1e-12, 1),
    "metric_invariance": (_check_metric_invariance, 1e-5, 5),
    "geodesic_endpoints": (_check_geodesic_endpoints, 1e-8, 1),
    "geodesic_reversal": (_check_geodesic_reversal, 1e-8, 2),
    "ode_residual": (_check_ode_residual, 1e-5, 20),
    "arc_length": (_check_arc_length, 1e-6, 1),
    "volume_jacobian": (_check_volume_jacobian, 1e-4, 5),
    "triangle": (_check_triangle, 1e-12, 1),
}


def _fold(check: Callable[[random.Random], tuple[float, ...]], rng: random.Random, trials: int) -> float:
    """The one trial loop: the worst residual of ``trials`` runs of ``check`` on ``rng``."""
    worst = 0.0
    for _ in range(trials):
        worst = _worst(worst, *check(rng))
    return worst


def run_suite(seed: int, trials: int) -> list[CheckResult]:
    """Run every check with its own deterministic stream; order is fixed."""
    results = []
    for name, (check, tolerance, divisor) in SUITE.items():
        n = max(1, trials // divisor)
        results.append(CheckResult(name, _fold(check, _rng(seed, name), n), tolerance, n))
    return results

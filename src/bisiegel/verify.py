"""Seeded self-verification suite.

Each check is one trial: it draws its inputs from the stream it is given and returns that
trial's residuals as a tuple display or a list.  ``_fold``, the one trial loop, folds them into
the worst residual in its own loop, keeping a NaN; ``run_suite`` folds each check on its own
deterministic stream (seed mixed with the check name), compares the worst against the tolerance
pinned for the invariant, and the CLI renders a pass/fail table.  The tests fold the same checks.

No check reads another's state, so ``run_suite`` folds them in one process per usable CPU, or in
one alone without ``os.fork`` or with another thread alive.  Every process takes the next check
off one queue, heaviest first, so the caller stays busy whatever speed a child gets; a check
left without a result is folded again in the caller, in ``SUITE`` order, so the report and the
first error raised do not depend on the number of CPUs.

Points, motions and the geometry are computed per factor; the literal 4x4 action
``(AZ + B)(CZ + D)^-1``, matrix cross ratio and matrix Cayley map live here only, as the
references that the factor forms are checked against (the Cayley reference as the disc factors
``z1 +- z2`` of its matrix, the form ``cayley_to_disc`` returns), in plain complex arithmetic on 2x2
matrices held as row-major 4-tuples, read off each point's one ``HPoint._readout()``: no NumPy.
The same arithmetic gives the literal pushforward ``dW = (CZ + D)^-T dZ (CZ + D)^-1`` of a
motion's rows (Siegel, Symplectic Geometry, 1943), which the metric and volume checks read;
nothing here takes a finite difference.  The geodesic checks read the segment unchecked through
``GeodesicSpec._factors`` and map it by ``reduce_pair``'s mover through ``apply``'s factor map
``group._images`` onto the unit-speed reduced geodesic, whose factors at arc length s are
``i L^(s/r)`` and ``i l^(s/r)`` with ``r = hypot(ln L, ln l)``; ``_fold`` keeps a NaN residual, so such a check fails.  The
half-plane oracle ``hyperbolic.hyp_distance`` is read only here.  ``closure`` counts an image
that ``apply`` refuses at the margin as a residual of 1.
"""

from __future__ import annotations

import os
import random
import struct
import threading
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from math import atan2, exp, hypot, log

from .domain import (
    HPoint,
    cayley_to_disc,
    cayley_to_halfspace,
    random_hpoint,
)
from .errors import NumericalBreakdown
from .geometry import (
    connect,
    cross_ratio_eigenvalues,
    distance,
    metric_form,
    volume_density,
)
from .group import (
    _images,
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


def _rng(seed: int, name: str) -> random.Random:
    return random.Random(f"{seed}:{name}")


def _random_tangent(rng: random.Random) -> tuple[complex, complex]:
    """A tangent (dtau, dz), each part uniform in [-1, 1] as -1 + 2 U: what Random.uniform computes."""
    return (complex(-1 + 2 * rng.random(), -1 + 2 * rng.random()),
            complex(-1 + 2 * rng.random(), -1 + 2 * rng.random()))


def _points_gap(p: HPoint, q: HPoint) -> float:
    (tp, zp), (tq, zq) = p._readout(), q._readout()
    return max(abs(tp - tq), abs(zp - zq))


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


def _affine(rows: tuple, i: int, zm: _M2) -> _M2:
    """X Z + Y for the 2x2 blocks [X Y] in rows i and i + 1 of a real 4x4: A Z + B for
    i = 0, C Z + D for i = 2.  It is taken as X Z - (-Y): negation is exact."""
    (x0, x1, y0, y1), (x2, x3, y2, y3) = rows[i], rows[i + 1]
    x = (complex(x0), complex(x1), complex(x2), complex(x3))
    return _sub(_mul(x, zm), (complex(-y0), complex(-y1), complex(-y2), complex(-y3)))


def _reference_apply(rows: tuple, point: HPoint) -> HPoint:
    """The 4x4 action (A Z + B)(C Z + D)^-1 of the rows of a real 4x4, computed literally."""
    tau, z = point._readout()
    zm = (tau, z, z, tau)
    w = _mul(_affine(rows, 0, zm), _inv(_affine(rows, 2, zm)))
    # The image of a bi-symmetric point is bi-symmetric; averaging removes
    # the rounding skew.
    return HPoint((w[0] + w[3]) / 2.0, (w[1] + w[2]) / 2.0)


def _pushforward(rows: tuple, point: HPoint, *tangents: tuple) -> list[tuple[complex, complex]]:
    """The images dW = (C Z + D)^-T dZ (C Z + D)^-1 of the tangents dZ = [[dtau, dz], [dz, dtau]],
    each given and returned as its pair (dtau, dz), under the action of the rows of a real
    symplectic 4x4 at Z, computed literally; C Z + D is inverted once for all of them."""
    tau, z = point._readout()
    k = _inv(_affine(rows, 2, (tau, z, z, tau)))
    kt = (k[0], k[2], k[1], k[3])
    out = []
    for dtau, dz in tangents:
        w = _mul(_mul(kt, (dtau, dz, dz, dtau)), k)  # k^T dZ k
        out.append(((w[0] + w[3]) / 2.0, (w[1] + w[2]) / 2.0))
    return out


def _reference_cross_ratio(z: HPoint, z1: HPoint) -> _M2:
    """The matrix cross ratio (Z-Z1)(Z-conj Z1)^-1 (conj Z-conj Z1)(conj Z-Z1)^-1,
    computed literally."""
    (t, u), (s, v) = z._readout(), z1._readout()
    tc, uc, sc, vc = t.conjugate(), u.conjugate(), s.conjugate(), v.conjugate()
    a, b, ac, bc = (t, u, u, t), (s, v, v, s), (tc, uc, uc, tc), (sc, vc, vc, sc)
    return _mul(_mul(_mul(_sub(a, b), _inv(_sub(a, bc))), _sub(ac, bc)), _inv(_sub(ac, b)))


def _reference_cayley(z: HPoint) -> tuple[complex, complex]:
    """The Cayley map (Z - iI)(Z + iI)^-1, computed literally, as its disc factors z1 +- z2."""
    t, u = z._readout()
    zm = (t, u, u, t)
    w = _mul(_sub(zm, (1j, 0j, 0j, 1j)), _inv(_sub(zm, (-1j, 0j, 0j, -1j))))
    z1, z2 = (w[0] + w[3]) / 2.0, (w[1] + w[2]) / 2.0
    return z1 + z2, z1 - z2


_EYE = ((1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 1.0))
#: The motions that fix every point: +-I and +-Q, with Q the exchange involution.
_KERNEL = tuple(classify(Mat4R(tuple(tuple(s * x for x in row) for row in m)))
                for m in (_EYE, (_EYE[1], _EYE[0], _EYE[3], _EYE[2])) for s in (1.0, -1.0))
_BASE = HPoint(1j, 0.0)  # iI


def _check_cayley_roundtrip(rng: random.Random) -> Sequence[float]:
    z = random_hpoint(rng)
    (u1, u2), (v1, v2) = cayley_to_disc(z), _reference_cayley(z)
    back = cayley_to_halfspace(u1, u2)
    return _points_gap(z, back), max(abs(u1 - v1), abs(u2 - v2))


def _check_closure(rng: random.Random) -> Sequence[float]:
    m = random_motion(rng)
    z = random_hpoint(rng)
    try:
        apply(m, z)  # its image passes the dom_eps margin, or it raises
    except NumericalBreakdown:
        return (1.0,)
    return ()


def _check_kernel(rng: random.Random) -> Sequence[float]:
    z = random_hpoint(rng)
    return [_points_gap(apply(m, z), z) for m in _KERNEL]


def _check_group_law(rng: random.Random) -> Sequence[float]:
    m1, m2 = random_motion(rng), random_motion(rng)
    z = random_hpoint(rng)
    return (_points_gap(apply(m1 @ m2, z), apply(m1, apply(m2, z))),)


def _check_factorization(rng: random.Random) -> Sequence[float]:
    m = random_motion(rng)
    z = random_hpoint(rng)
    return (_points_gap(apply(m, z), _reference_apply(m._rows(), z)),)


def _check_split_assemble(rng: random.Random) -> Sequence[float]:
    m1, m2 = random_sl2(rng), random_sl2(rng)
    eps = 1 if rng.random() < 0.5 else -1
    r1, r2 = split(classify(assemble(m1, m2, eps).m))
    return (abs(r1.a - m1.a), abs(r1.b - m1.b), abs(r1.c - m1.c), abs(r1.d - m1.d),
            abs(r2.a - m2.a), abs(r2.b - m2.b), abs(r2.c - m2.c), abs(r2.d - m2.d))


def _check_reduction(rng: random.Random) -> Sequence[float]:
    # Residuals are scale-normalized: moving a point to height lambda through
    # a float matrix cannot beat lambda^2 * eps absolutely, so the honest
    # conditioning measure divides by the canonical height.
    z1, z2 = random_hpoint(rng), random_hpoint(rng)
    red = reduce_pair(z1, z2)
    img1 = apply(red.mover, z1)
    img2 = apply(red.mover, z2)
    scale = max(1.0, red.lambda1)
    tau, z = img2._readout()
    return (_points_gap(img1, _BASE), abs(tau - complex(0.0, red.lambda1)) / scale,
            abs(z - complex(0.0, red.lambda2)) / scale)


def _check_reduction_invariance(rng: random.Random) -> Sequence[float]:
    z1, z2 = random_hpoint(rng), random_hpoint(rng)
    m = random_motion(rng)
    red = reduce_pair(z1, z2)
    red_moved = reduce_pair(apply(m, z1), apply(m, z2))
    scale = max(1.0, red.lambda1)
    return abs(red.lambda1 - red_moved.lambda1) / scale, abs(red.lambda2 - red_moved.lambda2) / scale


def _check_isometry(rng: random.Random) -> Sequence[float]:
    m = random_motion(rng)
    z1, z2 = random_hpoint(rng), random_hpoint(rng)
    return (abs(distance(apply(m, z1), apply(m, z2)) - distance(z1, z2)),)


def _check_pythagoras(rng: random.Random) -> Sequence[float]:
    z1, z2 = random_hpoint(rng), random_hpoint(rng)
    d, d_plus, d_minus = distance(z1, z2), hyp_distance(z1.w1, z2.w1), hyp_distance(z1.w2, z2.w2)
    return (abs(d * d - d_plus * d_plus - d_minus * d_minus),)


def _check_cross_ratio_invariance(rng: random.Random) -> Sequence[float]:
    z1, z2 = random_hpoint(rng), random_hpoint(rng)
    m = random_motion(rng)
    ev = cross_ratio_eigenvalues(z1, z2)
    ev_m = cross_ratio_eigenvalues(apply(m, z1), apply(m, z2))
    # The literal matrix is bi-symmetric: its eigenvalues are p +- q for
    # the diagonal entry p and the off-diagonal entry q.
    r = _reference_cross_ratio(z1, z2)
    p, q = (r[0] + r[3]) / 2.0, (r[1] + r[2]) / 2.0
    hi, lo = p + q, p - q
    if hi.real < lo.real:  # descending by real part; a tie or a NaN keeps (p + q, p - q)
        hi, lo = lo, hi
    return abs(ev[0] - ev_m[0]), abs(ev[1] - ev_m[1]), abs(ev[0] - hi), abs(ev[1] - lo)


def _check_metric_base(rng: random.Random) -> Sequence[float]:
    dtau, dz = _random_tangent(rng)
    expected = 2.0 * (dtau.real * dtau.real + dtau.imag * dtau.imag + dz.real * dz.real + dz.imag * dz.imag)
    return (abs(metric_form(_BASE, dtau, dz) - expected),)


def _check_metric_invariance(rng: random.Random) -> Sequence[float]:
    z = random_hpoint(rng)
    d = _random_tangent(rng)
    m = random_motion(rng)
    before = metric_form(z, *d)
    [dw] = _pushforward(m._rows(), z, d)
    after = metric_form(apply(m, z), *dw)
    return (abs(after - before) / before,)


def _check_geodesic_endpoints(rng: random.Random) -> Sequence[float]:
    z1, z2 = random_hpoint(rng), random_hpoint(rng)
    spec = connect(z1, z2)
    return _points_gap(spec.point(0.0), z1), _points_gap(spec.point(spec.s0), z2)


def _check_geodesic_reversal(rng: random.Random) -> Sequence[float]:
    z1, z2 = random_hpoint(rng), random_hpoint(rng)
    fwd = connect(z1, z2)
    bwd = connect(z2, z1)
    steps = [frac * fwd.s0 for frac in (0.25, 0.5, 0.75)]
    return [_points_gap(fwd.point(s), bwd.point(fwd.s0 - s)) for s in steps]


#: The fractions of a segment's length at which the geodesic checks read it.
_NODES = (0.1, 0.3, 0.5, 0.7, 0.9)


def _reduced_geodesic(z1: HPoint, z2: HPoint) -> list[tuple[complex, float]]:
    """The segment from z1 to z2 at the arc lengths s = f s0 for the fractions f in
    ``_NODES``, moved by the mover of ``reduce_pair(z1, z2)``: per node and factor, the
    image g and the log height s ln L / r (s ln l / r) that the unit-speed reduced
    geodesic has there, with L, l = lambda1 +- lambda2 and r = hypot(ln L, ln l) its
    length.  r is read off the reduction, not off the segment's s0.  The factors are
    read unchecked and mapped by ``apply``'s unchecked ``_images``, so a NaN factor gives
    a NaN image.  The node at f = 0.5 straddles the switch from forward to backward legs."""
    spec = connect(z1, z2)
    red = reduce_pair(z1, z2)
    ln_big, ln_small = log(red.lambda1 + red.lambda2), log(red.lambda1 - red.lambda2)
    r = hypot(ln_big, ln_small)
    out = []
    for f in _NODES:
        s = f * spec.s0
        w1, w2 = spec._factors(s)
        g1, g2 = _images(red.mover, w1, w2)
        out += ((g1, s * ln_big / r), (g2, s * ln_small / r))
    return out


def _check_ode_residual(rng: random.Random) -> Sequence[float]:
    # The reduced solution of Z'' + i Z' Y^-1 Z' = 0 lies on the imaginary axes: each
    # image's angle off the positive imaginary axis, which is defined for every image
    # (near pi below the real axis, NaN for a NaN image).
    z1, z2 = random_hpoint(rng), random_hpoint(rng)
    return [atan2(abs(g.real), g.imag) for g, _ in _reduced_geodesic(z1, z2)]


def _check_arc_length(rng: random.Random) -> Sequence[float]:
    # Unit speed: the image at arc length s has the height e^h of the reduced geodesic
    # there.  The ratio |g| e^-h is defined for every image (0 and inf read as FAIL).
    z1, z2 = random_hpoint(rng), random_hpoint(rng)
    return [abs(abs(g) * exp(-h) - 1.0) for g, h in _reduced_geodesic(z1, z2)]


def _check_volume_jacobian(rng: random.Random) -> Sequence[float]:
    # A holomorphic map's real Jacobian determinant is |det J|^2, with the columns of the
    # complex Jacobian J in (tau, z) the pushforwards of dZ = I and dZ = [[0, 1], [1, 0]].
    z = random_hpoint(rng)
    m = random_motion(rng)
    (dtau1, dz1), (dtau2, dz2) = _pushforward(m._rows(), z, (1 + 0j, 0j), (0j, 1 + 0j))
    det = abs(dtau1 * dz2 - dtau2 * dz1)
    lhs = volume_density(apply(m, z)) * (det * det)
    rhs = volume_density(z)
    return (abs(lhs - rhs) / rhs,)


def _check_triangle(rng: random.Random) -> Sequence[float]:
    z1, z2, z3 = random_hpoint(rng), random_hpoint(rng), random_hpoint(rng)
    return (distance(z1, z3) - distance(z1, z2) - distance(z2, z3),)


#: name -> (one-trial check, tolerance, trial divisor); the divisors keep the suite's
#: cost flat as --trials grows: the costlier checks run on every second, fifth or
#: twentieth trial.  No check takes a finite difference.
SUITE: dict[str, tuple[Callable[[random.Random], Sequence[float]], float, int]] = {
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
    "metric_invariance": (_check_metric_invariance, 1e-10, 5),
    "geodesic_endpoints": (_check_geodesic_endpoints, 1e-8, 1),
    "geodesic_reversal": (_check_geodesic_reversal, 1e-8, 2),
    "ode_residual": (_check_ode_residual, 1e-11, 20),
    "arc_length": (_check_arc_length, 1e-10, 1),
    "volume_jacobian": (_check_volume_jacobian, 1e-9, 5),
    "triangle": (_check_triangle, 1e-12, 1),
}

#: Milliseconds one fold of each check takes at --trials 1000 (median of 15 on a 2-core Intel
#: Xeon host, CPython 3.11).  ``run_suite`` reads it only to order its queue, heaviest first;
#: a check missing here costs 1.
_COST_MS = {
    "cayley_roundtrip": 6.7, "closure": 3.7, "kernel": 9.0, "group_law": 10.2,
    "factorization": 11.6, "split_assemble": 10.4, "reduction": 5.6,
    "reduction_invariance": 8.0, "isometry": 7.6, "pythagoras": 4.1,
    "cross_ratio_invariance": 12.3, "metric_base": 1.7, "metric_invariance": 2.3,
    "geodesic_endpoints": 8.8, "geodesic_reversal": 9.2, "ode_residual": 1.1,
    "arc_length": 21.1, "volume_jacobian": 2.3, "triangle": 5.4,
}


def _fold(check: Callable[[random.Random], Sequence[float]], rng: random.Random, trials: int) -> float:
    """The one trial loop: the worst residual of ``trials`` runs of ``check`` on ``rng``, folded
    as ``max``, except that a NaN once seen is kept (``max(0.0, nan)`` is 0.0, a false PASS)."""
    worst = 0.0
    for _ in range(trials):
        for r in check(rng):
            if worst == worst and not r <= worst:  # larger, or the first NaN
                worst = r
    return worst


def _workers() -> int:
    """One process per usable CPU, at most one per check; 1 where forking is missing or unsafe."""
    if not hasattr(os, "fork") or threading.active_count() > 1:  # a threaded fork can deadlock
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(cpus, len(SUITE))


def _drain(todo: int, outbox: int, seed: int, suite: list) -> None:
    """Take check indices off the queue one at a time until it is empty; fold each and write
    ``(index, worst)`` to the outbox.  A check that raises writes nothing."""
    while index := os.read(todo, 1):
        name, check, _, n = suite[index[0]]
        try:
            os.write(outbox, struct.pack("<Bd", index[0], _fold(check, _rng(seed, name), n)))
        except Exception:
            pass  # run_suite folds it again


def run_suite(seed: int, trials: int) -> list[CheckResult]:
    """Fold every check on its own deterministic stream and report them in ``SUITE`` order.

    The check indices, heaviest first by ``_COST_MS``, fill a pipe whose write end is closed
    before ``_workers()`` processes, the caller one of them, drain it (with one, the caller
    drains it alone).  Each process takes the next check as it finishes one, so the caller keeps
    folding whatever speed a child gets, and a slow child holds the run up by at most the one
    check it is folding.  A child's residual crosses exactly as a ``<Bd`` double, NaN and inf
    too.  A check without a result (it raised, or its process died) is folded again here once
    every child is reaped; if the caller leaves by an exception, it kills its children first."""
    suite = [(name, check, tolerance, max(1, trials // divisor))
             for name, (check, tolerance, divisor) in SUITE.items()]
    todo, fill = os.pipe()
    costs = [_COST_MS.get(name, 1.0) for name, *_ in suite]
    os.write(fill, bytes(sorted(range(len(suite)), key=costs.__getitem__, reverse=True)))
    os.close(fill)
    inbox, outbox = os.pipe()
    pids = []
    try:
        for _ in range(_workers() - 1):
            pid = os.fork()
            if pid == 0:
                try:
                    _drain(todo, outbox, seed, suite)
                finally:
                    os._exit(0)  # never the parent's stdio flush or atexit handlers
            pids.append(pid)
        _drain(todo, outbox, seed, suite)
    except BaseException:
        for pid in pids:
            os.kill(pid, 9)  # SIGKILL, whose number POSIX fixes (os.fork is POSIX only)
        raise
    finally:
        os.close(outbox)
        os.close(todo)
        for pid in pids:
            os.waitpid(pid, 0)
        with open(inbox, "rb") as replies:
            found = dict(struct.iter_unpack("<Bd", replies.read()))
    return [CheckResult(name, found[i] if i in found else _fold(check, _rng(seed, name), n), tolerance, n)
            for i, (name, check, tolerance, n) in enumerate(suite)]

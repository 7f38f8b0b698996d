"""Exact relations of the product structure, asserted with ``==`` on floats.

The space is a product of two half-planes, so the factor swap (w1, w2) -> (w2, w1), the
reflection w -> -conj(w) in each factor and the dilation w -> 4^k w in each factor are
isometries that floating point carries exactly: a negation, a conjugation and a product
with a power of two round nothing while the result stays in the normal range.  An
operation whose formula is symmetric and homogeneous maps them to bit-identical results,
so each relation is an oracle with a tolerance of 0 and no reference arithmetic.  The
draws are the sampler's and ``exact``'s named regimes; a refusal agrees only with the
same refusal.  The pair operations (``distance``, ``distance_params``, whose pair the swap
reverses, the cross ratio, a geodesic point and ``reduce_pair``'s lambdas) are also carried
by dilations out to the edges of the float range, keeping those that scale exactly.  A
motion is carried by conjugation: the swap exchanges its factors, the reflection negates
each factor's off-diagonal entries, and a dilation scales them by powers of two.
"""

import cmath
import math
import random

import exact

from bisiegel.domain import HPoint, cayley_to_disc, cayley_to_halfspace, random_hpoint
from bisiegel.errors import DomainViolation, NumericalBreakdown
from bisiegel.geometry import (
    connect,
    cross_ratio_eigenvalues,
    distance,
    distance_params,
    metric_form,
    volume_density,
)
from bisiegel.group import Sl2Matrix, apply, assemble, random_motion, reduce_pair, split
from bisiegel.verify import _random_tangent


def _draws() -> list:
    """Sampler points, then ``exact.signed`` at 10^[-3, 3] and 10^[-9, 9] and ``exact.tall``."""
    rng = random.Random(5)
    points = [random_hpoint(rng) for _ in range(4000)]
    for draw in (lambda: exact.signed(rng, -3, 3), lambda: exact.signed(rng, -9, 9), lambda: exact.tall(rng)):
        points += [HPoint.from_factors(*draw()) for _ in range(2000)]
    return points


POINTS = _draws()
PAIRS = list(zip(POINTS[::2], POINTS[1::2]))


def outcome(f, *args):
    """``f(*args)``, or ``NumericalBreakdown`` where an image falls inside the margin."""
    try:
        return f(*args)
    except NumericalBreakdown:
        return NumericalBreakdown


def test_cayley_to_disc_commutes_with_the_swap_and_the_reflection():
    # (w - i)/(w + i) of -conj(w) is conj of that of w: the disc sees the reflection as u -> conj(u).
    refused = 0
    for p in POINTS:
        u = outcome(cayley_to_disc, p)
        swapped = outcome(cayley_to_disc, HPoint.from_factors(p.w2, p.w1))
        mirrored = outcome(cayley_to_disc, HPoint.from_factors(-p.w1.conjugate(), -p.w2.conjugate()))
        if u is NumericalBreakdown:
            assert swapped is mirrored is NumericalBreakdown, p
            refused += 1
            continue
        assert swapped == (u[1], u[0]), p
        assert mirrored == (u[0].conjugate(), u[1].conjugate()), p
    assert 0 < refused < len(POINTS) / 10  # the far regime reaches the margin


def test_cayley_to_halfspace_commutes_with_the_swap_and_the_reflection():
    # The images of the draws, then factors 10^U[-11.9, 0] inside the unit circle.
    discs = [u for u in map(lambda p: outcome(cayley_to_disc, p), POINTS) if u is not NumericalBreakdown]
    rng = random.Random(6)
    discs += [tuple(cmath.rect(1.0 - 10.0 ** rng.uniform(-11.9, 0.0), rng.uniform(-math.pi, math.pi))
                    for _ in range(2)) for _ in range(2000)]
    refused = 0
    for u1, u2 in discs:
        p = outcome(cayley_to_halfspace, u1, u2)
        swapped = outcome(cayley_to_halfspace, u2, u1)
        mirrored = outcome(cayley_to_halfspace, u1.conjugate(), u2.conjugate())
        if p is NumericalBreakdown:
            assert swapped is mirrored is NumericalBreakdown, (u1, u2)
            refused += 1
            continue
        assert swapped == HPoint.from_factors(p.w2, p.w1), (u1, u2)
        assert mirrored == HPoint.from_factors(-p.w1.conjugate(), -p.w2.conjugate()), (u1, u2)
    assert 0 < refused < len(discs) / 10


def test_volume_density_scales_exactly_under_the_factor_dilations():
    # Dilating the factors by 2^a and 2^b (a, b even: each a motion diag(2^(a/2), 2^(-a/2)))
    # scales the density (2 / (h1 h2))^2 by exactly 2^(-2a - 2b), once the square is one product.
    rng, kept = random.Random(1), 0
    for _ in range(20000):
        p = random_hpoint(rng)
        a, b = 2 * rng.randint(-20, 20), 2 * rng.randint(-20, 20)
        try:
            q = HPoint.from_factors(complex(math.ldexp(p.w1.real, a), math.ldexp(p.w1.imag, a)),
                                    complex(math.ldexp(p.w2.real, b), math.ldexp(p.w2.imag, b)))
        except DomainViolation:  # a height dilated below the margin
            continue
        kept += 1
        assert volume_density(q) == math.ldexp(volume_density(p), -2 * a - 2 * b), (p, a, b)
    assert kept > 19000


def _scale(w: complex, a: int) -> complex:
    """w * 2^a, part by part; an ``OverflowError`` past the float range."""
    return complex(math.ldexp(w.real, a), math.ldexp(w.imag, a))


def _dilated(p: HPoint, a: int, b: int):
    """``p`` with its factors dilated by 2^a and 2^b, or None where that is not exact: a
    part overflows or loses bits below the normal range, or a height enters the margin."""
    try:
        w1, w2 = _scale(p.w1, a), _scale(p.w2, b)
        if (_scale(w1, -a), _scale(w2, -b)) == (p.w1, p.w2):
            return HPoint.from_factors(w1, w2)
    except (OverflowError, DomainViolation):
        pass
    return None


def _pair_ops(p: HPoint, q: HPoint) -> tuple:
    """``distance``, ``distance_params``, the cross ratio, the factors of the point at 0.37 of
    the geodesic and ``reduce_pair``'s lambdas (``NumericalBreakdown`` where it refuses)."""
    spec = connect(p, q)
    x = spec.point(0.37 * spec.s0)
    red = outcome(reduce_pair, p, q)
    lambdas = red if red is NumericalBreakdown else (red.lambda1, red.lambda2)
    return distance(p, q), distance_params(p, q), cross_ratio_eigenvalues(p, q), (x.w1, x.w2), lambdas


def _carried(ops: tuple, move, swaps: bool = False) -> tuple:
    """``ops`` of a pair as the isometry ``move`` (on factor pairs) carries them."""
    dist, params, cross, (w1, w2), lambdas = ops
    return dist, params[::-1] if swaps else params, cross, move(w1, w2), lambdas


def _swap(w1: complex, w2: complex) -> tuple:
    return w2, w1


def _mirror(w1: complex, w2: complex) -> tuple:
    return -w1.conjugate(), -w2.conjugate()


def _dilation(a: int, b: int):
    return lambda w1, w2: (_scale(w1, a), _scale(w2, b))


def test_pair_operations_commute_with_the_swap_the_reflection_and_the_dilations():
    rng, dilated = random.Random(8), 0
    for p, q in PAIRS:
        ops = _pair_ops(p, q)
        for move, swaps in ((_swap, True), (_mirror, False)):
            moved = _pair_ops(HPoint.from_factors(*move(p.w1, p.w2)), HPoint.from_factors(*move(q.w1, q.w2)))
            assert moved == _carried(ops, move, swaps), (p, q, move)
        a, b = 2 * rng.randint(-20, 20), 2 * rng.randint(-20, 20)
        pd, qd = _dilated(p, a, b), _dilated(q, a, b)
        if pd is None or qd is None:  # a height dilated into the margin
            continue
        dilated += 1
        assert _pair_ops(pd, qd) == _carried(ops, _dilation(a, b)), (p, q, a, b)
    assert dilated > 0.8 * len(PAIRS)  # the tall draws' lowest heights dilate into the margin


def test_pair_operations_hold_under_far_dilations():
    # Past |w| near 2^512 the transport's derived sum (1 + x^2 + y^2) / y overflows; its
    # entries do not, so reduce_pair resolves every pair here, with the undilated lambdas.
    rng, kept = random.Random(7), 0
    for _ in range(4000):
        p, q = random_hpoint(rng), random_hpoint(rng)
        a, b = 2 * rng.randint(-500, 500), 2 * rng.randint(-500, 500)
        pd, qd = _dilated(p, a, b), _dilated(q, a, b)
        if pd is None or qd is None:
            continue
        kept += 1
        ops = _pair_ops(p, q)
        assert ops[4] is not NumericalBreakdown
        assert _pair_ops(pd, qd) == _carried(ops, _dilation(a, b)), (p, q, a, b)
    assert kept == 1071


def _motion_draws() -> list:
    """3000 draws of two sampler motions and a sampler point, in that order."""
    rng = random.Random(3)
    return [(random_motion(rng), random_motion(rng), random_hpoint(rng)) for _ in range(3000)]


MOTIONS = _motion_draws()


def _swapped(m):
    """The motion (m2, m1, eps): ``m`` conjugated by the factor swap."""
    f1, f2 = split(m)
    return assemble(f2, f1, m.eps)


def _mirrored(m):
    """Each factor (a, -b, -c, d): ``m`` conjugated by the reflection."""
    return assemble(*(Sl2Matrix(f.a, -f.b, -f.c, f.d) for f in split(m)), m.eps)


def _conjugated(f, t: int, s: int) -> Sl2Matrix:
    """diag(2^(t/2), 2^(-t/2)) f diag(2^(-s/2), 2^(s/2)) for even t and s: the factor that
    takes a point dilated by 2^s to its image under ``f`` dilated by 2^t."""
    return Sl2Matrix(math.ldexp(f.a, (t - s) // 2), math.ldexp(f.b, (t + s) // 2),
                     math.ldexp(f.c, -(t + s) // 2), math.ldexp(f.d, (s - t) // 2))


def _dilated_motion(m, a: int, b: int):
    """``m`` conjugated by the factor dilations 2^a and 2^b; where eps = -1 each factor lands
    in the other slot, so its two scales cross."""
    f1, f2 = split(m)
    (t1, s1), (t2, s2) = ((a, a), (b, b)) if m.eps == 1 else ((b, a), (a, b))
    return assemble(_conjugated(f1, t1, s1), _conjugated(f2, t2, s2), m.eps)


def test_apply_and_compose_commute_with_the_swap_and_the_reflection():
    for m1, m2, p in MOTIONS:
        image, product = apply(m1, p), m1 @ m2  # no sampler draw's image is refused
        for move, carry in ((_swap, _swapped), (_mirror, _mirrored)):
            moved = apply(carry(m1), HPoint.from_factors(*move(p.w1, p.w2)))
            assert moved == HPoint.from_factors(*move(image.w1, image.w2)), (m1, p, move)
            assert carry(m1) @ carry(m2) == carry(product), (m1, m2, move)


def test_apply_and_compose_commute_with_the_dilations():
    # apply refuses a dilated image exactly where the dilated exact image is inside the margin.
    rng, kept, refused = random.Random(4), 0, 0
    for m1, m2, p in MOTIONS:
        a, b = 2 * rng.randint(-20, 20), 2 * rng.randint(-20, 20)
        pd = _dilated(p, a, b)
        if pd is None:  # a height dilated into the margin
            continue
        kept += 1
        d1, d2 = _dilated_motion(m1, a, b), _dilated_motion(m2, a, b)
        image = _dilated(apply(m1, p), a, b)
        refused += image is None
        assert outcome(apply, d1, pd) == (NumericalBreakdown if image is None else image), (m1, p, a, b)
        assert d1 @ d2 == _dilated_motion(m1 @ m2, a, b), (m1, m2, a, b)
    assert kept > 0.95 * len(MOTIONS) and 0 < refused < kept / 10


def test_metric_form_commutes_with_the_swap_and_the_reflection():
    # The swap (tau, z) -> (tau, -z) carries the tangent (dtau, dz) to (dtau, -dz); the
    # reflection Z -> -conj(Z) carries it to (-conj(dtau), -conj(dz)).
    rng = random.Random(9)
    for p in POINTS + [random_hpoint(rng) for _ in range(10000)]:
        dtau, dz = _random_tangent(rng)
        form = metric_form(p, dtau, dz)
        assert metric_form(HPoint.from_factors(p.w2, p.w1), dtau, -dz) == form, (p, dtau, dz)
        mirrored = HPoint.from_factors(-p.w1.conjugate(), -p.w2.conjugate())
        assert metric_form(mirrored, -dtau.conjugate(), -dz.conjugate()) == form, (p, dtau, dz)

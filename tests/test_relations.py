"""Exact relations of the product structure, asserted with ``==`` on floats.

The space is a product of two half-planes, so the factor swap (w1, w2) -> (w2, w1), the
reflection w -> -conj(w) in each factor and the dilation w -> 4^k w in each factor are
isometries that floating point carries exactly: a negation, a conjugation and a product
with a power of two round nothing while the result stays in the normal range.  An
operation whose formula is symmetric and homogeneous maps them to bit-identical results,
so each relation is an oracle with a tolerance of 0 and no reference arithmetic.  The
draws are the sampler's and ``exact``'s named regimes; a refusal agrees only with the
same refusal.
"""

import cmath
import math
import random

import exact

from bisiegel.domain import HPoint, cayley_to_disc, cayley_to_halfspace, random_hpoint
from bisiegel.errors import DomainViolation, NumericalBreakdown
from bisiegel.geometry import volume_density


def _draws() -> list:
    """Sampler points, then ``exact.signed`` at 10^[-3, 3] and 10^[-9, 9] and ``exact.tall``."""
    rng = random.Random(5)
    points = [random_hpoint(rng) for _ in range(4000)]
    for draw in (lambda: exact.signed(rng, -3, 3), lambda: exact.signed(rng, -9, 9), lambda: exact.tall(rng)):
        points += [HPoint.from_factors(*draw()) for _ in range(2000)]
    return points


POINTS = _draws()


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

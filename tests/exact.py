"""Exact references and named draws of the tests, in the standard library only.

A point is its factor pair (w1, w2) of complex numbers.  Nothing here imports
``bisiegel``, so the references stay independent of the code they check.  Every
``decimal`` reference works at 60 digits and returns Decimals; each draw names
the order in which it consumes its stream, so a seed gives the same points.
"""

import math
from decimal import Context, Decimal, localcontext

_CTX = Context(prec=60)


def chords(p, q) -> list:
    """sinh(d/2) = |w - w'| / (2 sqrt(y y')) per factor of the points p, q."""
    with localcontext(_CTX):
        out = []
        for a, b in zip(p, q):
            dx, dy = Decimal(a.real) - Decimal(b.real), Decimal(a.imag) - Decimal(b.imag)
            out.append((dx * dx + dy * dy).sqrt() / (2 * (Decimal(a.imag) * Decimal(b.imag)).sqrt()))
        return out


def dilation(s: Decimal) -> Decimal:
    """The factor dilation e^d = (s + sqrt(1 + s^2))^2 of the chord s = sinh(d/2)."""
    with localcontext(_CTX):
        return (s + (s * s + 1).sqrt()) ** 2


def lambdas(p, q) -> tuple:
    """The canonical (lambda1, lambda2): half the sum and the difference of the two dilations."""
    with localcontext(_CTX):
        big, small = sorted(map(dilation, chords(p, q)), reverse=True)
        return (big + small) / 2, (big - small) / 2


def distance(p, q) -> Decimal:
    """The root-sum-square of the two factor distances ln(e^d)."""
    with localcontext(_CTX):
        return sum(dilation(s).ln() ** 2 for s in chords(p, q)).sqrt()


def hyp_distance(u, v) -> Decimal:
    """Half-plane distance of the (re, im) pairs u, v as ln(1 + q/2 + sqrt(q + q^2/4)),
    q = |u - v|^2 / (Im u Im v): no cancellation for near points."""
    with localcontext(_CTX):
        x1, y1, x2, y2 = map(Decimal, (*u, *v))
        q = ((x1 - x2) ** 2 + (y1 - y2) ** 2) / (y1 * y2)
        return (1 + q / 2 + (q + q * q / 4).sqrt()).ln()


def image(m, w: complex) -> tuple:
    """(a w + b) / (c w + d) of the float entries m = (a, b, c, d), as an (re, im) pair."""
    with localcontext(_CTX):
        a, b, c, d, x, y = map(Decimal, (*m, w.real, w.imag))
        num, den = (a * x + b, a * y), (c * x + d, c * y)
        norm = den[0] ** 2 + den[1] ** 2
        return (num[0] * den[0] + num[1] * den[1]) / norm, (num[1] * den[0] - num[0] * den[1]) / norm


def signed(rng, lo: float, hi: float) -> tuple:
    """Factors sign * 10^U[lo, hi] + i 10^U[lo, hi]; each draws its sign, then the
    offset's exponent, then the height's."""
    def factor() -> complex:
        sign = rng.choice((-1.0, 1.0))
        return complex(sign * 10.0 ** rng.uniform(lo, hi), 10.0 ** rng.uniform(lo, hi))

    return factor(), factor()


def tall(rng) -> tuple:
    """Factors with offsets U[-5, 5] and heights 10^U[-6, 6]; each draws its offset, then
    the height's exponent."""
    return tuple(complex(rng.uniform(-5.0, 5.0), 10.0 ** rng.uniform(-6.0, 6.0)) for _ in range(2))


def near(rng, factors, lo: float, hi: float) -> tuple:
    """``factors`` each moved by 10^U[lo, hi] of its height in a direction U[0, 2 pi);
    the exponent is drawn first, then one direction per factor."""
    rel = 10.0 ** rng.uniform(lo, hi)
    turns = [rng.uniform(0.0, 2.0 * math.pi) for _ in factors]
    return tuple(w + rel * w.imag * complex(math.cos(t), math.sin(t)) for w, t in zip(factors, turns))


def geodesic_point(f1: complex, f2: complex, t) -> tuple:
    """The point at fraction t (a float or a Decimal) of the half-plane geodesic from f1
    to f2, as an (re, im) pair: x + y (dx sig(t) + i v) / (y sig(t) + v sig(1 - t)) for
    the start x + iy, the offset dx and height v of the end, and sig(t) = sinh(dt) /
    sinh(d) of their distance d (Beardon, The Geometry of Discrete Groups, 1983, 7.2).
    Past t = 1/2 it starts from f2 at 1 - t, so either end is returned as it was given."""
    with localcontext(_CTX):
        t = Decimal(t)
        if t > Decimal(0.5):
            f1, f2, t = f2, f1, 1 - t
        x, y, x2, v = map(Decimal, (f1.real, f1.imag, f2.real, f2.imag))
        d = hyp_distance((f1.real, f1.imag), (f2.real, f2.imag))
        if d == 0 or t == 0:
            return x, y

        def sig(f):
            return ((d * f).exp() - (-d * f).exp()) / (d.exp() - (-d).exp())

        a, b = sig(t), sig(1 - t)
        k = y * a + v * b
        return x + y * (x2 - x) * a / k, y * v / k

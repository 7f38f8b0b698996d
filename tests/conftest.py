import random

import pytest

from bisiegel import HalfPlanePoint, HPoint, Mat4R


def hp(w: complex) -> HalfPlanePoint:
    """Half-plane point from a complex number."""
    return HalfPlanePoint(w.real, w.imag)


def entries(m) -> tuple[float, float, float, float]:
    """A 2x2 factor as the (a, b, c, d) tuple the half-plane oracle takes."""
    return (m.a, m.b, m.c, m.d)


def point_gap(p: HPoint, q: HPoint) -> float:
    return max(abs(p.tau - q.tau), abs(p.z - q.z))


def extreme_pair(rng):
    """Two points with factor heights and offsets 10^[-11.5, 307.5], offsets of either sign."""
    def draw():
        sign = rng.choice((-1.0, 1.0))
        return complex(sign * 10.0 ** rng.uniform(-11.5, 307.5), 10.0 ** rng.uniform(-11.5, 307.5))

    return tuple(HPoint.from_factors(draw(), draw()) for _ in range(2))


# --------------------------------------------------------------------------
# Literal 4x4 references.  The library stores only the 4x4 record; these
# helpers compute on its rows and wrap each result in a Mat4R, so a
# non-finite entry raises NumericalBreakdown.


def mul4(*ms: Mat4R) -> Mat4R:
    """Product, associated left to right; each entry sums its four terms left
    to right, the order ``classify``'s closed-form residuals reproduce."""
    out = ms[0]
    for m in ms[1:]:
        cols = tuple(zip(*m.rows))
        out = Mat4R(
            tuple(
                tuple(a * e + b * f + c * g + d * h for e, f, g, h in cols)
                for a, b, c, d in out.rows
            )
        )
    return out


def scale4(m: Mat4R, s: float) -> Mat4R:
    return Mat4R(tuple(tuple(s * x for x in row) for row in m.rows))


def transpose(m: Mat4R) -> Mat4R:
    return Mat4R(tuple(zip(*m.rows)))


def max_abs4(m: Mat4R) -> float:
    return max(abs(x) for row in m.rows for x in row)


def gap4(x: Mat4R, y: Mat4R) -> float:
    """Max entrywise |x - y|."""
    return max_abs4(Mat4R(tuple(tuple(p - q for p, q in zip(r, s)) for r, s in zip(x.rows, y.rows))))


IDENTITY_4 = Mat4R(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))

#: Exchange involution Q on R^4: swaps the two coordinates of each half.
EXCHANGE_4 = Mat4R(((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)))

#: +-I and +-Q: the 4x4 matrices that act as the identity.
KERNEL_4 = (IDENTITY_4, scale4(IDENTITY_4, -1.0), EXCHANGE_4, scale4(EXCHANGE_4, -1.0))


@pytest.fixture
def rng():
    """Fresh deterministic stream per test."""
    return random.Random(20240613)

import random

import pytest

from bisiegel import HalfPlanePoint, HPoint, Mat2C, Mat4R


def hp(w: complex) -> HalfPlanePoint:
    """Half-plane point from a complex number."""
    return HalfPlanePoint(w.real, w.imag)


def entries(m) -> tuple[float, float, float, float]:
    """A 2x2 factor as the (a, b, c, d) tuple the half-plane oracle takes."""
    return (m.a, m.b, m.c, m.d)


def transpose(m):
    """Transpose of a Mat2C or Mat4R; only the tests' matrix references need it."""
    if isinstance(m, Mat2C):
        return Mat2C(m.a, m.c, m.b, m.d)
    return Mat4R(tuple(zip(*m.rows)))


def point_gap(p: HPoint, q: HPoint) -> float:
    return max(abs(p.tau - q.tau), abs(p.z - q.z))


@pytest.fixture
def rng():
    """Fresh deterministic stream per test."""
    return random.Random(20240613)

import math
import random

import pytest

from bisiegel import Mat2C, Mat4R, SingularMatrix, Tolerance
from bisiegel.errors import NumericalBreakdown
from bisiegel.numkit import DEFAULT_TOL, max_abs_diff

from conftest import transpose

TOL = DEFAULT_TOL.abs_eps


def test_tolerance_defaults_and_validation():
    tol = Tolerance()
    assert tol.abs_eps == 1e-10 and tol.dom_eps == 1e-12
    with pytest.raises(ValueError):
        Tolerance(abs_eps=1e-12, dom_eps=1e-10)
    with pytest.raises(ValueError):
        Tolerance(abs_eps=2.0)


def test_inverse_identity():
    assert max_abs_diff(Mat2C.identity().inverse(), Mat2C.identity()) <= TOL


def test_inverse_scalar_diagonal():
    m = Mat2C(2j, 0, 0, 2j)
    assert max_abs_diff(m.inverse(), Mat2C(-0.5j, 0, 0, -0.5j)) <= TOL


def test_inverse_unipotent():
    m = Mat2C(1, 1, 0, 1)
    assert max_abs_diff(m.inverse(), Mat2C(1, -1, 0, 1)) <= TOL


def test_inverse_rejects_singular():
    with pytest.raises(SingularMatrix):
        Mat2C(1, 1, 1, 1).inverse()


def test_inverse_involution_property():
    rng = random.Random(101)
    tol = Tolerance()
    for _ in range(200):
        m = Mat2C(*(complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(4)))
        if abs(m.det()) < 1e-3:
            continue
        assert max_abs_diff(m.inverse().inverse(), m) <= 10 * tol.abs_eps


def test_det_multiplicative():
    rng = random.Random(202)
    for _ in range(200):
        a = Mat2C(*(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(4)))
        b = Mat2C(*(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(4)))
        lhs = (a @ b).det()
        rhs = a.det() * b.det()
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_max_abs_diff_examples():
    eye = Mat2C.identity()
    assert max_abs_diff(eye, eye) == 0.0
    assert max_abs_diff(eye, eye + Mat2C.identity().scale(1e-6)) == pytest.approx(1e-6)
    assert max_abs_diff(Mat2C.identity().scale(1e-12), Mat2C.identity().scale(2e-12)) <= TOL
    m = Mat4R(((0.0, 3.0, 0.0, 0.0),) + ((0.0, 0.0, 0.0, 0.0),) * 3)
    assert max_abs_diff(m, Mat4R.identity()) == 3.0


def test_nonfinite_entries_rejected():
    with pytest.raises(NumericalBreakdown):
        Mat2C(float("nan"), 0, 0, 1)
    with pytest.raises(NumericalBreakdown):
        Mat4R(((float("inf"), 0, 0, 0),) + ((0.0, 0.0, 0.0, 0.0),) * 3)


def test_mat4r_product_and_transpose():
    rng = random.Random(303)
    a = Mat4R(tuple(tuple(rng.uniform(-1, 1) for _ in range(4)) for _ in range(4)))
    b = Mat4R(tuple(tuple(rng.uniform(-1, 1) for _ in range(4)) for _ in range(4)))
    # (AB)^T = B^T A^T
    assert max_abs_diff(transpose(a @ b), transpose(b) @ transpose(a)) < 1e-14
    assert max_abs_diff(a @ Mat4R.identity(), a) == 0.0


def test_mat4r_blocks_roundtrip():
    rng = random.Random(404)
    m = Mat4R(tuple(tuple(rng.uniform(-1, 1) for _ in range(4)) for _ in range(4)))
    ul, ur, ll, lr = m.blocks()
    rows = (
        (ul.a, ul.b, ur.a, ur.b),
        (ul.c, ul.d, ur.c, ur.d),
        (ll.a, ll.b, lr.a, lr.b),
        (ll.c, ll.d, lr.c, lr.d),
    )
    assert tuple(tuple(x.real for x in row) for row in rows) == m.rows


def test_bisym_constructor():
    m = Mat2C.bisym(2j, 1j)
    assert m.a == m.d == 2j and m.b == m.c == 1j
    assert abs(m.trace() - 4j) == 0.0
    assert math.isclose(abs(m.det() - (-3.0)), 0.0, abs_tol=1e-15)

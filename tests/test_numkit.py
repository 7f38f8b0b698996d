"""The 4x4 record, and the literal matrix algebra of the
references: ``verify``'s 2x2 helpers and the tests' 4x4 helpers."""

import random

import numpy as np
import pytest

from bisiegel.domain import random_hpoint
from bisiegel.errors import NumericalBreakdown
from bisiegel.group import random_motion
from bisiegel.numkit import _ABS_EPS, Mat4R
from bisiegel.verify import (
    _inv,
    _mul,
    _reference_apply,
    _reference_cayley,
    _reference_cross_ratio,
)

from conftest import IDENTITY_4, gap4, mul4, scale4, transpose

TOL = _ABS_EPS
EYE = (1.0, 0.0, 0.0, 1.0)


def gap2(x, y) -> float:
    return max(abs(p - q) for p, q in zip(x, y))


def det2(x) -> complex:
    return x[0] * x[3] - x[1] * x[2]


def test_inverse_identity():
    assert gap2(_inv(EYE), EYE) <= TOL


def test_inverse_scalar_diagonal():
    assert gap2(_inv((2j, 0, 0, 2j)), (-0.5j, 0, 0, -0.5j)) <= TOL


def test_inverse_unipotent():
    assert gap2(_inv((1, 1, 0, 1)), (1, -1, 0, 1)) <= TOL


def test_inverse_involution_property():
    rng = random.Random(101)
    for _ in range(200):
        m = tuple(complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(4))
        if abs(det2(m)) < 1e-3:
            continue
        assert gap2(_inv(_inv(m)), m) <= 10 * TOL
        assert gap2(_mul(m, _inv(m)), EYE) <= 10 * TOL


def test_det_multiplicative():
    rng = random.Random(202)
    for _ in range(200):
        a = tuple(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(4))
        b = tuple(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(4))
        lhs = det2(_mul(a, b))
        rhs = det2(a) * det2(b)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_max_abs_diff_examples():
    assert gap4(IDENTITY_4, IDENTITY_4) == 0.0
    assert gap4(IDENTITY_4, scale4(IDENTITY_4, 1.0 + 1e-6)) == pytest.approx(1e-6)
    assert gap4(scale4(IDENTITY_4, 1e-12), scale4(IDENTITY_4, 2e-12)) <= TOL
    m = Mat4R(((0.0, 3.0, 0.0, 0.0),) + ((0.0, 0.0, 0.0, 0.0),) * 3)
    assert gap4(m, IDENTITY_4) == 3.0
    # A difference past the float range breaks down, as the record's entries do.
    big = scale4(IDENTITY_4, 1.5e308)
    with pytest.raises(NumericalBreakdown):
        gap4(big, scale4(big, -1.0))


def test_nonfinite_entries_rejected():
    with pytest.raises(NumericalBreakdown):
        Mat4R(((float("inf"), 0, 0, 0),) + ((0.0, 0.0, 0.0, 0.0),) * 3)
    with pytest.raises(ValueError):
        Mat4R(((1.0, 0.0, 0.0),) * 4)


def _with(i: int, j: int, x) -> tuple:
    """The 4x4 identity's rows with entry (i, j) replaced by ``x``."""
    return tuple(tuple(x if (r, c) == (i, j) else float(r == c) for c in range(4)) for r in range(4))


class _Unreadable:
    """A lazy row that fails while producing its entries."""

    def __iter__(self):
        yield 0.0
        raise ValueError("unreadable entry")


SHAPE = "Mat4R needs exactly 4 rows of 4 entries"
INF, NAN = float("inf"), float("nan")


@pytest.mark.parametrize("rows, exc, message", [
    (IDENTITY_4.rows[:3], ValueError, SHAPE),
    (IDENTITY_4.rows[:2] + ((0.0, 0.0, 1.0),) + IDENTITY_4.rows[3:], ValueError, SHAPE),
    (IDENTITY_4.rows[:1] + ((0.0, 1.0, 0.0, 0.0, 0.0),) + IDENTITY_4.rows[2:], ValueError, SHAPE),
    (IDENTITY_4.rows[:1] + (5,) + IDENTITY_4.rows[2:], TypeError, None),
    # A row's own error while it is read passes through; only a wrong count is the shape error.
    (IDENTITY_4.rows[:1] + (_Unreadable(),) + IDENTITY_4.rows[2:], ValueError, "unreadable entry"),
    (_with(2, 1, "x"), ValueError, None),
    (_with(0, 0, INF), NumericalBreakdown, "non-finite entry inf in 4x4 matrix"),
    (_with(3, 3, NAN), NumericalBreakdown, "non-finite entry nan in 4x4 matrix"),
    (_with(1, 2, -INF), NumericalBreakdown, "non-finite entry -inf in 4x4 matrix"),
    # The first non-finite entry in row-major order is the one named.
    (((1, 0, 0, 0), (0, 1, 0, INF), (NAN, 0, 1, 0), (0, 0, 0, 1)), NumericalBreakdown,
     "non-finite entry inf in 4x4 matrix"),
    (((1, 0, 0, NAN), (0, INF, 0, 0), (0, 0, 1, 0), (0, 0, 0, -INF)), NumericalBreakdown,
     "non-finite entry nan in 4x4 matrix"),
])
def test_mat4r_boundary_table(rows, exc, message):
    with pytest.raises(exc) as info:
        Mat4R(rows)
    if message is not None:
        assert str(info.value) == message


def test_mat4r_product_and_transpose():
    rng = random.Random(303)
    a = Mat4R(tuple(tuple(rng.uniform(-1, 1) for _ in range(4)) for _ in range(4)))
    b = Mat4R(tuple(tuple(rng.uniform(-1, 1) for _ in range(4)) for _ in range(4)))
    # (AB)^T = B^T A^T
    assert gap4(transpose(mul4(a, b)), mul4(transpose(b), transpose(a))) < 1e-14
    assert gap4(mul4(a, IDENTITY_4), a) == 0.0
    assert gap4(mul4(a, b), Mat4R(tuple(map(tuple, np.array(a.rows) @ np.array(b.rows))))) < 1e-14


# --------------------------------------------------------------------------
# The references against the same formulas evaluated with NumPy


def bisym(p: complex, q: complex) -> np.ndarray:
    return np.array([[p, q], [q, p]], dtype=complex)


def rel_gap(got, want) -> float:
    got, want = np.asarray(got, dtype=complex), np.asarray(want, dtype=complex)
    return float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300))


def test_reference_apply_matches_numpy():
    rng = random.Random(505)
    for _ in range(500):
        m, z = random_motion(rng), random_hpoint(rng)
        rows = np.array(m.m.rows)
        a, b, c, d = rows[:2, :2], rows[:2, 2:], rows[2:, :2], rows[2:, 2:]
        zm = bisym(z.tau, z.z)
        w = (a @ zm + b) @ np.linalg.inv(c @ zm + d)
        got = _reference_apply(m._rows(), z)
        want = ((w[0, 0] + w[1, 1]) / 2.0, (w[0, 1] + w[1, 0]) / 2.0)
        assert rel_gap((got.tau, got.z), want) <= 1e-12


def test_reference_cross_ratio_matches_numpy():
    rng = random.Random(606)
    inv = np.linalg.inv
    for _ in range(500):
        z, z1 = random_hpoint(rng), random_hpoint(rng)
        a, b = bisym(z.tau, z.z), bisym(z1.tau, z1.z)
        ac, bc = a.conj(), b.conj()
        want = (a - b) @ inv(a - bc) @ (ac - bc) @ inv(ac - b)
        assert rel_gap(_reference_cross_ratio(z, z1), want.reshape(4)) <= 1e-12


def test_reference_cayley_matches_numpy():
    rng = random.Random(707)
    eye = np.eye(2)
    for _ in range(500):
        z = random_hpoint(rng)
        zm = bisym(z.tau, z.z)
        w = (zm - 1j * eye) @ np.linalg.inv(zm + 1j * eye)
        z1, z2 = (w[0, 0] + w[1, 1]) / 2.0, (w[0, 1] + w[1, 0]) / 2.0
        assert rel_gap(_reference_cayley(z), (z1 + z2, z1 - z2)) <= 1e-12


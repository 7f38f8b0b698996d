import dataclasses
import math
import random
from decimal import Decimal, localcontext

import numpy as np
import pytest

from bisiegel.cli import _parse_epoint, _parse_hpoint
from bisiegel.domain import (
    EPoint,
    HPoint,
    _epoint,
    _hpoint,
    cayley_to_disc,
    cayley_to_halfspace,
    e_contains,
    h_contains,
    random_hpoint,
)
from bisiegel.errors import DomainViolation, NumericalBreakdown
from bisiegel.geometry import GeodesicSpec, Tangent, connect
from bisiegel.group import (
    MotionMatrix,
    ReducedPair,
    Sl2Matrix,
    StabilizerParams,
    _motion,
    _sl2,
    reduce_pair,
)
from bisiegel.numkit import DEFAULT_TOL, Mat4R, Tolerance
from bisiegel.verify import CheckResult, _reference_cayley

from conftest import (
    EXCHANGE_4,
    IDENTITY_4,
    SYMPLECTIC_FORM,
    extreme_pair,
    gap4,
    mul4,
    point_gap,
    transpose,
)


def scalar_cayley(w: complex) -> complex:
    """Independent per-factor oracle for the matrix Cayley map."""
    return (w - 1j) / (w + 1j)


# --------------------------------------------------------------------------
# Structural constants


def test_exchange_matrices_are_involutions():
    exchange_2 = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(exchange_2 @ exchange_2, np.eye(2))
    assert gap4(mul4(EXCHANGE_4, EXCHANGE_4), IDENTITY_4) == 0.0
    # Each 2x2 block of the 4x4 involution is the 2x2 exchange or zero.
    q = np.array(EXCHANGE_4.rows)
    assert np.array_equal(q[:2, :2], exchange_2) and np.array_equal(q[2:, 2:], exchange_2)
    assert not q[:2, 2:].any() and not q[2:, :2].any()


def test_diag_rot_is_orthogonal_and_diagonalizes():
    # The 45-degree rotation behind the factor coordinates (tau + z, tau - z).
    r = 1.0 / math.sqrt(2.0)
    rot = np.array([[r, -r], [r, r]])
    assert np.max(np.abs(rot @ rot.T - np.eye(2))) <= DEFAULT_TOL.abs_eps
    z = np.array([[2j, 1j], [1j, 2j]])
    d = rot.T @ z @ rot
    assert abs(d[0, 1]) < 1e-15 and abs(d[1, 0]) < 1e-15
    assert abs(d[0, 0] - 3j) < 1e-15 and abs(d[1, 1] - 1j) < 1e-15


def test_block_constants_are_symplectic():
    j = SYMPLECTIC_FORM
    assert gap4(mul4(transpose(EXCHANGE_4), j, EXCHANGE_4), j) == 0.0


# --------------------------------------------------------------------------
# Membership


def test_h_contains_examples():
    assert h_contains(1j, 0)
    assert h_contains(2j, 1j)
    assert not h_contains(1j, 1j)


def test_e_contains_examples():
    assert e_contains(0, 0)
    assert e_contains(0.25, 0.25)
    assert not e_contains(0.5, 0.5)


def test_membership_rejects_nonfinite():
    assert not h_contains(complex(0, float("inf")), 0)
    assert not h_contains(float("nan"), 0)
    assert not e_contains(float("nan"), 0)


def test_point_constructors_enforce_membership():
    with pytest.raises(DomainViolation):
        HPoint(1j, 1j)
    with pytest.raises(DomainViolation):
        EPoint(0.6, 0.6)
    with pytest.raises(DomainViolation):
        EPoint.from_factors(1.0, 0.0)
    for w in (1e-13j, complex(math.inf, 1.0), complex(0.0, math.inf), complex(math.nan, 1.0)):
        with pytest.raises(DomainViolation):
            HPoint.from_factors(1j, w)
    with pytest.raises(DomainViolation):
        HPoint(complex(1e308, 1.0), complex(1e308, 0.0))  # tau + z overflows


NONFINITE_PARTS = [
    complex(math.nan, 1.0), complex(0.5, math.nan),
    complex(math.inf, 1.0), complex(-math.inf, 1.0),
    complex(0.5, math.inf), complex(0.5, -math.inf),
]


@pytest.mark.parametrize("tol", [DEFAULT_TOL, Tolerance(1e-6, 1e-6)])
def test_half_space_membership_on_each_side_of_the_margin(tol):
    # h_contains, from_factors and the constructor answer through one test:
    # a factor at Im w = dom_eps is out, the next float up is in.
    eps = tol.dom_eps
    cases = [(complex(0.5, eps), False), (complex(0.5, math.nextafter(eps, math.inf)), True)]
    for w, inside in cases + [(w, False) for w in NONFINITE_PARTS]:
        assert h_contains(w, 0.0, tol) is inside  # both factors are w
        for pair in ((w, 1j), (1j, w)):
            if inside:
                assert HPoint.from_factors(*pair, tol).factors() == pair
                assert _hpoint(*pair, eps).factors() == pair
                continue
            with pytest.raises(DomainViolation, match="outside the half-space model"):
                HPoint.from_factors(*pair, tol)
            with pytest.raises(DomainViolation, match="outside the half-space model"):
                _hpoint(*pair, eps)


@pytest.mark.parametrize("tol", [DEFAULT_TOL, Tolerance(1e-6, 1e-6)])
def test_disc_membership_on_each_side_of_the_margin(tol):
    # A factor at |u| = 1 - dom_eps is out, the next float down is in.
    edge = 1.0 - tol.dom_eps
    cases = [(complex(-edge, 0.0), False), (complex(-math.nextafter(edge, 0.0), 0.0), True)]
    for u, inside in cases + [(u, False) for u in NONFINITE_PARTS]:
        assert e_contains(u, 0.0, tol) is inside  # both factors are u
        for pair in ((u, 0.5j), (0.5j, u)):
            if inside:
                assert EPoint.from_factors(*pair, tol).factors() == pair
                assert _epoint(*pair, tol.dom_eps).factors() == pair
                continue
            with pytest.raises(DomainViolation, match="outside the bounded model"):
                EPoint.from_factors(*pair, tol)
            with pytest.raises(DomainViolation, match="outside the bounded model"):
                _epoint(*pair, tol.dom_eps)


def test_records_are_slotted_and_frozen():
    z1, z2 = HPoint(2j, 1j), HPoint(1j, 0.5j)
    i2, shear = Sl2Matrix(1.0, 0.0, 0.0, 1.0), Sl2Matrix(1.0, 2.0, 0.0, 1.0)
    red, spec = reduce_pair(z1, z2), connect(z1, z2)
    records = (
        DEFAULT_TOL, Mat4R(IDENTITY_4.rows), z1, HPoint.from_factors(1j, 2j),
        EPoint(0.25, 0.1), EPoint.from_factors(0.1, 0.2j), i2, _motion(i2, shear, -1),
        StabilizerParams(1.0, 1j, -1), red, Tangent(1.0, 0.5j), spec, CheckResult("c", 0.0, 1.0, 1),
    )
    assert len({type(r) for r in records}) == 11
    for r in records:
        assert not hasattr(r, "__dict__")
        for f in dataclasses.fields(r):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(r, f.name, 0j)
    # Each trusted build (object.__new__ and the slot setters) equals, and hashes
    # like, its checked twin; the sums and differences of these points are exact.
    twins = (
        (_sl2(1.0, 2.0, 0.0, 1.0), shear),
        (_motion(i2, shear, -1), MotionMatrix(i2, shear, -1)),
        (red, ReducedPair(red.mover, red.lambda1, red.lambda2)),
        (_hpoint(3j, 1j, DEFAULT_TOL.dom_eps), z1),
        (_epoint(0.5 + 0j, 0.25 + 0j, DEFAULT_TOL.dom_eps), EPoint(0.375, 0.125)),
    )
    for trusted, checked in twins:
        assert type(trusted) is type(checked)
        assert trusted == checked and hash(trusted) == hash(checked)
    # GeodesicSpec has no checked constructor: connect's record compares and
    # hashes by its five public fields, as the dataclass defines them.
    key = (spec.z1, spec.z2, spec.s0, spec.d1, spec.d2)
    assert type(spec) is GeodesicSpec and key[:2] == (z1, z2)
    assert spec == connect(z1, z2) and hash(spec) == hash(key)


def test_point_from_tau_z_equals_point_from_factors(rng):
    for _ in range(100):
        tau = complex(rng.uniform(-5.0, 5.0), rng.uniform(2.0, 10.0))
        z = complex(rng.uniform(-5.0, 5.0), rng.uniform(-1.0, 1.0))
        p, q = HPoint(tau, z), HPoint.from_factors(tau + z, tau - z)
        assert p == q and hash(p) == hash(q)
        u1, u2 = complex(rng.uniform(-0.3, 0.3), 0.1), complex(0.2, rng.uniform(-0.3, 0.3))
        e, f = EPoint(u1, u2), EPoint.from_factors(u1 + u2, u1 - u2)
        assert e == f and hash(e) == hash(f)


# --------------------------------------------------------------------------
# Cayley maps


def test_cayley_base_points():
    assert point_gap_e(cayley_to_disc(HPoint(1j, 0)), EPoint(0, 0)) == 0.0
    assert point_gap(cayley_to_halfspace(EPoint(0, 0)), HPoint(1j, 0)) == 0.0


def point_gap_e(p: EPoint, q: EPoint) -> float:
    return max(abs(p.z1 - q.z1), abs(p.z2 - q.z2))


def test_cayley_scalar_diagonal():
    got = cayley_to_disc(HPoint(2j, 0))
    assert abs(got.z1 - 1.0 / 3.0) < 1e-15 and abs(got.z2) < 1e-15
    back = cayley_to_halfspace(EPoint(1.0 / 3.0, 0))
    assert point_gap(back, HPoint(2j, 0)) < 1e-15


def test_cayley_derived_value_against_factor_oracle():
    z = HPoint(2j, 1j)
    plus, minus = z.factors()
    w_plus, w_minus = scalar_cayley(plus), scalar_cayley(minus)
    expected = EPoint((w_plus + w_minus) / 2, (w_plus - w_minus) / 2)
    got = cayley_to_disc(z)
    assert point_gap_e(got, expected) < 1e-15
    assert abs(got.z1 - 0.25) < 1e-15 and abs(got.z2 - 0.25) < 1e-15
    assert point_gap(cayley_to_halfspace(EPoint(0.25, 0.25)), z) < 1e-14


def test_cayley_matches_factor_oracle_randomly(rng):
    # The library map is the scalar one per factor; the reference is the
    # literal matrix map (Z - iI)(Z + iI)^-1.
    for _ in range(300):
        z = random_hpoint(rng)
        got, want = cayley_to_disc(z), _reference_cayley(z)
        for g, w in zip(got.factors(), want.factors()):
            assert abs(g - w) < 1e-12


def test_cayley_roundtrip_seeded():
    rng = random.Random(987)
    worst = 0.0
    for _ in range(1000):
        z = random_hpoint(rng)
        worst = max(worst, point_gap(cayley_to_halfspace(cayley_to_disc(z)), z))
    assert worst <= 1e-10


def test_cayley_preserves_membership(rng):
    for _ in range(300):
        z = random_hpoint(rng)
        w = cayley_to_disc(z)  # EPoint constructor re-checks membership
        assert e_contains(w.z1, w.z2)
        back = cayley_to_halfspace(w)
        assert h_contains(back.tau, back.z)


def test_cayley_to_disc_inside_the_margin_is_numerical():
    # |w|^2 / Im w = 1e14: the image factor lies 2e-14 inside the unit circle,
    # within the dom_eps margin.  The point is valid, so this is a numerical
    # limit.
    with pytest.raises(NumericalBreakdown, match="dom_eps margin"):
        cayley_to_disc(HPoint(1e7 + 1j, 0.0))
    with pytest.raises(DomainViolation):
        HPoint(1e7 + 1e-13j, 0.0)  # invalid input stays a validation error


def test_cayley_to_disc_denominator_exceeds_one():
    # For Im w > 0, |w + i| > 1, so the product of the two factor denominators
    # of cayley_to_disc exceeds 1 > dom_eps: a singularity guard there could
    # never fire.  Checked in floats on sampler points and on extreme pairs
    # (where the product may overflow to inf, or to a NaN part beside an
    # infinite one, whose modulus is inf).
    rng = random.Random(31)
    points = [random_hpoint(rng) for _ in range(2000)]
    points += [z for _ in range(1000) for z in extreme_pair(rng)]
    for z in points:
        w1, w2 = z.factors()
        assert abs((w1 + 1j) * (w2 + 1j)) > 1.0
        try:
            cayley_to_disc(z)
        except NumericalBreakdown as exc:  # an image inside the margin, never a singularity
            assert "dom_eps margin" in str(exc)


@pytest.mark.parametrize("gap", [1e-5, 1e-6, 1e-7, 1e-11])
def test_cayley_to_halfspace_near_the_circle_is_its_value(gap):
    # u1 = u2 = 1 - gap: the guard |det(I - Z0)| <= dom_eps on the product of
    # the two denominators passed gap = 1e-5 and 1e-6 (products 1e-10, 1e-12
    # in exact arithmetic) and refused 1e-7 and 1e-11.  The image is
    # i (1 + u) / (1 - u) per factor, up to 2e11 i.
    u = 1.0 - gap
    w1, w2 = cayley_to_halfspace(EPoint(u, 0.0)).factors()
    with localcontext() as ctx:
        ctx.prec = 50
        want = (1 + Decimal(u)) / (1 - Decimal(u))
    assert w1 == w2 and w1.real == 0.0
    assert abs(Decimal(w1.imag) - want) <= Decimal(2**-52) * want


def test_cayley_to_halfspace_inside_the_margin_is_numerical():
    # A factor at radius 1 - 1.5e-12 maps to height 7.5e-13, below dom_eps.
    z = -(1.0 - 1.5e-12) / 2.0
    with pytest.raises(NumericalBreakdown, match="dom_eps margin"):
        cayley_to_halfspace(EPoint(z, z))
    with pytest.raises(DomainViolation):
        EPoint(0.5, 0.5)  # invalid input stays a validation error


# --------------------------------------------------------------------------
# Factor coordinates


@pytest.mark.parametrize(
    "z1,z2,w1,w2",
    [
        (0, 0, 0, 0),
        (0.25, 0.25, 0.5, 0),
        (0.3, -0.1, 0.2, 0.4),
    ],
)
def test_disc_factor_examples(z1, z2, w1, w2):
    w = EPoint(z1, z2).factors()
    assert w[0] == pytest.approx(w1, abs=1e-15)
    assert w[1] == pytest.approx(w2, abs=1e-15)
    back = EPoint.from_factors(w1, w2)
    assert abs(back.z1 - z1) < 1e-15 and abs(back.z2 - z2) < 1e-15


def test_disc_factors_roundtrip(rng):
    for _ in range(200):
        z = cayley_to_disc(random_hpoint(rng))
        there = z.factors()
        assert EPoint.from_factors(*there) == z
        back = EPoint(z.z1, z.z2)
        assert abs(back.z1 - z.z1) < 1e-15 and abs(back.z2 - z.z2) < 1e-15
        again = back.factors()
        assert abs(again[0] - there[0]) < 1e-15 and abs(again[1] - there[1]) < 1e-15


def test_from_factors_stores_its_arguments():
    # Heights 20 orders apart: through (tau, z) the smaller factor kept only
    # the digits above the larger factor's rounding.
    rng = random.Random(3)
    for _ in range(200):
        w1 = complex(rng.uniform(-5.0, 5.0), 1.0)
        w2 = complex(rng.uniform(-5.0, 5.0), 1e20)
        for pair in ((w1, w2), (w2, w1)):
            assert HPoint.from_factors(*pair).factors() == pair
    u = (complex(0.3, 1e-17), complex(-0.9, 0.1))
    assert EPoint.from_factors(*u).factors() == u


# --------------------------------------------------------------------------
# Serialization and sampling


def test_json_roundtrip():
    # Through the command-line readers, the one place points are read from JSON.
    z = HPoint(complex(0.5, 2.0), complex(-0.25, 1.0))
    assert _parse_hpoint(z.to_json_dict()) == z
    # Exact where z1 +- z2 round to nothing; otherwise see the next test.
    w = EPoint(complex(0.125, -0.25), complex(0.0625, 0.1875))
    assert _parse_epoint(w.to_json_dict()) == w


def test_json_roundtrip_moves_factors_by_rounding_only():
    # JSON carries (tau, z): each rounds by u of the larger factor, and the
    # sum read back by u more, so each real and imaginary part of a factor
    # moves by at most 2u times that part's larger value over the two factors.
    u = 2.0**-53
    rng = random.Random(8)
    for _ in range(3000):
        w = [
            complex(rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-3.0, 3.0))
            for _ in range(2)
        ]
        p = HPoint.from_factors(*w)
        e = EPoint.from_factors(*(f / (1.0 + abs(f)) for f in w))
        for q, parse in ((p, _parse_hpoint), (e, _parse_epoint)):
            back = parse(q.to_json_dict()).factors()
            re_max = max(abs(f.real) for f in q.factors())
            im_max = max(abs(f.imag) for f in q.factors())
            for got, want in zip(back, q.factors()):
                assert abs(got.real - want.real) <= 2 * u * re_max
                assert abs(got.imag - want.imag) <= 2 * u * im_max


def test_random_hpoint_is_deterministic_and_in_range():
    a = [random_hpoint(random.Random(5)) for _ in range(50)]
    b = [random_hpoint(random.Random(5)) for _ in range(50)]
    assert a == b
    for z in a:
        plus, minus = z.factors()
        for f in (plus, minus):
            assert 0.1 <= f.imag <= 10.0
            assert -5.0 <= f.real <= 5.0

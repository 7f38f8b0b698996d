import copy
import dataclasses
import math
import pickle
import random
import struct
from decimal import Decimal, localcontext

import exact
import numpy as np
import pytest

from bisiegel import cli, domain, geometry, group, hyperbolic, numkit, verify
from bisiegel.cli import _disc_json, _parse_epoint, _parse_hpoint
from bisiegel.domain import (
    HPoint,
    _epoint,
    _hpoint,
    cayley_to_disc,
    cayley_to_halfspace,
    random_hpoint,
)
from bisiegel.errors import DomainViolation, NotUnimodular, NumericalBreakdown, UnitModulusViolation
from bisiegel.geometry import GeodesicSpec, connect
from bisiegel.group import (
    MotionMatrix,
    ReducedPair,
    Sl2Matrix,
    _motion,
    _sl2,
    assemble,
    reduce_pair,
    split,
    stabilizer_of_iI,
)
from bisiegel.numkit import _ABS_EPS, Mat4R
from bisiegel.verify import CheckResult, _points_gap, _reference_cayley

from conftest import (
    EXCHANGE_4,
    IDENTITY_4,
    SYMPLECTIC_FORM,
    extreme_pair,
    gap4,
    mul4,
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
    assert np.max(np.abs(rot @ rot.T - np.eye(2))) <= _ABS_EPS
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
    HPoint(1j, 0)
    HPoint(2j, 1j)
    with pytest.raises(DomainViolation) as exc:
        HPoint(1j, 1j)
    assert str(exc.value) == "(tau=1j, z=1j) is outside the half-space model"


def test_e_contains_examples():
    # The disc reader takes (z1, z2) and returns the factors (z1 + z2, z1 - z2).
    assert _parse_epoint({"z1": [0, 0], "z2": [0, 0]}) == (0j, 0j)
    assert _parse_epoint({"z1": [0.25, 0], "z2": [0.25, 0]}) == (0.5, 0j)
    with pytest.raises(DomainViolation) as exc:
        _parse_epoint({"z1": [0.5, 0], "z2": [0.5, 0]})
    assert str(exc.value) == "(z1=(0.5+0j), z2=(0.5+0j)) is outside the bounded model"


def test_membership_rejects_nonfinite():
    for tau in (complex(0, float("inf")), float("nan")):
        with pytest.raises(DomainViolation, match="outside the half-space model"):
            HPoint(tau, 0)
    with pytest.raises(DomainViolation, match="outside the bounded model"):
        cayley_to_halfspace(float("nan"), 0)


def test_point_constructors_enforce_membership():
    with pytest.raises(DomainViolation):
        HPoint(1j, 1j)
    for u in (1.2, 1.0, 1.0 - 1e-12, complex(0.6, 0.8)):  # |u| at or past 1 - _DOM_EPS
        with pytest.raises(DomainViolation, match="outside the bounded model"):
            cayley_to_halfspace(0.0, u)
    for w in (1e-13j, complex(math.inf, 1.0), complex(0.0, math.inf), complex(math.nan, 1.0)):
        with pytest.raises(DomainViolation):
            HPoint.from_factors(1j, w)
    with pytest.raises(DomainViolation):
        HPoint(complex(1e308, 1.0), complex(1e308, 0.0))  # tau + z overflows


def _with_entry(v):
    rows = [list(row) for row in IDENTITY_4.rows]
    rows[2][1] = v
    return rows


@pytest.mark.parametrize("build, name, error", [
    (lambda v: HPoint(v, 1j), "tau", DomainViolation),
    (lambda v: HPoint(1j, v), "z", DomainViolation),
    (lambda v: HPoint.from_factors(v, 1j), "w1", DomainViolation),
    (lambda v: _epoint(v, 0), "u1", DomainViolation),
    (lambda v: cayley_to_halfspace(0, v), "u2", DomainViolation),
    (lambda v: stabilizer_of_iI(v, 1), "xi1", UnitModulusViolation),
    (lambda v: Sl2Matrix(v, 0, 0, 1), "entry a", NotUnimodular),
    (lambda v: Mat4R(_with_entry(v)), r"4x4 entry \(2, 1\)", NumericalBreakdown),
], ids=["HPoint tau", "HPoint z", "HPoint.from_factors", "_epoint", "cayley_to_halfspace",
        "stabilizer_of_iI", "Sl2Matrix", "Mat4R"])
def test_builders_refuse_an_int_past_the_float_range_as_they_refuse_inf(build, name, error):
    # float() and complex() of such an int raise OverflowError; each builder raises the class
    # that inf gets there, naming the argument without its digits (repr of 10**5000 raises).
    with pytest.raises(error):
        build(math.inf)
    for v in (10**400, -(10**400), 10**5000):
        with pytest.raises(error, match=rf"^{name} is past the float range$"):
            build(v)


NONFINITE_PARTS = [
    complex(math.nan, 1.0), complex(0.5, math.nan),
    complex(math.inf, 1.0), complex(-math.inf, 1.0),
    complex(0.5, math.inf), complex(0.5, -math.inf),
]


def parts(pair) -> tuple[float, ...]:
    """The parts (x1, y1, x2, y2) of a factor pair, as ``_hpoint`` takes them beside the factors."""
    return tuple(p for w in pair for p in (w.real, w.imag))


#: The margin as the library sets it, and raised to 1e-6 through the module constant.
MARGINS = pytest.mark.parametrize("eps", [1e-12, 1e-6], ids=["tol0", "tol1"])


@MARGINS
def test_half_space_membership_on_each_side_of_the_margin(eps, monkeypatch):
    # from_factors and the private builder answer through one test, on the factors' parts:
    # a factor at Im w = _DOM_EPS is out, the next float up is in.
    monkeypatch.setattr("bisiegel.domain._DOM_EPS", eps)
    cases = [(complex(0.5, eps), False), (complex(0.5, math.nextafter(eps, math.inf)), True)]
    for w, inside in cases + [(w, False) for w in NONFINITE_PARTS]:
        for pair in ((w, w), (w, 1j), (1j, w)):
            if inside:
                assert HPoint.from_factors(*pair).factors() == pair
                assert _hpoint(*pair, *parts(pair)).factors() == pair
                continue
            with pytest.raises(DomainViolation, match="outside the half-space model"):
                HPoint.from_factors(*pair)
            with pytest.raises(DomainViolation, match="outside the half-space model"):
                _hpoint(*pair, *parts(pair))


@MARGINS
def test_disc_membership_on_each_side_of_the_margin(eps, monkeypatch):
    # A factor at |u| = 1 - _DOM_EPS is out, the next float down is in; the inverse Cayley
    # map gates its factors through the same test.
    monkeypatch.setattr("bisiegel.domain._DOM_EPS", eps)
    edge = 1.0 - eps
    cases = [(complex(-edge, 0.0), False), (complex(-math.nextafter(edge, 0.0), 0.0), True)]
    for u, inside in cases + [(u, False) for u in NONFINITE_PARTS]:
        for pair in ((u, u), (u, 0.5j), (0.5j, u)):
            if inside:
                assert _epoint(*pair) == pair
                continue
            with pytest.raises(DomainViolation, match="outside the bounded model"):
                cayley_to_halfspace(*pair)
            with pytest.raises(DomainViolation, match="outside the bounded model"):
                _epoint(*pair)


def test_records_are_slotted_and_frozen():
    z1, z2 = HPoint(2j, 1j), HPoint(1j, 0.5j)
    i2, shear = Sl2Matrix(1.0, 0.0, 0.0, 1.0), Sl2Matrix(1.0, 2.0, 0.0, 1.0)
    red, spec = reduce_pair(z1, z2), connect(z1, z2)
    records = (
        Mat4R(IDENTITY_4.rows), z1, HPoint.from_factors(1j, 2j),
        i2, assemble(i2, shear, -1),
        red, spec, CheckResult("c", 0.0, 1.0, 1),
    )
    # Every dataclass that a module exports is a record here, so none escapes the checks.
    exported = [getattr(m, n) for m in (cli, domain, geometry, group, hyperbolic, numkit, verify) for n in m.__all__]
    assert {type(r) for r in records} == {c for c in exported if isinstance(c, type) and dataclasses.is_dataclass(c)}
    assert len({type(r) for r in records}) == 7
    for r in records:
        assert not hasattr(r, "__dict__")
        for f in dataclasses.fields(r):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(r, f.name, 0j)
    # A motion stores its factors' entries; split rebuilds records equal to the given ones.
    motion = assemble(i2, shear, -1)
    assert (*split(motion), motion.eps) == (i2, shear, -1)
    # Each trusted build (object.__new__ and the slot setters) equals, and hashes
    # like, its checked twin; the sums and differences of these points are exact.
    twins = (
        (_sl2(1.0, 2.0, 0.0, 1.0), shear),
        (_motion((1.0, 0.0, 0.0, 1.0), (1.0, 2.0, 0.0, 1.0), -1), assemble(i2, shear, -1)),
        (red, ReducedPair(red.mover, red.lambda1, red.lambda2)),
        (_hpoint(3j, 1j, 0.0, 3.0, 0.0, 1.0), z1),
    )
    for trusted, checked in twins:
        assert type(trusted) is type(checked)
        assert trusted == checked and hash(trusted) == hash(checked)
    # GeodesicSpec has no checked constructor: connect's record compares and
    # hashes by its length and legs, as the dataclass defines them; the legs
    # hold both ends, so the reversed segment is another record.
    key = (spec.s0, spec._legs)
    assert type(spec) is GeodesicSpec and spec.point(0.0) == z1
    assert spec == connect(z1, z2) and hash(spec) == hash(key)
    assert spec != connect(z2, z1)
    # Neither record can be built hollow: calling the class names its builders.
    builders = {MotionMatrix: r"assemble\(m1, m2, eps\) or classify\(m\)", GeodesicSpec: r"connect\(z1, z2\)"}
    for cls, named in builders.items():
        for args, kwargs in (((), {}), ((motion._e1, motion._e2, -1), {}), ((), {"s0": 1.0, "_legs": spec._legs})):
            with pytest.raises(TypeError, match=rf"^{cls.__name__} has no constructor: {named} builds one$"):
                cls(*args, **kwargs)
    with pytest.raises(TypeError, match="^MotionMatrix has no constructor"):
        dataclasses.replace(motion)


def test_point_constructors_build_one_record_each(monkeypatch):
    # Every point record comes from the builder's _new (object.__new__), or from
    # type.__call__ when a constructor allocates its own: a point that is not the one
    # _new returned is a second record.  Each constructor builds exactly one.
    made, new = [], domain._new

    def counting_new(cls):
        made.append(new(cls))
        return made[-1]

    monkeypatch.setattr(domain, "_new", counting_new)
    for build in (lambda: HPoint(2j, 1j), lambda: HPoint.from_factors(3j, 1j)):
        made.clear()
        point = build()
        assert len(made) == 1 and point is made[0]


def test_points_copy_and_pickle_through_their_factors():
    # __new__ takes (tau, z); a copy or an unpickled point is rebuilt from the factors
    # as stored, not from the rounded readout.
    point = HPoint.from_factors(0.1 + 3j, -0.0 + 1e-3j)
    for back in (copy.copy(point), copy.deepcopy(point), pickle.loads(pickle.dumps(point))):
        assert type(back) is type(point) and back == point
        assert [struct.pack("<dd", f.real, f.imag) for f in back.factors()] == [
            struct.pack("<dd", f.real, f.imag) for f in point.factors()]
    # A motion and a segment, whose classes raise when called, copy and pickle through
    # object.__new__ and their slots, as their builders fill them.
    z1, z2 = HPoint(2j, 1j), HPoint(1j, 0.5j)
    for record in (assemble(Sl2Matrix(1.0, 2.0, 0.0, 1.0), Sl2Matrix(2.0, 1.0, 1.0, 1.0), -1), connect(z1, z2)):
        for back in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert type(back) is type(record) and back == record
    assert dataclasses.asdict(_motion((1.0, 2.0, 0.0, 1.0), (1.0, 0.0, 0.0, 1.0), 1)) == {
        "_e1": (1.0, 2.0, 0.0, 1.0), "_e2": (1.0, 0.0, 0.0, 1.0), "eps": 1}


def test_readout_is_the_halved_sum_and_difference_bit_for_bit():
    # _readout halves each factor once; it gives w1/2 + w2/2 and w1/2 - w2/2, the form
    # with each factor halved per use, bit for bit (signed zeros too), and no part
    # overflows for factors near the top of the float range.  tau, z and the JSON form
    # read it.
    def bits(*parts):
        return struct.pack(f"<{len(parts)}d", *parts)

    rng, big = random.Random(39), 1.7e308
    points = [random_hpoint(rng) for _ in range(500)]
    points += [HPoint.from_factors(*exact.signed(rng, -9, 9)) for _ in range(500)]
    points += [HPoint.from_factors(complex(x1, y1), complex(x2, y2)) for x1, y1, x2, y2 in (
        (big, big, big, big), (big, big, -big, big), (-big, 1.0, big, 1e-9), (0.0, big, -0.0, big))]
    for p in points:
        (w1, w2), (tau, z) = p.factors(), p._readout()
        old_tau, old_z = w1 / 2.0 + w2 / 2.0, w1 / 2.0 - w2 / 2.0
        assert bits(tau.real, tau.imag, z.real, z.imag) == bits(old_tau.real, old_tau.imag, old_z.real, old_z.imag)
        assert all(map(math.isfinite, (tau.real, tau.imag, z.real, z.imag)))
        assert bits(p.tau.real, p.tau.imag, p.z.real, p.z.imag) == bits(tau.real, tau.imag, z.real, z.imag)
        doc = p.to_json_dict()
        assert bits(*doc["tau"], *doc["z"]) == bits(tau.real, tau.imag, z.real, z.imag)


def test_point_from_tau_z_equals_point_from_factors(rng):
    for _ in range(100):
        tau = complex(rng.uniform(-5.0, 5.0), rng.uniform(2.0, 10.0))
        z = complex(rng.uniform(-5.0, 5.0), rng.uniform(-1.0, 1.0))
        p, q = HPoint(tau, z), HPoint.from_factors(tau + z, tau - z)
        assert p == q and hash(p) == hash(q)


# --------------------------------------------------------------------------
# Cayley maps


def test_cayley_base_points():
    assert cayley_to_disc(HPoint(1j, 0)) == (0j, 0j)
    assert _points_gap(cayley_to_halfspace(0, 0), HPoint(1j, 0)) == 0.0


def test_cayley_scalar_diagonal():
    u1, u2 = cayley_to_disc(HPoint(2j, 0))
    assert abs(u1 - 1.0 / 3.0) < 1e-15 and abs(u2 - 1.0 / 3.0) < 1e-15
    back = cayley_to_halfspace(1.0 / 3.0, 1.0 / 3.0)
    assert _points_gap(back, HPoint(2j, 0)) < 1e-15


def test_cayley_derived_value_against_factor_oracle():
    z = HPoint(2j, 1j)
    plus, minus = z.factors()
    u1, u2 = cayley_to_disc(z)
    assert abs(u1 - scalar_cayley(plus)) < 1e-15 and abs(u2 - scalar_cayley(minus)) < 1e-15
    assert abs(u1 - 0.5) < 1e-15 and abs(u2) < 1e-15  # (z1, z2) = (0.25, 0.25)
    assert _points_gap(cayley_to_halfspace(0.5, 0.0), z) < 1e-14


def test_cayley_matches_factor_oracle_randomly(rng):
    # The library map is the scalar one per factor; the reference is the
    # literal matrix map (Z - iI)(Z + iI)^-1.
    for _ in range(300):
        z = random_hpoint(rng)
        got, want = cayley_to_disc(z), _reference_cayley(z)
        for g, w in zip(got, want):
            assert abs(g - w) < 1e-12


def test_cayley_roundtrip_seeded():
    assert verify._fold(verify._check_cayley_roundtrip, random.Random(987), 1000) <= 1e-10


def test_cayley_preserves_membership(rng):
    for _ in range(300):
        z = random_hpoint(rng)
        u = cayley_to_disc(z)  # the map checks membership; the reader re-checks its JSON
        _parse_epoint(_disc_json(*u))
        back = cayley_to_halfspace(*u)
        HPoint(back.tau, back.z)


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
    w1, w2 = cayley_to_halfspace(u, u).factors()
    with localcontext() as ctx:
        ctx.prec = 50
        want = (1 + Decimal(u)) / (1 - Decimal(u))
    assert w1 == w2 and w1.real == 0.0
    assert abs(Decimal(w1.imag) - want) <= Decimal(2**-52) * want


def test_cayley_to_halfspace_inside_the_margin_is_numerical():
    # A factor at radius 1 - 1.5e-12 maps to height 7.5e-13, below dom_eps.
    with pytest.raises(NumericalBreakdown, match="dom_eps margin"):
        cayley_to_halfspace(-(1.0 - 1.5e-12), 0.0)
    with pytest.raises(DomainViolation):
        cayley_to_halfspace(1.0, 0.0)  # invalid input stays a validation error


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
    w = _parse_epoint({"z1": [z1, 0], "z2": [z2, 0]})
    assert w[0] == pytest.approx(w1, abs=1e-15)
    assert w[1] == pytest.approx(w2, abs=1e-15)
    back = _disc_json(complex(w1), complex(w2))
    assert abs(complex(*back["z1"]) - z1) < 1e-15 and abs(complex(*back["z2"]) - z2) < 1e-15


def test_disc_factors_roundtrip(rng):
    for _ in range(200):
        there = cayley_to_disc(random_hpoint(rng))
        assert _epoint(*there) == there
        again = _parse_epoint(_disc_json(*there))
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
    assert _epoint(*u) == u


# --------------------------------------------------------------------------
# Serialization and sampling


def test_json_roundtrip():
    # Through the command-line readers, the one place points are read from JSON.
    z = HPoint(complex(0.5, 2.0), complex(-0.25, 1.0))
    assert _parse_hpoint(z.to_json_dict()) == z
    # Exact where z1 +- z2 round to nothing; otherwise see the next test.
    u = (complex(0.1875, -0.0625), complex(0.0625, -0.4375))  # (z1, z2) = (0.125 - 0.25i, 0.0625 + 0.1875i)
    assert _parse_epoint(_disc_json(*u)) == u


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
        e = tuple(f / (1.0 + abs(f)) for f in w)
        for q, back in ((p.factors(), _parse_hpoint(p.to_json_dict()).factors()), (e, _parse_epoint(_disc_json(*e)))):
            re_max = max(abs(f.real) for f in q)
            im_max = max(abs(f.imag) for f in q)
            for got, want in zip(back, q):
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

import math
import random
from decimal import Decimal, localcontext

import pytest

from bisiegel import (
    HalfPlanePoint,
    hyp_distance,
    mobius,
    pair_lambda,
    random_sl2,
)
from bisiegel.errors import DomainViolation

from conftest import entries, hp


def test_halfplane_membership():
    with pytest.raises(DomainViolation):
        HalfPlanePoint(0.0, 0.0)
    with pytest.raises(DomainViolation):
        HalfPlanePoint(1.0, -1.0)


def test_mobius_examples():
    i = hp(1j)
    assert mobius((1.0, 0.0, 0.0, 1.0), i).as_complex() == 1j
    rot = (0.0, 1.0, -1.0, 0.0)
    assert abs(mobius(rot, i).as_complex() - 1j) < 1e-15
    shear = (1.0, 1.0, 0.0, 1.0)
    assert abs(mobius(shear, i).as_complex() - (1 + 1j)) < 1e-15


def test_mobius_height_transform(rng):
    for _ in range(200):
        m = random_sl2(rng)
        z = hp(complex(rng.uniform(-3, 3), rng.uniform(0.1, 5)))
        w = mobius(entries(m), z)
        denom = m.c * z.as_complex() + m.d
        assert w.y == pytest.approx(z.y / abs(denom) ** 2, rel=1e-12)


def test_pair_lambda_examples():
    assert pair_lambda(hp(1j), hp(1j)) == pytest.approx(1.0, abs=1e-15)
    assert pair_lambda(hp(1j), hp(2j)) == pytest.approx(2.0, abs=1e-14)
    assert pair_lambda(hp(1j), hp(1 + 1j)) == pytest.approx(
        (3.0 + math.sqrt(5.0)) / 2.0, abs=1e-14
    )


def test_pair_lambda_symmetric(rng):
    for _ in range(200):
        z1 = hp(complex(rng.uniform(-3, 3), rng.uniform(0.1, 5)))
        z2 = hp(complex(rng.uniform(-3, 3), rng.uniform(0.1, 5)))
        assert pair_lambda(z1, z2) == pair_lambda(z2, z1)


def test_hyp_distance_examples():
    assert hyp_distance(hp(1j), hp(1j)) == 0.0
    assert hyp_distance(hp(1j), hp(2j)) == pytest.approx(math.log(2.0), abs=1e-14)
    assert hyp_distance(hp(1j), hp(1 + 1j)) == pytest.approx(
        math.log((3.0 + math.sqrt(5.0)) / 2.0), abs=1e-14
    )


def test_hyp_distance_matches_arccosh_form(rng):
    # cosh d = R/2 with R the rational symmetric expression; kept as a test
    # so the oracle's internal route stays honest.
    for _ in range(200):
        z1 = hp(complex(rng.uniform(-3, 3), rng.uniform(0.1, 5)))
        z2 = hp(complex(rng.uniform(-3, 3), rng.uniform(0.1, 5)))
        r = z1.y / z2.y + z2.y / z1.y + (z1.x - z2.x) ** 2 / (z1.y * z2.y)
        assert hyp_distance(z1, z2) == pytest.approx(math.acosh(r / 2.0), abs=1e-11)


def test_hyp_distance_is_accurate_for_near_and_far_pairs():
    # Against a 60-digit reference ln(1 + q/2 + sqrt(q + q^2/4)), for shifts
    # from 1e-12 to 1e8 along each axis and diagonally: within 4 units of
    # rounding relative, so near pairs do not cancel to 0.
    u = 2.0**-53
    for k in range(-12, 9):
        for shift in (10.0**k, 3.7 * 10.0**k):
            for z1, z2 in (
                (hp(1j), hp(complex(shift, 1.0))),
                (hp(1j), hp(complex(0.0, 1.0 + shift))),
                (hp(0.3 + 2j), hp(complex(0.3 + shift, 2.0 + shift))),
            ):
                with localcontext() as ctx:
                    ctx.prec = 60
                    x1, y1, x2, y2 = map(Decimal, (z1.x, z1.y, z2.x, z2.y))
                    q = ((x1 - x2) ** 2 + (y1 - y2) ** 2) / (y1 * y2)
                    ref = (1 + q / 2 + (q + q * q / 4).sqrt()).ln()
                    err = abs(Decimal(hyp_distance(z1, z2)) - ref) / ref
                assert err <= 4 * u, (z1, z2, float(err) / u)


def test_mobius_invariance_of_distance(rng):
    for _ in range(200):
        m = entries(random_sl2(rng))
        z1 = hp(complex(rng.uniform(-3, 3), rng.uniform(0.1, 5)))
        z2 = hp(complex(rng.uniform(-3, 3), rng.uniform(0.1, 5)))
        assert abs(
            hyp_distance(mobius(m, z1), mobius(m, z2)) - hyp_distance(z1, z2)
        ) <= 1e-10


def test_pair_realization_through_normalizing_map(rng):
    # Send z1 to i, rotate the image of z2 onto the imaginary axis, and read
    # the height: it must be the pair dilation.
    for _ in range(200):
        z1 = hp(complex(rng.uniform(-3, 3), rng.uniform(0.1, 5)))
        z2 = hp(complex(rng.uniform(-3, 3), rng.uniform(0.1, 5)))
        ry = math.sqrt(z1.y)
        shear = (1.0 / ry, -z1.x / ry, 0.0, ry)  # z -> (z - x1) / y1, unimodular
        assert abs(mobius(shear, z1).as_complex() - 1j) <= 1e-13
        w = mobius(shear, z2).as_complex()
        r = abs((w - 1j) / (w + 1j))
        realized = (1.0 + r) / (1.0 - r)
        assert abs(realized - pair_lambda(z1, z2)) <= 1e-9


import math
import random
from decimal import Decimal, localcontext

import pytest

from bisiegel.group import random_sl2
from bisiegel.hyperbolic import hyp_distance

from conftest import entries, mobius


def test_mobius_examples():
    assert mobius((1.0, 0.0, 0.0, 1.0), 1j) == 1j
    rot = (0.0, 1.0, -1.0, 0.0)
    assert abs(mobius(rot, 1j) - 1j) < 1e-15
    shear = (1.0, 1.0, 0.0, 1.0)
    assert abs(mobius(shear, 1j) - (1 + 1j)) < 1e-15


def test_mobius_height_transform(rng):
    for _ in range(200):
        m = random_sl2(rng)
        z = complex(rng.uniform(-3, 3), rng.uniform(0.1, 5))
        w = mobius(entries(m), z)
        assert w.imag == pytest.approx(z.imag / abs(m.c * z + m.d) ** 2, rel=1e-12)


def test_hyp_distance_symmetric(rng):
    for _ in range(200):
        z1 = complex(rng.uniform(-3, 3), rng.uniform(0.1, 5))
        z2 = complex(rng.uniform(-3, 3), rng.uniform(0.1, 5))
        assert hyp_distance(z1, z2) == hyp_distance(z2, z1)


def test_hyp_distance_examples():
    assert hyp_distance(1j, 1j) == 0.0
    assert hyp_distance(1j, 2j) == pytest.approx(math.log(2.0), abs=1e-14)
    assert hyp_distance(1j, 1 + 1j) == pytest.approx(
        math.log((3.0 + math.sqrt(5.0)) / 2.0), abs=1e-14
    )


def test_hyp_distance_matches_arccosh_form(rng):
    # cosh d = R/2 with R the rational symmetric expression; kept as a test
    # so the oracle's internal route stays honest.
    for _ in range(200):
        z1 = complex(rng.uniform(-3, 3), rng.uniform(0.1, 5))
        z2 = complex(rng.uniform(-3, 3), rng.uniform(0.1, 5))
        r = z1.imag / z2.imag + z2.imag / z1.imag + (z1.real - z2.real) ** 2 / (z1.imag * z2.imag)
        assert hyp_distance(z1, z2) == pytest.approx(math.acosh(r / 2.0), abs=1e-11)


def test_hyp_distance_is_accurate_for_near_and_far_pairs():
    # Against a 60-digit reference ln(1 + q/2 + sqrt(q + q^2/4)), for shifts
    # from 1e-12 to 1e8 along each axis and diagonally: within 4 units of
    # rounding relative, so near pairs do not cancel to 0.
    u = 2.0**-53
    for k in range(-12, 9):
        for shift in (10.0**k, 3.7 * 10.0**k):
            for z1, z2 in (
                (1j, complex(shift, 1.0)),
                (1j, complex(0.0, 1.0 + shift)),
                (0.3 + 2j, complex(0.3 + shift, 2.0 + shift)),
            ):
                with localcontext() as ctx:
                    ctx.prec = 60
                    x1, y1, x2, y2 = map(Decimal, (z1.real, z1.imag, z2.real, z2.imag))
                    q = ((x1 - x2) ** 2 + (y1 - y2) ** 2) / (y1 * y2)
                    ref = (1 + q / 2 + (q + q * q / 4).sqrt()).ln()
                    err = abs(Decimal(hyp_distance(z1, z2)) - ref) / ref
                assert err <= 4 * u, (z1, z2, float(err) / u)


def test_mobius_invariance_of_distance(rng):
    for _ in range(200):
        m = entries(random_sl2(rng))
        z1 = complex(rng.uniform(-3, 3), rng.uniform(0.1, 5))
        z2 = complex(rng.uniform(-3, 3), rng.uniform(0.1, 5))
        assert abs(
            hyp_distance(mobius(m, z1), mobius(m, z2)) - hyp_distance(z1, z2)
        ) <= 1e-10


def test_pair_realization_through_normalizing_map(rng):
    # Send z1 to i, rotate the image of z2 onto the imaginary axis, and read
    # the height: it must be the pair dilation e^d.
    for _ in range(200):
        z1 = complex(rng.uniform(-3, 3), rng.uniform(0.1, 5))
        z2 = complex(rng.uniform(-3, 3), rng.uniform(0.1, 5))
        ry = math.sqrt(z1.imag)
        shear = (1.0 / ry, -z1.real / ry, 0.0, ry)  # z -> (z - x1) / y1, unimodular
        assert abs(mobius(shear, z1) - 1j) <= 1e-13
        w = mobius(shear, z2)
        r = abs((w - 1j) / (w + 1j))
        realized = (1.0 + r) / (1.0 - r)
        assert abs(realized - math.exp(hyp_distance(z1, z2))) <= 1e-9


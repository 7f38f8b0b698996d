import math
import random

import pytest

from bisiegel import (
    HalfPlanePoint,
    NonPositiveMu,
    ZeroParameter,
    dilation_link_residual,
    hyp_distance,
    map_to_imaginary,
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


@pytest.mark.parametrize(
    "z,mu",
    [(1j, 1.0), (2j, 2.0), (1 + 1j, 1.0)],
)
def test_map_to_imaginary_examples(z, mu):
    m = map_to_imaginary(hp(z), mu)
    a, b, c, d = m
    assert abs(a * d - b * c - 1.0) < 1e-12
    assert abs(mobius(m, hp(z)).as_complex() - mu * 1j) < 1e-12


def test_map_to_imaginary_trivial_matrices():
    assert map_to_imaginary(hp(1j), 1.0) == (1.0, 0.0, 0.0, 1.0)
    assert map_to_imaginary(hp(2j), 2.0) == pytest.approx((1.0, 0.0, 0.0, 1.0), abs=1e-15)
    assert map_to_imaginary(hp(1 + 1j), 1.0) == pytest.approx((1.0, -1.0, 0.0, 1.0), abs=1e-15)


def test_map_to_imaginary_with_rotation(rng):
    for _ in range(100):
        z = hp(complex(rng.uniform(-3, 3), rng.uniform(0.1, 5)))
        mu = rng.uniform(0.1, 5)
        theta = rng.uniform(0, 2 * math.pi)
        m = map_to_imaginary(z, mu, theta)
        assert abs(mobius(m, z).as_complex() - mu * 1j) < 1e-10


def test_map_to_imaginary_rejects_bad_mu():
    with pytest.raises(NonPositiveMu):
        map_to_imaginary(hp(1j), 0.0)
    with pytest.raises(NonPositiveMu):
        map_to_imaginary(hp(1j), -2.0)


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
        w = mobius(map_to_imaginary(z1, 1.0), z2).as_complex()
        r = abs((w - 1j) / (w + 1j))
        realized = (1.0 + r) / (1.0 - r)
        assert abs(realized - pair_lambda(z1, z2)) <= 1e-9


def test_dilation_link_residual_examples():
    assert dilation_link_residual(1.0, 1.0, 0.0, 0.0, 1.0) == 0.0
    # l1=1, l2=2, no shears: lam^2 + lam^-2 = 4 + 1/4 at lam = 2
    assert dilation_link_residual(1.0, 2.0, 0.0, 0.0, 2.0) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ZeroParameter):
        dilation_link_residual(0.0, 1.0, 0.0, 0.0, 1.0)


def _rotation_shear_decompose(g):
    """G = rot(theta) @ [[l, mu], [0, 1/l]] with l > 0."""
    l = math.hypot(g[0][0], g[1][0])
    ct, st = g[0][0] / l, -g[1][0] / l
    mu = ct * g[0][1] - st * g[1][1]
    return l, mu


def test_dilation_link_residual_on_consistent_tuples(rng):
    for _ in range(200):
        lam = math.exp(rng.uniform(0.05, 1.5))
        theta2 = rng.uniform(0, 2 * math.pi)
        l2 = math.exp(rng.uniform(-1, 1))
        mu2 = rng.uniform(-2, 2)
        ct, st = math.cos(theta2), math.sin(theta2)
        # G = diag(lam, 1/lam) @ rot(theta2) @ [[l2, mu2], [0, 1/l2]]
        g = (
            (lam * ct * l2, lam * (ct * mu2 + st / l2)),
            (-st * l2 / lam, (-st * mu2 + ct / l2) / lam),
        )
        l1, mu1 = _rotation_shear_decompose(g)
        assert dilation_link_residual(l1, l2, mu1, mu2, lam) <= 1e-10

import math
import random
import re
from decimal import Decimal, localcontext

import numpy as np
import pytest

from bisiegel.domain import HPoint, random_hpoint
from bisiegel.errors import (
    DegeneratePair,
    DomainViolation,
    NumericalBreakdown,
    OutOfRange,
)
from bisiegel.geometry import (
    Tangent,
    _chord,
    _tanh_sq,
    connect,
    cross_ratio_eigenvalues,
    distance,
    distance_params,
    geodesic,
    metric_form,
    volume_density,
)
from bisiegel.group import apply, random_motion
from bisiegel.hyperbolic import hyp_distance
from bisiegel.numkit import Tolerance
from bisiegel.verify import (
    _geodesic_ode_residual,
    _path_speed,
    _reference_cross_ratio,
)

from conftest import _path_length, _simpson, exact_chords, extreme_pair, point_gap

I_H = HPoint(1j, 0.0)
TWO_I = HPoint(2j, 0.0)
MIXED = HPoint(2j, 1j)


def bisym(p: complex, q: complex) -> np.ndarray:
    return np.array([[p, q], [q, p]], dtype=complex)


def random_tangent(rng):
    return Tangent(
        complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
        complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
    )


# --------------------------------------------------------------------------
# cross ratio


def test_cross_ratio_vanishes_on_the_diagonal():
    assert max(cross_ratio_eigenvalues(MIXED, MIXED)) < 1e-15


def test_cross_ratio_closed_value():
    # Both eigenvalues 1/9: the bi-symmetric cross ratio is I/9.
    for rho in cross_ratio_eigenvalues(I_H, TWO_I):
        assert abs(rho - 1.0 / 9.0) < 1e-15


def test_cross_ratio_eigenvalues_match_canonical_form():
    # For the canonical pair (iI, i*diag-form(lambda)) the eigenvalues are
    # ((l1 + l2 - 1) / (l1 + l2 + 1))^2 and ((l1 - l2 - 1) / (l1 - l2 + 1))^2.
    ev = cross_ratio_eigenvalues(I_H, MIXED)
    assert ev[0] == pytest.approx(0.25, abs=1e-14)  # ((3-1)/(3+1))^2
    assert ev[1] == pytest.approx(0.0, abs=1e-14)  # ((1-1)/(1+1))^2


def test_cross_ratio_eigenvalues_against_general_solver(rng):
    for _ in range(100):
        z1 = random_hpoint(rng)
        z2 = random_hpoint(rng)
        r = _reference_cross_ratio(z1, z2)
        ours = cross_ratio_eigenvalues(z1, z2)
        theirs = np.linalg.eigvals(np.array(r, dtype=complex).reshape(2, 2))
        theirs = sorted(theirs.real, reverse=True)
        assert ours[0] == pytest.approx(theirs[0], abs=1e-10)
        assert ours[1] == pytest.approx(theirs[1], abs=1e-10)
        assert -1e-12 <= ours[1] <= ours[0] < 1.0


def test_cross_ratio_trace_and_eigenvalue_invariance(rng):
    for _ in range(50):
        z1 = random_hpoint(rng)
        z2 = random_hpoint(rng)
        m = random_motion(rng)
        w1, w2 = apply(m, z1), apply(m, z2)
        e_before = cross_ratio_eigenvalues(z1, z2)
        e_after = cross_ratio_eigenvalues(w1, w2)
        # The trace is the eigenvalue sum.
        assert abs(sum(e_before) - sum(e_after)) <= 1e-8
        assert abs(e_before[0] - e_after[0]) <= 1e-8
        assert abs(e_before[1] - e_after[1]) <= 1e-8


# --------------------------------------------------------------------------
# metric


def test_metric_base_point_closed_form(rng):
    for _ in range(100):
        d = random_tangent(rng)
        expected = 2.0 * (
            d.dtau.real**2 + d.dtau.imag**2 + d.dz.real**2 + d.dz.imag**2
        )
        assert metric_form(I_H, d) == pytest.approx(expected, abs=1e-12)


def test_metric_simple_values():
    assert metric_form(I_H, Tangent(1.0, 0.0)) == pytest.approx(2.0, abs=1e-15)
    assert metric_form(MIXED, Tangent(0.0, 0.0)) == 0.0


def test_metric_factor_decomposition(rng):
    # tr(Y^-1 dZ Y^-1 conj(dZ)) splits as |df|^2 / Im(f)^2 over both factors.
    for _ in range(200):
        z = random_hpoint(rng)
        d = random_tangent(rng)
        f_plus, f_minus = z.factors()
        df_plus, df_minus = d.factors()
        expected = (
            abs(df_plus) ** 2 / f_plus.imag**2 + abs(df_minus) ** 2 / f_minus.imag**2
        )
        assert metric_form(z, d) == pytest.approx(expected, rel=1e-12)


def test_metric_form_matches_literal_trace(rng):
    # tr(Y^-1 dZ Y^-1 conj(dZ)) with the 2x2 matrices, computed literally.
    for _ in range(200):
        z = random_hpoint(rng)
        d = random_tangent(rng)
        y_inv = np.linalg.inv(bisym(z.tau.imag, z.z.imag))
        dz = bisym(d.dtau, d.dz)
        literal = np.trace(y_inv @ dz @ y_inv @ dz.conj())
        assert abs(literal.imag) <= 1e-12 * abs(literal)
        assert metric_form(z, d) == pytest.approx(literal.real, rel=1e-12)


def test_metric_positivity(rng):
    for _ in range(1000):
        z = random_hpoint(rng)
        d = random_tangent(rng)
        if max(abs(d.dtau), abs(d.dz)) < 1e-12:
            continue
        assert metric_form(z, d) > 0.0


def test_metric_invariance_under_pushforward(rng):
    h = 1e-6
    for _ in range(100):
        z = random_hpoint(rng)
        d = random_tangent(rng)
        m = random_motion(rng)
        w_plus = apply(m, HPoint(z.tau + h * d.dtau, z.z + h * d.dz))
        w_minus = apply(m, HPoint(z.tau - h * d.dtau, z.z - h * d.dz))
        pushed = Tangent(
            (w_plus.tau - w_minus.tau) / (2 * h), (w_plus.z - w_minus.z) / (2 * h)
        )
        before = metric_form(z, d)
        after = metric_form(apply(m, z), pushed)
        assert abs(after - before) / before <= 1e-5


# --------------------------------------------------------------------------
# distance


def test_distance_zero_and_symmetry(rng):
    assert distance(MIXED, MIXED) == 0.0
    for _ in range(100):
        z1 = random_hpoint(rng)
        z2 = random_hpoint(rng)
        assert distance(z1, z2) == pytest.approx(distance(z2, z1), abs=1e-14)
        assert distance(z1, z2) >= 0.0


def test_distance_closed_values():
    assert distance(I_H, TWO_I) == pytest.approx(math.sqrt(2) * math.log(2), abs=1e-12)
    assert distance(I_H, MIXED) == pytest.approx(math.log(3), abs=1e-12)


def test_distance_params_values():
    big_a, big_b = distance_params(I_H, TWO_I)
    assert big_a == 2.5 and big_b == 2.5
    big_a, big_b = distance_params(I_H, MIXED)
    assert big_a == pytest.approx(10.0 / 3.0, abs=1e-15)
    assert big_b == 2.0


U = 2.0**-53  # unit roundoff


def _from_factors(plus, minus):
    return HPoint((plus + minus) / 2.0, (plus - minus) / 2.0)


def near_pair(rng, lo=-12.0, hi=-3.0):
    """A sampler point and a copy whose factors move by a relative 10^[lo, hi]."""
    base = random_hpoint(rng)
    rel = 10.0 ** rng.uniform(lo, hi)
    moved = []
    for f in base.factors():
        theta = rng.uniform(0.0, 2.0 * math.pi)
        moved.append(f + rel * f.imag * complex(math.cos(theta), math.sin(theta)))
    return base, _from_factors(*moved)


def wide_pair(rng):
    """Two points with factor heights 10^[-6, 6] and offsets in [-5, 5]."""
    return tuple(
        _from_factors(
            *(complex(rng.uniform(-5.0, 5.0), 10.0 ** rng.uniform(-6.0, 6.0)) for _ in range(2))
        )
        for _ in range(2)
    )


def exact_distance(z1, z2, prec=50):
    with localcontext() as ctx:
        ctx.prec = prec
        ds = [2 * (s + (s * s + 1).sqrt()).ln() for s in exact_chords(z1, z2, prec)]
        return float((ds[0] ** 2 + ds[1] ** 2).sqrt())


def test_distance_of_near_pairs_has_no_cancellation():
    # Shifts of 1e-12..1e-3, where any form through cosh(d) - 1 cancels.
    rng = random.Random(11)
    for _ in range(300):
        z1, z2 = near_pair(rng)
        want = exact_distance(z1, z2)
        assert abs(distance(z1, z2) - want) <= 8 * U * want


def test_cross_ratio_eigenvalues_of_wide_pairs(rng):
    # tanh^2(d/2) = s^2 / (1 + s^2) per factor.  Read off the matrix, the
    # small eigenvalue of a wide pair is a difference of entries near 1.
    for _ in range(300):
        z1, z2 = wide_pair(rng)
        with localcontext() as ctx:
            ctx.prec = 50
            want = sorted((float(s * s / (1 + s * s)) for s in exact_chords(z1, z2)), reverse=True)
        for got, rho in zip(cross_ratio_eigenvalues(z1, z2), want):
            assert abs(got - rho) <= 16 * U * rho


def test_far_pair_distance_and_geodesic_stay_finite():
    far = HPoint(complex(3.0, 1e160), complex(-1.0, 0.0))
    d = distance(I_H, far)
    assert d == pytest.approx(2.0 * math.sqrt(2.0) * math.log(1e80), rel=1e-12)
    assert all(math.isfinite(v) for v in distance_params(I_H, far))
    spec = connect(I_H, far)
    mid = spec.point(spec.s0 / 2)
    for f in mid.factors():
        assert f.imag == pytest.approx(1e80, rel=1e-12)
    assert point_gap(spec.point(spec.s0), far) <= 8 * U * (abs(far.tau) + abs(far.z))
    # Offsets of 1e300 give factor distances near 1381, where e^d overflows.
    wide = HPoint(1j, 1e300)
    spec = connect(I_H, wide)
    tops = [spec.point(spec.s0 * k / 10).factors()[0].imag for k in range(11)]
    assert tops[5] == pytest.approx(5e299, rel=1e-12)
    assert point_gap(spec.point(spec.s0), wide) <= 8 * U * (abs(wide.tau) + abs(wide.z))


def test_distance_where_the_chord_overflows():
    # Offsets near 1e307 over heights of 1e-11..1e-4: the chord exceeds the
    # float range, the distance (about 1450) does not.
    rng = random.Random(13)
    for _ in range(200):
        z1, z2 = (
            _from_factors(
                *(complex(sign * 10.0 ** rng.uniform(306.0, 307.9), 10.0 ** rng.uniform(-11.0, -4.0))
                  for _ in range(2))
            )
            for sign in (1.0, -1.0)
        )
        want = exact_distance(z1, z2)
        assert abs(distance(z1, z2) - want) <= 8 * U * want
        assert cross_ratio_eigenvalues(z1, z2) == (1.0, 1.0)
        with pytest.raises(NumericalBreakdown):
            distance_params(z1, z2)
        with pytest.raises(NumericalBreakdown):
            connect(z1, z2)


def test_distance_where_the_halved_factor_difference_overflows():
    # |w1/2 - w2/2| itself overflows here; the quartered difference does not.
    z1 = HPoint.from_factors(-1.7e308 + 1.7e308j, 1j)
    z2 = HPoint.from_factors(1.7e308 + 1j, 1j)
    want = exact_distance(z1, z2, prec=60)
    assert want == pytest.approx(711.33627480566234, rel=1e-15)
    assert abs(distance(z1, z2) - want) <= 8 * U * want
    assert distance(z2, z1) == distance(z1, z2)


def test_geodesic_with_an_underflowing_factor_chord():
    # Offsets one ulp apart at height 8e307: the chord underflows to 0 while
    # the offset is not 0, so that factor must stay put without 0 / 0.
    z1 = HPoint.from_factors(complex(1.0, 8e307), complex(0.0, 8e307))
    z2 = HPoint.from_factors(complex(1.0 + 2.0**-52, 8e307), complex(0.0, 4e307))
    spec = connect(z1, z2)
    assert spec.d1 == 0.0
    for frac in (1 / 3, 0.5, 0.9):
        w = spec.point(frac * spec.s0).factors()[0]
        assert abs(w - z1.factors()[0]) <= 4 * U * abs(w)


def test_geodesic_where_the_factor_height_ratio_overflows():
    # Along the second factor y / v is about 1e316: the leg's b y / v is inf,
    # and its quotient with a + b y / v gave NaN.
    z1 = HPoint.from_factors(
        complex(4.783348423734651e123, 7.596168695594492e236),
        complex(-1.9001027973444516e69, 1.35491843579998e305),
    )
    z2 = HPoint.from_factors(
        complex(-1.2448513369994617e297, 5.097072511562359e142),
        complex(5.057270999871668e263, 2.344276530463557e-11),
    )
    spec = connect(z1, z2)
    for k in range(11):
        s = spec.s0 * k / 10
        p = spec.point(s)
        assert abs(distance(p, z1) - s) <= 1e-14 * spec.s0
        assert abs(distance(p, z2) - (spec.s0 - s)) <= 1e-14 * spec.s0


def test_geodesics_between_extreme_factor_pairs():
    # Every extreme pair is a valid pair of points, and every sample point
    # of its geodesic is a point (a numerical breakdown is the only failure
    # allowed).
    rng = random.Random(5)
    done = 0
    for _ in range(3000):
        z1, z2 = extreme_pair(rng)
        try:
            spec = connect(z1, z2)
            points = [spec.point(spec.s0 * k / 8) for k in range(9)]
        except NumericalBreakdown:
            continue
        assert points[0] == z1
        done += 1
    assert done >= 2900


def test_line_points_off_extreme_segments_raise_only_geometry_errors():
    # Just past either end of a wide pair's segment a leg's scaled denominator
    # can vanish (20 of these 3000 calls), or the exact point of the line lie
    # inside the dom_eps margin (676): the image of valid points, so a
    # numerical breakdown naming s and s0, as for apply and the Cayley maps,
    # never a bare ZeroDivisionError or a DomainViolation (bad input).
    rng = random.Random(99)
    broke = {"margin": 0, "denominator": 0}
    for _ in range(1500):
        z1, z2 = extreme_pair(rng)
        try:
            spec = connect(z1, z2)
        except NumericalBreakdown:
            continue
        for k in (-2, 34):
            s = k * spec.s0 / 32
            try:
                spec.line_point(s)
            except NumericalBreakdown as exc:
                assert f"point at s={s!r} of s0={spec.s0!r} not resolved" in str(exc)
                broke["margin" if "outside the half-space" in str(exc) else "denominator"] += 1
    assert broke["margin"] > 0 and broke["denominator"] > 0


@pytest.mark.parametrize(
    "recipe",
    [lambda rng: (random_hpoint(rng), random_hpoint(rng)), near_pair, wide_pair],
    ids=["sampler", "near", "wide"],
)
def test_unchecked_factors_are_the_line_points_bit_for_bit(recipe):
    # verify's geodesic checks read GeodesicSpec._factors; line_point is the
    # same two leg points behind the membership test, on and off the segment,
    # and so is point on it (t = 1/2 exactly at frac 0.5 takes the forward legs).
    def bits(pair):
        return [(w.real.hex(), w.imag.hex()) for w in pair]

    rng = random.Random(21)
    compared = on_segment = 0
    for _ in range(200):
        spec = connect(*recipe(rng))
        for frac in (-0.25, -1e-9, 0.0, 0.3, 0.5, 0.5 + 1e-12, 0.8, 1.0, 1.0 + 1e-9, 1.25):
            s = frac * spec.s0
            try:
                want = spec.line_point(s).factors()
            except NumericalBreakdown:  # off the segment of a wide pair
                assert not 0.0 <= frac <= 1.0
                continue
            assert bits(spec._factors(s)) == bits(want)
            compared += 1
            if 0.0 <= frac <= 1.0:
                assert bits(spec.point(s).factors()) == bits(want)
                on_segment += 1
    assert compared >= 1900 and on_segment == 200 * 6


def test_geodesic_point_keeps_its_error_classes():
    # Arc lengths past abs_eps of either end are out of range.  On the segment,
    # a point inside the caller's margin is bad input (an end is inside it);
    # within abs_eps past an end, where the exact line point is not an end,
    # it is a breakdown, as line_point has it.
    z1 = HPoint.from_factors(1j, 1j)
    z2 = HPoint.from_factors(2 + 1e-8j, -1 + 1e-8j)
    spec, eps = connect(z1, z2), Tolerance().abs_eps
    for s in (math.nextafter(spec.s0 + eps, math.inf), math.nextafter(-eps, -math.inf)):
        with pytest.raises(OutOfRange, match="outside \\[0, "):
            spec.point(s)
    for s in (spec.s0 + eps, -eps):
        assert spec.point(s) == spec.line_point(s)
    tol = Tolerance(1e-6, 1e-6)
    inside = [s for s in (k / 64 * spec.s0 for k in range(65)) if min(f.imag for f in spec.point(s).factors()) <= 1e-6]
    assert len(inside) >= 2 and inside[-1] == spec.s0
    for s in inside:
        with pytest.raises(DomainViolation, match="outside the half-space model"):
            spec.point(s, tol)
    with pytest.raises(NumericalBreakdown, match=re.escape(f"point at s={spec.s0 + 1e-7!r} of s0={spec.s0!r} not resolved")):
        spec.point(spec.s0 + 1e-7, tol)


@pytest.mark.parametrize(
    "recipe",
    [lambda rng: (random_hpoint(rng), random_hpoint(rng)), near_pair, wide_pair],
    ids=["sampler", "near", "wide"],
)
def test_cross_ratio_eigenvalues_are_the_sorted_factor_values(recipe):
    def sorted_bits(z, w):
        values = (_tanh_sq(_chord(z.w1, w.w1)), _tanh_sq(_chord(z.w2, w.w2)))
        return [v.hex() for v in sorted(values, reverse=True)]

    rng = random.Random(22)
    pairs = [recipe(rng) for _ in range(500)]
    # Equal factor chords (hi == lo), and chords past the float range.
    far = (HPoint.from_factors(-1e300 + 1e-11j, -1e300 + 1e-11j), HPoint.from_factors(1e300 + 1e-11j, 1e300 + 1e-11j))
    pairs += [(I_H, TWO_I), (TWO_I, I_H), far, (far[0], HPoint.from_factors(1e300 + 1e-11j, 1j))]
    assert _chord(far[0].w1, far[1].w1) == math.inf
    for z, w in pairs:
        assert [v.hex() for v in cross_ratio_eigenvalues(z, w)] == sorted_bits(z, w)
    assert cross_ratio_eigenvalues(*far) == (1.0, 1.0)
    hi, lo = cross_ratio_eigenvalues(I_H, TWO_I)
    assert hi == lo


@pytest.mark.parametrize("recipe", [near_pair, wide_pair])
def test_geodesic_endpoints_within_rounding(recipe):
    rng = random.Random(12)
    for _ in range(300):
        z1, z2 = recipe(rng)
        spec = connect(z1, z2)
        for p, z in ((spec.point(0.0), z1), (spec.point(spec.s0), z2)):
            assert point_gap(p, z) <= 8 * U * (abs(z.tau) + abs(z.z))


def test_distance_pythagoras_against_oracle(rng):
    for _ in range(500):
        z1 = random_hpoint(rng)
        z2 = random_hpoint(rng)
        a1, a2 = z1.factors()
        b1, b2 = z2.factors()
        lhs = distance(z1, z2) ** 2
        rhs = hyp_distance(a1, b1) ** 2 + hyp_distance(a2, b2) ** 2
        assert abs(lhs - rhs) <= 1e-9


def test_distance_triangle_inequality(rng):
    for _ in range(500):
        z1, z2, z3 = (random_hpoint(rng) for _ in range(3))
        assert distance(z1, z3) <= distance(z1, z2) + distance(z2, z3) + 1e-12


def test_distance_isometry(rng):
    for _ in range(200):
        m = random_motion(rng)
        z1 = random_hpoint(rng)
        z2 = random_hpoint(rng)
        assert abs(distance(apply(m, z1), apply(m, z2)) - distance(z1, z2)) <= 1e-8


# --------------------------------------------------------------------------
# geodesics


def test_geodesic_midpoint_on_diagonal_ray():
    s0 = distance(I_H, TWO_I)
    mid = geodesic(I_H, TWO_I, s0 / 2)
    assert abs(mid.tau - 1j * math.sqrt(2)) < 1e-12
    assert abs(mid.z) < 1e-15


def test_geodesic_endpoints_and_range():
    s0 = distance(I_H, MIXED)
    assert point_gap(geodesic(I_H, MIXED, 0.0), I_H) < 1e-12
    assert point_gap(geodesic(I_H, MIXED, s0), MIXED) < 1e-12
    with pytest.raises(OutOfRange):
        geodesic(I_H, MIXED, -0.1)
    with pytest.raises(OutOfRange):
        geodesic(I_H, MIXED, s0 + 0.1)
    with pytest.raises(DegeneratePair):
        geodesic(MIXED, MIXED, 0.0)


def test_geodesic_matches_central_on_canonical_pair():
    # From iI towards i[[l1, l2], [l2, l1]] both factors are vertical: at
    # arc length s they are i (l1 +- l2)^(s / s0), here with (l1, l2) = (2, 1).
    spec = connect(I_H, MIXED)
    assert abs(spec.s0 - math.log(3.0)) <= 1e-15
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        central = HPoint.from_factors(1j * 3.0**frac, 1j * 1.0**frac)
        assert point_gap(spec.point(frac * spec.s0), central) <= 1e-12
    mid, root3 = spec.point(spec.s0 / 2), math.sqrt(3.0)
    assert abs(mid.tau - 1j * (root3 + 1) / 2) < 1e-14
    assert abs(mid.z - 1j * (root3 - 1) / 2) < 1e-14


def test_geodesic_endpoint_reproduction(rng):
    for _ in range(200):
        z1 = random_hpoint(rng)
        z2 = random_hpoint(rng)
        spec = connect(z1, z2)
        assert point_gap(spec.point(0.0), z1) <= 1e-8
        assert point_gap(spec.point(spec.s0), z2) <= 1e-8


def test_geodesic_reversal_symmetry(rng):
    for _ in range(100):
        z1 = random_hpoint(rng)
        z2 = random_hpoint(rng)
        fwd = connect(z1, z2)
        bwd = connect(z2, z1)
        for frac in (0.2, 0.5, 0.8):
            s = frac * fwd.s0
            assert point_gap(fwd.point(s), bwd.point(fwd.s0 - s)) <= 1e-8


def test_geodesic_invariant_under_motions(rng):
    # The pushed-forward geodesic is the geodesic of the pushed endpoints.
    for _ in range(50):
        z1 = random_hpoint(rng)
        z2 = random_hpoint(rng)
        m = random_motion(rng)
        spec = connect(z1, z2)
        moved = connect(apply(m, z1), apply(m, z2))
        assert abs(spec.s0 - moved.s0) <= 1e-9
        for frac in (0.3, 0.7):
            s = frac * spec.s0
            assert point_gap(apply(m, spec.point(s)), moved.point(s / spec.s0 * moved.s0)) <= 1e-8


# --------------------------------------------------------------------------
# geodesic equation residual


def test_ode_residual_small_on_geodesics():
    spec = connect(I_H, MIXED)
    res = _geodesic_ode_residual(lambda s: spec.line_point(s).factors(), spec.s0 / 2, 1e-3)
    assert res <= 1e-5


def test_ode_residual_nonzero_on_straight_segment():
    def straight(s: float) -> HPoint:
        return HPoint(1j * (1.0 + s), 0.0)

    for h in (1e-2, 1e-3, 1e-4):
        assert _geodesic_ode_residual(lambda s: straight(s).factors(), 0.5, h) > 0.1


@pytest.mark.parametrize(
    "z1,z2",
    [
        (HPoint(complex(-2.0, 1.0), complex(0.5, 0.3)), HPoint(complex(3.0, 2.5), complex(-1.0, 1.2))),
        (HPoint(complex(0.0, 0.4), complex(1.5, 0.1)), HPoint(complex(-2.5, 3.0), complex(0.2, -0.8))),
        (HPoint(1j, 0.0), HPoint(complex(4.0, 6.0), complex(-3.0, 2.0))),
    ],
)
def test_ode_residual_second_order_decay(z1, z2):
    # Halving h quarters the residual.  The pairs are well separated so the
    # h^2 signal sits far above the h^-2 cancellation noise of the central
    # differences (which would smear the ratio for nearly-coincident pairs).
    spec = connect(z1, z2)
    for frac in (0.2, 0.5, 0.8):
        s = frac * spec.s0
        r_h = _geodesic_ode_residual(lambda s: spec.line_point(s).factors(), s, 1e-3)
        r_half = _geodesic_ode_residual(lambda s: spec.line_point(s).factors(), s, 5e-4)
        assert r_h > 1e-8
        assert 3.5 <= r_h / r_half <= 4.5


def literal_ode_residual(curve, s: float, h: float) -> float:
    """Largest entry of Z'' + i Z' Y^-1 Z' by central differences on the 2x2 matrices."""
    zm, z, zp = (bisym(p.tau, p.z) for p in (curve(s - h), curve(s), curve(s + h)))
    second = (zp - 2.0 * z + zm) / (h * h)
    first = (zp - zm) / (2.0 * h)
    return float(np.max(np.abs(second + 1j * (first @ np.linalg.inv(z.imag) @ first))))


def test_ode_residual_bounds_the_matrix_form(rng):
    # The matrix residual is bi-symmetric with entries (r1 +- r2) / 2 for the
    # factor residuals r1, r2, so the larger factor residual lies between its
    # largest entry and twice that.  Off-geodesic curves keep both O(1).
    for _ in range(100):
        w1, w2 = (complex(rng.uniform(-3, 3), rng.uniform(0.5, 3)) for _ in range(2))
        v1, v2 = rng.uniform(0.5, 2.0), rng.uniform(-2.0, -0.5)

        def curve(t: float) -> HPoint:  # horizontal lines: residual v^2 / Im w per factor
            return HPoint.from_factors(w1 + t * v1, w2 + t * v2)

        factor = _geodesic_ode_residual(lambda t: curve(t).factors(), 0.0, 1e-3)
        literal = literal_ode_residual(curve, 0.0, 1e-3)
        assert literal * (1.0 - 1e-6) <= factor <= 2.0 * literal * (1.0 + 1e-6)


def test_ode_residual_rejects_bad_step():
    spec = connect(I_H, MIXED)
    with pytest.raises(OutOfRange):
        _geodesic_ode_residual(lambda s: spec.line_point(s).factors(), spec.s0 / 2, 0.0)


# --------------------------------------------------------------------------
# length integration


def test_simpson_on_polynomial():
    # Simpson is exact on cubics.
    assert _simpson(lambda x: x**3 - 2 * x + 1, 0.0, 2.0, 2) == pytest.approx(2.0, abs=1e-14)


def test_geodesic_length_matches_distance(rng):
    for _ in range(5):
        z1 = random_hpoint(rng)
        z2 = random_hpoint(rng)
        spec = connect(z1, z2)
        length = _path_length(lambda s: spec.line_point(s).factors(), 0.0, spec.s0, panels=10_000)
        assert abs(length - spec.s0) / spec.s0 <= 1e-6


def test_geodesic_is_arclength_parameterized(rng):
    for _ in range(5):
        z1 = random_hpoint(rng)
        z2 = random_hpoint(rng)
        spec = connect(z1, z2)
        for frac in (0.25, 0.6, 1.0):
            s = frac * spec.s0
            partial = _path_length(lambda s: spec.line_point(s).factors(), 0.0, s, panels=2_000)
            assert abs(partial - s) / s <= 1e-6
        speed = _path_speed(lambda s: spec.line_point(s).factors(), spec.s0 / 3, 1e-6 * spec.s0)
        assert speed == pytest.approx(1.0, rel=1e-8)


# --------------------------------------------------------------------------
# volume density


def test_tangent_rejects_nonfinite():
    with pytest.raises(DomainViolation):
        Tangent(float("nan"), 0.0)


def test_geodesic_points_honour_the_callers_margin():
    # The far end has factor heights 1e-8: a point at the default dom_eps,
    # inside a dom_eps of 1e-6.
    z1 = HPoint.from_factors(1j, 1j)
    z2 = HPoint.from_factors(2 + 1e-8j, -1 + 1e-8j)
    tol = Tolerance(1e-6, 1e-6)
    spec = connect(z1, z2)
    assert spec.point(0.0, tol) == z1
    with pytest.raises(DomainViolation, match="outside the half-space model"):
        spec.point(spec.s0, tol)
    with pytest.raises(DomainViolation, match="outside the half-space model"):
        spec.line_point(spec.s0, tol)
    assert spec.point(spec.s0) == z2
    assert spec.line_point(spec.s0) == z2


def test_volume_density_values():
    assert volume_density(I_H) == 4.0
    assert volume_density(MIXED) == pytest.approx(4.0 / 9.0, abs=1e-15)


def test_volume_density_where_the_squared_heights_leave_the_float_range():
    # The square 1e320 of the larger factor height overflows; the density
    # 4e-298 itself is representable.
    assert volume_density(HPoint.from_factors(1e160j, 1e-11j)) == pytest.approx(4e-298, rel=1e-15)
    # Past the float range: below the smallest subnormal (heights at 1e160) and
    # above the largest float (heights below the default margin).
    tiny = Tolerance(1e-10, 1e-300)
    for h in (1e160, 1e-80, 1e-160, 1e-200):
        with pytest.raises(NumericalBreakdown, match="^" + re.escape(f"volume density at factor heights {h!r}, {h!r} leaves")):
            volume_density(HPoint.from_factors(complex(0.0, h), complex(1.0, h), tiny))


def test_volume_density_jacobian_invariance(rng):
    h = 1e-6
    for _ in range(50):
        z = random_hpoint(rng)
        m = random_motion(rng)

        def coords(x1, x2, y1, y2):
            w = apply(m, HPoint(complex(x1, y1), complex(x2, y2)))
            return (w.tau.real, w.z.real, w.tau.imag, w.z.imag)

        base = (z.tau.real, z.z.real, z.tau.imag, z.z.imag)
        jac = np.empty((4, 4))
        for j in range(4):
            up = list(base)
            dn = list(base)
            up[j] += h
            dn[j] -= h
            fu, fd = coords(*up), coords(*dn)
            for i in range(4):
                jac[i, j] = (fu[i] - fd[i]) / (2 * h)
        w = apply(m, z)
        lhs = volume_density(w) * abs(float(np.linalg.det(jac)))
        rhs = volume_density(z)
        assert abs(lhs - rhs) / rhs <= 1e-4

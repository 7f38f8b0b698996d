import cmath
import json
import math
import random
import re
from decimal import Decimal, localcontext

import numpy as np
import pytest

import exact
from bisiegel import geometry, verify
from bisiegel.cli import _parse_hpoint, main
from bisiegel.domain import HPoint, random_hpoint
from bisiegel.errors import (
    DegeneratePair,
    DomainViolation,
    NumericalBreakdown,
    OutOfRange,
)
from bisiegel.geometry import (
    _chord,
    _tanh_sq,
    connect,
    cross_ratio_eigenvalues,
    distance,
    distance_params,
    metric_form,
    volume_density,
)
from bisiegel.group import apply, random_motion
from bisiegel.numkit import _ABS_EPS
from bisiegel.verify import (
    _points_gap,
    _random_tangent,
    _reference_cross_ratio,
)

from conftest import (
    _geodesic_ode_residual,
    _path_length,
    _path_speed,
    _simpson,
    extreme_pair,
    mutated,
    volume_jacobian_residual,
)

I_H = HPoint(1j, 0.0)
TWO_I = HPoint(2j, 0.0)
MIXED = HPoint(2j, 1j)


def bisym(p: complex, q: complex) -> np.ndarray:
    return np.array([[p, q], [q, p]], dtype=complex)


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
    assert verify._fold(verify._check_metric_base, rng, 100) <= 1e-12


def test_metric_simple_values():
    assert metric_form(I_H, 1.0, 0.0) == pytest.approx(2.0, abs=1e-15)
    assert metric_form(MIXED, 0.0, 0.0) == 0.0


def test_metric_factor_decomposition(rng):
    # tr(Y^-1 dZ Y^-1 conj(dZ)) splits as |df|^2 / Im(f)^2 over both factors.
    for _ in range(200):
        z = random_hpoint(rng)
        dtau, dz = _random_tangent(rng)
        f_plus, f_minus = z.factors()
        df_plus, df_minus = dtau + dz, dtau - dz
        expected = (
            abs(df_plus) ** 2 / f_plus.imag**2 + abs(df_minus) ** 2 / f_minus.imag**2
        )
        assert metric_form(z, dtau, dz) == pytest.approx(expected, rel=1e-12)


def test_metric_form_matches_literal_trace(rng):
    # tr(Y^-1 dZ Y^-1 conj(dZ)) with the 2x2 matrices, computed literally.
    for _ in range(200):
        z = random_hpoint(rng)
        d = _random_tangent(rng)
        y_inv = np.linalg.inv(bisym(z.tau.imag, z.z.imag))
        dz = bisym(*d)
        literal = np.trace(y_inv @ dz @ y_inv @ dz.conj())
        assert abs(literal.imag) <= 1e-12 * abs(literal)
        assert metric_form(z, *d) == pytest.approx(literal.real, rel=1e-12)


def test_metric_positivity(rng):
    for _ in range(1000):
        z = random_hpoint(rng)
        dtau, dz = _random_tangent(rng)
        if max(abs(dtau), abs(dz)) < 1e-12:
            continue
        assert metric_form(z, dtau, dz) > 0.0


def test_metric_invariance_under_pushforward(rng):
    assert verify._fold(verify._check_metric_invariance, rng, 100) <= verify.SUITE["metric_invariance"][1]


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


def near_pair(rng):
    """A sampler point and a copy whose factors move by a relative 10^[-12, -3]."""
    base = random_hpoint(rng)
    return base, _from_factors(*exact.near(rng, base.factors(), -12.0, -3.0))


def wide_pair(rng):
    """Two points with factor heights 10^[-6, 6] and offsets in [-5, 5]."""
    return tuple(_from_factors(*exact.tall(rng)) for _ in range(2))


def test_distance_of_near_pairs_has_no_cancellation():
    # Shifts of 1e-12..1e-3, where any form through cosh(d) - 1 cancels.
    rng = random.Random(11)
    for _ in range(300):
        z1, z2 = near_pair(rng)
        want = float(exact.distance(z1.factors(), z2.factors()))
        assert abs(distance(z1, z2) - want) <= 8 * U * want


def test_cross_ratio_eigenvalues_of_wide_pairs(rng):
    # tanh^2(d/2) = s^2 / (1 + s^2) per factor.  Read off the matrix, the
    # small eigenvalue of a wide pair is a difference of entries near 1.
    for _ in range(300):
        z1, z2 = wide_pair(rng)
        want = sorted((float(s * s / (1 + s * s)) for s in exact.chords(z1.factors(), z2.factors())), reverse=True)
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
    assert _points_gap(spec.point(spec.s0), far) <= 8 * U * (abs(far.tau) + abs(far.z))
    # Offsets of 1e300 give factor distances near 1381, where e^d overflows.
    wide = HPoint(1j, 1e300)
    spec = connect(I_H, wide)
    tops = [spec.point(spec.s0 * k / 10).factors()[0].imag for k in range(11)]
    assert tops[5] == pytest.approx(5e299, rel=1e-12)
    assert _points_gap(spec.point(spec.s0), wide) <= 8 * U * (abs(wide.tau) + abs(wide.z))


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
        want = float(exact.distance(z1.factors(), z2.factors()))
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
    want = float(exact.distance(z1.factors(), z2.factors()))
    assert want == pytest.approx(711.33627480566234, rel=1e-15)
    assert abs(distance(z1, z2) - want) <= 8 * U * want
    assert distance(z2, z1) == distance(z1, z2)


def test_geodesic_with_an_underflowing_factor_chord():
    # Offsets one ulp apart at height 8e307: the chord underflows to 0 while
    # the offset is not 0, so that factor must stay put without 0 / 0.
    z1 = HPoint.from_factors(complex(1.0, 8e307), complex(0.0, 8e307))
    z2 = HPoint.from_factors(complex(1.0 + 2.0**-52, 8e307), complex(0.0, 4e307))
    spec = connect(z1, z2)
    assert _chord(z1.w1, z2.w1) == 0.0
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


def scaled_factors(spec) -> set:
    """The factors (1, 2) whose legs take the scaled form: those whose vs = vn sinh(d) is inf."""
    return {f for f, vs in ((1, spec._legs[0][5]), (2, spec._legs[0][12])) if vs == math.inf}


def far_pair(rng):
    """A sampler pair whose factors at one slot are moved to heights 10^U[300, 308.2] and
    10^U[-11.9, -9], 710 or more apart: that factor's legs take the scaled form."""
    slot = rng.choice((0, 1))
    pair = []
    for height in (10.0 ** rng.uniform(300.0, 308.2), 10.0 ** rng.uniform(-11.9, -9.0)):
        factors = list(random_hpoint(rng).factors())
        factors[slot] = complex(factors[slot].real, height)
        pair.append(HPoint.from_factors(*factors))
    return tuple(pair)


@pytest.mark.parametrize(
    "recipe,scaled",
    [
        (lambda rng: (random_hpoint(rng), random_hpoint(rng)), "never"),
        (near_pair, "never"),
        (wide_pair, "never"),
        (far_pair, "always"),
        (lambda rng: (signed_point(rng, 300.0), signed_point(rng, 300.0)), "sometimes"),
    ],
    ids=["sampler", "near", "wide", "far", "accepted300"],
)
def test_unchecked_factors_are_the_segment_points_bit_for_bit(recipe, scaled):
    # verify's geodesic checks read GeodesicSpec._factors and point builds its point;
    # both wrap the one evaluator of the leg points (t = 1/2 exactly at frac 0.5 takes
    # the forward legs), which must give them the same floats in either leg form.  The
    # traffic's recipes (sampler, near, wide) never reach the scaled form; a far pair
    # always does, and the accepted domain at k = 300 sometimes does.
    def bits(pair):
        return [(w.real.hex(), w.imag.hex()) for w in pair]

    rng = random.Random(21)
    forms = set()
    for _ in range(200):
        spec = connect(*recipe(rng))
        forms.add(bool(scaled_factors(spec)))
        for frac in (0.0, 0.3, 0.5, 0.5 + 1e-12, 0.8, 1.0):
            s = frac * spec.s0
            assert bits(spec._factors(s)) == bits(spec.point(s).factors())
    assert forms == {"never": {False}, "always": {True}, "sometimes": {False, True}}[scaled]


def test_geodesic_point_keeps_its_error_classes(monkeypatch):
    # Arc lengths past _ABS_EPS of either end are out of range.  Both ends lie above
    # the one margin, and so does the exact segment: a point that the membership
    # test refuses, on the segment or within _ABS_EPS past an end, is a breakdown.
    # The thresholds are raised to 1e-6 here, above the far end's heights 1e-8.
    z1 = HPoint.from_factors(1j, 1j)
    z2 = HPoint.from_factors(2 + 1e-8j, -1 + 1e-8j)
    spec, eps = connect(z1, z2), _ABS_EPS
    for s in (math.nextafter(spec.s0 + eps, math.inf), math.nextafter(-eps, -math.inf)):
        with pytest.raises(OutOfRange, match="outside \\[0, "):
            spec.point(s)
    for s in (spec.s0 + eps, -eps):
        assert spec.point(s).factors() == spec._factors(s)
    inside = [s for s in (k / 64 * spec.s0 for k in range(65)) if min(f.imag for f in spec.point(s).factors()) <= 1e-6]
    assert len(inside) >= 2 and inside[-1] == spec.s0
    monkeypatch.setattr("bisiegel.geometry._ABS_EPS", 1e-6)
    monkeypatch.setattr("bisiegel.domain._DOM_EPS", 1e-6)
    for s in inside + [spec.s0 + 1e-7]:
        with pytest.raises(NumericalBreakdown, match=re.escape(f"point at s={s!r} of s0={spec.s0!r} not resolved")) as info:
            spec.point(s)
        assert isinstance(info.value.__cause__, DomainViolation)


#: Segments as the CLI reads them, whose first factor takes the sinh form (iI to MIXED) or
#: the scaled form (height 5e-12 to 1e300, length 717, beside a leg of length 668 in the sinh
#: form).  Negating z exchanges the factors.
LEG_FORM_PAIRS = {
    "sinh": ('{"tau":[0,1],"z":[0,0]}', '{"tau":[0,2],"z":[0,1]}'),
    "scaled": ('{"tau":[0,0.5000000000025],"z":[0,-0.4999999999975]}',
               '{"tau":[0,5.0000000005e299],"z":[0,4.9999999995e299]}'),
}

#: Each form's evaluator text, per factor, and the function that holds it: the scaled form
#: is one function for both factors, which the segment's orientation picks.
LEG_FORM_TEXTS = {
    ("sinh", 1): ("_leg_points", "x1 + dx1 * (ys1 / k1)"),
    ("sinh", 2): ("_leg_points", "x2 + dx2 * (ys2 / k2)"),
    ("scaled", 1): ("_scaled_leg_point", "x + dx * (r / (a + r))"),
    ("scaled", 2): ("_scaled_leg_point", "x + dx * (r / (a + r))"),
}

LEG_FAILURES = pytest.mark.parametrize("form,factor", sorted(LEG_FORM_TEXTS), ids=str)


def leg_form_pair(form: str, factor: int) -> tuple[str, str]:
    """``LEG_FORM_PAIRS[form]`` as JSON texts, with the form's leg in the given factor."""
    if factor == 1:
        return LEG_FORM_PAIRS[form]
    return tuple(json.dumps({"tau": d["tau"], "z": [-d["z"][0], -d["z"][1]]})
                 for d in map(json.loads, LEG_FORM_PAIRS[form]))


def mutate_leg(monkeypatch, form: str, factor: int, new: str) -> None:
    """Replace one factor's leg point in ``form`` by ``new``, a format of the old text."""
    name, old = LEG_FORM_TEXTS[form, factor]
    monkeypatch.setattr(geometry, name, mutated(geometry, name, old, new.format(old)))


@LEG_FAILURES
def test_geodesic_point_with_a_vanishing_leg_denominator_is_a_breakdown(monkeypatch, form, factor):
    # Past an end of a wide pair's segment a leg's scaled denominator can round
    # to 0.  The segment joins valid points, so wherever that happens, in either
    # factor and either form, the point is a breakdown naming s and s0, never a
    # bare ZeroDivisionError.
    spec = connect(*(_parse_hpoint(json.loads(text)) for text in leg_form_pair(form, factor)))
    assert scaled_factors(spec) == ({factor} if form == "scaled" else set())
    mutate_leg(monkeypatch, form, factor, "{} / 0.0")
    for s in (0.0, spec.s0 / 2, spec.s0):
        with pytest.raises(NumericalBreakdown, match=re.escape(f"point at s={s!r} of s0={spec.s0!r} not resolved: float division by zero")) as info:
            spec.point(s)
        assert isinstance(info.value.__cause__, ZeroDivisionError)


@LEG_FAILURES
def test_geodesic_point_with_a_nan_leg_on_the_segment_is_a_breakdown(monkeypatch, tmp_path, capsys, form, factor):
    # A leg point that is not a number at t = 1/4, in either factor and either form: the
    # segment's ends are valid points, so this is a breakdown naming s and s0 (exit 3),
    # not bad input (exit 2).
    texts = leg_form_pair(form, factor)
    spec = connect(*(_parse_hpoint(json.loads(text)) for text in texts))
    s = 0.25 * spec.s0
    want = list(spec._factors(s))
    want[factor - 1] = complex(math.nan, want[factor - 1].imag)
    mutate_leg(monkeypatch, form, factor, "(math.nan if t == 0.25 else {})")
    with pytest.raises(NumericalBreakdown, match=re.escape(f"point at s={s!r} of s0={spec.s0!r} not resolved: factors ({want[0]!r}, {want[1]!r})")) as info:
        spec.point(s)
    assert isinstance(info.value.__cause__, DomainViolation)
    (tmp_path / "z1.json").write_text(texts[0])
    (tmp_path / "z2.json").write_text(texts[1])
    code = main(["geodesic", "--z1", str(tmp_path / "z1.json"), "--z2", str(tmp_path / "z2.json"), "--samples", "5"])
    err = capsys.readouterr().err
    assert code == 3 and err.startswith(f"numerical error: point at s={s!r} of s0={spec.s0!r} not resolved"), err


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
    # Equal factor chords (hi == lo), chords past the float range, and a finite
    # chord of 5e19 whose tanh^2(d/2) rounds to 1.0: the upper end is closed.
    far = (HPoint.from_factors(-1e300 + 1e-11j, -1e300 + 1e-11j), HPoint.from_factors(1e300 + 1e-11j, 1e300 + 1e-11j))
    rounded = (HPoint.from_factors(1j, 1j), HPoint.from_factors(1e20 + 1j, 2j))
    pairs += [(I_H, TWO_I), (TWO_I, I_H), far, (far[0], HPoint.from_factors(1e300 + 1e-11j, 1j)), rounded]
    assert _chord(far[0].w1, far[1].w1) == math.inf
    for z, w in pairs:
        assert [v.hex() for v in cross_ratio_eigenvalues(z, w)] == sorted_bits(z, w)
    assert cross_ratio_eigenvalues(*far) == (1.0, 1.0)
    assert cross_ratio_eigenvalues(*rounded) == (1.0, 1.0 / 9.0) and _chord(1j, 1e20 + 1j) < math.inf
    hi, lo = cross_ratio_eigenvalues(I_H, TWO_I)
    assert hi == lo


@pytest.mark.parametrize("recipe", [near_pair, wide_pair])
def test_geodesic_endpoints_within_rounding(recipe):
    rng = random.Random(12)
    for _ in range(300):
        z1, z2 = recipe(rng)
        spec = connect(z1, z2)
        for p, z in ((spec.point(0.0), z1), (spec.point(spec.s0), z2)):
            assert _points_gap(p, z) <= 8 * U * (abs(z.tau) + abs(z.z))


def test_near_segment_interior_points_within_rounding():
    # Interior points too: at fractions 1/4 and 1/2 of a near segment, d(z1, p) = s and
    # d(p, z2) = s0 - s against 60-digit distances.  A coordinate that rounds by u |w|
    # moves its factor by u |w| / Im w hyperbolic units, so the bound is a few roundings
    # at the pair's largest |w| / Im w; the worst measured is 4.1 U of it.  Leg points
    # that drop the d-dependence of sinh(d t) / sinh(d) for d < 1e-3 are off by up to
    # 3.9e-5 of s0 here, over 1e7 times this bound.
    rng = random.Random(5)
    for _ in range(2000):
        z1 = random_hpoint(rng)
        z2 = _from_factors(*exact.near(rng, z1.factors(), -6.0, -3.5))
        spec = connect(z1, z2)
        scale = max(abs(w) / w.imag for w in z1.factors() + z2.factors())
        for frac in (0.25, 0.5):
            s = frac * spec.s0
            p = spec.point(s).factors()
            err = max(abs(exact.distance(z1.factors(), p) - Decimal(s)),
                      abs(exact.distance(p, z2.factors()) - Decimal(spec.s0 - s)))
            assert float(err) <= 8.0 * U * scale, (z1, z2, frac, float(err) / spec.s0)


def signed_point(rng, k: float) -> HPoint:
    """A point from ``exact.signed(rng, -k, k)``, redrawn until both factor heights clear the margin."""
    while True:
        factors = exact.signed(rng, -k, k)
        if min(w.imag for w in factors) > 1e-12:
            return HPoint.from_factors(*factors)


GEODESIC_REGIMES = {
    "sampler": lambda rng: (random_hpoint(rng), random_hpoint(rng)),
    "near": near_pair,
    "tall": wide_pair,
    "signed6": lambda rng: (signed_point(rng, 6.0), signed_point(rng, 6.0)),
    "signed30": lambda rng: (signed_point(rng, 30.0), signed_point(rng, 30.0)),
}


def point_error(z1: HPoint, z2: HPoint, frac: Decimal, factors) -> float:
    """The worst over the two factors of the hyperbolic distance from the computed factor
    to the exact point at fraction ``frac`` of the segment, over U ((|x1| + |x2|) / Im p
    + 1 + d).

    The bound, per factor of length d: the real part x + dx phi, phi in [0, 1], rounds by
    a few u (|x1| + |x2|) in all (|dx| and |Re p| are at most that), which moves p by that
    over Im p; the height rounds by a few u, which moves p by a few u; and t = s / s0 and
    d round by a few u, which move p along the geodesic by a few u d.  So a few units of
    this scale hold every point, however far the ends lie from the imaginary axis.
    """
    worst = 0.0
    for a, b, w in zip(z1.factors(), z2.factors(), factors):
        ref = exact.geodesic_point(a, b, frac)
        d = float(exact.hyp_distance((a.real, a.imag), (b.real, b.imag)))
        scale = (abs(a.real) + abs(b.real)) / float(ref[1]) + 1.0 + d
        worst = max(worst, float(exact.hyp_distance((w.real, w.imag), ref)) / (U * scale))
    return worst


def arc_fractions(z1: HPoint, z2: HPoint, s0: float, fracs) -> list:
    """(s, s / S0) for s = f s0 at each fraction f, with S0 the exact length of the segment:
    the point at arc length s lies at that fraction of each factor geodesic."""
    length = exact.distance(z1.factors(), z2.factors())
    with localcontext(exact._CTX):
        return [(f * s0, Decimal(f * s0) / length) for f in fracs]


def test_exact_geodesic_point_keeps_the_arc_length():
    # The reference lies at distance t d from its start and (1 - t) d from its end, to
    # far below a float's rounding, and returns either end as given.
    rng = random.Random(23)
    for draw in (GEODESIC_REGIMES["sampler"], wide_pair, GEODESIC_REGIMES["signed6"]):
        for _ in range(20):
            f1, f2 = (z.w1 for z in draw(rng))
            d = exact.hyp_distance((f1.real, f1.imag), (f2.real, f2.imag))
            for t in (0.25, 0.5, 0.75):
                p = exact.geodesic_point(f1, f2, t)
                with localcontext(exact._CTX):
                    scale = (abs(Decimal(f1.real)) + abs(Decimal(f2.real))) / p[1] + 1 + d
                    assert abs(exact.hyp_distance((f1.real, f1.imag), p) - Decimal(t) * d) <= Decimal("1e-45") * scale
                    assert abs(exact.hyp_distance(p, (f2.real, f2.imag)) - (1 - Decimal(t)) * d) <= Decimal("1e-45") * scale
            assert exact.geodesic_point(f1, f2, 0.0) == (Decimal(f1.real), Decimal(f1.imag))
            assert exact.geodesic_point(f1, f2, 1.0) == (Decimal(f2.real), Decimal(f2.imag))


@pytest.mark.parametrize("regime", GEODESIC_REGIMES)
def test_geodesic_points_within_the_derived_bound(regime):
    # Every leg point, against the 60-digit point at the same arc length on the exact
    # segment, in hyperbolic units (so an error across the geodesic shows as well as one
    # along it), within 8 units of ``point_error``'s scale; the worst measured is 2.9
    # units (near pairs).  The fraction 1/2 + 1e-12 takes the backward legs just past
    # the switch.
    rng = random.Random(5)
    for _ in range(60):
        z1, z2 = GEODESIC_REGIMES[regime](rng)
        spec = connect(z1, z2)
        for s, frac in arc_fractions(z1, z2, spec.s0, (0.25, 0.5, 0.75, 0.5 + 1e-12, 1.0)):
            assert point_error(z1, z2, frac, spec._factors(s)) <= 8.0, (z1, z2, s)


def test_geodesic_points_on_far_legs_within_the_derived_bound():
    # First factors 710 or more apart, where sinh(d) overflows and the leg takes its
    # e^{dt}-scaled form: one end at height 10^U[300, 308.2], the other at 10^U[-11.9, -9]
    # and, three times in ten, straight below it, else at a signed offset 10^U[-10, 240].
    # Near the high end of a nearly vertical leg e^{d(2t - 1)} is a subnormal, so it may
    # not be rounded on its own: as a factor apart from y / v it put 22 of these 280
    # points past the bound, the worst by 1.5e7 units.  The second factor takes the sinh
    # form beside it, in the same pass: from 1j to 2 + 1j, or from a point w to itself
    # (length 0, legs of the least positive length), to the next float up in height, or
    # to w moved by 1e-9 of its height.
    rng, other = random.Random(7), random.Random(8)
    seconds = {
        "apart": lambda w: (1j, 2 + 1j),
        "coincident": lambda w: (w, w),
        "ulp": lambda w: (w, complex(w.real, math.nextafter(w.imag, math.inf))),
        "near": lambda w: (w, w + 1e-9 * w.imag * cmath.exp(1j * other.uniform(0.0, 2.0 * math.pi))),
    }
    for _ in range(40):
        high, low = 10.0 ** rng.uniform(300.0, 308.2), 10.0 ** rng.uniform(-11.9, -9.0)
        dx = 0.0 if rng.random() < 0.3 else rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-10.0, 240.0)
        f1, f2 = (complex(0.0, high), complex(dx, low))[::rng.choice((-1, 1))]
        w = complex(other.uniform(-5.0, 5.0), 10.0 ** other.uniform(-1.0, 1.0))
        for kind, second in seconds.items():
            g1, g2 = second(w)
            z1, z2 = HPoint.from_factors(f1, g1), HPoint.from_factors(f2, g2)
            spec = connect(z1, z2)
            assert scaled_factors(spec) == {1}
            assert (spec._legs[0][13] == 5e-324) == (kind == "coincident")  # factor 2's d
            for s, frac in arc_fractions(z1, z2, spec.s0, (1e-3, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999)):
                assert point_error(z1, z2, frac, spec.point(s).factors()) <= 8.0, (kind, f1, f2, w, s)


@pytest.mark.parametrize("k", [30.0, 100.0, 300.0])
def test_geodesic_points_resolve_on_the_accepted_domain(k):
    # Pairs with factor heights and signed offsets 10^U[-k, k] that the model accepts:
    # connect and point refuse none of them, and every point holds the derived bound.  At
    # k = 300, 12 of the 100 pairs have a factor length past 710, where sinh(d) overflows.
    rng = random.Random(24)
    for _ in range(100):
        z1, z2 = signed_point(rng, k), signed_point(rng, k)
        spec = connect(z1, z2)
        for s, frac in arc_fractions(z1, z2, spec.s0, (0.25, 0.5, 0.75)):
            assert point_error(z1, z2, frac, spec.point(s).factors()) <= 8.0, (z1, z2, s)


def test_distance_pythagoras_against_oracle(rng):
    assert verify._fold(verify._check_pythagoras, rng, 500) <= 1e-9


def test_distance_triangle_inequality(rng):
    assert verify._fold(verify._check_triangle, rng, 500) <= 1e-12


def test_distance_isometry(rng):
    assert verify._fold(verify._check_isometry, rng, 200) <= 1e-8


# --------------------------------------------------------------------------
# geodesics


def test_geodesic_midpoint_on_diagonal_ray():
    s0 = distance(I_H, TWO_I)
    mid = connect(I_H, TWO_I).point(s0 / 2)
    assert abs(mid.tau - 1j * math.sqrt(2)) < 1e-12
    assert abs(mid.z) < 1e-15


def test_geodesic_endpoints_and_range():
    s0 = distance(I_H, MIXED)
    assert _points_gap(connect(I_H, MIXED).point(0.0), I_H) < 1e-12
    assert _points_gap(connect(I_H, MIXED).point(s0), MIXED) < 1e-12
    with pytest.raises(OutOfRange):
        connect(I_H, MIXED).point(-0.1)
    with pytest.raises(OutOfRange):
        connect(I_H, MIXED).point(s0 + 0.1)
    with pytest.raises(DegeneratePair):
        connect(MIXED, MIXED).point(0.0)


def test_connect_refuses_a_segment_shorter_than_dom_eps(monkeypatch):
    # Distinct points 1e-13 apart: the refusal names the segment length and the
    # threshold, and a smaller _DOM_EPS takes the pair.
    near = HPoint(complex(1e-13, 1.0), 0.0)
    with pytest.raises(DegeneratePair, match=r"^geodesic length 1\.414\d*e-13 is below dom_eps=1e-12: coincident"):
        connect(I_H, near)
    monkeypatch.setattr("bisiegel.geometry._DOM_EPS", 1e-14)
    assert connect(I_H, near).s0 == pytest.approx(2**0.5 * 1e-13, rel=1e-9)


def test_geodesic_matches_central_on_canonical_pair():
    # From iI towards i[[l1, l2], [l2, l1]] both factors are vertical: at
    # arc length s they are i (l1 +- l2)^(s / s0), here with (l1, l2) = (2, 1).
    spec = connect(I_H, MIXED)
    assert abs(spec.s0 - math.log(3.0)) <= 1e-15
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        central = HPoint.from_factors(1j * 3.0**frac, 1j * 1.0**frac)
        assert _points_gap(spec.point(frac * spec.s0), central) <= 1e-12
    mid, root3 = spec.point(spec.s0 / 2), math.sqrt(3.0)
    assert abs(mid.tau - 1j * (root3 + 1) / 2) < 1e-14
    assert abs(mid.z - 1j * (root3 - 1) / 2) < 1e-14


def test_geodesic_endpoint_reproduction(rng):
    assert verify._fold(verify._check_geodesic_endpoints, rng, 200) <= 1e-8


def test_geodesic_reversal_symmetry(rng):
    for _ in range(100):
        z1 = random_hpoint(rng)
        z2 = random_hpoint(rng)
        fwd = connect(z1, z2)
        bwd = connect(z2, z1)
        for frac in (0.2, 0.5, 0.8):
            s = frac * fwd.s0
            assert _points_gap(fwd.point(s), bwd.point(fwd.s0 - s)) <= 1e-8


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
            assert _points_gap(apply(m, spec.point(s)), moved.point(s / spec.s0 * moved.s0)) <= 1e-8


# --------------------------------------------------------------------------
# geodesic equation residual


def test_ode_residual_small_on_geodesics():
    spec = connect(I_H, MIXED)
    res = _geodesic_ode_residual(spec._factors, spec.s0 / 2, 1e-3)
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
        r_h = _geodesic_ode_residual(spec._factors, s, 1e-3)
        r_half = _geodesic_ode_residual(spec._factors, s, 5e-4)
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
    with pytest.raises(ValueError, match="must be positive"):
        _geodesic_ode_residual(spec._factors, spec.s0 / 2, 0.0)


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
        length = _path_length(spec._factors, 0.0, spec.s0, panels=10_000)
        assert abs(length - spec.s0) / spec.s0 <= 1e-6


def test_geodesic_is_arclength_parameterized(rng):
    for _ in range(5):
        z1 = random_hpoint(rng)
        z2 = random_hpoint(rng)
        spec = connect(z1, z2)
        for frac in (0.25, 0.6, 1.0):
            s = frac * spec.s0
            partial = _path_length(spec._factors, 0.0, s, panels=2_000)
            assert abs(partial - s) / s <= 1e-6
        speed = _path_speed(spec._factors, spec.s0 / 3, 1e-6 * spec.s0)
        assert speed == pytest.approx(1.0, rel=1e-8)


# --------------------------------------------------------------------------
# volume density


def test_tangent_rejects_nonfinite():
    with pytest.raises(DomainViolation, match=r"^non-finite tangent component \(nan\+0j\)$"):
        metric_form(I_H, float("nan"), 0.0)


def test_tangent_rejects_a_component_past_the_float_range():
    # complex() of such an int raises OverflowError; the gate names the component instead.
    for dtau, dz, name in ((10**400, 0, "dtau"), (0, -(10**400), "dz"), (10**5000, 0.0, "dtau")):
        with pytest.raises(DomainViolation, match=rf"^tangent component {name} is past the float range$"):
            metric_form(I_H, dtau, dz)


def test_metric_form_refuses_an_overflow():
    # Finite tangents whose squared length leaves the float range: the first squares
    # to inf, and the second's |dw| is itself past the float range, where abs() raises.
    for dtau in (1e200, 1.7e308 + 1.7e308j):
        with pytest.raises(NumericalBreakdown, match="leaves the float range"):
            metric_form(I_H, dtau, 0)


def test_geodesic_points_honour_the_callers_margin(monkeypatch):
    # The far end has factor heights 1e-8: a point above the margin of 1e-12,
    # inside a margin of 1e-6, where the segment's point there is not resolved.
    z1 = HPoint.from_factors(1j, 1j)
    z2 = HPoint.from_factors(2 + 1e-8j, -1 + 1e-8j)
    spec = connect(z1, z2)
    with monkeypatch.context() as patch:
        patch.setattr("bisiegel.domain._DOM_EPS", 1e-6)
        assert spec.point(0.0) == z1
        with pytest.raises(NumericalBreakdown, match="not resolved: factors .* are outside the half-space model"):
            spec.point(spec.s0)
    assert spec.point(spec.s0) == z2


def test_volume_density_values():
    assert volume_density(I_H) == 4.0
    assert volume_density(MIXED) == pytest.approx(4.0 / 9.0, abs=1e-15)


def test_volume_density_where_the_squared_heights_leave_the_float_range(monkeypatch):
    # The square 1e320 of the larger factor height overflows; the density
    # 4e-298 itself is representable.
    assert volume_density(HPoint.from_factors(1e160j, 1e-11j)) == pytest.approx(4e-298, rel=1e-15)
    # Past the float range: below the smallest subnormal (heights at 1e160) and
    # above the largest float (heights below the margin, lowered here to 1e-300).
    monkeypatch.setattr("bisiegel.domain._DOM_EPS", 1e-300)
    for h in (1e160, 1e-80, 1e-160, 1e-200):
        with pytest.raises(NumericalBreakdown, match="^" + re.escape(f"volume density at factor heights {h!r}, {h!r} leaves")):
            volume_density(HPoint.from_factors(complex(0.0, h), complex(1.0, h)))


def test_volume_density_jacobian_invariance(rng):
    assert verify._fold(volume_jacobian_residual, rng, 50) <= 1e-4

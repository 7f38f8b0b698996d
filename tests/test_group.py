import dataclasses
import math
import random
import re
import sys
from decimal import Decimal

import numpy as np
import pytest

import exact
from bisiegel import verify
from bisiegel.domain import (
    HPoint,
    cayley_to_disc,
    cayley_to_halfspace,
    random_hpoint,
)
from bisiegel.errors import (
    DomainViolation,
    GeometryError,
    NotInHatGroup,
    NotSymplectic,
    NotUnimodular,
    NumericalBreakdown,
    UnitModulusViolation,
    ValidationError,
)
from bisiegel.geometry import distance
from bisiegel.group import (
    MotionMatrix,
    ReducedPair,
    Sl2Matrix,
    apply,
    assemble,
    classify,
    random_motion,
    random_sl2,
    reduce_pair,
    split,
    stabilizer_of_iI,
)
from bisiegel.numkit import _ABS_EPS, Mat4R
from bisiegel.verify import _points_gap, _reference_apply

from conftest import (
    EXCHANGE_4,
    IDENTITY_4,
    KERNEL_4,
    SYMPLECTIC_FORM,
    composed_reduce_pair,
    disc_stabilizer,
    entries,
    extreme_pair,
    gap4,
    max_abs4,
    mobius,
    mul4,
    scale4,
    transport_to_iI,
    transpose,
)

I_H = HPoint(1j, 0.0)
U = sys.float_info.epsilon
I2 = Sl2Matrix(1.0, 0.0, 0.0, 1.0)
IDENTITY = assemble(I2, I2, 1)


def sl2_gap(a: Sl2Matrix, b: Sl2Matrix) -> float:
    return max(abs(a.a - b.a), abs(a.b - b.b), abs(a.c - b.c), abs(a.d - b.d))


def coordinate_rounding(z: HPoint) -> float:
    """Bound on the rounding of (tau, z) -> (tau + z, tau - z) -> (tau, z)."""
    return 4.0 * U * (abs(z.tau) + abs(z.z))


# --------------------------------------------------------------------------
# classify


def test_classify_identity_and_exchange():
    assert classify(IDENTITY_4).eps == 1
    assert classify(EXCHANGE_4).eps == 1


def test_classify_symplectic_form_matrix():
    # Block computation: J commutes with the exchange matrix.
    assert classify(SYMPLECTIC_FORM).eps == 1


def test_classify_detects_anticommuting_sign():
    m = Mat4R(
        (
            (1.0, 0.0, 0.0, 0.0),
            (0.0, -1.0, 0.0, 0.0),
            (0.0, 0.0, 1.0, 0.0),
            (0.0, 0.0, 0.0, -1.0),
        )
    )
    assert classify(m).eps == -1


def test_classify_rejects_non_symplectic():
    with pytest.raises(NotSymplectic):
        classify(scale4(IDENTITY_4, 2.0))


def test_classify_rejects_symplectic_outside_subgroup():
    # diag(2, 1, 1/2, 1) preserves the form but mixes the factors unevenly.
    m = Mat4R(
        (
            (2.0, 0.0, 0.0, 0.0),
            (0.0, 1.0, 0.0, 0.0),
            (0.0, 0.0, 0.5, 0.0),
            (0.0, 0.0, 0.0, 1.0),
        )
    )
    with pytest.raises(NotInHatGroup):
        classify(m)


def literal_classify(m: Mat4R) -> MotionMatrix:
    """``classify`` through the literal 4x4 products, in its order: the commutation
    products first; the symplectic residual only for a refused pattern, where it picks
    the error; then the factors read off rows a and c, through ``Sl2Matrix``."""
    j, tol = SYMPLECTIC_FORM, _ABS_EPS
    commute, anticommute = literal_commutation(m)
    if min(commute, anticommute) > tol:
        sym_res = gap4(mul4(transpose(m), j, m), j)
        if sym_res > tol:
            raise NotSymplectic(f"symplectic residual {sym_res:.3e} exceeds {tol}")
        raise NotInHatGroup(
            f"commutation residuals ({commute:.3e}, {anticommute:.3e}) both exceed {tol}"
        )
    (a1, a2, b1, b2), _, (c1, c2, d1, d2), _ = m.rows
    f1 = (a1 + a2, b1 + b2, c1 + c2, d1 + d2)
    f2 = (a1 - a2, b1 - b2, c1 - c2, d1 - d2)
    if not all(math.isfinite(a * d - b * c) for a, b, c, d in (f1, f2)):
        raise NumericalBreakdown("a factor determinant overflows")
    try:
        m1, m2 = Sl2Matrix(*f1), Sl2Matrix(*f2)
    except NotUnimodular:
        raise NotSymplectic("unimodular factors are the symplectic condition") from None
    return assemble(m1, m2, 1 if commute <= anticommute else -1)


def literal_commutation(m: Mat4R) -> tuple[float, float]:
    """The residuals |MQ - QM| and |MQ + QM| through the literal products."""
    mq, qm = mul4(m, EXCHANGE_4), mul4(EXCHANGE_4, m)
    # mq - (-qm) rounds exactly as mq + qm.
    return gap4(mq, qm), gap4(mq, scale4(qm, -1.0))


def classify_outcome(f, m: Mat4R):
    """The motion, or the error class with the message of a residual gate."""
    try:
        return f(m)
    except GeometryError as exc:
        gate = str(exc).startswith(("symplectic residual ", "commutation residuals ("))
        return type(exc), str(exc) if gate else None


def perturbed(m: Mat4R, rng: random.Random) -> Mat4R:
    """One entry moved by 1e-12 to 1e-8 of its size (at least 1)."""
    rows = [list(r) for r in m.rows]
    i, k = rng.randrange(4), rng.randrange(4)
    step = 10.0 ** rng.uniform(-12.0, -8.0) * rng.choice((-1.0, 1.0))
    rows[i][k] += step * max(1.0, abs(rows[i][k]))
    return Mat4R(tuple(map(tuple, rows)))


def symplectic_unpatterned(rng: random.Random) -> Mat4R:
    """diag(A, A^-T) or [[I, S], [0, I]] with S symmetric: symplectic, rarely patterned."""
    u = [rng.uniform(-3.0, 3.0) for _ in range(4)]
    if rng.random() < 0.5:
        a, b, c, d = u
        det = a * d - b * c
        return Mat4R(
            ((a, b, 0, 0), (c, d, 0, 0), (0, 0, d / det, -c / det), (0, 0, -b / det, a / det))
        )
    return Mat4R(((1, 0, u[0], u[1]), (0, 1, u[1], u[2]), (0, 0, 1, 0), (0, 0, 0, 1)))


REGIMES = {
    "patterned": lambda rng: random_motion(rng).m,
    "perturbed": lambda rng: perturbed(random_motion(rng).m, rng),
    "scaled": lambda rng: scale4(random_motion(rng).m, 10.0 ** rng.uniform(-150.0, 150.0)),
    "unpatterned": lambda rng: Mat4R(
        tuple(tuple(rng.uniform(-5.0, 5.0) for _ in range(4)) for _ in range(4))
    ),
    "symplectic_unpatterned": symplectic_unpatterned,
    "overflowing": lambda rng: scale4(random_motion(rng).m, 10.0 ** rng.uniform(159.0, 161.0)),
}


def symplectic_gate_passes(m: Mat4R, abs_eps: float, monkeypatch) -> bool:
    """Whether ``classify``'s symplectic gate lets m through at this threshold."""
    try:
        with monkeypatch.context() as patch:
            patch.setattr("bisiegel.group._ABS_EPS", abs_eps)
            classify(m)
    except NotSymplectic as exc:
        return not str(exc).startswith("symplectic residual ")
    except GeometryError:
        pass
    return True


@pytest.mark.parametrize("regime", sorted(REGIMES))
def test_closed_form_classify_matches_literal_products(regime, monkeypatch):
    # Same motion, or same error class and gate message, as the literal products.
    rng = random.Random(f"classify:{regime}")
    seen = set()
    for _ in range(400):
        m = REGIMES[regime](rng)
        want = classify_outcome(literal_classify, m)
        assert classify_outcome(classify, m) == want, m
        seen.add(want.eps if isinstance(want, MotionMatrix) else want[0])
        try:
            res = gap4(mul4(transpose(m), SYMPLECTIC_FORM, m), SYMPLECTIC_FORM)
            refused = min(literal_commutation(m)) > res
        except NumericalBreakdown:
            continue
        # Bit for bit where the pattern gate refuses, so that the residual decides: the
        # gate passes at the literal residual, fails one ulp below.
        if refused and 1e-300 < res < 1.0:
            assert symplectic_gate_passes(m, res, monkeypatch), m
            assert not symplectic_gate_passes(m, math.nextafter(res, 0.0), monkeypatch), m
    # Each regime reaches the outcomes it is there for.
    expected = {
        "patterned": {1, -1},
        "perturbed": {1, -1, NotSymplectic},
        "scaled": {NotSymplectic},
        "unpatterned": {NotSymplectic},
        "symplectic_unpatterned": {NotInHatGroup},
        "overflowing": {NumericalBreakdown},
    }[regime]
    assert expected <= seen


def test_closed_form_classify_edge_cases():
    # On a refused pattern, the only non-finite symplectic residual is a NaN after
    # finite ones, which max() skips; an anticommuting pattern whose commutation
    # residual overflows.  Both break down on both paths.
    big = 1.5e308
    cases = [
        Mat4R(((1, 1e160, 0, 0), (0, 1, 0, 0), (0, 1e160, 1, 0), (0, 0, 0, 1))),
        Mat4R(((big, 0, 0, 0), (0, -big, 0, 0), (0, 0, 1 / big, 0), (0, 0, 0, -1 / big))),
    ]
    for m in cases:
        assert classify_outcome(literal_classify, m)[0] is NumericalBreakdown
        assert classify_outcome(classify, m)[0] is NumericalBreakdown


def off_pattern(rng: random.Random, scale: float) -> Mat4R:
    """diag(A, A^-T), [[I, S], [0, I]] or [[I, 0], [S, I]] (S symmetric), entries of A, S
    of size ``scale``: symplectic, and each family carries the commutation residual in
    different pairs of rows a, b and c, d."""
    u = [scale * rng.uniform(-1.0, 1.0) for _ in range(4)]
    kind = rng.randrange(3)
    if kind == 0:
        a, b, c, d = u
        det = a * d - b * c
        return Mat4R(((a, b, 0, 0), (c, d, 0, 0), (0, 0, d / det, -c / det), (0, 0, -b / det, a / det)))
    s0, s1, s2 = u[:3]
    if kind == 1:
        return Mat4R(((1, 0, s0, s1), (0, 1, s1, s2), (0, 0, 1, 0), (0, 0, 0, 1)))
    return Mat4R(((1, 0, 0, 0), (0, 1, 0, 0), (s0, s1, 1, 0), (s1, s2, 0, 1)))


def hat_gate_passes(m: Mat4R, abs_eps: float, monkeypatch) -> bool:
    """Whether ``classify``'s commutation gate lets m through at this threshold."""
    try:
        with monkeypatch.context() as patch:
            patch.setattr("bisiegel.group._ABS_EPS", abs_eps)
            classify(m)
    except NotInHatGroup:
        return False
    except GeometryError:
        pass
    return True


@pytest.mark.parametrize("scale", [1.0, 1e3, 1e6])
def test_classify_commutation_residuals_are_the_literal_ones(scale, monkeypatch):
    # classify takes the 8 distinct commutation pairs of the 16 that MQ - QM and
    # MQ + QM hold: its message is the literal products' one, and its gate passes at
    # the smaller literal residual and fails one ulp below it.
    rng = random.Random(21)
    refused = pinned = 0
    for _ in range(300):
        m = off_pattern(rng, scale)
        want = classify_outcome(literal_classify, m)
        assert classify_outcome(classify, m) == want, m
        refused += want[0] is NotInHatGroup
        res = min(literal_commutation(m))
        sym_res = gap4(mul4(transpose(m), SYMPLECTIC_FORM, m), SYMPLECTIC_FORM)
        if 1e-300 < res < 1.0 and sym_res < res:
            assert hat_gate_passes(m, res, monkeypatch), m
            assert not hat_gate_passes(m, math.nextafter(res, 0.0), monkeypatch), m
            pinned += 1
    assert refused >= 250 and (pinned >= 100 or scale > 1.0)


def glue(f1: tuple, f2: tuple, eps: int) -> Mat4R:
    """The 4x4 of the block pattern with factor entries f1, f2 (no determinant gate)."""
    (a1, a2), (b1, b2), (c1, c2), (d1, d2) = (((x + y) / 2.0, (x - y) / 2.0) for x, y in zip(f1, f2))
    return Mat4R(((a1, a2, b1, b2), (eps * a2, eps * a1, eps * b2, eps * b1),
                  (c1, c2, d1, d2), (eps * c2, eps * c1, eps * d2, eps * d1)))


@pytest.mark.parametrize("scale", [1.0, 1e3, 1e6])
def test_classify_gates_on_both_sides_at_each_entry_scale(scale):
    # An exact motion glued from [[c, s], [-s, c]] diag(scale, 1/scale) and a sampler
    # factor is a motion; the same with the first factor times 1.01 (det 1.0201) is not.
    # At scale 1e6 the halves lose the smaller factor's determinant in some draws: each
    # such refusal comes from the factor gate, not from a residual of the 4x4.
    rng = random.Random(22)
    refused = 0
    for _ in range(300):
        t = 2.0 * math.pi * rng.random()
        big = (math.cos(t) * scale, math.sin(t) / scale, -math.sin(t) * scale, math.cos(t) / scale)
        small = entries(random_sl2(rng))
        eps = rng.choice((1, -1))
        try:
            assert classify(glue(big, small, eps)).eps == eps
        except NotSymplectic as exc:
            assert isinstance(exc.__cause__, NotUnimodular), exc
            refused += 1
        with pytest.raises(NotSymplectic):
            classify(glue(tuple(1.01 * x for x in big), small, eps))
    assert refused == 0 if scale < 1e6 else refused < 60


def test_classify_reads_back_the_motions_the_library_composes():
    # Chains of n sampler motions, read back from their 4x4 rows.  Up to n = 12 every
    # chain reads back.  At n = 16 and 24 the factors differ in scale by up to about
    # 1e4, and the halves (m1.x +- m2.x) / 2 lose the smaller factor's determinant: those
    # refusals come from the factor gate, never from the pattern gate.
    rng = random.Random(5)
    for n in (6, 8, 12, 16, 24):
        for _ in range(500):
            m = random_motion(rng)
            for _ in range(n - 1):
                m = m @ random_motion(rng)
            try:
                assert classify(Mat4R(m._rows())).eps == m.eps
            except NotSymplectic as exc:
                assert n > 12 and isinstance(exc.__cause__, NotUnimodular), (n, exc)


def test_classify_eps_is_the_smaller_literal_residual(rng, monkeypatch):
    for _ in range(400):
        m = random_motion(rng).m
        commute, anticommute = literal_commutation(m)
        assert classify(m).eps == (1 if commute <= anticommute else -1)
    # An exact tie: in each pair of the commutation residuals one entry is 0, so both
    # residuals are c.  A tie needs both within the threshold, met only at a loose one;
    # the factors are c I, near the kernel.  It resolves to +1.
    c = 1.0 - 2.0**-12
    tie = scale4(Mat4R(((1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0), (0, -1, 0, 0))), c)
    assert literal_commutation(tie) == (c, c)
    monkeypatch.setattr("bisiegel.group._ABS_EPS", 0.9999)
    assert classify(tie).eps == 1


def test_classify_symplectic_and_determinant_gates_agree():
    # Glued from diag(1 + d, 1) and I: the symplectic residual is d/2, within
    # the gate, but the first factor's determinant is off by d, beyond it.
    for d in (1.5e-10, 1.9e-10):
        h = d / 2.0
        m = Mat4R(((1 + h, h, 0, 0), (h, 1 + h, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
        with pytest.raises(NotSymplectic) as info:
            classify(m)
        assert isinstance(info.value.__cause__, NotUnimodular)
    # The same glue within the determinant bound is a motion.
    h = 0.5e-10 / 2.0
    m = Mat4R(((1 + h, h, 0, 0), (h, 1 + h, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
    assert classify(m).eps == 1


def test_classify_honours_the_callers_tolerance_in_the_factor_gate(monkeypatch):
    # Glued from diag(1 + 1e-8, 1) and I: the symplectic residual is 5e-9 and
    # the first factor's determinant is off by 1e-8.  The factor gate reads the
    # same _ABS_EPS as the pattern gate.
    h = 1e-8 / 2.0
    m = Mat4R(((1 + h, h, 0, 0), (h, 1 + h, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
    with pytest.raises(NotSymplectic):
        classify(m)
    monkeypatch.setattr("bisiegel.group._ABS_EPS", 1e-6)
    motion = classify(m)
    m1, _ = split(motion)
    assert (m1.a, m1.d, motion.eps) == ((1 + h) + h, 1.0, 1)


def test_each_threshold_has_one_home():
    # Every gate reads _ABS_EPS or _DOM_EPS, defined once in numkit: no public
    # callable (nor a method of an exported class) takes a threshold, no module
    # exports one, and no gate module spells one out.  verify's SUITE bounds are
    # check tolerances, not gate thresholds, so verify.py is not walked.
    import ast
    import importlib
    import inspect
    import pathlib

    import bisiegel

    root = pathlib.Path(bisiegel.__file__).parent
    modules = [bisiegel] + [importlib.import_module(f"bisiegel.{p.stem}")
                            for p in sorted(root.glob("*.py")) if not p.stem.startswith("__")]
    for module in modules:
        exported = getattr(module, "__all__", [n for n in vars(module) if not n.startswith("_")])
        assert not {"Tolerance", "DEFAULT_TOL"} & set(exported), module.__name__
        for name in exported:
            obj = getattr(module, name)
            members = [obj] + ([getattr(obj, k) for k in vars(obj)] if isinstance(obj, type) else [])
            for member in filter(callable, members):
                try:
                    params = inspect.signature(member).parameters
                except (TypeError, ValueError):
                    continue
                assert "tol" not in params, (module.__name__, name, member)
    for name in ("group.py", "domain.py", "geometry.py"):
        tree = ast.parse((root / name).read_text())
        spelled = [node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Constant) and node.value in (1e-10, 1e-12)]
        assert spelled == [], f"{name} spells a threshold at lines {spelled}"


# --------------------------------------------------------------------------
# apply


def test_apply_identity():
    z = HPoint(2j, 1j)
    assert _points_gap(apply(IDENTITY, z), z) == 0.0


def test_apply_exchange_fixes_every_point(rng):
    # The factors (I, -I) act exactly; only the coordinate change rounds.
    q = classify(EXCHANGE_4)
    for _ in range(100):
        z = random_hpoint(rng)
        assert _points_gap(apply(q, z), z) <= coordinate_rounding(z)


def test_apply_symplectic_form_inverts_diagonal():
    j = classify(SYMPLECTIC_FORM)
    got = apply(j, HPoint(2j, 0.0))
    assert _points_gap(got, HPoint(0.5j, 0.0)) < 1e-15


def test_apply_group_law(rng):
    assert verify._fold(verify._check_group_law, rng, 200) <= 1e-9


@pytest.mark.parametrize("eps_m, eps_n", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
def test_composition_pairs_the_factors_bit_for_bit(eps_m, eps_n, rng):
    # Under an exchanging right factor, each left factor meets the other one.
    def product(x: Sl2Matrix, y: Sl2Matrix) -> tuple:
        """The literal 2x2 product rescaled to det 1: the reference for the factor product."""
        (p, q, r, s), (e, f, g, h) = entries(x), entries(y)
        a, b, c, d = p * e + q * g, p * f + q * h, r * e + s * g, r * f + s * h
        k = 1.0 / math.sqrt(a * d - b * c)
        return a * k, b * k, c * k, d * k

    def bits(values: tuple) -> tuple:
        return tuple(map(float.hex, values))

    for _ in range(200):
        m = assemble(random_sl2(rng), random_sl2(rng), eps_m)
        n = assemble(random_sl2(rng), random_sl2(rng), eps_n)
        (m1, m2), (n1, n2) = split(m), split(n)
        left1, left2 = (m1, m2) if eps_n == 1 else (m2, m1)
        prod = m @ n
        p1, p2 = split(prod)
        assert (bits(entries(p1)), bits(entries(p2))) == (
            bits(product(left1, n1)), bits(product(left2, n2)))
        assert prod.eps == eps_m * eps_n


def test_apply_closure(rng):
    for _ in range(500):
        w = apply(random_motion(rng), random_hpoint(rng))
        HPoint(w.tau, w.z)  # the constructor's membership test, from (tau, z)


def test_kernel_fixes_everything_nonkernel_does_not(rng):
    kernel = [classify(m) for m in KERNEL_4]
    probes = [random_hpoint(rng) for _ in range(20)]
    for m in kernel:
        assert m.eps == 1
        for z in probes:
            assert _points_gap(apply(m, z), z) <= coordinate_rounding(z)
    moved = 0
    for _ in range(100):
        m = random_motion(rng)
        if any(_points_gap(apply(m, z), z) > 1e-6 for z in probes):
            moved += 1
    assert moved == 100


# --------------------------------------------------------------------------
# split / assemble


def test_split_identity():
    m1, m2 = split(IDENTITY)
    assert sl2_gap(m1, I2) == 0.0
    assert sl2_gap(m2, I2) == 0.0


def test_split_symplectic_form():
    rot = Sl2Matrix(0.0, 1.0, -1.0, 0.0)
    m1, m2 = split(classify(SYMPLECTIC_FORM))
    assert sl2_gap(m1, rot) == 0.0 and sl2_gap(m2, rot) == 0.0


def test_split_exchange_pinned_to_plus_branch():
    # The exchange matrix fits only the eps=+1 block pattern, giving the
    # factor pair (I, -I); both act trivially, consistent with it fixing
    # every point.
    m1, m2 = split(classify(EXCHANGE_4))
    assert sl2_gap(m1, I2) == 0.0
    assert sl2_gap(m2, Sl2Matrix(-1.0, 0.0, 0.0, -1.0)) == 0.0


def test_assemble_shear_example():
    m = assemble(Sl2Matrix(1.0, 1.0, 0.0, 1.0), I2, 1)
    (_, _, *b_top), (_, _, *b_bottom), _, _ = m.m.rows
    assert max(abs(x - 0.5) for x in b_top + b_bottom) <= _ABS_EPS
    j = SYMPLECTIC_FORM
    assert gap4(mul4(transpose(m.m), j, m.m), j) < 1e-15


def test_assemble_identity():
    m = assemble(I2, I2, 1)
    assert gap4(m.m, IDENTITY_4) == 0.0


@pytest.mark.parametrize("eps", [1, -1])
def test_split_assemble_roundtrip(eps, rng):
    for _ in range(100):
        m1 = random_sl2(rng)
        m2 = random_sl2(rng)
        r1, r2 = split(assemble(m1, m2, eps))
        assert sl2_gap(r1, m1) <= 1e-12
        assert sl2_gap(r2, m2) <= 1e-12


def test_factorwise_action_including_swap(rng):
    for _ in range(200):
        m = random_motion(rng)
        z = random_hpoint(rng)
        m1, m2 = split(m)
        f_plus, f_minus = z.factors()
        g_plus = mobius(entries(m1), f_plus)
        g_minus = mobius(entries(m2), f_minus)
        if m.eps == -1:
            g_plus, g_minus = g_minus, g_plus
        w_plus, w_minus = apply(m, z).factors()
        assert abs(w_plus - g_plus) <= 1e-9
        assert abs(w_minus - g_minus) <= 1e-9


def test_apply_keeps_the_smaller_factor_to_its_own_rounding(rng):
    # Factor heights 1e3..1e5 against 0.1..1: each image is the Moebius image
    # of its own factor to rounding relative to that image, which the
    # (tau, z) storage exceeded by the larger factor's rounding.
    for _ in range(300):
        m = random_motion(rng)
        big = complex(rng.uniform(-5e4, 5e4), 10.0 ** rng.uniform(3.0, 5.0))
        small = complex(rng.uniform(-1.0, 1.0), 10.0 ** rng.uniform(-1.0, 0.0))
        z = HPoint.from_factors(*((big, small) if rng.random() < 0.5 else (small, big)))
        m1, m2 = split(m)
        images = [mobius(entries(f), w) for f, w in zip((m1, m2), z.factors())]
        if m.eps == -1:
            images.reverse()
        for got, want in zip(apply(m, z).factors(), images):
            assert abs(got - want) <= 4 * U * abs(want)


def test_factor_path_matches_4x4_reference(rng):
    # Composition, action and factor read-off of the stored factors
    # against the same operations on the 4x4 matrices, for every sign pair.
    signs = set()
    for _ in range(600):
        p = random_motion(rng)
        o = random_motion(rng)
        z = random_hpoint(rng)
        signs.add((p.eps, o.eps))
        prod = p @ o
        assert prod.eps == p.eps * o.eps
        # A 4x4 product entry sums four terms: error <= 4u * 4 |P|max |O|max.
        assert gap4(prod.m, mul4(p.m, o.m)) <= 16 * U * max_abs4(p.m) * max_abs4(o.m)
        assert _points_gap(apply(p, z), _reference_apply(p._rows(), z)) <= 1e-9
        back = classify(p.m)
        assert back.eps == p.eps
        for got, want in zip(split(back), split(p)):
            assert sl2_gap(got, want) <= 2 * U * max_abs4(p.m)
    assert signs == {(1, 1), (1, -1), (-1, 1), (-1, -1)}


# --------------------------------------------------------------------------
# stabilizers


def block(rows) -> np.ndarray:
    """A block ``a0`` or ``b0`` of ``stabilizer --model disc`` JSON ([re, im] entries) as a 2x2 matrix."""
    return np.array([[complex(*x) for x in row] for row in rows], dtype=complex)


def max_abs(x) -> float:
    return float(np.max(np.abs(x)))


EYE_2 = np.eye(2, dtype=complex)


def literal_disc_action(doc: dict, u1: complex, u2: complex) -> tuple:
    """The block action (A0 Z + B0)(conj(B0) Z + conj(A0))^-1 of a disc motion's JSON on the point
    with disc factors u1, u2, computed literally on Z = [[z1, z2], [z2, z1]], z1, z2 = (u1 +- u2) / 2."""
    a0, b0 = block(doc["a0"]), block(doc["b0"])
    z1, z2 = u1 / 2.0 + u2 / 2.0, u1 / 2.0 - u2 / 2.0
    zm = np.array(((z1, z2), (z2, z1)), dtype=complex)
    w = (a0 @ zm + b0) @ np.linalg.inv(b0.conj() @ zm + a0.conj())
    z1, z2 = (w[0, 0] + w[1, 1]) / 2.0, (w[0, 1] + w[1, 0]) / 2.0
    return z1 + z2, z1 - z2


def test_stabilizer_of_center_examples():
    tol = _ABS_EPS
    a0 = block(disc_stabilizer(1, 1, 1)["a0"])
    assert max_abs(a0 - EYE_2) <= tol
    a0 = block(disc_stabilizer(1j, 1j, 1)["a0"])
    assert max_abs(a0 - 1j * EYE_2) <= tol
    a0 = block(disc_stabilizer(1, -1, 1)["a0"])
    assert max_abs(a0 - np.array(((0, 1), (1, 0)))) <= tol


def test_stabilizer_params_validation():
    with pytest.raises(UnitModulusViolation):
        stabilizer_of_iI(2.0, 1.0, 1)
    # |xi|^2 - 1 = 1.4e-10 is beyond the factor gate's bound of 1e-10, so the
    # parameter gate rejects it (it passed |xi| - 1 = 7e-11 before).
    with pytest.raises(UnitModulusViolation, match=r"\|xi1\|=1.00000000007 is not 1"):
        stabilizer_of_iI(1.00000000007, 1.0, 1)
    with pytest.raises(UnitModulusViolation):
        stabilizer_of_iI(1.0, complex(float("nan"), 0.0), 1)
    # A parameter the gate accepts builds both stabilizers.
    for xi in (1.0 + 4.9e-11, 1.0 - 4.9e-11, complex(0.6, 0.8)):
        assert disc_stabilizer(xi, 1.0, -1)["eps"] == -1
        assert split(stabilizer_of_iI(xi, 1.0, -1))[0].a == xi.real


def test_stabilizer_params_on_each_side_of_the_unit_gate():
    # |xi|^2 - 1 against the determinant gate's floor of 1e-10 (entries near 1
    # are far below its cap), along two directions, and non-finite parameters.
    # Each parameter passes exactly where its rotation factor is an Sl2Matrix.
    for unit in (1.0, complex(0.6, 0.8)):
        for rel in (0.49e-10, -0.49e-10):
            xi = unit * (1.0 + rel)
            r2 = split(stabilizer_of_iI(1.0, xi, 1))[1]
            assert (r2.a, r2.b) == (xi.real, xi.imag)
            Sl2Matrix(xi.real, xi.imag, -xi.imag, xi.real)
        for rel in (0.51e-10, -0.51e-10):
            xi = unit * (1.0 + rel)
            with pytest.raises(UnitModulusViolation, match=rf"^\|xi2\|={re.escape(repr(abs(xi)))} is not 1$"):
                stabilizer_of_iI(1.0, xi, 1)
            with pytest.raises(NotUnimodular):
                Sl2Matrix(xi.real, xi.imag, -xi.imag, xi.real)
    for bad in (complex(math.nan, 0.0), complex(0.0, math.nan), complex(math.inf, 0.0)):
        with pytest.raises(UnitModulusViolation, match=r"^\|xi1\|="):
            stabilizer_of_iI(bad, 1.0, -1)


def test_stabilizer_of_center_fixes_center(rng):
    for _ in range(50):
        xi1 = complex(math.cos(a := rng.uniform(0, 2 * math.pi)), math.sin(a))
        xi2 = complex(math.cos(b := rng.uniform(0, 2 * math.pi)), math.sin(b))
        eps = 1 if rng.random() < 0.5 else -1
        m0 = disc_stabilizer(xi1, xi2, eps)
        u1, u2 = literal_disc_action(m0, 0j, 0j)
        assert abs(u1) < 1e-15 and abs(u2) < 1e-15
        # unitary block relation with vanishing translation part
        a0 = block(m0["a0"])
        assert max_abs(a0 @ a0.conj().T - EYE_2) <= _ABS_EPS
        assert max_abs(block(m0["b0"])) == 0.0


def test_stabilizer_of_iI_identity_case():
    m = stabilizer_of_iI(1, 1, 1)
    assert gap4(m.m, IDENTITY_4) < 1e-15


def test_stabilizer_of_iI_fixes_base_point(rng):
    for _ in range(50):
        xi1 = complex(math.cos(a := rng.uniform(0, 2 * math.pi)), math.sin(a))
        xi2 = complex(math.cos(b := rng.uniform(0, 2 * math.pi)), math.sin(b))
        eps = 1 if rng.random() < 0.5 else -1
        m = stabilizer_of_iI(xi1, xi2, eps)
        assert _points_gap(apply(m, I_H), I_H) <= 1e-10


def test_stabilizer_of_iI_is_isometric_rotation():
    theta = math.pi / 3
    xi = complex(math.cos(theta), math.sin(theta))
    m = stabilizer_of_iI(xi, xi, 1)
    far = HPoint(2j, 0.0)
    assert _points_gap(apply(m, I_H), I_H) <= 1e-12
    assert abs(distance(apply(m, I_H), apply(m, far)) - math.sqrt(2) * math.log(2)) <= 1e-12


# --------------------------------------------------------------------------
# the image margin, the sign gate and transports


def test_image_inside_the_margin_is_a_numerical_breakdown():
    # A valid point whose image the model cannot resolve at dom_eps: the
    # glued diag(1e-7, 1e7), I sends iI to factor height 1e-14.
    shrink = assemble(Sl2Matrix(1e-7, 0.0, 0.0, 1e7), I2, 1)
    with pytest.raises(NumericalBreakdown, match="dom_eps margin"):
        apply(shrink, I_H)
    # Invalid input is still a domain violation.
    with pytest.raises(DomainViolation):
        HPoint.from_factors(1e-13j, 1j)


@pytest.mark.parametrize("scale", [1e5, 1e6, 1e7])
def test_apply_of_a_high_image_is_its_value(scale):
    # diag(scale, 1/scale) in both factors sends iI to scale^2 iI through the
    # denominators 1/scale.  Their product was guarded at dom_eps = 1e-12:
    # 1e5 (product 1e-10) passed, 1e6 (1e-12) and 1e7 (1e-14) were refused.
    factor = Sl2Matrix(scale, 0.0, 0.0, 1.0 / scale)
    want = exact.image(entries(factor), 1j)[1]
    for eps in (1, -1):
        w1, w2 = apply(assemble(factor, factor, eps), I_H).factors()
        assert w1 == w2 and w1.real == 0.0
        assert abs(Decimal(w1.imag) - want) <= Decimal(U / 2) * want


def test_apply_of_a_zero_denominator_is_an_image_at_infinity():
    # A subnormal c whose product with w rounds onto -d: c w + d is exactly 0.
    # The next subnormal leaves a denominator near 1e-20 and an image past the
    # float range.  Both are numerical limits, never a ZeroDivisionError.
    d = -(1e-320 * 1e300)
    point = HPoint.from_factors(1e300 + 1e-11j, 1j)
    zero = assemble(f := Sl2Matrix(1.0 / d, 0.0, 1e-320, d), I2, 1)
    assert f.c * point.w1 + f.d == 0.0
    with pytest.raises(NumericalBreakdown, match="at infinity: a denominator is 0"):
        apply(zero, point)
    tiny = assemble(f := Sl2Matrix(1.0 / d, 0.0, 2e-320, d), I2, 1)
    assert f.c * point.w1 + f.d != 0.0
    with pytest.raises(NumericalBreakdown, match="dom_eps margin"):
        apply(tiny, point)


def test_apply_image_inside_the_callers_margin_is_a_numerical_breakdown(monkeypatch):
    # The identity keeps a factor at height 1e-8: a point above the margin
    # of 1e-12, inside a margin of 1e-6.
    point = HPoint.from_factors(1j, 0.5 + 1e-8j)
    assert apply(assemble(I2, I2, 1), point) == point
    disc = cayley_to_disc(point)
    monkeypatch.setattr("bisiegel.domain._DOM_EPS", 1e-6)
    for eps in (1, -1):
        with pytest.raises(NumericalBreakdown, match="dom_eps margin") as exc:
            apply(assemble(I2, I2, eps), point)
        assert isinstance(exc.value.__cause__, DomainViolation)
    # The inverse Cayley map gates its factors at the caller's margin first: the point's disc
    # factors lie within 1e-6 of the circle, and a factor 1.5e-6 inside maps to height 7.5e-7.
    with pytest.raises(DomainViolation, match="outside the bounded model"):
        cayley_to_halfspace(*disc)
    with pytest.raises(NumericalBreakdown, match="dom_eps margin"):
        cayley_to_halfspace(-(1.0 - 1.5e-6), 0.0)


def test_every_constructor_passes_its_sign_through_the_one_gate():
    # assemble and stabilizer_of_iI share group._sign:
    # exactly the int +1 or -1; bool and float signs are refused.
    builders = (
        lambda e: assemble(I2, I2, e),
        lambda e: stabilizer_of_iI(1.0, 1.0, e),
    )
    for build in builders:
        for eps in (1, -1):
            assert type(build(eps).eps) is int
        for eps in (0, 2, 1.0, -1.0, True, "1", None):
            with pytest.raises(ValidationError, match=rf"^eps must be \+1 or -1, got {re.escape(repr(eps))}$"):
                build(eps)


@pytest.mark.parametrize("slot", ["m1", "m2"])
@pytest.mark.parametrize("bad", [(1.0, 0.0, 0.0, 1.0), None, IDENTITY], ids=["tuple", "None", "motion"])
def test_motion_factors_pass_the_factor_gate(slot, bad):
    # A factor that is not an Sl2Matrix would otherwise fail later, in apply, as an
    # AttributeError.  The trusted _motion does not run this gate.
    factors = {"m1": I2, "m2": I2, slot: bad}
    with pytest.raises(ValidationError, match=rf"^{slot} must be an Sl2Matrix, got {re.escape(repr(bad))}$"):
        assemble(factors["m1"], factors["m2"], 1)


def test_motions_are_built_only_by_assemble_classify_and_the_trusted_builders():
    # MotionMatrix has no constructor and no factor properties: assemble is the one
    # checked builder from factors, split the one factor reader.
    with pytest.raises(TypeError):
        MotionMatrix(I2, I2, 1)
    for name in ("m1", "m2", "inverse"):
        assert not hasattr(IDENTITY, name)


def test_transport_to_iI_examples(rng):
    assert gap4(transport_to_iI(I_H).m, IDENTITY_4) < 1e-15
    for z in (HPoint(2j, 0.0), HPoint(2j, 1j)):
        assert _points_gap(apply(transport_to_iI(z), z), I_H) <= 1e-12
    for _ in range(200):
        z = random_hpoint(rng)
        assert _points_gap(apply(transport_to_iI(z), z), I_H) <= 1e-10


# --------------------------------------------------------------------------
# pair reduction


def test_reduce_pair_coincident():
    red = reduce_pair(I_H, I_H)
    assert red.lambda1 == pytest.approx(1.0, abs=1e-12)
    assert red.lambda2 == pytest.approx(0.0, abs=1e-12)


def test_reduce_pair_diagonal():
    red = reduce_pair(I_H, HPoint(2j, 0.0))
    assert red.lambda1 == pytest.approx(2.0, abs=1e-12)
    assert red.lambda2 == pytest.approx(0.0, abs=1e-12)


def test_reduce_pair_mixed():
    red = reduce_pair(I_H, HPoint(2j, 1j))
    assert red.lambda1 == pytest.approx(2.0, abs=1e-12)
    assert red.lambda2 == pytest.approx(1.0, abs=1e-12)


def test_reduce_pair_endpoints(rng):
    for _ in range(200):
        z1 = random_hpoint(rng)
        z2 = random_hpoint(rng)
        red = reduce_pair(z1, z2)
        img1 = apply(red.mover, z1)
        img2 = apply(red.mover, z2)
        assert _points_gap(img1, I_H) <= 1e-8
        assert abs(img2.tau - complex(0, red.lambda1)) <= 1e-8
        assert abs(img2.z - complex(0, red.lambda2)) <= 1e-8
        assert red.lambda1 >= red.lambda2 + 1.0 - 1e-9
        assert red.lambda2 >= -1e-9


def test_reduce_pair_invariant_under_premotion(rng):
    for _ in range(100):
        z1 = random_hpoint(rng)
        z2 = random_hpoint(rng)
        m = random_motion(rng)
        red = reduce_pair(z1, z2)
        red_m = reduce_pair(apply(m, z1), apply(m, z2))
        assert abs(red.lambda1 - red_m.lambda1) <= 1e-8
        assert abs(red.lambda2 - red_m.lambda2) <= 1e-8


def test_unimodular_gate_scales_with_the_entries():
    # The 20-draw chain reaches entries near 790.
    rng = random.Random(3)
    chain = IDENTITY
    for _ in range(20):
        chain = chain @ random_motion(rng)
    assert max_abs4(chain.m) > 500.0
    # The transport of a factor at height 8e-9 has entries near 1e4, and the
    # mover of this pair multiplies a rotation by it.
    z = HPoint.from_factors(complex(-1.0829920053445565, 8.360873858970653e-09), 1j)
    assert _points_gap(apply(transport_to_iI(z), z), I_H) <= 1e-6
    red = reduce_pair(z, I_H)
    assert red.lambda1 >= red.lambda2 + 1.0
    # A determinant off by far more than its rounding is still rejected.
    with pytest.raises(NotUnimodular):
        Sl2Matrix(1e4, 1e4, (1e8 - 1.1) / 1e4, 1e4)
    with pytest.raises(NotUnimodular):
        Sl2Matrix(1.0, 0.0, 0.0, 1.0 + 2e-10)


def test_unimodular_gate_rejects_singular_and_reflecting_factors():
    n = 1e6
    Sl2Matrix(n, n - 1.0, n + 1.0, n)  # det 1 exactly, entry products 1e12
    for entries in ((n, n, n, n), (n + 1.0, n, n, n - 1.0), (1e8, 1e8, 1e8, 1e8)):
        with pytest.raises(NotUnimodular):
            Sl2Matrix(*entries)
    # Rounding the determinant of entries near 1e10 costs about 1e4: it is not
    # resolved, and the gate rejects rather than guesses.
    with pytest.raises(NotUnimodular):
        Sl2Matrix(1e10, 1e10 - 1.0, 1e10 + 1.0, 1e10)


@pytest.mark.parametrize(
    "root, step, inside, outside",
    [
        # |ad| + |bc| near 1: the bound is the floor _ABS_EPS = 1e-10.
        (1.0, 1e-11, 9, 11),
        # Near 2^27: 8 ulps of it, 2^-23, between the floor and the cap.
        (2.0**13, 2.0**-27, 15, 17),
        # Near 3.125 * 2^40: 8 ulps would be 3.05e-3, so the cap 2^-10 holds.
        (1.25 * 2.0**20, 2.0**-12, 3, 5),
    ],
    ids=["floor", "scaled", "cap"],
)
def test_determinant_gate_at_its_bound(root, step, inside, outside):
    # The factor [[r, r^2 - 1 - delta], [1, r]] has det 1 + delta for delta = k step: exactly
    # where step is an ulp of bc (Sterbenz), and to an ulp of 1 at the floor.
    for k, passes in ((inside, True), (outside, False)):
        entries = (root, root * root - 1.0 - k * step, 1.0, root)
        if passes:
            Sl2Matrix(*entries)
        else:
            with pytest.raises(NotUnimodular, match="differs from 1 by more than"):
                Sl2Matrix(*entries)


def test_reduced_pair_gate_at_its_slack():
    # lambda1 - lambda2 >= 1 to 2^-51 lambda1: at lambda1 = 2^40 that is 2^-11, two ulps
    # of lambda1, and a gap of 1 - delta is exact for delta in steps of 2^-13.
    mover = reduce_pair(I_H, I_H).mover
    big = 2.0**40
    ReducedPair(mover, big, big - 1.0 + 3 * 2.0**-13)
    with pytest.raises(ValidationError, match="invalid canonical pair"):
        ReducedPair(mover, big, big - 1.0 + 5 * 2.0**-13)


def assert_lambdas_exact(red: ReducedPair, z_base: HPoint, z_other: HPoint) -> None:
    """Both lambdas within 1.1e-15 of lambda1 of a 60-digit reference."""
    want1, want2 = exact.lambdas(z_base.factors(), z_other.factors())
    assert abs(Decimal(red.lambda1) - want1) <= Decimal(1.1e-15) * want1
    assert abs(Decimal(red.lambda2) - want2) <= Decimal(1.1e-15) * want1


def test_reduce_pair_breaks_down_at_extreme_separation():
    # Factor dilations past the float range: the square of the chord term
    # overflows, and the 50-digit lambda1 is far past it too.
    far = HPoint(1e300 + 1j, 0.0)
    assert exact.lambdas(I_H.factors(), far.factors())[0] > Decimal(sys.float_info.max)
    with pytest.raises(NumericalBreakdown, match="leave the float range"):
        reduce_pair(I_H, far)
    # Dilations of 1e300, and the pairs the radius test and the image
    # margin refused: lambda1 = 1e14, and the transport of 1e6 i moves
    # 1e-7 i to height 1e-13.
    pairs = [
        (I_H, HPoint.from_factors(1e150 + 1j, 1e150 + 1j)),
        (I_H, HPoint(1e14j, 0.0)),
        (HPoint.from_factors(1e6j, 1e6j), HPoint.from_factors(1e-7j, 1j)),
    ]
    for p, q in pairs:
        assert_lambdas_exact(reduce_pair(p, q), p, q)


@pytest.mark.parametrize(
    "w1,w2,fits",
    [
        (1.4e154 + 1j, 1j, True),  # one dilation (s + hypot(1, s))^2 overflows
        (1.2e154 + 1j, 1.1e154 + 1j, True),  # both fit, their sum does not
        (1.9e154 + 1j, 1j, False),  # lambda1 about 1.805e308
        (1e200 + 1j, 1j, False),  # the halved dilation overflows too
    ],
)
def test_reduce_pair_halves_dilations_past_the_float_range(w1, w2, fits):
    # Where the sum of the dilations leaves the float range, lambda1, half of
    # it, may still fit: it is the sum of the halved dilations m * (m / 2).
    z = HPoint.from_factors(w1, w2)
    want1, want2 = exact.lambdas(I_H.factors(), z.factors())
    assert 2 * want1 > Decimal(sys.float_info.max)
    if not fits:
        assert want1 > Decimal(sys.float_info.max)
        with pytest.raises(NumericalBreakdown, match="leave the float range"):
            reduce_pair(I_H, z)
        return
    red = reduce_pair(I_H, z)
    assert abs(Decimal(red.lambda1) - want1) <= Decimal(1.1e-15) * want1
    assert abs(Decimal(red.lambda2) - want2) <= Decimal(1.1e-15) * want1


@pytest.mark.parametrize("height", [1e12, 1e13, 1e14])
def test_reduce_pair_on_each_side_of_the_old_radius_test(height):
    # The test tanh(d/2) < 1 - dom_eps refused factor dilations above about
    # 2e12: height 1e12 passed, 1e13 and 1e14 were refused.
    z = HPoint.from_factors(complex(0.0, height), 2j)
    red = reduce_pair(I_H, z)
    assert_lambdas_exact(red, I_H, z)
    assert _points_gap(apply(red.mover, I_H), I_H) <= 1e-12


@pytest.mark.parametrize("height", [1e-5, 1e-6])
def test_reduce_pair_keeps_no_membership_test_on_the_moved_point(height):
    # The transport of 1000 + height i moves iI to about height^2 i, which
    # apply's membership test refused at 1e-12 (height 1e-6) and passed at
    # 1e-10 (height 1e-5).  The moved point is not kept.
    z = HPoint.from_factors(1000 + height * 1j, 1j)
    red = reduce_pair(z, I_H)
    assert_lambdas_exact(red, z, I_H)
    if height == 1e-6:
        assert red.lambda1 == 500000500000.50006


def test_reduce_pair_refuses_a_nan_phase_at_the_mover_gate(monkeypatch):
    # A finite image has a unit phase; a NaN one (from an overflowing image)
    # fails the determinant gate of the mover's product.
    monkeypatch.setattr("bisiegel.group._half_conj_phase", lambda w: (math.nan, 0.0))
    with pytest.raises(NumericalBreakdown, match="lost its determinant: det=nan"):
        reduce_pair(I_H, HPoint(2j, 1j))


def _built(op, monkeypatch) -> dict:
    """The records ``op()`` builds through the library's trusted ``object.__new__``
    (``_new`` in ``group`` and in ``domain``), counted per class name."""
    built: dict = {}

    def counted(cls):
        built[cls.__name__] = built.get(cls.__name__, 0) + 1
        return object.__new__(cls)

    with monkeypatch.context() as patch:
        for module in ("bisiegel.group", "bisiegel.domain"):
            patch.setattr(f"{module}._new", counted)
        op()
    return built


def test_hot_path_builds_only_the_records_it_returns(monkeypatch):
    # No intermediate factor or point: a motion stores its factors' entries, so
    # only split builds Sl2Matrix records; reduce_pair's
    # transports and rotations are entries passed to the factor product.
    rng = random.Random(34)
    for _ in range(20):
        m, n = random_motion(rng), random_motion(rng)
        z, w = random_hpoint(rng), random_hpoint(rng)
        raw = m.m
        motion = {"MotionMatrix": 1}
        assert _built(lambda: classify(raw), monkeypatch) == motion
        assert _built(lambda: m @ n, monkeypatch) == motion
        assert _built(lambda: random_motion(rng), monkeypatch) == motion
        assert _built(lambda: apply(m, z), monkeypatch) == {"HPoint": 1}
        assert _built(lambda: split(m), monkeypatch) == {"Sl2Matrix": 2}
        assert _built(lambda: reduce_pair(z, w), monkeypatch) == dict(motion, ReducedPair=1)


def wide_pairs(k: float, n: int) -> list:
    """``n`` pairs from ``random.Random(11)`` with factor heights and signed offsets
    10^U[-k, k] (the sign drawn first), the four factors of a pair in order."""
    rng = random.Random(11)
    return [tuple(HPoint.from_factors(*exact.signed(rng, -k, k)) for _ in range(2)) for _ in range(n)]


@pytest.mark.parametrize("k", [6.0, 9.0])
def test_reduce_pair_resolves_wide_pairs(k):
    # The radius test and the moved-point test refused 275 (k = 6) and 620
    # (k = 9) of these 1000 pairs.
    for p, q in wide_pairs(k, 1000):
        assert_lambdas_exact(reduce_pair(p, q), p, q)


@pytest.mark.parametrize("k", [1.0, 3.0, 6.0])
def test_reduce_pair_mover_images_match_a_decimal_reference(k):
    # Per factor, the mover must put z_base's factor at i and z_other's at its
    # canonical place i e^d, measured as 60-digit distances of the exact images
    # of the stored float entries.  The first step translates by the offset x:
    # for points of modulus |w| that rounds by u |w|, which at height y is
    # u |w| / y hyperbolic units.  So the bound is a few roundings at the
    # scale (|w_base| + |w_other|) / min(y_base, y_other) of each factor; the
    # worst measured is 2.1 U of it (k = 3), under the 4 U allowed.
    for p, q in wide_pairs(k, 500):
        red = reduce_pair(p, q)
        movers = split(red.mover)
        for m, wb, wo, s in zip(movers, p.factors(), q.factors(), exact.chords(p.factors(), q.factors())):
            err = max(exact.hyp_distance(exact.image(entries(m), wb), (0, 1)),
                      exact.hyp_distance(exact.image(entries(m), wo), (0, exact.dilation(s))))
            scale = 1.0 + (abs(wb) + abs(wo)) / min(wb.imag, wo.imag)
            assert err <= Decimal(4.0 * U * scale), (k, wb, wo, float(err))


def test_reduced_pair_refuses_non_finite_lambdas():
    mover = reduce_pair(I_H, I_H).mover
    for l1, l2 in ((math.nan, math.nan), (math.inf, 0.0), (2.0, math.nan), (math.inf, math.inf)):
        with pytest.raises(ValidationError, match="invalid canonical pair"):
            ReducedPair(mover, l1, l2)


def test_reduced_pair_has_one_gate(rng):
    # reduce_pair runs the checked constructor's gate, and dataclasses.replace runs it too.
    with pytest.raises(ValidationError, match="invalid canonical pair"):
        ReducedPair(reduce_pair(I_H, I_H).mover, 1.0, 0.5)
    for _ in range(100):
        red = reduce_pair(random_hpoint(rng), random_hpoint(rng))
        assert red == ReducedPair(red.mover, red.lambda1, red.lambda2)
        for change in ({"lambda1": math.nan}, {"lambda2": -1.0}):
            with pytest.raises(ValidationError, match="invalid canonical pair"):
                dataclasses.replace(red, **change)


def test_reduced_pair_gate_allows_the_rounding_of_large_lambdas():
    # From lambda1 = 2^52 on, the lambdas round by 1 or more, and
    # (L + S) / 2, (L - S) / 2 can be equal for a smaller dilation S < 2.
    mover = reduce_pair(I_H, I_H).mover
    ReducedPair(mover, 2.0**52 + 2.0, 2.0**52 + 2.0)
    with pytest.raises(ValidationError):
        ReducedPair(mover, 1e6, 1e6)  # a gap of 1 is resolved here: refused
    with pytest.raises(ValidationError):
        ReducedPair(mover, 2.0, -1e-9)
    # Factor dilations L near 1e16 and 1: both lambdas round to L / 2, and
    # lambda2 + 1 rounds above lambda1, which the old gate refused.
    for height in (2.0**53 + 4.0, 1e16):
        z = HPoint.from_factors(complex(0.0, height), 1j)
        red = reduce_pair(I_H, z)
        assert red.lambda1 == red.lambda2 < red.lambda2 + 1.0 - 1e-10
        assert_lambdas_exact(red, I_H, z)


def test_sixty_factor_chains_break_down_numerically():
    # Valid sampler motions: their products reach entries near 1e7 and
    # fail the product's determinant gate after 58, 42 and 53 factors.
    # That is a numerical breakdown (exit 3), not bad input.
    for seed, n in ((0, 58), (1, 42), (2, 53)):
        rng = random.Random(seed)
        chain = random_motion(rng)
        for _ in range(n - 1):
            chain = chain @ random_motion(rng)
        with pytest.raises(NumericalBreakdown, match="lost its determinant: det="):
            for _ in range(60 - n):
                chain = chain @ random_motion(rng)


def reduction_outcome(f, z_base: HPoint, z_other: HPoint):
    """The mover's entries and the lambdas, or the error class and message."""
    try:
        mover, l1, l2 = f(z_base, z_other)
    except GeometryError as exc:
        return f"{type(exc).__name__}: {exc}"
    m1, m2 = split(mover)
    return entries(m1), entries(m2), mover.eps, l1, l2


def test_fused_reduce_pair_matches_the_composed_motions():
    def fused(p, q):
        red = reduce_pair(p, q)
        return red.mover, red.lambda1, red.lambda2

    rng = random.Random(2024)
    pairs = [(random_hpoint(rng), random_hpoint(rng)) for _ in range(2000)]
    pairs += [tuple(HPoint.from_factors(*exact.tall(rng)) for _ in range(2)) for _ in range(2000)]
    raised = 0
    for p, q in pairs:
        want = reduction_outcome(composed_reduce_pair, p, q)
        assert reduction_outcome(fused, p, q) == want  # bit for bit
        raised += isinstance(want, str)
    assert raised < 100

    # Factor heights and offsets 10^U[-k, k], which all resolve, and the
    # extreme pairs (10^U[-11.5, 307.5]), most of which raise: at the
    # transvection, the lambdas or the mover's determinant gate.
    raised = 0
    for k in (9.0, 12.0):
        for _ in range(1000):
            p, q = (HPoint.from_factors(*exact.signed(rng, -k, k)) for _ in range(2))
            want = reduction_outcome(composed_reduce_pair, p, q)
            assert reduction_outcome(fused, p, q) == want  # bit for bit, messages too
            raised += isinstance(want, str)
    for _ in range(1000):
        p, q = extreme_pair(rng)
        want = reduction_outcome(composed_reduce_pair, p, q)
        assert reduction_outcome(fused, p, q) == want
        raised += isinstance(want, str)
    assert 0 < raised < 3000


def test_transvection_overflow_is_a_numerical_breakdown():
    # A translation past the float range: the entry -x / sqrt(y) of the transport
    # overflows, a numerical failure, never a NotUnimodular (bad input).
    p = HPoint.from_factors(1e308 + 1e-6j, 1j)
    with pytest.raises(NumericalBreakdown, match=re.escape("transvection of (1e+308+1e-06j) to i overflows")):
        transport_to_iI(p)
    for q in (p, I_H):
        with pytest.raises(NumericalBreakdown):
            reduce_pair(p, q)
    # Factor coordinates past about 1e154, where x*x + y*y overflows but no entry of
    # the transport does: the pairs resolve (the mover's accuracy here is its own bound's).
    z = HPoint.from_factors(1e183 + 1e183j, 2e183 + 1e183j)
    w = HPoint.from_factors(1e160 + 1e150j, 1e160 + 2e150j)
    for a, b in ((z, w), (w, z), (z, I_H), (I_H, z)):
        assert_lambdas_exact(reduce_pair(a, b), a, b)


# --------------------------------------------------------------------------
# model consistency


def test_disc_and_halfspace_actions_commute_with_cayley(rng):
    # The half-space stabilizer is the Cayley conjugate of the disc-model one:
    # the literal block action in the bounded model, then mapping up, agrees
    # with mapping up, then acting in the half-space.
    for _ in range(100):
        z = random_hpoint(rng)
        xi1 = complex(math.cos(a := rng.uniform(0, 2 * math.pi)), math.sin(a))
        xi2 = complex(math.cos(b := rng.uniform(0, 2 * math.pi)), math.sin(b))
        eps = 1 if rng.random() < 0.5 else -1
        disc = literal_disc_action(disc_stabilizer(xi1, xi2, eps), *cayley_to_disc(z))
        assert _points_gap(cayley_to_halfspace(*disc), apply(stabilizer_of_iI(xi1, xi2, eps), z)) <= 1e-9


def test_motion_json_roundtrip_and_eps_check(rng):
    for _ in range(100):
        m = random_motion(rng)
        doc = m.to_json_dict()
        back = classify(Mat4R(tuple(tuple(row) for row in doc["m"])))
        assert back.eps == doc["eps"] == m.eps
        # Factors are read back as sums and differences of halved entries.
        assert max(map(sl2_gap, split(back), split(m))) <= 2 * U * max_abs4(m.m)
        assert gap4(back.m, m.m) <= 2 * U * max_abs4(m.m)
    # The command-line reader is the one place a declared eps is checked.
    from bisiegel.cli import _parse_motion

    assert _parse_motion(doc) == classify(m.m)
    doc["eps"] = -doc["eps"]
    with pytest.raises(ValidationError, match="contradicts"):
        _parse_motion(doc)
    assert dataclasses.asdict(m)["eps"] in (1, -1)


@pytest.mark.parametrize("eps", [1, -1])
@pytest.mark.parametrize(
    "a1,a2,text", [(1e308, 1e308, "inf"), (-1e308, -1e308, "-inf"), (1e308, -1e308, "inf")]
)
def test_motion_rows_beyond_the_float_range_meet_the_4x4_gate(eps, a1, a2, text):
    # Unimodular factors whose half-sum or half-difference overflows: the JSON
    # rows and the verify reference both name the first non-finite entry in
    # row order (for eps = -1 row 1 holds -inf where row 0 holds inf).
    motion = assemble(Sl2Matrix(a1, 0.0, 0.0, 1.0 / a1), Sl2Matrix(a2, 0.0, 0.0, 1.0 / a2), eps)
    for read in (motion.to_json_dict, lambda: motion.m):
        with pytest.raises(NumericalBreakdown, match=f"^non-finite entry {text} in 4x4 matrix$"):
            read()


# --------------------------------------------------------------------------
# seeded samplers


def uniform_hpoint(rng):
    """``random_hpoint`` as written with ``Random.uniform``: the documented draw order."""
    lo, hi = math.log(0.1), math.log(10.0)
    y_plus, y_minus = math.exp(rng.uniform(lo, hi)), math.exp(rng.uniform(lo, hi))
    x_plus, x_minus = rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)
    return (complex(x_plus, y_plus), complex(x_minus, y_minus))


def uniform_sl2(rng):
    """``random_sl2`` as written with ``Random.uniform``: angle, log-scale, shear."""
    theta = rng.uniform(0.0, 2.0 * math.pi)
    lam = math.exp(rng.uniform(-1.0, 1.0))
    mu = rng.uniform(-2.0, 2.0)
    ct, st = math.cos(theta), math.sin(theta)
    return (ct * lam, ct * mu + st / lam, -st * lam, -st * mu + ct / lam)


@pytest.mark.parametrize(
    "sampler, reference",
    [(lambda rng: random_hpoint(rng).factors(), uniform_hpoint),
     (lambda rng: (lambda m: (m.a, m.b, m.c, m.d))(random_sl2(rng)), uniform_sl2)],
    ids=["random_hpoint", "random_sl2"],
)
def test_samplers_draw_as_random_uniform_bit_for_bit(sampler, reference):
    for seed in range(5):
        got_rng, want_rng = random.Random(seed), random.Random(seed)
        got = [sampler(got_rng) for _ in range(10_000)]
        want = [reference(want_rng) for _ in range(10_000)]
        assert repr(got) == repr(want)  # repr tells -0.0 from 0.0 and every last bit
        assert got_rng.getstate() == want_rng.getstate()

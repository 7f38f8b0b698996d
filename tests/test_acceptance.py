"""Acceptance criteria, one test per criterion.

Every test computes its residuals first, prints a single pass/fail line
(visible with ``pytest -s`` or ``-rP``), then asserts at the pinned
tolerance.  Seeds are fixed; reruns are byte-stable.  A criterion whose loop
body is a ``verify`` check folds that check with its own seed.
"""

import math
import random
import time

from bisiegel import verify
from bisiegel.cli import main as cli_main
from bisiegel.domain import HPoint, random_hpoint
from bisiegel.errors import DomainViolation
from bisiegel.geometry import connect, cross_ratio_eigenvalues, distance
from bisiegel.group import (
    apply,
    assemble,
    classify,
    random_motion,
    random_sl2,
    reduce_pair,
    split,
)
from bisiegel.verify import _points_gap

from conftest import (
    KERNEL_4,
    _geodesic_ode_residual,
    _path_length,
    entries,
    mobius,
    volume_jacobian_residual,
)

I_H = HPoint(1j, 0.0)
TWO_I = HPoint(2j, 0.0)
MIXED = HPoint(2j, 1j)


def report(num: int, name: str, ok: bool, detail: str) -> bool:
    print(f"[acceptance] criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_criterion_01_cayley_roundtrip():
    rng = random.Random(1001)
    start = time.perf_counter()
    worst = verify._fold(verify._check_cayley_roundtrip, rng, 1000)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    assert report(1, "cayley_roundtrip", ok, f"max={worst:.3e} tol=1e-10 time={elapsed:.2f}s")


def test_criterion_02_kernel_and_closure():
    rng = random.Random(1002)
    start = time.perf_counter()
    kernel = [classify(m) for m in KERNEL_4]
    worst = 0.0
    for _ in range(100):
        z = random_hpoint(rng)
        for m in kernel:
            worst = max(worst, _points_gap(apply(m, z), z))
    closure_ok = True
    for _ in range(1000):
        w = apply(random_motion(rng), random_hpoint(rng))
        try:
            HPoint(w.tau, w.z)
        except DomainViolation:
            closure_ok = False
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and closure_ok and elapsed < 1.0
    assert report(
        2,
        "kernel_and_closure",
        ok,
        f"kernel_max={worst:.3e} tol=1e-12 closure={'ok' if closure_ok else 'violated'} "
        f"time={elapsed:.2f}s",
    )


def test_criterion_03_group_action_law():
    worst = verify._fold(verify._check_group_law, random.Random(1003), 500)
    ok = worst <= 1e-9
    assert report(3, "group_action_law", ok, f"max={worst:.3e} tol=1e-9")


def test_criterion_04_factorization():
    rng = random.Random(1004)
    worst_action = 0.0
    for _ in range(500):
        m = random_motion(rng)
        z = random_hpoint(rng)
        m1, m2 = split(m)
        f_plus, f_minus = z.factors()
        g_plus = mobius(entries(m1), f_plus)
        g_minus = mobius(entries(m2), f_minus)
        if m.eps == -1:
            g_plus, g_minus = g_minus, g_plus
        w_plus, w_minus = apply(m, z).factors()
        worst_action = max(worst_action, abs(w_plus - g_plus), abs(w_minus - g_minus))
    worst_roundtrip = 0.0
    for _ in range(500):
        m1 = random_sl2(rng)
        m2 = random_sl2(rng)
        eps = 1 if rng.random() < 0.5 else -1
        r1, r2 = split(assemble(m1, m2, eps))
        for got, want in ((r1, m1), (r2, m2)):
            worst_roundtrip = max(
                worst_roundtrip,
                abs(got.a - want.a),
                abs(got.b - want.b),
                abs(got.c - want.c),
                abs(got.d - want.d),
            )
    ok = worst_action <= 1e-9 and worst_roundtrip <= 1e-12
    assert report(
        4,
        "factorization",
        ok,
        f"action_max={worst_action:.3e} tol=1e-9 roundtrip_max={worst_roundtrip:.3e} tol=1e-12",
    )


def test_criterion_05_pair_reduction():
    rng = random.Random(1005)
    worst_end = 0.0
    worst_invariants = 0.0
    worst_unchanged = 0.0
    for _ in range(500):
        z1 = random_hpoint(rng)
        z2 = random_hpoint(rng)
        red = reduce_pair(z1, z2)
        img1 = apply(red.mover, z1)
        img2 = apply(red.mover, z2)
        worst_end = max(
            worst_end,
            _points_gap(img1, I_H),
            abs(img2.tau - complex(0.0, red.lambda1)),
            abs(img2.z - complex(0.0, red.lambda2)),
        )
        worst_invariants = max(
            worst_invariants,
            red.lambda2 + 1.0 - red.lambda1,  # lambda1 >= lambda2 + 1
            -red.lambda2,  # lambda2 >= 0
        )
        m = random_motion(rng)
        red_m = reduce_pair(apply(m, z1), apply(m, z2))
        worst_unchanged = max(
            worst_unchanged,
            abs(red.lambda1 - red_m.lambda1),
            abs(red.lambda2 - red_m.lambda2),
        )
    ok = worst_end <= 1e-8 and worst_invariants <= 1e-9 and worst_unchanged <= 1e-8
    assert report(
        5,
        "pair_reduction",
        ok,
        f"endpoints_max={worst_end:.3e} tol=1e-8 invariant_slack={worst_invariants:.3e} "
        f"premotion_max={worst_unchanged:.3e} tol=1e-8",
    )


def test_criterion_06_distance_closed_forms():
    gap1 = abs(distance(I_H, TWO_I) - math.sqrt(2.0) * math.log(2.0))
    gap2 = abs(distance(I_H, MIXED) - math.log(3.0))
    ok = gap1 <= 1e-12 and gap2 <= 1e-12
    assert report(
        6, "distance_closed_forms", ok, f"gaps=({gap1:.3e}, {gap2:.3e}) tol=1e-12"
    )


def test_criterion_07_oracle_pythagoras():
    worst = verify._fold(verify._check_pythagoras, random.Random(1007), 1000)
    ok = worst <= 1e-9
    assert report(7, "oracle_pythagoras", ok, f"max={worst:.3e} tol=1e-9")


def test_criterion_08_isometry():
    worst = verify._fold(verify._check_isometry, random.Random(1008), 200)
    ok = worst <= 1e-8
    assert report(8, "isometry", ok, f"max={worst:.3e} tol=1e-8")


def test_criterion_09_geodesics():
    start = time.perf_counter()
    rng = random.Random(1009)
    worst_end = 0.0
    for _ in range(100):
        z1 = random_hpoint(rng)
        z2 = random_hpoint(rng)
        spec = connect(z1, z2)
        worst_end = max(
            worst_end, _points_gap(spec.point(0.0), z1), _points_gap(spec.point(spec.s0), z2)
        )

    length_rng = random.Random(17)  # well-separated pair, strong curvature
    za, zb = random_hpoint(length_rng), random_hpoint(length_rng)
    spec = connect(za, zb)
    length = _path_length(spec._factors, 0.0, spec.s0, panels=10_000)
    length_rel = abs(length - spec.s0) / spec.s0

    worst_res = 0.0
    worst_ratio_lo, worst_ratio_hi = 4.0, 4.0
    for k in range(1, 11):
        s = spec.s0 * k / 11.0
        r_h = _geodesic_ode_residual(spec._factors, s, 1e-3)
        r_half = _geodesic_ode_residual(spec._factors, s, 5e-4)
        worst_res = max(worst_res, r_h)
        ratio = r_h / r_half
        worst_ratio_lo = min(worst_ratio_lo, ratio)
        worst_ratio_hi = max(worst_ratio_hi, ratio)
    elapsed = time.perf_counter() - start
    ok = (
        worst_end <= 1e-8
        and length_rel <= 1e-6
        and worst_res <= 1e-5
        and 3.5 <= worst_ratio_lo
        and worst_ratio_hi <= 4.5
        and elapsed < 10.0
    )
    assert report(
        9,
        "geodesics",
        ok,
        f"endpoints_max={worst_end:.3e} tol=1e-8 length_rel={length_rel:.3e} tol=1e-6 "
        f"ode_max={worst_res:.3e} tol=1e-5 ratio=[{worst_ratio_lo:.2f},{worst_ratio_hi:.2f}] "
        f"time={elapsed:.2f}s",
    )


def test_criterion_10_cross_ratio():
    rng = random.Random(1010)
    worst = 0.0
    for _ in range(200):
        z1 = random_hpoint(rng)
        z2 = random_hpoint(rng)
        m = random_motion(rng)
        w1, w2 = apply(m, z1), apply(m, z2)
        ev = cross_ratio_eigenvalues(z1, z2)
        ev_m = cross_ratio_eigenvalues(w1, w2)
        # The trace is the eigenvalue sum.
        worst = max(worst, abs(sum(ev) - sum(ev_m)), abs(ev[0] - ev_m[0]), abs(ev[1] - ev_m[1]))
    # Both eigenvalues 1/9: the bi-symmetric cross ratio is I/9.
    closed_gap = max(abs(rho - 1.0 / 9.0) for rho in cross_ratio_eigenvalues(I_H, TWO_I))
    ok = worst <= 1e-8 and closed_gap <= 1e-12
    assert report(
        10,
        "cross_ratio",
        ok,
        f"invariance_max={worst:.3e} tol=1e-8 closed_gap={closed_gap:.3e} tol=1e-12",
    )


def test_criterion_11_volume_invariance():
    worst = verify._fold(volume_jacobian_residual, random.Random(1011), 200)
    ok = worst <= 1e-4
    assert report(11, "volume_invariance", ok, f"max_rel={worst:.3e} tol=1e-4")


def test_criterion_12_metric_base_value():
    worst = verify._fold(verify._check_metric_base, random.Random(1012), 100)
    ok = worst <= 1e-12
    assert report(12, "metric_base_value", ok, f"max={worst:.3e} tol=1e-12")


def test_criterion_13_cli(tmp_path, capsys):
    code = cli_main(["verify", "--seed", "42", "--trials", "1000"])
    verify_out = capsys.readouterr().out
    verify_ok = code == 0 and "FAIL" not in verify_out

    z1 = tmp_path / "z1.json"
    z1.write_text('{"tau":[0,1],"z":[0,0]}')
    z2 = tmp_path / "z2.json"
    z2.write_text('{"tau":[0,2],"z":[0,0]}')
    mixed = tmp_path / "mixed.json"
    mixed.write_text('{"tau":[0,2],"z":[0,1]}')
    q = tmp_path / "q.json"
    q.write_text('{"m":[[0,1,0,0],[1,0,0,0],[0,0,0,1],[0,0,1,0]],"eps":1}')

    cli_main(["distance", "--z1", str(z1), "--z2", str(z2)])
    distance_out = capsys.readouterr().out
    cli_main(["volume", "--point", str(z1)])
    volume_out = capsys.readouterr().out
    cli_main(["act", "--matrix", str(q), "--point", str(mixed)])
    act_out = capsys.readouterr().out

    goldens_ok = (
        distance_out == '{"rho":0.980258143468547,"A":2.5,"B":2.5}\n'
        and volume_out == '{"density":4}\n'
        and act_out == '{"tau":[0,2],"z":[0,1]}\n'
    )
    ok = verify_ok and goldens_ok
    assert report(
        13,
        "cli",
        ok,
        f"verify_exit={code} goldens={'match' if goldens_ok else 'differ'}",
    )

import cmath
import io
import json
import math
import os
import random
import re
import select
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from bisiegel import geometry, group, verify
from bisiegel.cli import _build_parser, _to_json_text, main
from bisiegel.domain import HPoint, _epoint
from bisiegel.errors import DomainViolation, GeometryError, NumericalBreakdown
from bisiegel.geometry import GeodesicSpec
from bisiegel.group import Sl2Matrix, apply, assemble, random_motion, split

from conftest import mutated
from pins import GOLDEN, PINS, run_pin

I_JSON = '{"tau":[0,1],"z":[0,0]}'
TWO_I_JSON = '{"tau":[0,2],"z":[0,0]}'
MIXED_JSON = '{"tau":[0,2],"z":[0,1]}'
Q_JSON = '{"m":[[0,1,0,0],[1,0,0,0],[0,0,0,1],[0,0,1,0]],"eps":1}'


@pytest.fixture
def files(tmp_path):
    def write(name: str, text: str) -> str:
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_distance_golden(files, capsys):
    z1 = files("z1.json", I_JSON)
    z2 = files("z2.json", TWO_I_JSON)
    code, out, _ = run(capsys, ["distance", "--z1", z1, "--z2", z2])
    assert code == 0
    assert out == '{"rho":0.980258143468547,"A":2.5,"B":2.5}\n'


def test_far_pair_distance_and_geodesic(files, capsys):
    # The factor heights differ by 1e160, so their squares overflow; the
    # distance and the geodesic must not go through them.
    z1 = files("z1.json", I_JSON)
    z2 = files("z2.json", '{"tau":[0,1e160],"z":[0,0]}')
    code, out, _ = run(capsys, ["distance", "--z1", z1, "--z2", z2])
    assert code == 0
    doc = json.loads(out)
    assert doc["rho"] == pytest.approx(2.0 * math.sqrt(2.0) * math.log(1e80), rel=1e-12)
    assert math.isfinite(doc["A"]) and math.isfinite(doc["B"])
    code, out, _ = run(capsys, ["geodesic", "--z1", z1, "--z2", z2, "--samples", "3"])
    assert code == 0
    rows = [[float(v) for v in line.split(",")] for line in out.splitlines()[1:]]
    assert rows[0][1:] == [0.0, 1.0, 0.0, 0.0]
    assert rows[1][0] == pytest.approx(doc["rho"] / 2.0, rel=1e-12)
    assert rows[1][2] == pytest.approx(1e80, rel=1e-12)
    assert rows[2][1:] == [0.0, 1e160, 0.0, 0.0]


def test_pair_beyond_the_float_range_of_cosh(files, capsys):
    # The chord overflows while the distance is near 2000: no "inf" output,
    # and no traceback.
    z1 = files("z1.json", I_JSON)
    z2 = files("z2.json", '{"tau":[1e304,2e-11],"z":[0,0]}')
    for cmd in ("distance", "geodesic"):
        code, out, err = run(capsys, [cmd, "--z1", z1, "--z2", z2])
        assert code == 3 and out == "" and "overflows" in err


def test_singular_and_reflecting_factors_are_rejected(files, capsys):
    m2 = files("m2.json", '{"a":1,"b":0,"c":0,"d":1}')
    for doc in ('{"a":1e6,"b":1e6,"c":1e6,"d":1e6}', '{"a":1000001,"b":1e6,"c":1e6,"d":999999}'):
        m1 = files("m1.json", doc)
        code, out, err = run(capsys, ["assemble", "--m1", m1, "--m2", m2, "--eps", "1"])
        assert code == 2 and out == "" and "det=" in err


def test_volume_golden(files, capsys):
    p = files("p.json", I_JSON)
    code, out, _ = run(capsys, ["volume", "--point", p])
    assert code == 0
    assert out == '{"density":4}\n'


def test_act_exchange_golden(files, capsys):
    m = files("q.json", Q_JSON)
    p = files("p.json", MIXED_JSON)
    code, out, _ = run(capsys, ["act", "--matrix", m, "--point", p])
    assert code == 0
    assert out == '{"tau":[0,2],"z":[0,1]}\n'


def test_check_point_and_matrix(files, capsys):
    p = files("p.json", MIXED_JSON)
    code, out, _ = run(capsys, ["check", "point", p])
    assert code == 0 and out == '{"model":"halfspace","member":true}\n'

    e = files("e.json", '{"z1":[0.25,0],"z2":[0.25,0]}')
    code, out, _ = run(capsys, ["check", "point", e])
    assert code == 0 and out == '{"model":"disc","member":true}\n'

    boundary = files("b.json", '{"tau":[0,1],"z":[0,1]}')
    code, out, _ = run(capsys, ["check", "point", boundary])
    assert code == 0 and out == '{"model":"halfspace","member":false}\n'

    q = files("q.json", Q_JSON)
    code, out, _ = run(capsys, ["check", "matrix", q])
    assert code == 0 and out == '{"symplectic":true,"motion":true,"eps":1}\n'

    scaled = files(
        "s.json", '{"m":[[2,0,0,0],[0,2,0,0],[0,0,2,0],[0,0,0,2]]}'
    )
    code, out, _ = run(capsys, ["check", "matrix", scaled])
    assert code == 0 and out == '{"symplectic":false,"motion":false,"eps":null}\n'

    outside = files(
        "o.json", '{"m":[[2,0,0,0],[0,1,0,0],[0,0,0.5,0],[0,0,0,1]]}'
    )
    code, out, _ = run(capsys, ["check", "matrix", outside])
    assert code == 0 and out == '{"symplectic":true,"motion":false,"eps":null}\n'

    # Glued from diag(1 + 1.5e-10, 1) and I: the symplectic residual (7.5e-11) is
    # within abs_eps, but on a patterned matrix the factor gate decides, and the
    # first factor's determinant is off by 1.5e-10.
    glued = files(
        "u.json",
        '{"m":[[1.000000000075,7.5e-11,0,0],[7.5e-11,1.000000000075,0,0],[0,0,1,0],[0,0,0,1]]}',
    )
    code, out, _ = run(capsys, ["check", "matrix", glued])
    assert code == 0 and out == '{"symplectic":false,"motion":false,"eps":null}\n'


def test_cayley_both_ways(files, capsys):
    p = files("p.json", MIXED_JSON)
    code, out, _ = run(capsys, ["cayley", "--to", "disc", "--point", p])
    assert code == 0
    assert out == '{"z1":[0.25,0],"z2":[0.25,0]}\n'
    e = files("e.json", out.strip())
    code, out, _ = run(capsys, ["cayley", "--to", "halfspace", "--point", e])
    assert code == 0
    assert json.loads(out) == {"tau": [0, 2], "z": [0, 1]}


def test_cayley_to_disc_inside_the_margin_exits_3(files, capsys):
    # A valid point whose disc image lies within dom_eps of the unit circle.
    p = files("p.json", '{"tau":[1e7,1],"z":[0,0]}')
    code, out, err = run(capsys, ["cayley", "--to", "disc", "--point", p])
    assert code == 3 and out == "" and err.startswith("numerical error:")
    assert "Traceback" not in err


def test_cayley_to_halfspace_inside_the_margin_exits_3(files, capsys):
    # A valid point whose image has a factor height of 7.5e-13 < dom_eps.
    z = repr(-(1.0 - 1.5e-12) / 2.0)
    e = files("e.json", f'{{"z1":[{z},0],"z2":[{z},0]}}')
    code, out, err = run(capsys, ["cayley", "--to", "halfspace", "--point", e])
    assert code == 3 and out == "" and err.startswith("numerical error:")
    assert "Traceback" not in err


def test_act_image_inside_the_margin_exits_3(files, capsys):
    # The motion glued from diag(1e-7, 1e7) and I sends iI to factor height
    # 1e-14: a valid point the half-space model cannot resolve at dom_eps.
    m = files(
        "m.json",
        '{"m":[[0.50000005,-0.49999995,0,0],[-0.49999995,0.50000005,0,0],'
        '[0,0,5000000.5,4999999.5],[0,0,4999999.5,5000000.5]],"eps":1}',
    )
    p = files("p.json", I_JSON)
    code, out, err = run(capsys, ["act", "--matrix", m, "--point", p])
    assert code == 3 and out == "" and err.startswith("numerical error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("model", ["halfspace", "disc"])
def test_stabilizer_parameter_gate_matches_the_factor_gate(capsys, model):
    # |xi1|^2 - 1 = 1.4e-10: the factor determinant gate would reject the
    # factors, so the parameter gate rejects the parameter, in both models.
    argv = ["stabilizer", "--xi1", "1.00000000007,0", "--xi2", "1,0", "--model", model]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err == "error: |xi1|=1.00000000007 is not 1\n"


def test_stdin_input(files, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(I_JSON))
    code, out, _ = run(capsys, ["volume", "--point", "-"])
    assert code == 0 and out == '{"density":4}\n'


def test_split_assemble_roundtrip_via_cli(files, capsys):
    q = files("q.json", Q_JSON)
    code, out, _ = run(capsys, ["split", "--matrix", q])
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "m1": {"a": 1, "b": 0, "c": 0, "d": 1},
        "m2": {"a": -1, "b": 0, "c": 0, "d": -1},
        "eps": 1,
    }
    m1 = files("m1.json", json.dumps(doc["m1"]))
    m2 = files("m2.json", json.dumps(doc["m2"]))
    code, out, _ = run(capsys, ["assemble", "--m1", m1, "--m2", m2, "--eps", "1"])
    assert code == 0
    assert json.loads(out)["m"] == [
        [0, 1, 0, 0],
        [1, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ]


def test_reduce_golden(files, capsys):
    z1 = files("z1.json", I_JSON)
    z = files("z.json", MIXED_JSON)
    code, out, _ = run(capsys, ["reduce", "--z1", z1, "--z", z])
    assert code == 0
    assert out == (
        '{"lambda1":2,"lambda2":1,"mover":{"m":[[1,0,0,0],[0,1,0,0],'
        '[0,0,1,0],[0,0,0,1]],"eps":1}}\n'
    )


def test_geodesic_csv(files, capsys):
    z1 = files("z1.json", I_JSON)
    z2 = files("z2.json", TWO_I_JSON)
    code, out, _ = run(capsys, ["geodesic", "--z1", z1, "--z2", z2, "--samples", "3"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "s,tau_re,tau_im,z_re,z_im"
    assert lines[1] == "0,0,1,0,0"
    assert lines[2] == "0.490129071734274,0,1.4142135623731,0,0"
    assert lines[3] == "0.980258143468547,0,2,0,0"
    assert len(lines) == 4


def test_stabilizer_models(capsys):
    code, out, _ = run(
        capsys, ["stabilizer", "--xi1", "1,0", "--xi2", "1,0", "--model", "halfspace"]
    )
    assert code == 0
    assert json.loads(out)["m"] == [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
    ]
    code, out, _ = run(
        capsys, ["stabilizer", "--xi1", "1,0", "--xi2=-1,0", "--model", "disc"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["a0"] == [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]
    assert doc["eps"] == 1


@pytest.mark.parametrize(
    "eps,expected",
    [
        (
            "1",
            '{"a0":[[[0.52015115293407,0.853748194296168],[-0.0201511529340698,0.012277209488271]],'
            '[[-0.0201511529340698,0.012277209488271],[0.52015115293407,0.853748194296168]]],'
            '"b0":[[[0,0],[0,0]],[[0,0],[0,0]]],"eps":1}\n',
        ),
        (
            "-1",
            '{"a0":[[[0.52015115293407,0.853748194296168],[-0.0201511529340698,0.012277209488271]],'
            '[[0.0201511529340698,-0.012277209488271],[-0.52015115293407,-0.853748194296168]]],'
            '"b0":[[[0,0],[0,0]],[[0,0],[0,0]]],"eps":-1}\n',
        ),
    ],
    ids=["plus", "minus"],
)
def test_stabilizer_disc_golden(capsys, eps, expected):
    # xi1 at pi/3 and xi2 at 1 rad: the blocks mix both parameters, and for
    # eps = -1 the bottom rows change sign.
    xi1 = f"--xi1={math.cos(math.pi / 3)!r},{math.sin(math.pi / 3)!r}"
    xi2 = f"--xi2={math.cos(1.0)!r},{math.sin(1.0)!r}"
    code, out, _ = run(capsys, ["stabilizer", xi1, xi2, "--eps", eps, "--model", "disc"])
    assert code == 0 and out == expected


def test_random_point_golden_and_determinism(capsys):
    code, first, _ = run(capsys, ["random", "point", "--seed", "42", "--count", "3"])
    assert code == 0
    assert first.splitlines()[0] == (
        '{"tau":[-2.50879971741029,1.00632246337876],'
        '"z":[0.259092901101482,0.894115060494957]}'
    )
    code, second, _ = run(capsys, ["random", "point", "--seed", "42", "--count", "3"])
    assert first == second
    code, other_seed, _ = run(capsys, ["random", "point", "--seed", "43", "--count", "3"])
    assert other_seed != first


def test_random_motion_is_valid_and_deterministic(capsys):
    code, first, _ = run(capsys, ["random", "motion", "--seed", "7", "--count", "5"])
    assert code == 0
    code, second, _ = run(capsys, ["random", "motion", "--seed", "7", "--count", "5"])
    assert first == second
    from bisiegel import Mat4R, classify

    for line in first.splitlines():
        doc = json.loads(line)
        assert classify(Mat4R(tuple(tuple(row) for row in doc["m"]))).eps == doc["eps"]


def test_verify_small_run_passes(capsys):
    code, out, _ = run(capsys, ["verify", "--seed", "42", "--trials", "40"])
    assert code == 0
    lines = out.splitlines()
    assert lines[-1].endswith("checks passed")
    assert all("FAIL" not in line for line in lines)


def test_verify_reports_a_nan_residual_as_a_failure(capsys, monkeypatch):
    # max(0.0, nan) is 0.0, so a fold through max would print 0.000e+00 and PASS.
    monkeypatch.setattr("bisiegel.verify.distance", lambda z1, z2: math.nan)
    code, out, _ = run(capsys, ["verify", "--seed", "42", "--trials", "20"])
    assert code == 1 and out.endswith("16/19 checks passed\n")
    failed = {line.split()[0] for line in out.splitlines() if line.endswith("FAIL")}
    assert failed == {"isometry", "pythagoras", "triangle"}
    assert all("max_residual=nan " in line for line in out.splitlines() if line.endswith("FAIL"))


@pytest.mark.parametrize("trials,worst", [
    ([[math.nan, 1.0]], math.nan),  # a NaN as the first residual
    ([(2.0, math.nan)], math.nan),  # a NaN after a larger residual
    ([[math.nan, 5.0], (math.inf,)], math.nan),  # residuals after a NaN, in its trial and later
    ([(), [], ()], 0.0),  # empty trials, as a passing closure returns
    ([(1.0,), [math.inf, 2.0]], math.inf),
    ([(1.0, 3.0), [2.0], (0.5,)], 3.0),  # tuple and list returns
])
def test_fold_keeps_the_worst_residual_and_the_first_nan(trials, worst):
    # The fold rule on stub checks: max, except that a NaN once seen stays, where
    # max(3.0, nan) would drop it.  Each trial calls the check once, on the given stream.
    rng, returns = random.Random(0), iter(trials)

    def check(stream):
        assert stream is rng
        return next(returns)

    got = verify._fold(check, rng, len(trials))
    assert next(returns, None) is None
    assert math.isnan(got) if math.isnan(worst) else got == worst


@pytest.mark.parametrize("name", ["ode_residual", "arc_length"])
def test_geodesic_checks_keep_a_nan_from_the_unchecked_factors(monkeypatch, name):
    # These checks read GeodesicSpec._factors, which no membership test guards.
    # run_suite folds the trials, so the suite is cut to this one check.
    from bisiegel.verify import SUITE, run_suite

    nan_pair = (complex(math.nan, 1.0),) * 2
    monkeypatch.setattr("bisiegel.geometry.GeodesicSpec._factors", lambda self, s: nan_pair)
    monkeypatch.setattr("bisiegel.verify.SUITE", {name: SUITE[name]})
    [result] = run_suite(42, 2 * SUITE[name][2])
    assert result.trials == 2 and math.isnan(result.max_residual) and not result.passed


def test_closure_check_fails_where_an_image_falls_inside_the_margin(capsys, monkeypatch):
    # diag(1e-7, 1e7) in both factors scales every height by 1e-14, so each image
    # lies inside the dom_eps margin: apply refuses it, and closure reports a FAIL
    # row with exit 1, not a breakdown with exit 3 and no report.
    from bisiegel.verify import SUITE

    shrink = Sl2Matrix(1e-7, 0.0, 0.0, 1e7)
    monkeypatch.setattr("bisiegel.verify.random_motion", lambda rng: assemble(shrink, shrink, 1))
    monkeypatch.setattr("bisiegel.verify.SUITE", {"closure": SUITE["closure"]})
    code, out, err = run(capsys, ["verify", "--seed", "42", "--trials", "1"])
    assert code == 1 and err == ""
    row, total = out.splitlines()
    assert row.split() == ["closure", "trials=1", "max_residual=1.000e+00", "tol=0.000e+00", "FAIL"]
    assert total == "0/1 checks passed"


def test_arc_length_check_catches_a_reparametrized_geodesic(monkeypatch):
    # s -> s0 (t + a sin(2 pi t)), t = s / s0, keeps the endpoints and the total
    # length, so an integral of the speed passes it; the speed 1 + 2 pi a cos(2 pi t)
    # leaves 1 by up to 2 pi a, which the pointwise check reads.
    from bisiegel.geometry import GeodesicSpec
    from bisiegel.verify import SUITE, run_suite

    a, factors = 1e-5, GeodesicSpec._factors
    monkeypatch.setattr(GeodesicSpec, "_factors", lambda self, s: factors(
        self, s + a * self.s0 * math.sin(2.0 * math.pi * s / self.s0)))
    monkeypatch.setattr("bisiegel.verify.SUITE", {"arc_length": SUITE["arc_length"]})
    [result] = run_suite(42, 20)
    assert not result.passed and result.max_residual > 1e-5


def _serial_report(seed, trials):
    # Every check folded in this process, in SUITE order, each residual as its exact bits.
    report = []
    for name, (check, tol, divisor) in verify.SUITE.items():
        n = max(1, trials // divisor)
        report.append((name, n, verify._fold(check, verify._rng(seed, name), n).hex(), tol))
    return report


def _report(results):
    return [(r.name, r.trials, r.max_residual.hex(), r.tolerance) for r in results]


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("seed", [42, 7])
def test_run_suite_equals_the_serial_fold_bit_for_bit(monkeypatch, seed):
    # However many processes fold the checks, each residual is the one this process folds:
    # one per usable CPU, and eight, more than this host is likely to have, racing for the queue.
    expected = _serial_report(seed, 200)
    assert _report(verify.run_suite(seed, 200)) == expected
    monkeypatch.setattr(verify, "_workers", lambda: 8)
    assert _report(verify.run_suite(seed, 200)) == expected
    _no_child_left()


def _who_folds(monkeypatch, workers, trials, stall=lambda: None):
    # run_suite(42, trials) on ``workers`` processes, every trial of every check wrapped to call
    # ``stall`` and write its name and the pid of the process that runs it: the results, and
    # the (name, pid) of each trial in the order they were written.
    read, write = os.pipe()

    def tells(name, check):
        def trial(rng):
            stall()
            os.write(write, f"{name} {os.getpid()}\n".encode())
            return check(rng)
        return trial

    monkeypatch.setattr(verify, "_workers", lambda: workers)
    _patch_every_check(monkeypatch, tells)
    try:
        results = verify.run_suite(42, trials)
    finally:
        os.close(write)
    with open(read) as lines:
        folds = [(name, int(pid)) for name, pid in map(str.split, lines)]
    _no_child_left()
    return results, folds


def test_every_check_has_a_cost_and_the_queue_is_written_heaviest_first(monkeypatch):
    # _COST_MS only orders the queue; a check missing from it would cost 1 and be taken last.
    # With one process the caller drains the queue alone, so it folds in the queue's order.
    assert list(verify._COST_MS) == list(verify.SUITE)
    heaviest_first = sorted(verify.SUITE, key=verify._COST_MS.__getitem__, reverse=True)
    _, folds = _who_folds(monkeypatch, 1, 1)
    assert folds == [(name, os.getpid()) for name in heaviest_first]


@pytest.mark.parametrize("workers", [2, 8])
def test_each_check_is_folded_exactly_once(monkeypatch, workers):
    # With one trial each, a check folded twice, or by none of the processes, shows.
    _, folds = _who_folds(monkeypatch, workers, 1)
    assert sorted(name for name, _ in folds) == sorted(verify.SUITE)
    assert len({pid for _, pid in folds}) <= workers


def test_a_stalled_child_folds_one_check_and_the_caller_the_other_18(monkeypatch):
    # The child stalls 1 s in each check it takes; once it has taken one, the caller folds all
    # the others meanwhile, as a plan fixed before forking would not.  The caller waits for
    # that first take (at most 30 s), so the test does not depend on which process runs first.
    expected, parent = _serial_report(42, 1), os.getpid()
    taken, take = os.pipe()

    def stall():
        if os.getpid() != parent:
            os.write(take, b"1")
            time.sleep(1)
        else:
            assert select.select([taken], [], [], 30)[0], "the child took no check"

    try:
        results, folds = _who_folds(monkeypatch, 2, 1, stall)
    finally:
        os.close(taken)
        os.close(take)
    assert _report(results) == expected
    by_pid = {}
    for name, pid in folds:
        by_pid.setdefault(pid, []).append(name)
    assert len(by_pid.pop(parent)) == 18
    assert [len(names) for names in by_pid.values()] == [1]


def _patch_every_check(monkeypatch, make):
    monkeypatch.setattr(verify, "SUITE", {name: (make(name, check), tol, divisor)
                                          for name, (check, tol, divisor) in verify.SUITE.items()})


def test_verify_names_the_first_check_that_raises_whichever_process_ran_it(capsys, monkeypatch):
    def breaks(name, check):
        def broken(rng):
            raise NumericalBreakdown(f"{name} broke")
        return broken

    _patch_every_check(monkeypatch, breaks)
    code, out, err = run(capsys, ["verify", "--seed", "42", "--trials", "20"])
    assert (code, out, err) == (3, "", "numerical error: cayley_roundtrip broke\n")
    with pytest.raises(NumericalBreakdown, match="^cayley_roundtrip broke$"):
        verify.run_suite(42, 20)
    _no_child_left()


def test_verify_fails_every_check_whose_residual_is_nan(capsys, monkeypatch):
    # A NaN crosses from a child to the parent as a NaN, not as a passing number.
    _patch_every_check(monkeypatch, lambda name, check: lambda rng: (math.nan,))
    code, out, err = run(capsys, ["verify", "--seed", "42", "--trials", "20"])
    rows = out.splitlines()
    assert code == 1 and err == "" and rows[-1] == "0/19 checks passed"
    assert [row.split()[0] for row in rows[:-1]] == list(verify.SUITE)
    assert all("max_residual=nan " in row and row.endswith("FAIL") for row in rows[:-1])


def test_run_suite_runs_in_this_process_alone_while_another_thread_lives(monkeypatch):
    # Forking a threaded process can deadlock, so a live thread keeps every check here.
    expected = _serial_report(42, 20)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("run_suite forked beside a live thread"))
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert _report(verify.run_suite(42, 20)) == expected
    finally:
        stop.set()
        thread.join(10)
    assert not thread.is_alive()


@pytest.mark.parametrize("fault", ["child dies", "child raises", "parent raises once"])
def test_a_check_without_a_result_is_folded_again_in_the_parent(monkeypatch, fault):
    # Every check run outside the parent kills its process or raises, or every check
    # raises the first time the parent runs it; the parent folds each check that came
    # back without a result again, so the report is the serial one.
    expected, parent, raised = _serial_report(42, 20), os.getpid(), set()

    def lost(name, check):
        def trial(rng):
            if os.getpid() != parent and fault == "child dies":
                os._exit(1)
            if os.getpid() != parent and fault == "child raises" or (
                    os.getpid() == parent and fault == "parent raises once" and name not in raised):
                raised.add(name)
                raise NumericalBreakdown(f"{name} lost")
            return check(rng)
        return trial

    _patch_every_check(monkeypatch, lost)
    assert _report(verify.run_suite(42, 20)) == expected
    _no_child_left()


def test_run_suite_kills_its_children_when_the_caller_is_interrupted(monkeypatch):
    # The caller is interrupted while a child is still in its first check, which would
    # take 15 s: the caller does not wait for it.
    parent = os.getpid()

    def stalls_or_stops(name, check):
        def trial(rng):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(15)
            os._exit(0)
        return trial

    _patch_every_check(monkeypatch, stalls_or_stops)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        verify.run_suite(42, 1)
    assert time.monotonic() - start < 10
    _no_child_left()


def test_run_suite_returns_once_and_leaves_the_callers_stdio_and_exit_handlers_alone():
    # Only the caller returns from run_suite: no other process prints after it, flushes
    # what the caller has buffered, or runs its exit handlers.
    src = Path(__file__).resolve().parents[1] / "src"
    script = ("import atexit\n"
              "from bisiegel.verify import run_suite\n"
              "atexit.register(print, 'exit')\n"
              "print('before', end=' ')\n"
              "run_suite(42, 20)\n"
              "print('after')\n")
    proc = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "before after\nexit\n", "")


def _bend(monkeypatch):
    # w1 + 1e-6 Im w1 sin(pi s / s0): the first factor leaves its geodesic sideways,
    # its ends kept.
    factors = GeodesicSpec._factors

    def bent(self, s):
        w1, w2 = factors(self, s)
        return w1 + 1e-6 * w1.imag * math.sin(math.pi * s / self.s0), w2

    monkeypatch.setattr(GeodesicSpec, "_factors", bent)


def _leg(old: str, new: str):
    # The evaluator writes the sinh form once per factor, so each text names one factor's leg.
    return lambda monkeypatch: monkeypatch.setattr(geometry, "_leg_points", mutated(geometry, "_leg_points", old, new))


def _taller_image(monkeypatch):
    # A relative 1e-7 error in the height of apply's first factor image.
    def taller(m, z):
        w = apply(m, z)
        return HPoint.from_factors(complex(w.w1.real, w.w1.imag * (1.0 + 1e-7)), w.w2)

    monkeypatch.setattr("bisiegel.verify.apply", taller)


def _conjugate(monkeypatch):
    # The factors mirrored below the real axis: same heights, wrong half-plane.
    factors = GeodesicSpec._factors
    monkeypatch.setattr(GeodesicSpec, "_factors",
                        lambda self, s: tuple(w.conjugate() for w in factors(self, s)))


def _unswapped(monkeypatch):
    # The one factor map with the eps = -1 swap dropped, in apply and in verify's
    # geodesic checks alike: both read group._images.
    images = mutated(group, "_images", "(g2, g1) if motion.eps == -1 else (g1, g2)", "(g1, g2)")
    monkeypatch.setattr(group, "_images", images)
    monkeypatch.setattr(verify, "_images", images)


def _length(old: str, new: str):
    # connect with a wrong length s0: _factors(f s0) still reads the fraction f, so
    # every point stays on the segment; only the arc length at each point is wrong.
    return lambda monkeypatch: monkeypatch.setattr(verify, "connect", mutated(geometry, "connect", old, new))


CHECK_MUTANTS = {
    "bend": _bend,
    "conjugate": _conjugate,
    "double_length": _length("s0 = math.hypot(", "s0 = 2.0 * math.hypot("),
    "summed_length": _length("s0 = math.hypot(d1, d2)", "s0 = d1 + d2"),
    # A 1% error in the argument of a leg's sinh(dt), and a (0.5 - t) skew of the
    # exponent of its height ratio: in the first factor, and (_2) in the second.
    "b_expm1": _leg("sinh(dt1 := d1 * t)", "sinh(1.01 * (dt1 := d1 * t))"),
    "c_skew": _leg("y1 * (vs1 / k1)", "y1 * (vs1 / k1) ** (1.0 + 1e-3 * (0.5 - t))"),
    "b_expm1_2": _leg("sinh(dt2 := d2 * t)", "sinh(1.01 * (dt2 := d2 * t))"),
    "c_skew_2": _leg("y2 * (vs2 / k2)", "y2 * (vs2 / k2) ** (1.0 + 1e-3 * (0.5 - t))"),
    "taller_image": _taller_image,
    "unswapped": _unswapped,
}


@pytest.mark.parametrize("mutant,name", [
    ("bend", "ode_residual"),
    ("bend", "arc_length"),
    ("conjugate", "ode_residual"),
    ("double_length", "arc_length"),
    ("summed_length", "arc_length"),
    ("b_expm1", "arc_length"),
    ("b_expm1", "ode_residual"),
    ("c_skew", "arc_length"),
    ("c_skew", "ode_residual"),
    ("b_expm1_2", "arc_length"),
    ("b_expm1_2", "ode_residual"),
    ("c_skew_2", "arc_length"),
    ("c_skew_2", "ode_residual"),
    ("taller_image", "metric_invariance"),
    ("taller_image", "volume_jacobian"),
    ("unswapped", "arc_length"),
    ("unswapped", "factorization"),
])
def test_rewritten_checks_fail_on_their_mutants(monkeypatch, mutant, name):
    # Each check passes on seed 42, and fails there once one function is rebound.
    check, tol, _ = verify.SUITE[name]
    assert verify._fold(check, verify._rng(42, name), 20) <= tol
    CHECK_MUTANTS[mutant](monkeypatch)
    assert not verify._fold(check, verify._rng(42, name), 20) <= tol


def test_geodesic_checks_report_an_image_below_the_axis_as_a_row(capsys, monkeypatch):
    # Conjugated factors map below the real axis.  The locus check reads their angle
    # off the positive imaginary axis (near pi) and fails; the height check reads |g|,
    # which conjugation keeps, and passes.  Neither ends the report with a traceback.
    _conjugate(monkeypatch)
    monkeypatch.setattr(verify, "SUITE", {n: verify.SUITE[n] for n in ("ode_residual", "arc_length")})
    code, out, err = run(capsys, ["verify", "--seed", "42", "--trials", "20"])
    assert code == 1 and err == "" and out.endswith("1/2 checks passed\n")
    rows = {line.split()[0]: line.split()[-1] for line in out.splitlines()[:-1]}
    assert rows == {"ode_residual": "FAIL", "arc_length": "PASS"}


def test_arc_length_check_reads_a_vertical_leg(monkeypatch):
    # The sampler draws no vertical leg (dx == 0); the check on a drawn vertical pair
    # reads one, here in the first factor.  There the height y vs / k is y^(1-t) v^t; linear
    # heights y + (v - y) t (v = y vn / yn) in its place leave the unit speed by about 0.3
    # in log height.
    z1, z2 = HPoint.from_factors(1 + 1j, 2 + 3j), HPoint.from_factors(1 + 5j, 0.5 + 0.7j)
    check, tol, _ = verify.SUITE["arc_length"]
    points = iter((z1, z2, z1, z2))
    monkeypatch.setattr(verify, "random_hpoint", lambda rng: next(points))
    assert max(check(None)) <= tol
    monkeypatch.setattr(geometry, "_leg_points",
                        mutated(geometry, "_leg_points", "y1 * (vs1 / k1)", "y1 + (y1 * vn1 / yn1 - y1) * t"))
    assert max(check(None)) > 0.1


def test_exit_code_validation_errors(files, capsys, monkeypatch, tmp_path):
    garbage = files("g.json", "not json")
    code, out, err = run(capsys, ["volume", "--point", garbage])
    assert code == 2 and out == "" and "malformed JSON" in err

    # Unreadable documents: invalid UTF-8, nesting past the recursion limit, an int
    # past the digit limit of int().  Each is one error line naming the path.
    for name, data in (("u.json", b"\xff\xfe{}"), ("n.json", b"[" * 100000),
                       ("i.json", b"1" * 5000)):
        (tmp_path / name).write_bytes(data)
        code, out, err = run(capsys, ["volume", "--point", str(tmp_path / name)])
        assert (code, out) == (2, "") and err.startswith(f"error: cannot read '{tmp_path / name}': ")
        assert err.count("\n") == 1
    # The same invalid UTF-8 on stdin under a strict decoder.
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"\xff\xfe{}"), encoding="utf-8"))
    code, out, err = run(capsys, ["volume", "--point", "-"])
    assert (code, out) == (2, "") and err.startswith("error: cannot read '-': ")
    assert err.count("\n") == 1

    boundary = files("b.json", '{"tau":[0,1],"z":[0,1]}')
    code, _, err = run(capsys, ["volume", "--point", boundary])
    assert code == 2 and "outside the half-space" in err

    z1 = files("z1.json", I_JSON)
    code, _, err = run(capsys, ["geodesic", "--z1", z1, "--z2", z1, "--samples", "1"])
    assert code == 2

    wrong_eps = files(
        "w.json", '{"m":[[0,1,0,0],[1,0,0,0],[0,0,0,1],[0,0,1,0]],"eps":-1}'
    )
    p = files("p.json", I_JSON)
    code, _, err = run(capsys, ["act", "--matrix", wrong_eps, "--point", p])
    assert code == 2 and "contradicts" in err


def test_non_numeric_factor_entry_is_validation_error(files, capsys):
    m1 = files("m1.json", '{"a":"x","b":0,"c":0,"d":1}')
    m2 = files("m2.json", '{"a":1,"b":0,"c":0,"d":1}')
    code, out, err = run(capsys, ["assemble", "--m1", m1, "--m2", m2, "--eps", "1"])
    assert code == 2 and out == "" and err.startswith("error:")


def test_non_integer_eps_is_validation_error(files, capsys):
    m = files("m.json", '{"m":[[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]],"eps":"x"}')
    p = files("p.json", I_JSON)
    code, out, err = run(capsys, ["act", "--matrix", m, "--point", p])
    assert code == 2 and out == "" and err.startswith("error:")


@pytest.mark.parametrize(
    "eps,shown", [("1.5", "1.5"), ("-1.5", "-1.5"), ("true", "true"), ('"1"', '"1"'), ("1.0", "1.0")]
)
def test_declared_eps_must_be_the_json_int_1_or_minus_1(files, capsys, eps, shown):
    # The identity motion has eps = 1: a declared 1.0, true or "1" is not the
    # int 1, and 1.5, -1.5 are no sign; each is refused, not rounded by int().
    m = files("m.json", '{"m":[[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]],"eps":%s}' % eps)
    p = files("p.json", I_JSON)
    code, out, err = run(capsys, ["act", "--matrix", m, "--point", p])
    assert (code, out, err) == (2, "", f'error: "eps" must be 1 or -1, got {shown}\n')


def test_nan_matrix_entry_is_validation_error(files, capsys):
    m = files("m.json", '{"m":[[NaN,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]]}')
    code, out, err = run(capsys, ["check", "matrix", m])
    assert code == 2 and out == "" and err.startswith("error:")


def test_integer_beyond_the_float_range_is_validation_error(files, capsys):
    # JSON reads 1 followed by 400 zeros as an int that float() cannot take.
    big = "1" + "0" * 400
    p = files("p.json", '{"tau":[0,%s],"z":[0,0]}' % big)
    m = files("m.json", '{"m":[[%s,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]]}' % big)
    f = files("f.json", '{"a":%s,"b":0,"c":0,"d":1}' % big)
    for argv in (
        ["volume", "--point", p],
        ["check", "matrix", m],
        ["assemble", "--m1", f, "--m2", f, "--eps", "1"],
    ):
        code, out, err = run(capsys, argv)
        assert code == 2 and out == "" and err.startswith("error:") and "too large" in err


@pytest.mark.parametrize("argv, doc, message", [
    (["assemble", "--m1", "{}", "--m2", "{}", "--eps", "1"], '{"a":"1","b":false,"c":0,"d":true}',
     'bad factor entries: "a" must be a number, got "1"'),
    (["split", "--matrix", "{}"], '{"m":[["1",0,0,0],[0,true,0,0],[0,0,1,0],[0,0,0,1]]}',
     'bad matrix entries: m[0][0] must be a number, got "1"'),
    (["check", "matrix", "{}"], '{"m":[[1,0,0,0],[0,true,0,0],[0,0,1,0],[0,0,0,1]]}',
     "bad matrix entries: m[1][1] must be a number, got true"),
])
def test_numbers_are_json_ints_or_floats(files, capsys, argv, doc, message):
    # float() takes "1" and true as numbers; the CLI's one number reader does not,
    # and names the field (these identity entries once exited 0).
    path = files("doc.json", doc)
    code, out, err = run(capsys, [a.format(path) for a in argv])
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_exit_code_numerical_breakdown(files, capsys):
    # Factor chords of 5e299: the dilations, and lambda1 (about 2.5e599 to
    # 50 digits), are past the float range.
    z1 = files("z1.json", I_JSON)
    far = files("far.json", '{"tau":[1e300,1],"z":[0,0]}')
    code, out, err = run(capsys, ["reduce", "--z1", z1, "--z", far])
    assert (code, out) == (3, "")
    assert err == "numerical error: lambdas of the chords (5e+299, 5e+299) leave the float range\n"


def test_reduce_where_a_dilation_overflows(files, capsys):
    # Factor chords of 7e153 and 0: the dilation 1.96e308 overflows, lambda1
    # (9.8e307 to 50 digits) does not.  Chords of 9.5e153 put lambda1 past it.
    z1 = files("z1.json", I_JSON)
    near = files("near.json", '{"tau":[7e153,1],"z":[7e153,0]}')
    code, out, err = run(capsys, ["reduce", "--z1", z1, "--z", near])
    assert (code, err) == (0, "")
    assert json.loads(out)["lambda1"] == json.loads(out)["lambda2"] == 9.8e307
    far = files("far.json", '{"tau":[9.5e153,1],"z":[9.5e153,0]}')
    code, out, err = run(capsys, ["reduce", "--z1", z1, "--z", far])
    assert (code, out) == (3, "")
    assert err == "numerical error: lambdas of the chords (9.5e+153, 0.0) leave the float range\n"


@pytest.mark.parametrize(
    "argv,doc,want",
    [
        # The glued diag(s, 1/s): the denominator guard passed s = 1e5 and refused 1e6.
        (["act", "--matrix", "@m", "--point", I_JSON],
         '{"m":[[1e5,0,0,0],[0,1e5,0,0],[0,0,1e-5,0],[0,0,0,1e-5]]}', '{"tau":[0,10000000000],"z":[0,0]}'),
        (["act", "--matrix", "@m", "--point", I_JSON],
         '{"m":[[1e6,0,0,0],[0,1e6,0,0],[0,0,1e-6,0],[0,0,0,1e-6]]}', '{"tau":[0,1000000000000],"z":[0,0]}'),
        # The radius test passed a dilation of 1e12 and refused 1e14.
        (["reduce", "--z1", I_JSON, "--z", "@m"], '{"tau":[0,1e12],"z":[0,0]}',
         '{"lambda1":1000000000000,"lambda2":0,"mover":{"m":[[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]],"eps":1}}'),
        (["reduce", "--z1", I_JSON, "--z", "@m"], '{"tau":[0,1e14],"z":[0,0]}',
         '{"lambda1":100000000000000,"lambda2":0,"mover":{"m":[[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]],"eps":1}}'),
        # The Cayley guard |det(I - Z0)| <= dom_eps passed 1 - u = 1e-5 and refused 1e-7.
        (["cayley", "--to", "halfspace", "--point", "@m"], '{"z1":[0.99999,0],"z2":[0,0]}',
         '{"tau":[0,199999.00000091],"z":[0,0]}'),
        (["cayley", "--to", "halfspace", "--point", "@m"], '{"z1":[0.9999999,0],"z2":[0,0]}',
         '{"tau":[0,19999999.0105271],"z":[0,0]}'),
    ],
    ids=["act_1e5", "act_1e6", "reduce_1e12", "reduce_1e14", "cayley_1e-5", "cayley_1e-7"],
)
def test_outputs_on_each_side_of_the_removed_guards(files, capsys, argv, doc, want):
    paths = {"@m": files("m.json", doc), I_JSON: files("i.json", I_JSON)}
    code, out, err = run(capsys, [paths.get(a, a) for a in argv])
    assert (code, out, err) == (0, want + "\n", "")


def test_reduce_of_a_point_past_the_transvection_range(files, capsys):
    # A translation near 1e308 over a height of 1e-6 overflows the transport's
    # entry -x / sqrt(y): a numerical failure (exit 3), not bad input, and no traceback.
    z1 = files("z1.json", '{"tau":[1e308,1e-6],"z":[0,0]}')
    z = files("z.json", I_JSON)
    code, out, err = run(capsys, ["reduce", "--z1", z1, "--z", z])
    assert code == 3 and out == "" and err.startswith("numerical error:") and "overflows" in err


def test_seed_and_count_validation(capsys):
    code, _, err = run(capsys, ["random", "point", "--seed", "18446744073709551616"])
    assert code == 2 and "64-bit" in err
    code, _, err = run(capsys, ["random", "point", "--seed", "nope"])
    assert code == 2
    # int() takes each of these as 10; the seed reader takes ASCII digits only.
    for text in ("1_0", " 10", "+10", "\uff11\uff10"):
        code, out, err = run(capsys, ["random", "point", "--seed", text])
        assert (code, out, err) == (2, "", f"error: seed must be a decimal integer: {text!r}\n")
    code, _, err = run(capsys, ["random", "point", "--seed", "1", "--count", "0"])
    assert code == 2


def test_geodesic_default_sample_count(files, capsys):
    z1 = files("z1.json", I_JSON)
    z2 = files("z2.json", TWO_I_JSON)
    code, out, _ = run(capsys, ["geodesic", "--z1", z1, "--z2", z2])
    assert code == 0
    assert len(out.splitlines()) == 102  # header + default 101 samples


def test_degenerate_geodesic_is_validation_error(files, capsys):
    z1 = files("z1.json", MIXED_JSON)
    z2 = files("z2.json", MIXED_JSON)
    code, _, err = run(capsys, ["geodesic", "--z1", z1, "--z2", z2])
    assert code == 2 and "coincident" in err


def test_json_writer_direct():
    doc = {
        "f": [-0.0, 0.1, 1e300, float("inf"), float("-inf")],
        "t": (True, False, None, 7, -3),
        "s": "caf\u00e9 \"q\"",
        "n": {"e": [], "t": ((1.5, 2.0),)},
    }
    assert _to_json_text(doc) == (
        '{"f":[0,0.1,1e+300,inf,-inf],"t":[true,false,null,7,-3],'
        '"s":"caf\\u00e9 \\"q\\"","n":{"e":[],"t":[[1.5,2]]}}'
    )
    # The list branch formats float items inline; every other item goes
    # through the full dispatch, so bools, None and ints too big for a
    # double keep their own forms, and a float subclass is still refused.
    assert _to_json_text([-0.0, True, None, 7, 10**20, 2.5]) == "[0,true,null,7,100000000000000000000,2.5]"
    assert _to_json_text(((1.0, -0.0), (1e-300, -2.5))) == "[[1,0],[1e-300,-2.5]]"
    with pytest.raises(TypeError):
        _to_json_text([1.0, type("F", (float,), {})(2.0)])


@pytest.mark.parametrize("value", [{1, 2}, b"x", 1j, object()])
def test_json_writer_rejects_unsupported_types(value):
    with pytest.raises(TypeError):
        _to_json_text({"k": [value]})


def test_assemble_beyond_the_float_range_exits_3(files, capsys):
    # The factors are unimodular, but the half-sum 1e308 + 1e308 of the 4x4
    # entries overflows: the output rows meet the 4x4 finiteness gate.
    big = files("big.json", '{"a":1e308,"b":0,"c":0,"d":1e-308}')
    for eps in ("1", "-1"):
        code, out, err = run(capsys, ["assemble", "--m1", big, "--m2", big, "--eps", eps])
        assert (code, out, err) == (3, "", "numerical error: non-finite entry inf in 4x4 matrix\n")


def test_motion_writer_gives_the_bytes_of_the_generic_writer():
    # The motion branch formats the 8 halves once and fills rows 1 and 3
    # with the same strings, negated for eps = -1.  The reference is the
    # generic writer on the 16 entries computed here from the factors, so a
    # change to MotionMatrix._halves does not move both sides at once:
    # (m1.x + m2.x) / 2 and (m1.x - m2.x) / 2, rows 1 and 3 times eps.
    def reference(m1, m2, eps):
        (a1, a2), (b1, b2), (c1, c2), (d1, d2) = (
            ((x + y) / 2.0, (x - y) / 2.0) for x, y in ((m1.a, m2.a), (m1.b, m2.b), (m1.c, m2.c), (m1.d, m2.d)))
        rows = [[a1, a2, b1, b2], [eps * a2, eps * a1, eps * b2, eps * b1],
                [c1, c2, d1, d2], [eps * c2, eps * c1, eps * d2, eps * d1]]
        return _to_json_text({"m": rows, "eps": eps})

    rng = random.Random(16)
    pairs = [split(random_motion(rng)) for _ in range(2000)]
    # Entries, in each of a, b, c, d, whose halves are 0 and -0 (m1 = m2 gives
    # x2 = 0), subnormal, near the float range, printed as "2" or with an
    # "e-05" exponent.
    special = (0.0, -0.0, 5e-324, 1e300, -1e300, 2.0, 3.25e-05, -7e-06)
    factors = [Sl2Matrix(x, 1.0, -1.0, 0.0) for x in special]
    factors += [Sl2Matrix(1.0, 0.0, x, 1.0) for x in special]
    factors += [Sl2Matrix(1.0, x, 0.0, 1.0) for x in special]
    factors += [Sl2Matrix(0.0, -1.0, 1.0, x) for x in special]
    factors.append(Sl2Matrix(2.0, 0.0, 0.0, 0.5))
    pairs += [(f, g) for f in factors for g in factors]
    for m1, m2 in pairs:
        for eps in (1, -1):
            m = assemble(m1, m2, eps)
            assert _to_json_text(m) == reference(m1, m2, eps) == _to_json_text(m.to_json_dict())
    assert _to_json_text(assemble(factors[0], factors[0], -1)) == (
        '{"m":[[0,0,1,0],[0,0,0,-1],[-1,0,0,0],[0,1,0,0]],"eps":-1}'
    )


@pytest.mark.parametrize("argv, lines_read", [
    (["random", "motion", "--seed", "1", "--count", "200000"], 1),
    # Closed before the one line is written or, if it is buffered first, before the exit flush.
    (["random", "point", "--seed", "1", "--count", "1"], 0),
], ids=["after_one_line", "before_any_line"])
def test_reader_closing_stdout_early_exits_0_without_a_traceback(argv, lines_read):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    with subprocess.Popen([sys.executable, "-m", "bisiegel", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        for _ in range(lines_read):
            assert proc.stdout.readline().startswith(b"{")
        proc.stdout.close()
        err = proc.stderr.read()
    assert (proc.wait(timeout=60), err) == (0, b"")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_reader_closing_stdout_early_keeps_a_failed_verify_at_exit_1(unbuffered):
    # The pipe's read end is closed before the child starts.  Buffered (the default
    # into a pipe), the report sits in the stdout buffer until main's flush, after
    # the command has returned 1; unbuffered, the report's first write breaks the
    # pipe, after verify has set its status.
    script = ("import sys\n"
              "from bisiegel import cli, verify\n"
              "verify.SUITE = {'fails': (lambda rng: (1.0,), 0.5, 1)}\n"
              "sys.exit(cli.main(['verify', '--seed', '1', '--trials', '1']))\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-c", script], env=env, stdout=write_end,
                              stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


def test_motion_writer_refuses_non_finite_halves_as_to_json_dict_does():
    # The half-sums of entries near 1e308 overflow, in a1 or (first) in a2.
    big, neg = Sl2Matrix(1e308, 0.0, 0.0, 1e-308), Sl2Matrix(-1e308, 0.0, 0.0, -1e-308)
    for m1, m2 in ((big, big), (big, neg), (neg, neg), (neg, big)):
        for eps in (1, -1):
            m = assemble(m1, m2, eps)
            with pytest.raises(NumericalBreakdown) as expected:
                m.to_json_dict()
            with pytest.raises(NumericalBreakdown) as got:
                _to_json_text(m)
            assert str(got.value) == str(expected.value)


def test_geodesic_readouts_do_not_overflow(files, capsys):
    # The far end's factors are +-1.7e308 + 1e200 i: their difference
    # overflows, the difference of their halves does not.
    z1 = files("z1.json", I_JSON)
    z2 = files("z2.json", '{"tau":[0,1e200],"z":[1.7e308,0]}')
    code, out, err = run(capsys, ["geodesic", "--z1", z1, "--z2", z2, "--samples", "2"])
    assert (code, err) == (0, "")
    rows = out.splitlines()[1:]
    assert len(rows) == 2
    assert all(math.isfinite(float(x)) for row in rows for x in row.split(","))
    assert rows[-1].endswith(",0,1e+200,1.7e+308,0")


def test_volume_past_the_float_range_exits_3(files, capsys):
    point = files("p.json", '{"tau":[0,1e300],"z":[0,0.5]}')
    code, out, err = run(capsys, ["volume", "--point", point])
    assert (code, out) == (3, "")
    assert err == "numerical error: volume density at factor heights 1e+300, 1e+300 leaves the float range\n"


#: Inputs whose moduli or squares overflow a float: a disc point with a part near
#: -1.7e308, and a half-space point whose factor offsets from the near point do.
FAR_DISC_JSON = '{"z1":[-1.7e308,-1.7e308],"z2":[0.5,0]}'
NEAR_JSON, FAR_JSON = '{"tau":[0,1],"z":[0,0.5]}', '{"tau":[-1.7e308,1.7e308],"z":[-1,-1]}'


@pytest.mark.parametrize(
    "argv,code",
    [
        (["stabilizer", "--xi1", "1,0", "--xi2", "0.5,1.7e308"], 2),
        (["stabilizer", "--xi1", "1.7e308,1.7e308", "--xi2", "1,0"], 2),
        (["check", "point", "{disc}"], 0),
        (["cayley", "--to", "halfspace", "--point", "{disc}"], 2),
        (["distance", "--z1", "{near}", "--z2", "{far}"], 3),
        (["geodesic", "--z1", "{near}", "--z2", "{far}", "--samples", "3"], 0),
    ],
    ids=["stabilizer_square", "stabilizer_modulus", "check_point", "cayley", "distance", "geodesic"],
)
def test_inputs_past_the_float_range_give_a_documented_exit(files, capsys, argv, code):
    # Each input overflows a float inside the computation: a modulus, a square or
    # a factor difference. None may end in a traceback (exit 1).
    paths = {"disc": files("e.json", FAR_DISC_JSON), "near": files("a.json", NEAR_JSON),
             "far": files("b.json", FAR_JSON)}
    got, out, err = run(capsys, [arg.format(**paths) for arg in argv])
    assert got == code
    if code:
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: " if code == 2 else "numerical error: ")
    else:
        assert err == "" and out
        numbers = re.findall(r"[-+]?(?:inf|nan|[0-9][0-9.]*(?:e[-+]?[0-9]+)?)", out)
        assert all(math.isfinite(float(x)) for x in numbers)
    if argv[0] == "check":
        assert out == '{"model":"disc","member":false}\n'
    if argv[0] == "stabilizer":
        assert err in ("error: |xi2|=1.7e+308 is not 1\n", "error: |xi1|=inf is not 1\n")


# --------------------------------------------------------------------------
# Seeded fuzz over every input-reading command.  ``random.Random`` and this
# generator, not hypothesis, so that it runs wherever the suite does.

#: Adversarial JSON numbers: zeros, the smallest subnormal, the dom_eps margin
#: and its neighbours, the edge of the float range, an int past it, NaN, +-inf.
FUZZ_SPECIALS = (0, -0.0, 5e-324, 1e-12, 2e-12, 0.999999999999, 1.0, 1.7e308, -1.7e308,
                 10**400, math.nan, math.inf, -math.inf)

#: Scales k of the valid draws, whose heights and offsets are 10^U[-k, k].
FUZZ_SCALES = (1.0, 6.0, 12.0, 30.0, 100.0, 300.0)


class StdinDocs:
    """A stdin that hands out one document per read, for argv items ``-``."""

    def __init__(self, texts: list):
        self.texts = texts

    def read(self) -> str:
        return self.texts.pop(0)


def _builds(point_type, a: complex, b: complex) -> bool:
    """Whether the constructor takes (a, b): the model's membership test."""
    try:
        point_type(a, b)
    except DomainViolation:
        return False
    return True


class FuzzDocs:
    """The documents of one seeded fuzz run.  Each point is valid with
    probability 0.7, else its four numbers are adversarial; motions, factors
    and unit parameters likewise.  Valid draws:

    - half-space: ``tau = x + i y``, ``z = x' + i t y``, with ``x, x'`` signed and
      ``y`` (at least 1e-11) in 10^[-k, k] for k in ``FUZZ_SCALES``, and
      ``1 - |t|`` uniform in 10^U[-12, 0];
    - disc: factors ``r e^(i theta)`` with ``1 - r`` uniform in 10^U[-11.9, 0];
    - motion: the glued ``[[l, b], [0, 1/l]]`` per factor (``l``, ``b`` signed
      in 10^[-k, k], ``k`` up to 12), or a product of up to 60 sampler motions;
    - unit parameter: ``(cos theta, sin theta)``.

    A draw in 10^[lo, hi] (``power``) has a uniform exponent half of the time
    and one of the two ends otherwise, so that near and far pairs both occur.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.points = self.valid_points = 0

    def number(self):
        """A special, or +-10^U[-320, 308]: subnormals to near the float maximum."""
        rng = self.rng
        if rng.random() < 0.5:
            return rng.choice(FUZZ_SPECIALS)
        return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-320.0, 308.0)

    def power(self, lo: float, hi: float) -> float:
        """10^E, E uniform in [lo, hi] half of the time, else one of its ends."""
        return 10.0 ** self.rng.choice((lo, hi, self.rng.uniform(lo, hi), self.rng.uniform(lo, hi)))

    def signed(self, k: float) -> float:
        return self.rng.choice((-1.0, 1.0)) * self.power(-k, k)

    def hpoint(self) -> dict:
        rng = self.rng
        self.points += 1
        if rng.random() >= 0.7:
            return {"tau": [self.number(), self.number()], "z": [self.number(), self.number()]}
        k = rng.choice(FUZZ_SCALES)
        y = self.power(max(-k, -11.0), k)
        t = rng.choice((-1.0, 1.0)) * (1.0 - 10.0 ** rng.uniform(-12.0, 0.0))
        tau, z = complex(self.signed(k), y), complex(self.signed(k), t * y)
        self.valid_points += _builds(HPoint, tau, z)
        return {"tau": [tau.real, tau.imag], "z": [z.real, z.imag]}

    def epoint(self) -> dict:
        rng = self.rng
        self.points += 1
        if rng.random() >= 0.7:
            return {"z1": [self.number(), self.number()], "z2": [self.number(), self.number()]}
        u1, u2 = (cmath.rect(1.0 - 10.0 ** rng.uniform(-11.9, 0.0), rng.uniform(-math.pi, math.pi))
                  for _ in range(2))
        z1, z2 = u1 / 2.0 + u2 / 2.0, u1 / 2.0 - u2 / 2.0
        self.valid_points += _builds(lambda a, b: _epoint(a + b, a - b), z1, z2)
        return {"z1": [z1.real, z1.imag], "z2": [z2.real, z2.imag]}

    def factor(self) -> dict:
        if self.rng.random() >= 0.7:
            return dict(zip("abcd", (self.number() for _ in range(4))))
        return dict(zip("abcd", self.factor_entries()))

    def motion(self) -> dict:
        rng = self.rng
        if rng.random() >= 0.7:
            return {"m": [[self.number() for _ in range(4)] for _ in range(4)]}
        if rng.random() < 0.5:
            f1, f2 = (Sl2Matrix(*self.factor_entries()) for _ in range(2))
            return assemble(f1, f2, rng.choice((1, -1))).to_json_dict()
        chain = random_motion(rng)
        for _ in range(rng.randrange(60)):
            try:
                chain = chain @ random_motion(rng)
            except GeometryError:  # the product's determinant gate
                break
        return chain.to_json_dict()

    def factor_entries(self) -> tuple:
        k = self.rng.choice(FUZZ_SCALES[:3])
        lam = self.signed(k)
        return (lam, self.signed(k), 0.0, 1.0 / lam)

    def unit(self) -> str:
        rng = self.rng
        if rng.random() >= 0.7:
            return f"{self.number()!r},{self.number()!r}"
        theta = rng.uniform(-math.pi, math.pi)
        return f"{math.cos(theta)!r},{math.sin(theta)!r}"


#: Each input-reading command, as an argv whose "@name" items are documents
#: drawn by the named ``FuzzDocs`` method.
FUZZ_COMMANDS = {
    "check_point": lambda f: ["check", "point", f.hpoint() if f.rng.random() < 0.5 else f.epoint()],
    "check_matrix": lambda f: ["check", "matrix", f.motion()],
    "act": lambda f: ["act", "--matrix", f.motion(), "--point", f.hpoint()],
    "cayley_disc": lambda f: ["cayley", "--to", "disc", "--point", f.hpoint()],
    "cayley_halfspace": lambda f: ["cayley", "--to", "halfspace", "--point", f.epoint()],
    "split": lambda f: ["split", "--matrix", f.motion()],
    "assemble": lambda f: ["assemble", "--m1", f.factor(), "--m2", f.factor(), "--eps", f.rng.choice(("1", "-1"))],
    "reduce": lambda f: ["reduce", "--z1", f.hpoint(), "--z", f.hpoint()],
    "distance": lambda f: ["distance", "--z1", f.hpoint(), "--z2", f.hpoint()],
    "geodesic": lambda f: ["geodesic", "--z1", f.hpoint(), "--z2", f.hpoint(), "--samples", "3"],
    "volume": lambda f: ["volume", "--point", f.hpoint()],
    "stabilizer": lambda f: ["stabilizer", f"--xi1={f.unit()}", f"--xi2={f.unit()}",
                             "--eps", f.rng.choice(("1", "-1")), "--model", f.rng.choice(("halfspace", "disc"))],
}


def test_seeded_fuzz_of_every_input_reading_command(capsys, monkeypatch):
    # Every call exits 0, 2 or 3; a failure is one stderr line starting
    # "error:" or "numerical error:"; a success prints no inf or nan.  The
    # documents are read from stdin (argv "-"), as JSON text.
    docs = FuzzDocs(random.Random(9))
    succeeded = set()
    for n in range(3000):
        name = list(FUZZ_COMMANDS)[n % len(FUZZ_COMMANDS)]
        case = FUZZ_COMMANDS[name](docs)
        texts = [json.dumps(arg) for arg in case if isinstance(arg, dict)]
        monkeypatch.setattr(sys, "stdin", StdinDocs(texts))
        code, out, err = run(capsys, ["-" if isinstance(arg, dict) else arg for arg in case])
        assert code in (0, 2, 3), case
        if code:
            assert out == "" and err.count("\n") == 1, case
            assert err.startswith("error: " if code == 2 else "numerical error: "), case
        else:
            assert err == "" and not re.search("inf|nan", out), (case, out)
            succeeded.add(name)
    assert succeeded == set(FUZZ_COMMANDS)  # every command's arithmetic is reached
    assert docs.valid_points >= docs.points / 2, (docs.valid_points, docs.points)


#: The stderr of ``classify``'s refusals (``NotSymplectic``, ``NotInHatGroup``), the one
#: refusal of a motion document that ``check matrix`` reports as a verdict.
CLASSIFY_REFUSAL = re.compile(r"error: (symplectic residual|factor of the patterned matrix|commutation residuals)")


def test_check_matrix_gives_the_readers_verdict(capsys, monkeypatch):
    # check matrix reads a motion as split does: "motion":true exactly where split exits 0.
    # Where split refuses for a reason other than classify's refusal (a malformed document,
    # a bad or contradicting declared eps, a breakdown), check exits with the same code and
    # stderr.  Each accepted document is also read with its eps flipped or given as true,
    # "1" or 1.0, which both refuse.
    def answers(text: str) -> int:
        (code, out, err), (check_code, check_out, check_err) = (
            run_stdin(argv, text) for argv in (["split", "--matrix", "-"], ["check", "matrix", "-"])
        )
        assert ('"motion":true' in check_out) == (code == 0), text
        if code and not check_code:
            assert check_out.endswith('"motion":false,"eps":null}\n'), text
            assert CLASSIFY_REFUSAL.match(err), (text, err)
            return -code  # classify's refusal
        assert (check_code, check_err) == (code, err), text
        return code

    def run_stdin(argv: list, text: str) -> tuple:
        monkeypatch.setattr(sys, "stdin", StdinDocs([text]))
        return run(capsys, argv)

    docs = FuzzDocs(random.Random(33))
    outcomes, accepted = set(), []
    for text in [Q_JSON] + [json.dumps(docs.motion()) for _ in range(300)]:
        outcomes.add(code := answers(text))
        if code == 0:
            accepted.append(json.loads(text))
    for doc in accepted:
        for eps in (-doc["eps"], True, "1", 1.0):
            assert answers(json.dumps(dict(doc, eps=eps))) == 2
    assert outcomes == {0, -2, 2, 3}  # accepted, classify's refusal, malformed, breakdown


def test_cached_parser_carries_no_state_between_calls(capsys):
    assert _build_parser() is _build_parser()
    _, alone, _ = run(capsys, ["random", "point", "--seed", "1"])
    code, out, _ = run(capsys, ["random", "motion", "--seed", "1", "--count", "5"])
    assert code == 0 and len(out.splitlines()) == 5
    code, out, _ = run(capsys, ["random", "point", "--seed", "1"])
    assert code == 0 and out == alone and len(out.splitlines()) == 1
    with pytest.raises(SystemExit) as exc:
        main(["random", "point", "--count", "3"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, _ = run(capsys, ["random", "point", "--seed", "1"])
    assert code == 0 and out == alone


def test_every_traced_layer_is_loaded_by_the_cli_with_a_resolving_all():
    # perfbench/tracing.py wraps each name in __all__ of bisiegel.<layer>, for each
    # layer in its LAYERS, after `import bisiegel.cli`: a layer module that the CLI
    # no longer loads, or a stale __all__ name, breaks every traced benchmark run.
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(root / "src"), str(root / "perfbench"))))
    script = (
        "import sys, bisiegel.cli\n"
        "from tracing import LAYERS\n"
        "for layer in LAYERS:\n"
        "    module = sys.modules['bisiegel.' + layer]\n"
        "    assert module.__all__, layer\n"
        "    for name in module.__all__:\n"
        "        getattr(module, name)\n"
        "print(len(LAYERS))"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert int(proc.stdout) > 0


def test_import_does_not_load_numpy():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", "import bisiegel, bisiegel.cli, sys; sys.exit('numpy' in sys.modules)"],
        env=env,
    )
    assert proc.returncode == 0
    # Nor does a verify run, volume check included.
    script = (
        "import sys; from bisiegel import cli\n"
        "code = cli.main(['verify', '--seed', '42', '--trials', '50'])\n"
        "sys.exit(code or 'numpy' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True)
    assert proc.returncode == 0
    # Nor typing: annotations are strings, so no module imports it at run time.  -S
    # keeps site's own imports (a .pth hook may load typing) out of the answer.
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, bisiegel.cli; sys.exit('typing' in sys.modules)"],
        env=env,
    )
    assert proc.returncode == 0


def test_exact_references_load_no_library_module():
    # tests/exact.py checks the library, so it must not load it, even where it could.
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(root / "tests"), str(root / "src"))))
    script = "import sys, exact; print(sorted(m for m in sys.modules if m.split('.')[0] == 'bisiegel'))"
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


@pytest.mark.parametrize("name", PINS)
def test_pinned_output_bytes(name):
    # The output bytes are part of the interface: each pin's stdout is its committed file.
    assert run_pin(name) == (0, (GOLDEN / f"{name}.out").read_bytes(), "")


def test_the_golden_set_is_closed():
    # No pin without its output file, no output or input file that no pin names.
    inputs = {a[1:] for argv in PINS.values() for a in argv if a.startswith("@")}
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(
        [f"{name}.out" for name in PINS] + [f"{name}.json" for name in inputs])


@pytest.mark.parametrize("name", ["random_motion", "assemble_plus", "assemble_minus",
                                  "stabilizer_halfspace", "reduce_sampler", "reduce_near", "reduce_far"])
def test_every_golden_motion_reads_back(files, capsys, name):
    # Each motion the CLI printed is a motion to check matrix, and act and split take it.
    point = str(GOLDEN / "seed5_z1.json")
    for line in (GOLDEN / f"{name}.out").read_text().splitlines():
        motion = json.loads(line)
        motion = motion["mover"] if name.startswith("reduce_") else motion
        m = files("m.json", json.dumps(motion))
        verdict = '{"symplectic":true,"motion":true,"eps":%d}\n' % motion["eps"]
        assert run(capsys, ["check", "matrix", m]) == (0, verdict, "")
        assert run(capsys, ["act", "--matrix", m, "--point", point])[::2] == (0, "")
        assert run(capsys, ["split", "--matrix", m])[::2] == (0, "")


@pytest.mark.parametrize("name, model", [("random_point", "halfspace"), ("act", "halfspace"),
                                         ("cayley_halfspace", "halfspace"), ("cayley_disc", "disc")])
def test_every_golden_point_is_a_member(files, capsys, name, model):
    for line in (GOLDEN / f"{name}.out").read_text().splitlines():
        verdict = '{"model":"%s","member":true}\n' % model
        assert run(capsys, ["check", "point", files("p.json", line)]) == (0, verdict, "")


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP items 18 and 29: act refuses "
                   "the printed mover, factor of the patterned matrix: det=1.0000000005848315")
def test_the_mover_that_reduce_prints_reads_back(files, capsys):
    z1 = files("z1.json", '{"tau": [483637.0365097738, 249605.83408518584], '
               '"z": [-460086.14738777897, 249605.83408346568]}')
    z = files("z.json", '{"tau": [-0.026933417182740976, 8943.197590504593], '
              '"z": [-0.02693021612251522, 8943.197533448341]}')
    code, out, _ = run(capsys, ["reduce", "--z1", z1, "--z", z])
    assert code == 0
    m = files("m.json", json.dumps(json.loads(out)["mover"]))
    assert run(capsys, ["act", "--matrix", m, "--point", z1])[::2] == (0, "")


def test_geodesic_writes_each_row_as_it_is_computed(files, monkeypatch):
    # A reader gone before the header: no point is computed for a row nobody reads.
    points = []
    point = GeodesicSpec.point
    monkeypatch.setattr(GeodesicSpec, "point", lambda spec, s: points.append(s) or point(spec, s))
    with open(os.devnull, "w") as devnull:
        class Gone:
            fileno = devnull.fileno  # main points this fd at devnull once the pipe breaks

            def write(self, text):
                raise BrokenPipeError

        monkeypatch.setattr(sys, "stdout", Gone())
        code = main(["geodesic", "--z1", files("z1.json", I_JSON), "--z2", files("z2.json", TWO_I_JSON),
                     "--samples", "1000"])
    assert code == 0 and len(points) <= 1

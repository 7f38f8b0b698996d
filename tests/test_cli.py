import cmath
import hashlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from bisiegel.cli import _build_parser, _to_json_text, main
from bisiegel.domain import e_contains, h_contains
from bisiegel.errors import GeometryError, NumericalBreakdown
from bisiegel.group import MotionMatrix, Sl2Matrix, random_motion

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
    "eps,shown", [("1.5", "1.5"), ("-1.5", "-1.5"), ("true", "True"), ('"1"', "'1'"), ("1.0", "1.0")]
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
    # Factor coordinates near 1e183 overflow the transport's entries: a
    # numerical failure (exit 3), not bad input, and no traceback.
    z1 = files("z1.json", '{"tau":[1.5e183,1e183],"z":[-5e182,0]}')
    z = files("z.json", I_JSON)
    code, out, err = run(capsys, ["reduce", "--z1", z1, "--z", z])
    assert code == 3 and out == "" and err.startswith("numerical error:") and "overflows" in err


def test_seed_and_count_validation(capsys):
    code, _, err = run(capsys, ["random", "point", "--seed", "18446744073709551616"])
    assert code == 2 and "64-bit" in err
    code, _, err = run(capsys, ["random", "point", "--seed", "nope"])
    assert code == 2
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


@pytest.mark.parametrize(
    "kind,digest",
    [
        ("motion", "300ad9a2d970eef33d195469168880c5f3eedea507af9b154eb36d72810c9467"),
        ("point", "b19be85b1d4c3efe2f408aa468b8129b9dd8ed4a7dd5c073678361433f0415cc"),
    ],
)
def test_random_output_bytes_are_pinned(capsys, kind, digest):
    # SHA-256 of 100 seeded samples: the output bytes are part of the
    # interface, however the JSON writer is built.
    code, out, _ = run(capsys, ["random", kind, "--seed", "1", "--count", "100"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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
    pairs = [(m.m1, m.m2) for m in (random_motion(rng) for _ in range(2000))]
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
            m = MotionMatrix(m1, m2, eps)
            assert _to_json_text(m) == reference(m1, m2, eps) == _to_json_text(m.to_json_dict())
    assert _to_json_text(MotionMatrix(factors[0], factors[0], -1)) == (
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
            m = MotionMatrix(m1, m2, eps)
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
        self.valid_points += h_contains(tau, z)
        return {"tau": [tau.real, tau.imag], "z": [z.real, z.imag]}

    def epoint(self) -> dict:
        rng = self.rng
        self.points += 1
        if rng.random() >= 0.7:
            return {"z1": [self.number(), self.number()], "z2": [self.number(), self.number()]}
        u1, u2 = (cmath.rect(1.0 - 10.0 ** rng.uniform(-11.9, 0.0), rng.uniform(-math.pi, math.pi))
                  for _ in range(2))
        z1, z2 = u1 / 2.0 + u2 / 2.0, u1 / 2.0 - u2 / 2.0
        self.valid_points += e_contains(z1, z2)
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
            return MotionMatrix(f1, f2, rng.choice((1, -1))).to_json_dict()
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


GEODESIC_PAIRS = {
    # The first two points of ``random point --seed 1``.
    "sampler": (
        '{"tau":[0.0942182235801787,2.56932729747079],"z":[2.54352796618596,-2.38366296169001]}',
        '{"tau":[2.20158161929138,0.885832973257096],"z":[-0.685651892063751,0.0933642520840022]}',
    ),
    # The first point and a copy moved by 1e-9 in Re tau and Im z.
    "near": (
        '{"tau":[0.0942182235801787,2.56932729747079],"z":[2.54352796618596,-2.38366296169001]}',
        '{"tau":[0.0942182245801787,2.56932729747079],"z":[2.54352796618596,-2.38366296069001]}',
    ),
    # Factor heights 1e-6 and 1e6 at each end.
    "wide": (
        '{"tau":[-1.625,500000.0000005],"z":[1.875,-499999.9999995]}',
        '{"tau":[2.75,500000.0000005],"z":[1.25,499999.9999995]}',
    ),
}


@pytest.mark.parametrize(
    "kind,digest",
    [
        ("sampler", "07f1d174b5895477dcd09d0017846d2c2922b0a4e06c2f029cee11a12fe6a8e3"),
        ("near", "52ee5e1b7e13e8b584c29ca4edec22cfae6239b3d700ac256f75c3e8be296343"),
        ("wide", "71f5eac5a534365045b0b775c2714c841f298962b915295e33e3efe5a95b1ea3"),
    ],
)
def test_geodesic_output_bytes_are_pinned(files, capsys, kind, digest):
    # SHA-256 of 101 samples: the geodesic CSV stays byte-identical however
    # the per-point path is built.
    z1, z2 = (files(f"{name}.json", text) for name, text in zip(("z1", "z2"), GEODESIC_PAIRS[kind]))
    code, out, _ = run(capsys, ["geodesic", "--z1", z1, "--z2", z2, "--samples", "101"])
    assert code == 0 and len(out.splitlines()) == 102
    assert hashlib.sha256(out.encode()).hexdigest() == digest


REDUCE_PAIRS = {
    "sampler": GEODESIC_PAIRS["sampler"],
    "near": GEODESIC_PAIRS["near"],
    # Factor chords near 5e6: lambda1 = 1e14, whose moved radius rounds to 1.
    "far": (I_JSON, '{"tau":[0,1e14],"z":[0,0]}'),
}


@pytest.mark.parametrize(
    "kind,code,digest",
    [
        ("sampler", 0, "093d41ef260efb1521673843e157113a8fd29842ae0f201a0274f481398ec80a"),
        ("near", 0, "1e89686da90412b59cb0d267fe350f34cbb19b3b6045d786c99eb977eddab479"),
        ("far", 0, "00a7183895996f54d5fbb5367127d66ad768b8d0915d465da39dcc91fb898c98"),
    ],
)
def test_reduce_output_bytes_are_pinned(files, capsys, kind, code, digest):
    # SHA-256 of stdout and stderr: the lambdas, the mover and the error
    # message stay byte-identical however reduce_pair is built.
    z1, z = (files(f"{name}.json", text) for name, text in zip(("z1", "z"), REDUCE_PAIRS[kind]))
    got, out, err = run(capsys, ["reduce", "--z1", z1, "--z", z])
    assert got == code
    assert hashlib.sha256((out + err).encode()).hexdigest() == digest


CHECK_MATRICES = {
    # The second motion of ``random motion --seed 3``.
    "patterned": "[[0.632350925418163,-0.309557300093464,-0.30932091860977,-1.62562538064157],"
    "[-0.309557300093464,0.632350925418163,-1.62562538064157,-0.30932091860977],"
    "[0.276381093035259,0.250599993241582,0.518367622510415,-0.579335687313521],"
    "[0.250599993241582,0.276381093035259,-0.579335687313521,0.518367622510415]]",
    # The same with entry (0, 0) moved by 1e-9: symplectic residuals near
    # 1e-9, beyond the default abs_eps.
    "perturbed": "[[0.632350926418163,-0.309557300093464,-0.30932091860977,-1.62562538064157],"
    "[-0.309557300093464,0.632350925418163,-1.62562538064157,-0.30932091860977],"
    "[0.276381093035259,0.250599993241582,0.518367622510415,-0.579335687313521],"
    "[0.250599993241582,0.276381093035259,-0.579335687313521,0.518367622510415]]",
    # diag(A, A^-T) for the shear A = [[1, 1], [0, 1]]: symplectic, unpatterned.
    "unpatterned": "[[1,1,0,0],[0,1,0,0],[0,0,1,0],[0,0,-1,1]]",
}


@pytest.mark.parametrize(
    "kind,digest",
    [
        ("patterned", "fd07531e8065622b92df9656b8c3c48b6aa410f92dd1edf013083b26100430bc"),
        ("perturbed", "5e986ed171b153c550530e178ecbd32add40d595286445075b932e772444338c"),
        ("unpatterned", "466ad6aa20a11ab32745367946a8c956b475a09f26c1d46d8b273ca4c4bd155b"),
    ],
)
def test_check_matrix_output_bytes_are_pinned(files, capsys, kind, digest):
    m = files("m.json", '{"m":%s}' % CHECK_MATRICES[kind])
    code, out, err = run(capsys, ["check", "matrix", m])
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_output_bytes_are_pinned(capsys):
    # SHA-256 of the report: every printed residual of the 19 checks stays
    # the same however the group layer is built.  The one-trial report runs
    # every check at its floor of max(1, trials // divisor).
    for trials, digest in (
        ("200", "a9753873e22756046b36bf06e82036294511cdad047da5cdc208a852521de999"),
        ("1", "10ae497c7b766833a8f5ddd7e99e017b31ea3e218de78d9dd92c2b45baa73bdd"),
    ):
        code, out, _ = run(capsys, ["verify", "--seed", "42", "--trials", trials])
        assert code == 0 and out.endswith("19/19 checks passed\n")
        assert hashlib.sha256(out.encode()).hexdigest() == digest


SEED5_DOCS = {
    # ``random motion --seed 5``.
    "motion": '{"m":[[0.174706862315017,-1.33655518313314,0.0425209139132008,-1.31858849350857],'
    "[-1.33655518313314,0.174706862315017,-1.31858849350857,0.0425209139132008],"
    "[0.851603710643193,0.280005818467514,0.779331731237856,-0.397173212863695],"
    '[0.280005818467514,0.851603710643193,-0.397173212863695,0.779331731237856]],"eps":1}',
    # The two points of ``random point --seed 5 --count 2``.
    "z1": '{"tau":[3.68821924671374,2.40304259025311],"z":[-0.736283591056769,-0.641864030594509]}',
    "z2": '{"tau":[-2.5268605866914,5.00566177677478],"z":[-2.18308713047245,-1.9871202878138]}',
    # The first factor of ``split`` of that motion, and ``cayley --to disc`` of z1.
    "factor": '{"a":-1.16184832081812,"b":-1.27606757959537,"c":1.13160952911071,"d":0.382158518374161}',
    "disc": '{"z1":[0.718442921176878,-0.303795405361428],"z2":[-0.0564492003575012,-0.057562169236208]}',
}

STABILIZER_ARGS = ["stabilizer", "--xi1", "0.6,0.8", "--xi2", "0,1", "--eps", "-1", "--model"]

OUTPUT_CASES = {
    # With two equal factors the off-diagonal half-differences are 0.0, and
    # eps = -1 turns them into -0.0, which must print as 0.
    "assemble_plus": ["assemble", "--m1", "@factor", "--m2", "@factor", "--eps", "1"],
    "assemble_minus": ["assemble", "--m1", "@factor", "--m2", "@factor", "--eps", "-1"],
    "split": ["split", "--matrix", "@motion"],
    "act": ["act", "--matrix", "@motion", "--point", "@z1"],
    "cayley_disc": ["cayley", "--to", "disc", "--point", "@z1"],
    "cayley_halfspace": ["cayley", "--to", "halfspace", "--point", "@disc"],
    "stabilizer_halfspace": STABILIZER_ARGS + ["halfspace"],
    "stabilizer_disc": STABILIZER_ARGS + ["disc"],
    "distance": ["distance", "--z1", "@z1", "--z2", "@z2"],
    "volume": ["volume", "--point", "@z1"],
    "check_point": ["check", "point", "@z1"],
}


@pytest.mark.parametrize(
    "kind,digest",
    [
        ("assemble_plus", "ff16a2f8c913e2aaa273f4d0416a7b9249358b8ce71e56f3d6aed5c3d52e1f1d"),
        ("assemble_minus", "c87371fb35e558659f6c182d1e8543cbc711a325a172a3e2de47704370f2b969"),
        ("split", "1bb16e895a8a3666b8520ce6099d3b061e70aa8e9123c0af2df4ec4d962e35f6"),
        ("act", "cf58d7c5d443346b3fa58dc6056a29d131b54d082e55bdc5c30fbee8aea860b4"),
        ("cayley_disc", "09db17018a2269ac2da75d5cf16b7f94dc8e647ba7d117052b4587fa97dafbb1"),
        ("cayley_halfspace", "17e952959f20523f03d7bf53e6b2ed94053fd8b48e5df0aaabd30d74afdada27"),
        ("stabilizer_halfspace", "7dac8f14cb6a1134fa92612aa87c9f0e67b73e25c1f1df66cc1d5d568257bc12"),
        ("stabilizer_disc", "ab8c73a07d13aef5da9e15ca2199c1fd7b43da1108395e3426e9aecf933db1a9"),
        ("distance", "52d83b66eb655878af1330734a1d2b160c49f622560afdbcbd907124b41475b1"),
        ("volume", "cc348645b2253bd3e16fb2fe770f5a1c56ae2fb5aa420b1b60e66c4ca0f6f116"),
        ("check_point", "4bc0899dc9a8624ab5df9303e10eb309af49c60b69df10b0a3aa3faae75143ed"),
    ],
)
def test_command_output_bytes_are_pinned(files, capsys, kind, digest):
    # SHA-256 of the exit code, stdout and stderr on the seeded inputs: the
    # output bytes stay the same however the motion rows and the writer are built.
    argv = [files(f"{a[1:]}.json", SEED5_DOCS[a[1:]]) if a.startswith("@") else a for a in OUTPUT_CASES[kind]]
    code, out, err = run(capsys, argv)
    assert hashlib.sha256(f"{code}\n{out}{err}".encode()).hexdigest() == digest

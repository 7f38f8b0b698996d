"""Batch command-line interface.

All inputs are JSON documents (a path or ``-`` for stdin); all outputs go to
stdout with floats rendered as ``%.15g`` so identical invocations are
byte-identical.  Exit codes: 0 success, 2 domain/validation error, 3 numerical
breakdown; ``verify`` exits 1 when a check fails.  A reader that closes stdout early
drops the rest of the output, with no traceback, and leaves the command's status:
``verify`` sets it on ``args.status`` before its report's first write, so a failed
run exits 1 buffered or not; the other commands exit 0 if they were still writing.
The argument parser is built once per process and reused by every ``main`` call.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys

from .domain import (
    EPoint,
    HPoint,
    cayley_to_disc,
    cayley_to_halfspace,
    e_contains,
    h_contains,
    random_hpoint,
)
from .errors import NotSymplectic, NumericalBreakdown, NumericalError, ValidationError
from .geometry import connect, distance, distance_params, volume_density
from .group import (
    MotionMatrix,
    Sl2Matrix,
    StabilizerParams,
    _sign,
    apply,
    assemble,
    classify,
    random_motion,
    reduce_pair,
    split,
    stabilizer_of_iI,
)
from .numkit import Mat4R
from .verify import run_suite

__all__ = ["main"]


_quote = json.encoder.encode_basestring_ascii  # the bytes json.dumps gives a str

#: A motion's 8 half-sums in one format call (``MotionMatrix._halves()`` has no -0.0).
_HALVES = "%.15g,%.15g,%.15g,%.15g,%.15g,%.15g,%.15g,%.15g"


def _to_json_text(obj) -> str:
    t = type(obj)
    if t is float:
        return "%.15g" % (obj + 0.0)  # + 0.0 turns -0.0 into 0.0, for byte-stable output
    if t is list or t is tuple:
        items = ["%.15g" % (x + 0.0) if type(x) is float else _to_json_text(x) for x in obj]
        return "[" + ",".join(items) + "]"  # float items formatted inline, as above
    if t is dict:
        return "{" + ",".join([_quote(k) + ":" + _to_json_text(v) for k, v in obj.items()]) + "}"
    if t is MotionMatrix:  # rows 1 and 3 are rows 0 and 2 swapped in pairs, times eps
        a1, a2, b1, b2, c1, c2, d1, d2 = (_HALVES % obj._halves()).split(",")
        if obj.eps == 1:
            return (f'{{"m":[[{a1},{a2},{b1},{b2}],[{a2},{a1},{b2},{b1}],'
                    f'[{c1},{c2},{d1},{d2}],[{c2},{c1},{d2},{d1}]],"eps":1}}')
        # %.15g of -x: the "-" toggled, but "0" at either sign (x >= 0 prints a digit first,
        # which sorts after "-", and after "0" unless the text is "0").  Unrolled: one
        # comprehension over the eight is a call on 3.11, +3% on random motion's time.
        na1, na2 = "-" + a1 if a1 > "0" else a1[1:] or a1, "-" + a2 if a2 > "0" else a2[1:] or a2
        nb1, nb2 = "-" + b1 if b1 > "0" else b1[1:] or b1, "-" + b2 if b2 > "0" else b2[1:] or b2
        nc1, nc2 = "-" + c1 if c1 > "0" else c1[1:] or c1, "-" + c2 if c2 > "0" else c2[1:] or c2
        nd1, nd2 = "-" + d1 if d1 > "0" else d1[1:] or d1, "-" + d2 if d2 > "0" else d2[1:] or d2
        return (f'{{"m":[[{a1},{a2},{b1},{b2}],[{na2},{na1},{nb2},{nb1}],'
                f'[{c1},{c2},{d1},{d2}],[{nc2},{nc1},{nd2},{nd1}]],"eps":-1}}')
    if t is bool:
        return "true" if obj else "false"
    if t is int:
        return str(obj)
    if obj is None:
        return "null"
    if t is str:
        return _quote(obj)
    raise TypeError(f"cannot serialize {t!r}")


def _emit(obj) -> None:
    sys.stdout.write(_to_json_text(obj) + "\n")


def _read_doc(path: str):
    try:
        if path == "-":
            return json.loads(sys.stdin.read())
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed JSON in {path!r}: {exc}") from exc
    except (OSError, ValueError, RecursionError) as exc:  # also invalid UTF-8, deep nesting
        raise ValidationError(f"cannot read {path!r}: {exc}") from exc


def _number(value, what: str) -> float:
    """A JSON int or float as a float.  ``float()`` alone would take a bool or a str: those
    raise ``TypeError`` naming ``what``; ``float()`` raises for the rest (null, a big int)."""
    if isinstance(value, (bool, str)):
        raise TypeError(f"{what} must be a number, got {json.dumps(value)}")
    return float(value)


def _pair(doc, what: str) -> complex:
    if not isinstance(doc, list) or len(doc) != 2:
        raise ValidationError(f"{what} must be a [re, im] pair of numbers")
    try:
        return complex(_number(doc[0], what), _number(doc[1], what))
    except TypeError as exc:
        raise ValidationError(f"{what} must be a [re, im] pair of numbers") from exc
    except OverflowError as exc:
        raise ValidationError(f"bad {what}: {exc}") from exc


def _parse_hpoint(doc) -> HPoint:
    if not isinstance(doc, dict) or "tau" not in doc or "z" not in doc:
        raise ValidationError('half-space point JSON needs fields "tau" and "z"')
    return HPoint(_pair(doc["tau"], "tau"), _pair(doc["z"], "z"))


def _parse_epoint(doc) -> EPoint:
    if not isinstance(doc, dict) or "z1" not in doc or "z2" not in doc:
        raise ValidationError('disc point JSON needs fields "z1" and "z2"')
    return EPoint(_pair(doc["z1"], "z1"), _pair(doc["z2"], "z2"))


def _parse_mat4(doc) -> Mat4R:
    if not isinstance(doc, dict) or "m" not in doc:
        raise ValidationError('matrix JSON needs field "m" (4 rows of 4 numbers)')
    rows = doc["m"]
    if not isinstance(rows, (list, tuple)) or len(rows) != 4 or any(
        not isinstance(r, (list, tuple)) or len(r) != 4 for r in rows
    ):
        raise ValidationError('"m" must be 4 rows of 4 numbers')
    try:
        return Mat4R([[_number(x, f"m[{i}][{j}]") for j, x in enumerate(row)]
                      for i, row in enumerate(rows)])
    except (TypeError, OverflowError) as exc:
        raise ValidationError(f"bad matrix entries: {exc}") from exc
    except NumericalBreakdown as exc:
        raise ValidationError('"m" entries must be finite numbers') from exc


def _parse_motion(doc) -> MotionMatrix:
    motion = classify(_parse_mat4(doc))
    if "eps" in doc:
        try:
            declared = _sign(doc["eps"])
        except ValidationError as exc:
            raise ValidationError(f'"eps" must be 1 or -1, got {doc["eps"]!r}') from exc
        if declared != motion.eps:
            raise ValidationError(
                f"declared eps={doc['eps']} contradicts detected eps={motion.eps}"
            )
    return motion


def _parse_sl2(doc) -> Sl2Matrix:
    if not isinstance(doc, dict) or any(k not in doc for k in "abcd"):
        raise ValidationError('2x2 factor JSON needs fields "a", "b", "c", "d"')
    try:
        entries = [_number(doc[k], f'"{k}"') for k in "abcd"]
    except (TypeError, OverflowError) as exc:
        raise ValidationError(f"bad factor entries: {exc}") from exc
    return Sl2Matrix(*entries)


def _parse_unit(text: str, what: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValidationError(f"{what} must look like RE,IM")
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise ValidationError(f"bad {what}: {exc}") from exc


def _parse_seed(text: str) -> int:
    try:
        seed = int(text, 10)
    except ValueError as exc:
        raise ValidationError(f"seed must be a decimal integer: {text!r}") from exc
    if not 0 <= seed < 2**64:
        raise ValidationError("seed must fit in an unsigned 64-bit integer")
    return seed


# --------------------------------------------------------------------------
# Subcommands


def _cmd_check(args) -> int:
    doc = _read_doc(args.file)
    if args.kind == "point":
        if isinstance(doc, dict) and "tau" in doc and "z" in doc:
            member = h_contains(_pair(doc["tau"], "tau"), _pair(doc["z"], "z"))
            _emit({"model": "halfspace", "member": member})
        elif isinstance(doc, dict) and "z1" in doc and "z2" in doc:
            member = e_contains(_pair(doc["z1"], "z1"), _pair(doc["z2"], "z2"))
            _emit({"model": "disc", "member": member})
        else:
            raise ValidationError("point JSON needs tau/z or z1/z2 fields")
        return 0
    m = _parse_mat4(doc)
    try:
        motion = classify(m)
        _emit({"symplectic": True, "motion": True, "eps": motion.eps})
    except ValidationError as exc:
        symplectic = not isinstance(exc, NotSymplectic)
        _emit({"symplectic": symplectic, "motion": False, "eps": None})
    return 0


def _cmd_act(args) -> int:
    motion = _parse_motion(_read_doc(args.matrix))
    point = _parse_hpoint(_read_doc(args.point))
    _emit(apply(motion, point).to_json_dict())
    return 0


def _cmd_cayley(args) -> int:
    doc = _read_doc(args.point)
    if args.to == "disc":
        _emit(cayley_to_disc(_parse_hpoint(doc)).to_json_dict())
    else:
        _emit(cayley_to_halfspace(_parse_epoint(doc)).to_json_dict())
    return 0


def _cmd_split(args) -> int:
    motion = _parse_motion(_read_doc(args.matrix))
    m1, m2 = split(motion)
    _emit({"m1": m1.to_json_dict(), "m2": m2.to_json_dict(), "eps": motion.eps})
    return 0


def _cmd_assemble(args) -> int:
    m1 = _parse_sl2(_read_doc(args.m1))
    m2 = _parse_sl2(_read_doc(args.m2))
    _emit(assemble(m1, m2, args.eps))
    return 0


def _cmd_reduce(args) -> int:
    z1 = _parse_hpoint(_read_doc(args.z1))
    z = _parse_hpoint(_read_doc(args.z))
    red = reduce_pair(z1, z)
    _emit(
        {
            "lambda1": red.lambda1,
            "lambda2": red.lambda2,
            "mover": red.mover,
        }
    )
    return 0


def _cmd_distance(args) -> int:
    z1 = _parse_hpoint(_read_doc(args.z1))
    z2 = _parse_hpoint(_read_doc(args.z2))
    big_a, big_b = distance_params(z1, z2)
    _emit({"rho": distance(z1, z2), "A": big_a, "B": big_b})
    return 0


def _cmd_geodesic(args) -> int:
    z1 = _parse_hpoint(_read_doc(args.z1))
    z2 = _parse_hpoint(_read_doc(args.z2))
    if args.samples < 2:
        raise ValidationError("--samples must be at least 2")
    spec = connect(z1, z2)
    out = ["s,tau_re,tau_im,z_re,z_im"]
    for k in range(args.samples):
        s = spec.s0 * k / (args.samples - 1)
        p = spec.point(s)
        tau, z = p.tau, p.z
        out.append(",".join(map(_to_json_text, (s, tau.real, tau.imag, z.real, z.imag))))
    sys.stdout.write("\n".join(out) + "\n")
    return 0


def _cmd_volume(args) -> int:
    point = _parse_hpoint(_read_doc(args.point))
    _emit({"density": volume_density(point)})
    return 0


def _cmd_stabilizer(args) -> int:
    params = StabilizerParams(
        _parse_unit(args.xi1, "--xi1"), _parse_unit(args.xi2, "--xi2"), args.eps
    )
    if args.model == "disc":
        _emit(_disc_stabilizer(params))
    else:
        _emit(stabilizer_of_iI(params))
    return 0


def _disc_stabilizer(params: StabilizerParams) -> dict:
    """The disc rotations u -> xi u / conj(xi) as the complex blocks of
    [[A0, B0], [conj B0, conj A0]]: A0 = [[h1, h2], [eps*h2, eps*h1]] for
    h1, h2 = (xi1 +- xi2) / 2, and B0 = 0."""
    e, xi1, xi2 = params.eps, params.xi1, params.xi2
    h1, h2 = (xi1 + xi2) / 2.0, (xi1 - xi2) / 2.0
    zero = [[0.0, 0.0], [0.0, 0.0]]
    return {"a0": [[[h1.real, h1.imag], [h2.real, h2.imag]],
                   [[e * h2.real, e * h2.imag], [e * h1.real, e * h1.imag]]],
            "b0": [zero, zero], "eps": e}


def _cmd_random(args) -> int:
    rng = random.Random(_parse_seed(args.seed))
    if args.count < 1:
        raise ValidationError("--count must be positive")
    draw = random_motion if args.kind == "motion" else lambda r: random_hpoint(r).to_json_dict()
    write = sys.stdout.write
    for _ in range(args.count):
        write(_to_json_text(draw(rng)) + "\n")
    return 0


def _cmd_verify(args) -> int:
    if args.trials < 1:
        raise ValidationError("--trials must be positive")
    results = run_suite(_parse_seed(args.seed), args.trials)
    width = max(len(r.name) for r in results)
    failures = sum(not r.passed for r in results)
    args.status = 0 if failures == 0 else 1  # before the first write: a broken pipe keeps it
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        sys.stdout.write(
            f"{r.name:<{width}}  trials={r.trials:<6d} max_residual={r.max_residual:.3e}  "
            f"tol={r.tolerance:.3e}  {status}\n"
        )
    sys.stdout.write(f"{len(results) - failures}/{len(results)} checks passed\n")
    return args.status


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bisiegel",
        description="Geometry of the bi-symmetric Siegel upper half space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="membership report for a point or matrix")
    p.add_argument("kind", choices=("point", "matrix"))
    p.add_argument("file")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("act", help="apply a motion to a half-space point")
    p.add_argument("--matrix", required=True)
    p.add_argument("--point", required=True)
    p.set_defaults(func=_cmd_act)

    p = sub.add_parser("cayley", help="map between the half-space and disc models")
    p.add_argument("--to", choices=("disc", "halfspace"), required=True)
    p.add_argument("--point", required=True)
    p.set_defaults(func=_cmd_cayley)

    p = sub.add_parser("split", help="factor a motion into two unimodular 2x2 matrices")
    p.add_argument("--matrix", required=True)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("assemble", help="glue two unimodular factors into a motion")
    p.add_argument("--m1", required=True)
    p.add_argument("--m2", required=True)
    p.add_argument("--eps", type=int, choices=(1, -1), required=True)
    p.set_defaults(func=_cmd_assemble)

    p = sub.add_parser("reduce", help="canonical form of an ordered point pair")
    p.add_argument("--z1", required=True)
    p.add_argument("--z", required=True)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("distance", help="invariant distance between two points")
    p.add_argument("--z1", required=True)
    p.add_argument("--z2", required=True)
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("geodesic", help="sample the geodesic segment as CSV")
    p.add_argument("--z1", required=True)
    p.add_argument("--z2", required=True)
    p.add_argument("--samples", type=int, default=101)
    p.set_defaults(func=_cmd_geodesic)

    p = sub.add_parser("volume", help="invariant volume density at a point")
    p.add_argument("--point", required=True)
    p.set_defaults(func=_cmd_volume)

    p = sub.add_parser("stabilizer", help="motion fixing the base point")
    p.add_argument("--xi1", required=True, help="unit complex number as RE,IM")
    p.add_argument("--xi2", required=True, help="unit complex number as RE,IM")
    p.add_argument("--eps", type=int, choices=(1, -1), default=1)
    p.add_argument("--model", choices=("disc", "halfspace"), default="halfspace")
    p.set_defaults(func=_cmd_stabilizer)

    p = sub.add_parser("random", help="deterministic seeded samples, one JSON per line")
    p.add_argument("kind", choices=("point", "motion"))
    p.add_argument("--seed", required=True, help="unsigned 64-bit decimal seed")
    p.add_argument("--count", type=int, default=1)
    p.set_defaults(func=_cmd_random)

    p = sub.add_parser("verify", help="run the seeded invariant suite")
    p.add_argument("--seed", required=True, help="unsigned 64-bit decimal seed")
    p.add_argument("--trials", type=int, default=1000)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    args.status = 0  # a command that knows its status before it writes sets it here
    try:
        args.status = args.func(args)
        sys.stdout.flush()  # a reader that has gone shows here, not in the exit-time flush
        return args.status
    except BrokenPipeError:
        # The reader stopped reading: not a failure, so the command's own status stands
        # (verify's is set before its report; 0 if a command broke the pipe before it had
        # one).  Point fd 1 at devnull, so the interpreter's flush at exit has nowhere to fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return args.status
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""The four benchmark workloads.

Each workload turns ``random.Random`` streams into inputs, one round at a
time, makes its library calls in ``call`` (the only code the harness times)
and compares the outputs with ``reference`` in ``check`` (untimed).  A round
is a fixed amount of work, so per-round times are comparable across seeds.

Failures are returned as dicts naming the quantity, its value and the
threshold it broke; ``replay`` gives the inputs as JSON in the library's own
formats.
"""

from __future__ import annotations

import contextlib
import io
import math
import random

import bisiegel
from bisiegel import cli

import reference as ref

#: Depth at which the running product restarts (composition drift shows by then).
CHAIN = 20
#: Arc-length samples per geodesic.
SAMPLES = 33
#: Share of a geodesic round per pair kind (of 100 pairs).
PAIR_MIX = (("sampler", 80), ("near", 10), ("wide", 10))
#: Motions per ``random motion`` call.
EMIT_COUNT = 100
#: Trials per ``verify`` call.
VERIFY_TRIALS = 1000


def _pt(p) -> tuple[complex, complex]:
    return (p.tau, p.z)


def _pt_json(p) -> dict:
    return {"tau": [p.tau.real, p.tau.imag], "z": [p.z.real, p.z.imag]}


def _fail(quantity: str, value, threshold) -> dict:
    return {"quantity": quantity, "value": value, "threshold": threshold}


def _hpoint_from_factors(plus: complex, minus: complex):
    return bisiegel.HPoint((plus + minus) / 2.0, (plus - minus) / 2.0)


class MotionAct:
    """Consume motions: read, classify, compose, split, apply, reduce."""

    name = "motion_act"
    ops_per_round = CHAIN
    units_per_op = 1

    def round_inputs(self, rng: random.Random) -> list:
        ops = []
        for _ in range(CHAIN):
            rows = bisiegel.random_motion(rng).to_json_dict()["m"]
            ops.append((rows, bisiegel.random_hpoint(rng), bisiegel.random_hpoint(rng)))
        return ops

    def warm_inputs(self, rng: random.Random) -> list:
        return self.round_inputs(rng)

    def new_state(self) -> dict:
        return {"prod": None, "folded": []}

    def call(self, inp, state):
        rows, p, q = inp
        motion = bisiegel.classify(bisiegel.Mat4R(tuple(tuple(r) for r in rows)))
        prod = motion if state["prod"] is None else state["prod"] @ motion
        state["prod"] = prod
        state["folded"].append(rows)
        m1, m2 = bisiegel.split(prod)
        w1 = bisiegel.apply(prod, p)
        w2 = bisiegel.apply(prod, q)
        return prod, m1, m2, w1, w2, bisiegel.reduce_pair(w1, w2)

    def check(self, inp, out, state) -> list:
        _, p, q = inp
        prod, m1, m2, w1, w2, red = out
        mags = ref.factor_magnitudes(prod.m.rows)
        lib = ((m1.a, m1.b, m1.c, m1.d), (m2.a, m2.b, m2.c, m2.d))
        failures = []
        shift = 0.0
        for src, img in ((p, w1), (q, w2)):
            fp, fm = src.tau + src.z, src.tau - src.z
            # The point enters as (tau, z): f = tau +- z carries their scale.
            f_mag = abs(src.tau) + abs(src.z)
            f_err = ref.U * f_mag
            # eps = -1 swaps the factors: the image's first factor is m2(f-).
            legs = ((lib[0], fp), (lib[1], fm)) if prod.eps == 1 else ((lib[1], fm), (lib[0], fp))
            got = (img.tau + img.z, img.tau - img.z)
            for (m, f), g in zip(legs, got):
                want = ref.mobius(m, f)
                action_err = ref.mobius_error(m, mags, f, f_mag, f_err, ref.N_ACTION)
                tol = 2.0 * action_err
                if not abs(g - want) <= tol:
                    failures.append(_fail("apply.factor_gap", abs(g - want), tol))
                # The split factors, real with positive determinant, are an
                # exact isometry however far the product has drifted from the
                # chain, and its exact image lies within action_err of want.
                # A displacement e at height y moves a point by at most
                # e / (y - e) in hyperbolic length.
                gap = abs(g - want) + action_err
                low = want.imag - action_err - gap
                shift = max(shift, gap / low if low > 0.0 else math.inf)
        # Both the library (from the images) and the reference (from the
        # original pair) evaluate distances: charge each its own bound.
        l1, l2, d_big, d_small = ref.lambdas(_pt(p), _pt(q))
        kappa = sum(max(k for _, k in ref.factor_distances(_pt(x), _pt(y))) for x, y in ((w1, w2), (p, q)))
        rel = ref.gamma(ref.N_SCALAR) * (2.0 + kappa)
        tol = ref.lambda_error(d_big, d_small, 2.0 * shift + rel * d_big, 2.0 * shift + rel * d_small)
        for label, got, want in (("lambda1", red.lambda1, l1), ("lambda2", red.lambda2, l2)):
            if not abs(got - want) <= tol:
                failures.append(_fail(f"reduce_pair.{label}_gap", abs(got - want), tol))
        return failures

    def replay(self, inp, state) -> dict:
        rows, p, q = inp
        chain = list(state["folded"])
        if not chain or chain[-1] is not rows:
            chain.append(rows)  # the op failed before folding its motion in
        return {
            "chain": [{"m": m} for m in chain],
            "z1": _pt_json(p),
            "z2": _pt_json(q),
        }


class GeodesicSample:
    """Distance, cross ratio, geodesic and arc-length samples for a pair."""

    name = "geodesic_sample"
    ops_per_round = sum(n for _, n in PAIR_MIX)
    units_per_op = 1

    def round_inputs(self, rng: random.Random) -> list:
        kinds = [kind for kind, n in PAIR_MIX for _ in range(n)]
        rng.shuffle(kinds)
        return [(kind,) + self._pair(kind, rng) for kind in kinds]

    @staticmethod
    def _pair(kind: str, rng: random.Random):
        if kind == "sampler":
            return bisiegel.random_hpoint(rng), bisiegel.random_hpoint(rng)
        if kind == "near":
            base = bisiegel.random_hpoint(rng)
            rel = 10.0 ** rng.uniform(-9.0, -3.0)
            moved = []
            for f in (base.tau + base.z, base.tau - base.z):
                theta = rng.uniform(0.0, 2.0 * math.pi)
                moved.append(f + rel * f.imag * complex(math.cos(theta), math.sin(theta)))
            return base, _hpoint_from_factors(*moved)
        points = []
        for _ in range(2):
            heights = [10.0 ** rng.uniform(-6.0, 6.0) for _ in range(2)]
            offsets = [rng.uniform(-5.0, 5.0) for _ in range(2)]
            points.append(_hpoint_from_factors(*(complex(x, y) for x, y in zip(offsets, heights))))
        return tuple(points)

    warm_inputs = round_inputs

    def new_state(self) -> dict:
        return {}

    def call(self, inp, state):
        _, z1, z2 = inp
        d = bisiegel.distance(z1, z2)
        ev = bisiegel.cross_ratio_eigenvalues(z1, z2)
        spec = bisiegel.connect(z1, z2)
        return d, ev, [spec.point(spec.s0 * k / (SAMPLES - 1)) for k in range(SAMPLES)]

    def check(self, inp, out, state) -> list:
        kind, z1, z2 = inp
        d, ev, _ = out
        failures = []
        want, tol = ref.distance(_pt(z1), _pt(z2))
        if not abs(d - want) <= tol:
            failures.append(_fail(f"distance_gap[{kind}]", abs(d - want), tol))
        for got, (rho, tol) in zip(ev, ref.cross_ratio_eigenvalues(_pt(z1), _pt(z2))):
            if not abs(got - rho) <= tol:
                failures.append(_fail(f"cross_ratio_eigenvalue_gap[{kind}]", abs(got - rho), tol))
        return failures

    def replay(self, inp, state) -> dict:
        kind, z1, z2 = inp
        return {"kind": kind, "z1": _pt_json(z1), "z2": _pt_json(z2)}


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class MotionEmit:
    """Produce motions through ``bisiegel random motion``, in process."""

    name = "motion_emit"
    ops_per_round = 1
    units_per_op = 1

    def round_inputs(self, rng: random.Random) -> list:
        return [str(rng.getrandbits(63))]

    warm_inputs = round_inputs

    def new_state(self) -> dict:
        return {}

    def call(self, seed, state):
        return _run_cli(["random", "motion", "--seed", seed, "--count", str(EMIT_COUNT)])

    def check(self, seed, out, state) -> list:
        code, text = out
        if code != 0:
            return [_fail("exit_code", code, 0)]
        lines = text.splitlines()
        if len(lines) != EMIT_COUNT:
            return [_fail("motions_emitted", len(lines), EMIT_COUNT)]
        failures = []
        for k, line in enumerate(lines):
            try:
                rows, eps = ref.parse_motion_line(line)
            except (ValueError, KeyError, TypeError) as exc:
                failures.append(_fail(f"motion[{k}].parse", str(exc), None))
                continue
            sym, exch = ref.motion_residuals(rows, eps)
            if not sym[0] <= sym[1]:
                failures.append(_fail(f"motion[{k}].symplectic_residual", sym[0], sym[1]))
            if not exch[0] <= exch[1]:
                failures.append(_fail(f"motion[{k}].exchange_residual", exch[0], exch[1]))
        return failures

    def replay(self, seed, state) -> dict:
        return {"argv": ["random", "motion", "--seed", seed, "--count", str(EMIT_COUNT)]}


class VerifySuite:
    """The seeded invariant suite, ``bisiegel verify``, in process."""

    name = "verify_suite"
    ops_per_round = 1
    units_per_op = len(bisiegel.verify.SUITE)

    def round_inputs(self, rng: random.Random) -> list:
        return [(str(rng.getrandbits(63)), VERIFY_TRIALS)]

    def warm_inputs(self, rng: random.Random) -> list:
        # Two trials per check load every code path without a full run.
        return [(str(rng.getrandbits(63)), 2)]

    def new_state(self) -> dict:
        return {}

    def call(self, inp, state):
        seed, trials = inp
        return _run_cli(["verify", "--seed", seed, "--trials", str(trials)])

    def check(self, inp, out, state) -> list:
        code, text = out
        failures = []
        for line in text.splitlines():
            fields = line.split()
            if fields and fields[-1] == "FAIL":
                values = dict(f.split("=", 1) for f in fields[1:-1] if "=" in f)
                failures.append(
                    _fail(fields[0], float(values["max_residual"]), float(values["tol"]))
                )
        if code != 0 and not failures:
            failures = [_fail("exit_code", code, 0)] * self.units_per_op
        elif code == 0 and failures:
            failures.append(_fail("exit_code_with_failed_checks", code, 1))
        return failures

    def replay(self, inp, state) -> dict:
        seed, trials = inp
        return {"argv": ["verify", "--seed", seed, "--trials", str(trials)]}


WORKLOADS = {wl.name: wl for wl in (MotionAct(), GeodesicSample(), MotionEmit(), VerifySuite())}

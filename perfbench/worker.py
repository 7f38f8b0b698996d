"""One benchmark process: set up a workload, then time it (or trace it).

Started by ``run.py`` in a fresh interpreter.  Protocol on stdout: a line
``ready`` when set-up is done and the first timed operation is next, then
(modes ``run`` and ``trace``) one JSON line with the results.  Library output
is captured in memory and never reaches this stdout.

    python3 perfbench/worker.py --root . --workload motion_act --seed 1 \
        --seconds 5 --mode run
"""

from __future__ import annotations

import argparse
import array
import json
import math
import os
import random
import resource
import statistics
import sys
import time

import tracing
from speed import Speedometer
from tracing import LAYERS, layer_of

#: Operations whose failures are written out for replay.
KEEP_FAILURES = 5
#: Rounds of the traced run whose call counts are reported (a fixed prefix,
#: so the counts repeat exactly for a seed) and whose spans are kept.
COUNT_ROUNDS = {"motion_act": 5, "geodesic_sample": 5, "motion_emit": 10, "verify_suite": 1}
#: Latency percentiles are the median over this many groups of consecutive
#: ok ops, each of at least ``GROUP_MIN`` ops (fewer groups in short runs), so
#: that a group's p90 rests on at least 50 ops of the tail.
LATENCY_GROUPS = 20
GROUP_MIN = 500
#: Kernel samples on each side of a round (one each ``speed.EVERY_S``) that
#: also set its speed factor: slowdowns last tens of seconds, while most
#: rounds are shorter than one sampling interval.
SCALE_WINDOW = 4
#: Share of a traced run spent on the untraced reference phase.
UNTRACED_SHARE = 1.0 / 3.0
#: Raw seconds of one round on the 2-core shared host the benchmark was tuned
#: on.  A run does ``--seconds / NOMINAL_ROUND_S`` whole rounds, so its work,
#: and with it the attempted and failed counts, is fixed by the seed and
#: ``--seconds`` whatever the machine's speed; it takes about ``--seconds``.
NOMINAL_ROUND_S = {"motion_act": 0.032, "geodesic_sample": 0.029, "motion_emit": 0.028,
                   "verify_suite": 6.0}
#: A run starts no round after this many times ``--seconds``, so that it ends
#: in time on a machine far slower than that host (the counts then fall short).
CAP_FACTOR = 3.0


def load_library(root: str):
    """Import ``bisiegel`` from ``<root>/src`` and nowhere else."""
    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.isfile(os.path.join(src, "bisiegel", "__init__.py")):
        raise SystemExit(f"no bisiegel sources under {src}")
    sys.path.insert(0, src)
    import bisiegel
    import bisiegel.cli  # noqa: F401

    where = os.path.realpath(bisiegel.__file__)
    if not where.startswith(src + os.sep):
        raise SystemExit(f"imported bisiegel from {where}, not from {src}")
    return bisiegel


def round_rng(seed: int, workload: str, index) -> random.Random:
    return random.Random(f"{seed}:{workload}:{index}")


class Harness:
    """Closed loop over rounds: one operation at a time, one thread."""

    def __init__(self, workload, seed: int, tracer=None, speed=None) -> None:
        self.wl = workload
        self.seed = seed
        self.tracer = tracer
        self.speed = speed
        self.failures: list[dict] = []
        self._inputs: dict[int, list] = {}

    def inputs(self, index: int) -> list:
        if index not in self._inputs:
            self._inputs[index] = self.wl.round_inputs(round_rng(self.seed, self.wl.name, index))
        return self._inputs[index]

    def run_round(self, index: int, inputs=None) -> dict:
        wl = self.wl
        state = wl.new_state()
        # Latencies in a flat array, so that peak memory hardly grows with
        # the number of ops a run manages.
        rec = {"ops": 0, "ok": 0, "units": 0, "failed_units": 0, "ns": 0, "lat": array.array("q")}
        clock = time.perf_counter_ns
        for k, inp in enumerate(self.inputs(index) if inputs is None else inputs):
            op = index * wl.ops_per_round + k
            kernel = self._kernel_ns()
            start = clock()
            try:
                if self.tracer is None:
                    out = wl.call(inp, state)
                else:
                    out = self.tracer.run_op(op, wl.call, inp, state)
            except Exception as exc:  # every library exception is a counted failure
                end = clock()
                failures = [{"quantity": "exception", "value": f"{type(exc).__name__}: {exc}",
                             "threshold": None}]
            else:
                end = clock()
                failures = None
            # Take out the reference kernel's time if it interrupted the op.
            ns = end - start - (self._kernel_ns() - kernel)
            if failures is None:
                failures = wl.check(inp, out, state)
            rec["ops"] += 1
            rec["ns"] += ns
            rec["units"] += wl.units_per_op
            if failures:
                rec["failed_units"] += min(wl.units_per_op, len(failures))
                if len(self.failures) < KEEP_FAILURES:
                    self.failures.append({"workload": wl.name, "seed": self.seed, "round": index,
                                          "op": op, "failures": failures[:8],
                                          "inputs": wl.replay(inp, state)})
            else:
                rec["ok"] += 1
                rec["lat"].append(ns)
        return rec

    def _kernel_ns(self) -> int:
        return 0 if self.speed is None else self.speed.kernel_ns

    def run_rounds(self, count: int, deadline: float) -> list[dict]:
        """Run rounds 0 .. count - 1, starting none after ``deadline``
        (a ``perf_counter`` time)."""
        rounds = []
        while len(rounds) < count and (not rounds or time.perf_counter() < deadline):
            first = len(self.speed.samples) if self.speed else 0
            rounds.append(self.run_round(len(rounds)))
            self._inputs.pop(len(rounds) - 1, None)
            rounds[-1]["samples"] = (first, len(self.speed.samples) if self.speed else 0)
        return rounds


def round_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_ROUND_S[workload]))


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def group_count(values: int) -> int:
    return max(1, min(LATENCY_GROUPS, values // GROUP_MIN))


def group_percentile(values: list, q: float) -> float:
    """Median, over up to ``LATENCY_GROUPS`` runs of consecutive values of at
    least ``GROUP_MIN`` each, of each run's percentile: a burst of machine
    load that slows a few stretches of the run moves only those groups."""
    groups = group_count(len(values))
    size = len(values) / groups
    return statistics.median(percentile(values[round(g * size):round((g + 1) * size)], q)
                             for g in range(groups))


def summarize(rounds: list[dict], normalize: bool = False) -> dict:
    """Round records to metrics; ``normalize`` scales each round's times by
    its own reference-speed factor."""
    scales = [r["scale"] if normalize else 1.0 for r in rounds]
    lat = [ns * k for r, k in zip(rounds, scales) for ns in r["lat"]]
    attempted = sum(r["units"] for r in rounds)
    failed = sum(r["failed_units"] for r in rounds)
    rates = [r["ok"] / (r["ns"] * k / 1e9) for r, k in zip(rounds, scales)]
    return {
        "rounds": len(rounds),
        "ops": sum(r["ops"] for r in rounds),
        "ok_ops": sum(r["ok"] for r in rounds),
        "attempted": attempted,
        "failed": failed,
        "ok_ops_per_s": statistics.median(rates),
        "op_p50_us": group_percentile(lat, 0.50) / 1e3 if lat else None,
        "op_p90_us": group_percentile(lat, 0.90) / 1e3 if lat else None,
        "latency_samples": len(lat),
        "latency_groups": group_count(len(lat)),
        "wall_s": statistics.median(r["ns"] * k for r, k in zip(rounds, scales)) / 1e9,
        "ok_frac": (attempted - failed) / attempted,
    }


def layer_metrics(tracer, counted: dict, ops_counted: int, ops_timed: int, timed_ns: int,
                  untimed_ns: int) -> dict:
    """Per-layer metrics of a traced run (see perfbench/README.md)."""
    import bisiegel.verify

    stats = tracer.stats

    def calls(*names):
        return sum(counted.get(n, [0])[0] for n in names) / ops_counted

    def us(name):
        return stats.get(name, [0, 0])[1] / ops_timed / 1e3

    checks = counted.get("group.classify", [0])[0] + counted.get("group.MotionMatrix.__post_init__", [0])[0]
    post = counted.get("group.MotionMatrix.__post_init__", [0, 0, 0, 0])
    out = {
        "numkit.mat4r_matmul.calls": calls("numkit.Mat4R.__matmul__"),
        "group.motion_checks.calls": checks / ops_counted,
        "group.validation_yield": (post[0] - post[3]) / checks if checks else 0.0,
        "group.classify.us": us("group.classify"),
        "group.compose.us": us("group.MotionMatrix.__matmul__"),
        "group.apply.us": us("group.apply"),
        "group.split.us": us("group.split"),
        "group.reduce_pair.us": us("group.reduce_pair"),
        "group.transport_to_iI.us": us("group.transport_to_iI"),
        "domain.cayley_to_disc.us": us("domain.cayley_to_disc"),
        "geometry.distance.us": us("geometry.distance"),
        "geometry.connect.us": us("geometry.connect"),
        "geometry.point.us": us("geometry.GeodesicSpec.point"),
        "geometry.cross_ratio.us": us("geometry.cross_ratio"),
        "geometry.path_length.us": us("geometry.path_length"),
        "domain.hpoint_checks.calls": calls("domain.h_contains"),
        "geometry.failed": sum(v[4] for n, v in counted.items() if layer_of(n) == "geometry")
        / ops_counted,
        "group.assemble.us": us("group.assemble"),
    }
    for check in bisiegel.verify.SUITE:
        out[f"verify.{check}.s"] = stats.get(f"verify.{check}", [0, 0])[1] / ops_timed / 1e9
    total_self = sum(v[2] for v in stats.values())
    for layer in LAYERS:
        names = [n for n in stats if layer_of(n) == layer]
        self_ns = sum(stats[n][2] for n in names)
        out[f"{layer}.calls"] = sum(counted.get(n, [0])[0] for n in names) / ops_counted
        out[f"{layer}.self_us"] = self_ns / ops_timed / 1e3
        out[f"{layer}.self_share"] = self_ns / total_self if total_self else 0.0
    out["trace_overhead_frac"] = timed_ns / untimed_ns - 1.0
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--spans", help="file for the traced run's spans (JSON lines)")
    args = ap.parse_args(argv)

    bisiegel = load_library(args.root)
    import numpy
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    Harness(wl, args.seed).run_round(0, wl.warm_inputs(round_rng(args.seed, wl.name, "warm")))
    harness = Harness(wl, args.seed, speed=Speedometer() if args.mode == "run" else None)
    harness.inputs(0)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    count = round_count(wl.name, args.seconds)
    deadline = time.perf_counter() + CAP_FACTOR * args.seconds
    result = {"python": sys.version.split()[0], "numpy": numpy.__version__,
              "bisiegel": bisiegel.__version__, "rounds_planned": count}
    if args.mode == "run":
        speed = harness.speed
        with speed.interleaved():
            rounds = harness.run_rounds(count, deadline)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for r in rounds:
            # The samples taken during the round and SCALE_WINDOW on each side.
            first, stop = r["samples"]
            r["scale"] = speed.scale(max(0, first - SCALE_WINDOW), stop + SCALE_WINDOW)
        result["speed_scale"] = speed.scale()
        result["round_scales"] = [r["scale"] for r in rounds]
        result["raw"] = summarize(rounds)
        result.update(summarize(rounds, normalize=True))
        result["failures"] = harness.failures
    else:
        count_rounds = COUNT_ROUNDS[wl.name]
        plain_count = max(1, round(count * UNTRACED_SHARE))
        plain = harness.run_rounds(plain_count, deadline)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        traced_h = Harness(wl, args.seed, tracer)
        traced, counted = [], None
        # The counted prefix is always run whole, so the counts repeat exactly.
        while len(traced) < count_rounds or (len(traced) < count - plain_count
                                             and time.perf_counter() < deadline):
            traced.append(traced_h.run_round(len(traced)))
            if len(traced) == count_rounds:
                counted = tracer.snapshot()
                tracer.recording = False
        pairs = min(len(plain), len(traced))
        result.update(layer_metrics(
            tracer, counted,
            ops_counted=sum(r["ops"] for r in traced[:count_rounds]),
            ops_timed=sum(r["ops"] for r in traced),
            timed_ns=sum(r["ns"] for r in traced[:pairs]),
            untimed_ns=sum(r["ns"] for r in plain[:pairs]),
        ))
        result["rounds"] = len(plain) + len(traced)
        result["traced_ops"] = sum(r["ops"] for r in traced)
        result["traced_ns"] = sum(r["ns"] for r in traced)
        result["self_ns_sum"] = sum(v[2] for v in tracer.stats.values())
        result["attempted"] = sum(r["units"] for r in traced)
        result["failed"] = sum(r["failed_units"] for r in traced)
        result["counts"] = {n: v[0] for n, v in sorted(counted.items())}
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(dict(zip(("id", "name", "start_ns", "end_ns", "parent", "op"),
                                                 span))) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

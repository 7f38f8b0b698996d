"""Self-tests of the benchmark (not part of the library's test suite).

    python3 -m pytest -q perfbench/test_perfbench.py

Run from the root of the source tree; the slowest test runs a full
``verify --trials 1000`` several times and takes about a minute.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import bisiegel  # noqa: E402
import workloads  # noqa: E402
from worker import round_rng  # noqa: E402

SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8"))


def _run(*args, timeout=170):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def _worker(workload, seed, seconds, mode, *extra):
    proc = subprocess.run([sys.executable, "-B", "-s", "-E", os.path.join(HERE, "worker.py"),
                           "--root", ROOT, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--mode", mode, *extra],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("traced", [0, 1])
def test_tiny_run_emits_every_metric(workload, traced):
    lines = _run("--workload", workload, "--seed", "5", "--seconds", "0.5", "--trace", str(traced))
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    want = SPEC["per_layer" if traced else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in want}
    for m in want:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        printed = [ln for ln in lines if ln.startswith(f"{workload} {m['name']} = ")]
        assert len(printed) == 1 and printed[0].endswith(")")  # value, unit, (samples)


@pytest.mark.parametrize("workload", ["motion_act", "geodesic_sample"])
def test_attempted_and_failed_repeat_for_a_seed(workload):
    # The work is a fixed number of rounds, so two sets of runs of the same
    # code and seeds agree exactly on the known failures.
    runs = [json.loads(_run("--workload", workload, "--seed", "7", "--seconds", "1",
                            "--trace", "0")[-1]) for _ in range(2)]
    assert runs[0]["failed"] > 0
    assert [(r["attempted"], r["failed"]) for r in runs] == [(runs[0]["attempted"], runs[0]["failed"])] * 2


def test_directory_without_sources_fails(tmp_path):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", "motion_act",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def _first_clean(wl, seed=11, keep=lambda inp: True):
    """An input of the workload's first round whose output passes its check."""
    state = wl.new_state()
    for inp in wl.round_inputs(round_rng(seed, wl.name, 0)):
        if not keep(inp):
            continue
        try:
            out = wl.call(inp, state)
        except bisiegel.GeometryError:
            continue
        if not wl.check(inp, out, state):
            return inp, out, state
    raise AssertionError("no clean input in the first round")


def _shift(p, rel):
    return bisiegel.HPoint(p.tau * (1 + rel), p.z)


def test_motion_act_checker_flags_perturbed_results():
    wl = workloads.WORKLOADS["motion_act"]
    inp, out, state = _first_clean(wl)
    prod, m1, m2, w1, w2, red = out
    bad_image = (prod, m1, m2, _shift(w1, 1e-9), w2, red)
    assert any(f["quantity"] == "apply.factor_gap" for f in wl.check(inp, bad_image, state))
    bad_lambda = dataclasses.replace(red, lambda1=red.lambda1 * (1 + 1e-9))
    failures = wl.check(inp, (prod, m1, m2, w1, w2, bad_lambda), state)
    assert [f["quantity"] for f in failures] == ["reduce_pair.lambda1_gap"]


def test_motion_act_lambda_check_holds_deep_in_the_chain():
    # Drift grows with chain depth; the lambda bound must stay tight there.
    wl = workloads.WORKLOADS["motion_act"]
    state = wl.new_state()
    deepest = None
    for inp in wl.round_inputs(round_rng(11, wl.name, 0)):
        try:
            out = wl.call(inp, state)
        except bisiegel.GeometryError:
            continue
        if not wl.check(inp, out, state):
            red = out[5]
            bad = dataclasses.replace(red, lambda1=red.lambda1 * (1 + 1e-5))
            deepest = len(state["folded"]), wl.check(inp, out[:5] + (bad,), state)
    depth, failures = deepest
    assert depth >= workloads.CHAIN - 2
    assert [f["quantity"] for f in failures] == ["reduce_pair.lambda1_gap"]


def test_geodesic_checker_flags_perturbed_results():
    wl = workloads.WORKLOADS["geodesic_sample"]
    inp, (d, ev, pts), state = _first_clean(wl, keep=lambda inp: inp[0] == "sampler")
    assert wl.check(inp, (d * (1 + 1e-11), ev, pts), state)[0]["quantity"].startswith("distance_gap")
    bad_ev = (ev[0], ev[1] * (1 + 1e-11))
    assert wl.check(inp, (d, bad_ev, pts), state)[0]["quantity"].startswith("cross_ratio")


def test_motion_emit_checker_flags_perturbed_motion():
    wl = workloads.WORKLOADS["motion_emit"]
    inp, (code, text), state = _first_clean(wl)
    lines = text.splitlines()
    doc = json.loads(lines[3])
    doc["m"][0][0] *= 1 + 1e-9
    bad = "\n".join(lines[:3] + [json.dumps(doc)] + lines[4:]) + "\n"
    assert [f["quantity"] for f in wl.check(inp, (code, bad), state)] == [
        "motion[3].symplectic_residual", "motion[3].exchange_residual"]
    doc["eps"] = -doc["eps"]
    bad = "\n".join(lines[:3] + [json.dumps(doc)] + lines[4:]) + "\n"
    assert "motion[3].exchange_residual" in [f["quantity"] for f in wl.check(inp, (code, bad), state)]
    assert wl.check(inp, (code, "\n".join(lines[1:]) + "\n"), state)[0]["quantity"] == "motions_emitted"
    assert wl.check(inp, (2, text), state)[0]["quantity"] == "exit_code"


def test_verify_checker_reads_failed_checks_and_exit_code():
    wl = workloads.WORKLOADS["verify_suite"]
    table = ("closure  trials=10 max_residual=0.000e+00  tol=0.000e+00  PASS\n"
             "kernel   trials=10 max_residual=3.000e-12  tol=1.000e-12  FAIL\n")
    failures = wl.check(("1", 10), (1, table), {})
    assert [(f["quantity"], f["value"], f["threshold"]) for f in failures] == [("kernel", 3e-12, 1e-12)]
    assert len(wl.check(("1", 10), (1, ""), {})) == wl.units_per_op
    assert wl.check(("1", 10), (0, table.replace("FAIL", "PASS")), {}) == []


@pytest.mark.parametrize("workload", ["motion_act", "geodesic_sample"])
def test_traced_counts_repeat_and_self_times_add_up(workload, tmp_path):
    runs = [_worker(workload, 9, 1.0, "trace", "--spans", str(tmp_path / f"s{k}.jsonl"))
            for k in range(2)]
    assert runs[0]["counts"] == runs[1]["counts"]
    for res in runs:
        assert abs(res["self_ns_sum"] - res["traced_ns"]) <= 0.02 * res["traced_ns"]
    spans = [json.loads(ln) for ln in open(tmp_path / "s0.jsonl", encoding="utf-8")]
    by_id = {s["id"]: s for s in spans}
    child_ns = {}
    for s in spans:
        if s["parent"]:
            parent = by_id[s["parent"]]
            assert parent["start_ns"] <= s["start_ns"] <= s["end_ns"] <= parent["end_ns"]
            assert parent["op"] == s["op"]
            child_ns[s["parent"]] = child_ns.get(s["parent"], 0) + s["end_ns"] - s["start_ns"]
    self_sum = sum(s["end_ns"] - s["start_ns"] - child_ns.get(s["id"], 0) for s in spans)
    roots = sum(s["end_ns"] - s["start_ns"] for s in spans if s["name"] == "bench.op")
    assert self_sum == roots


def test_reference_distance_matches_plain_formula():
    # Cross-check the asinh form against the textbook arccosh form on
    # well-separated pairs, where both are accurate.
    import math

    import reference as ref

    rng = random.Random(3)
    for _ in range(200):
        p = (complex(rng.uniform(-5, 5), rng.uniform(2, 3)), complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
        q = (complex(rng.uniform(-5, 5), rng.uniform(2, 3)), complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
        for s, (d, _) in zip((1, -1), ref.factor_distances(p, q)):
            w1, w2 = p[0] + s * p[1], q[0] + s * q[1]
            cosh = 1 + abs(w1 - w2) ** 2 / (2 * w1.imag * w2.imag)
            assert d == pytest.approx(math.acosh(cosh), rel=1e-12)

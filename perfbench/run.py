"""Benchmark for ``bisiegel``: four seeded workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload motion_act --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a source tree; the library is imported from ``src/``.
Each run starts fresh single-threaded interpreters (``worker.py``): a few
that only set up, for ``setup_s``, then one that sets up and runs the
workload as a closed loop, one operation at a time: a fixed number of
rounds that takes about ``--seconds`` (``worker.NOMINAL_ROUND_S``), so the
seed and ``--seconds`` fix the work and the failures exactly.  Only
calls into ``bisiegel`` are timed; every output is checked against the
independent references in ``reference.py``.  ``--trace 1`` instead runs the
workload untraced and then traced, and reports per-layer metrics.

Times are reported at a reference machine speed: each run also times a
fixed reference kernel (``speed.py``), interleaved with the work, and scales
each round's times by (nominal kernel time / kernel time during the round),
because other tenants of the machine slow every process by up to 2x for
minutes at a time.

Prints one line per metric (value, unit, sample count), writes the result,
the environment and the first failing inputs under ``perfbench/out/``, and
ends with one JSON line: ``correct``, ``attempted``, ``failed``, ``metrics``.
``correct`` is false when a workload in ``MUST_PASS`` has any failure.
Machine noise is not controlled: no CPU is pinned and no system setting is
changed.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import select
import statistics
import subprocess
import sys
import time

from speed import Speedometer
from worker import CAP_FACTOR

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
WORKLOADS = ("motion_act", "geodesic_sample", "motion_emit", "verify_suite")

#: Workloads without a known defect when the benchmark was added: any failed
#: op there is a regression and makes ``correct`` false.  The known defects
#: of the other two are counted in ``failed`` and bounded through ``ok_frac``.
MUST_PASS = ("motion_emit", "verify_suite")
#: Set-up-only interpreters per run; with the measuring one, setup_s is the
#: median of SETUP_REPEATS + 1 samples.
SETUP_REPEATS = 4
#: Reference-kernel calls timed before each set-up (about 20 ms).
SETUP_KERNEL_REPS = 200
#: Seconds a worker may take beyond its longest measuring time
#: (``CAP_FACTOR * --seconds``).
GRACE_S = 60.0

END_TO_END = (
    ("ok_ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("wall_s", "s"),
    ("ok_frac", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    pass


def _worker_cmd(root: str, workload: str, seed: int, seconds: float, mode: str, *extra):
    # -B: no bytecode cache, so every set-up compiles the same sources;
    # -s -E: no user site and no PYTHON* variables, so only src/ is imported.
    return [sys.executable, "-B", "-s", "-E", os.path.join(HERE, "worker.py"),
            "--root", root, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--mode", mode, *extra]


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def _readline(proc, deadline: float) -> str:
    remaining = deadline - time.perf_counter()
    if remaining <= 0 or not select.select([proc.stdout], [], [], remaining)[0]:
        raise BenchError("worker timed out")
    return proc.stdout.readline()


def run_worker(cmd: list, timeout: float):
    """Start a worker; return (seconds until it reported ready, result line)."""
    start = time.perf_counter()
    deadline = start + timeout
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_child_env())
    try:
        if _readline(proc, deadline).strip() != "ready":
            raise BenchError(f"worker failed during set-up: {' '.join(cmd[4:])}")
        ready = time.perf_counter() - start
        line = _readline(proc, deadline)
        proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
        if proc.returncode != 0:
            raise BenchError(f"worker exited with {proc.returncode}")
        return ready, (json.loads(line) if line.strip() else None)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()


def environment(root: str) -> dict:
    src = os.path.join(root, "src", "bisiegel")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {
        "python": sys.version.split()[0],
        "numpy": numpy,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg_at_start": list(os.getloadavg()),
        "noise": "uncontrolled: shared machine, no CPU pinning, no system setting changed",
    }


def measure(root: str, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    setups = []
    speed = Speedometer()
    for _ in range(SETUP_REPEATS):
        speed.run(SETUP_KERNEL_REPS)
        ready, _ = run_worker(_worker_cmd(root, workload, seed, seconds, "setup"), GRACE_S)
        setups.append(ready)
    speed.run(SETUP_KERNEL_REPS)
    ready, res = run_worker(_worker_cmd(root, workload, seed, seconds, "run"),
                            CAP_FACTOR * seconds + GRACE_S)
    setups.append(ready)
    res["raw"]["setup_s"] = statistics.median(setups)
    res["setup_s"] = statistics.median(setups) * speed.scale()
    res["setup_samples"] = len(setups)
    samples = {
        "ok_ops_per_s": f"median of {res['rounds']} rounds, {res['ops']} ops",
        "op_p50_us": f"{res['latency_samples']} ok ops, median of {res['latency_groups']} groups",
        "wall_s": f"median of {res['rounds']} rounds of {res['ops'] // res['rounds']} ops",
        "ok_frac": f"{res['attempted']} attempted",
        "setup_s": f"median of {len(setups)} set-ups",
        "peak_rss_mb": "1 process",
    }
    metrics = {}
    for name, unit in END_TO_END:
        if res.get(name) is None:
            raise BenchError(f"{workload}: no value for {name} (no operation succeeded)")
        metrics[name] = {"value": res[name], "unit": unit, "samples": samples[name]}
    return res, metrics


def layer_unit(name: str) -> str:
    if name.endswith(".us") or name.endswith("self_us"):
        return "us"
    if name.endswith(".s"):
        return "s"
    if name.endswith("share") or name.endswith("frac") or name.endswith("yield"):
        return "ratio"
    return "count"


def trace(root: str, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    spans = os.path.join(OUT, f"spans-{workload}-{seed}.jsonl")
    _, res = run_worker(_worker_cmd(root, workload, seed, seconds, "trace", "--spans", spans),
                        CAP_FACTOR * seconds + GRACE_S)
    samples = f"{res['traced_ops']} traced ops"
    metrics = {
        name: {"value": value, "unit": layer_unit(name), "samples": samples}
        for name, value in res.items()
        if "." in name or name == "trace_overhead_frac"
    }
    return res, metrics


def run_one(root: str, workload: str, seed: int, seconds: float, traced: bool, env: dict):
    if traced:
        res, metrics = trace(root, workload, seed, seconds)
    else:
        res, metrics = measure(root, workload, seed, seconds)
    attempted, failed = res["attempted"], res["failed"]
    if res["rounds"] < res["rounds_planned"]:
        print(f"{workload}: only {res['rounds']} of {res['rounds_planned']} rounds ran before "
              f"{CAP_FACTOR:g} x --seconds; attempted and failed fall short")
    for name, m in metrics.items():
        print(f"{workload} {name} = {m['value']:.6g} {m['unit']} ({m['samples']})")
    tag = f"{workload}-{seed}-trace{int(traced)}"
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"env": env, "worker": res, "metrics": metrics}, fh, indent=1, default=str)
    if not traced:
        with open(os.path.join(OUT, f"failures-{workload}-{seed}.json"), "w", encoding="utf-8") as fh:
            json.dump(res["failures"], fh, indent=1, default=str)
        print(f"{workload} failed {failed} of {attempted} attempted; first failures in "
              f"perfbench/out/failures-{workload}-{seed}.json")
    values = {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()}
    return attempted, failed, values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "bisiegel", "__init__.py")):
        print(f"error: run from a bisiegel source tree; no src/bisiegel under {root}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    env = environment(root)
    print("env " + json.dumps(env))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    correct = True
    metrics = {}
    try:
        for name in names:
            a, f, values = run_one(root, name, args.seed, args.seconds, bool(args.trace), env)
            attempted, failed = attempted + a, failed + f
            if f and name in MUST_PASS:
                correct = False
                print(f"{name}: {f} failures where none are known; correct = false")
            if len(names) == 1:
                metrics = values
            else:
                metrics.update({f"{name}.{k}": v for k, v in values.items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

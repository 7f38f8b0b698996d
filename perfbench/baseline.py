"""Run every workload over several seeds and summarize the spread.

    python3 perfbench/baseline.py --seeds 1 2 3 4 5 6 7 8 9 10 --seconds 20 \
        --write perfbench/baseline/baseline.json

For each workload and end-to-end metric it reports the ten values, their
median and quartiles (``statistics.quantiles(values, n=4)``) and the
inter-quartile range as a share of the median, next to the metric's bound
from ``BENCHMARK.json``.  One traced run per workload (the first seed) adds
the per-layer metrics.  Runs go one at a time, workloads in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload: str, seed: int, seconds: float, traced: int) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(traced)],
                          cwd=os.getcwd(), capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    env = json.loads(proc.stdout.splitlines()[0].split(" ", 1)[1])
    return {"env": env, **json.loads(proc.stdout.splitlines()[-1])}


def spread(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--write", help="summary JSON to write")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    runs = {name: [] for name in names}
    for seed in args.seeds:
        for name in names:
            runs[name].append(run(name, seed, args.seconds, 0))
    summary = {"seeds": args.seeds, "seconds": args.seconds, "env": runs[names[0]][0]["env"],
               "workloads": {}}
    for name in names:
        rows = {}
        print(name)
        for metric, bound in bounds.items():
            rows[metric] = spread([r["metrics"][metric]["value"] for r in runs[name]])
            rows[metric]["bound"] = bound
            print(f"  {metric:14s} median {rows[metric]['median']:.6g}  "
                  f"iqr/median {rows[metric]['iqr_share']:.4f}  bound {bound}")
        failed = [r["failed"] / r["attempted"] for r in runs[name]]
        rows["failed_frac"] = spread(failed) if statistics.median(failed) else {"values": failed}
        # Per seed, so that two sets of the same code and seeds can be
        # checked for exact agreement.
        rows["counts"] = {"attempted": [r["attempted"] for r in runs[name]],
                          "failed": [r["failed"] for r in runs[name]]}
        traced = run(name, args.seeds[0], args.seconds, 1)
        summary["workloads"][name] = {
            "end_to_end": rows,
            "per_layer_seed": args.seeds[0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    if args.write:
        os.makedirs(os.path.dirname(os.path.abspath(args.write)), exist_ok=True)
        with open(args.write, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload hub_poll --seeds 1-10 [--seconds 10]

Runs perfbench/run.py once per seed and prints, per metric, the median and
the distance between the first and third quartile as a share of the median
(statistics.quantiles(values, n=4)), next to the metric's bound from
BENCHMARK.json.  A benchmark is steady when every spread but setup_s stays
well inside its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--verbose", action="store_true",
                    help="also print every run's value")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: FAILED (status {proc.returncode})\n"
                  f"{proc.stderr[-2000:]}")
            return 1
        result = json.loads(lines[-1])
        prov = json.loads(lines[-2])["provenance"] if len(lines) > 1 else {}
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"steal_s={prov.get('steal_s')}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print(f"\n{'metric':32s} {'median':>14s} {'spread':>8s} {'bound':>6s}")
    for name, vals in sorted(values.items()):
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med] * 3
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  > bound/3"
        print(f"{name:32s} {med:14.6g} {spread:8.3f} "
              f"{'' if bound is None else bound:>6}{flag}")
        if args.verbose:
            print("    " + " ".join(f"{v:.4g}" for v in vals))
    return 0


if __name__ == "__main__":
    sys.exit(main())

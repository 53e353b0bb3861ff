#!/usr/bin/env python3
"""Self-check of the gmfnet benchmark.

    python3 perfbench/selfcheck.py [--seconds 3] [--skip-bare]

1. Validates BENCHMARK.json against the benchmark contract (keys, names,
   units, bounds, setup_s) and perfbench/targets.json against it (every
   per-layer metric names the end-to-end metrics and workloads it should
   move).
2. Runs every workload (BENCHMARK.json's and the manual campus_poll) for a
   few seconds, untraced and traced, and checks
   that each run exits 0, ends with the result line, reports every
   end-to-end (untraced) or per-layer (traced) metric with its unit, is
   correct, and failed nothing (error_frac = failed / attempted = 0).
3. Copies only BENCHMARK.json and perfbench/ into an empty directory and
   checks that the benchmark fails there without printing a result.

Exits non-zero on the first failed check.
"""

import argparse
import json
import math
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
# Workloads run.py knows that BENCHMARK.json does not list (see README.md);
# the self-check runs them too.
MANUAL_WORKLOADS = ["campus_poll"]


def fail(msg):
    print(f"selfcheck: FAIL: {msg}")
    sys.exit(1)


def check_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    want = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(bench) != want:
        fail(f"BENCHMARK.json keys {sorted(bench)}")
    if not (1 <= len(bench["paths"]) <= 16) or not all(
            PATH.match(p) and not p.startswith("/") and ".." not in p
            for p in bench["paths"]):
        fail("paths")
    if len(bench["command"]) > 32 or any(len(c) > 200
                                         for c in bench["command"]):
        fail("command")
    if not (isinstance(bench["run_seconds"], int)
            and 1 <= bench["run_seconds"] <= 60):
        fail("run_seconds")
    if not 2 <= len(bench["workloads"]) <= 8:
        fail("workload count")
    names = set()
    for w in bench["workloads"]:
        if set(w) != {"name", "why"} or not NAME.match(w["name"]) or \
                len(w["why"]) > 200 or "\n" in w["why"]:
            fail(f"workload {w}")
        names.add(w["name"])
    seen = set()
    for section, keys in (("end_to_end", {"name", "unit", "better", "bound"}),
                          ("per_layer", {"name", "unit", "better"})):
        for m in bench[section]:
            if set(m) != keys or not NAME.match(m["name"]) or \
                    not UNIT.match(m["unit"]) or \
                    m["better"] not in ("lower", "higher") or \
                    m["name"] in seen:
                fail(f"{section} metric {m}")
            if "bound" in m and not 0 < m["bound"] <= 0.25:
                fail(f"bound of {m['name']}")
            seen.add(m["name"])
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        fail("setup_s")
    if setup[0]["bound"] < max(m["bound"] for m in bench["end_to_end"]):
        fail("setup_s must carry the largest bound")
    if len(json.dumps(bench)) > 64 * 1024:
        fail("BENCHMARK.json too large")

    with open(os.path.join(HERE, "targets.json")) as f:
        targets = json.load(f)["targets"]
    e2e = {m["name"] for m in bench["end_to_end"]}
    names |= set(MANUAL_WORKLOADS)
    for m in bench["per_layer"]:
        t = targets.get(m["name"])
        if t is None:
            fail(f"targets.json lacks {m['name']}")
        if not set(t["moves"]) <= e2e or not set(t["on"]) <= names:
            fail(f"targets.json entry of {m['name']}")
    print(f"selfcheck: spec ok ({len(bench['workloads'])} workloads, "
          f"{len(bench['end_to_end'])} end-to-end, "
          f"{len(bench['per_layer'])} per-layer metrics)")
    return bench


def run_one(bench, workload, trace, seconds, cwd=ROOT):
    cmd = bench["command"] + ["--workload", workload, "--seed", "1",
                              "--seconds", str(seconds), "--trace",
                              str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def check_runs(bench, seconds):
    for w in bench["workloads"] + [{"name": n} for n in MANUAL_WORKLOADS]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_one(bench, w["name"], trace, seconds)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                fail(f"{w['name']} trace={trace}: status {proc.returncode}\n"
                     f"{proc.stderr[-3000:]}")
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{w['name']}: result keys {sorted(result)}")
            if result["correct"] is not True or result["failed"] != 0 or \
                    result["attempted"] < 1:
                fail(f"{w['name']}: correct={result['correct']} "
                     f"failed={result['failed']}")
            got = result["metrics"]
            for m in bench[section]:
                v = got.get(m["name"])
                if v is None or v["unit"] != m["unit"] or \
                        not isinstance(v["value"], (int, float)) or \
                        not math.isfinite(v["value"]):
                    fail(f"{w['name']}: metric {m['name']} = {v}")
                if section == "end_to_end" and v["value"] == 0:
                    fail(f"{w['name']}: end-to-end {m['name']} is 0")
            extra = set(got) - {m["name"] for m in bench[section]}
            if extra:
                fail(f"{w['name']}: unlisted metrics {sorted(extra)}")
            error_frac = result["failed"] / result["attempted"]
            print(f"selfcheck: {w['name']} trace={trace}: "
                  f"{len(got)} metrics, attempted={result['attempted']}, "
                  f"error_frac={error_frac}")


def check_bare(bench):
    bare = os.path.join(ROOT, ".bench_build", "selfcheck-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for p in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p))
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    proc = subprocess.run(bench["command"] + [
        "--workload", bench["workloads"][0]["name"], "--seed", "1",
        "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True,
        text=True, timeout=180, env=env)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or "correct" in proc.stdout:
        fail("benchmark succeeded in a directory without the sources")
    print(f"selfcheck: bare directory fails as it should "
          f"(status {proc.returncode})")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=3)
    ap.add_argument("--skip-bare", action="store_true")
    args = ap.parse_args()
    bench = check_spec()
    check_runs(bench, args.seconds)
    if not args.skip_bare:
        check_bare(bench)
    print("selfcheck: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())

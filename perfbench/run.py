#!/usr/bin/env python3
"""Run one workload of the gmfnet benchmark.

    python3 perfbench/run.py --workload campus_poll --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Builds the library, gmfnetd and the
gmfbench load generator from the checkout's sources (Release, into
$CARGO_TARGET_DIR or .bench_build), then runs gmfbench in a private work
directory under the build directory.  gmfbench boots a fresh gmfnetd on the
seeded world, drives it, checks every answer against an in-process mirror
and prints the result; its last stdout line is the result JSON, which this
script passes through as its own last line.

Exit status: 0 when the run was measured and correct; non-zero otherwise
(build failure, missing sources, a mismatch, a failed daemon, a timeout).
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, d) if not os.path.isabs(d) else d


def source_id():
    """A content hash of the sources the benchmark builds from, so results
    name the code they measured even in a checkout without git."""
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def build(out):
    """Configures (once) and builds; returns the paths of the binaries."""
    os.makedirs(out, exist_ok=True)
    logfile = os.path.join(out, "build.log")
    cache = os.path.join(out, "CMakeCache.txt")
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    with open(logfile, "a") as lf:
        for cmd in steps:
            rc = subprocess.call(cmd, stdout=lf, stderr=subprocess.STDOUT,
                                 cwd=ROOT, timeout=850)
            if rc != 0:
                log(f"build failed ({' '.join(cmd)}); see {logfile}")
                with open(logfile) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                return None
    return os.path.join(out, "gmfbench"), os.path.join(out, "gmfnetd")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src")):
        log(f"no gmfnet sources under {ROOT}")
        return 2
    out = os.path.join(build_dir(), "perfbench")
    bins = build(out)
    if bins is None:
        return 3
    gmfbench, gmfnetd = bins

    # A private work directory, named relative to the checkout root so the
    # daemon's socket path stays short.
    workdir = os.path.relpath(
        os.path.join(out, f"run-{os.getpid()}"), ROOT)
    shutil.rmtree(os.path.join(ROOT, workdir), ignore_errors=True)
    os.makedirs(os.path.join(ROOT, workdir))
    cmd = [gmfbench, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--daemon", gmfnetd, "--workdir", workdir,
           "--source-id", source_id()]
    # A session of its own, so a timeout kills gmfbench and its daemon.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"run timed out after {RUN_TIMEOUT_S} s")
        return 4
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # any straggler of the group
        except ProcessLookupError:
            pass
    lines = stdout.splitlines()
    for line in lines:
        print(line)
    sys.stdout.flush()
    # Keep the spans of traced runs; drop the rest of the work directory.
    for name in os.listdir(os.path.join(ROOT, workdir)):
        if not name.startswith("trace-"):
            os.remove(os.path.join(ROOT, workdir, name))
    if not os.listdir(os.path.join(ROOT, workdir)):
        os.rmdir(os.path.join(ROOT, workdir))
    if proc.returncode != 0 or not lines:
        log(f"gmfbench exited with status {proc.returncode}")
        return proc.returncode or 5
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Perf-regression gate over the BENCH_*.json artifacts.

Usage: check_bench_regression.py <baseline_dir> <current_dir> [--tolerance=0.25]

Two kinds of gate:

 * Relative: the headline *ratio* metrics (speedups — machine-portable,
   unlike raw microseconds) of the current run are compared against the
   checked-in baselines under bench/baselines/; any metric regressing by
   more than the tolerance (default 25%) fails.  Raw-time metrics are
   deliberately not gated: CI runners differ in absolute speed, ratios of
   same-machine runs do not.

 * Absolute: a metric spec may carry a `min` floor the *current* value must
   clear regardless of what the baseline says (a baseline recorded on a
   weak machine must not grandfather a real regression in).  `min_if`
   restricts the floor to rows satisfying numeric preconditions — e.g. the
   8-reader scaling floor only applies on runners that actually have >= 8
   hardware threads (`hw_threads` is emitted per row by the bench).

Metric specs are either the legacy string form ("higher") or a dict:
    {"direction": "higher", "min": 4.0, "min_if": {"hw_threads": 8}}
`"relative": False` exempts a metric from the baseline comparison while
keeping its absolute floor — for raw-throughput metrics (qps) where only
the floor is machine-portable.

Every failing metric across every bench is reported in ONE run: failures
accumulate (including a bench whose artifact is unreadable — that is
recorded and the remaining benches still run) and the exit code reflects
the full list, so a red CI run shows the complete damage, not the first
casualty.

Row matching is by key fields (e.g. section + residents), so adding new rows
or benches never breaks the gate; removing a baselined row does (a silently
vanished data point is itself a regression).
"""

import json
import pathlib
import sys

# bench name -> {file, key fields, filter (subset row must match),
#                metrics: {name: spec}}
CHECKS = {
    "admission_scaling": {
        "file": "BENCH_admission_scaling.json",
        "key": ["section", "residents"],
        "filter": {},
        "metrics": {"speedup": "higher"},
    },
    "demand_eval": {
        "file": "BENCH_demand_eval.json",
        "key": ["section", "interferers"],
        "filter": {"section": "hop_analysis"},
        # The envelope's per-hop time against a fixed reference kernel
        # timed in the same reps (bench_demand_eval.cpp), not against the
        # naive oracle: the oracle got faster once and moved the old
        # naive/envelope `speedup` without the envelope changing.
        "metrics": {"vs_reference": "higher"},
    },
    "warm_boot": {
        "file": "BENCH_warm_boot.json",
        "key": ["section", "residents"],
        # The campus rows are informational; only the solve-heavy
        # four_domain_av section is gated.  The gated ratio is restore
        # against the no-solve rebuild of the same world (`vs_rebuild`), not
        # against the cold boot (`speedup`): a cheaper cold solve shrinks
        # the cold/restore ratio while restore itself is unchanged.
        "filter": {"section": "four_domain_av"},
        "metrics": {"vs_rebuild": "higher"},
    },
    "concurrent_whatif": {
        "file": "BENCH_concurrent_whatif.json",
        "key": ["section", "threads"],
        # The mixed (reader+writer) section measures writer pacing as much
        # as reader scaling; only the quiescent section is gated.
        "filter": {"section": "readers_only"},
        "metrics": {
            # Reader scaling vs the single-reader point.  The relative part
            # guards the curve's shape against the baseline; the absolute
            # floor (>= 4x at 8 readers) only binds on runners with >= 8
            # hardware threads — elsewhere the curve measures the machine.
            "speedup": {
                "direction": "higher",
                "min": 4.0,
                "min_if": {"threads": 8, "hw_threads": 8},
            },
        },
    },
    # rpc_whatif is intentionally absent: loopback qps measures the socket
    # stack and scheduler, not this codebase; the bench fails itself on any
    # remote-vs-in-process verdict mismatch instead.
    "rpc_concurrency": {
        "file": "BENCH_rpc_concurrency.json",
        "key": ["section", "connections"],
        # Only the 500-connection point is gated; the 100/1000-connection
        # rows are context.  The bench itself gates the p99 latency.
        "filter": {"section": "reactor_500"},
        "metrics": {
            # Absolute floor on sustained mixed-traffic qps at 500
            # connections.  Raw throughput is not machine-portable, so no
            # relative gate — but any runner this project targets must
            # clear 5k qps, an order of magnitude under the recorded
            # baseline and several times the old daemon's ceiling.
            "qps": {"direction": "higher", "min": 5000.0,
                    "relative": False},
        },
    },
}


def load_rows(path):
    with open(path) as f:
        doc = json.load(f)
    return doc.get("rows", [])


def row_key(row, fields):
    return tuple(row.get(f) for f in fields)


def norm_spec(spec):
    """Legacy "higher" string -> dict form."""
    if isinstance(spec, str):
        return {"direction": spec}
    return spec


def min_if_holds(row, conditions):
    """Every condition key must be present and numerically >= its bound."""
    for field, bound in conditions.items():
        v = row.get(field)
        if v is None or float(v) < float(bound):
            return False
    return True


def main():
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    if len(args) != 2:
        print(__doc__)
        return 2
    tolerance = 0.25
    for a in sys.argv[1:]:
        if a.startswith("--tolerance"):
            if "=" not in a:
                print("use --tolerance=<fraction>, e.g. --tolerance=0.25")
                return 2
            tolerance = float(a.split("=", 1)[1])
    baseline_dir, current_dir = map(pathlib.Path, args)

    failures = []
    checked = 0
    for bench, cfg in CHECKS.items():
        base_path = baseline_dir / cfg["file"]
        cur_path = current_dir / cfg["file"]
        metrics = {m: norm_spec(s) for m, s in cfg["metrics"].items()}
        if not cur_path.exists():
            if base_path.exists():
                failures.append(f"[{bench}] baseline exists but current run "
                                f"produced no {cur_path}")
            else:
                print(f"[{bench}] no current run at {cur_path} — skipping")
            continue
        # A truncated or malformed artifact fails THIS bench and moves on:
        # the report must cover every bench, not stop at the first casualty.
        try:
            cur_rows = load_rows(cur_path)
        except (OSError, ValueError) as e:
            failures.append(f"[{bench}] unreadable current artifact "
                            f"{cur_path}: {e}")
            continue

        # Relative gate: current vs baseline, row by baselined row.
        try:
            base_rows = load_rows(base_path) if base_path.exists() else None
        except (OSError, ValueError) as e:
            failures.append(f"[{bench}] unreadable baseline {base_path}: {e}")
            base_rows = None
        if base_rows is not None:
            current = {row_key(r, cfg["key"]): r for r in cur_rows}
            for row in base_rows:
                if any(row.get(k) != v for k, v in cfg["filter"].items()):
                    continue
                key = row_key(row, cfg["key"])
                cur = current.get(key)
                if cur is None:
                    failures.append(f"[{bench}] row {key} in baseline but "
                                    f"missing from current run")
                    continue
                for metric, spec in metrics.items():
                    if metric not in row:
                        continue
                    if not spec.get("relative", True):
                        continue
                    if metric not in cur:
                        # A baselined metric that vanished from the fresh
                        # run (renamed/dropped bench field) must fail the
                        # gate, not silently evade it: a data point nobody
                        # emits anymore can never regress.
                        failures.append(
                            f"[{bench}] {key} metric '{metric}' in baseline "
                            f"but missing from current run")
                        continue
                    base_v, cur_v = float(row[metric]), float(cur[metric])
                    checked += 1
                    if spec.get("direction") == "higher":
                        floor = base_v * (1.0 - tolerance)
                        ok = cur_v >= floor
                        verdict = "OK" if ok else "REGRESSED"
                        print(f"[{bench}] {key} {metric}: baseline "
                              f"{base_v:.2f} current {cur_v:.2f} "
                              f"(floor {floor:.2f}) {verdict}")
                        if not ok:
                            failures.append(
                                f"[{bench}] {key} {metric} regressed "
                                f">{tolerance:.0%}: "
                                f"{base_v:.2f} -> {cur_v:.2f}")
        else:
            print(f"[{bench}] no baseline at {base_path} — relative gate "
                  f"skipped (record one to start gating)")

        # Absolute gate: floors on the current run, baseline or not.
        for row in cur_rows:
            if any(row.get(k) != v for k, v in cfg["filter"].items()):
                continue
            key = row_key(row, cfg["key"])
            for metric, spec in metrics.items():
                if "min" not in spec or metric not in row:
                    continue
                if not min_if_holds(row, spec.get("min_if", {})):
                    continue
                cur_v = float(row[metric])
                floor = float(spec["min"])
                checked += 1
                ok = cur_v >= floor
                verdict = "OK" if ok else "BELOW FLOOR"
                print(f"[{bench}] {key} {metric}: current {cur_v:.2f} "
                      f"(absolute floor {floor:.2f}) {verdict}")
                if not ok:
                    failures.append(
                        f"[{bench}] {key} {metric} below absolute floor: "
                        f"{cur_v:.2f} < {floor:.2f}")

    print(f"\n{checked} metrics checked, {len(failures)} failures")
    for f in failures:
        print("FAIL:", f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

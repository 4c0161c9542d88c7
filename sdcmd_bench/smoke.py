#!/usr/bin/env python3
"""Smoke test of sdcmd-bench at tiny scale (about a minute, after the build).

    python3 sdcmd_bench/smoke.py

Runs every workload of BENCHMARK.json untraced and traced on a 6^3-cell box
and asserts that each run is correct and reports exactly the metrics
BENCHMARK.json declares for its mode, with their units and finite values.
Then runs the force-gate self-test and asserts that it fails the run:
non-zero exit, "correct": false, every attempted operation failed.
Exits non-zero on the first violation.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--scale", "tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"FAIL {' '.join(cmd)}: no output\n{proc.stderr[-3000:]}")
    return proc.returncode, json.loads(lines[-1])


def check_metrics(label, result, declared):
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    if set(got) != set(want):
        sys.exit(f"FAIL {label}: missing {sorted(set(want) - set(got))}, "
                 f"unexpected {sorted(set(got) - set(want))}")
    for name, unit in want.items():
        metric = got[name]
        if set(metric) != {"value", "unit"} or metric["unit"] != unit:
            sys.exit(f"FAIL {label}: {name} is {metric}, want unit {unit}")
        if not isinstance(metric["value"], (int, float)) or \
                not math.isfinite(metric["value"]):
            sys.exit(f"FAIL {label}: {name} value {metric['value']!r}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            label = f"{workload} trace={trace}"
            code, result = run(workload, trace)
            if code != 0 or not result["correct"] or result["failed"] != 0 \
                    or result["attempted"] < 1:
                sys.exit(f"FAIL {label}: exit {code}, result "
                         f"{ {k: result[k] for k in ('correct', 'attempted', 'failed')} }")
            check_metrics(label, result, declared)
            print(f"ok   {label}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} attempted")
    code, result = run("bulk_nve", 0, "--self-test")
    if code == 0 or result["correct"] or result["failed"] != result["attempted"]:
        sys.exit(f"FAIL self-test did not trip the force gate: exit {code}, "
                 f"correct {result['correct']}, failed {result['failed']}")
    print("ok   self-test trips the force gate")
    print("PASS")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build sdcmd-bench from source and run one workload.

    python3 sdcmd_bench/run.py --workload bulk_nve --seed 1 --seconds 20 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR/sdcmd_bench
(default .bench_build/sdcmd_bench) as an optimized (Release) build of the
repository's own sources; the first run configures and compiles, later runs
only recompile what changed. The benchmark binary then runs with one OpenMP
thread per available CPU, bound close on cores, and its standard output is
passed through: the last line is the result JSON object.

Extra flags for development: --scale tiny (a 6^3-cell box, seconds-long
runs) and --self-test (perturb the forces handed to the force gate, which
must fail the run). smoke.py uses both.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("bulk_nve", "void_npt", "supervised_ckpt")
# The binary's own measured work ends well inside this; the limit only
# guards a hung run.
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configure (once) and build the benchmark; output goes to stderr."""
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "sdcmd-bench", "-j", jobs],
        check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "sdcmd-bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        print("sdcmd-bench: the sdcmd sources (CMakeLists.txt, src/) are not "
              "next to the benchmark directory; nothing to build",
              file=sys.stderr)
        return 2

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(build_root), "sdcmd_bench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"sdcmd-bench: build failed: {e}", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env["OMP_NUM_THREADS"] = str(len(os.sched_getaffinity(0)))
    env["OMP_PROC_BIND"] = "close"
    env["OMP_PLACES"] = "cores"
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale, "--out-dir", os.path.join(build_dir, "runs")]
    if args.self_test:
        cmd.append("--self-test")
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"sdcmd-bench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

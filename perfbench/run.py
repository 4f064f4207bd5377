#!/usr/bin/env python3
"""Run one workload of the hpcsched benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Builds the simulator from this checkout's src/ together with the benchmark
program in perfbench/cpp/ (CMake, into $CARGO_TARGET_DIR or .bench_build
under the checkout root), runs it and passes its report through.  The last
line of standard output is the result: one JSON object with the keys
correct, attempted, failed and metrics.  Build output goes to standard
error.  A traced run (--trace 1) also writes its spans as Chrome-trace JSON
to <build dir>/traces/<workload>-seed<N>.json.

Exits nonzero, without a result, when the sources are missing, the build
fails, or the benchmark program fails or overruns.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("scale_loaded", "replay_skewed", "nas_suite", "twolevel")
# A run is meant to end within 180 s; the program measures for --seconds
# plus its set-up and warm passes.
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(targets):
    """Configure (once) and build the given CMake targets; returns the
    build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no simulator sources under %s" % ROOT)
    bdir = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", bdir, "-j", jobs, "--target"] +
                   list(targets), stdout=sys.stderr, check=True)
    return bdir


def run_workload(args):
    bdir = build(["perfbench_run"])
    cmd = [os.path.join(bdir, "perfbench_run"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(bdir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    # subprocess.run kills and reaps the program when it overruns.
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        sys.exit("perfbench: benchmark program exited with %d" %
                 proc.returncode)
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        sys.exit("perfbench: malformed result line: %s" % lines[-1])
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


def self_test():
    bdir = build(["perfbench_selftest"])
    subprocess.run([os.path.join(bdir, "perfbench_selftest")], check=True)
    tests = subprocess.run([sys.executable, "-m", "unittest", "discover",
                            "-s", os.path.join(HERE, "tests"), "-v"])
    return tests.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        run_workload(args)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            ValueError) as e:
        sys.exit("perfbench: %s" % e)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Measure how steady the benchmark is: run every workload over seeds 1-10,
twice over (two sets, workloads interleaved by seed), and print, per
workload and end-to-end metric, the median, quartiles and range of the
first set's per-run values, the spread (quartile distance over median)
against a third of the metric's bound, and the drift between the two sets'
medians against the bound.  Then prints the comparisons the method rests
on, from the quantities each run reports as timed and at the reference
speed: the first (fresh-process) serial pass against the warm passes, the
2-thread parallel pass's wall time against its CPU time, and each time as
timed against the same time at the reference speed.

    python3 perfbench/steadiness.py [--json OUT]

Every run goes through run.py exactly as the benchmark is run, for the
run_seconds in BENCHMARK.json.  The markdown it prints is the format of
perfbench/STEADINESS.md.  Exits nonzero unless every spread is within a
third of its metric's bound and every drift within the bound.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("scale_loaded", "replay_skewed", "nas_suite", "twolevel")
SEEDS = range(1, 11)
SETS = 2
# "  serial_wall_s  n=9  median 0.93 ... reported 0.81": the median as
# timed and the figure at the reference speed.
SUMMARY_LINE = re.compile(
    r"^\s+(\w+)\s+n=(\d+)\s+median (\S+).*\breported (\S+)$")


def summarize(values):
    """Median, quartiles (statistics.quantiles, n=4), range, and the
    spread and range as shares of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    share = (lambda x: x / median) if median else (lambda x: float("inf"))
    return {
        "n": len(values),
        "median": median,
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "spread": share(q3 - q1),
        "range": share(max(values) - min(values)),
    }


def run_once(workload, seed, seconds):
    """One benchmark run: its result line, and per reported quantity the
    median as timed and at the reference speed."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, check=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    report = {}
    for line in lines[:-1]:
        m = SUMMARY_LINE.match(line)
        if m and int(m.group(2)) > 0:
            report[m.group(1)] = (float(m.group(3)), float(m.group(4)))
    return result, report


def fmt(x):
    return "%.4g" % x


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--json", help="write every run's numbers here")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = {}  # (set, workload) -> list of (result, report)
    for s in range(SETS):
        for seed in SEEDS:
            for w in WORKLOADS:
                result, report = run_once(w, seed, bench["run_seconds"])
                runs.setdefault((s, w), []).append((result, report))
                print("set %d %-13s seed %-3d correct=%s failed=%d %s" % (
                    s + 1, w, seed, result["correct"], result["failed"],
                    " ".join("%s=%s" % (k, fmt(v["value"]))
                             for k, v in result["metrics"].items())),
                    file=sys.stderr, flush=True)
                if args.json:
                    with open(args.json, "w") as f:
                        json.dump({"%d/%s" % k: v for k, v in runs.items()},
                                  f, indent=1)

    ok = True
    print("| workload | metric | median | q1 | q3 | min | max | spread | "
          "range | bound/3 | drift |")
    print("|---|---|---|---|---|---|---|---|---|---|---|")
    for w in WORKLOADS:
        ok &= all(r["correct"] and r["failed"] == 0
                  for s in range(SETS) for r, _ in runs[(s, w)])
        for name, bound in bounds.items():
            st, st2 = (summarize([r["metrics"][name]["value"]
                                  for r, _ in runs[(s, w)]])
                       for s in range(SETS))
            drift = st2["median"] / st["median"] - 1.0
            ok &= st["spread"] <= bound / 3 and abs(drift) <= bound
            print("| %s | %s | %s | %s | %s | %s | %s | %.1f%% | %.1f%% | "
                  "%.1f%% | %+.1f%% |" % (
                      w, name, fmt(st["median"]), fmt(st["q1"]),
                      fmt(st["q3"]), fmt(st["min"]), fmt(st["max"]),
                      100 * st["spread"], 100 * st["range"],
                      100 * bound / 3, 100 * drift))

    print("\n| workload | quantity (per-run median of samples) | as | "
          "median | spread | range | drift |")
    print("|---|---|---|---|---|---|---|")
    for w in WORKLOADS:
        for name in ("first_serial_wall_s", "serial_wall_s",
                     "parallel_wall_s", "parallel_cpu_s", "setup_s",
                     "reference_s"):
            for i, label in enumerate(("timed", "at reference speed")):
                if name == "reference_s" and i == 1:
                    continue
                sets = [[rep[name][i] for _, rep in runs[(s, w)]
                         if name in rep] for s in range(SETS)]
                if min(len(v) for v in sets) < 2:
                    continue
                st, st2 = summarize(sets[0]), summarize(sets[1])
                print("| %s | %s | %s | %s | %.1f%% | %.1f%% | %+.1f%% |" % (
                    w, name, label, fmt(st["median"]), 100 * st["spread"],
                    100 * st["range"],
                    100 * (st2["median"] / st["median"] - 1.0)))
    print("\nverdict: %s" % ("steady" if ok else "NOT steady"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

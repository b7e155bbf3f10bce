#!/usr/bin/env python3
"""Spread report: runs one workload N times, with seeds 1..N, and prints
every end-to-end metric's median, quartiles, interquartile spread and
max/min ratio.

    python3 perfbench/spread.py --workload journal_rounds --runs 10
    python3 perfbench/spread.py --workload mt_profiled --runs 10 \\
        --compare ../parent .

--seconds defaults to BENCHMARK.json's run_seconds. The spread is
(q3 - q1) / median, with quartiles from statistics.quantiles(values, n=4).
Each metric is set against its bound from BENCHMARK.json: a spread within
the bound passes, and one below a third of it is marked steady (setup_s
has no spread gate, only a median one).

--compare FIRST SECOND takes two checkouts and runs them in alternating
pairs: seed 1 runs FIRST then SECOND, seed 2 SECOND then FIRST, and so on,
so host drift over minutes falls on both sides alike. It reports each
side's spreads and flags every metric whose SECOND median is worse than
FIRST's by more than its bound. Each checkout builds into its own
.bench_build. Host facts (nproc, CPU model, load, the workload's jobs)
head every report so noise statements carry them. The exit code is 1 if
a run was incorrect, a spread was over its bound or a median got worse.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS_FROM = 1


def host_facts(jobs):
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model,
            "loadavg_1m": round(os.getloadavg()[0], 2), "jobs": jobs}


def run_once(checkout, workload, seed, seconds, env):
    """One run.py run in a checkout; returns (result, jobs)."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, cwd=checkout, env=env)
    if proc.returncode:
        sys.stderr.write(proc.stderr[-2000:])
        sys.exit("spread: run.py failed in %s for seed %d" % (checkout, seed))
    jobs = re.search(r"jobs (\d+)", proc.stderr)
    return (json.loads(proc.stdout.splitlines()[-1]),
            int(jobs.group(1)) if jobs else None)


class Side:
    """The runs of one checkout: metric name -> values, and failures."""

    def __init__(self, checkout):
        self.checkout = checkout
        self.values = {}
        self.incorrect = 0
        self.jobs = None

    def add(self, result, jobs):
        self.incorrect += not result["correct"]
        self.jobs = jobs
        for name, m in result["metrics"].items():
            self.values.setdefault(name, []).append(m["value"])


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    lo = min(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "max_min": max(values) / lo if lo else float("nan")}


def report(workload, side, limits):
    """Prints one side's table; returns the number of violations."""
    runs = len(next(iter(side.values.values())))
    print("workload %s in %s: %d runs, %d incorrect; host %s" %
          (workload, side.checkout, runs, side.incorrect,
           json.dumps(host_facts(side.jobs))))
    print("%-26s %13s %13s %13s %8s %8s %6s  %s" %
          ("metric", "median", "q1", "q3", "spread", "max/min", "bound",
           "verdict"))
    bad = side.incorrect
    for name, values in side.values.items():
        s = summarize(values)
        bound = limits[name]["bound"]
        verdict = "steady" if s["spread"] < bound / 3 else (
            "within bound" if s["spread"] <= bound else "TOO NOISY")
        if name == "setup_s":
            verdict += " (not gated)"
        elif verdict == "TOO NOISY":
            bad += 1
        print("%-26s %13.6g %13.6g %13.6g %7.2f%% %8.3f %6.2f  %s" %
              (name, s["median"], s["q1"], s["q3"], 100 * s["spread"],
               s["max_min"], bound, verdict))
    return bad


def compare(first, second, limits):
    """Prints SECOND's medians against FIRST's; returns how many got
    worse than their bound."""
    print("compare %s (first) with %s (second)" %
          (first.checkout, second.checkout))
    worse = 0
    for name, spec in limits.items():
        m1 = statistics.median(first.values[name])
        m2 = statistics.median(second.values[name])
        change = (m2 - m1) / m1 if m1 else 0.0
        if spec["better"] == "higher":
            change = -change
        bad = change > spec["bound"]
        worse += bad
        print("%-26s %13.6g %13.6g %+7.2f%% (bound %.2f) %s" %
              (name, m1, m2, 100 * change, spec["bound"],
               "WORSE" if bad else "ok"))
    return worse


def main():
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"),
                    help="two checkouts to run in alternating pairs")
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2")
    limits = {m["name"]: m for m in spec["end_to_end"]}
    checkouts = ([os.path.abspath(c) for c in args.compare] if args.compare
                 else [ROOT])
    sides = [Side(c) for c in checkouts]
    env = dict(os.environ)
    if args.compare:
        env["CARGO_TARGET_DIR"] = ".bench_build"  # One build per checkout.
    for i in range(args.runs):
        seed = SEEDS_FROM + i
        order = sides if i % 2 == 0 else sides[::-1]
        for side in order:
            result, jobs = run_once(side.checkout, args.workload, seed,
                                    args.seconds, env)
            side.add(result, jobs)
            print("seed %d %s: time_to_report_s %.4g" %
                  (seed, side.checkout,
                   result["metrics"]["time_to_report_s"]["value"]),
                  file=sys.stderr)
    bad = sum(report(args.workload, side, limits) for side in sides)
    if args.compare:
        bad += compare(sides[0], sides[1], limits)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()

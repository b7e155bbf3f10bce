#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its metrics.

    python3 perfbench/run.py --workload mt_profiled --seed 1 --seconds 45

Builds the `djx` library and the `djxbench` driver from this checkout's
sources into $CARGO_TARGET_DIR (default `.bench_build`), runs the driver
once for peak RSS and then for --seconds of timed repetitions, checks its
outputs, and prints one JSON object as the last line of standard output:

    {"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(from traced repetitions and their native twins) and writes the spans as
Chrome trace-event JSON under <build dir>/traces/. perfbench/README.md
documents every metric, workload and check.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("mt_profiled", "journal_rounds")
DEFAULT_SEED = 1

END_TO_END = {
    "time_to_report_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
    "profiler_mib": "MiB",
    "sim_gcycles": "Gcycles",
    "sample_attribution_ratio": "ratio",
    "journal_mib": "MiB",
    "recover_s": "s",
}

# Host times: the driver sums, over the units of work every repetition
# repeats, the fastest each unit ran in the run (see Fastest in djxbench.cpp).
FASTEST = ("time_to_report_s", "setup_s", "cpu_s", "recover_s")

# Counts that depend only on the seed: every repetition of one run, traced
# or not, must report exactly the same value.
DETERMINISTIC = ("profiler_mib", "sim_gcycles", "sample_attribution_ratio",
                 "journal_mib", "pmu.samples")

# Per-layer metrics read straight from the traced repetitions (medians).
TRACED = (
    "jvm.vm_init_s", "jvm.gc_s", "jvm.gc_count", "jvm.alloc_events",
    "bytecode.load_s",
    "instrument.rewrite_s", "instrument.sites",
    "interp.steps", "interp.trace_compiles", "interp.trace_invalidations",
    "sim.accesses", "sim.l1_miss_ratio", "sim.l2_miss_ratio",
    "sim.l3_miss_ratio", "sim.tlb_miss_ratio", "sim.remote_ratio",
    "pmu.samples", "pmu.samples_dropped", "pmu.ring_overflow_drains",
    "runtime.exec_s", "runtime.rounds", "runtime.safepoints",
    "runtime.round_gap_p50_us", "runtime.round_gap_p99_us",
    "runtime.cpu_per_wall",
    "core.tracked_allocs", "core.index_live", "core.index_lock_acquisitions",
    "core.stop_s", "core.analyze_s", "core.render_s",
    "io.flush_s", "io.flush_p99_us", "io.close_s", "io.epochs",
    "io.bytes_per_epoch", "io.read_s", "io.recover_render_s",
)
# Layers whose spans the driver records; each gets <layer>.self_s.
LAYERS = ("jvm", "bytecode", "instrument", "runtime", "core", "io")
# Per-layer metrics derived from several repetition kinds.
DERIVED = ("interp.native_steps_per_s", "sim.native_accesses_per_s",
           "core.agent_s", "core.host_overhead_ratio",
           "core.sim_overhead_ratio", "trace.overhead_ratio",
           "trace.coverage")


def unit_of(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us"):
        return "us"
    if name.endswith(("_ratio", "_per_wall", ".coverage")):
        return "ratio"
    if name == "io.bytes_per_epoch":
        return "bytes"
    return "count"


PER_LAYER = {name: unit_of(name)
             for name in TRACED + tuple(l + ".self_s" for l in LAYERS) +
             DERIVED}


def die(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no djx sources next to perfbench/ (expected src/CMakeLists.txt)",
            2)
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, timeout=880).returncode:
            die("build failed: " + " ".join(cmd))
    return os.path.join(ROOT, target), os.path.join(build_dir, "djxbench")


def run_driver(cmd, timeout):
    """Runs the driver; returns its repetition lines and process line."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    if proc.returncode:
        die("driver exited with code %d" % proc.returncode)
    out = {"reps": [], "process": None}
    for line in proc.stdout.splitlines():
        rec = json.loads(line)
        if "process" in rec:
            out["process"] = rec["process"]
        else:
            out["reps"].append(rec)
    if out["process"] is None or not out["reps"]:
        die("driver printed no results")
    return out


def median(reps, key):
    return statistics.median(r.get(key, 0.0) for r in reps)


def per_layer(profiled, traced, native):
    out = {name: median(traced, name) for name in TRACED}
    for layer in LAYERS:
        out[layer + ".self_s"] = median(traced, layer + ".self_s")
    native_exec = median(native, "runtime.exec_s")
    out["interp.native_steps_per_s"] = (median(native, "interp.steps") /
                                        native_exec)
    out["sim.native_accesses_per_s"] = (median(native, "sim.accesses") /
                                        native_exec)
    # Repetitions of one cycle ran back to back: pair them so host drift
    # between cycles cancels.
    def paired(reps_a, reps_b, fn):
        return statistics.median(fn(a["time_to_report_s"],
                                    b["time_to_report_s"])
                                 for a, b in zip(reps_a, reps_b))
    out["core.agent_s"] = paired(profiled, native, lambda a, b: a - b)
    out["core.host_overhead_ratio"] = paired(profiled, native,
                                             lambda a, b: a / b)
    out["core.sim_overhead_ratio"] = (median(traced, "sim_gcycles") /
                                      median(native, "sim_gcycles"))
    out["trace.overhead_ratio"] = paired(traced, profiled, lambda a, b: a / b)
    out["trace.coverage"] = statistics.median(
        r["trace.top_level_s"] / r["trace.wall_s"] for r in traced)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    out_dir, driver = build()
    work = os.path.join(out_dir, "work", str(os.getpid()))
    trace_file = os.path.join(out_dir, "traces",
                              "%s-seed%d.json" % (args.workload, args.seed))
    os.makedirs(work, exist_ok=True)
    os.makedirs(os.path.dirname(trace_file), exist_ok=True)
    common = [driver, "--workload", args.workload, "--seed", str(args.seed),
              "--work-dir", work]
    try:
        # Peak RSS comes from a process that runs the workload once, as
        # the CLI does; the timed repetitions then run in a process of
        # their own.
        once = run_driver(common + ["--once"], 150)
        timed = run_driver(common + ["--seconds", str(args.seconds),
                                     "--trace", str(args.trace),
                                     "--trace-file", trace_file],
                           args.seconds + 150)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reps = {"profiled": [], "traced": [], "native": []}
    attempted = failed = 0
    for rec in timed["reps"]:
        reps[rec["kind"]].append(rec["metrics"])
    for rec in once["reps"] + timed["reps"]:
        if rec["kind"] != "native":
            attempted += rec["attempted"]
            failed += rec["failed"]
        for err in rec["errors"]:
            print("perfbench: check failed: " + err, file=sys.stderr)
    peak_rss = once["process"]["peak_rss_mib"]
    fastest = timed["process"]["fastest"]
    if fastest["mismatches"]:
        failed += fastest["mismatches"]
        print("perfbench: %d repetitions passed other checkpoints than the "
              "first" % fastest["mismatches"], file=sys.stderr)
    print("perfbench: %s seed %d, %g s, trace %d: jobs %d, %d repetitions, "
          "%d timed units" %
          (args.workload, args.seed, args.seconds, args.trace,
           timed["process"]["jobs"], len(timed["reps"]), fastest["units"]),
          file=sys.stderr)

    checked = (reps["profiled"] + reps["traced"] +
               [rec["metrics"] for rec in once["reps"]])
    for key in DETERMINISTIC:
        values = sorted({r.get(key) for r in checked}, key=str)
        if len(values) != 1:
            failed += 1
            print("perfbench: %s differs between repetitions: %s" %
                  (key, values), file=sys.stderr)
    if args.trace:
        with open(trace_file) as f:
            if not json.load(f)["traceEvents"]:
                failed += 1
                print("perfbench: empty trace " + trace_file,
                      file=sys.stderr)
        values = per_layer(reps["profiled"], reps["traced"], reps["native"])
        units = PER_LAYER
    else:
        values = {name: median(reps["profiled"], name)
                  for name in END_TO_END if name != "peak_rss_mib"}
        values.update({name: fastest[name] for name in FASTEST})
        values["peak_rss_mib"] = peak_rss
        units = END_TO_END
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))


if __name__ == "__main__":
    main()

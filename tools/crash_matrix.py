#!/usr/bin/env python3
"""Crash matrix for the profile journal: SIGKILL a journaled run at
seeded points mid-flight, then prove `djxperf recover` salvages a
consistent prefix.

For every kill point:
  - `djxperf recover` must exit 0 and print a well-formed report (a
    DEGRADED banner plus truthful kept/dropped accounting when the tail
    was lost);
  - when at least one round was durable, the salvaged report must be
    byte-identical to a reference run stopped at the same round
    (`--max-rounds R`) — the truncation rule recovers *exactly* the
    state at the last durable commit, never more, never less.

A second campaign re-runs the matrix under injected journal I/O faults
(torn writes, transient write errors, corrupt bits): the run itself must
still succeed, and recover must never crash and never read past a bad
checksum.

The writer compacts a journal whose deltas cross the 64 KiB checkpoint
floor: each Checkpoint starts a fresh file, written to <journal>.tmp
and renamed over <journal>. The closing epoch is always a Checkpoint,
so the calibrate step checks that the complete journal is its one
Checkpoint (Meta, MethodTable, Checkpoint, Commit, then the Close), and
that no .tmp is left behind. Each kill point says whether the file it
recovered had been compacted (a kill between the tmp write and the
rename leaves the old file, and the .tmp, in place). On parallel4 at
--jobs 2 the first mid-run compaction comes at round 311 of 388,
so only the late kill points can find one, and whether one does is
left to timing. The calibrate step therefore also tears the journal
deterministically with an injected short write (--tear-rate,
--tear-seed; fault draws are keyed on the write ordinal, so the tear
lands at the same epoch on every host and at every --jobs). The file it
leaves must be a mid-run compacted one: Meta, MethodTable, Checkpoint,
Commit, then Deltas and no Close, and its salvaged report must equal
the --max-rounds reference. The defaults tear parallel4 at round 363,
52 Deltas after its first compaction; another workload may need
another --tear-seed.

Usage: crash_matrix.py --djxperf PATH [--workload parallel4] [--jobs 2]
                       [--points 6] [--seed N]
                       [--tear-rate 0.004] [--tear-seed 3]
"""

import argparse
import os
import re
import signal
import subprocess
import sys
import tempfile
import time

REPORT_MARKER = "=== DJXPerf object-centric profile ==="
FAILURES = []
# Segment types (src/io/ProfileJournal.h).
META, METHOD_TABLE, DELTA, COMMIT, CLOSE, CHECKPOINT = 1, 2, 3, 4, 5, 6


def fail(label, message):
    FAILURES.append(f"{label}: {message}")
    print(f"FAIL [{label}] {message}")


def ok(label, message):
    print(f"ok   [{label}] {message}")


def run(cmd, timeout=300):
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=timeout)
    return proc.returncode, proc.stdout, proc.stderr


def report_body(stdout):
    """Strips any degraded banner: the report proper starts at the
    object-centric header."""
    idx = stdout.find(REPORT_MARKER)
    return stdout[idx:] if idx >= 0 else None


def recover(djxperf, journal):
    return run([djxperf, "recover", journal])


def segment_types(journal):
    """The journal's segment types in file order, from a walk over the
    32-byte segment headers after the 16-byte file header (type at +4,
    payload length at +24). A torn tail ends the walk."""
    try:
        with open(journal, "rb") as f:
            data = f.read()
    except OSError:
        return []
    types, off = [], 16
    while off + 32 <= len(data):
        types.append(int.from_bytes(data[off + 4:off + 8], "little"))
        off += 32 + int.from_bytes(data[off + 24:off + 28], "little")
    return types


def compacted(journal):
    """True when the file was written by a compaction: it starts with
    Meta, MethodTable, Checkpoint."""
    return segment_types(journal)[:3] == [META, METHOD_TABLE, CHECKPOINT]


def parse_last_round(stderr):
    m = re.search(r"last durable epoch \d+ \(round (\d+)\)", stderr)
    if m:
        return int(m.group(1))
    m = re.search(r"through epoch \d+ \(round (\d+)\)", stderr)
    return int(m.group(1)) if m else None


def kill_campaign(djxperf, workload, jobs, points, base_duration):
    """SIGKILL at evenly spread fractions of the measured run time."""
    for i in range(points):
        frac = (i + 0.5) / points
        delay = base_duration * frac
        label = f"kill@{frac:.2f}"
        with tempfile.TemporaryDirectory() as td:
            journal = os.path.join(td, "run.djxj")
            proc = subprocess.Popen(
                [djxperf, workload, "--jobs", str(jobs),
                 "--journal", journal],
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            time.sleep(delay)
            killed = proc.poll() is None
            if killed:
                proc.send_signal(signal.SIGKILL)
            proc.wait()
            state = (f"compacted={compacted(journal)}, "
                     f"tmp={os.path.exists(journal + '.tmp')}")

            rc, out, err = recover(djxperf, journal)
            if rc != 0:
                fail(label, f"recover exited {rc}: {err.strip()}")
                continue
            if report_body(out) is None:
                fail(label, "recover printed no object-centric report")
                continue
            if killed and "DEGRADED" not in out:
                # A kill can land after the Close flush; only a journal
                # that really lost its tail must carry the banner.
                if "Close" not in err and "dropped 0 uncommitted" not in err:
                    fail(label, "torn journal recovered without a "
                                "DEGRADED banner")
                    continue

            last_round = parse_last_round(err)
            if last_round is None:
                fail(label, f"no durable-round accounting in: {err.strip()}")
                continue
            if last_round < 1 or "without a Close sentinel" not in out:
                # Nothing durable yet, or the journal closed cleanly —
                # no reference point to compare against.
                ok(label, f"recovered (round {last_round}, "
                          f"killed={killed}, {state}); no torn-prefix "
                          f"comparison")
                continue

            if matches_reference(label, djxperf, workload, jobs, out,
                                 last_round):
                ok(label, f"salvaged report == --max-rounds {last_round} "
                          f"reference ({state})")


def matches_reference(label, djxperf, workload, jobs, out, last_round):
    """True when the salvaged report `out` equals a plain run stopped
    at `last_round`; otherwise records the failure."""
    ref_rc, ref_out, _ = run(
        [djxperf, workload, "--jobs", str(jobs),
         "--max-rounds", str(last_round)])
    if ref_rc != 0:
        fail(label, f"reference --max-rounds {last_round} exited {ref_rc}")
        return False
    if report_body(out) != report_body(ref_out):
        fail(label, f"salvaged report != --max-rounds {last_round} "
                    f"reference")
        return False
    return True


def torn_compaction(djxperf, workload, jobs, rate, seed):
    """A short write tears the journal at a fixed epoch after a mid-run
    compaction: the file left behind starts with that compaction's
    Checkpoint and holds the Deltas after it, and recover salvages
    exactly the state at its last commit."""
    label = "calibrate:torn"
    with tempfile.TemporaryDirectory() as td:
        journal = os.path.join(td, "torn.djxj")
        rc, _, _ = run([djxperf, workload, "--jobs", str(jobs),
                        "--journal", journal, "--fault-rate",
                        f"journal-short={rate}", "--fault-seed", str(seed)])
        if rc != 0:
            fail(label, f"torn journaled run exited {rc}")
            return
        types = segment_types(journal)
        if types[:4] != [META, METHOD_TABLE, CHECKPOINT, COMMIT] or \
                DELTA not in types[4:] or CLOSE in types:
            fail(label, "torn journal is not a mid-run compacted file with "
                        f"Deltas after its Checkpoint (segment types "
                        f"{types[:6]}, {types.count(DELTA)} Delta(s)); "
                        f"pick another --tear-seed for {workload}")
            return
        rc, out, err = recover(djxperf, journal)
        last_round = parse_last_round(err)
        if rc != 0 or last_round is None:
            fail(label, f"recover exited {rc}: {err.strip()}")
            return
        if matches_reference(label, djxperf, workload, jobs, out,
                             last_round):
            ok(label, f"torn at round {last_round}, "
                      f"{types.count(DELTA)} Delta(s) after a mid-run "
                      f"Checkpoint; salvaged report == --max-rounds "
                      f"reference")


def fault_campaign(djxperf, workload, jobs, seed):
    """Journal I/O faults must never fail the run, and recover must
    salvage whatever survived without crashing."""
    plans = [
        ("journal-short=0.05", "torn tail"),
        ("journal-error=0.3", "transient write errors"),
        ("journal-corrupt=0.01", "corrupt bits"),
    ]
    for i, (rate, what) in enumerate(plans):
        label = f"fault:{rate.split('=')[0]}"
        with tempfile.TemporaryDirectory() as td:
            journal = os.path.join(td, "run.djxj")
            rc, out, err = run(
                [djxperf, workload, "--jobs", str(jobs),
                 "--journal", journal, "--fault-rate", rate,
                 "--fault-seed", str(seed + i)])
            if rc != 0:
                fail(label, f"journal faults failed the run (exit {rc})")
                continue
            if report_body(out) is None:
                fail(label, "faulted run printed no report")
                continue
            rc, out, err = recover(djxperf, journal)
            if rc != 0:
                fail(label, f"recover exited {rc} after {what}")
                continue
            ok(label, f"run survived {what}; recover exited 0")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--djxperf", required=True,
                    help="path to the built djxperf binary")
    ap.add_argument("--workload", default="parallel4")
    ap.add_argument("--jobs", type=int, default=2)
    ap.add_argument("--points", type=int, default=6,
                    help="SIGKILL points spread across the run")
    ap.add_argument("--seed", type=int, default=1234,
                    help="base seed for the fault campaigns")
    ap.add_argument("--tear-rate", default="0.004",
                    help="journal-short rate of the calibrate step's tear")
    ap.add_argument("--tear-seed", type=int, default=3,
                    help="fault seed of the calibrate step's tear")
    args = ap.parse_args()

    # Calibrate: one clean journaled run measures the kill window and
    # proves the happy path (exit 0, recover reproduces it).
    with tempfile.TemporaryDirectory() as td:
        journal = os.path.join(td, "calib.djxj")
        start = time.monotonic()
        rc, out, _ = run([args.djxperf, args.workload, "--jobs",
                          str(args.jobs), "--journal", journal])
        duration = time.monotonic() - start
        if rc != 0:
            fail("calibrate", f"clean journaled run exited {rc}")
            sys.exit(1)
        rc, rec_out, _ = recover(args.djxperf, journal)
        if rc != 0 or rec_out != out:
            fail("calibrate", "recover of a complete journal did not "
                              "reproduce the run's stdout")
        else:
            ok("calibrate", f"clean round trip in {duration:.2f}s")
        types = segment_types(journal)
        if types != [META, METHOD_TABLE, CHECKPOINT, COMMIT, CLOSE]:
            fail("calibrate", "complete journal is not its one final "
                              f"Checkpoint (segment types {types[:6]})")
        else:
            ok("calibrate", "complete journal is its final Checkpoint "
                            "(compacted)")
        if os.path.exists(journal + ".tmp"):
            fail("calibrate", "clean run left " + journal + ".tmp behind")
        else:
            ok("calibrate", "no .tmp left behind")
    torn_compaction(args.djxperf, args.workload, args.jobs, args.tear_rate,
                    args.tear_seed)

    kill_campaign(args.djxperf, args.workload, args.jobs, args.points,
                  duration)
    fault_campaign(args.djxperf, args.workload, args.jobs, args.seed)

    print(f"\ncrash_matrix: {len(FAILURES)} failure(s)")
    sys.exit(1 if FAILURES else 0)


if __name__ == "__main__":
    main()

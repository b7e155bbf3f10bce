#!/usr/bin/env python3
"""Byte-identity diff of two djxperf builds over the whole workload catalog.

Usage:
  catalog_diff.py OLD_DJXPERF NEW_DJXPERF [--flags "..."]...
                  [--workload NAME]...

Runs every workload that `OLD_DJXPERF --list` prints under each flag set
at --jobs 1 and --jobs 4, once with each binary, and compares the two
runs' stdout, stderr and exit code. Each --flags value is one flag set,
split like a shell word list; an empty string is the default config.
Without --flags the sets are the ones every behaviour-preserving change
is checked against: default, --no-gc-handling and --tier super.
--workload (repeatable) restricts the catalog to the named entries.
Two runs go at a time.

Exit codes:
  0  every run is byte-identical
  1  at least one run differs (each is listed), or the two binaries
     list different catalogs
  2  usage error, or OLD_DJXPERF --list failed
"""

import shlex
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

DEFAULT_FLAG_SETS = ["", "--no-gc-handling", "--tier super"]
JOBS = (1, 4)
PROCS = 2
USAGE = ('usage: catalog_diff.py OLD_DJXPERF NEW_DJXPERF [--flags "..."]... '
         '[--workload NAME]...')


def parse_list(text):
    """Workload names from `djxperf --list` lines ("<kind> <name>")."""
    names = []
    for line in text.splitlines():
        parts = line.split(None, 1)
        if len(parts) == 2:
            names.append(parts[1].strip())
    return names


def list_catalog(binary):
    out = subprocess.run([binary, "--list"], capture_output=True, text=True,
                         check=True)
    return parse_list(out.stdout)


def run_once(binary, flags, jobs, workload):
    argv = [binary] + shlex.split(flags) + ["--jobs", str(jobs), workload]
    p = subprocess.run(argv, capture_output=True)
    return p.returncode, p.stdout, p.stderr


def describe(old, new):
    parts = []
    if old[0] != new[0]:
        parts.append(f"exit {old[0]} -> {new[0]}")
    if old[1] != new[1]:
        parts.append("stdout differs")
    if old[2] != new[2]:
        parts.append("stderr differs")
    return ", ".join(parts)


def parse_args(argv):
    positional, flag_sets, workloads = [], [], []
    i = 0
    while i < len(argv):
        a = argv[i]
        if a in ("--flags", "--workload"):
            if i + 1 >= len(argv):
                raise ValueError(f"{a} needs a value")
            (flag_sets if a == "--flags" else workloads).append(argv[i + 1])
            i += 2
        elif a.startswith("--"):
            raise ValueError(f"unknown option {a}")
        else:
            positional.append(a)
            i += 1
    if len(positional) != 2:
        raise ValueError("need OLD_DJXPERF and NEW_DJXPERF")
    return (positional[0], positional[1], flag_sets or DEFAULT_FLAG_SETS,
            workloads)


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        old_bin, new_bin, flag_sets, only = parse_args(argv)
    except ValueError as err:
        print(f"catalog_diff: {err}\n{USAGE}", file=sys.stderr)
        return 2
    try:
        catalog = list_catalog(old_bin)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"catalog_diff: {old_bin} --list failed: {err}",
              file=sys.stderr)
        return 2
    try:
        new_catalog = list_catalog(new_bin)
    except (OSError, subprocess.CalledProcessError):
        new_catalog = None
    if new_catalog != catalog:
        print("catalog_diff: the two binaries list different catalogs")
        return 1
    if only:
        missing = [w for w in only if w not in catalog]
        if missing:
            print(f"catalog_diff: not in the catalog: {', '.join(missing)}",
                  file=sys.stderr)
            return 2
        catalog = [w for w in catalog if w in only]

    runs = [(flags, jobs, w) for flags in flag_sets for w in catalog
            for jobs in JOBS]

    def compare(run):
        flags, jobs, w = run
        return describe(run_once(old_bin, flags, jobs, w),
                        run_once(new_bin, flags, jobs, w))

    with ThreadPoolExecutor(max_workers=PROCS) as pool:
        verdicts = list(pool.map(compare, runs))

    differing = 0
    for (flags, jobs, w), verdict in zip(runs, verdicts):
        if verdict:
            differing += 1
            print(f"DIFF [{flags or 'default'}] --jobs {jobs} {w}: "
                  f"{verdict}")
    print(f"catalog_diff: {len(runs)} runs, {differing} differing")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())

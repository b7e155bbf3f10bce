#!/usr/bin/env python3
"""Perf-trajectory diff and regression gate for BENCH_*.json artifacts.

Usage:
  perf_diff.py PREVIOUS.json CURRENT.json
  perf_diff.py --gate GATES.json PREVIOUS.json CURRENT.json

Both modes compare every numeric "per_sec" leaf shared by the two files
and print a markdown table of the ratios (current / previous), suitable
for $GITHUB_STEP_SUMMARY.

Without --gate the script is a pure annotation and always exits 0.

With --gate it enforces per-metric tolerance bands from GATES.json (see
bench/perf_gates.json):

  {
    "default_tolerance_pct": 40,
    "metrics":  { "<fnmatch pattern>": { "tolerance_pct": 50 }, ... },
    "required": [ "<fnmatch pattern>", ... ]
  }

A metric regresses when current < previous * (1 - tolerance/100); the
first "metrics" pattern matching the dotted path supplies the band, else
default_tolerance_pct. A band with "better": "lower" (sizes, costs)
regresses the other way: when current > previous * (1 + tolerance/100). A metric present in PREVIOUS that matches a
"required" pattern must still exist in CURRENT (a vanished metric is a
silent way to dodge its band). Improvements and brand-new metrics never
fail.

Exit codes:
  0  pass (including the bootstrap case: PREVIOUS missing or unreadable)
  1  gate breach: at least one regression or vanished required metric
  2  usage/config error: bad arguments, malformed GATES.json, or a
     malformed/unreadable CURRENT.json while gating
"""

import fnmatch
import json
import sys


def leaves(node, prefix=""):
    """Yields (dotted-path, value) for every numeric per_sec-ish leaf."""
    if isinstance(node, dict):
        for key, value in node.items():
            path = f"{prefix}.{key}" if prefix else key
            if isinstance(value, (int, float)) and (
                key.endswith("per_sec") or key.startswith("per_sec")
            ):
                yield path, float(value)
            else:
                yield from leaves(value, path)


def load_metrics(path):
    """Returns {dotted-path: value} for a bench JSON file; raises on error."""
    with open(path) as f:
        return {
            p: v for p, v in leaves(json.load(f))
            # Ratios and frozen baselines aren't throughputs; skip them.
            if not p.startswith(("speedup", "baseline"))
        }


def load_gates(path):
    """Parses and validates a gates config; raises ValueError when bad."""
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        raise ValueError("gates config must be a JSON object")
    gates = {
        "default_tolerance_pct": doc.get("default_tolerance_pct", 40.0),
        "metrics": doc.get("metrics", {}),
        "required": doc.get("required", []),
    }
    if not isinstance(gates["default_tolerance_pct"], (int, float)):
        raise ValueError("default_tolerance_pct must be a number")
    if not isinstance(gates["metrics"], dict):
        raise ValueError('"metrics" must be an object of pattern -> band')
    for pattern, band in gates["metrics"].items():
        if not isinstance(band, dict) or not isinstance(
            band.get("tolerance_pct"), (int, float)
        ):
            raise ValueError(
                f'metric band "{pattern}" needs a numeric tolerance_pct'
            )
        if band.get("better", "higher") not in ("higher", "lower"):
            raise ValueError(
                f'metric band "{pattern}": "better" must be "higher" or '
                f'"lower"'
            )
    if not isinstance(gates["required"], list):
        raise ValueError('"required" must be a list of patterns')
    return gates


def band_for(path, gates):
    """(tolerance pct, lower_is_better) for a metric: first matching
    pattern wins."""
    for pattern in sorted(gates["metrics"]):
        if fnmatch.fnmatch(path, pattern):
            band = gates["metrics"][pattern]
            return (float(band["tolerance_pct"]),
                    band.get("better", "higher") == "lower")
    return float(gates["default_tolerance_pct"]), False


def evaluate_gate(prev, cur, gates):
    """Applies the bands. Returns (failures, rows).

    failures: list of human-readable breach descriptions (empty = pass).
    rows: (path, prev, cur, ratio, tolerance_pct, ok) per shared metric,
    for the annotation table.
    """
    failures = []
    rows = []
    for path in sorted(set(prev) & set(cur)):
        p, c = prev[path], cur[path]
        tol, lower = band_for(path, gates)
        if lower:
            ceiling = p * (1.0 + tol / 100.0)
            ok = c <= ceiling or p <= 0
        else:
            floor = p * (1.0 - tol / 100.0)
            ok = c >= floor or p <= 0
        ratio = c / p if p else float("nan")
        rows.append((path, p, c, ratio, tol, ok))
        if ok:
            continue
        if lower:
            failures.append(
                f"{path}: {c:,.2f} is above the band "
                f"({p:,.2f} previous, +{tol:.0f}% tolerance "
                f"=> ceiling {ceiling:,.2f})"
            )
        else:
            failures.append(
                f"{path}: {c:,.0f}/s is below the band "
                f"({p:,.0f}/s previous, -{tol:.0f}% tolerance "
                f"=> floor {floor:,.0f}/s)"
            )
    for path in sorted(set(prev) - set(cur)):
        if any(fnmatch.fnmatch(path, r) for r in gates["required"]):
            failures.append(
                f"{path}: present in previous run but missing from the "
                f"current one (required metrics may not vanish)"
            )
    return failures, rows


def print_table(rows, gated):
    title = "Perf gate" if gated else "Perf trajectory (record-only)"
    print(f"### {title}")
    print()
    if gated:
        print("| metric | previous | current | ratio | band | ok |")
        print("|---|---:|---:|---:|---:|:--|")
        for path, p, c, ratio, tol, ok in rows:
            mark = "yes" if ok else "**FAIL**"
            print(
                f"| `{path}` | {p:,.0f} | {c:,.0f} | x{ratio:.2f} "
                f"| -{tol:.0f}% | {mark} |"
            )
    else:
        print("| metric | previous | current | ratio |")
        print("|---|---:|---:|---:|")
        for path, p, c, ratio, _tol, _ok in rows:
            print(f"| `{path}` | {p:,.0f} | {c:,.0f} | x{ratio:.2f} |")


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    gates_path = None
    if argv and argv[0] == "--gate":
        if len(argv) < 2:
            print("perf_diff: --gate needs a config path", file=sys.stderr)
            return 2
        gates_path = argv[1]
        argv = argv[2:]
    if len(argv) != 2:
        print(
            f"usage: perf_diff.py [--gate GATES.json] PREVIOUS.json "
            f"CURRENT.json",
            file=sys.stderr,
        )
        return 2 if gates_path else 0

    gates = None
    if gates_path:
        try:
            gates = load_gates(gates_path)
        except (OSError, ValueError) as err:
            print(f"perf_diff: bad gates config: {err}", file=sys.stderr)
            return 2

    # A missing or unreadable PREVIOUS is the bootstrap case (first run on
    # a branch, expired artifact): nothing to compare against, pass.
    try:
        prev = load_metrics(argv[0])
    except (OSError, ValueError) as err:
        print(f"perf_diff: no previous run to compare against ({err}); "
              f"passing", file=sys.stderr)
        return 0

    try:
        cur = load_metrics(argv[1])
    except (OSError, ValueError) as err:
        print(f"perf_diff: cannot read current results ({err})",
              file=sys.stderr)
        # When gating, an unreadable current file must not pass silently.
        return 2 if gates else 0

    if gates is None:
        shared = sorted(set(prev) & set(cur))
        rows = [
            (p, prev[p], cur[p],
             cur[p] / prev[p] if prev[p] else float("nan"), 0.0, True)
            for p in shared
        ]
        if not rows:
            print("perf_diff: no shared per_sec metrics", file=sys.stderr)
            return 0
        print_table(rows, gated=False)
        return 0

    failures, rows = evaluate_gate(prev, cur, gates)
    if rows or failures:
        print_table(rows, gated=True)
    else:
        print("perf_diff: no shared per_sec metrics", file=sys.stderr)
    for failure in failures:
        print(f"perf_diff: GATE FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

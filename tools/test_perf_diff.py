#!/usr/bin/env python3
"""Unit tests for tools/perf_diff.py (run by ctest as `perf_diff_test`).

Uses the stdlib unittest runner — the container has no pytest — and
imports perf_diff as a module, exercising both the pure band math
(evaluate_gate) and the CLI entry point's exit-code contract against
temp-file fixtures.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import perf_diff  # noqa: E402


def gates(default=50.0, metrics=None, required=None):
    return {
        "default_tolerance_pct": default,
        "metrics": metrics or {},
        "required": required or [],
    }


class LeafExtractionTest(unittest.TestCase):
    def test_nested_per_sec_leaves_get_dotted_paths(self):
        doc = {
            "steps_per_sec": {"jobs1": {"per_sec": 100, "steps": 5}},
            "interp_steps_per_sec": {"per_sec": 7.0},
            "seconds": 1.25,
        }
        self.assertEqual(
            dict(perf_diff.leaves(doc)),
            {
                "steps_per_sec.jobs1.per_sec": 100.0,
                "interp_steps_per_sec.per_sec": 7.0,
            },
        )

    def test_speedup_and_baseline_paths_are_skipped(self):
        doc = {
            "speedup": {"per_sec": 3.0},
            "baseline_frozen": {"per_sec": 9.0},
            "real": {"per_sec": 4.0},
        }
        with tempfile.NamedTemporaryFile("w", suffix=".json",
                                         delete=False) as f:
            json.dump(doc, f)
            path = f.name
        try:
            self.assertEqual(perf_diff.load_metrics(path),
                             {"real.per_sec": 4.0})
        finally:
            os.unlink(path)


class BandMathTest(unittest.TestCase):
    def test_within_band_passes(self):
        prev = {"m.per_sec": 100.0}
        cur = {"m.per_sec": 60.0}  # -40% against a 50% band.
        failures, rows = perf_diff.evaluate_gate(prev, cur, gates(50.0))
        self.assertEqual(failures, [])
        self.assertTrue(rows[0][5])

    def test_below_band_fails(self):
        prev = {"m.per_sec": 100.0}
        cur = {"m.per_sec": 49.0}  # Below the 50% floor.
        failures, rows = perf_diff.evaluate_gate(prev, cur, gates(50.0))
        self.assertEqual(len(failures), 1)
        self.assertIn("m.per_sec", failures[0])
        self.assertFalse(rows[0][5])

    def test_exact_floor_passes(self):
        failures, _ = perf_diff.evaluate_gate(
            {"m.per_sec": 100.0}, {"m.per_sec": 50.0}, gates(50.0))
        self.assertEqual(failures, [])

    def test_improvement_never_fails(self):
        failures, _ = perf_diff.evaluate_gate(
            {"m.per_sec": 100.0}, {"m.per_sec": 1000.0}, gates(1.0))
        self.assertEqual(failures, [])

    def test_per_metric_pattern_overrides_default(self):
        g = gates(90.0, metrics={"hot.*": {"tolerance_pct": 10}})
        failures, _ = perf_diff.evaluate_gate(
            {"hot.per_sec": 100.0, "cold.per_sec": 100.0},
            {"hot.per_sec": 85.0, "cold.per_sec": 85.0},
            g,
        )
        # Only the tight hot.* band trips; cold rides the loose default.
        self.assertEqual(len(failures), 1)
        self.assertIn("hot.per_sec", failures[0])

    def test_lower_is_better_band_fails_on_growth(self):
        g = gates(50.0, metrics={
            "size.*": {"tolerance_pct": 2, "better": "lower"}})
        prev = {"size.per_sec": 100.0}
        self.assertEqual(perf_diff.evaluate_gate(
            prev, {"size.per_sec": 102.0}, g)[0], [])
        self.assertEqual(perf_diff.evaluate_gate(
            prev, {"size.per_sec": 10.0}, g)[0], [])  # Shrinking is fine.
        failures, rows = perf_diff.evaluate_gate(
            prev, {"size.per_sec": 103.0}, g)
        self.assertEqual(len(failures), 1)
        self.assertIn("above the band", failures[0])
        self.assertFalse(rows[0][5])

    def test_zero_previous_is_not_a_division_trap(self):
        failures, rows = perf_diff.evaluate_gate(
            {"m.per_sec": 0.0}, {"m.per_sec": 0.0}, gates(50.0))
        self.assertEqual(failures, [])
        self.assertTrue(rows[0][5])

    def test_required_metric_vanishing_fails(self):
        g = gates(50.0, required=["steps_per_sec.*"])
        failures, _ = perf_diff.evaluate_gate(
            {"steps_per_sec.jobs1.per_sec": 100.0}, {}, g)
        self.assertEqual(len(failures), 1)
        self.assertIn("missing", failures[0])

    def test_unrequired_metric_vanishing_passes(self):
        failures, _ = perf_diff.evaluate_gate(
            {"optional.per_sec": 100.0}, {}, gates(50.0))
        self.assertEqual(failures, [])

    def test_new_metric_in_current_is_ignored(self):
        failures, rows = perf_diff.evaluate_gate(
            {}, {"brand_new.per_sec": 5.0}, gates(50.0))
        self.assertEqual(failures, [])
        self.assertEqual(rows, [])


class GatesConfigTest(unittest.TestCase):
    def load(self, doc):
        with tempfile.NamedTemporaryFile("w", suffix=".json",
                                         delete=False) as f:
            if isinstance(doc, str):
                f.write(doc)
            else:
                json.dump(doc, f)
            path = f.name
        try:
            return perf_diff.load_gates(path)
        finally:
            os.unlink(path)

    def test_repo_gates_config_is_valid(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        g = perf_diff.load_gates(os.path.join(root, "bench",
                                              "perf_gates.json"))
        self.assertGreater(g["default_tolerance_pct"], 0)
        self.assertTrue(g["required"])

    def test_malformed_json_raises(self):
        with self.assertRaises(ValueError):
            self.load("{not json")

    def test_band_without_tolerance_raises(self):
        with self.assertRaises(ValueError):
            self.load({"metrics": {"m.*": {}}})

    def test_band_with_unknown_direction_raises(self):
        with self.assertRaises(ValueError):
            self.load({"metrics": {"m.*": {"tolerance_pct": 5,
                                           "better": "sideways"}}})

    def test_non_object_config_raises(self):
        with self.assertRaises(ValueError):
            self.load([1, 2, 3])


class CliExitCodeTest(unittest.TestCase):
    """main()'s contract, driven through temp files like CI drives it."""

    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def write(self, name, doc):
        path = os.path.join(self.dir.name, name)
        with open(path, "w") as f:
            if isinstance(doc, str):
                f.write(doc)
            else:
                json.dump(doc, f)
        return path

    def run_main(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = perf_diff.main(argv)
        return code, out.getvalue(), err.getvalue()

    def test_record_mode_always_exits_zero(self):
        prev = self.write("prev.json", {"m": {"per_sec": 100}})
        cur = self.write("cur.json", {"m": {"per_sec": 1}})
        code, out, _ = self.run_main([prev, cur])
        self.assertEqual(code, 0)
        self.assertIn("x0.01", out)

    def test_gate_mode_fails_on_regression(self):
        g = self.write("gates.json", gates(50.0))
        prev = self.write("prev.json", {"m": {"per_sec": 100}})
        cur = self.write("cur.json", {"m": {"per_sec": 10}})
        code, out, err = self.run_main(["--gate", g, prev, cur])
        self.assertEqual(code, 1)
        self.assertIn("GATE FAIL", err)
        self.assertIn("**FAIL**", out)

    def test_gate_mode_passes_within_band(self):
        g = self.write("gates.json", gates(50.0))
        prev = self.write("prev.json", {"m": {"per_sec": 100}})
        cur = self.write("cur.json", {"m": {"per_sec": 95}})
        code, _, _ = self.run_main(["--gate", g, prev, cur])
        self.assertEqual(code, 0)

    def test_missing_previous_bootstraps_to_pass(self):
        g = self.write("gates.json", gates(50.0))
        cur = self.write("cur.json", {"m": {"per_sec": 100}})
        code, _, err = self.run_main(
            ["--gate", g, os.path.join(self.dir.name, "nope.json"), cur])
        self.assertEqual(code, 0)
        self.assertIn("no previous run", err)

    def test_malformed_current_fails_config_error_when_gating(self):
        g = self.write("gates.json", gates(50.0))
        prev = self.write("prev.json", {"m": {"per_sec": 100}})
        cur = self.write("cur.json", "{broken")
        code, _, _ = self.run_main(["--gate", g, prev, cur])
        self.assertEqual(code, 2)

    def test_malformed_current_passes_in_record_mode(self):
        prev = self.write("prev.json", {"m": {"per_sec": 100}})
        cur = self.write("cur.json", "{broken")
        code, _, _ = self.run_main([prev, cur])
        self.assertEqual(code, 0)

    def test_malformed_gates_config_is_config_error(self):
        g = self.write("gates.json", "{broken")
        prev = self.write("prev.json", {"m": {"per_sec": 100}})
        cur = self.write("cur.json", {"m": {"per_sec": 100}})
        code, _, _ = self.run_main(["--gate", g, prev, cur])
        self.assertEqual(code, 2)

    def test_usage_error_while_gating(self):
        code, _, _ = self.run_main(["--gate"])
        self.assertEqual(code, 2)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Tests for tools/catalog_diff.py (run by ctest as `catalog_diff_test`).

Usage: test_catalog_diff.py DJXPERF

Diffs a two-workload subset of DJXPERF's catalog against itself (no
difference may be reported) and against stub binaries that wrap DJXPERF
but change one byte of the report or the exit code (every run must be
reported). Uses the stdlib unittest runner.
"""

import contextlib
import io
import os
import stat
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import catalog_diff  # noqa: E402

DJXPERF = None
SUBSET = ["--workload", "figure1", "--workload", "parallel2",
          "--flags", ""]


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = catalog_diff.main(argv)
    return code, out.getvalue(), err.getvalue()


class ParseTest(unittest.TestCase):
    def test_list_lines_keep_names_with_spaces(self):
        text = "case-study   FindBugs 3.0.1\nmt           parallel2\n\n"
        self.assertEqual(catalog_diff.parse_list(text),
                         ["FindBugs 3.0.1", "parallel2"])

    def test_default_flag_sets(self):
        _, _, flag_sets, only = catalog_diff.parse_args(["a", "b"])
        self.assertEqual(flag_sets, ["", "--no-gc-handling", "--tier super"])
        self.assertEqual(only, [])

    def test_usage_errors_exit_2(self):
        for argv in (["only-one"], ["a", "b", "--flags"], ["a", "b", "--x"]):
            self.assertEqual(run_main(argv)[0], 2, argv)


class CatalogDiffTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.tmp.cleanup()

    def stub(self, name, edit):
        """An executable wrapping DJXPERF whose non-`--list` runs apply
        the one-line Python statement `edit` to `out` (stdout bytes) or
        `code` (exit code) before passing them on."""
        path = os.path.join(self.tmp.name, name)
        lines = [
            f"#!{sys.executable}",
            "import subprocess, sys",
            f"p = subprocess.run([{DJXPERF!r}] + sys.argv[1:],"
            " capture_output=True)",
            "out, code = p.stdout, p.returncode",
            "if sys.argv[1:] != ['--list']:",
            f"    {edit}",
            "sys.stdout.buffer.write(out)",
            "sys.stderr.buffer.write(p.stderr)",
            "sys.exit(code)",
        ]
        with open(path, "w") as f:
            f.write("\n".join(lines) + "\n")
        os.chmod(path, os.stat(path).st_mode | stat.S_IXUSR)
        return path

    def test_binary_against_itself_is_identical(self):
        code, out, _ = run_main([DJXPERF, DJXPERF] + SUBSET)
        self.assertEqual(code, 0, out)
        self.assertIn("4 runs, 0 differing", out)

    def test_changed_report_byte_is_caught(self):
        new = self.stub("report", "out = out.replace(b'samples', b'sampleZ', 1)")
        code, out, _ = run_main([DJXPERF, new] + SUBSET)
        self.assertEqual(code, 1, out)
        self.assertIn("4 runs, 4 differing", out)
        self.assertIn("DIFF [default] --jobs 4 parallel2: stdout differs", out)

    def test_changed_exit_code_is_caught(self):
        new = self.stub("exitcode", "code = 3")
        code, out, _ = run_main([DJXPERF, new] + SUBSET)
        self.assertEqual(code, 1, out)
        self.assertIn("DIFF [default] --jobs 1 figure1: exit 0 -> 3", out)

    def test_unknown_workload_is_a_usage_error(self):
        code, _, err = run_main([DJXPERF, DJXPERF, "--workload", "nope"])
        self.assertEqual(code, 2)
        self.assertIn("not in the catalog: nope", err)


if __name__ == "__main__":
    if len(sys.argv) < 2:
        print("usage: test_catalog_diff.py DJXPERF", file=sys.stderr)
        sys.exit(2)
    DJXPERF = os.path.abspath(sys.argv.pop(1))
    unittest.main()

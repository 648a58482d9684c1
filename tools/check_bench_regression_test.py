#!/usr/bin/env python3
"""Checks check_bench_regression.py on canned google-benchmark results.

Each side of a pair names three runs; the gate compares each benchmark's
minimum over a side's runs, so one slow process cannot fail unchanged code
and one fast one cannot hide a doubled time. Run directly or through ctest
(check_bench_regression).
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "check_bench_regression.py")


class CheckBenchRegressionTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.dir.cleanup()

    def runs(self, side, times_ms):
        """Writes one JSON file per run; returns them joined by commas."""
        paths = []
        for i, t in enumerate(times_ms):
            path = os.path.join(self.dir.name, f"{side}{i}.json")
            with open(path, "w", encoding="utf-8") as f:
                json.dump({"benchmarks": [
                    {"name": "BM_Eval", "run_type": "iteration",
                     "real_time": t, "time_unit": "ms"}]}, f)
            paths.append(path)
        return ",".join(paths)

    def gate(self, head, base):
        return subprocess.run(
            [sys.executable, SCRIPT, head, base, "--max-ratio", "1.5"],
            capture_output=True, text=True).returncode

    def test_minimum_over_runs_passes_unchanged_code(self):
        # The first head process was slow (26 ms against 16 ms, 1.6x);
        # the minima are equal.
        head = self.runs("head", [26, 17, 16])
        base = self.runs("base", [16, 25, 17])
        self.assertEqual(self.gate(head, base), 0)
        self.assertEqual(self.gate(head.split(",")[0], base.split(",")[0]), 1)

    def test_minimum_over_runs_catches_a_doubled_time(self):
        # One fast head process (31 ms against a slow 25 ms base run) hides
        # most of a 2x change from a single pair; the minima do not.
        head = self.runs("head", [31, 34, 33])
        base = self.runs("base", [25, 16, 17])
        self.assertEqual(self.gate(head.split(",")[0], base.split(",")[0]), 0)
        self.assertEqual(self.gate(head, base), 1)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Checks ab_perfbench's summarizer on canned perfbench results.

Feeds summarize() hand-made result records: one metric per verdict
(REGRESSION, unresolved on either side's spread, gain, ok), then a failed
and an incorrect run, and a gain that loses pairs to failed runs.
Run directly or through ctest (ab_perfbench_summary).
"""

import io
import os
import sys
import unittest

sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import ab_perfbench  # noqa: E402

BENCH = {
    "workloads": [{"name": "w"}],
    "end_to_end": [
        {"name": "lat_ms", "better": "lower", "bound": 0.25},
        {"name": "tput_rps", "better": "higher", "bound": 0.25},
        {"name": "noisy_ms", "better": "lower", "bound": 0.25},
        {"name": "flat_ms", "better": "lower", "bound": 0.25},
    ],
}


def result(metrics, correct=True, failed=0):
    return {"correct": correct, "attempted": 1000, "failed": failed,
            "metrics": {k: {"value": v, "unit": "x"}
                        for k, v in metrics.items()}}


def records(base_fn, change_fn):
    out = []
    for i in range(ab_perfbench.PAIRS):
        for side, fn in (("base", base_fn), ("change", change_fn)):
            out.append({"workload": "w", "pair": i, "side": side,
                        "seed": i + 1, "result": result(fn(i)),
                        "error": None})
    return out


def verdicts(text):
    """metric name -> verdict, from the report's metric rows."""
    rows = {}
    for line in text.splitlines():
        fields = line.split()
        if fields and fields[0] in {m["name"] for m in BENCH["end_to_end"]}:
            rows[fields[0]] = fields[-1]
    return rows


class SummarizeTest(unittest.TestCase):
    def summarize(self, recs):
        out = io.StringIO()
        status = ab_perfbench.summarize(BENCH, recs, out)
        return status, out.getvalue()

    def test_each_verdict(self):
        def base(i):
            return {"lat_ms": 1.0 + 0.01 * i, "tput_rps": 100.0 + i,
                    "noisy_ms": 1.0 if i % 2 else 2.0,
                    "flat_ms": 1.0 + 0.001 * i}

        def change(i):
            return {"lat_ms": 1.5 + 0.01 * i,    # 50% worse: past the bound
                    "tput_rps": 150.0 + i,       # wins every pair, past IQR
                    "noisy_ms": 2.0 if i % 2 else 1.0,  # IQR/median > bound
                    # Wins half the pairs by a hair: within noise.
                    "flat_ms": 1.0 + 0.001 * i - (0.0005 if i % 2 else 0)}

        status, text = self.summarize(records(base, change))
        self.assertEqual(verdicts(text), {"lat_ms": "REGRESSION",
                                          "tput_rps": "gain",
                                          "noisy_ms": "unresolved",
                                          "flat_ms": "ok"}, text)
        self.assertEqual(status, 1, text)
        self.assertIn("10/10", text)  # tput_rps wins

    def test_erratic_change_is_unresolved(self):
        # A tight base; the change is slow in 4 of 10 runs, so its own
        # IQR/median (0.45) exceeds the bound while its median matches.
        status, text = self.summarize(records(
            lambda i: {"noisy_ms": 1.0 + 0.001 * i},
            lambda i: {"noisy_ms": 1.6 if i >= 6 else 1.0}))
        self.assertEqual(verdicts(text)["noisy_ms"], "unresolved", text)
        self.assertEqual(status, 0, text)

    def test_clear_win_resolves_a_wide_base(self):
        # Every change run beats every base run: a wide base IQR does not
        # leave the metric unresolved.
        status, text = self.summarize(records(
            lambda i: {"noisy_ms": 10.0 if i % 2 else 20.0},
            lambda i: {"noisy_ms": 1.0}))
        self.assertEqual(verdicts(text)["noisy_ms"], "gain", text)
        self.assertEqual(status, 0, text)

    def test_no_regression_passes(self):
        status, text = self.summarize(records(
            lambda i: {"lat_ms": 1.0 + 0.01 * i},
            lambda i: {"lat_ms": 1.0 + 0.01 * i}))
        self.assertEqual(verdicts(text)["lat_ms"], "ok", text)
        self.assertEqual(status, 0, text)
        self.assertTrue(text.rstrip().endswith("ab_perfbench: ok"), text)

    def test_failed_and_incorrect_runs_fail(self):
        recs = records(lambda i: {"lat_ms": 1.0}, lambda i: {"lat_ms": 1.0})
        recs[3]["result"]["failed"] = 2           # requests returned errors
        recs[6]["result"]["correct"] = False      # a response mismatched
        recs[9]["result"] = None                  # no JSON line at all
        recs[9]["error"] = "no JSON result (exit 1)"
        status, text = self.summarize(recs)
        self.assertEqual(status, 1, text)
        self.assertEqual(text.count("<- incorrect run"), 2, text)
        self.assertIn("<- no JSON result (exit 1)", text)
        # The metric still summarizes over the 7 pairs whose runs were sound
        # (equal values: no wins).
        self.assertIn("0/7", text)
        self.assertTrue(text.rstrip().endswith("ab_perfbench: FAIL"), text)

    def test_gain_needs_nine_of_ten_pairs(self):
        # The change wins every sound pair, but failed runs leave only 8 of
        # the 10 pairs: too few wins for a gain.
        recs = records(lambda i: {"lat_ms": 2.0 + 0.001 * i},
                       lambda i: {"lat_ms": 1.0 + 0.001 * i})
        recs[1]["result"]["failed"] = 1
        recs[4]["result"]["failed"] = 1
        status, text = self.summarize(recs)
        self.assertEqual(verdicts(text)["lat_ms"], "ok", text)
        self.assertIn("8/8", text)
        self.assertEqual(status, 1, text)

    def test_metric_on_one_side_only_fails(self):
        status, text = self.summarize(records(
            lambda i: {"lat_ms": 1.0, "flat_ms": 1.0},
            lambda i: {"lat_ms": 1.0}))
        self.assertEqual(status, 1, text)
        self.assertIn("flat_ms        reported by one side only", text)


if __name__ == "__main__":
    unittest.main()

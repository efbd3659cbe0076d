#!/usr/bin/env python3
"""Unit tests of the perf gate in check_perf.py: which cells it gates,
skips, fails and only flags. Stdlib unittest; run directly or via ctest
(check_perf_unit)."""

import io
import json
import os
import sys
import tempfile
import unittest
from contextlib import redirect_stdout
from types import SimpleNamespace

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_perf  # noqa: E402


def cell(name, rps, hw_threads, run_threads=None):
    config = {"hw_threads": hw_threads}
    if run_threads is not None:
        config["run_threads"] = run_threads
    return {"name": name, "requests": 1000, "wall_s": 1000 / rps,
            "requests_per_s": rps, "config": config}


class CompareCellsTest(unittest.TestCase):
    def status(self, base, cur):
        (row,) = check_perf.compare_cells({base["name"]: base},
                                          {cur["name"]: cur}, 0.15)
        return row["status"]

    def test_serial_cell_gated_across_thread_mismatch(self):
        # No run_threads in the config: a serial cell.
        self.assertEqual(self.status(cell("a", 1e6, 1), cell("a", 5e5, 4)),
                         "regression")
        self.assertEqual(self.status(cell("a", 1e6, 1, run_threads=1),
                                     cell("a", 1e6, 4, run_threads=1)), "ok")

    def test_sharded_cell_gated_on_matching_threads(self):
        self.assertEqual(self.status(cell("s", 1e6, 4, run_threads=4),
                                     cell("s", 5e5, 4, run_threads=4)),
                         "regression")


class RunGateTest(unittest.TestCase):
    def gate(self, baseline_cells, current_cells):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for label, cells in (("base", baseline_cells),
                                 ("cur", current_cells)):
                path = os.path.join(tmp, f"{label}.json")
                with open(path, "w") as f:
                    json.dump({"bench": "bench_x", "schema_version": 1,
                               "results": cells}, f)
                paths.append(path)
            args = SimpleNamespace(baseline=paths[0], current=paths[1],
                                   max_regression=0.15)
            out = io.StringIO()
            with redirect_stdout(out):
                rc = check_perf.run_gate(args)
            return rc, out.getvalue()

    def test_missing_cell_fails(self):
        rc, out = self.gate([cell("a", 1e6, 1), cell("b", 1e6, 1)],
                            [cell("a", 1e6, 1)])
        self.assertEqual(rc, 1)
        self.assertIn("b: missing from current run", out)

    def test_improvement_passes_with_note(self):
        rc, out = self.gate([cell("a", 1e6, 1)], [cell("a", 3e6, 4)])
        self.assertEqual(rc, 0)
        self.assertIn("consider refreshing the baseline", out)

    def test_serial_regression_fails_across_thread_mismatch(self):
        rc, out = self.gate([cell("a", 1e6, 1)], [cell("a", 5e5, 4)])
        self.assertEqual(rc, 1)
        self.assertIn("REGRESSION", out)

    def test_sharded_regression_skipped_across_thread_mismatch(self):
        rc, out = self.gate([cell("s", 1e6, 1, run_threads=4)],
                            [cell("s", 5e5, 4, run_threads=4)])
        self.assertEqual(rc, 0)
        self.assertIn("sharded cell(s) skipped", out)


if __name__ == "__main__":
    unittest.main()

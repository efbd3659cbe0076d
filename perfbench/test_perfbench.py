#!/usr/bin/env python3
"""Tests of the repo benchmark itself.

    python3 perfbench/test_perfbench.py

Builds the benchmark package (as run.py does), then checks that the
timing wrappers leave the simulated statistics bit-identical on every
workload, that the filter-only leg reproduces the hybrid engine's cache
counters, that the traced layers cover the run's wall time, that the
benchmark agrees with comet_sim, and that the output keeps its contract.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


class TracedRuns(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        cls.traced = {w: run.harness("run", "--workload", w, "--seed", 7,
                                     "--seconds", 0, "--trace", 1)
                      for w in run.WORKLOADS}

    def check(self, workload, name):
        checks = {c["name"]: c for c in self.traced[workload]["checks"]}
        self.assertIn(name, checks)
        self.assertTrue(checks[name]["ok"], checks[name]["detail"])

    def test_wrappers_are_transparent_on_every_workload(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.check(workload, "wrappers_transparent")
                self.assertEqual(self.traced[workload]["failed"], 0)

    def test_filter_leg_reproduces_cache_counters(self):
        self.check("tenants-hybrid", "filter_leg_matches")
        result = self.traced["tenants-hybrid"]
        (record,) = result["record"]["results"]
        self.assertEqual(result["metrics"]["hybrid.hit_rate"]["value"],
                         record["hit_rate"])

    def test_sharded_pool_matches_serial(self):
        self.check("tenants-hybrid", "pool_threads_identical")

    def test_layers_cover_the_run(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                coverage = self.traced[workload]["metrics"]["traced.coverage"]
                self.assertGreater(coverage["value"], 0.85)
                self.assertLess(coverage["value"], 1.1)

    def test_per_layer_names_match_benchmark_json(self):
        want = [m["name"] for m in SPEC["per_layer"]]
        for workload in run.WORKLOADS:
            self.assertEqual(list(self.traced[workload]["metrics"]), want)


class Contract(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_stats_equal_comet_sim(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                ok, detail = run.cross_check(workload, 3)
                self.assertTrue(ok, detail)

    def test_output_contract(self):
        proc = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload",
             "chase-flat", "--seed", "42", "--seconds", "1", "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            cwd=run.ROOT, check=True)
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(last), {"correct", "attempted", "failed",
                                     "metrics"})
        self.assertTrue(last["correct"])
        self.assertGreaterEqual(last["attempted"], 1)
        self.assertEqual(last["failed"], 0)
        self.assertEqual(list(last["metrics"]),
                         [m["name"] for m in SPEC["end_to_end"]])
        for metric in last["metrics"].values():
            self.assertGreater(metric["value"], 0)

    def test_fails_without_the_simulator_sources(self):
        bare = run.ROOT / ".bench_build" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(SPEC["command"] + ["--workload", "chase-flat",
                                                 "--seed", "1", "--seconds",
                                                 "1", "--trace", "0"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, cwd=bare,
                              timeout=180)
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Smoke test of the repo benchmark.

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json for one short second, untraced and
traced, through perfbench/run.py. Checks that each run exits 0, that its last
line has exactly the result keys, that every metric BENCHMARK.json names is
printed with its unit, and that no op failed (failed_frac 0). Also checks that
the benchmark refuses to run, without printing a result, from a directory
holding only BENCHMARK.json and perfbench/.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "1"


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", SECONDS,
         "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_every_workload_prints_every_metric(self):
        for w in self.spec["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    r = run_bench(ROOT, w["name"], trace)
                    self.assertEqual(r.returncode, 0, r.stderr[-2000:])
                    lines = r.stdout.strip().splitlines()
                    result = json.loads(lines[-1])
                    report = json.loads(lines[-2])["report"]
                    self.assertEqual(
                        set(result),
                        {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(report["failed_frac"], 0.0)
                    for m in self.spec[key]:
                        got = result["metrics"].get(m["name"])
                        self.assertIsNotNone(got, m["name"])
                        self.assertEqual(got["unit"], m["unit"], m["name"])
                        self.assertIsInstance(got["value"], (int, float))
                    self.assertEqual(set(result["metrics"]),
                                     {m["name"] for m in self.spec[key]})
                    for stamp in ("isa", "intra_op_threads",
                                  "inter_op_threads", "nproc", "seed",
                                  "commit"):
                        self.assertIn(stamp, report["config"])

    def test_refuses_without_sources(self):
        build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
        iso = os.path.join(ROOT, build, "smoke_isolated")
        shutil.rmtree(iso, ignore_errors=True)
        os.makedirs(iso)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), iso)
            shutil.copytree(HERE, os.path.join(iso, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            r = run_bench(iso, self.spec["workloads"][0]["name"], 0)
            self.assertNotEqual(r.returncode, 0)
            self.assertEqual(r.stdout.strip(), "")
        finally:
            shutil.rmtree(iso, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()

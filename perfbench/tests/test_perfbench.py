#!/usr/bin/env python3
"""The benchmark's own tests, at tiny scale.

    python3 perfbench/tests/test_perfbench.py

Builds the benchmark like perfbench/run.py does (into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), then checks:
  * every workload, untraced and traced, emits exactly the metrics
    BENCHMARK.json names, with their units, and verifies its responses;
  * a corrupted reference score makes the run report error_rate > 0,
    mark the result incorrect and exit nonzero;
  * the Poisson and Zipf schedules are identical for one seed and differ
    for another.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402  (perfbench/run.py)

WORKLOADS = ["serve-sparse", "serve-batch", "refresh-under-load"]


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            cls.spec = json.load(f)
        cls.out = tempfile.mkdtemp(dir=run.build_dir())

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.out, ignore_errors=True)

    def bench(self, *args):
        return subprocess.run(
            [self.binary, "--scale", "tiny", "--out-dir", self.out] +
            list(args), capture_output=True, text=True, timeout=170)

    def test_every_metric_is_emitted(self):
        for workload in WORKLOADS:
            for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = self.bench("--workload", workload, "--seed", "3",
                                      "--seconds", "2", "--trace", trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(
                        sorted(result), ["attempted", "correct", "failed",
                                         "metrics"])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    expected = {m["name"]: m["unit"]
                                for m in self.spec[section]}
                    got = {name: m["unit"]
                           for name, m in result["metrics"].items()}
                    self.assertEqual(got, expected)

    def test_corrupted_reference_is_caught(self):
        proc = self.bench("--workload", "serve-sparse", "--seed", "3",
                          "--seconds", "2", "--trace", "0",
                          "--corrupt-reference")
        self.assertNotEqual(proc.returncode, 0)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        error_rate = [float(line.split()[1]) for line in lines
                      if line.startswith("error_rate ")]
        self.assertEqual(len(error_rate), 1)
        self.assertGreater(error_rate[0], 0.0)

    def test_schedules_are_deterministic(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = self.bench("--workload", workload, "--seed", "7",
                                   "--print-schedule")
                again = self.bench("--workload", workload, "--seed", "7",
                                   "--print-schedule")
                other = self.bench("--workload", workload, "--seed", "8",
                                   "--print-schedule")
                for proc in (first, again, other):
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                self.assertGreater(len(first.stdout.splitlines()), 100)
                self.assertEqual(first.stdout, again.stdout)
                self.assertNotEqual(first.stdout, other.stdout)


if __name__ == "__main__":
    unittest.main()

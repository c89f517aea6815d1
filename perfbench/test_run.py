#!/usr/bin/env python3
"""The benchmark's own test: every workload at smoke size, plus bad input.

Run from the repository root (builds .bench_build/ on first use):

    python3 perfbench/test_run.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(args):
    return subprocess.run(RUN + args, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, cwd=ROOT,
                          timeout=300)


class SmokeTest(unittest.TestCase):
    def check_result(self, done, metrics):
        self.assertEqual(done.returncode, 0, done.stderr)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"], done.stderr)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in metrics})
        for metric in metrics:
            value = result["metrics"][metric["name"]]
            self.assertEqual(value["unit"], metric["unit"])
            self.assertIsInstance(value["value"], (int, float))
            # Printed by name with its unit on a line of its own, too.
            self.assertTrue(any(line.split()[:1] == [metric["name"]] and
                                line.split()[-1] == metric["unit"]
                                for line in lines[:-1]), metric["name"])
        ratio = [line.split() for line in lines
                 if line.split()[:1] == ["failed_op_ratio"]]
        self.assertEqual(len(ratio), 1)
        self.assertEqual(float(ratio[0][1]), 0.0)
        self.assertEqual(ratio[0][2], "fraction")

    def test_every_workload_end_to_end(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_result(
                    run(["--workload", workload, "--seed", "3", "--seconds",
                         "1", "--trace", "0", "--smoke"]),
                    SPEC["end_to_end"])

    def test_every_workload_traced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_result(
                    run(["--workload", workload, "--seed", "1", "--seconds",
                         "1", "--trace", "1", "--smoke"]),
                    SPEC["per_layer"])


class BadInputTest(unittest.TestCase):
    def assert_refused(self, done):
        self.assertNotEqual(done.returncode, 0)
        self.assertGreater(done.returncode, 0, "killed by a signal")
        self.assertIn("seed", done.stderr + done.stdout)
        self.assertNotIn("Traceback", done.stderr)

    def test_bad_seed(self):
        for seed in ["-1", "x7", ""]:
            with self.subTest(seed=seed):
                self.assert_refused(run(["--workload", "steps", "--seed",
                                         seed, "--smoke"]))

    def test_unknown_argument(self):
        done = run(["--workload", "steps", "--seed", "1", "--speed", "2"])
        self.assertEqual(done.returncode, 2)
        self.assertIn("--speed", done.stderr)
        self.assertNotIn("Traceback", done.stderr)

    def test_binary_refuses_bad_arguments(self):
        binary = os.path.join(ROOT, ".bench_build", "perfbench")
        if not os.path.exists(binary):
            self.skipTest("perfbench not built yet")
        for args in (["--workload", "steps", "--seed", "1e3"],
                     ["--workload", "nope", "--seed", "1", "--mode", "run"],
                     ["--bogus", "1"]):
            with self.subTest(args=args):
                done = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                                      stderr=subprocess.PIPE, text=True)
                self.assertEqual(done.returncode, 2)
                self.assertIn("perfbench:", done.stderr)
                self.assertEqual(done.stdout, "")

    def test_compare_refuses_other_hosts(self):
        def record(cpu):
            return "record " + json.dumps({
                "workload": "steps", "trace": 0,
                "fingerprint": {"cores": 4, "cpu_model": cpu,
                                "compiler": "GNU 12", "build_type": "Release"},
                "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}) + "\n"

        with tempfile.TemporaryDirectory() as tmp:
            paths = [os.path.join(tmp, name) for name in ("a", "b")]
            for path, cpu in zip(paths, ("cpu-a", "cpu-b")):
                with open(path, "w") as f:
                    f.write(record(cpu))
            done = run(["--compare"] + paths)
        self.assertEqual(done.returncode, 3)
        self.assertIn("not comparable", done.stdout)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Tests of the benchmark's own helpers.

    python3 perfbench/test_perfbench.py

Builds perfbench and perfbench_test into the benchmark's build
directory, runs the C++ helper tests, and checks that the metrics the
binary prints are exactly those BENCHMARK.json lists.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build(run.build_dir())
        jobs = str(len(os.sched_getaffinity(0)))
        subprocess.run(["cmake", "--build", run.build_dir(), "-j", jobs,
                        "--target", "perfbench_test"],
                       stdout=sys.stderr, check=True)
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)

    def test_helpers(self):
        res = subprocess.run(
            [os.path.join(run.build_dir(), "perfbench_test")],
            capture_output=True, text=True)
        self.assertEqual(res.returncode, 0, res.stdout + res.stderr)

    def test_metric_names_match_benchmark_json(self):
        out = subprocess.run([self.binary, "--list-metrics"],
                             capture_output=True, text=True,
                             check=True).stdout
        printed = {"end_to_end": [], "per_layer": []}
        for line in out.splitlines():
            kind, name, unit = line.split()
            printed[kind].append((name, unit))
        for kind in ("end_to_end", "per_layer"):
            listed = [(m["name"], m["unit"]) for m in self.bench[kind]]
            self.assertEqual(printed[kind], listed, kind)

    def test_workloads_match_benchmark_json(self):
        names = [w["name"] for w in self.bench["workloads"]]
        self.assertEqual(names, ["sweep-wide", "sweep-narrow-mapped",
                                 "serve-fleet"])

    def test_bad_arguments_exit_nonzero_without_a_result(self):
        res = subprocess.run([self.binary, "--workload", "nope", "--seed",
                              "1", "--seconds", "1", "--trace", "0",
                              "--work-dir", run.build_dir(), "--references",
                              os.path.join(run.HERE, "references.txt")],
                             capture_output=True, text=True)
        self.assertNotEqual(res.returncode, 0)
        self.assertEqual(res.stdout, "")


if __name__ == "__main__":
    unittest.main()

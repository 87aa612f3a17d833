#!/usr/bin/env python3
"""Smoke test of the xtv benchmark: toy-size runs of every workload.

Run from the repository root:  python3 perfbench/test_smoke.py

Each workload runs once untraced and once traced in --smoke mode (60-net
designs, two served jobs). The test checks that the last stdout line parses
as the result JSON, that every metric BENCHMARK.json names is emitted with
its unit, that every name matches [A-Za-z0-9_.-]+, and that the run's own
correctness checks passed.
"""
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def smoke_run(workload, trace):
    got = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if got.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{got.returncode}:\n{got.stderr[-2000:]}")
    lines = got.stdout.strip().splitlines()
    return json.loads(lines[-1])


class SmokeTest(unittest.TestCase):
    def test_every_metric_is_emitted(self):
        spec = load_spec()
        for workload in [w["name"] for w in spec["workloads"]]:
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result = smoke_run(workload, trace)
                    self.assertEqual(
                        sorted(result),
                        ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(result["correct"], result)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    metrics = result["metrics"]
                    for name in metrics:
                        self.assertRegex(name, NAME)
                    expected = {m["name"]: m["unit"] for m in spec[group]}
                    self.assertEqual(set(metrics), set(expected))
                    for name, unit in expected.items():
                        self.assertEqual(metrics[name]["unit"], unit, name)
                        self.assertIsInstance(metrics[name]["value"],
                                              (int, float), name)


if __name__ == "__main__":
    unittest.main()

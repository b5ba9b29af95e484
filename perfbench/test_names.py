#!/usr/bin/env python3
"""Self-test: the workload and metric names (and units) the harness
prints are exactly those BENCHMARK.json declares, and every declared
metric has the keys the benchmark contract requires.

    python3 perfbench/test_names.py      (from the root of a checkout)
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class Names(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        cls.declared = run.declared()
        cls.printed = run.harness_names()

    def test_workloads(self):
        self.assertEqual(self.printed[0], self.declared[0])

    def test_end_to_end(self):
        self.assertEqual(self.printed[1], self.declared[1])

    def test_per_layer(self):
        self.assertEqual(self.printed[2], self.declared[2])

    def test_spec_shape(self):
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))


if __name__ == "__main__":
    unittest.main()

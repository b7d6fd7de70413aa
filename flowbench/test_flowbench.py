#!/usr/bin/env python3
"""Tests of the benchmark itself, on small versions of its workloads.

    python3 flowbench/test_flowbench.py

Checks that every metric named in BENCHMARK.json is printed with its unit,
and that each correctness check fires on an injected bad case. Builds the
benchmark binary first if needed (same build tree as run.py).
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

# Small versions: the same generators and flow at a few thousand cells.
SMALL = ["--cells", "3000", "--windows", "8", "--seconds", "1"]


def bench(workload, trace=0, inject=None, seed=3):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)] + SMALL
    if inject:
        cmd += ["--inject", inject]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise AssertionError("run.py failed:\n" + proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class MetricsPrinted(unittest.TestCase):
    def check(self, trace, section):
        wanted = {m["name"]: m["unit"] for m in spec()[section]}
        for w in spec()["workloads"]:
            with self.subTest(workload=w["name"]):
                result, _ = bench(w["name"], trace=trace)
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                got = result["metrics"]
                self.assertEqual(set(got), set(wanted))
                for name, unit in wanted.items():
                    self.assertEqual(got[name]["unit"], unit, name)
                    self.assertIsInstance(got[name]["value"], (int, float))

    def test_end_to_end(self):
        self.check(0, "end_to_end")

    def test_per_layer(self):
        self.check(1, "per_layer")


class ChecksFire(unittest.TestCase):
    def fires(self, workload, inject, check, trace=0, incorrect=True):
        result, err = bench(workload, trace=trace, inject=inject)
        self.assertEqual(result["correct"], not incorrect, inject)
        self.assertGreaterEqual(result["failed"], 1, inject)
        self.assertIn("'%s'" % check, err)

    def test_cell_off_its_row_is_illegal(self):
        self.fires("flow50k_t1", "offrow", "legal")

    def test_written_pl_must_read_back(self):
        self.fires("flow50k_t1", "plmismatch", "pl_readback_hpwl")

    def test_gp_must_converge(self):
        # A GP stopped at its iteration cap fails the operation; the legal
        # placement it hands on is still a correct output.
        self.fires("flow50k_t1", "notconverged", "gp_converged",
                   incorrect=False)

    def test_frozen_cell_nudged_during_eco(self):
        self.fires("eco_peko50k_t1", "frozen", "eco_frozen_unchanged")

    def test_ratio_below_certified_optimum(self):
        self.fires("eco_peko50k_t1", "ratio", "hpwl_ratio_ge_1")

    def test_traced_output_must_equal_untraced(self):
        self.fires("flow50k_t1", "tracediff", "traced_equals_untraced",
                   trace=1)


class BareDirectory(unittest.TestCase):
    def test_fails_without_the_sources(self):
        """Without the repository's sources the build fails, and the run
        exits non-zero without printing a result."""
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "flowbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "flowbench/run.py", "--workload",
                 "flow50k_t1", "--seed", "3", "--seconds", "1", "--trace",
                 "0"], cwd=tmp, capture_output=True, text=True, timeout=170)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Smoke self-test of the benchmark at a tiny shape: every workload,
untraced and traced, through perfbench/run.py.

    python3 perfbench/test_smoke.py

Checks the result line's shape and the output checks, that every metric
of BENCHMARK.json is reported with a finite value, and that the
untraced run, the traced replay and the distributed run of one seed
agree on the report digest.
"""

import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run  # noqa: E402

TINY = ["--chains", "3", "--slots", "40", "--seconds", "0.1"]


def bench(workload, trace, seed=5):
    res = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--trace", str(trace), *TINY],
        capture_output=True, text=True, timeout=300)
    if res.returncode != 0:
        raise AssertionError(f"{workload} trace {trace} failed:\n"
                             + res.stderr)
    result = json.loads(res.stdout.strip().splitlines()[-1])
    out = os.path.join(run.BUILD_ROOT, "out",
                       f"{workload}-seed{seed}-trace{trace}")
    with open(os.path.join(out, "result.json")) as f:
        record = json.load(f)
    return result, record, out


class Smoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def check(self, workload, trace):
        result, record, out = bench(workload, trace)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], record)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(
            {k: v["unit"] for k, v in result["metrics"].items()},
            run.expected_metrics(trace))
        for name, m in result["metrics"].items():
            self.assertTrue(math.isfinite(m["value"]), name)
            if not trace:
                self.assertGreater(m["value"], 0.0, name)
        for key in ("cpu_model", "nproc", "compiler", "build_type",
                    "git_rev", "source_sha256"):
            self.assertIn(key, record["host"])
        with open(os.path.join(out, "digest.txt")) as f:
            self.assertEqual(f.read().strip(), record["info"]["digest"])
        return record

    def test_workloads(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                untraced = self.check(workload, 0)
                traced = self.check(workload, 1)
                digest = untraced["info"]["digest_deployment0"]
                self.assertEqual(traced["info"]["digest"], digest)
                self.assertEqual(traced["info"]["traced_digest"], digest)
                with open(os.path.join(
                        run.BUILD_ROOT, "out",
                        f"{workload}-seed5-trace1", "trace.json")) as f:
                    spans = json.load(f)["traceEvents"]
                names = {s["name"] for s in spans}
                self.assertTrue({"fog.setup", "fog.run", "fog.merge",
                                 "snapshot.save"} <= names, names)


if __name__ == "__main__":
    unittest.main()

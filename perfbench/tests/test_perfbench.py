#!/usr/bin/env python3
"""Smoke and negative tests of the benchmark, at toy size.

    python3 perfbench/tests/test_perfbench.py

Run from the root of a checkout. Each workload runs once untraced and
score_saturday once traced, at 4,000 lines with a low nominal rate;
each output gate is tripped on purpose (--perturb) and must fail the
run; and a directory holding only BENCHMARK.json and perfbench/ must
fail without a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN = os.path.join("perfbench", "run.py")
TOY = ["--seconds", "1", "--lines", "4000", "--score-rate", "2000"]


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def metric_names(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"] for m in json.load(f)[kind]}


def result_of(proc):
    last = proc.stdout.strip().splitlines()[-1]
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


class Smoke(unittest.TestCase):
    def check(self, workload, trace, kind):
        proc = bench("--workload", workload, "--seed", "3", "--trace",
                     str(trace), *TOY)
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        result = result_of(proc)
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), metric_names(kind))
        self.assertIn("stamp {", proc.stdout)
        return result, proc

    def test_retrain_untraced(self):
        result, _ = self.check("retrain_saturday", 0, "end_to_end")
        for name in metric_names("end_to_end"):
            self.assertGreater(result["metrics"][name]["value"], 0, name)

    def test_score_untraced(self):
        result, _ = self.check("score_saturday", 0, "end_to_end")
        for name in metric_names("end_to_end"):
            self.assertGreater(result["metrics"][name]["value"], 0, name)

    def test_score_traced(self):
        result, proc = self.check("score_saturday", 1, "per_layer")
        self.assertIn("self_s", proc.stderr)
        trace = os.path.join(ROOT, ".bench_build", "perfbench", "out",
                             "trace-score_saturday-seed3.json")
        with open(trace) as f:
            events = json.load(f)["traceEvents"]
        spans = [e for e in events if e["ph"] == "X"]
        self.assertTrue(spans)
        for e in spans:
            self.assertIn("parent", e["args"])
            self.assertIn("run", e["args"])
        names = {e["name"] for e in spans}
        for layer in ("dslsim.", "features.", "core.", "serve.", "spatial.",
                      "net."):
            self.assertTrue(any(n.startswith(layer) for n in names), layer)


class Gates(unittest.TestCase):
    def expect_gate(self, workload, perturb, trace="0"):
        proc = bench("--workload", workload, "--seed", "3", "--trace", trace,
                     "--perturb", perturb, *TOY)
        self.assertEqual(proc.returncode, 1, proc.stderr[-3000:])
        self.assertIn("GATE FAILED", proc.stderr)
        self.assertFalse(any(line.startswith("{")
                             for line in proc.stdout.splitlines()))

    def test_perturbed_ranking_trips(self):
        self.expect_gate("retrain_saturday", "ranking")

    def test_perturbed_score_trips(self):
        self.expect_gate("score_saturday", "score")

    def test_perturbed_cluster_ranking_trips(self):
        # The cluster leg runs in traced runs only.
        self.expect_gate("retrain_saturday", "topn", trace="1")


class BareDirectory(unittest.TestCase):
    def test_fails_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "perfbench", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("--workload", "retrain_saturday", "--seed", "1",
                         "--seconds", "5", "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertFalse(any(line.startswith("{")
                                 for line in proc.stdout.splitlines()))
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)

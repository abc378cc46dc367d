#!/usr/bin/env python3
"""The benchmark's own tests, on tiny inputs.

    python3 perfbench/tests/test_perfbench.py

Run from the root of the repository; the first run builds the benchmark.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
_cache = {}


def run(workload, trace, seed=7):
    """Runs a tiny workload once per (workload, trace, seed)."""
    key = (workload, trace, seed)
    if key not in _cache:
        res = subprocess.run(
            BENCH["command"] + ["--workload", workload, "--seed", str(seed),
                                "--seconds", "1", "--trace", str(trace), "--tiny"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = res.stdout.strip().splitlines()
        _cache[key] = (res.returncode, lines, json.loads(lines[-1]) if lines else None)
    return _cache[key]


class MetricNames(unittest.TestCase):
    """Each run emits exactly the metric names and units BENCHMARK.json
    declares: the end-to-end set untraced, the per-layer set traced."""

    def check(self, trace, declared):
        want = {m["name"]: m["unit"] for m in declared}
        for w in WORKLOADS:
            with self.subTest(workload=w, trace=trace):
                code, lines, result = run(w, trace)
                self.assertEqual(code, 0, "\n".join(lines[-20:]))
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(sorted(set(got) - set(want)), [], "undeclared metrics")
                self.assertEqual(sorted(set(want) - set(got)), [], "missing metrics")
                self.assertEqual(got, want)
                for name, m in result["metrics"].items():
                    self.assertIsInstance(m["value"], (int, float), name)

    def test_end_to_end_names_and_units(self):
        self.check(0, BENCH["end_to_end"])

    def test_per_layer_names_and_units(self):
        self.check(1, BENCH["per_layer"])

    def test_end_to_end_values_are_positive(self):
        for w in WORKLOADS:
            _, _, result = run(w, 0)
            for name, m in result["metrics"].items():
                self.assertGreater(m["value"], 0, f"{w}: {name}")


class SpanCoverage(unittest.TestCase):
    """The traced run's layer spans account for each workload's measured
    wall within 10%, and the spans are written out."""

    def test_spans_cover_measured_wall(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                _, lines, result = run(w, 1)
                metrics = result["metrics"]
                coverage = metrics["trace.coverage"]["value"]
                self.assertGreaterEqual(coverage, 0.9)
                self.assertLessEqual(coverage, 1.1)
                self.assertGreater(metrics["trace.spans"]["value"], 0)
                path = ROOT / ".bench_build" / "perfbench-traces" / f"{w}-seed7.jsonl"
                spans = [json.loads(l) for l in path.read_text().splitlines()]
                self.assertEqual(len(spans), metrics["trace.spans"]["value"])
                self.assertTrue(any(s["name"] == "bench.measure" for s in spans))


class Seeds(unittest.TestCase):
    """Counters repeat exactly for a seed, and a second seed passes every
    correctness check too."""

    COUNTERS = ("core.sweep_newton_steps.", "core.sweep_phase1_solves.",
                "core.sweep_certificate_screens.", "core.sweep_feasible_cells.",
                "core.ladder.", "sim.windows", "core.table_degraded",
                "core.table_shutdowns")

    def counters(self, result):
        return {k: v["value"] for k, v in result["metrics"].items()
                if k.startswith(self.COUNTERS)}

    def test_second_seed_is_correct(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, lines, result = run(w, 0, seed=8)
                self.assertEqual(code, 0, "\n".join(lines[-20:]))
                self.assertTrue(result["correct"])
                self.assertIn("seed 8", lines[0])

    def test_counters_repeat_for_a_seed(self):
        for w in ("design", "replay"):
            with self.subTest(workload=w):
                _, _, a = run(w, 1)
                _cache.pop((w, 1, 7))  # run the same seed again
                _, _, b = run(w, 1)
                self.assertEqual(self.counters(a), self.counters(b))
                self.assertTrue(self.counters(a))


if __name__ == "__main__":
    unittest.main(verbosity=2, argv=sys.argv[:1])

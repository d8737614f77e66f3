#!/usr/bin/env python3
"""Self-tests of the benchmark's statistics, gates and output format.

    python3 perfbench/test_run.py

Needs no build: the tests feed synthetic driver records to run.py.
"""

import json
import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def fake_record(workload, trace, requests=200):
    """A driver record with every field run.py reads, plausible values."""
    serve = workload == "serve_mix"
    latency = [1.0 + i for i in range(requests if serve else 5)]
    return {
        "workload": workload,
        "seed": 1,
        "trace": trace,
        "fingerprint": {"nproc": 4, "hardware_concurrency": 4,
                        "compiler": "GNU", "build_type": "Release",
                        "solver_threads": 4, "server_workers": 0,
                        "client_connections": 0, "threads_used": 4,
                        "inconclusive": False},
        "setup_s": [0.5, 0.4, 0.6],
        "analyze_s": [0.9, 1.1, 1.0],
        "latency_ms": latency,
        "measured_s": 10.0,
        "completed": len(latency),
        "peak_rss_mb": 50.0,
        "attempted": len(latency),
        "failed": 0,
        "gate_failures": [],
        "layer_samples": {name: [0.01, 0.02, 0.03] for name in (
            "spice.parse", "grid.tune", "grid.model_build",
            "numerics.factor", "grid_mc.run", "fea.solve", "viaarray.mc",
            "em.tree_build", "em.audit", "core.bootstrap")},
        "layer_values": {"grid_mc.trials": 300, "viaarray.trials": 300,
                         "char_cache.memory_hit": 3, "char_cache.miss": 1},
        "netlist_mb": 2.0,
    }


class StatisticsTest(unittest.TestCase):
    def test_median_odd_even_empty(self):
        self.assertEqual(run.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(run.median([4.0, 1.0, 3.0, 2.0]), 2.5)
        self.assertEqual(run.median([]), 0.0)

    def test_quartiles_match_statistics_module(self):
        values = [7.0, 1.0, 5.0, 3.0, 9.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        q1, q2, q3 = run.quartiles(values)
        self.assertEqual((q1, q2, q3),
                         tuple(statistics.quantiles(values, n=4)))
        self.assertEqual(q2, 5.5)
        self.assertEqual(run.quartiles([2.0]), (2.0, 2.0, 2.0))

    def test_relative_spread(self):
        values = [9.0, 10.0, 10.0, 10.0, 11.0]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(run.relative_spread(values), (q3 - q1) / q2)
        self.assertEqual(run.relative_spread([5.0] * 4), 0.0)

    def test_percentile_is_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(run.percentile(values, 0.9), (90, 10))
        self.assertEqual(run.percentile(values, 0.5), (50, 50))
        self.assertEqual(run.percentile([5.0], 0.9), (5.0, 0))
        self.assertEqual(run.percentile([], 0.9), (0.0, 0))

    def test_p90_needs_ten_samples_beyond(self):
        self.assertEqual(run.percentile(list(range(99)), 0.9)[1], 9)
        self.assertEqual(run.percentile(list(range(100)), 0.9)[1], 10)
        short = fake_record("serve_mix", False, requests=99)
        self.assertTrue(any("beyond latency_p90_ms" in f
                            for f in run.gates(short, False)))
        enough = fake_record("serve_mix", False, requests=100)
        self.assertEqual(run.gates(enough, False), [])


class OutputTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(run.BENCHMARK_JSON) as f:
            cls.spec = json.load(f)

    def test_every_declared_metric_is_printed_with_its_unit(self):
        for workload in run.WORKLOADS:
            for trace in (False, True):
                lines, final = run.result(fake_record(workload, trace),
                                          self.spec, trace)
                declared = (self.spec["per_layer"] if trace
                            else self.spec["end_to_end"])
                self.assertEqual(set(final),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(final["correct"], (workload, trace, lines))
                self.assertEqual([m["name"] for m in declared],
                                 list(final["metrics"]))
                for m in declared:
                    got = final["metrics"][m["name"]]
                    self.assertEqual(got["unit"], m["unit"])
                    self.assertIsInstance(got["value"], float)
                    self.assertTrue(any(
                        line.startswith("metric ") and
                        line.split()[1] == m["name"] and
                        line.split()[-1] == m["unit"] for line in lines),
                        (workload, m["name"]))
                json.loads(json.dumps(final))

    def test_failed_gate_marks_result_incorrect(self):
        record = fake_record("pg1_cold", False)
        record["gate_failures"] = ["analyze: TTF samples differ"]
        lines, final = run.result(record, self.spec, False)
        self.assertFalse(final["correct"])
        self.assertGreaterEqual(final["failed"], 1)
        self.assertIn("GATE FAILED: analyze: TTF samples differ", lines)

    def test_inconclusive_fingerprint_is_flagged(self):
        record = fake_record("pg5_warm", False)
        record["fingerprint"].update(nproc=1, inconclusive=True)
        lines, _ = run.result(record, self.spec, False)
        self.assertTrue(any(line.startswith("inconclusive:") for line in lines))

    def test_benchmark_json_contract(self):
        spec = self.spec
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertIn(m["better"], ("lower", "higher"))


if __name__ == "__main__":
    unittest.main()

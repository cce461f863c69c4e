#!/usr/bin/env python3
"""Unit tests for run.py's statistics and compare.py's verdicts.

    python3 bench/e1/test_run.py
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402

COUNTER_KEYS = [
    "trials", "windows", "publish_calls", "publish_msgs", "validate_calls",
    "rows", "delivering_rows", "splice_rows", "row_msgs", "resets",
    "crashes", "dropped", "receives", "plan_calls",
    "plan_updated", "next_calls", "next_delivers", "compute_calls",
    "compute_envelopes", "merge_calls", "lens_folds", "artifact_files",
    "artifact_bytes"]


def traced_raw():
    layers = {name: {"calls": 1, "s": 0.05}
              for name in ["bench.glue"] + run.LAYERS}
    counters = {k: 4 for k in COUNTER_KEYS}
    return {
        "model": "window", "trials_per_sweep": 4, "windows": 10,
        "deliveries": 40, "violations": 0, "missing": 0, "attempted": 8,
        "passes": [{"wall_s": 1.0, "layers": layers, "counters": counters}],
        "trial_ms": [float(v) for v in range(1, 41)],
        "untraced_s": [0.8],
        "pool": {"threads": 4, "sweep_s": [0.5, 0.4, 0.6],
                 "sweep_1thread_s": [1.5, 1.4]},
        "resume": {"cells": 3, "wall_s": 0.01},
    }


def e2e_raw():
    return {"model": "async", "trials_per_sweep": 48, "windows": 0,
            "deliveries": 1000, "violations": 1, "missing": 0,
            "attempted": 96, "sweep_s": [2.0, 4.0],
            # Set-up took 2, 2 and 3 probe units; at the reference rate
            # below a unit takes 10 ms.
            "setup_s": [1e-4, 3e-4, 1.5e-4],
            "setup_unit_s": [5e-5, 1.5e-4, 5e-5],
            "peak_rss_mb": 12.5,
            # 150 units in 3 s against 100 units/s: half reference speed.
            "probe": {"reference_rate": 100.0, "seconds": [1.0, 2.0],
                      "units": [50.0, 100.0]}}


class Stats(unittest.TestCase):
    def test_quartiles_match_statistics(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
        self.assertEqual(run.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))
        self.assertEqual(run.quartiles(values)[1], statistics.median(values))

    def test_single_sample(self):
        self.assertEqual(run.quartiles([3.5]), (3.5, 3.5, 3.5))
        self.assertEqual(run.summarize([3.5]),
                         {"median": 3.5, "q1": 3.5, "q3": 3.5, "n": 1})
        self.assertEqual(run.spread([3.5]), 0.0)
        with self.assertRaises(ValueError):
            run.quartiles([])

    def test_spread_is_iqr_over_median(self):
        values = [8.0, 9.0, 10.0, 11.0, 12.0]
        q1, med, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(run.spread(values), (q3 - q1) / med)


class Tail(unittest.TestCase):
    def test_p99_needs_ten_beyond(self):
        self.assertEqual(run.tail_percentile(range(1, 1001))[0], 99)
        self.assertEqual(run.tail_percentile(range(1, 500))[0], 95)
        self.assertEqual(run.tail_percentile(range(1, 150))[0], 90)

    def test_small_sample_falls_back_to_median(self):
        pct, value = run.tail_percentile([1.0, 2.0, 3.0, 4.0, 5.0])
        self.assertEqual((pct, value), (50, 3.0))
        self.assertEqual(run.tail_percentile([7.0]), (50, 7.0))

    def test_value_has_ten_samples_above(self):
        values = list(range(100))
        pct, q = run.tail_percentile(values)
        self.assertEqual(pct, 90)
        self.assertGreaterEqual(sum(1 for v in values if v > q), 10)


class FailedShare(unittest.TestCase):
    def test_counts_violations_and_missing(self):
        self.assertEqual(run.failed_share(2, 3, 100), 0.05)
        self.assertEqual(run.failed_share(0, 0, 7), 0.0)

    def test_needs_attempts(self):
        with self.assertRaises(ValueError):
            run.failed_share(0, 0, 0)

    def test_extras_scale_violations_by_sweeps(self):
        samples, unit = run.extras(e2e_raw())["failed_share"]
        self.assertEqual(unit, "fraction")
        self.assertEqual(samples, [2 / 96])  # 1 violation x 2 sweeps


class RunSeconds(unittest.TestCase):
    def test_read_from_benchmark_json(self):
        bench = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
        self.assertEqual(run.run_seconds(), bench["run_seconds"])

    def test_unreadable_benchmark_json_is_an_error(self):
        root = run.ROOT
        run.ROOT = HERE / "no-such-dir"
        try:
            with self.assertRaises(run.BenchError):
                run.run_seconds()
            self.assertEqual(run.main(["--workload", "async-crash"]), 2)
        finally:
            run.ROOT = root


class Metrics(unittest.TestCase):
    bench = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())

    def test_benchmark_json_lists_every_metric_with_its_unit(self):
        self.assertEqual([(m["name"], m["unit"])
                          for m in self.bench["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"])
                          for m in self.bench["per_layer"]], run.PER_LAYER)
        self.assertEqual([w["name"] for w in self.bench["workloads"]],
                         run.WORKLOADS)

    def test_end_to_end_emits_exactly_the_end_to_end_set(self):
        out = run.end_to_end(e2e_raw())
        self.assertEqual(set(out), {n for n, _ in run.END_TO_END})
        self.assertEqual(out["steps_per_ref_s"], out["deliveries_per_ref_s"])

    def test_times_are_scaled_to_reference_speed(self):
        raw = e2e_raw()
        self.assertEqual(run.host_speed(raw), 0.5)
        out = run.end_to_end(raw)
        # 96 trials in 6 s of wall time is 16/s; at half speed, 32/ref-s.
        self.assertEqual(out["trials_per_ref_s"], [32.0])
        self.assertEqual(out["deliveries_per_ref_s"], [2000 / 6 / 0.5])
        samples, unit = run.extras(raw)["trials_per_s"]
        self.assertEqual((samples, unit), ([24.0, 12.0], "trials/s"))
        self.assertEqual(run.extras(raw)["host_speed"], ([0.5], "x"))

    def test_setup_is_paired_with_its_probe_unit(self):
        raw = e2e_raw()
        # The median sample is 2 units; 2 x 10 ms on the reference host.
        self.assertAlmostEqual(run.end_to_end(raw)["setup_s"][0], 0.02)
        self.assertEqual(run.extras(raw)["setup_wall_s"], ([1.5e-4], "s"))

    def test_probe_that_never_ran_is_an_error(self):
        raw = e2e_raw()
        raw["probe"]["seconds"] = [0.0, 0.0]
        with self.assertRaises(run.BenchError):
            run.end_to_end(raw)
        raw = e2e_raw()
        raw["setup_unit_s"] = []
        with self.assertRaises(run.BenchError):
            run.end_to_end(raw)

    def test_per_layer_emits_exactly_the_per_layer_set(self):
        out = run.per_layer(traced_raw())
        self.assertEqual(set(out), {n for n, _ in run.PER_LAYER})
        self.assertAlmostEqual(out["trace.coverage"][0], 0.95)
        self.assertAlmostEqual(out["trace.overhead"][0], 0.25)
        self.assertAlmostEqual(out["util.pool.speedup"][0], 2.9)
        self.assertAlmostEqual(out["util.pool.efficiency"][0], 0.725)


class Compare(unittest.TestCase):
    def test_verdicts(self):
        a = [100.0, 101.0, 99.0, 100.5, 99.5]
        self.assertEqual(compare.verdict(a, [100.2, 99.8, 100.1, 100.0, 99.9],
                                         "higher", 0.05), "same")
        self.assertEqual(compare.verdict(a, [90.0, 91.0, 89.0, 90.5, 89.5],
                                         "higher", 0.05), "worse")
        self.assertEqual(compare.verdict(a, [110.0, 111.0, 109.0, 110.5],
                                         "higher", 0.05), "better")
        # Lower is better: a 10% drop is a gain.
        self.assertEqual(compare.verdict(a, [90.0, 91.0, 89.0, 90.5, 89.5],
                                         "lower", 0.05), "better")

    def test_wide_spread_is_unresolved(self):
        a = [100.0, 130.0, 70.0, 120.0, 80.0]
        b = [95.0, 125.0, 65.0, 115.0, 75.0]
        self.assertEqual(compare.verdict(a, b, "higher", 0.05), "unresolved")
        # ...unless every change sample beats every parent sample.
        self.assertEqual(compare.verdict(a, [200.0, 210.0, 260.0], "higher",
                                         0.05), "better")

    def doc(self, nproc, value):
        return {"fingerprint": {"nproc": nproc, "compiler": "GNU 12.2.0",
                                "build_type": "Release",
                                "threads": {"async-crash": 1}},
                "workloads": {"async-crash": {"metrics": {
                    "trials_per_s": {"samples": [value, value * 1.01]}}}}}

    def test_fingerprint_mismatch_warns_and_refuses(self):
        bench = {"end_to_end": [{"name": "trials_per_s", "better": "higher",
                                 "bound": 0.05}]}
        rows, warnings = compare.compare(self.doc(4, 100.0),
                                         self.doc(8, 50.0), bench)
        self.assertEqual(len(warnings), 1)
        self.assertIn("nproc", warnings[0])
        self.assertEqual([r[4] for r in rows], ["unresolved"])
        rows, warnings = compare.compare(self.doc(4, 100.0),
                                         self.doc(4, 50.0), bench)
        self.assertEqual((warnings, [r[4] for r in rows]), ([], ["worse"]))
        other = self.doc(4, 100.0)
        other["fingerprint"]["threads"] = {"async-crash": 4, "extra": 1}
        self.assertEqual(compare.fingerprint_mismatch(self.doc(4, 1.0), other),
                         ["threads[async-crash]: 1 vs 4"])

    def test_baseline_sets_are_pooled(self):
        base = compare.pooled({"sets": [self.doc(4, 100.0),
                                        self.doc(4, 102.0)]})
        self.assertEqual(base["fingerprint"]["nproc"], 4)
        self.assertEqual(
            base["workloads"]["async-crash"]["metrics"]["trials_per_s"]
            ["samples"], [100.0, 101.0, 102.0, 102.0 * 1.01])
        doc = self.doc(4, 1.0)
        self.assertIs(compare.pooled(doc), doc)


if __name__ == "__main__":
    unittest.main()

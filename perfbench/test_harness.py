#!/usr/bin/env python3
"""Self-tests for the benchmark harness (run.py) and mmbench's output checks.

    python3 perfbench/test_harness.py

The harness tests need nothing built. The output-check tests run the built
binary (.bench_build/mmbench, made by any run.py invocation) once per check
with that check's invariant deliberately broken, and are skipped when it
has not been built.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def load_spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def report_for(expected, n=1000, **over):
    metrics = [{"name": name, "value": 1.5, "unit": unit, "n": 0}
               for name, unit in expected]
    for m in metrics:
        if run.percentile_of(m["name"]) is not None:
            m["n"] = n
    report = {"workload": "w", "attempted": 10, "failed": 0, "checks": [],
              "metrics": metrics}
    report.update(over)
    return report


class MetricNames(unittest.TestCase):
    def test_benchmark_json_names_and_units_follow_the_grammar(self):
        spec = load_spec()
        seen = set()
        for group in ("workloads", "end_to_end", "per_layer"):
            for m in spec[group]:
                self.assertTrue(run.valid_name(m["name"]), m["name"])
                self.assertNotIn(m["name"], seen)
                seen.add(m["name"])
                if "unit" in m:
                    self.assertTrue(run.valid_unit(m["unit"]), m["unit"])

    def test_grammar_rejects_bad_names(self):
        for bad in ("", "_lead", "has space", "slash/name", "x" * 65,
                    "quote\"", None):
            self.assertFalse(run.valid_name(bad), bad)
        for good in ("sim_p99_ms", "disk.seek_ms", "a-b.c_1", "9lives"):
            self.assertTrue(run.valid_name(good), good)

    def test_report_with_a_bad_name_is_refused(self):
        expected = [("ok_name", "s")]
        report = report_for(expected)
        report["metrics"][0]["name"] = "bad name"
        with self.assertRaises(run.HarnessError):
            run.validate_report(report, expected)


class Percentiles(unittest.TestCase):
    def test_needs_ten_samples_beyond_the_percentile(self):
        self.assertTrue(run.percentile_allowed(99, 1000))
        self.assertFalse(run.percentile_allowed(99, 999))
        self.assertTrue(run.percentile_allowed(50, 20))
        self.assertFalse(run.percentile_allowed(50, 19))
        self.assertTrue(run.percentile_allowed(99.9, 10000))
        self.assertFalse(run.percentile_allowed(99.9, 9999))

    def test_percentile_is_read_from_the_name(self):
        self.assertEqual(run.percentile_of("sim_p99_ms"), 99)
        self.assertEqual(run.percentile_of("p50_ms"), 50)
        self.assertEqual(run.percentile_of("lat_p99.9_ms"), 99.9)
        self.assertIsNone(run.percentile_of("host_qps"))
        self.assertIsNone(run.percentile_of("setup_s"))

    def test_report_with_too_few_samples_is_refused(self):
        expected = run.expected_metrics(load_spec(), 0)
        run.validate_report(report_for(expected, n=1000), expected)
        with self.assertRaises(run.HarnessError):
            run.validate_report(report_for(expected, n=999), expected)


class ResultLine(unittest.TestCase):
    def test_well_formed_with_exactly_the_contract_keys(self):
        for trace in (0, 1):
            expected = run.expected_metrics(load_spec(), trace)
            metrics = run.validate_report(report_for(expected), expected)
            line = run.result_line(True, 10, 0, metrics)
            self.assertNotIn("\n", line)
            parsed = json.loads(line)
            self.assertEqual(tuple(parsed), run.RESULT_KEYS)
            self.assertIs(parsed["correct"], True)
            self.assertEqual(list(parsed["metrics"]),
                             [n for n, _ in expected])
            for name, unit in expected:
                self.assertEqual(parsed["metrics"][name],
                                 {"value": 1.5, "unit": unit})

    def test_non_finite_values_never_reach_the_line(self):
        expected = [("x", "s")]
        for bad in (float("nan"), float("inf"), None, "1", True):
            report = report_for(expected)
            report["metrics"][0]["value"] = bad
            with self.assertRaises(run.HarnessError):
                run.validate_report(report, expected)

    def test_missing_extra_or_misunitted_metrics_are_refused(self):
        expected = [("a", "s"), ("b", "ms")]
        report = report_for(expected)
        report["metrics"].pop()
        with self.assertRaises(run.HarnessError):
            run.validate_report(report, expected)
        report = report_for(expected)
        report["metrics"].append({"name": "c", "value": 1, "unit": "s"})
        with self.assertRaises(run.HarnessError):
            run.validate_report(report, expected)
        report = report_for(expected)
        report["metrics"][1]["unit"] = "s"
        with self.assertRaises(run.HarnessError):
            run.validate_report(report, expected)

    def test_attempted_must_be_a_positive_count(self):
        expected = [("a", "s")]
        for bad in (0, -1, 1.5, None):
            with self.assertRaises(run.HarnessError):
                run.validate_report(report_for(expected, attempted=bad),
                                    expected)


class Sourceless(unittest.TestCase):
    def test_fails_without_printing_a_result_when_sources_are_missing(self):
        out_dir = os.path.join(run.ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=out_dir) as tree:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tree)
            shutil.copytree(run.PERFBENCH, os.path.join(tree, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "beam_open", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=tree, capture_output=True, text=True, timeout=170)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


MMBENCH = os.path.join(run.build_dir(), "mmbench")


@unittest.skipUnless(os.path.exists(MMBENCH), "mmbench not built")
class OutputChecks(unittest.TestCase):
    """Each output check holds on the current code and fails when its
    invariant is broken."""

    def drive(self, workload, trace, break_check=None):
        cmd = [MMBENCH, "--workload", workload, "--seed", "1", "--seconds",
               "0.1", "--trace", str(trace)]
        if break_check:
            cmd += ["--break-check", break_check]
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=170, check=True)
        report = json.loads(out.stdout.strip().splitlines()[-1])
        return {c["name"]: c["ok"] for c in report["checks"]}

    def test_each_check_catches_its_broken_invariant(self):
        cases = [("skewed_cached", 0, "accounting"),
                 ("skewed_cached", 0, "repeat_digest"),
                 ("skewed_cached", 0, "sector_conservation"),
                 ("skewed_cached", 1, "trace_digest"),
                 ("cluster_fanout", 0, "thread_digest")]
        for workload, trace, check in cases:
            with self.subTest(check=check):
                self.assertTrue(self.drive(workload, trace)[check])
                broken = self.drive(workload, trace, check)
                self.assertFalse(broken[check])
                self.assertTrue(all(ok for name, ok in broken.items()
                                    if name != check))


if __name__ == "__main__":
    unittest.main()

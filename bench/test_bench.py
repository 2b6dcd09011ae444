"""Tests of the benchmark itself.  Run from the repository root with

    python3 -m unittest bench.test_bench
"""

from __future__ import annotations

import json
import time
import unittest
from collections import Counter
from pathlib import Path

from . import endtoend, tracing
from .reference import digest, load_reference, output_problems
from .workloads import (
    END_TO_END_UNITS,
    ENTRY_CODE,
    PER_LAYER_UNITS,
    WORKLOADS,
    Workload,
    invocation_key,
    prepare_checkout,
)

ROOT = Path(__file__).resolve().parents[1]
PASSING_REPORT = json.dumps({"rows": [], "checks": [{"name": "a", "pass": True, "detail": ""}]}).encode()


class OutputGuardTest(unittest.TestCase):
    def expected(self, stdout: bytes, exit_code: int = 0) -> dict:
        return {"exit_code": exit_code, "sha256": digest(stdout), "bytes": len(stdout)}

    def test_matching_output_passes(self):
        self.assertEqual(output_problems(self.expected(PASSING_REPORT), 0, PASSING_REPORT), [])

    def test_each_kind_of_difference_is_reported(self):
        expected = self.expected(PASSING_REPORT)
        self.assertEqual(len(output_problems(expected, 1, PASSING_REPORT)), 1)
        self.assertEqual(len(output_problems(expected, 0, PASSING_REPORT + b" ")), 1)
        self.assertEqual(len(output_problems(expected, 0, b"not json")), 2)

    def test_failed_check_counts_even_with_the_reference_hash(self):
        report = json.dumps({"checks": [{"name": "a", "pass": False, "detail": ""}]}).encode()
        problems = output_problems(self.expected(report), 0, report)
        self.assertEqual(len(problems), 1)
        self.assertIn("checks not passed", problems[0])

    def test_wrong_reference_hash_fails_the_run(self):
        checkout = prepare_checkout(ROOT)
        argv = ("nd", "--dmax", "5", "--format", "json")
        child = endtoend.run_child(checkout, ["-c", ENTRY_CODE, *argv])
        self.assertEqual(child.exit_code, 0)
        workload = Workload("tiny", (argv,))
        good = {invocation_key(argv): self.expected(child.stdout)}
        bad = {invocation_key(argv): dict(good[invocation_key(argv)], sha256="0" * 64)}

        passed = endtoend.run(checkout, workload, good, seed=1, seconds=0)
        self.assertEqual(passed["failed"], 0)
        failed = endtoend.run(checkout, workload, bad, seed=1, seconds=0)
        self.assertEqual(failed["attempted"], endtoend.MIN_ROUNDS)
        self.assertEqual(failed["failed"], failed["attempted"])
        self.assertEqual(failed["detail"]["fail_rate"], 1.0)


class DefinitionTest(unittest.TestCase):
    def test_benchmark_json_matches_the_metrics_emitted(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, PER_LAYER_UNITS)

    def test_reference_covers_every_invocation(self):
        reference = load_reference()
        for workload in WORKLOADS.values():
            for argv in workload.invocations:
                self.assertEqual(reference[invocation_key(argv)]["exit_code"], 0)


class TracerTest(unittest.TestCase):
    def test_self_time_and_coverage(self):
        spans = [
            ["cli.main", 0, 100, -1, 0, True],
            ["engine.recursion", 10, 60, 0, 0, True],
            ["model.load", 20, 30, 1, 0, True],
            ["cli.render", 70, 90, 0, 0, True],
        ]
        metrics = tracing.layer_metrics(spans, Counter())
        self.assertAlmostEqual(metrics["engine.recursion_s"], 40e-9)
        self.assertAlmostEqual(metrics["trace.covered_frac"], 0.7)

    def test_after_hook_time_is_in_no_span(self):
        tracer = tracing.Tracer()

        def slow_hook(tracer, args, result):
            time.sleep(0.05)

        inner = tracer.span("inner", lambda: None, slow_hook)
        outer = tracer.span("outer", inner)
        outer()
        durations = {s[0]: s[2] - s[1] for s in tracer.spans}
        self.assertLess(durations["outer"], 0.04e9)

    def test_count_mismatch_is_detected(self):
        same = [{"metrics": {name: 5 for name in tracing.EXACT_COUNTS}} for _ in range(2)]
        self.assertEqual(tracing.count_mismatches(same), [])
        same[1]["metrics"]["series.mul_pairs"] = 6
        self.assertEqual(tracing.count_mismatches(same), ["series.mul_pairs"])

    def test_uninstall_restores_the_program(self):
        prepare_checkout(ROOT)
        from gwcalc import cli, engine, model, series

        before = (cli.wdvv_solve, engine.nd_plane, series.GWSeries.__mul__,
                  model.FanoModel.__dict__["divisor_count"], cli.Report.render)
        tracing.uninstall(tracing.install(tracing.Tracer()))
        after = (cli.wdvv_solve, engine.nd_plane, series.GWSeries.__mul__,
                 model.FanoModel.__dict__["divisor_count"], cli.Report.render)
        self.assertEqual(before, after)


if __name__ == "__main__":
    unittest.main()

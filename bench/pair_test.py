#!/usr/bin/env python3
"""Tests of bench/pair.py's verdict on synthetic per-pair results; runs no
binary. Registered as the bench_pair_verdict ctest.

    python3 bench/pair_test.py
"""
import json
import pathlib
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import pair  # noqa: E402

END_TO_END = json.loads((HERE.parent / "BENCHMARK.json").read_text())[
    "end_to_end"]
BASE = {"setup_s": 0.1, "events_per_s": 5e6, "op_p50_ms": 100.0,
        "op_tail_ms": 150.0, "peak_rss_mb": 60.0}


def result(values, correct=True):
    return {"correct": correct, "attempted": 10, "failed": 0 if correct else 1,
            "metrics": {n: {"value": v, "unit": "-"}
                        for n, v in values.items()}}


def pairs(scale=None):
    """Ten pairs whose base values jitter from pair to pair; the candidate
    of pair i has each metric m scaled by scale(m, i), else equals the base."""
    out = []
    for i in range(pair.PAIRS):
        base = {n: v * (1.0 + 0.03 * (i % 4)) for n, v in BASE.items()}
        cand = {n: v * (scale(n, i) if scale else 1.0)
                for n, v in base.items()}
        out.append((result(base), result(cand)))
    return out


def regressed(verdict):
    return sorted({r.metric for r in verdict.rows if r.regressed})


class VerdictTest(unittest.TestCase):
    def test_identical_sides_are_clean(self):
        verdict = pair.judge({"w": pairs()}, END_TO_END)
        self.assertEqual(verdict.code, 0)
        self.assertEqual(len(verdict.rows), len(END_TO_END))
        self.assertTrue(all(r.worse == 0 and r.median_ratio == 1.0
                            for r in verdict.rows))

    def test_worse_in_ten_of_ten_pairs_regresses(self):
        slow = pairs(lambda n, i: 1.25 if n == "op_p50_ms" else 1.0)
        verdict = pair.judge({"a": pairs(), "b": slow}, END_TO_END)
        self.assertEqual(verdict.code, 4)
        self.assertEqual(regressed(verdict), ["op_p50_ms"])
        row = next(r for r in verdict.rows if r.regressed)
        self.assertEqual((row.workload, row.worse), ("b", 10))
        self.assertAlmostEqual(row.median_ratio, 1.25)

    def test_worse_in_eight_of_ten_pairs_is_clean(self):
        mixed = pairs(lambda n, i: (1.25 if i < 8 else 0.9)
                      if n == "op_p50_ms" else 1.0)
        verdict = pair.judge({"w": mixed}, END_TO_END)
        self.assertEqual(verdict.code, 0)
        row = next(r for r in verdict.rows if r.metric == "op_p50_ms")
        self.assertEqual(row.worse, 8)
        self.assertAlmostEqual(row.median_ratio, 1.25)

    def test_worse_in_every_pair_within_the_margin_is_clean(self):
        slight = pairs(lambda n, i: 1.0 + pair.MARGIN / 2)
        self.assertEqual(pair.judge({"w": slight}, END_TO_END).code, 0)

    def test_higher_metric_is_judged_inverted(self):
        directions = {m["name"]: m["better"] for m in END_TO_END}
        self.assertEqual(directions["events_per_s"], "higher")
        fewer = pairs(lambda n, i: 0.8 if n == "events_per_s" else 1.0)
        verdict = pair.judge({"w": fewer}, END_TO_END)
        self.assertEqual(verdict.code, 4)
        self.assertEqual(regressed(verdict), ["events_per_s"])
        more = pairs(lambda n, i: 1.25 if n == "events_per_s" else 1.0)
        verdict = pair.judge({"w": more}, END_TO_END)
        self.assertEqual(verdict.code, 0)
        row = next(r for r in verdict.rows if r.metric == "events_per_s")
        self.assertEqual(row.worse, 0)
        self.assertAlmostEqual(row.median_ratio, 0.8)

    def test_incorrect_run_is_a_structural_error(self):
        runs = pairs()
        runs[3] = (runs[3][0], result(BASE, correct=False))
        verdict = pair.judge({"w": runs}, END_TO_END)
        self.assertEqual(verdict.code, 1)
        self.assertIn("pair 4 candidate", verdict.errors[0])

    def test_missing_metric_is_a_structural_error(self):
        runs = pairs()
        del runs[0][0]["metrics"]["op_tail_ms"]
        verdict = pair.judge({"w": runs}, END_TO_END)
        self.assertEqual(verdict.code, 1)
        self.assertIn("op_tail_ms", verdict.errors[0])

    def test_failed_run_is_a_structural_error(self):
        runs = pairs()
        runs[9] = (None, runs[9][1])
        self.assertEqual(pair.judge({"w": runs}, END_TO_END).code, 1)


if __name__ == "__main__":
    unittest.main()

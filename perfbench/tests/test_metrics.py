"""Tests for the benchmark's own arithmetic.

    python3 perfbench/tests/test_metrics.py
"""

import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import metrics as M  # noqa: E402
import run  # noqa: E402


class GeomeanNormalization(unittest.TestCase):
    ROWS = [
        (42, "a", "unsafe", 100), (42, "a", "fence", 150),
        (42, "b", "unsafe", 200), (42, "b", "fence", 200),
    ]

    def test_latency_is_cycles_over_unsafe(self):
        g = M.scheme_geomeans(self.ROWS, higher_is_better=False)
        self.assertAlmostEqual(g["fence"], math.sqrt(1.5 * 1.0))
        self.assertNotIn("unsafe", g)

    def test_throughput_is_unsafe_over_cycles(self):
        g = M.scheme_geomeans(self.ROWS, higher_is_better=True)
        self.assertAlmostEqual(g["fence"], math.sqrt(1 / 1.5))

    def test_seeds_are_separate_rows(self):
        rows = self.ROWS + [(7, "a", "unsafe", 100), (7, "a", "fence", 400)]
        g = M.scheme_geomeans(rows, higher_is_better=False)
        self.assertAlmostEqual(g["fence"], (1.5 * 1.0 * 4.0) ** (1 / 3))

    def test_missing_unsafe_is_an_error(self):
        with self.assertRaises(ValueError):
            M.scheme_geomeans([(42, "a", "fence", 1)], False)


class PaperGap(unittest.TestCase):
    def test_hand_computed(self):
        paper = {"x": 2.0, "y": 1.0}
        got = {"x": 2.5, "y": 0.9, "not-in-paper": 7.0}
        self.assertAlmostEqual(M.paper_gap(got, paper), (0.25 + 0.1) / 2)

    def test_zero_at_the_paper_values(self):
        self.assertEqual(M.paper_gap(dict(M.PAPER_APPS), M.PAPER_APPS), 0)

    def test_lebench_covers_the_seven_compared_schemes(self):
        self.assertEqual(sorted(M.PAPER_LEBENCH), sorted(M.PAPER_APPS))
        self.assertEqual(len(M.PAPER_LEBENCH), 7)
        self.assertNotIn("invisispec", M.PAPER_LEBENCH)


class SampledErr(unittest.TestCase):
    def test_worst_scheme_wins(self):
        exact = {"a": 1.0, "b": 2.0}
        sampled = {"a": 1.01, "b": 1.9}
        self.assertAlmostEqual(M.sampled_err(sampled, exact), 0.05)


class Digests(unittest.TestCase):
    WANT = [(100, 50, 40, 0), (150, 50, 40, 3)]

    def test_identical_digests_pass(self):
        self.assertEqual(M.digest_mismatches(list(self.WANT), self.WANT), [])

    def test_injected_cycle_change_fails(self):
        got = [(100, 50, 40, 0), (151, 50, 40, 3)]
        self.assertEqual(M.digest_mismatches(got, self.WANT), [1])

    def test_length_mismatch_fails_every_cell(self):
        self.assertEqual(M.digest_mismatches(self.WANT[:1], self.WANT),
                         [0, 1])

    def doc(self, *passes):
        return {"workload": "lebench",
                "cells": [["a", "unsafe"], ["a", "fence"]],
                "passes": [dict(seed=42, traced=t, digests=d)
                           for t, d in passes],
                "reference": []}

    def stored(self, fence_cycles=150):
        return {42: {"lebench": [["a", "unsafe", 100, 50, 40, 0],
                                 ["a", "fence", fence_cycles, 50, 40, 3]]}}

    def rows(self, fence_cycles=150):
        return [[100, 50, 40, 0, True], [fence_cycles, 50, 40, 3, True]]

    def check(self, doc, stored):
        checks = run.Checks()
        run.check_passes(doc, run.WORKLOADS["lebench"], stored, checks)
        return checks

    def test_run_matching_the_reference_passes(self):
        c = self.check(self.doc((False, self.rows())), self.stored())
        self.assertEqual((c.attempted, c.failed), (2, 0))

    def test_run_with_a_changed_cycle_count_fails(self):
        c = self.check(self.doc((False, self.rows(151))), self.stored())
        self.assertEqual((c.attempted, c.failed), (2, 1))

    def test_traced_pass_must_repeat_the_untraced_one(self):
        c = self.check(self.doc((False, self.rows()), (True, self.rows(9))),
                       {})
        self.assertEqual((c.attempted, c.failed), (4, 1))

    def test_errored_cell_fails(self):
        rows = self.rows()
        rows[0][4] = False
        c = self.check(self.doc((False, rows)), {})
        self.assertEqual(c.failed, 1)


class FastestPass(unittest.TestCase):
    def test_fastest_run_of_each_cell_plus_least_time_outside(self):
        # cells best 0.5 + 0.25, outside best 0.25 (first pass)
        passes = [(1.5, [0.5, 0.75]), (1.75, [1.0, 0.25])]
        self.assertAlmostEqual(M.fastest_pass_seconds(passes), 1.0)

    def test_cell_time_spreads_over_workers(self):
        # two workers: 2 s of cells is 1 s of pass, outside 0.5 s
        passes = [(1.5, [1.0, 1.0])]
        self.assertAlmostEqual(M.fastest_pass_seconds(passes, jobs=2), 1.5)

    def test_clock_from_the_fastest_probe(self):
        self.assertAlmostEqual(M.host_clock_hz(6e6, [0.003, 0.002, 0.004]),
                               3e9)


class Percentiles(unittest.TestCase):
    def test_linear_interpolation(self):
        self.assertAlmostEqual(M.percentile([4, 1, 3, 2], 50), 2.5)
        self.assertAlmostEqual(M.percentile([1, 2, 3, 4], 90), 3.7)
        self.assertEqual(M.percentile([5], 90), 5)

    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertIsNone(M.tail_percentile(19))
        self.assertEqual(M.tail_percentile(20), 50)
        self.assertEqual(M.tail_percentile(99), 50)
        self.assertEqual(M.tail_percentile(100), 90)
        self.assertEqual(M.tail_percentile(999), 90)
        self.assertEqual(M.tail_percentile(1000), 99)
        self.assertEqual(M.tail_percentile(10000), 99.9)


class SelfTimes(unittest.TestCase):
    def test_overlapping_and_clipped_children(self):
        spans = [
            dict(id=0, parent=None, t0=0, t1=100),
            dict(id=1, parent=0, t0=10, t1=30),
            dict(id=2, parent=0, t0=20, t1=50),   # overlaps span 1
            dict(id=3, parent=0, t0=90, t1=120),  # runs past its parent
            dict(id=4, parent=2, t0=25, t1=35),
        ]
        self.assertEqual(M.self_times(spans),
                         {0: 100 - 40 - 10, 1: 20, 2: 20, 3: 30, 4: 10})

    def test_union_length(self):
        self.assertEqual(M.union_length([(5, 6), (0, 2), (1, 3)]), 4)
        self.assertEqual(M.union_length([]), 0)


if __name__ == "__main__":
    unittest.main()

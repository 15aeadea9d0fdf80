"""Tests of perfbench/spread.py, whose spread decides whether the benchmark
is steady. Run from this directory: python3 -B -m unittest test_spread"""
import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                ".."))
import spread  # noqa: E402


class SpreadTest(unittest.TestCase):
    def test_interquartile_range_over_median(self):
        # statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        self.assertAlmostEqual(spread.spread(list(range(1, 11))),
                               (8.25 - 2.75) / 5.5)
        # statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        self.assertAlmostEqual(spread.spread([5, 1, 4, 2, 3]),
                               (4.5 - 1.5) / 3.0)

    def test_equal_values_have_no_spread(self):
        self.assertEqual(spread.spread([3.0] * 10), 0.0)

    def test_one_outlier_moves_the_quartiles_little(self):
        base = [100.0 + i for i in range(10)]
        wild = base[:-1] + [1000.0]
        self.assertLess(spread.spread(wild) - spread.spread(base), 0.05)

    def test_verdict_against_the_bound(self):
        self.assertEqual(spread.verdict("op_p50_ms", 0.07, 0.24), "steady")
        self.assertEqual(spread.verdict("op_p50_ms", 0.08, 0.24),
                         "within bound")
        self.assertEqual(spread.verdict("op_p50_ms", 0.24, 0.24),
                         "within bound")
        self.assertEqual(spread.verdict("op_p50_ms", 0.25, 0.24), "too noisy")
        self.assertEqual(spread.verdict("setup_s", 0.9, 0.25), "exempt")

    def test_parse_seeds(self):
        self.assertEqual(spread.parse_seeds("3-6"), [3, 4, 5, 6])
        self.assertEqual(spread.parse_seeds("1,9"), [1, 9])


if __name__ == "__main__":
    unittest.main()

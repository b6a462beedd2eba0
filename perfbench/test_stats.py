"""Self-tests of the benchmark's statistics helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import statistics
import unittest

import stats


class MedianAndQuartiles(unittest.TestCase):
    def test_median_of_odd_and_even_counts(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_median_of_nothing_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.median([])

    def test_quartiles_match_the_exclusive_method(self):
        values = [7.0, 1.0, 3.0, 9.0, 5.0, 11.0, 2.0, 8.0, 4.0, 6.0]
        self.assertEqual(stats.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))
        # Exclusive method on 1..10: positions 2.75, 5.5 and 8.25.
        self.assertEqual(stats.quartiles(list(range(1, 11))), (2.75, 5.5, 8.25))

    def test_spread_is_the_interquartile_range_over_the_median(self):
        self.assertAlmostEqual(stats.spread(list(range(1, 11))), (8.25 - 2.75) / 5.5)
        self.assertEqual(stats.spread([2.0] * 10), 0.0)

    def test_spread_needs_two_values_and_a_nonzero_median(self):
        with self.assertRaises(ValueError):
            stats.spread([1.0])
        with self.assertRaises(ValueError):
            stats.spread([-1.0, 0.0, 1.0])


class Tail(unittest.TestCase):
    def test_nearest_rank_counts_the_samples_beyond(self):
        self.assertEqual(stats.nearest_rank(list(range(1, 101)), 90), (90, 10))
        self.assertEqual(stats.nearest_rank(list(range(1, 101)), 99), (99, 1))

    def test_highest_percentile_with_ten_samples_beyond(self):
        # 100 samples: p90 leaves exactly 10 beyond, p99 only 1.
        self.assertEqual(stats.tail(list(range(1, 101))), (90.0, 90))
        # 1,000 samples: p99 leaves 10 beyond.
        self.assertEqual(stats.tail(list(range(1, 1001))), (99.0, 990))
        # 99 samples: p90 leaves 9, so the median is the highest.
        self.assertEqual(stats.tail(list(range(1, 100))), (50.0, 50))

    def test_too_few_samples_support_no_tail(self):
        with self.assertRaises(ValueError):
            stats.tail(list(range(19)))
        self.assertEqual(stats.tail(list(range(20))), (50.0, 9))


class BoundCheck(unittest.TestCase):
    def test_lower_is_better(self):
        self.assertTrue(stats.within_bound(100.0, 110.0, 0.1, "lower"))
        self.assertFalse(stats.within_bound(100.0, 110.5, 0.1, "lower"))
        self.assertTrue(stats.within_bound(100.0, 50.0, 0.1, "lower"))

    def test_higher_is_better(self):
        self.assertTrue(stats.within_bound(100.0, 90.0, 0.1, "higher"))
        self.assertFalse(stats.within_bound(100.0, 89.5, 0.1, "higher"))
        self.assertTrue(stats.within_bound(100.0, 150.0, 0.1, "higher"))

    def test_worsening_is_signed(self):
        self.assertAlmostEqual(stats.worsening(200.0, 150.0, "lower"), -0.25)
        self.assertAlmostEqual(stats.worsening(200.0, 150.0, "higher"), 0.25)

    def test_bad_direction_or_base_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.worsening(1.0, 2.0, "sideways")
        with self.assertRaises(ValueError):
            stats.worsening(0.0, 2.0, "lower")


if __name__ == "__main__":
    unittest.main()

"""Unit checks for the benchmark's statistics helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import statistics
import unittest

import stats


class PercentileTest(unittest.TestCase):
    def test_median_needs_ten_samples_beyond(self):
        self.assertEqual(stats.percentile(list(range(1, 21)), 0.5), 10)
        with self.assertRaises(stats.TooFewSamples):
            stats.percentile(list(range(1, 20)), 0.5)

    def test_tail_refused_with_fewer_than_ten_beyond(self):
        samples = list(range(100))
        self.assertEqual(stats.percentile(samples, 0.9), 89)
        with self.assertRaises(stats.TooFewSamples):
            stats.percentile(samples, 0.95)
        with self.assertRaises(stats.TooFewSamples):
            stats.percentile(samples, 0.99)

    def test_nearest_rank_ignores_input_order(self):
        samples = [5.0, 1.0, 4.0, 2.0, 3.0] * 10
        self.assertEqual(stats.percentile(samples, 0.5), 3.0)

    def test_rejects_percentile_outside_unit_interval(self):
        with self.assertRaises(ValueError):
            stats.percentile(list(range(100)), 1.0)
        with self.assertRaises(ValueError):
            stats.percentile(list(range(100)), 0.0)

    def test_empty_sample_is_refused(self):
        with self.assertRaises(stats.TooFewSamples):
            stats.percentile([], 0.5)

    def test_highest_percentile_picks_the_deepest_supported_tail(self):
        self.assertEqual(stats.highest_percentile(list(range(1000)))[0], 0.99)
        self.assertEqual(stats.highest_percentile(list(range(100)))[0], 0.9)
        self.assertEqual(stats.highest_percentile(list(range(25)))[0], 0.5)
        self.assertIsNone(stats.highest_percentile(list(range(19))))


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
        self.assertEqual(stats.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))

    def test_spread_is_iqr_over_median(self):
        values = [float(v) for v in range(1, 11)]
        q1, q2, q3 = stats.quartiles(values)
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / q2)
        self.assertEqual(stats.spread([2.0] * 10), 0.0)

    def test_worse_by_follows_direction(self):
        self.assertAlmostEqual(stats.worse_by(100.0, 110.0, "lower"), 0.1)
        self.assertAlmostEqual(stats.worse_by(100.0, 110.0, "higher"), -0.1)
        self.assertAlmostEqual(stats.worse_by(100.0, 90.0, "higher"), 0.1)


class TickSplitTest(unittest.TestCase):
    def test_action_ticks_are_those_with_an_executed_action(self):
        rows = [[1000, 0, 0], [30000, 1, 1], [1100, 0, 2], [29000, 2, 3]]
        quiet, action = stats.split_ticks(rows)
        self.assertEqual(quiet, [1000, 1100])
        self.assertEqual(action, [30000, 29000])

    def test_trigger_without_action_stays_quiet(self):
        quiet, action = stats.split_ticks([[1200, 0, 5]])
        self.assertEqual((quiet, action), ([1200], []))


if __name__ == "__main__":
    unittest.main()

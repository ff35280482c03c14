"""The percentile helper and sample summaries."""

import unittest

import benchpaths  # noqa: F401  (import paths)
from stats import summarize, tail_percentile


class TailPercentileTest(unittest.TestCase):
    def test_too_few_samples_give_no_tail(self):
        self.assertIsNone(tail_percentile([float(i) for i in range(10)]))

    def test_median_is_the_first_to_qualify(self):
        # 20 samples: the median (rank 10) has exactly 10 beyond it,
        # the 75th percentile (rank 15) only 5.
        tail = tail_percentile([float(i) for i in range(1, 21)])
        self.assertEqual(tail, {"percentile": 50.0, "value": 10.0, "beyond": 10})

    def test_highest_qualifying_percentile_wins(self):
        samples = [float(i) for i in range(1, 1001)]
        tail = tail_percentile(samples)
        # p99.9 leaves 1 sample beyond, p99 leaves 10.
        self.assertEqual(tail, {"percentile": 99.0, "value": 990.0, "beyond": 10})

    def test_order_of_samples_does_not_matter(self):
        samples = [float(i) for i in range(1, 201)]
        self.assertEqual(
            tail_percentile(samples), tail_percentile(list(reversed(samples)))
        )

    def test_custom_minimum(self):
        tail = tail_percentile([1.0, 2.0, 3.0, 4.0], min_beyond=1)
        self.assertEqual(tail, {"percentile": 75.0, "value": 3.0, "beyond": 1})


class SummarizeTest(unittest.TestCase):
    def test_quartiles_and_count(self):
        summary = summarize([4.0, 1.0, 3.0, 2.0, 5.0])
        self.assertEqual(summary["n"], 5)
        self.assertEqual(summary["median"], 3.0)
        self.assertEqual((summary["q1"], summary["q3"]), (1.5, 4.5))
        self.assertEqual(summary["iqr_share"], 1.0)
        self.assertIsNone(summary["tail"])

    def test_single_sample(self):
        summary = summarize([2.5])
        self.assertEqual((summary["q1"], summary["median"], summary["q3"]), (2.5,) * 3)

    def test_no_samples(self):
        with self.assertRaises(ValueError):
            summarize([])


if __name__ == "__main__":
    unittest.main()

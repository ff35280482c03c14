"""Rescaling measured intervals to the reference host speed."""

import time
import unittest

import benchpaths  # noqa: F401  (import paths)
from hostspeed import HostSpeed, reference_seconds


class ReferenceSecondsTest(unittest.TestCase):
    def test_reference_speed_leaves_time_unchanged(self):
        samples = [(1.0, 0.002), (2.0, 0.002), (3.0, 0.002)]
        self.assertAlmostEqual(reference_seconds(samples, 0.5, 2.5, 0.002), 2.0)

    def test_twice_as_slow_counts_half(self):
        samples = [(1.0, 0.004), (2.0, 0.004)]
        self.assertAlmostEqual(reference_seconds(samples, 0.0, 4.0, 0.002), 2.0)

    def test_each_stretch_uses_its_own_speed(self):
        # Kernel times 2, 2, 4, 4, 4 ms: the stretch up to t=2 runs at the
        # reference speed, the stretch after t=3 at half of it, and the
        # stretch (2, 3] takes the median of 2, 4 and 4 ms.
        samples = [(1.0, 0.002), (2.0, 0.002), (3.0, 0.004), (4.0, 0.004), (5.0, 0.004)]
        self.assertAlmostEqual(reference_seconds(samples, 1.5, 2.0, 0.002), 0.5)
        self.assertAlmostEqual(reference_seconds(samples, 2.0, 3.0, 0.002), 0.5)
        self.assertAlmostEqual(reference_seconds(samples, 3.0, 5.0, 0.002), 1.0)

    def test_one_disturbed_timing_is_ignored(self):
        samples = [(1.0, 0.002), (2.0, 0.050), (3.0, 0.002)]
        self.assertAlmostEqual(reference_seconds(samples, 0.0, 3.0, 0.002), 3.0)

    def test_time_outside_the_samples_uses_the_nearest(self):
        samples = [(10.0, 0.001), (11.0, 0.001), (12.0, 0.004), (13.0, 0.004), (14.0, 0.004)]
        self.assertAlmostEqual(reference_seconds(samples, 8.0, 9.0, 0.002), 2.0)
        self.assertAlmostEqual(reference_seconds(samples, 20.0, 22.0, 0.002), 1.0)

    def test_empty_interval(self):
        self.assertEqual(reference_seconds([(1.0, 0.002)], 3.0, 3.0), 0.0)

    def test_no_samples(self):
        with self.assertRaises(ValueError):
            reference_seconds([], 0.0, 1.0)


class HostSpeedTest(unittest.TestCase):
    def test_samples_periodically_and_on_exit(self):
        with HostSpeed(interval=0.05) as host:
            time.sleep(0.3)
        self.assertGreaterEqual(len(host.samples), 3)
        self.assertEqual(host.samples, sorted(host.samples))
        self.assertGreater(host.slowdown(), 0.0)

    def test_a_short_run_still_has_its_exit_sample(self):
        with HostSpeed(interval=60.0) as host:
            pass
        self.assertEqual(len(host.samples), 1)


if __name__ == "__main__":
    unittest.main()

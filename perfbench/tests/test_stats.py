"""Self-tests for perfbench/stats.py.

    python3 -m unittest discover -s perfbench/tests
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import stats  # noqa: E402


def counter(name, value, **labels):
    return {"name": name, "type": "counter", "labels": labels,
            "value": value}


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 201))  # 1..200
        self.assertEqual(stats.percentile(values, 50), 100)
        self.assertEqual(stats.percentile(values, 95), 190)

    def test_order_does_not_matter(self):
        values = list(range(200, 0, -1))
        self.assertEqual(stats.percentile(values, 95), 190)

    def test_refuses_fewer_than_ten_beyond(self):
        # p95 of 199 samples is rank 190 with only 9 samples beyond it.
        with self.assertRaises(stats.NotEnoughSamples):
            stats.percentile(list(range(199)), 95)
        # The median needs 20 samples: rank 10 of 20 has 10 beyond.
        self.assertEqual(stats.percentile(list(range(1, 21)), 50), 10)
        with self.assertRaises(stats.NotEnoughSamples):
            stats.percentile(list(range(19)), 50)

    def test_empty(self):
        with self.assertRaises(stats.NotEnoughSamples):
            stats.percentile([], 50)

    def test_median(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)
        with self.assertRaises(stats.NotEnoughSamples):
            stats.median([])


class MetricsDeltaTest(unittest.TestCase):
    BEFORE = [
        counter("vadalog_session_queries_total", 10, session="bench"),
        counter("vadalog_session_queries_total", 99, session="other"),
        counter("vadalog_search_total", 5, session="bench", engine="linear"),
        counter("vadalog_search_total", 7, session="bench",
                engine="alternating"),
        {"name": "vadalogd_queue_wait_us", "type": "histogram",
         "labels": {}, "count": 4, "sum": 40},
    ]
    AFTER = [
        counter("vadalog_session_queries_total", 30, session="bench"),
        counter("vadalog_session_queries_total", 100, session="other"),
        counter("vadalog_search_total", 45, session="bench", engine="linear"),
        counter("vadalog_search_total", 7, session="bench",
                engine="alternating"),
        counter("vadalogd_wakeups_total", 12),
        {"name": "vadalogd_queue_wait_us", "type": "histogram",
         "labels": {}, "count": 10, "sum": 90},
    ]

    def test_delta_filters_by_labels(self):
        self.assertEqual(stats.metric_delta(
            self.BEFORE, self.AFTER, "vadalog_session_queries_total",
            session="bench"), 20)
        self.assertEqual(stats.metric_delta(
            self.BEFORE, self.AFTER, "vadalog_search_total",
            session="bench", engine="linear"), 40)

    def test_delta_sums_unfiltered_series(self):
        self.assertEqual(stats.metric_delta(
            self.BEFORE, self.AFTER, "vadalog_session_queries_total"), 21)

    def test_series_born_during_the_phase(self):
        self.assertEqual(stats.metric_delta(
            self.BEFORE, self.AFTER, "vadalogd_wakeups_total"), 12)

    def test_missing_series_is_zero(self):
        self.assertEqual(stats.metric_delta(
            self.BEFORE, self.AFTER, "no_such_metric"), 0)

    def test_histogram_counts_observations(self):
        self.assertEqual(stats.metric_delta(
            self.BEFORE, self.AFTER, "vadalogd_queue_wait_us"), 6)

    def test_ratio(self):
        searches = stats.metric_delta(self.BEFORE, self.AFTER,
                                      "vadalog_search_total",
                                      session="bench", engine="linear")
        queries = stats.metric_delta(self.BEFORE, self.AFTER,
                                     "vadalog_session_queries_total",
                                     session="bench")
        self.assertEqual(stats.ratio(searches, queries), 2.0)
        self.assertEqual(stats.ratio(5, 0), 0.0)


class WireTest(unittest.TestCase):
    def test_subtracts_server_time(self):
        self.assertEqual(stats.wire_us([100.0, 250.5], [60, 200]),
                         [40.0, 50.5])

    def test_clamps_at_zero(self):
        # The server's total is read from another clock; rounding can
        # put it a microsecond past the client's round trip.
        self.assertEqual(stats.wire_us([10.0], [11]), [0.0])


if __name__ == "__main__":
    unittest.main()

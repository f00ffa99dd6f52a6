"""Tests of the benchmark's summary code on canned samples.

    python3 perfbench/test_summary.py
"""

import math
import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True

import summary  # noqa: E402


def span(name, dur_us, parent, interval=0):
    return [name, 0.0, dur_us, dur_us, parent, interval]


def probe(solve_ms, iterations, emit_ms=0.0, rule_ms=0.1, objective_ms=0.2):
    calls = {rule: rule_ms for rule in summary.RULES}
    calls.update(objective=objective_ms, spmm=0.01, trifactor_loss=0.02,
                 parallel_for_us=1.5)
    return {"solve_ms": solve_ms, "iterations": iterations, "rows": 100,
            "width": 1, "emit_ms": emit_ms, "calls": calls}


class MedianAndQuartiles(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(summary.median([5, 1, 3]), 3)
        self.assertEqual(summary.median([4, 1, 3, 2]), 2.5)

    def test_median_refuses_no_samples(self):
        with self.assertRaises(summary.SummaryError):
            summary.median([])

    def test_quartiles_match_statistics_quantiles(self):
        values = [7.0, 1.0, 3.0, 9.0, 5.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        # Exclusive method on 1..10: q1 at rank 2.75, q3 at rank 8.25.
        self.assertEqual(summary.quartiles(values), (2.75, 5.5, 8.25))
        self.assertEqual(summary.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))

    def test_spread_is_iqr_over_median(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        self.assertAlmostEqual(summary.spread(values), (8.25 - 2.75) / 5.5)

    def test_quartiles_refuse_one_sample(self):
        with self.assertRaises(summary.SummaryError):
            summary.quartiles([1.0])


class Percentiles(unittest.TestCase):
    def test_p90_of_100_samples_leaves_ten_beyond(self):
        values = list(range(1, 101))
        self.assertEqual(summary.percentile(values, 90), 90)
        self.assertEqual(summary.samples_beyond(100, 90), 10)

    def test_p90_refused_below_100_samples(self):
        with self.assertRaises(summary.SummaryError):
            summary.percentile(list(range(99)), 90)

    def test_p99_needs_1000_samples(self):
        self.assertEqual(summary.percentile(list(range(1, 1001)), 99), 990)
        with self.assertRaises(summary.SummaryError):
            summary.percentile(list(range(999)), 99)

    def test_percentile_is_order_independent(self):
        values = [float(v) for v in range(200, 0, -1)]
        self.assertEqual(summary.percentile(values, 90), 180.0)

    def test_highest_percentile_walks_down(self):
        self.assertEqual(summary.highest_percentile(list(range(1, 1601))),
                         (99.0, 1584))
        self.assertEqual(summary.highest_percentile(list(range(1, 145))),
                         (90.0, 130))
        self.assertEqual(summary.highest_percentile(list(range(1, 37))),
                         (50.0, 18))
        with self.assertRaises(summary.SummaryError):
            summary.highest_percentile(list(range(15)))


class FailedShare(unittest.TestCase):
    def test_share(self):
        self.assertEqual(summary.failed_share(0, 1600), 0.0)
        self.assertEqual(summary.failed_share(4, 16), 0.25)

    def test_refuses_no_attempts_and_impossible_counts(self):
        for failed, attempted in ((0, 0), (3, 2), (-1, 5)):
            with self.assertRaises(summary.SummaryError):
                summary.failed_share(failed, attempted)


class SumChecks(unittest.TestCase):
    def test_interval_children_cover_the_wall(self):
        spans = [span("interval", 1000.0, -1), span("ingest", 100.0, 0),
                 span("advance", 800.0, 0), span("fit", 790.0, 2),
                 span("observe", 90.0, 0)]
        # 10 us of the 1000 us interval lie outside its children; the fit
        # span is the advance's child and is not counted twice.
        self.assertAlmostEqual(
            summary.interval_sum_error([{"spans": spans}]), 0.01)

    def test_spans_outside_intervals_are_ignored(self):
        spans = [span("interval", 100.0, -1), span("run", 100.0, 0),
                 span("serving_probe", 50.0, -1), span("save", 50.0, 2)]
        self.assertEqual(summary.interval_sum_error([{"spans": spans}]), 0.0)

    def test_fit_parts_count_objective_once_more_than_rules(self):
        rules, objective, emit = summary.fit_parts(probe(10.0, 4, emit_ms=0.5))
        self.assertAlmostEqual(rules, 5 * 0.1 * 4)
        self.assertAlmostEqual(objective, 0.2 * 5)
        self.assertEqual(emit, 0.5)

    def test_residual_closes_the_sum(self):
        share, residual = summary.fit_attribution([probe(10.0, 4)])
        self.assertAlmostEqual(share, 0.3)
        self.assertAlmostEqual(residual, 10.0 - 2.0 - 1.0)

    def test_scatter_of_single_fits_cancels(self):
        # One fit over-attributed by 1 ms, one under by 8 ms: the parts
        # still cover less than the summed fit time.
        share, residual = summary.fit_attribution(
            [probe(2.0, 4), probe(11.0, 4)])
        self.assertAlmostEqual(share, 6.0 / 13.0)
        self.assertAlmostEqual(residual, 7.0)

    def test_over_attribution_shows_as_a_share_above_one(self):
        share, residual = summary.fit_attribution([probe(2.0, 4)])
        self.assertAlmostEqual(share, 1.5)
        self.assertAlmostEqual(residual, -1.0)


class EndToEnd(unittest.TestCase):
    def raw_pass(self, slowdown):
        advance = [slowdown * (1.0 + i % 10) for i in range(100)]
        return {"traced": False, "tweets": 1000,
                "interval_ms": [slowdown * 10.0] * 100,
                "advance_ms": advance,
                "setups": [{"read_tsv_ms": 100.0, "vocab_fit_ms": 200.0,
                            "prior_ms": 1.0, "register_ms": 99.0 * slowdown,
                            "add_campaign_ms": []}],
                "tweet_accuracy": 0.75, "user_accuracy": 0.5}

    def test_one_slow_pass_in_three_does_not_move_the_result(self):
        raw = {"passes": [self.raw_pass(1.0), self.raw_pass(3.0),
                          self.raw_pass(1.0)],
               "counters": {"max_rss_kb": 2048}}
        metrics = summary.end_to_end(raw)
        self.assertEqual(metrics["tweets_per_s"], 1000.0)
        self.assertEqual(metrics["advance_p50_ms"], 5.5)
        self.assertEqual(metrics["advance_p90_ms"], 9.0)
        self.assertAlmostEqual(metrics["setup_s"], 0.4)
        self.assertEqual(metrics["peak_rss_mb"], 2.0)
        self.assertEqual(metrics["tweet_accuracy"], 0.75)


class Gate(unittest.TestCase):
    def raw(self, tweet_accuracy=(0.7, 0.7), errors=()):
        passes = [{"errors": list(errors), "tweet_accuracy": t,
                   "user_accuracy": 0.6} for t in tweet_accuracy]
        return {"passes": passes}

    def test_clean_run_passes(self):
        self.assertEqual(summary.gate(self.raw()), [])

    def test_nan_accuracy_fails(self):
        self.assertTrue(summary.gate(self.raw((math.nan, 0.7))))
        self.assertTrue(summary.gate(self.raw((None, 0.7))))

    def test_passes_must_agree(self):
        self.assertTrue(summary.gate(self.raw((0.7, 0.71))))

    def test_program_errors_fail(self):
        self.assertTrue(summary.gate(self.raw(errors=["Sp is not finite"])))


if __name__ == "__main__":
    unittest.main()

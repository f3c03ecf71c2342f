import importlib.util
import json

import numpy as np
import pytest

from test_autodiff import REPO


def load_duet():
    spec = importlib.util.spec_from_file_location("duet", REPO / "tools" / "duet.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


duet = load_duet()


def child(scale: float, **extra) -> dict:
    """A child's result whose every end-to-end metric is ``scale``."""
    return {**dict.fromkeys(duet.METRICS, scale), "failures": [], **extra}


class TestSummarize:
    # change / base ratios of the pairs in which both children passed: one
    # exactly 1.0, which is not lower
    RATIOS = [0.80, 0.90, 0.95, 1.00, 1.10, 0.85, 0.97]

    def pairs(self):
        passed = [(child(2.0), child(2.0 * r)) for r in self.RATIOS]
        failed = [
            (child(2.0), {"crashed": "Traceback ..."}),
            (child(2.0, failures=["PPR list differs"]), child(0.2)),
            (child(2.0), child(20.0, failures=["loss rose"])),
        ]
        # the failed pairs' ratios (0.1, 10) would move the median and the count below 1
        return passed[:3] + failed + passed[3:]

    def test_a_pair_whose_child_failed_is_excluded(self):
        report = duet.summarize(self.pairs())
        assert sorted(report) == sorted(duet.METRICS)
        for row in report.values():
            assert row["pairs"] == len(self.RATIOS)
            assert row["median_ratio"] == pytest.approx(np.median(self.RATIOS), rel=1e-12)

    def test_lower_counts_ratios_below_one(self):
        for row in duet.summarize(self.pairs()).values():
            assert row["lower"] == sum(r < 1.0 for r in self.RATIOS) == 5

    def test_the_interval_contains_the_median_ratio(self):
        for row in duet.summarize(self.pairs()).values():
            lo, hi = row["ci95"]
            assert min(self.RATIOS) <= lo <= row["median_ratio"] <= hi <= max(self.RATIOS)
            assert lo < hi

    def test_each_side_reports_its_median_and_interquartile_range(self):
        base = [1.0, 3.0, 2.0, 4.0, 6.0, 5.0, 7.0]
        change = [b * r for b, r in zip(base, self.RATIOS)]
        failed = [(child(2.0), {"crashed": "timed out"}), (child(100.0, failures=["loss rose"]), child(2.0))]
        report = duet.summarize([(child(b), child(c)) for b, c in zip(base, change)] + failed)
        for row in report.values():
            for side, values in (("base", base), ("change", change)):
                q1, q3 = np.percentile(values, [25, 75])
                assert row[side] == {"median": np.median(values), "iqr": q3 - q1}
            assert row["base"] == {"median": 4.0, "iqr": 3.0}

    def test_no_passing_pair_reports_nothing(self):
        assert duet.summarize([(child(1.0), {"crashed": "timed out"})]) == {}


def test_metrics_are_the_benchmarks_end_to_end_metrics():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]
    assert duet.METRICS == tuple(m["name"] for m in spec)
    assert all(duet.END_TO_END[m["name"]] == m for m in spec)


class TestVerdict:
    BASE = np.array([1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.03, 0.97])
    # the base's IQR is 0.65, wider than 0.25 of its median 1.27
    WIDE = np.array([1.00, 1.01, 1.02, 1.03, 1.04, 1.5, 1.6, 1.7, 1.8, 1.9])

    def test_lower_in_nine_of_ten_by_more_than_the_iqr_is_a_gain(self):
        change = self.BASE * 0.9
        change[0] = 1.5  # one pair where the change is higher
        assert duet.verdict(self.BASE, change, 0.24, "lower") == "gain"

    def test_lower_in_eight_of_ten_is_no_gain(self):
        change = self.BASE * 0.9
        change[:2] = 1.5
        assert duet.verdict(self.BASE, change, 0.24, "lower") == "within bound"

    def test_a_median_difference_within_the_iqr_is_no_gain(self):
        change = self.BASE - 0.01  # lower in every pair, by less than the IQR of 0.02
        assert duet.verdict(self.BASE, change, 0.24, "lower") == "within bound"

    def test_a_median_above_the_bound_is_a_regression(self):
        assert duet.verdict(self.BASE, self.BASE * 1.3, 0.24, "lower") == "regressed"
        assert duet.verdict(self.BASE, self.BASE * 1.2, 0.24, "lower") == "within bound"
        assert duet.verdict(self.WIDE, self.WIDE * 1.3, 0.25, "lower") == "regressed"

    def test_a_base_spread_wider_than_the_bound_is_unresolved(self):
        assert duet.verdict(self.WIDE, self.WIDE[::-1], 0.25, "lower") == "unresolved"
        assert duet.verdict(self.WIDE, self.WIDE[::-1], 0.6, "lower") == "within bound"

    def test_a_change_that_beats_every_base_run_is_resolved(self):
        # lower everywhere, but by less than the IQR: neither a gain nor unresolved
        change = np.full(10, 0.99)
        assert duet.verdict(self.WIDE, change, 0.25, "lower") == "within bound"
        assert duet.verdict(self.WIDE, np.append(change[:9], 1.0), 0.25, "lower") == "unresolved"

    def test_higher_is_better_flips_every_rule(self):
        assert duet.verdict(self.BASE, 2.0 - self.BASE * 0.9, 0.24, "higher") == "gain"
        assert duet.verdict(self.BASE, self.BASE * 0.7, 0.24, "higher") == "regressed"
        assert duet.verdict(self.BASE, self.BASE * 1.3, 0.24, "lower") == "regressed"
        assert duet.verdict(self.WIDE, self.WIDE[::-1], 0.25, "higher") == "unresolved"

    def test_the_report_gives_each_metric_its_verdict(self):
        base = [1.0, 3.0, 2.0, 4.0, 6.0, 5.0, 7.0]
        report = duet.summarize([(child(b), child(b * 1.5)) for b in base])
        for metric, row in report.items():
            spec = duet.END_TO_END[metric]
            want = duet.verdict(np.array(base), np.array(base) * 1.5, spec["bound"], spec["better"])
            assert row["verdict"] == want == "regressed"

import importlib.util

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

"""The benchmark's own arithmetic."""

import numpy as np
import pytest

from bench_e2e import stats


def test_p90_is_refused_below_100_samples():
    samples = [float(i) for i in range(99)]
    assert stats.percentile(samples, 90.0) is None
    assert stats.percentile(samples + [99.0], 90.0) is not None


def test_percentile_matches_numpy():
    samples = list(np.random.default_rng(3).random(250))
    assert stats.percentile(samples, 90.0) == pytest.approx(np.percentile(samples, 90.0))


def test_summary_reports_the_median_with_range_and_count():
    assert stats.summary([3.0, 1.0, 2.0, 10.0]) == {"value": 2.5, "min": 1.0, "max": 10.0, "n": 4}


def test_worsening_follows_the_direction():
    assert stats.worsening(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert stats.worsening(100.0, 110.0, "higher") == pytest.approx(-0.10)

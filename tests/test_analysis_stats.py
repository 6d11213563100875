"""Unit tests for stage statistics."""

import numpy as np
import pytest

from repro.analysis.stats import StageStat, stage_slices, stage_stats
from repro.errors import SimulationError


class TestStageSlices:
    def test_divisible(self):
        assert stage_slices(9, 3) == [slice(0, 3), slice(3, 6), slice(6, 9)]

    def test_non_divisible_covers_everything(self):
        slices = stage_slices(10, 3)
        covered = sum(s.stop - s.start for s in slices)
        assert covered == 10
        assert slices[0].start == 0
        assert slices[-1].stop == 10

    def test_fewer_batches_than_stages(self):
        slices = stage_slices(2, 3)
        assert sum(s.stop - s.start for s in slices) == 2

    def test_rejects_empty(self):
        with pytest.raises(SimulationError):
            stage_slices(0)


class TestStageStats:
    def test_basic_means(self):
        series = np.array([[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]])
        stats = stage_stats(series, stages=3)
        assert [s.mean for s in stats] == [1.5, 3.5, 5.5]

    def test_pools_repetitions(self):
        series = np.array([[1.0, 2.0], [3.0, 4.0]])
        stats = stage_stats(series, stages=2)
        assert stats[0].mean == pytest.approx(2.0)  # pools 1 and 3
        assert stats[0].count == 2

    def test_ci_zero_for_single_sample(self):
        stats = stage_stats(np.array([[5.0, 5.0, 5.0]]), stages=3)
        assert all(s.ci == 0.0 for s in stats)

    def test_ci_positive_for_spread(self):
        series = np.array([[1.0, 9.0, 1.0, 9.0, 1.0, 9.0]])
        stats = stage_stats(series, stages=1)
        assert stats[0].ci > 0

    def test_1d_series_accepted(self):
        stats = stage_stats(np.array([1.0, 2.0, 3.0]), stages=3)
        assert len(stats) == 3

    def test_short_series_reuses_last_stage(self):
        stats = stage_stats(np.array([[1.0, 2.0]]), stages=3)
        assert len(stats) == 3  # last stage borrowed


class TestOverlap:
    def test_overlapping(self):
        a = StageStat(mean=1.0, ci=0.5, count=10)
        b = StageStat(mean=1.4, ci=0.2, count=10)
        assert a.overlaps(b) and b.overlaps(a)

    def test_disjoint(self):
        a = StageStat(mean=1.0, ci=0.1, count=10)
        b = StageStat(mean=2.0, ci=0.1, count=10)
        assert not a.overlaps(b)

    def test_bounds(self):
        stat = StageStat(mean=2.0, ci=0.5, count=4)
        assert stat.low == 1.5
        assert stat.high == 2.5

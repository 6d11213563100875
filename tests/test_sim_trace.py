"""Unit tests for trace recording and sampling."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim.trace import MemoryTrace, NullRecorder, TraceRecorder


class TestTraceRecorder:
    def test_records_accesses(self):
        recorder = TraceRecorder()
        recorder.begin_task(3)
        recorder.access(100)
        recorder.access(200, write=True)
        trace = recorder.finalize()
        assert len(trace) == 2
        assert list(trace.task_ids) == [3, 3]
        assert list(trace.addresses) == [100, 200]
        assert list(trace.is_write) == [False, True]

    def test_access_range(self):
        recorder = TraceRecorder()
        recorder.access_range(base=64, count=4, stride=8)
        trace = recorder.finalize()
        assert list(trace.addresses) == [64, 72, 80, 88]

    def test_task_attribution_switches(self):
        recorder = TraceRecorder()
        recorder.begin_task(0)
        recorder.access(1)
        recorder.begin_task(1)
        recorder.access(2)
        trace = recorder.finalize()
        assert list(trace.task_ids) == [0, 1]

    def test_read_write_counts(self):
        recorder = TraceRecorder()
        recorder.access(1)
        recorder.access(2, write=True)
        recorder.access(3, write=True)
        trace = recorder.finalize()
        assert len(trace) - trace.write_count == 1
        assert trace.write_count == 2

    def test_len(self):
        recorder = TraceRecorder()
        assert len(recorder) == 0
        recorder.access(5)
        assert len(recorder) == 1

    def test_arrays_and_calls_keep_their_order(self):
        """``extend`` (a kernel's resolved access log) between per-access
        calls: everything comes out in the order it went in."""
        recorder = TraceRecorder()
        recorder.begin_task(7)
        recorder.access(10)
        recorder.extend(
            np.array([0, 1]), np.array([20, 30]), np.array([True, False])
        )
        recorder.access_range(40, 2, 8, write=True)
        assert len(recorder) == 5
        trace = recorder.finalize()
        assert trace.task_ids.tolist() == [7, 0, 1, 7, 7]
        assert trace.addresses.tolist() == [10, 20, 30, 40, 48]
        assert trace.is_write.tolist() == [False, True, False, True, True]
        assert trace.task_ids.dtype == trace.addresses.dtype == np.int64
        assert trace.is_write.dtype == bool

    def test_nothing_recorded(self):
        trace = TraceRecorder().finalize()
        assert len(trace) == 0
        assert trace.addresses.dtype == np.int64 and trace.is_write.dtype == bool


class TestNullRecorder:
    def test_interface_is_noop(self):
        recorder = NullRecorder()
        recorder.begin_task(1)
        recorder.access(100)
        recorder.access_range(0, 10, 8)
        assert len(recorder) == 0
        assert recorder.finalize() is None


class TestSampling:
    def _trace(self, n):
        return MemoryTrace(
            task_ids=np.arange(n, dtype=np.int64),
            addresses=np.arange(n, dtype=np.int64) * 64,
            is_write=np.zeros(n, dtype=bool),
        )

    def test_no_sampling_when_small(self):
        trace = self._trace(10)
        assert trace.sample(100) is trace

    def test_sample_size(self):
        sampled = self._trace(1000).sample(100)
        assert len(sampled) == 100

    def test_sample_preserves_order(self):
        sampled = self._trace(1000).sample(50)
        assert np.all(np.diff(sampled.addresses) >= 0)

    def test_sample_deterministic(self):
        trace = self._trace(1000)
        first = trace.sample(100, seed=1)
        second = trace.sample(100, seed=1)
        assert np.array_equal(first.addresses, second.addresses)

    @pytest.mark.parametrize("cap", [0, -1])
    def test_cap_below_one_rejected(self, cap):
        """0 used to divide by zero, -1 to return an empty trace."""
        with pytest.raises(SimulationError, match="max_accesses"):
            self._trace(10).sample(cap)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            MemoryTrace(
                task_ids=np.zeros(2, dtype=np.int64),
                addresses=np.zeros(3, dtype=np.int64),
                is_write=np.zeros(3, dtype=bool),
            )

"""Tests for the shared-memory edge-stream transport (streaming.shm)."""

import multiprocessing
import os
import pickle

import numpy as np
import pytest

from repro.engine import run_stream
from repro.obs import METRICS
from repro.streaming import StreamConfig
from repro.streaming import shm
from tests.conftest import random_batch


@pytest.fixture
def published():
    stream = shm.SharedEdgeStream.publish(random_batch(100, 400, seed=1))
    try:
        yield stream
    finally:
        shm.detach_all()
        stream.close()
        stream.unlink()


def _attach_and_exit(handle, expected_sum, code):
    """Worker body: attach, verify content, then die without cleanup."""
    batch = shm.attach(handle)
    if int(batch.src.sum()) != expected_sum:
        os._exit(99)
    os._exit(code)


class TestLifecycle:
    def test_publish_attach_round_trip(self, published):
        batch = random_batch(100, 400, seed=1)
        attached = shm.attach(published.handle)
        assert np.array_equal(attached.src, batch.src)
        assert np.array_equal(attached.dst, batch.dst)
        assert np.array_equal(attached.weight, batch.weight)

    def test_parent_view_is_zero_copy(self, published):
        batch = random_batch(100, 400, seed=1)
        assert np.array_equal(published.batch.src, batch.src)

    def test_handle_is_picklable(self, published):
        handle = pickle.loads(pickle.dumps(published.handle))
        assert handle == published.handle
        assert handle.edges == 400

    def test_attach_is_cached_per_process(self, published):
        first = shm.attach(published.handle)
        second = shm.attach(published.handle)
        assert first is second

    def test_empty_stream(self):
        stream = shm.SharedEdgeStream.publish(
            random_batch(10, 5, seed=0).slice(0, 0)
        )
        try:
            assert len(shm.attach(stream.handle)) == 0
        finally:
            shm.detach_all()
            stream.close()
            stream.unlink()

    def test_unlink_is_idempotent(self):
        stream = shm.SharedEdgeStream.publish(random_batch(10, 5, seed=0))
        stream.close()
        stream.unlink()
        stream.unlink()  # second call must be a no-op, not an error

    def test_worker_crash_leaves_segment_intact(self, published):
        """A dying worker must not unlink the parent's segment."""
        expected = int(random_batch(100, 400, seed=1).src.sum())
        worker = multiprocessing.Process(
            target=_attach_and_exit, args=(published.handle, expected, 3)
        )
        worker.start()
        worker.join()
        assert worker.exitcode == 3
        # The parent (and any sibling) can still attach and read.
        attached = shm.attach(published.handle)
        assert int(attached.src.sum()) == expected

    def test_spawned_worker_exit_leaves_segment_intact(self, published):
        """Clean exit of a spawn worker must not unlink the segment.

        CPython < 3.13 registers mere attachments with the per-process
        resource tracker, so a spawn worker exiting would tear the
        segment down if attach() did not bypass the tracker.
        """
        expected = int(random_batch(100, 400, seed=1).src.sum())
        worker = multiprocessing.get_context("spawn").Process(
            target=_attach_and_exit, args=(published.handle, expected, 0)
        )
        worker.start()
        worker.join()
        assert worker.exitcode == 0
        attached = shm.attach(published.handle)
        assert int(attached.src.sum()) == expected


class TestGate:
    def test_enabled_by_default(self):
        """Observed, not set: on wherever POSIX shared memory exists."""
        pytest.importorskip("_posixshmem")
        assert shm.shm_enabled()


class TestMetrics:
    def test_segment_gauge_tracks_publish_and_unlink(self):
        METRICS.reset()
        METRICS.enable()
        try:
            stream = shm.SharedEdgeStream.publish(random_batch(10, 20, seed=2))
            high = METRICS.value("shm_segments_active")
            stream.close()
            stream.unlink()
            low = METRICS.value("shm_segments_active")
            assert high == low + 1
        finally:
            METRICS.disable()
            METRICS.reset()


class TestSweepTransport:
    CONFIG = dict(
        batch_size=500,
        structures=("DAH",),
        algorithms=("PR",),
        models=("INC",),
        repetitions=2,
    )

    def test_parallel_results_identical_with_and_without_shm(self, monkeypatch):
        """Transport must be invisible: shm off and on give one result."""
        with monkeypatch.context() as no_shm:
            no_shm.setattr(shm, "shm_enabled", lambda: False)
            without = run_stream(
                "Talk", StreamConfig(**self.CONFIG), size_factor=0.1, jobs=2
            )
        with_shm = run_stream(
            "Talk", StreamConfig(**self.CONFIG), size_factor=0.1, jobs=2
        )
        meta_a, arrays_a = without.to_payload()
        meta_b, arrays_b = with_shm.to_payload()
        assert meta_a == meta_b
        for key in arrays_a:
            assert np.array_equal(arrays_a[key], arrays_b[key])

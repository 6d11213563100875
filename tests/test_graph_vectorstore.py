"""Unit tests for the adjacency vector store's per-edge methods."""

import pytest

from repro.graph.nativestore import NativeVectorStore
from repro.graph.vectorstore import INITIAL_CAPACITY
from repro.sim.memory import AddressSpace
from repro.sim.trace import NullRecorder, TraceRecorder


def store(max_nodes=8):
    return NativeVectorStore(max_nodes, AddressSpace(), "test", None)


class TestInsert:
    def test_insert_new(self):
        s = store()
        outcome = s.insert(0, 1, 2.0, NullRecorder())
        assert outcome.inserted
        assert outcome.scanned == 0
        assert s.neighbors(0) == [(1, 2.0)]

    def test_duplicate_scans_to_position(self):
        s = store()
        recorder = NullRecorder()
        for v in range(5):
            s.insert(0, v, 1.0, recorder)
        outcome = s.insert(0, 2, 1.0, recorder)
        assert not outcome.inserted
        assert outcome.scanned == 3  # entries 0, 1, 2

    def test_negative_search_scans_all(self):
        s = store()
        recorder = NullRecorder()
        for v in range(5):
            s.insert(0, v, 1.0, recorder)
        outcome = s.insert(0, 99, 1.0, recorder)
        assert outcome.inserted
        assert outcome.scanned == 5

    def test_growth_at_powers_of_two(self):
        s = store()
        recorder = NullRecorder()
        grew = []
        for v in range(20):
            outcome = s.insert(0, v, 1.0, recorder)
            if outcome.grew_from or v == 0:
                grew.append((v, outcome.grew_from))
        # Grows at 0 (alloc), then when full at 4, 8, 16 elements.
        assert grew == [(0, 0), (4, 4), (8, 8), (16, 16)]

    def test_degree(self):
        s = store()
        recorder = NullRecorder()
        for v in range(7):
            s.insert(1, v, 1.0, recorder)
        assert s.degree(1) == 7
        assert s.degree(0) == 0


class TestTrace:
    def test_insert_traces_header_scan_and_write(self):
        s = store()
        recorder = TraceRecorder()
        s.insert(0, 1, 1.0, recorder)
        s.insert(0, 2, 1.0, recorder)
        trace = recorder.finalize()
        assert trace.write_count == 2  # the two inserted slots
        assert len(trace) - trace.write_count >= 2  # headers + scan

    def test_traversal_trace_covers_vector(self):
        s = store()
        recorder = NullRecorder()
        for v in range(6):
            s.insert(0, v, 1.0, recorder)
        tracer = TraceRecorder()
        s.trace_traversal(0, tracer)
        trace = tracer.finalize()
        assert len(trace) == 1 + 6  # header + entries

    def test_memory_freed_on_growth(self):
        space = AddressSpace()
        s = NativeVectorStore(4, space, "grow", None)
        recorder = NullRecorder()
        for v in range(INITIAL_CAPACITY * 8):
            s.insert(0, v, 1.0, recorder)
        # Live bytes reflect only the current capacity, not old copies.
        live_vec = space.live_bytes_for("grow.vec")
        assert live_vec == s._capacity[0] * 8

"""Tests for the multi-snapshot store."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import get_algorithm
from repro.errors import StructureError
from repro.graph import EdgeBatch, ReferenceGraph
from repro.graph.snapshots import SnapshotStore
from tests.conftest import random_batch


class TestCommitAndView:
    def test_snapshot_ids_sequential(self):
        store = SnapshotStore(10)
        assert store.commit(EdgeBatch.from_edges([(0, 1)])) == 0
        assert store.commit(EdgeBatch.from_edges([(1, 2)])) == 1
        assert store.num_snapshots == 2

    def test_views_are_frozen_in_time(self):
        store = SnapshotStore(10)
        store.commit(EdgeBatch.from_edges([(0, 1)]))
        store.commit(EdgeBatch.from_edges([(0, 2), (2, 3)]))
        early = store.snapshot(0)
        late = store.snapshot(1)
        assert dict(early.out_neigh(0)) == {1: 1.0}
        assert dict(late.out_neigh(0)) == {1: 1.0, 2: 1.0}
        assert early.num_edges == 1
        assert late.num_edges == 3
        assert early.out_degree(2) == 0
        assert late.out_degree(2) == 1

    def test_in_neighbors_per_snapshot(self):
        store = SnapshotStore(10)
        store.commit(EdgeBatch.from_edges([(0, 5)]))
        store.commit(EdgeBatch.from_edges([(1, 5)]))
        assert dict(store.snapshot(0).in_neigh(5)) == {0: 1.0}
        assert dict(store.snapshot(1).in_neigh(5)) == {0: 1.0, 1: 1.0}

    def test_undirected(self):
        store = SnapshotStore(4, directed=False)
        store.commit(EdgeBatch.from_edges([(0, 1)]))
        view = store.latest()
        assert dict(view.out_neigh(1)) == {0: 1.0}
        assert dict(view.in_neigh(0)) == {1: 1.0}

    def test_duplicates_not_stored_twice(self):
        store = SnapshotStore(4)
        store.commit(EdgeBatch.from_edges([(0, 1, 2.0)]))
        store.commit(EdgeBatch.from_edges([(0, 1, 9.0)]))
        assert dict(store.latest().out_neigh(0)) == {1: 2.0}
        assert store.latest().num_edges == 1

    def test_node_count_grows(self):
        store = SnapshotStore(100)
        store.commit(EdgeBatch.from_edges([(0, 1)]))
        store.commit(EdgeBatch.from_edges([(50, 51)]))
        assert store.snapshot(0).num_nodes == 2
        assert store.snapshot(1).num_nodes == 52

    def test_errors(self):
        store = SnapshotStore(4)
        with pytest.raises(StructureError):
            store.latest()
        with pytest.raises(StructureError):
            store.snapshot(0)
        store.commit(EdgeBatch.from_edges([(0, 1)]))
        with pytest.raises(StructureError):
            store.snapshot(1)
        with pytest.raises(StructureError):
            store.commit(EdgeBatch.from_edges([(0, 99)]))
        with pytest.raises(StructureError):
            SnapshotStore(0)

    def test_history(self):
        store = SnapshotStore(10)
        store.commit(EdgeBatch.from_edges([(0, 1)]))
        store.commit(EdgeBatch.from_edges([(2, 3), (3, 4)]))
        assert store.history() == [(0, 2, 1), (1, 5, 3)]


class TestAlgorithmsOnSnapshots:
    def test_fs_algorithms_run_on_views(self):
        store = SnapshotStore(60)
        batches = [random_batch(60, 120, seed=s) for s in range(3)]
        for batch in batches:
            store.commit(batch)
        for name in ("BFS", "CC", "PR", "SSSP", "SSWP"):
            run = get_algorithm(name).fs_run(store.latest(), source=0)
            assert run.iteration_count >= 1

    def test_snapshot_equals_prefix_replay(self):
        """Snapshot t == a reference graph fed the first t+1 batches."""
        store = SnapshotStore(40)
        batches = [random_batch(40, 80, seed=s) for s in range(4)]
        references = []
        reference = ReferenceGraph(40, directed=True)
        for batch in batches:
            store.commit(batch)
            reference.update(batch)
            references.append(
                {v: dict(reference.out_neigh(v)) for v in range(reference.num_nodes)}
            )
        for t, expected in enumerate(references):
            view = store.snapshot(t)
            for v, neighbors in expected.items():
                assert dict(view.out_neigh(v)) == neighbors

    def test_historical_values_differ_from_latest(self):
        store = SnapshotStore(40)
        store.commit(random_batch(40, 60, seed=1))
        store.commit(random_batch(40, 200, seed=2))
        cc = get_algorithm("CC")
        early = cc.fs_run(store.snapshot(0)).values
        late = cc.fs_run(store.snapshot(1)).values
        n = store.snapshot(0).num_nodes
        # A denser graph merges components: labels only decrease.
        assert (late[:n] <= early[:n]).all()
        assert (late[:n] < early[:n]).any()


def test_rejected_batch_leaves_no_edge():
    """A batch with an out-of-range vertex is refused whole: the edges
    before the bad one reach neither the live graph nor a later snapshot."""
    store = SnapshotStore(4)
    store.commit(EdgeBatch.from_edges([(0, 1)]))
    with pytest.raises(StructureError):
        store.commit(EdgeBatch.from_edges([(1, 2), (0, 99)]))
    store.commit(EdgeBatch.from_edges([(2, 3)]))
    assert store.history() == [(0, 2, 1), (1, 4, 2)]
    assert store.snapshot(1).out_neigh(1) == []


ALGORITHMS = ("BFS", "CC", "MC", "PR", "SSSP", "SSWP")


@given(
    directed=st.booleans(),
    batches=st.lists(
        st.lists(
            st.tuples(
                st.integers(0, 9), st.integers(0, 9), st.sampled_from([0.5, 1.0, 3.0])
            ),
            min_size=1,
            max_size=25,
        ),
        min_size=1,
        max_size=5,
    ),
)
@settings(max_examples=40, deadline=None)
def test_property_every_snapshot_is_a_prefix(directed, batches):
    """Snapshot t has the rows, in order and with weights, of a reference
    graph fed batches 0..t one at a time; the last one runs every
    algorithm to the same bits.  Each batch also carries duplicates with
    another weight, reversed pairs and a self-loop."""
    store = SnapshotStore(10, directed=directed)
    reference = ReferenceGraph(10, directed=directed)
    prefixes = []
    for edges in batches:
        u0 = edges[0][0]
        edges = (
            edges
            + [(v, u, w * 2.0) for u, v, w in edges[::2]]
            + [(u, v, w + 1.0) for u, v, w in edges[::3]]
            + [(u0, u0, 1.0)]
        )
        batch = EdgeBatch.from_edges(edges)
        store.commit(batch)
        reference.update(batch)
        prefixes.append(_rows(reference))
    for t, expected in enumerate(prefixes):
        assert _rows(store.snapshot(t)) == expected
    last = store.latest()
    for name in ALGORITHMS:
        algorithm = get_algorithm(name)
        got = algorithm.fs_run(last, source=0).values
        want = algorithm.fs_run(reference, source=0).values
        assert got.tobytes() == want.tobytes(), name


def _rows(graph):
    """Everything a run reads of ``graph``, rows in iteration order."""
    return (
        graph.num_nodes,
        graph.num_edges,
        [graph.out_neigh(v) for v in range(10)],
        [graph.in_neigh(v) for v in range(10)],
    )

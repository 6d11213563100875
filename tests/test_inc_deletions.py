"""Sound incremental computation over deletions (KickStarter-style).

Plain Algorithm 1 is insertion-only; these tests verify the
invalidation extension keeps INC exactly equal to FS through arbitrary
interleavings of insert and delete batches -- including the adversarial
case of stale values surviving through cycles of mutual support.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import get_algorithm
from repro.compute import ckernels
from repro.compute.kernels import invalidate_frontier
from repro.graph import EdgeBatch, ReferenceGraph
from tests.conftest import random_batch
from tests.test_compute_ckernels import (
    LOOP_ENGINE,
    _engine,
    _view_from_edges,
    needs_ckernels,
)

MONOTONE = ("BFS", "CC", "MC", "SSSP", "SSWP")
SOURCE = 0


def invalidate(reference, values, removed, algorithm, pinned=()):
    """The product invalidation over a removed-edge list; tainted ids."""
    removed = EdgeBatch.from_edges(list(removed))
    tainted = invalidate_frontier(
        reference.compute_view(), values, removed.src, removed.dst, removed.weight,
        algorithm.supports_batch, algorithm.init_value, pinned=pinned,
    )
    return set(tainted.tolist())


def canonical(values):
    return np.nan_to_num(values, posinf=-1.0)


def assert_matches_fs(algorithm, state, reference):
    expected = algorithm.fs_run(reference, source=SOURCE).values
    n = reference.num_nodes
    assert np.array_equal(
        canonical(state.values[:n]), canonical(expected[:n])
    ), algorithm.name


class TestCycleStaleness:
    """The case plain recomputation gets wrong: mutual support."""

    def _setup(self, name):
        algorithm = get_algorithm(name)
        reference = ReferenceGraph(6, directed=True)
        # source 0 feeds a cycle 1 -> 2 -> 3 -> 1.
        batch = EdgeBatch.from_edges(
            [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 1, 1.0)]
        )
        reference.update(batch)
        state = algorithm.make_state(6)
        algorithm.inc_run(
            reference, state, algorithm.affected_from_batch(batch, reference),
            source=SOURCE,
        )
        return algorithm, reference, state

    @pytest.mark.parametrize("name", ["BFS", "CC", "SSSP"])
    def test_cut_cycle_from_source(self, name):
        algorithm, reference, state = self._setup(name)
        removed = reference.delete_collect(EdgeBatch.from_edges([(0, 1)]))
        algorithm.inc_delete_run(reference, state, removed, source=SOURCE)
        assert_matches_fs(algorithm, state, reference)
        # The cycle is now unreachable: its values must be the initial
        # ones, not the stale mutually-supported ones.
        if name == "BFS" or name == "SSSP":
            assert np.isinf(state.values[1])
            assert np.isinf(state.values[2])
        if name == "CC":
            assert state.values[1] == 1  # own label, not 0's

    def test_plain_inc_run_would_be_stale(self):
        """Demonstrate why the invalidation is needed at all."""
        algorithm, reference, state = self._setup("CC")
        removed = reference.delete_collect(EdgeBatch.from_edges([(0, 1)]))
        # Plain Algorithm 1 over the endpoints: the cycle's vertices
        # keep vouching for label 0.
        algorithm.inc_run(reference, state, {0, 1}, source=SOURCE)
        assert state.values[1] == 0  # stale!
        # The deletion-aware run repairs it.
        algorithm.inc_delete_run(reference, state, removed, source=SOURCE)
        assert state.values[1] == 1


@pytest.mark.parametrize("name", MONOTONE)
@pytest.mark.parametrize("directed", [True, False])
def test_interleaved_stream_matches_fs(name, directed):
    algorithm = get_algorithm(name)
    reference = ReferenceGraph(50, directed=directed)
    state = algorithm.make_state(50)
    for round_index in range(5):
        batch = random_batch(50, 120, seed=round_index)
        reference.update(batch)
        algorithm.inc_run(
            reference, state, algorithm.affected_from_batch(batch, reference),
            source=SOURCE,
        )
        victims = batch.slice(0, 50)
        removed = reference.delete_collect(victims)
        algorithm.inc_delete_run(reference, state, removed, source=SOURCE)
        assert_matches_fs(algorithm, state, reference)


def test_pr_fallback_tracks_fs():
    algorithm = get_algorithm("PR")
    reference = ReferenceGraph(50, directed=True)
    state = algorithm.make_state(50)
    for round_index in range(4):
        batch = random_batch(50, 150, seed=round_index)
        reference.update(batch)
        algorithm.inc_run(
            reference, state, algorithm.affected_from_batch(batch, reference)
        )
        removed = reference.delete_collect(batch.slice(0, 50))
        algorithm.inc_delete_run(reference, state, removed)
    expected = algorithm.fs_run(reference).values
    n = reference.num_nodes
    real = [v for v in range(n) if reference.in_degree(v) or reference.out_degree(v)]
    assert np.allclose(state.values[real], expected[real], atol=1e-3)


class TestInvalidation:
    def test_unsupported_deletion_invalidates_nothing(self):
        reference = ReferenceGraph(4, directed=True)
        reference.update(EdgeBatch.from_edges([(0, 1), (2, 1)]))
        values = np.array([0.0, 1.0, 0.0, np.inf])
        removed = reference.delete_collect(EdgeBatch.from_edges([(2, 1)]))
        # 1's depth (1.0) was not derived via (2, 1) under BFS support
        # (it equals 0's depth + 1, and 2's too -- so it IS flagged).
        bfs = get_algorithm("BFS")
        tainted = invalidate(reference, values, removed, bfs, pinned={0})
        assert 1 in tainted  # conservatively flagged (both supported)

    def test_pinned_source_never_reset(self):
        reference = ReferenceGraph(3, directed=True)
        reference.update(EdgeBatch.from_edges([(1, 0)]))
        values = np.array([0.0, 5.0, np.inf])
        removed = [(1, 0, 1.0)]
        bfs = get_algorithm("BFS")
        tainted = invalidate(reference, values, removed, bfs, pinned={0})
        assert 0 not in tainted
        assert values[0] == 0.0

    def test_requires_source_for_single_source(self):
        from repro.errors import SimulationError

        algorithm = get_algorithm("BFS")
        reference = ReferenceGraph(3, directed=True)
        state = algorithm.make_state(3)
        with pytest.raises(SimulationError):
            algorithm.inc_delete_run(reference, state, [(0, 1, 1.0)])


@given(
    inserts=st.lists(
        st.tuples(st.integers(0, 11), st.integers(0, 11), st.integers(1, 4)),
        min_size=2,
        max_size=60,
    ),
    delete_count=st.integers(0, 30),
    name=st.sampled_from(MONOTONE),
)
@settings(max_examples=60, deadline=None)
def test_property_delete_prefix_matches_fs(inserts, delete_count, name):
    """Insert a batch, delete a random prefix: INC == FS."""
    algorithm = get_algorithm(name)
    reference = ReferenceGraph(12, directed=True)
    state = algorithm.make_state(12)
    batch = EdgeBatch.from_edges([(u, v, float(w)) for u, v, w in inserts])
    reference.update(batch)
    algorithm.inc_run(
        reference, state, algorithm.affected_from_batch(batch, reference),
        source=SOURCE,
    )
    victims = batch.slice(0, min(delete_count, len(batch)))
    removed = reference.delete_collect(victims)
    algorithm.inc_delete_run(reference, state, removed, source=SOURCE)
    assert_matches_fs(algorithm, state, reference)


class TestInvalidationEdgeCases:
    def test_no_deleted_edges_invalidates_nothing(self):
        reference = ReferenceGraph(4, directed=True)
        reference.update(EdgeBatch.from_edges([(0, 1)]))
        values = np.array([0.0, 1.0, np.inf, np.inf])
        bfs = get_algorithm("BFS")
        tainted = invalidate(reference, values, [], bfs)
        assert tainted == set()
        assert values[1] == 1.0

    def test_inc_delete_run_with_empty_removed_list(self):
        algorithm = get_algorithm("CC")
        reference = ReferenceGraph(4, directed=True)
        reference.update(EdgeBatch.from_edges([(0, 1)]))
        state = algorithm.make_state(4)
        algorithm.inc_run(reference, state, {0, 1})
        run = algorithm.inc_delete_run(reference, state, [])
        assert run.model == "INC"
        assert state.values[1] == 0.0

    def test_undirected_deletion_checks_both_orientations(self):
        algorithm = get_algorithm("CC")
        reference = ReferenceGraph(4, directed=False)
        batch = EdgeBatch.from_edges([(0, 1), (1, 2)])
        reference.update(batch)
        state = algorithm.make_state(4)
        algorithm.inc_run(reference, state, {0, 1, 2})
        removed = reference.delete_collect(EdgeBatch.from_edges([(0, 1)]))
        algorithm.inc_delete_run(reference, state, removed)
        assert_matches_fs(algorithm, state, reference)
        assert state.values[1] == 1.0  # 1-2 component keeps min label 1


def _closure(edges, num_nodes, flagged, pinned):
    """``invalidate_frontier`` with every deletion target flagged.

    ``flagged`` are the targets of the (already removed) deleted edges;
    the always-true derivation test makes each of them a root, so the
    result is the forward closure alone.  Returns the tainted ids and
    the value array (tainted vertices reset to -1).
    """
    src = np.array([u for u, _ in edges], dtype=np.int64)
    dst = np.array([v for _, v in edges], dtype=np.int64)
    cv = _view_from_edges(src, dst, np.ones(len(edges)), num_nodes)
    values = np.arange(num_nodes, dtype=np.float64)
    roots = np.asarray(flagged, dtype=np.int64)
    ids = invalidate_frontier(
        cv,
        values,
        np.zeros(roots.size, dtype=np.int64),
        roots,
        np.ones(roots.size),
        lambda src_values, weights, dst_values: np.ones(weights.size, dtype=bool),
        lambda ids: np.full(ids.size, -1.0),
        pinned=pinned,
    )
    return ids.tolist(), values.tolist()


@needs_ckernels
class TestTaintClosure:
    """``saga_taint_closure`` against the numpy closure loop."""

    #: 0 is the pinned source; 1 -> 2 -> 3 -> 1 is a cycle reached from
    #: 0 and leading back into it; 4 has a self-loop and feeds 5, which
    #: has no out-edges; 6 is isolated.
    EDGES = [(0, 1), (1, 2), (2, 3), (3, 1), (3, 0), (4, 4), (4, 5)]

    @pytest.mark.parametrize(
        "flagged, expected",
        [
            ([1], [1, 2, 3]),  # around the cycle, never into the pinned 0
            ([4], [4, 5]),  # a self-loop terminates
            ([5], [5]),  # zero-out-degree root: itself only
            ([5, 6, 2], [1, 2, 3, 5, 6]),
            ([0], []),  # a pinned target is never a root
            ([], []),  # nothing flagged, nothing reset
        ],
    )
    def test_matches_numpy_loop(self, flagged, expected):
        """Fails when the kernel ignores the pinned mask (0 joins every
        closure through 3 -> 0), stops after the roots' own out-rows
        (the cycle is cut short), or re-queues a tainted vertex (the
        self-loop overruns the work buffer)."""
        with _engine(LOOP_ENGINE):
            numpy_ids, numpy_values = _closure(self.EDGES, 7, flagged, pinned=(0,))
        with _engine(None):
            assert ckernels.get() is not None
            ids, values = _closure(self.EDGES, 7, flagged, pinned=(0,))
        assert ids == numpy_ids == expected
        assert values == numpy_values
        assert [v for v in range(7) if values[v] == -1.0] == expected

    @given(
        edges=st.lists(
            st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=60
        ),
        flagged=st.lists(st.integers(0, 15), max_size=6),
        pinned=st.lists(st.integers(0, 15), max_size=2),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_matches_numpy_loop(self, edges, flagged, pinned):
        """Random multigraphs, roots and pinned sets (same mutations)."""
        with _engine(LOOP_ENGINE):
            expected = _closure(edges, 16, flagged, pinned)
        with _engine(None):
            assert _closure(edges, 16, flagged, pinned) == expected

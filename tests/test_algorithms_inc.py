"""Incremental-model correctness: INC must agree with FS on any stream.

The defining property of Algorithm 1 (amortization + selective
triggering) is that after every batch, the incremental values equal a
from-scratch recomputation on the current graph -- exactly for the
monotone algorithms, and within the triggering threshold for PR.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import get_algorithm
from repro.errors import SimulationError
from repro.graph import EdgeBatch, ReferenceGraph
from tests.conftest import random_batch

EXACT_ALGORITHMS = ("BFS", "CC", "MC", "SSSP", "SSWP")
SOURCE = 0


def stream(reference, algorithm, batches, source=SOURCE):
    """Feed batches through INC, yielding values after each batch."""
    state = algorithm.make_state(reference.max_nodes)
    for batch in batches:
        reference.update(batch)
        affected = algorithm.affected_from_batch(batch, reference)
        algorithm.inc_run(reference, state, affected, source=source)
        yield state.values


@pytest.mark.parametrize("name", EXACT_ALGORITHMS)
@pytest.mark.parametrize("directed", [True, False])
def test_inc_equals_fs_over_stream(name, directed):
    algorithm = get_algorithm(name)
    reference = ReferenceGraph(60, directed=directed)
    batches = [random_batch(60, 150, seed=s) for s in range(5)]
    for values in stream(reference, algorithm, batches):
        expected = algorithm.fs_run(reference, source=SOURCE).values
        n = reference.num_nodes
        assert np.array_equal(
            np.nan_to_num(values[:n], posinf=-1.0),
            np.nan_to_num(expected[:n], posinf=-1.0),
        ), f"{name} diverged"


def test_pr_inc_tracks_fs_on_real_vertices():
    algorithm = get_algorithm("PR")
    reference = ReferenceGraph(60, directed=True)
    batches = [random_batch(60, 150, seed=s) for s in range(5)]
    for values in stream(reference, algorithm, batches):
        expected = algorithm.fs_run(reference, source=SOURCE).values
        n = reference.num_nodes
        real = [
            v for v in range(n) if reference.in_degree(v) or reference.out_degree(v)
        ]
        assert np.allclose(values[real], expected[real], atol=1e-4)


def test_pr_inc_preserves_ranking():
    algorithm = get_algorithm("PR")
    reference = ReferenceGraph(60, directed=True)
    batch = random_batch(60, 400, seed=9)
    state = algorithm.make_state(60)
    reference.update(batch)
    algorithm.inc_run(
        reference, state, algorithm.affected_from_batch(batch, reference)
    )
    expected = algorithm.fs_run(reference).values
    n = reference.num_nodes
    top_inc = np.argsort(state.values[:n])[-5:]
    top_fs = np.argsort(expected[:n])[-5:]
    assert set(top_inc) == set(top_fs)


class TestIncBehaviors:
    def test_empty_affected_set_is_noop(self):
        algorithm = get_algorithm("CC")
        reference = ReferenceGraph(10, directed=True)
        reference.update(EdgeBatch.from_edges([(0, 1)]))
        state = algorithm.make_state(10)
        run = algorithm.inc_run(reference, state, affected=[])
        assert run.iteration_count == 0

    def test_single_source_requires_source(self):
        algorithm = get_algorithm("BFS")
        reference = ReferenceGraph(4, directed=True)
        reference.update(EdgeBatch.from_edges([(0, 1)]))
        state = algorithm.make_state(4)
        with pytest.raises(SimulationError):
            algorithm.inc_run(reference, state, affected=[0, 1])

    def test_second_identical_batch_converges_fast(self):
        """Re-sending ingested edges triggers no value change rounds."""
        algorithm = get_algorithm("CC")
        reference = ReferenceGraph(30, directed=True)
        batch = random_batch(30, 80, seed=2)
        state = algorithm.make_state(30)
        reference.update(batch)
        algorithm.inc_run(
            reference, state, algorithm.affected_from_batch(batch, reference)
        )
        reference.update(batch)  # all duplicates
        run = algorithm.inc_run(
            reference, state, algorithm.affected_from_batch(batch, reference)
        )
        # One evaluation round, nothing triggered beyond it.
        assert run.iteration_count <= 1
        if run.iterations:
            assert len(run.iterations[0].push_vertices) == 0

    def test_processing_amortization_reuses_values(self):
        """INC touches far fewer vertices than FS on a small delta."""
        algorithm = get_algorithm("CC")
        reference = ReferenceGraph(100, directed=True)
        big = random_batch(100, 600, seed=5)
        state = algorithm.make_state(100)
        reference.update(big)
        algorithm.inc_run(
            reference, state, algorithm.affected_from_batch(big, reference)
        )
        tiny = EdgeBatch.from_edges([(3, 4)])
        reference.update(tiny)
        inc = algorithm.inc_run(
            reference, state, algorithm.affected_from_batch(tiny, reference)
        )
        fs = algorithm.fs_run(reference)
        assert inc.total_evaluations < fs.total_evaluations / 5

    def test_affected_default_covers_endpoints(self):
        algorithm = get_algorithm("CC")
        batch = EdgeBatch.from_edges([(1, 2), (3, 4)])
        reference = ReferenceGraph(10, directed=True)
        reference.update(batch)
        assert algorithm.affected_from_batch(batch, reference).tolist() == [1, 2, 3, 4]

    def test_pr_affected_covers_source_out_neighbors(self):
        algorithm = get_algorithm("PR")
        reference = ReferenceGraph(10, directed=True)
        reference.update(EdgeBatch.from_edges([(0, 5), (0, 6)]))
        batch = EdgeBatch.from_edges([(0, 7)])
        reference.update(batch)
        affected = algorithm.affected_from_batch(batch, reference)
        # 0's out-degree changed, so 5 and 6 see a renormalized term.
        assert {0, 5, 6, 7} <= set(affected.tolist())


@given(
    first=st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=1, max_size=60),
    second=st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=1, max_size=60),
    name=st.sampled_from(EXACT_ALGORITHMS),
)
@settings(max_examples=50, deadline=None)
def test_property_inc_equals_fs(first, second, name):
    """Two arbitrary batches: INC equals FS after each."""
    algorithm = get_algorithm(name)
    reference = ReferenceGraph(13, directed=True)
    batches = [
        EdgeBatch.from_edges([(u, v, 1.0 + (u * v) % 4) for u, v in edges])
        for edges in (first, second)
    ]
    for values in stream(reference, algorithm, batches):
        expected = algorithm.fs_run(reference, source=SOURCE).values
        n = reference.num_nodes
        assert np.array_equal(
            np.nan_to_num(values[:n], posinf=-1.0),
            np.nan_to_num(expected[:n], posinf=-1.0),
        )

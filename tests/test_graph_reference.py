"""The columnar live graph against the dict-of-dicts oracle.

``ReferenceGraph`` holds its edges once, as a slack CSR pair whose
rows it also reads membership from; ``tests/oracles.py::DictGraph`` is
the class it replaced, per-edge loops over Python dicts.  Everything a
caller can observe must agree: the collect columns (same rows, same
order, same dtypes, stored weights on delete) and the graph afterwards
(row order from ``out_neigh``/``in_neigh``, degrees, counters, CSR
export of both directions, and the neighbour API of the compute view,
packed or slack).

Each test runs on both sides of ``SAGA_BENCH_NO_NATIVE``: the compiled
lookup and CSR mutators, then their numpy bodies.  Each test's docstring
names the seeded mutation of ``reference.py`` it was checked to fail on.
"""

from __future__ import annotations

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compute.kernels import ComputeView, flat_slots
from repro.datasets.mmapio import open_edge_mmap, write_edge_mmap
from repro.errors import StructureError
from repro.graph import EdgeBatch, ReferenceGraph
from tests.conftest import churn_threshold, on_both_sides
from tests.oracles import DictGraph


def _columns(edges: EdgeBatch):
    assert edges.src.dtype == edges.dst.dtype == np.int64
    assert edges.weight.dtype == np.float64
    return edges.src.tolist(), edges.dst.tolist(), edges.weight.tolist()


def _packed_rows(csr):
    """(degrees, neighbors, weights) of a possibly slack CSR, row-major."""
    slots = flat_slots(csr.indptr[: len(csr.degrees)], csr.degrees)
    return csr.degrees.tolist(), csr.indices[slots].tolist(), csr.weights[slots].tolist()


def _view_rows(view: ComputeView):
    """The compute view's neighbour API, vertex by vertex."""
    live = range(view.num_nodes)
    return (
        [view.out_neigh(v) for v in live],
        [view.in_neigh(v) for v in live],
        [view.out_degree(v) for v in live],
        [view.in_degree(v) for v in live],
        list(view.vertices()),
    )


def _state(graph):
    """Everything the read API shows, in the order it shows it."""
    every = range(graph.max_nodes)
    return (
        graph.num_edges,
        graph.num_nodes,
        [list(graph.out_neigh(v)) for v in every],
        [list(graph.in_neigh(v)) for v in every],
        [graph.out_degree(v) for v in every],
        [graph.in_degree(v) for v in every],
        list(graph.vertices()),
        _packed_rows(ComputeView.of(graph).out_csr),
        _packed_rows(ComputeView.of(graph).in_csr),
        _view_rows(ComputeView.of(graph)),
    )


@st.composite
def _streams(draw):
    """A few insert/delete batches over 2-14 vertices.

    Few vertices make duplicates, self-loops and ids at
    ``max_nodes - 1`` common; an *echo* repeats a row later in its
    batch, same or flipped orientation, with another weight (the two
    orientations of one undirected pair in one batch); lists may be
    empty; ``read`` decides whether the graph is looked at between two
    mutations or only after a run of them.
    """
    n = draw(st.integers(min_value=2, max_value=14))
    vertex = st.integers(min_value=0, max_value=n - 1)
    row = st.tuples(
        vertex,
        vertex,
        st.floats(min_value=0.5, max_value=9.0, allow_nan=False),
        st.sampled_from(["", "", "same", "flipped"]),
    )
    steps = []
    for _ in range(draw(st.integers(min_value=1, max_value=7))):
        edges = []
        for u, v, w, echo in draw(st.lists(row, max_size=30)):
            edges.append((u, v, w))
            if echo:
                edges.append((u, v, w + 1.0) if echo == "same" else (v, u, w + 2.0))
        steps.append((draw(st.booleans()), edges, draw(st.booleans())))
    return n, steps


@settings(deadline=None, max_examples=120)
@given(
    stream=_streams(),
    directed=st.booleans(),
    mapped=st.booleans(),
    churn=st.sampled_from([None, "0", "1e9"]),
)
@on_both_sides
def test_collect_columns_match_per_edge_loops(stream, directed, mapped, churn):
    """Insert/delete streams: same columns out, same graph afterwards.

    Fails on each of: dropping the ``(min, max)`` canonicalisation of
    undirected keys; keeping the last instead of the first in-batch
    occurrence; returning the batch's weight instead of the stored one
    on delete; skipping the apply when a batch keeps a single row.
    """
    n, steps = stream
    with churn_threshold(churn), tempfile.TemporaryDirectory() as scratch:
        live = ReferenceGraph(n, directed=directed)
        oracle = DictGraph(n, directed=directed)
        for step, (delete, edges, read) in enumerate(steps):
            batch = EdgeBatch.from_edges(edges)
            if mapped and len(batch):
                write_edge_mmap(f"{scratch}/{step}", batch)
                batch = open_edge_mmap(f"{scratch}/{step}")
                assert isinstance(batch.src, np.memmap)
            if delete:
                got, expected = live.delete_collect(batch), oracle.delete_collect(batch)
            else:
                got, expected = live.update_collect(batch), oracle.update_collect(batch)
            assert _columns(got) == _columns(expected)
            assert (live.num_edges, live.num_nodes) == (oracle.num_edges, oracle.num_nodes)
            if read:
                assert _state(live) == _state(oracle)
        assert _state(live) == _state(oracle)


@on_both_sides
def test_first_occurrence_wins_and_deletes_return_stored_weights():
    """The four collect rules on one hand-written undirected stream.

    Fails on each of: no ``(min, max)`` canonicalisation (``(2, 1)``
    would insert beside ``(1, 2)``); last occurrence kept (weight 7.0
    stored, row 3 returned); batch weight returned on delete (9.0
    instead of 0.5); apply skipped when one row is kept (the second
    batch's one edge never becomes a member).
    """
    graph = ReferenceGraph(6, directed=False)
    kept = graph.update_collect(
        EdgeBatch.from_edges([(1, 2, 0.5), (3, 3, 1.0), (2, 1, 7.0), (1, 2, 8.0)])
    )
    assert _columns(kept) == ([1, 3], [2, 3], [0.5, 1.0])
    again = graph.update_collect(
        EdgeBatch.from_edges([(5, 4, 2.0), (4, 5, 3.0), (5, 4, 4.0)])
    )
    assert _columns(again) == ([5], [4], [2.0])
    assert graph.num_edges == 3
    assert graph.out_neigh(4) == [(5, 2.0)] and graph.in_neigh(5) == [(4, 2.0)]
    gone = graph.delete_collect(
        EdgeBatch.from_edges([(2, 1, 9.0), (0, 0, 9.0), (1, 2, 9.0), (3, 3, 9.0)])
    )
    assert _columns(gone) == ([2, 3], [1, 3], [0.5, 1.0])
    assert graph.num_edges == 1 and 2 not in dict(graph.out_neigh(1))
    # Reinserted later, the neighbour goes to the end of the row.
    graph.update_collect(EdgeBatch.from_edges([(4, 1, 1.5), (5, 1, 2.5)]))
    graph.delete_collect(EdgeBatch.from_edges([(1, 4)]))
    graph.update_collect(EdgeBatch.from_edges([(1, 4, 3.5)]))
    assert graph.out_neigh(1) == [(5, 2.5), (4, 3.5)]
    assert graph.in_neigh(1) == [(5, 2.5), (4, 3.5)]


@pytest.mark.parametrize("bad", [(9, 1), (1, 9), (-1, 2), (2, -1)])
@pytest.mark.parametrize("directed", [True, False])
@on_both_sides
def test_out_of_range_batch_leaves_the_graph_untouched(bad, directed):
    """The structures reject such a batch whole; so must the reference:
    CSR rows, counters and view as before (an in-loop check once
    applied the edges before the bad one).

    Fails on: moving the range check after the lookup.
    """
    graph = ReferenceGraph(8, directed=directed)
    graph.update(EdgeBatch.from_edges([(0, 1), (4, 5)]))
    before, view = _state(graph), graph.compute_view()
    with pytest.raises(StructureError, match=r"edge \(-?\d, -?\d\) out of range"):
        graph.update_collect(EdgeBatch.from_edges([(0, 2), (1, 2), bad, (2, 3)]))
    assert _state(graph) == before and graph.compute_view() is view
    with pytest.raises(StructureError, match="out of range"):
        graph.delete_collect(EdgeBatch.from_edges([(0, 1), bad, (4, 5)]))
    assert _state(graph) == before and graph.compute_view() is view


@on_both_sides
def test_one_apply_per_mutating_collect_and_view_reuse():
    """A collect that changes the graph folds its rows at once (one
    ``ViewMaintainer.apply``); one that changes nothing applies nothing;
    reads reuse the last view.

    Fails on: queueing the rows for a later fold (version 0 after the
    insert); applying for a collect that kept no row.
    """
    graph = ReferenceGraph(8)
    adjacency = graph._adjacency
    graph.update_collect(EdgeBatch.from_edges([(0, 1), (1, 2), (2, 3)]))
    assert adjacency.version == 1 and graph.out_neigh(1) == [(2, 1.0)]
    view = graph.compute_view()
    assert view.version == 1 and view.num_nodes == 4
    graph.delete_collect(EdgeBatch.from_edges([(1, 2)]))
    assert adjacency.version == 2 and graph.compute_view() is not view
    view = graph.compute_view()
    assert graph.out_neigh(1) == [] and graph.out_degree(0) == 1
    assert graph.compute_view() is view and view.num_nodes == 4
    graph.update_collect(EdgeBatch.from_edges([(0, 1)]))  # nothing new
    graph.delete_collect(EdgeBatch.from_edges([(5, 6)]))  # nothing live
    assert graph.compute_view() is view and adjacency.version == 2
    graph.update_collect(EdgeBatch.from_edges([(1, 2)]))
    assert graph.compute_view() is not view and adjacency.version == 3


@pytest.mark.parametrize("make", [ReferenceGraph, DictGraph])
def test_max_nodes_must_be_positive(make):
    with pytest.raises(StructureError, match="max_nodes"):
        make(0)

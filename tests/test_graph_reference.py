"""ReferenceGraph's collect methods: columns out, all-or-nothing in.

``update_collect`` / ``delete_collect`` walk ``tolist()`` columns and
return the kept rows as an :class:`EdgeBatch`.  The per-edge loops they
replaced are kept here, verbatim, as the reference the columns must
reproduce: same edges in the same order, same graph afterwards.
"""

from __future__ import annotations

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import StructureError
from repro.graph import EdgeBatch, ReferenceGraph

N = 12


def _loop_update_collect(graph: ReferenceGraph, batch: EdgeBatch):
    """The per-edge insert loop the column version replaced."""
    inserted = []
    for i in range(len(batch)):
        u = int(batch.src[i])
        v = int(batch.dst[i])
        w = float(batch.weight[i])
        if v not in graph._out[u]:
            graph._out[u][v] = w
            inserted.append((u, v, w))
            if graph.directed:
                graph._in[v][u] = w
            elif u != v:
                graph._out[v][u] = w
        graph._max_seen = max(graph._max_seen, u, v)
    graph._num_edges += len(inserted)
    return inserted


def _loop_delete_collect(graph: ReferenceGraph, batch: EdgeBatch):
    """The per-edge delete loop the column version replaced."""
    removed = []
    for i in range(len(batch)):
        u = int(batch.src[i])
        v = int(batch.dst[i])
        weight = graph._out[u].pop(v, None)
        if weight is None:
            continue
        removed.append((u, v, weight))
        if graph.directed:
            del graph._in[v][u]
        elif u != v:
            del graph._out[v][u]
    graph._num_edges -= len(removed)
    return removed


def _state(graph: ReferenceGraph):
    """Adjacency with dict order, which the CSR snapshots preserve."""
    return (
        graph.num_edges,
        graph.num_nodes,
        [list(graph.out_items(v).items()) for v in range(graph.max_nodes)],
        [list(graph.in_items(v).items()) for v in range(graph.max_nodes)],
    )


def _as_tuples(edges: EdgeBatch):
    assert edges.src.dtype == edges.dst.dtype == np.int64
    assert edges.weight.dtype == np.float64
    return list(zip(edges.src.tolist(), edges.dst.tolist(), edges.weight.tolist()))


# Few vertices, so streams are dense in duplicates and self-loops.
_EDGES = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=N - 1),
        st.integers(min_value=0, max_value=N - 1),
        st.floats(min_value=0.5, max_value=9.0, allow_nan=False),
    ),
    max_size=40,
)
_STREAM = st.lists(st.tuples(st.booleans(), _EDGES), min_size=1, max_size=6)


@settings(deadline=None, max_examples=60)
@given(stream=_STREAM, directed=st.booleans(), mapped=st.booleans())
def test_collect_columns_match_per_edge_loops(stream, directed, mapped):
    columns = ReferenceGraph(N, directed=directed)
    loops = ReferenceGraph(N, directed=directed)
    with tempfile.TemporaryDirectory() as scratch:
        for step, (delete, edges) in enumerate(stream):
            batch = EdgeBatch.from_edges(edges)
            if mapped and len(batch):
                batch.to_mmap(f"{scratch}/{step}")
                batch = EdgeBatch.from_mmap(f"{scratch}/{step}")
                assert isinstance(batch.src, np.memmap)
            if delete:
                got = columns.delete_collect(batch)
                expected = _loop_delete_collect(loops, batch)
            else:
                got = columns.update_collect(batch)
                expected = _loop_update_collect(loops, batch)
            assert _as_tuples(got) == expected
            assert [tuple(edge) for edge in got] == expected
            assert len(got) == len(expected)
            assert _state(columns) == _state(loops)


@pytest.mark.parametrize("bad", [(9, 1), (1, 9), (-1, 2), (2, -1)])
@pytest.mark.parametrize("directed", [True, False])
def test_out_of_range_batch_leaves_the_graph_untouched(bad, directed):
    """The structures reject such a batch whole; so must the reference
    (the in-loop check applied the edges before the bad one)."""
    graph = ReferenceGraph(8, directed=directed)
    graph.update(EdgeBatch.from_edges([(0, 1), (4, 5)]))
    before = _state(graph)
    with pytest.raises(StructureError, match=r"edge \(-?\d, -?\d\) out of range"):
        graph.update_collect(EdgeBatch.from_edges([(0, 2), (1, 2), bad, (2, 3)]))
    assert _state(graph) == before
    with pytest.raises(StructureError, match="out of range"):
        graph.delete_collect(EdgeBatch.from_edges([(0, 1), bad, (4, 5)]))
    assert _state(graph) == before

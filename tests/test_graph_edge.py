"""Unit tests for Edge and EdgeBatch."""

import numpy as np
import pytest

from repro.errors import DatasetError
from repro.graph.edge import Edge, EdgeBatch


class TestEdge:
    def test_defaults(self):
        edge = Edge(1, 2)
        assert edge.weight == 1.0

    def test_fields(self):
        edge = Edge(3, 4, 2.5)
        assert (edge.src, edge.dst, edge.weight) == (3, 4, 2.5)


class TestEdgeBatch:
    def test_from_pairs(self):
        batch = EdgeBatch.from_edges([(0, 1), (1, 2)])
        assert len(batch) == 2
        assert list(batch.weight) == [1.0, 1.0]

    def test_from_triples(self):
        batch = EdgeBatch.from_edges([(0, 1, 3.0)])
        assert batch.weight[0] == 3.0

    def test_iteration_yields_edges(self):
        batch = EdgeBatch.from_edges([(0, 1, 2.0), (2, 3, 4.0)])
        edges = list(batch)
        assert edges[0] == Edge(0, 1, 2.0)
        assert edges[1] == Edge(2, 3, 4.0)

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(DatasetError):
            EdgeBatch(
                src=np.zeros(2, dtype=np.int64),
                dst=np.zeros(3, dtype=np.int64),
                weight=np.zeros(3),
            )

    def test_empty(self):
        batch = EdgeBatch.empty()
        assert len(batch) == 0
        assert batch.max_in_out_degree() == (0, 0)

    def test_slice(self):
        batch = EdgeBatch.from_edges([(0, 1), (1, 2), (2, 3)])
        part = batch.slice(1, 3)
        assert len(part) == 2
        assert part.src[0] == 1

    def test_max_in_out_degree_counts_unique(self):
        # Parallel duplicates of (0, 1) count once.
        batch = EdgeBatch.from_edges([(0, 1), (0, 1), (0, 2), (3, 1)])
        max_in, max_out = batch.max_in_out_degree()
        assert max_out == 2  # vertex 0 -> {1, 2}
        assert max_in == 2  # vertex 1 <- {0, 3}

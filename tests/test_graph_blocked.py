"""Structure-specific tests for the Hornet-style blocked adjacency."""

import pytest

from repro.graph import EdgeBatch, ExecutionContext
from repro.graph.blocked import MIN_SEGMENT, BlockedAdjacency
from repro.sim.tasks import NO_CHUNK, NO_LOCK
from tests.conftest import SMALL_MACHINE


def star(degree: int, chunks: int = 4):
    structure = BlockedAdjacency(max_nodes=degree + 2, chunks=chunks)
    batch = EdgeBatch.from_edges([(0, v + 1) for v in range(degree)])
    structure.update(batch, ExecutionContext(machine=SMALL_MACHINE))
    return structure


class TestSegments:
    def test_capacity_rounds_to_power_of_two(self):
        structure = star(5)
        assert structure._out._capacity[0] == 8

    def test_minimum_segment(self):
        structure = star(1)
        assert structure._out._capacity[0] == MIN_SEGMENT

    def test_relocation_frees_old_segment_to_pool(self):
        structure = star(MIN_SEGMENT + 1)  # forced one relocation
        pools = structure._out.pool_stats()
        assert pools[MIN_SEGMENT][0] >= 1  # the small pool allocated
        assert MIN_SEGMENT * 2 in pools

    def test_segments_are_reused_across_vertices(self):
        structure = BlockedAdjacency(max_nodes=64, chunks=2)
        ctx = ExecutionContext(machine=SMALL_MACHINE)
        # Vertex 0 relocates out of the 4-slot pool; vertex 1 then
        # grows into the freed 4-slot segment.
        structure.update(
            EdgeBatch.from_edges([(0, v + 2) for v in range(MIN_SEGMENT + 1)]), ctx
        )
        structure.update(EdgeBatch.from_edges([(1, 50)]), ctx)
        pools = structure._out.pool_stats()
        allocations, reuses = pools[MIN_SEGMENT]
        assert reuses >= 1

    def test_relocation_cost_charged(self):
        structure = BlockedAdjacency(max_nodes=8, chunks=1)
        ctx = ExecutionContext(machine=SMALL_MACHINE, threads=1)
        structure.update(
            EdgeBatch.from_edges([(0, v + 1) for v in range(MIN_SEGMENT)]), ctx
        )
        result = structure.update(EdgeBatch.from_edges([(0, 6)]), ctx)
        insert_work = result.tasks.total_work[0]
        # The relocating insert pays for copying MIN_SEGMENT entries.
        cost = structure.cost
        assert insert_work >= cost.vector_grow_per_element * MIN_SEGMENT


class TestPositioning:
    def test_traversal_as_cheap_as_adjacency_list(self):
        import numpy as np

        from repro.graph.adjacency_shared import AdjacencyListShared
        from repro.sim.cost_model import DEFAULT_COST_MODEL

        degrees = np.array([1.0, 10.0, 100.0])
        ba = BlockedAdjacency.vector_traversal_cost(degrees, DEFAULT_COST_MODEL)
        adjacency = AdjacencyListShared.vector_traversal_cost(
            degrees, DEFAULT_COST_MODEL
        )
        assert (ba == adjacency).all()

    def test_lockless_chunked_tasks(self):
        structure = BlockedAdjacency(max_nodes=8, chunks=4)
        ctx = ExecutionContext(machine=SMALL_MACHINE)
        result = structure.update(EdgeBatch.from_edges([(0, 1), (2, 3)]), ctx)
        tasks = result.tasks
        assert (tasks.lock == NO_LOCK).all()
        assert (tasks.chunk != NO_CHUNK).all()

    def test_rejects_bad_chunks(self):
        from repro.errors import StructureError

        with pytest.raises(StructureError):
            BlockedAdjacency(max_nodes=8, chunks=0)

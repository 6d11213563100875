"""Structure-specific tests for Stinger's edge blocks."""

from repro.graph import EdgeBatch, ExecutionContext
from repro.graph.stinger import BLOCK_CAPACITY, Stinger
from repro.sim.cost_model import DEFAULT_COST_MODEL
from repro.sim.tasks import NO_LOCK
from tests.conftest import SMALL_MACHINE


def filled(node_degree: int, max_nodes: int = 4):
    """A Stinger whose vertex 0 has ``node_degree`` out-neighbors."""
    structure = Stinger(max_nodes=max(max_nodes, node_degree + 2))
    batch = EdgeBatch.from_edges([(0, v + 1, 1.0) for v in range(node_degree)])
    structure.update(batch, ExecutionContext(machine=SMALL_MACHINE))
    return structure


class TestBlocks:
    def test_block_capacity_is_papers_16(self):
        assert BLOCK_CAPACITY == 16

    def test_single_block_until_capacity(self):
        structure = filled(BLOCK_CAPACITY)
        assert structure._out.block_count(0) == 1

    def test_second_block_after_capacity(self):
        structure = filled(BLOCK_CAPACITY + 1)
        assert structure._out.block_count(0) == 2

    def test_block_count_matches_ceiling(self):
        for degree in (1, 5, 16, 17, 32, 33, 50):
            structure = filled(degree)
            expected = -(-degree // BLOCK_CAPACITY)
            assert structure._out.block_count(0) == expected

    def test_degree_across_blocks(self):
        structure = filled(40)
        assert structure.out_degree(0) == 40
        assert len(structure.out_neigh(0)) == 40


class TestTwoScanCosts:
    def test_insert_cost_grows_with_blocks(self):
        """The two scans make inserts into long lists expensive."""
        cost = DEFAULT_COST_MODEL
        small = Stinger(max_nodes=64)
        ctx = ExecutionContext(machine=SMALL_MACHINE, threads=1)
        first = small.update(EdgeBatch.from_edges([(0, 1)]), ctx).latency_cycles
        # Fill 3 blocks, then insert one more edge.
        filler = EdgeBatch.from_edges([(0, v + 2) for v in range(3 * 16)])
        small.update(filler, ctx)
        later = small.update(EdgeBatch.from_edges([(0, 60)]), ctx).latency_cycles
        assert later > first + 2 * cost.pointer_chase

    def test_duplicate_needs_no_lock(self):
        structure = Stinger(max_nodes=4)
        ctx = ExecutionContext(machine=SMALL_MACHINE)
        structure.update(EdgeBatch.from_edges([(0, 1)]), ctx)
        result = structure.update(EdgeBatch.from_edges([(0, 1)]), ctx)
        tasks = result.tasks
        assert tasks.lock[0] == NO_LOCK
        assert tasks.locked_work[0] == 0.0

    def test_inserts_into_different_blocks_use_different_locks(self):
        # Two vertices' tail blocks are distinct lock domains.
        structure = Stinger(max_nodes=8)
        ctx = ExecutionContext(machine=SMALL_MACHINE)
        result = structure.update(EdgeBatch.from_edges([(0, 1), (2, 3)]), ctx)
        locks = result.tasks.lock
        out_locks = locks[locks != NO_LOCK].tolist()
        assert len(set(out_locks)) == len(out_locks)

    def test_intra_node_inserts_share_tail_lock(self):
        structure = Stinger(max_nodes=8)
        ctx = ExecutionContext(machine=SMALL_MACHINE)
        result = structure.update(EdgeBatch.from_edges([(0, 1), (0, 2)]), ctx)
        locks = result.tasks.lock
        # Both inserts landed in vertex 0's single tail block (plus the
        # in-store tasks for vertices 1 and 2).
        locks = locks[locks != NO_LOCK].tolist()
        assert len(locks) == 4
        assert locks[0] == locks[2]  # the two out-store inserts


class TestTraversalCost:
    def test_scalar_matches_vector_formula(self):
        """What the vector traversal cost rests on, in both directions: on
        an insert-only stream a vertex of degree d has ceil(d / 16)
        blocks."""
        structure = filled(40)
        for store in (structure._out, structure._in):
            for u in range(structure.max_nodes):
                blocks = -(-store.degree(u) // BLOCK_CAPACITY)
                assert store.block_count(u) == blocks, u

    def test_costlier_than_adjacency_for_same_degree(self):
        from repro.graph.adjacency_shared import AdjacencyListShared
        import numpy as np

        degrees = np.array([40.0])
        stinger = Stinger.vector_traversal_cost(degrees, DEFAULT_COST_MODEL)[0]
        adjacency = AdjacencyListShared.vector_traversal_cost(degrees, DEFAULT_COST_MODEL)[0]
        assert stinger > adjacency

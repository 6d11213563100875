"""Structure-specific tests for degree-aware hashing."""

from repro.graph import EdgeBatch, ExecutionContext
from repro.graph.dah import DegreeAwareHash, LOW_DEGREE_THRESHOLD
from repro.sim.cost_model import DEFAULT_COST_MODEL
from tests.conftest import SMALL_MACHINE


def star(degree: int, chunks: int = 8):
    """A DAH with vertex 0 having ``degree`` out-neighbors."""
    structure = DegreeAwareHash(max_nodes=degree + 2, chunks=chunks)
    batch = EdgeBatch.from_edges([(0, v + 1) for v in range(degree)])
    structure.update(batch, ExecutionContext(machine=SMALL_MACHINE))
    return structure


def assert_table_follows_degree(structure):
    """What the vector traversal cost rests on, in both directions: on
    an insert-only stream a vertex is in the high-degree table exactly
    when its degree exceeds the threshold."""
    for store in (structure._out, structure._in):
        for u in range(structure.max_nodes):
            high = store.degree(u) > LOW_DEGREE_THRESHOLD
            assert store.is_high_degree(u) == high, u


class TestDegreeAwareness:
    def test_low_degree_stays_inline(self):
        structure = star(LOW_DEGREE_THRESHOLD)
        assert not structure._out.is_high_degree(0)
        assert structure.out_degree(0) == LOW_DEGREE_THRESHOLD

    def test_flush_to_high_table_past_threshold(self):
        structure = star(LOW_DEGREE_THRESHOLD + 1)
        assert structure._out.is_high_degree(0)
        assert structure.out_degree(0) == LOW_DEGREE_THRESHOLD + 1

    def test_neighbors_survive_flush(self):
        degree = LOW_DEGREE_THRESHOLD + 5
        structure = star(degree)
        assert dict(structure.out_neigh(0)) == {v + 1: 1.0 for v in range(degree)}

    def test_flush_happens_once(self):
        # After flushing, further inserts go straight to the high table.
        structure = star(LOW_DEGREE_THRESHOLD + 1)
        ctx = ExecutionContext(machine=SMALL_MACHINE)
        before = structure.out_degree(0)
        structure.update(
            EdgeBatch.from_edges([(0, before + 1)]),  # the one free id
            ctx,
        )
        assert structure._out.is_high_degree(0)
        assert structure.out_degree(0) == before + 1

    def test_chunk_assignment_is_modulo(self):
        structure = DegreeAwareHash(max_nodes=64, chunks=8)
        for vertex in (0, 7, 8, 63):
            assert structure._out.chunk_of(vertex) == vertex % 8

    def test_duplicate_in_high_table_not_inserted(self):
        degree = LOW_DEGREE_THRESHOLD + 3
        structure = star(degree)
        result = structure.update(
            EdgeBatch.from_edges([(0, 1, 9.0)]),
            ExecutionContext(machine=SMALL_MACHINE),
        )
        assert result.duplicates == 1
        assert dict(structure.out_neigh(0))[1] == 1.0  # original weight


class TestCosts:
    def test_meta_operations_make_updates_pricier_than_ac(self):
        """DAH > AC update work for short-tailed content (Section V-B)."""
        from repro.graph.adjacency_chunked import AdjacencyListChunked

        batch = EdgeBatch.from_edges(
            [(u, (u + k + 1) % 50) for u in range(50) for k in range(3)]
        )
        ctx = ExecutionContext(machine=SMALL_MACHINE, threads=1)
        dah = DegreeAwareHash(max_nodes=50, chunks=4)
        ac = AdjacencyListChunked(max_nodes=50, chunks=4)
        dah_result = dah.update(batch, ctx)
        ac_result = ac.update(batch, ctx)
        assert (
            dah_result.schedule.total_work_cycles
            > ac_result.schedule.total_work_cycles
        )

    def test_degree_query_cost_exceeds_adjacency(self):
        cost = DEFAULT_COST_MODEL
        assert DegreeAwareHash.degree_query_cost(cost) > cost.probe_element

    def test_scalar_traversal_matches_vector_low(self):
        assert_table_follows_degree(star(5))

    def test_scalar_traversal_matches_vector_high(self):
        assert_table_follows_degree(star(LOW_DEGREE_THRESHOLD + 10))

    def test_constant_time_inserts_for_hub(self):
        """Hashed inserts do not exhibit the O(degree^2) scan blowup."""
        ctx = ExecutionContext(machine=SMALL_MACHINE, threads=1)
        degree = 400
        dah = DegreeAwareHash(max_nodes=degree + 2, chunks=1)
        batch = EdgeBatch.from_edges([(0, v + 1) for v in range(degree)])
        dah_work = dah.update(batch, ctx).schedule.total_work_cycles

        from repro.graph.adjacency_chunked import AdjacencyListChunked

        ac = AdjacencyListChunked(max_nodes=degree + 2, chunks=1)
        ac_work = ac.update(batch, ctx).schedule.total_work_cycles
        # The adjacency scan is quadratic in the hub degree; hashing is
        # (amortized) linear, so AC must cost several times more here.
        assert ac_work > 2 * dah_work

"""Cross-structure correctness: all four structures vs the reference.

Every data structure must store exactly the same graph as the
uninstrumented reference model, for directed and undirected streams,
with duplicates, self-loops, and multi-batch ingestion.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import StructureError
from repro.graph import (
    EdgeBatch,
    ExecutionContext,
    ReferenceGraph,
    STRUCTURES,
    make_structure,
)
from tests.conftest import SMALL_MACHINE, random_batch

ALL = sorted(STRUCTURES)


def assert_same_graph(structure, reference):
    n = reference.num_nodes
    assert structure.num_nodes == n
    assert structure.num_edges == reference.num_edges
    for v in range(n):
        assert dict(structure.out_neigh(v)) == dict(reference.out_neigh(v))
        assert dict(structure.in_neigh(v)) == dict(reference.in_neigh(v))
        assert structure.out_degree(v) == reference.out_degree(v)
        assert structure.in_degree(v) == reference.in_degree(v)


@pytest.mark.parametrize("name", ALL)
@pytest.mark.parametrize("directed", [True, False])
class TestAgainstReference:
    def test_single_batch(self, name, directed):
        batch = random_batch(40, 300, seed=5)
        structure = make_structure(name, 40, directed=directed)
        reference = ReferenceGraph(40, directed=directed)
        structure.update(batch, ExecutionContext(machine=SMALL_MACHINE))
        reference.update(batch)
        assert_same_graph(structure, reference)

    def test_multi_batch_stream(self, name, directed):
        structure = make_structure(name, 50, directed=directed)
        reference = ReferenceGraph(50, directed=directed)
        ctx = ExecutionContext(machine=SMALL_MACHINE)
        for seed in range(4):
            batch = random_batch(50, 150, seed=seed)
            structure.update(batch, ctx)
            reference.update(batch)
            assert_same_graph(structure, reference)

    def test_duplicates_ingested_once(self, name, directed):
        batch = EdgeBatch.from_edges([(0, 1, 2.0), (0, 1, 2.0), (0, 1, 2.0)])
        structure = make_structure(name, 4, directed=directed)
        result = structure.update(batch, ExecutionContext(machine=SMALL_MACHINE))
        assert result.edges_inserted == 1
        assert result.duplicates == 2
        assert structure.num_edges == 1
        assert dict(structure.out_neigh(0)) == {1: 2.0}

    def test_first_weight_wins(self, name, directed):
        # Unique ingestion: a re-sent edge does not overwrite.
        batch = EdgeBatch.from_edges([(0, 1, 2.0), (0, 1, 9.0)])
        structure = make_structure(name, 4, directed=directed)
        structure.update(batch, ExecutionContext(machine=SMALL_MACHINE))
        assert dict(structure.out_neigh(0)) == {1: 2.0}

    def test_self_loop(self, name, directed):
        batch = EdgeBatch.from_edges([(2, 2, 1.0)])
        structure = make_structure(name, 4, directed=directed)
        structure.update(batch, ExecutionContext(machine=SMALL_MACHINE))
        assert dict(structure.out_neigh(2)) == {2: 1.0}
        assert dict(structure.in_neigh(2)) == {2: 1.0}
        assert structure.num_edges == 1

    def test_out_of_range_vertex_rejected(self, name, directed):
        structure = make_structure(name, 4, directed=directed)
        with pytest.raises(StructureError):
            structure.update(
                EdgeBatch.from_edges([(0, 4)]), ExecutionContext(machine=SMALL_MACHINE)
            )

    def test_empty_batch(self, name, directed):
        structure = make_structure(name, 4, directed=directed)
        result = structure.update(EdgeBatch.empty(), ExecutionContext(machine=SMALL_MACHINE))
        assert result.edges_inserted == 0
        assert result.latency_cycles >= 0.0

    def test_update_latency_positive(self, name, directed):
        batch = random_batch(30, 100, seed=2)
        structure = make_structure(name, 30, directed=directed)
        result = structure.update(batch, ExecutionContext(machine=SMALL_MACHINE))
        assert result.latency_cycles > 0
        assert result.latency_seconds(SMALL_MACHINE) > 0


@pytest.mark.parametrize("name", ALL)
class TestInstrumentation:
    def test_trace_emitted_when_requested(self, name):
        from repro.sim.trace import TraceRecorder

        batch = random_batch(30, 100, seed=2)
        structure = make_structure(name, 30)
        ctx = ExecutionContext(machine=SMALL_MACHINE, recorder=TraceRecorder())
        result = structure.update(batch, ctx)
        assert result.trace is not None
        assert len(result.trace) > 0

    def test_no_trace_by_default(self, name):
        batch = random_batch(30, 100, seed=2)
        structure = make_structure(name, 30)
        result = structure.update(batch, ExecutionContext(machine=SMALL_MACHINE))
        assert result.trace is None

    def test_result_tasks_reschedule(self, name):
        batch = random_batch(30, 100, seed=2)
        structure = make_structure(name, 30)
        ctx = ExecutionContext(machine=SMALL_MACHINE)
        result = structure.update(batch, ctx)
        tasks = result.tasks
        assert tasks
        again = structure.schedule_tasks(tasks, ctx)
        assert again.makespan_cycles == pytest.approx(result.latency_cycles)

    def test_more_threads_not_slower(self, name):
        batch = random_batch(30, 200, seed=3)
        structure = make_structure(name, 30)
        ctx1 = ExecutionContext(machine=SMALL_MACHINE, threads=1)
        result = structure.update(batch, ctx1)
        tasks = result.tasks
        ctx8 = ExecutionContext(machine=SMALL_MACHINE, threads=8)
        faster = structure.schedule_tasks(tasks, ctx8)
        assert faster.makespan_cycles <= result.latency_cycles + 1e-6


class TestFactory:
    def test_case_insensitive(self):
        assert make_structure("as", 4).name == "AS"
        assert make_structure("STINGER", 4).name == "Stinger"

    def test_unknown_name(self):
        with pytest.raises(StructureError):
            make_structure("CSR", 4)

    def test_bad_max_nodes(self):
        with pytest.raises(StructureError):
            make_structure("AS", 0)


@given(
    edges=st.lists(
        st.tuples(st.integers(0, 15), st.integers(0, 15)), min_size=1, max_size=120
    ),
    directed=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_property_all_structures_agree(edges, directed):
    """Any edge stream produces identical graphs in all 4 structures."""
    batch = EdgeBatch.from_edges([(u, v, 1.0 + ((u + v) % 5)) for u, v in edges])
    reference = ReferenceGraph(16, directed=directed)
    reference.update(batch)
    ctx = ExecutionContext(machine=SMALL_MACHINE)
    for name in ALL:
        structure = make_structure(name, 16, directed=directed)
        structure.update(batch, ctx)
        assert_same_graph(structure, reference)

"""Unit tests for the Algorithm-1 engine itself.

The engine is :func:`repro.compute.kernels.run_incremental_frontier`;
the tests drive it the way a third-party extension does, through toy
algorithms that define only the scalar Table-I ``recalculate`` (no
compiled op, so the engine's Python loop runs it).  Where the in-round
order matters, a toy BFS must run exactly as the built-in one and pass
the BFS verifier, and a toy without a built-in twin must settle within
a stated residual.
"""

import numpy as np
import pytest

from repro import verify
from repro.algorithms import get_algorithm
from repro.algorithms.base import Algorithm
from repro.compute.kernels import run_incremental_frontier
from repro.compute.state import AlgorithmState
from repro.errors import SimulationError, StructureError
from repro.graph import EdgeBatch, ReferenceGraph
from tests.conftest import native_env, observed
from tests.oracles import DictGraph


def chain(n=5):
    """0 -> 1 -> 2 -> ... -> n-1, as the engine's view."""
    reference = ReferenceGraph(n, directed=True)
    reference.update(EdgeBatch.from_edges([(i, i + 1) for i in range(n - 1)]))
    return reference.compute_view()


def toy(recalculate, **attributes):
    """A scalar-only algorithm around ``recalculate(v, view, values)``."""

    class Toy(Algorithm):
        name = "t"

        def init_value(self, ids):
            return np.zeros(len(ids))

        def recalculate(self, v, view, values):
            return recalculate(v, view, values)

        def fs_run(self, view, source=None):
            raise NotImplementedError

    algorithm = Toy()
    for key, value in attributes.items():
        setattr(algorithm, key, value)
    return algorithm


def hops(v, view, values):
    """min over in-edges of source + 1: reads in-neighbour *values*."""
    best = values[v]
    for u, _ in view.in_neigh(v):
        best = min(best, values[u] + 1)
    return best


class TestEngine:
    def test_propagates_along_chain(self):
        view = chain(5)
        values = np.array([0.0, 10.0, 10.0, 10.0, 10.0])
        run = run_incremental_frontier(view, values, [1], toy(hops))
        assert values.tolist() == [0, 1, 2, 3, 4]
        # One round per hop down the chain.
        assert run.iteration_count == 4

    def test_epsilon_suppresses_small_changes(self):
        view = chain(3)
        values = np.array([0.0, 1.0, 2.0])
        drift = toy(lambda v, view, values: values[v] - 1e-9, epsilon=1e-7)
        run = run_incremental_frontier(view, values, [0, 1, 2], drift)
        assert run.iteration_count == 1
        assert len(run.iterations[0].push_vertices) == 0

    def test_visited_guard_deduplicates_queue(self):
        # Two triggered vertices share an out-neighbor: queued once.
        reference = ReferenceGraph(4, directed=True)
        reference.update(EdgeBatch.from_edges([(0, 2), (1, 2), (2, 3)]))
        view = reference.compute_view()
        values = np.array([5.0, 5.0, 0.0, 0.0])
        # Always changes -> always triggers.
        restless = toy(lambda v, view, values: values[v] + 1.0)
        run = run_incremental_frontier(
            view, values, [0, 1], restless, max_rounds=3
        )
        first = run.iterations[0]
        assert first.pushes == 1  # vertex 2 queued once
        assert first.cas_ops == 2  # but CASed twice

    def test_divergent_function_hits_round_guard(self):
        # A cycle keeps re-triggering a divergent vertex function.
        reference = ReferenceGraph(3, directed=True)
        reference.update(EdgeBatch.from_edges([(0, 1), (1, 2), (2, 0)]))
        view = reference.compute_view()
        values = np.zeros(3)
        restless = toy(lambda v, view, values: values[v] + 1.0)
        with pytest.raises(SimulationError) as error:
            run_incremental_frontier(view, values, [0], restless, max_rounds=5)
        assert str(error.value) == (
            "incremental t exceeded 5 rounds; "
            "the vertex function is probably not convergent"
        )

    def test_linear_scans_recorded(self):
        view = chain(3)
        values = np.zeros(3)
        still = toy(lambda v, view, values: values[v])
        run = run_incremental_frontier(view, values, [], still)
        assert run.linear_scans == 2
        assert run.iteration_count == 0  # empty affected set: no round

    def test_affected_outside_graph_ignored(self):
        view = chain(3)
        values = np.zeros(3)
        still = toy(lambda v, view, values: values[v])
        run = run_incremental_frontier(view, values, [99], still)
        assert run.iteration_count == 0


class _Hops(Algorithm):
    """Scalar-only hop count from the source: Table-I BFS as a third
    party would write it (no batch function, no compiled opcode)."""

    name = "HOPS"
    needs_source = True
    monotonic = "min"

    def init_value(self, ids):
        return np.full(len(ids), np.inf)

    def source_value(self):
        return 0.0

    def recalculate(self, v, view, values):
        best = np.inf
        for u, _ in view.in_neigh(v):
            best = min(best, values[u] + 1.0)
        return best

    def supports(self, source_value, weight, target_value):
        return target_value == source_value + 1.0

    def fs_run(self, view, source=None):
        raise NotImplementedError


class _Damped(Algorithm):
    """Scalar-only, non-monotone: a damped average of the in-neighbours'
    values (a contraction, so it converges; the conservative default
    ``supports`` applies)."""

    name = "DAMP"
    epsilon = 1e-9

    def init_value(self, ids):
        return ids.astype(np.float64)

    def recalculate(self, v, view, values):
        total, count = 0.0, 0
        for u, _ in view.in_neigh(v):
            total += values[u]
            count += 1
        return 1.0 + 0.5 * total / count if count else 1.0

    def fs_run(self, view, source=None):
        raise NotImplementedError


#: Three directed cycles through vertices 0 and 2, one running against
#: the id order: a round's frontier holds vertices that read a
#: neighbour's *new* value (writer at an earlier position: 0->3, 4->5)
#: and vertices that must still see the *old* one (3->2, 2->1, 6->2).
CYCLIC = [
    (0, 3), (3, 2), (2, 1), (1, 0), (0, 4), (4, 5),
    (5, 0), (2, 5), (5, 6), (6, 2),
]


def _cyclic_stream(algorithms, directed):
    """Run ``algorithms`` side by side over :data:`CYCLIC` on one graph:
    two insert batches with every vertex affected (so positions depend
    on each other), then a deletion that cuts two cycles (stale values
    must not survive).  Yields each step's runs and the live edges."""
    reference = ReferenceGraph(8, directed=directed)
    mirror = DictGraph(8, directed=directed)
    states = [algorithm.make_state(8) for algorithm in algorithms]
    source = 0 if algorithms[0].needs_source else None
    for batch in (EdgeBatch.from_edges(CYCLIC[:6]), EdgeBatch.from_edges(CYCLIC[6:])):
        reference.update_collect(batch)
        mirror.update(batch)
        affected = np.arange(reference.num_nodes)
        runs = [
            algorithm.inc_run(reference, state, affected, source=source)
            for algorithm, state in zip(algorithms, states)
        ]
        assert runs[0].iteration_count > 1  # not one lucky sweep
        yield runs, reference, mirror.edges()
    victims = EdgeBatch.from_edges([(0, 3), (5, 0)])
    removed = reference.delete_collect(victims)
    assert len(mirror.delete_collect(victims)) == len(removed) == 2
    yield [
        algorithm.inc_delete_run(reference, state, removed, source=source)
        for algorithm, state in zip(algorithms, states)
    ], reference, mirror.edges()


@pytest.mark.parametrize("setting", [None, "1"])
@pytest.mark.parametrize("directed", [True, False])
class TestScalarOnlyAlgorithms:
    """The engine's loop over a scalar ``recalculate`` and the derived
    ``supports_batch`` where Gauss-Seidel order matters: cyclic graphs,
    whole-graph frontiers.  That a round reads its earlier vertices as
    just written is
    ``tests/test_compute_ckernels.py::TestIncRoundCorners::test_round_reads_earlier_vertices_as_just_written``,
    through this same loop under ``SAGA_BENCH_NO_NATIVE``."""

    def test_hops_runs_as_the_builtin_bfs(self, directed, setting):
        """INC and deletion repair give the built-in BFS's value bits and
        run log -- its compiled kernel natively -- and pass the BFS
        verifier."""
        with native_env(setting):
            for (hops, bfs), reference, edges in _cyclic_stream(
                [_Hops(), get_algorithm("BFS")], directed
            ):
                assert observed(hops)[1:] == observed(bfs)[1:]
                verify.check("BFS", hops.values, edges, reference.num_nodes, source=0)

    def test_damped_average_settles_within_epsilon(self, directed, setting):
        """No vertex is more than ``epsilon`` from its own function.

        A change above ``epsilon`` re-queues the vertices that read it,
        so whatever a vertex's in-neighbours moved after its last
        evaluation moved in steps of at most ``epsilon``, which the
        average then halves.  (These runs leave at most 0.47 of it.)
        """
        damped = _Damped()
        with native_env(setting):
            for (run,), reference, _ in _cyclic_stream([damped], directed):
                values = run.values
                residual = max(
                    abs(damped.recalculate(v, reference, values) - values[v])
                    for v in range(reference.num_nodes)
                )
                assert residual <= damped.epsilon


class TestAlgorithmState:
    def test_lazy_initialization(self):
        state = AlgorithmState(10, lambda ids: ids * 2.0)
        assert state.initialized_up_to == 0
        fresh = state.ensure_initialized(4)
        assert fresh == 4
        assert state.values[3] == 6.0

    def test_existing_values_preserved(self):
        state = AlgorithmState(10, lambda ids: np.zeros(len(ids)))
        state.ensure_initialized(4)
        state.values[2] = 42.0
        assert state.ensure_initialized(6) == 2
        assert state.values[2] == 42.0  # amortization: kept
        assert state.values[5] == 0.0

    def test_capacity_enforced(self):
        state = AlgorithmState(4, lambda ids: np.zeros(len(ids)))
        with pytest.raises(StructureError):
            state.ensure_initialized(5)

    def test_rejects_bad_size(self):
        with pytest.raises(StructureError):
            AlgorithmState(0, lambda ids: ids)

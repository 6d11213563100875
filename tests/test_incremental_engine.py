"""Unit tests for the Algorithm-1 engine itself.

The engine is :func:`repro.compute.kernels.run_incremental_frontier`;
the tests drive it the way a third-party extension does, through toy
algorithms that define only the scalar Table-I ``recalculate`` (the
base class derives the batch form), and check it against the
sequential oracle where the in-round order matters.
"""

import numpy as np
import pytest

from repro.algorithms.base import Algorithm
from repro.compute.kernels import run_incremental_frontier
from repro.compute.state import AlgorithmState
from repro.errors import SimulationError, StructureError
from repro.graph import EdgeBatch, ReferenceGraph
from tests import oracles
from tests.conftest import native_env


def chain(n=5):
    """0 -> 1 -> 2 -> ... -> n-1."""
    reference = ReferenceGraph(n, directed=True)
    reference.update(EdgeBatch.from_edges([(i, i + 1) for i in range(n - 1)]))
    return reference


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
        reference = chain(5)
        values = np.array([0.0, 10.0, 10.0, 10.0, 10.0])
        run = run_incremental_frontier(reference, values, [1], toy(hops))
        assert values.tolist() == [0, 1, 2, 3, 4]
        # One round per hop down the chain.
        assert run.iteration_count == 4

    def test_epsilon_suppresses_small_changes(self):
        reference = chain(3)
        values = np.array([0.0, 1.0, 2.0])
        drift = toy(lambda v, view, values: values[v] - 1e-9, epsilon=1e-7)
        run = run_incremental_frontier(reference, values, [0, 1, 2], drift)
        assert run.iteration_count == 1
        assert len(run.iterations[0].push_vertices) == 0

    def test_visited_guard_deduplicates_queue(self):
        # Two triggered vertices share an out-neighbor: queued once.
        reference = ReferenceGraph(4, directed=True)
        reference.update(EdgeBatch.from_edges([(0, 2), (1, 2), (2, 3)]))
        values = np.array([5.0, 5.0, 0.0, 0.0])
        # Always changes -> always triggers.
        restless = toy(lambda v, view, values: values[v] + 1.0)
        run = run_incremental_frontier(
            reference, values, [0, 1], restless, max_rounds=3
        )
        first = run.iterations[0]
        assert first.pushes == 1  # vertex 2 queued once
        assert first.cas_ops == 2  # but CASed twice

    def test_divergent_function_hits_round_guard(self):
        # A cycle keeps re-triggering a divergent vertex function.
        reference = ReferenceGraph(3, directed=True)
        reference.update(EdgeBatch.from_edges([(0, 1), (1, 2), (2, 0)]))
        values = np.zeros(3)
        restless = toy(lambda v, view, values: values[v] + 1.0)
        with pytest.raises(SimulationError) as error:
            run_incremental_frontier(reference, values, [0], restless, max_rounds=5)
        assert str(error.value) == (
            "incremental t exceeded 5 rounds; "
            "the vertex function is probably not convergent"
        )

    def test_linear_scans_recorded(self):
        reference = chain(3)
        values = np.zeros(3)
        still = toy(lambda v, view, values: values[v])
        run = run_incremental_frontier(reference, values, [], still)
        assert run.linear_scans == 2
        assert run.iteration_count == 0  # empty affected set: no round

    def test_affected_outside_graph_ignored(self):
        reference = chain(3)
        values = np.zeros(3)
        still = toy(lambda v, view, values: values[v])
        run = run_incremental_frontier(reference, values, [99], still)
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


class TestScalarOnlyAlgorithmsAgainstTheOracle:
    """The derived ``recalculate_batch`` / ``supports_batch`` where
    Gauss-Seidel order matters: cyclic graphs, whole-graph frontiers."""

    @pytest.mark.parametrize("setting", [None, "1"])
    @pytest.mark.parametrize("make", [_Hops, _Damped])
    @pytest.mark.parametrize("directed", [True, False])
    def test_inc_and_deletion_repair(self, make, directed, setting):
        algorithm = make()
        source = 0 if algorithm.needs_source else None
        reference = ReferenceGraph(8, directed=directed)
        state = algorithm.make_state(8)
        oracle_state = oracles.OracleState(8, algorithm)
        first = EdgeBatch.from_edges(CYCLIC[:6])
        second = EdgeBatch.from_edges(CYCLIC[6:])
        with native_env(setting):
            for batch in (first, second):
                reference.update_collect(batch)
                # Every vertex at once, so positions depend on each other.
                affected = np.arange(reference.num_nodes)
                run = algorithm.inc_run(reference, state, affected, source=source)
                want = oracles.inc_oracle(
                    algorithm, reference, oracle_state, affected, source=source
                )
                assert oracles.observed(run) == oracles.observed(want)
                assert run.iteration_count > 1  # not one lucky sweep
            # Cut two cycles: stale values must not survive.
            removed = reference.delete_collect(
                EdgeBatch.from_edges([(0, 3), (5, 0)])
            )
            assert len(removed) == 2
            run = algorithm.inc_delete_run(reference, state, removed, source=source)
            want = oracles.inc_delete_oracle(
                algorithm, reference, oracle_state, list(removed), source=source
            )
            assert oracles.observed(run) == oracles.observed(want)


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

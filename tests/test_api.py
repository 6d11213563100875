"""Tests for the public package API and the performAlg dispatch."""

import numpy as np
import pytest

import repro
from repro.algorithms import ALGORITHMS, get_algorithm, perform_alg
from repro.algorithms.registry import register_algorithm
from repro.errors import SimulationError
from repro.graph import EdgeBatch, ReferenceGraph


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__

    def test_exports(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None or name == "__version__"

    def test_structures_importable_from_top(self):
        assert repro.make_structure("AS", 4).name == "AS"


class TestRegistry:
    def test_six_algorithms(self):
        assert set(ALGORITHMS) == {"BFS", "CC", "MC", "PR", "SSSP", "SSWP"}

    def test_lookup_case_insensitive(self):
        assert get_algorithm("pr").name == "PR"

    def test_unknown_algorithm(self):
        with pytest.raises(SimulationError):
            get_algorithm("DFS")

    def test_register_extension(self):
        from repro.algorithms.base import Algorithm
        from repro.compute.stats import ComputeRun

        class Degree(Algorithm):
            """Toy extension: vertex value = in-degree."""

            name = "DEG"

            def init_value(self, ids):
                return np.zeros(len(ids))

            def recalculate(self, v, view, values):
                return float(view.in_degree(v))

            def fs_run(self, view, source=None):
                values = np.array(
                    [float(view.in_degree(v)) for v in range(view.num_nodes)]
                )
                return ComputeRun(algorithm=self.name, model="FS", values=values)

        register_algorithm(Degree())
        try:
            algorithm = get_algorithm("DEG")
            assert algorithm.name == "DEG"
            # The scalar function alone runs both models and the
            # deletion repair.
            graph = ReferenceGraph(6, directed=True)
            batch = EdgeBatch.from_edges([(0, 1), (2, 1), (3, 1), (1, 4)])
            graph.update(batch)
            state = algorithm.make_state(6)
            perform_alg(
                "DEG", "INC", graph, state=state,
                affected=algorithm.affected_from_batch(batch, graph),
            )
            assert state.values[:5].tolist() == [0, 3, 0, 0, 1]
            removed = graph.delete_collect(EdgeBatch.from_edges([(2, 1)]))
            algorithm.inc_delete_run(graph, state, removed)
            fs = perform_alg("DEG", "FS", graph)
            assert state.values[:5].tolist() == fs.values.tolist() == [0, 2, 0, 0, 1]
        finally:
            ALGORITHMS.pop("DEG")


class TestPerformAlg:
    @pytest.fixture
    def view(self):
        reference = ReferenceGraph(10, directed=True)
        reference.update(EdgeBatch.from_edges([(0, 1), (1, 2), (2, 3)]))
        return reference

    def test_fs_dispatch(self, view):
        run = perform_alg("BFS", "FS", view, source=0)
        assert run.model == "FS"
        assert run.values[3] == 3

    def test_inc_dispatch(self, view):
        algorithm = get_algorithm("CC")
        state = algorithm.make_state(10)
        run = perform_alg(
            "CC", "INC", view, state=state, affected=[0, 1, 2, 3]
        )
        assert run.model == "INC"
        assert state.values[3] == 0

    def test_inc_requires_state(self, view):
        with pytest.raises(SimulationError):
            perform_alg("CC", "INC", view)

    def test_unknown_model(self, view):
        with pytest.raises(SimulationError):
            perform_alg("CC", "LAZY", view)

    def test_model_case_insensitive(self, view):
        run = perform_alg("CC", "fs", view)
        assert run.model == "FS"

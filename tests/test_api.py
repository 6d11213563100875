"""Tests for the public package API and the performAlg dispatch."""

import importlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.algorithms import ALGORITHMS, get_algorithm, perform_alg
from repro.algorithms.registry import register_algorithm
from repro.errors import SimulationError
from repro.graph import EdgeBatch, ReferenceGraph


#: The packages whose public names resolve on first access.
LAZY_PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.datasets",
    "repro.engine",
    "repro.obs",
    "repro.streaming",
]

#: Modules a streaming run or a Fig 9/10 cell never enters.
UNREACHED = [
    "repro.streaming.autotune",
    "repro.obs.export",
    "repro.obs.report",
    "repro.analysis.conformance",
    "repro.analysis.extensions",
    "repro.analysis.software_profile",
    "repro.datasets.snap",
    "concurrent.futures.process",
    "multiprocessing",
]

#: What ``repro.cli`` imports inside the subcommands that use it.
ARTEFACT_MODULES = [
    "repro.analysis.extensions",
    "repro.analysis.hardware_profile",
    "repro.analysis.software_profile",
    "repro.analysis.report",
    "repro.obs.export",
    "repro.obs.report",
]

#: The packages the output verifiers must not import.
IMPLEMENTATIONS = ("repro.algorithms", "repro.compute", "repro.graph", "repro.sim")


def _loaded_after(statement):
    """The ``repro.*`` and pool modules a fresh interpreter holds after ``statement``."""
    script = (
        f"import json, sys; {statement}; "
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith("
        "('repro.', 'concurrent.futures.process', 'multiprocessing')))))"
    )
    child = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        capture_output=True, text=True, check=True,
    )
    return json.loads(child.stdout)


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__

    def test_exports(self):
        for package in LAZY_PACKAGES:
            module = importlib.import_module(package)
            for name in module.__all__:
                assert getattr(module, name, None) is not None, (package, name)
                assert name in dir(module), (package, name)

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            importlib.import_module("repro.streaming").no_such_name

    def test_bare_import_loads_no_subpackage(self):
        assert _loaded_after("import repro") == []

    def test_a_run_imports_only_what_it_reaches(self):
        loaded = _loaded_after("import repro.streaming.driver, repro.analysis.hardware_profile")
        assert "repro.streaming.driver" in loaded
        assert sorted(set(UNREACHED) & set(loaded)) == []

    def test_the_cli_loads_artefact_modules_on_first_use(self):
        """The harnesses, renderers and exporters load in the subcommand
        that needs them, not with the parser."""
        loaded = _loaded_after("import repro.cli")
        assert "repro.cli" in loaded
        assert sorted(set(ARTEFACT_MODULES) & set(loaded)) == []

    def test_the_verifiers_import_no_implementation(self):
        """``repro.verify`` shares no code with what it checks."""
        loaded = _loaded_after("import repro.verify")
        assert "repro.verify" in loaded
        assert [m for m in loaded if m.startswith(IMPLEMENTATIONS)] == []

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

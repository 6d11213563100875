"""FS algorithm correctness against networkx ground truth."""

import os
import subprocess
import sys
import warnings

import networkx as nx
import numpy as np
import pytest

from repro.algorithms import get_algorithm
from repro.compute import ckernels
from repro.errors import ConfigError, SimulationError
from repro.graph import ReferenceGraph
from tests.conftest import ccompute_env, random_batch

SOURCE = 0


@pytest.fixture(scope="module")
def graph_pair():
    """A ReferenceGraph and the equivalent networkx DiGraph."""
    batch = random_batch(50, 400, seed=23)
    reference = ReferenceGraph(50, directed=True)
    reference.update(batch)
    nx_graph = nx.DiGraph()
    nx_graph.add_nodes_from(range(reference.num_nodes))
    for u in range(reference.num_nodes):
        for v, w in reference.out_neigh(u):
            nx_graph.add_edge(u, v, weight=w)
    return reference, nx_graph


class TestBFS:
    def test_depths_match_networkx(self, graph_pair):
        reference, nx_graph = graph_pair
        run = get_algorithm("BFS").fs_run(reference, source=SOURCE)
        expected = nx.single_source_shortest_path_length(nx_graph, SOURCE)
        for v in range(reference.num_nodes):
            if v in expected:
                assert run.values[v] == expected[v]
            else:
                assert np.isinf(run.values[v])

    def test_source_required(self, graph_pair):
        reference, _ = graph_pair
        with pytest.raises(SimulationError):
            get_algorithm("BFS").fs_run(reference)

    def test_unreachable_source_out_of_graph(self):
        reference = ReferenceGraph(4, directed=True)
        from repro.graph import EdgeBatch

        reference.update(EdgeBatch.from_edges([(0, 1)]))
        run = get_algorithm("BFS").fs_run(reference, source=1)
        assert run.values[1] == 0
        assert np.isinf(run.values[0])


class TestSSSP:
    def test_distances_match_dijkstra(self, graph_pair):
        reference, nx_graph = graph_pair
        run = get_algorithm("SSSP").fs_run(reference, source=SOURCE)
        expected = nx.single_source_dijkstra_path_length(nx_graph, SOURCE)
        for v in range(reference.num_nodes):
            if v in expected:
                assert run.values[v] == pytest.approx(expected[v])
            else:
                assert np.isinf(run.values[v])

    def test_delta_parameter_does_not_change_result(self, graph_pair):
        from repro.algorithms.sssp import SSSP

        reference, _ = graph_pair
        coarse = SSSP(delta=8.0).fs_run(reference, source=SOURCE)
        fine = SSSP(delta=1.0).fs_run(reference, source=SOURCE)
        assert np.array_equal(
            np.nan_to_num(coarse.values, posinf=-1),
            np.nan_to_num(fine.values, posinf=-1),
        )


def _weighted(edges):
    from repro.graph import EdgeBatch

    reference = ReferenceGraph(4, directed=True)
    reference.update(EdgeBatch.from_edges(edges))
    return reference


#: Compiled ``saga_delta_run``, then the numpy bucket loop.
ENGINES = pytest.mark.parametrize("engine", [None, "1"], ids=["compiled", "numpy"])


class TestSSSPRefusedInput:
    """Inputs delta-stepping cannot take are refused, not answered
    wrongly (each of these returned ``[0, inf, inf]``, settled the far
    vertex first, or never returned at the parent)."""

    PATH = [(0, 1, 1.0), (1, 2, 1.0)]

    @pytest.mark.parametrize("delta", [0.0, -1.0, float("nan"), float("inf")])
    def test_delta_must_be_positive_and_finite(self, delta):
        """``delta=0.0`` used to leave every vertex but the source
        unreached, with no iteration run."""
        from repro.algorithms.sssp import SSSP

        with pytest.raises(ConfigError, match="delta"):
            SSSP(delta=delta)
        run = SSSP(delta=1e-3).fs_run(_weighted(self.PATH), source=0)
        assert run.values.tolist() == [0.0, 1.0, 2.0]

    @ENGINES
    @pytest.mark.parametrize("explicit_delta", [False, True])
    def test_nan_weight(self, engine, explicit_delta):
        """One NaN weight used to poison the delta pick: ``[0, inf, inf]``
        although ``0 -> 2`` has weight 4.  A given delta skips the pick,
        and the weight is refused all the same."""
        from repro.algorithms.sssp import SSSP

        view = _weighted([(0, 1, float("nan")), (0, 2, 4.0)])
        with ccompute_env(engine):
            with pytest.raises(SimulationError, match="weights"):
                SSSP(delta=1.0 if explicit_delta else None).fs_run(view, source=0)

    @ENGINES
    def test_infinite_weight_stays_legal(self, engine):
        view = _weighted([(0, 1, float("inf")), (0, 2, 4.0)])
        with ccompute_env(engine):
            run = get_algorithm("SSSP").fs_run(view, source=0)
        assert run.values.tolist() == [0.0, float("inf"), 4.0]

    @ENGINES
    def test_negative_cycle_is_refused_not_looped_on(self, engine):
        """In a child process under a timeout: the bucket loop never
        settles on ``1 -> 2 -> 1`` of total weight -2, and a compiled
        loop cannot even be interrupted."""
        script = (
            "from repro.algorithms import get_algorithm\n"
            "from repro.errors import SimulationError\n"
            "from repro.graph import EdgeBatch, ReferenceGraph\n"
            "view = ReferenceGraph(4, directed=True)\n"
            "view.update(EdgeBatch.from_edges([(0, 1, 1.0), (1, 2, -3.0), (2, 1, 1.0)]))\n"
            "try:\n"
            "    get_algorithm('SSSP').fs_run(view, source=0)\n"
            "except SimulationError as exc:\n"
            "    print('refused:', exc)\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        env.pop(ckernels.DISABLE_ENV, None)
        if engine is not None:
            env[ckernels.DISABLE_ENV] = engine
        child = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert child.returncode == 0, child.stderr
        assert child.stdout.startswith("refused:") and "weights" in child.stdout

    @ENGINES
    def test_bucket_index_overflow(self, engine):
        """``1e300 / 1e-9`` does not fit in an int64 bucket index: numpy
        cast it to ``INT64_MIN`` (three RuntimeWarnings) and settled the
        far vertex before the near one; in C the cast is undefined."""
        from repro.algorithms.sssp import SSSP

        view = _weighted([(0, 1, 1.0), (0, 2, 1e300)])
        with ccompute_env(engine), warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SimulationError, match="bucket index"):
                SSSP(delta=1e-9).fs_run(view, source=0)


class TestSourceRange:
    """``fs_run`` / ``inc_run`` / ``inc_delete_run`` are public: a root
    outside the id space is refused before any value is written."""

    EDGES = [(0, 1, 1.0), (1, 2, 1.0), (7, 3, 1.0)]

    @ENGINES
    def test_negative_source_is_refused_by_every_entry_point(self, engine):
        """In a child process: the compiled kernels read ``starts[-1]``
        (SIGSEGV at the parent), the numpy engines wrapped to vertex 7
        and answered ``[inf inf inf 1 inf inf inf 0]`` for it."""
        script = (
            "from repro.algorithms import get_algorithm\n"
            "from repro.errors import SimulationError\n"
            "from repro.graph import EdgeBatch, ReferenceGraph\n"
            f"batch = EdgeBatch.from_edges({self.EDGES!r})\n"
            "view = ReferenceGraph(8, directed=True)\n"
            "view.update(batch)\n"
            "for name in ('BFS', 'SSSP', 'SSWP'):\n"
            "    algorithm = get_algorithm(name)\n"
            "    state = algorithm.make_state(8)\n"
            "    before = state.values.copy()\n"
            "    for call in (\n"
            "        lambda: algorithm.fs_run(view, source=-1),\n"
            "        lambda: algorithm.inc_run(view, state, [0, 1, 2, 3, 7], source=-1),\n"
            "        lambda: algorithm.inc_delete_run(view, state, batch, source=-1),\n"
            "    ):\n"
            "        try:\n"
            "            print(name, 'answered', call().values.tolist())\n"
            "        except SimulationError as exc:\n"
            "            assert (state.values == before).all()\n"
            "            print(name, 'refused:', exc)\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        env.pop(ckernels.DISABLE_ENV, None)
        if engine is not None:
            env[ckernels.DISABLE_ENV] = engine
        child = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert child.returncode == 0, (child.returncode, child.stderr)
        assert child.stdout.splitlines() == [
            f"{name} refused: {name}: source vertex -1 is outside [0, 8)"
            for name in ("BFS", "SSSP", "SSWP")
            for _ in range(3)
        ]

    @ENGINES
    @pytest.mark.parametrize("name", ["BFS", "SSSP", "SSWP"])
    def test_bounds(self, engine, name):
        """The bound is the id space, not the live vertex count: a root
        the stream has not reached yet is legal and reaches nothing."""
        algorithm = get_algorithm(name)
        view = _weighted(self.EDGES[:2])  # 4 ids, 3 of them live
        with ccompute_env(engine):
            for source in (4, 5):
                with pytest.raises(SimulationError, match=rf"{source} is outside \[0, 4\)"):
                    algorithm.fs_run(view, source=source)
                with pytest.raises(SimulationError, match=rf"{source} is outside \[0, 4\)"):
                    algorithm.inc_run(
                        view, algorithm.make_state(4), [0, 1, 2], source=source
                    )
            assert view.num_nodes == 3
            unreached = algorithm.fs_run(view, source=3)
            reached = algorithm.fs_run(view, source=0)
        assert len(set(unreached.values.tolist())) == 1
        assert len(set(reached.values.tolist())) > 1


class TestSSWP:
    def test_widths_match_bruteforce(self, graph_pair):
        reference, nx_graph = graph_pair
        run = get_algorithm("SSWP").fs_run(reference, source=SOURCE)
        # Widest path via max-bottleneck Dijkstra on networkx.
        import heapq

        width = {SOURCE: float("inf")}
        heap = [(-float("inf"), SOURCE)]
        visited = set()
        while heap:
            negative_width, u = heapq.heappop(heap)
            if u in visited:
                continue
            visited.add(u)
            for _, v, data in nx_graph.out_edges(u, data=True):
                candidate = min(-negative_width, data["weight"])
                if candidate > width.get(v, 0.0):
                    width[v] = candidate
                    heapq.heappush(heap, (-candidate, v))
        for v in range(reference.num_nodes):
            assert run.values[v] == pytest.approx(width.get(v, 0.0))


class TestCC:
    def test_undirected_labels_are_components(self):
        batch = random_batch(40, 120, seed=31)
        reference = ReferenceGraph(40, directed=False)
        reference.update(batch)
        run = get_algorithm("CC").fs_run(reference)
        nx_graph = nx.Graph()
        nx_graph.add_nodes_from(range(reference.num_nodes))
        for u in range(reference.num_nodes):
            for v, _ in reference.out_neigh(u):
                nx_graph.add_edge(u, v)
        for component in nx.connected_components(nx_graph):
            labels = {run.values[v] for v in component}
            assert len(labels) == 1
            assert labels == {min(component)}

    def test_directed_is_fixpoint(self, graph_pair):
        """Every vertex satisfies the Table I equation at convergence."""
        reference, _ = graph_pair
        run = get_algorithm("CC").fs_run(reference)
        values = run.values
        for v in range(reference.num_nodes):
            incoming = [values[u] for u, _ in reference.in_neigh(v)]
            assert values[v] <= min(incoming, default=values[v])
            assert values[v] <= v


class TestMC:
    def test_directed_is_fixpoint(self, graph_pair):
        reference, _ = graph_pair
        run = get_algorithm("MC").fs_run(reference)
        values = run.values
        for v in range(reference.num_nodes):
            incoming = [values[u] for u, _ in reference.in_neigh(v)]
            assert values[v] >= max(incoming, default=values[v])
            assert values[v] >= v


class TestPR:
    def test_fixpoint_equation_holds(self, graph_pair):
        reference, _ = graph_pair
        run = get_algorithm("PR").fs_run(reference)
        assert run.converged
        values = run.values
        n = reference.num_nodes
        for v in range(n):
            expected = 0.15 / n + 0.85 * sum(
                values[u] / reference.out_degree(u)
                for u, _ in reference.in_neigh(v)
            )
            assert values[v] == pytest.approx(expected, abs=1e-5)

    def test_ranks_positive(self, graph_pair):
        reference, _ = graph_pair
        run = get_algorithm("PR").fs_run(reference)
        assert (run.values[: reference.num_nodes] > 0).all()

    def test_hub_outranks_leaf(self):
        # A vertex with many in-edges outranks one with none.
        from repro.graph import EdgeBatch

        reference = ReferenceGraph(10, directed=True)
        reference.update(
            EdgeBatch.from_edges([(i, 9) for i in range(8)] + [(9, 8)])
        )
        run = get_algorithm("PR").fs_run(reference)
        assert run.values[9] > run.values[0]


class TestRunRecords:
    def test_fs_records_iterations(self, graph_pair):
        reference, _ = graph_pair
        for name in ("BFS", "CC", "MC", "PR", "SSSP", "SSWP"):
            run = get_algorithm(name).fs_run(reference, source=SOURCE)
            assert run.model == "FS"
            assert run.iteration_count >= 1
            assert run.total_evaluations >= 0
            assert run.linear_scans >= 1

    def test_sync_runs_pull_everyone(self, graph_pair):
        reference, _ = graph_pair
        run = get_algorithm("CC").fs_run(reference)
        assert all(
            len(it.pull_vertices) == reference.num_nodes for it in run.iterations
        )

    def test_frontier_runs_push_only(self, graph_pair):
        reference, _ = graph_pair
        run = get_algorithm("BFS").fs_run(reference, source=SOURCE)
        assert all(len(it.pull_vertices) == 0 for it in run.iterations)
        assert run.iterations[0].push_vertices.tolist() == [SOURCE]

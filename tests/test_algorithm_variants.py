"""Tests for the optional FS algorithm variants.

Direction-optimizing BFS (GAP's hybrid) and binary-heap Dijkstra are
alternative from-scratch baselines; both must agree exactly with the
default kernels, while exhibiting their characteristic operation
profiles.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.bfs import BFS
from repro.algorithms.sssp import SSSP
from repro.compute.pricing import CostTables, price_compute_run
from repro.graph import EdgeBatch, ExecutionContext, ReferenceGraph
from tests.conftest import SMALL_MACHINE, random_batch


def graph(num_nodes=80, num_edges=600, seed=13):
    view = ReferenceGraph(num_nodes, directed=True)
    view.update(random_batch(num_nodes, num_edges, seed=seed))
    return view


def canonical(values):
    return np.nan_to_num(values, posinf=-1.0)


class TestDirectionOptimizingBFS:
    def test_agrees_with_plain_bfs(self):
        view = graph()
        plain = BFS().fs_run(view, source=0).values
        hybrid = BFS(direction_optimizing=True).fs_run(view, source=0).values
        assert np.array_equal(canonical(plain), canonical(hybrid))

    def test_uses_bottom_up_on_dense_graph(self):
        view = graph(num_nodes=50, num_edges=1500, seed=3)
        run = BFS(direction_optimizing=True).fs_run(view, source=0)
        # At least one round pulled over the unvisited set.
        assert any(len(it.pull_vertices) > 0 for it in run.iterations)

    def test_stays_top_down_on_tiny_frontiers(self):
        # A path graph keeps the frontier at one vertex: never switches.
        view = ReferenceGraph(200, directed=True)
        view.update(EdgeBatch.from_edges([(i, i + 1) for i in range(199)]))
        run = BFS(direction_optimizing=True).fs_run(view, source=0)
        assert all(len(it.pull_vertices) == 0 for it in run.iterations)

    def test_bottom_up_reduces_edge_examinations(self):
        """The point of the hybrid: fewer examinations on dense graphs."""
        view = graph(num_nodes=60, num_edges=2500, seed=5)

        def examinations(run):
            total = 0
            for it in run.iterations:
                for v in it.push_vertices:
                    total += view.out_degree(int(v))
                for v in it.pull_vertices:
                    total += view.in_degree(int(v))
            return total

        plain = BFS().fs_run(view, source=0)
        hybrid = BFS(direction_optimizing=True).fs_run(view, source=0)
        # Not asserting a strict win (bottom-up scans early-exit in
        # reality; our count is an upper bound) -- but it must be in
        # the same ballpark, not worse by construction.
        assert examinations(hybrid) <= 2 * examinations(plain)

    @given(
        edges=st.lists(
            st.tuples(st.integers(0, 14), st.integers(0, 14)), min_size=1, max_size=150
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_property_agreement(self, edges):
        view = ReferenceGraph(15, directed=True)
        view.update(EdgeBatch.from_edges([(u, v, 1.0) for u, v in edges]))
        plain = BFS().fs_run(view, source=0).values
        hybrid = BFS(direction_optimizing=True).fs_run(view, source=0).values
        assert np.array_equal(canonical(plain), canonical(hybrid))


class TestDijkstraVariant:
    def test_agrees_with_delta_stepping(self):
        view = graph()
        delta = SSSP().fs_run(view, source=0).values
        dijkstra = SSSP(use_dijkstra=True).fs_run(view, source=0).values
        assert np.array_equal(canonical(delta), canonical(dijkstra))

    def test_settles_each_reachable_vertex_once(self):
        view = graph()
        run = SSSP(use_dijkstra=True).fs_run(view, source=0)
        settled = [int(it.push_vertices[0]) for it in run.iterations]
        assert len(settled) == len(set(settled))
        reachable = int(np.isfinite(run.values[: view.num_nodes]).sum())
        assert len(settled) == reachable

    def test_serial_latency_exceeds_delta_stepping(self):
        """Dijkstra's one-vertex rounds price as a serial makespan."""
        view = graph(num_nodes=120, num_edges=900, seed=7)
        ctx = ExecutionContext(machine=SMALL_MACHINE)
        n = view.num_nodes
        deg_in = np.array([view.in_degree(v) for v in range(n)])
        deg_out = np.array([view.out_degree(v) for v in range(n)])
        tables = CostTables(deg_in, deg_out, ctx.cost_model)
        delta = price_compute_run(
            SSSP().fs_run(view, source=0), ("AS",), tables, ctx
        )["AS"]
        dijkstra = price_compute_run(
            SSSP(use_dijkstra=True).fs_run(view, source=0), ("AS",), tables, ctx
        )["AS"]
        assert dijkstra.latency_cycles > delta.latency_cycles

    @given(
        edges=st.lists(
            st.tuples(st.integers(0, 14), st.integers(0, 14), st.integers(1, 8)),
            min_size=1,
            max_size=120,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_property_agreement(self, edges):
        view = ReferenceGraph(15, directed=True)
        view.update(EdgeBatch.from_edges([(u, v, float(w)) for u, v, w in edges]))
        delta = SSSP().fs_run(view, source=0).values
        dijkstra = SSSP(use_dijkstra=True).fs_run(view, source=0).values
        assert np.allclose(canonical(delta), canonical(dijkstra))

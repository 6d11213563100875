"""Table I: the six vertex-centric algorithms and their functions.

Regenerates the table and verifies each algorithm is implemented in
both compute models by executing it once per model on a small graph.
"""

import numpy as np
import pytest

from repro.algorithms import ALGORITHMS, get_algorithm
from repro.analysis.report import render_table1
from repro.graph import EdgeBatch, ReferenceGraph


def _demo_view():
    rng = np.random.default_rng(5)
    edges = [
        (int(u), int(v), float(w))
        for (u, v), w in zip(
            rng.integers(0, 200, size=(1500, 2)), rng.integers(1, 9, size=1500)
        )
        if u != v
    ]
    view = ReferenceGraph(200, directed=True)
    view.update(EdgeBatch.from_edges(edges))
    return view


def test_table1(benchmark):
    """Render Table I and exercise every algorithm in both models."""
    view = _demo_view()

    def run_all():
        for name, algorithm in ALGORITHMS.items():
            fs = algorithm.fs_run(view, source=0)
            state = algorithm.make_state(view.max_nodes)
            inc = algorithm.inc_run(
                view, state, affected=range(view.num_nodes), source=0
            )
            assert fs.model == "FS" and inc.model == "INC"
        return render_table1()

    text = benchmark.pedantic(run_all, rounds=1, iterations=1)
    for name in ("BFS", "CC", "MC", "PR", "SSSP", "SSWP"):
        assert name in text


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_both_models_agree_where_exact(benchmark, name):
    """Per-algorithm kernel benchmark: one FS run on the demo graph."""
    view = _demo_view()
    algorithm = get_algorithm(name)
    run = benchmark(lambda: algorithm.fs_run(view, source=0))
    assert run.iteration_count >= 1

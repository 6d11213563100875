"""Unit tests for the compute-run records."""

import numpy as np
import pytest

from repro.compute.stats import ComputeRun
from repro.errors import SimulationError


def _run():
    return ComputeRun(algorithm="X", model="INC", values=np.zeros(3))


class TestIterationStats:
    def test_make_coerces_arrays(self):
        run = _run()
        run.add_round(pull=[1, 2], push=(3,), pushes=1, cas_ops=2)
        (it,) = run.iterations
        assert it.pull_vertices.dtype == it.push_vertices.dtype == np.int32
        assert list(it.pull_vertices) == [1, 2]
        assert list(it.push_vertices) == [3]
        assert (it.pushes, it.cas_ops) == (1, 2)
        assert len(it.pull_vertices) == 2

    def test_empty_defaults(self):
        run = _run()
        run.add_round()
        (it,) = run.iterations
        assert len(it.pull_vertices) == 0
        assert it.pushes == 0
        assert len(it.push_vertices) == 0


class TestComputeRun:
    def test_aggregates(self):
        run = _run()
        run.add_round(pull=[0, 1], pushes=2)
        run.add_round(pull=[2], pushes=1)
        assert run.rounds[:, 1].sum() == 3  # evaluations
        assert run.rounds[:, 4].sum() == 3  # pushes
        assert run.iteration_count == 2

    def test_defaults(self):
        run = ComputeRun(algorithm="X", model="FS", values=np.zeros(1))
        assert run.converged
        assert run.linear_scans == 0
        assert run.source is None
        assert len(run.rounds) == 0
        assert run.iterations == ()

    def test_columns_are_the_record(self):
        """Rounds land in one vertex log and one round table, however
        many there are (the buffers grow), and ``iterations`` decodes
        them; it is a view, so there is nothing to append to."""
        run = _run()
        for r in range(40):
            run.add_round(pull=range(r), push=[r, r + 1], pushes=r, cas_ops=2 * r)
        assert run.rounds.shape == (40, 5)
        assert run.rounds[:, 1].tolist() == list(range(40))
        assert run.rounds[:, 0].tolist() == np.cumsum([0] + [r + 2 for r in range(39)]).tolist()
        assert len(run.vertex_log) == sum(r + 2 for r in range(40))
        for r, it in enumerate(run.iterations):
            assert it.pull_vertices.tolist() == list(range(r))
            assert it.push_vertices.tolist() == [r, r + 1]
            assert (it.pushes, it.cas_ops) == (r, 2 * r)
        assert not hasattr(run.iterations, "append")
        with pytest.raises(AttributeError):
            run.iterations = []

    def test_a_handed_over_log_may_share_entries_and_is_bounds_checked(self):
        """``set_log`` takes a kernel's columns as they are -- rounds may
        point at the same entries -- and refuses a table that leaves the
        log, which native code would follow."""
        run = _run()
        run.set_log(np.arange(3), np.array([[0, 3, 0, 0, 0], [0, 3, 0, 0, 4], [1, 1, 1, 5, 6]]))
        first, second, third = run.iterations
        assert first.pull_vertices.tolist() == second.pull_vertices.tolist() == [0, 1, 2]
        assert (third.pull_vertices.tolist(), third.push_vertices.tolist()) == ([1], [2])
        assert (run.rounds[:, 1].sum(), run.rounds[:, 4].sum()) == (7, 10)
        run.add_round(pull=[9])  # a handed-over record still grows
        assert run.iterations[3].pull_vertices.tolist() == [9]
        for rows in ([[2, 1, 1, 0, 0]], [[-1, 1, 0, 0, 0]], [[0, -1, 0, 0, 0]], [[0, 1, 0, 0]]):
            with pytest.raises(SimulationError):
                _run().set_log(np.arange(3), np.array(rows))

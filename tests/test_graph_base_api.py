"""Contract tests for the base data-structure API surface."""

import pytest

from repro.errors import StructureError
from repro.graph import EdgeBatch, ExecutionContext, STRUCTURES, make_structure
from repro.graph.base import UpdateResult
from repro.sim.cost_model import DEFAULT_COST_MODEL
from repro.sim.machine import SKYLAKE_GOLD_6142
from repro.sim.trace import NullRecorder, TraceRecorder
from tests.conftest import SMALL_MACHINE


class TestExecutionContext:
    def test_default_threads_are_all_hardware_threads(self):
        ctx = ExecutionContext()
        assert ctx.threads == SKYLAKE_GOLD_6142.hardware_threads

    def test_explicit_threads(self):
        ctx = ExecutionContext(machine=SMALL_MACHINE, threads=3)
        assert ctx.threads == 3

    def test_rejects_zero_threads(self):
        with pytest.raises(StructureError):
            ExecutionContext(threads=0)

    def test_effective_recorder_defaults_to_null(self):
        ctx = ExecutionContext()
        assert isinstance(ctx.effective_recorder, NullRecorder)
        assert not ctx.effective_recorder.enabled

    def test_effective_recorder_passthrough(self):
        recorder = TraceRecorder()
        ctx = ExecutionContext(recorder=recorder)
        assert ctx.effective_recorder is recorder

    def test_seconds_conversion(self):
        ctx = ExecutionContext(machine=SMALL_MACHINE)
        assert ctx.seconds(SMALL_MACHINE.frequency_hz) == pytest.approx(1.0)


class TestBaseAPI:
    def test_vertices_range(self):
        structure = make_structure("AS", 10)
        structure.update(
            EdgeBatch.from_edges([(0, 5)]), ExecutionContext(machine=SMALL_MACHINE)
        )
        assert list(structure.vertices()) == list(range(6))

    def test_degree_query_cost_default(self):
        """A header read everywhere but DAH, whose lookup is a table
        meta-query."""
        cost = DEFAULT_COST_MODEL
        for name, cls in STRUCTURES.items():
            expected = cost.probe_element
            if name == "DAH":
                expected = cost.degree_query + cost.hash_probe
            assert cls.degree_query_cost(cost) == expected, name

    def test_repr_mentions_name(self):
        structure = make_structure("Stinger", 4)
        assert "Stinger" in repr(structure)

    def test_update_result_latency_seconds(self):
        structure = make_structure("AC", 8)
        result = structure.update(
            EdgeBatch.from_edges([(0, 1)]), ExecutionContext(machine=SMALL_MACHINE)
        )
        assert isinstance(result, UpdateResult)
        assert result.latency_seconds(SMALL_MACHINE) == pytest.approx(
            result.latency_cycles / SMALL_MACHINE.frequency_hz
        )

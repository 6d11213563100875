"""Unit tests for hardware-profile internals."""

import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.hardware_profile import (
    GroupProfile,
    HardwareProfiler,
    PhaseSample,
    _Section,
    _average_counters,
    _compute_trace,
    _interleave,
    merge_cells,
)
from repro.algorithms.registry import get_algorithm
from repro.compute import ckernels
from repro.compute.kernels import ComputeView
from repro.compute.stats import ComputeRun
from repro.datasets.catalog import load_dataset
from repro.errors import SimulationError
from repro.graph import ExecutionContext, ReferenceGraph, make_structure
from repro.graph.properties import VertexProperties
from repro.obs import METRICS
from repro.sim import ckernel
from repro.sim.counters import PhaseCounters
from repro.sim.machine import MachineConfig
from repro.sim.trace import TraceRecorder
from repro.streaming.batching import make_batches
from tests.conftest import SMALL_MACHINE, native_env


def counters(**overrides):
    defaults = dict(
        seconds=1.0,
        instructions=1e6,
        l2_hit_ratio=0.5,
        llc_hit_ratio=0.5,
        l2_mpki=10.0,
        llc_mpki=5.0,
        memory_bytes=1e6,
        memory_bandwidth=1e9,
        memory_bw_utilization=0.1,
        qpi_bytes=1e5,
        qpi_bandwidth=1e8,
        qpi_utilization=0.05,
    )
    defaults.update(overrides)
    return PhaseCounters(**defaults)


def assert_payloads_equal(payload, other):
    """Two ``HardwareCell.to_payload()`` results, array for array."""
    (meta, arrays), (other_meta, other_arrays) = payload, other
    assert meta == other_meta
    assert sorted(arrays) == sorted(other_arrays)
    for name, column in arrays.items():
        assert np.array_equal(column, other_arrays[name]), name


class TestAverageCounters:
    def test_mean_of_fields(self):
        merged = _average_counters(
            [counters(l2_hit_ratio=0.2), counters(l2_hit_ratio=0.8)]
        )
        assert merged.l2_hit_ratio == pytest.approx(0.5)

    def test_empty_rejected(self):
        with pytest.raises(SimulationError):
            _average_counters([])

    def test_single_identity(self):
        one = counters()
        assert _average_counters([one]) == one


class TestGroupProfile:
    def _profile(self):
        profile = GroupProfile(
            group="G",
            structure="AS",
            datasets=("A",),
            scaling_cycles={
                "update": {4: 100.0, 8: 60.0},
                "compute": {4: 100.0, 8: 50.0},
            },
        )
        profile.batches_per_dataset["A"] = 3
        for index in range(3):
            profile.samples["update"].append(
                PhaseSample(index, counters(l2_mpki=float(index)))
            )
            profile.samples["compute"].append(
                PhaseSample(index, counters(l2_mpki=10.0 + index))
            )
        return profile

    def test_scaling_performance_normalized(self):
        profile = self._profile()
        perf = profile.scaling_performance("update")
        assert perf[4] == pytest.approx(1.0)
        assert perf[8] == pytest.approx(100.0 / 60.0)

    def test_stage_counter_pools_stage_batches(self):
        profile = self._profile()
        # 3 batches over 3 stages: one batch each.
        assert profile.stage_counter("update", 0, "l2_mpki") == 0.0
        assert profile.stage_counter("update", 2, "l2_mpki") == 2.0
        assert profile.stage_counter("compute", 1, "l2_mpki") == 11.0

    def test_stage_counter_empty_rejected(self):
        profile = GroupProfile(group="G", structure="AS", datasets=())
        with pytest.raises(SimulationError):
            profile.stage_counter("update", 0, "l2_mpki")


class TestProfilerSmall:
    def test_single_dataset_profile(self):
        machine = MachineConfig(
            sockets=2,
            cores_per_socket=2,
            l1d_bytes=2 * 1024,
            l2_bytes=16 * 1024,
            llc_bytes_per_socket=128 * 1024,
            llc_ways=16,
        )
        profiler = HardwareProfiler(
            machine=machine,
            core_counts=(2, 4),
            algorithms=("BFS",),
            batch_size=400,
            trace_cap=5_000,
            seed=2,
        )
        profile = merge_cells(
            "T", "DAH", profiler.profile_cells([("Talk", "DAH", 0.08)]), (2, 4)
        )
        assert profile.batches_per_dataset["Talk"] >= 1
        assert len(profile.samples["update"]) == len(profile.samples["compute"])
        perf = profile.scaling_performance("update")
        assert perf[2] == pytest.approx(1.0)


class TestCellOverTheLiveGraphView:
    def test_payload_equals_the_packed_dict_view(self, monkeypatch):
        """``profile_cell`` reads its per-batch view and degrees from the
        live graph's slack CSR.  Same payload, array for array, as over
        what it read before: a packed ``ComputeView.of`` walk of the
        dict-of-dicts graph fed the same batches.  The cell's reference
        graph is the driver loop's."""
        from repro.streaming import driver
        from tests.oracles import DictGraph

        live_packed = []  # per batch: was the live graph's own view packed?

        class DictBacked(ReferenceGraph):
            def __init__(self, max_nodes, directed=True):
                super().__init__(max_nodes, directed=directed)
                self.oracle = DictGraph(max_nodes, directed=directed)

            def update_collect(self, batch):
                self.oracle.update_collect(batch)
                return super().update_collect(batch)

            def compute_view(self):
                live_packed.append(super().compute_view().packed)
                return ComputeView.of(self.oracle)

        profiler = HardwareProfiler(
            machine=SMALL_MACHINE,
            core_counts=(2, 4),
            algorithms=("BFS", "CC", "PR"),
            batch_size=1250,
            trace_cap=20_000,
        )
        payload = profiler.profile_cell("Talk", "DAH", 0.125).to_payload()
        monkeypatch.setattr(driver, "ReferenceGraph", DictBacked)
        oracle_payload = profiler.profile_cell("Talk", "DAH", 0.125).to_payload()
        assert payload[0]["batches"] == 5
        assert live_packed[0] and not all(live_packed)  # slack rows were read
        assert_payloads_equal(payload, oracle_payload)


def payload_digest(payload):
    """sha256 over a ``HardwareCell.to_payload()``'s arrays, by name."""
    _meta, arrays = payload
    digest = hashlib.sha256()
    for name in sorted(arrays):
        array = np.ascontiguousarray(arrays[name])
        digest.update(f"{name}:{array.dtype.str}:{array.shape}".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


#: (dataset, structure, size_factor) -> batches, payload digest.  Every
#: counter and ladder cycle of the cell; the DAH cell computed when the
#: cell still ran its own batch loop, before it became the driver's
#: plane, the AS cell when the cache model lost its prefetcher.
PINNED_CELLS = {
    ("Talk", "DAH", 0.125): (
        5, "c84d733bb9192b3b5019ce0779c2ba50e36ec53b68cb952ffb8638cdc19e7c5a"
    ),
    ("Orkut", "AS", 0.03): (
        2, "02cac0bd00d002ee4c7c4d6079bbb65d87d7df68c2a9e4f0b377741351129601"
    ),
}


@pytest.mark.parametrize("cell", sorted(PINNED_CELLS), ids=lambda c: f"{c[0]}-{c[1]}")
def test_cell_payload_is_pinned(cell):
    """The cell's simulated numbers do not move with its code path: the
    native library and every Python reference (``SAGA_BENCH_NO_NATIVE``)
    both give the pinned digest."""
    profiler = HardwareProfiler(
        machine=SMALL_MACHINE,
        core_counts=(2, 4),
        algorithms=("BFS", "CC", "PR"),
        batch_size=1250,
        trace_cap=20_000,
    )
    for setting in (None, "1"):
        with native_env(setting):
            payload = profiler.profile_cell(*cell).to_payload()
        assert (payload[0]["batches"], payload_digest(payload)) == PINNED_CELLS[cell], setting


class TestCellOnBothSimEngines:
    @pytest.mark.skipif(
        ckernel.get_kernel() is None, reason="no C compiler: sim library unavailable"
    )
    @pytest.mark.parametrize(
        "dataset_name, structure_name, size_factor",
        [("Talk", "DAH", 0.125), ("Orkut", "AS", 0.03)],
    )
    def test_payload_equal_with_and_without_the_sim_library(
        self, dataset_name, structure_name, size_factor
    ):
        """The whole cell -- update and compute replays through one
        persistent hierarchy per cell, core ladder, counters -- array
        for array the same from ``saga_cache_replay`` and from the
        ``SetAssociativeCache`` loop.  Kills, in the kernel: no LRU
        refresh on a hit; evict the MRU way; ``socket = core %
        sockets``; home socket from the byte address."""
        profiler = HardwareProfiler(
            machine=SMALL_MACHINE,
            core_counts=(2, 4),
            algorithms=("BFS", "CC", "PR"),
            batch_size=1250,
            trace_cap=20_000,
        )
        payload = profiler.profile_cell(
            dataset_name, structure_name, size_factor
        ).to_payload()
        with mock.patch.object(ckernel, "get_kernel", return_value=None):
            python_payload = profiler.profile_cell(
                dataset_name, structure_name, size_factor
            ).to_payload()
        assert payload[0]["batches"] >= 2
        assert_payloads_equal(payload, python_payload)


def _per_vertex_compute_trace(
    run, structure, reference, properties, algorithm, visited_region, threads
):
    """The per-vertex loop ``_compute_trace`` used to be: the reference."""
    recorder = TraceRecorder()
    task = 0
    for iteration in run.iterations:
        for v in iteration.pull_vertices:
            v = int(v)
            recorder.begin_task(task)
            task += 1
            structure._in.trace_traversal(v, recorder)
            for u, _ in reference.in_neigh(v):
                recorder.access(properties.address_of(algorithm, int(u)))
            recorder.access(properties.address_of(algorithm, v), write=True)
        for v in iteration.push_vertices:
            v = int(v)
            recorder.begin_task(task)
            task += 1
            structure._out.trace_traversal(v, recorder)
            for w, _ in reference.out_neigh(v):
                recorder.access(visited_region.element(int(w) // 8, 1), write=True)
    task_thread = np.arange(max(task, 1), dtype=np.int32) % threads
    return recorder.finalize(), task_thread


class TestComputeTraceMatchesPerVertexLoop:
    @pytest.mark.parametrize(
        "dataset_name, structure_name",
        [("Talk", "DAH"), ("RMAT", "AS"), ("Orkut", "AS")],
    )
    def test_array_equal(self, dataset_name, structure_name):
        dataset = load_dataset(dataset_name, seed=3, size_factor=0.04)
        structure = make_structure(
            structure_name, dataset.max_nodes, directed=dataset.directed
        )
        reference = ReferenceGraph(dataset.max_nodes, directed=dataset.directed)
        algorithms = ("BFS", "CC", "PR")
        properties = VertexProperties(dataset.max_nodes, structure.space)
        for name in algorithms:
            properties.add(name)
        visited = structure.space.alloc((dataset.max_nodes + 7) // 8, "inc.visited")
        states = {
            name: get_algorithm(name).make_state(dataset.max_nodes)
            for name in algorithms
        }
        source = int(np.bincount(dataset.edges.src).argmax())
        accesses = 0
        for batch in make_batches(dataset.edges, 300, shuffle_seed=3):
            structure.update(batch, ExecutionContext(machine=SMALL_MACHINE))
            reference.update(batch)
            compute_view = ComputeView.of(reference)
            for name in algorithms:
                algorithm = get_algorithm(name)
                run = algorithm.inc_run(
                    reference,
                    states[name],
                    algorithm.affected_from_batch(batch, reference),
                    source=source,
                )
                trace, task_thread = _compute_trace(
                    run, structure, compute_view, properties, name, visited, 8
                )
                want, want_thread = _per_vertex_compute_trace(
                    run, structure, reference, properties, name, visited, 8
                )
                assert np.array_equal(trace.task_ids, want.task_ids)
                assert np.array_equal(trace.addresses, want.addresses)
                assert np.array_equal(trace.is_write, want.is_write)
                assert np.array_equal(task_thread, want_thread)
                assert task_thread.dtype == want_thread.dtype
                accesses += len(trace)
        assert accesses > 10_000

    @pytest.mark.parametrize(
        "dataset_name, structure_name", [("Talk", "DAH"), ("Orkut", "AS")]
    )
    def test_run_with_empty_sets_and_a_vertex_pulled_twice(
        self, dataset_name, structure_name
    ):
        """What emitting once per run could get wrong: an iteration that
        pulls nothing, one that pushes nothing, one that does neither,
        and a vertex pulled (and pushed) in two different iterations.
        Kills: all pulled tasks placed before all pushed ones instead
        of alternating per iteration; push sections spread over the
        pulled tasks; an iteration that pulls nothing left out of the
        task layout (which only this run has)."""
        dataset = load_dataset(dataset_name, seed=3, size_factor=0.04)
        structure = make_structure(
            structure_name, dataset.max_nodes, directed=dataset.directed
        )
        reference = ReferenceGraph(dataset.max_nodes, directed=dataset.directed)
        properties = VertexProperties(dataset.max_nodes, structure.space)
        properties.add("CC")
        visited = structure.space.alloc((dataset.max_nodes + 7) // 8, "inc.visited")
        for batch in make_batches(dataset.edges, 600, shuffle_seed=3):
            structure.update(batch, ExecutionContext(machine=SMALL_MACHINE))
            reference.update(batch)
        hub = int(np.bincount(dataset.edges.src).argmax())
        busy = np.argsort(np.bincount(dataset.edges.dst))[-4:].tolist()
        run = ComputeRun("CC", "INC", np.zeros(0))
        run.add_round(pull=[hub, busy[0], busy[1]], push=[hub, busy[0]])
        run.add_round(push=[busy[2]])
        run.add_round()
        run.add_round(pull=[busy[3], hub])
        run.add_round(pull=[busy[1], 0], push=[hub])
        trace, task_thread = _compute_trace(
            run, structure, ComputeView.of(reference), properties, "CC", visited, 8
        )
        want, want_thread = _per_vertex_compute_trace(
            run, structure, reference, properties, "CC", visited, 8
        )
        assert len(want_thread) == 11 and len(want) > 50
        assert np.array_equal(trace.task_ids, want.task_ids)
        assert np.array_equal(trace.addresses, want.addresses)
        assert np.array_equal(trace.is_write, want.is_write)
        assert np.array_equal(task_thread, want_thread)

    def test_run_without_iterations(self):
        dataset = load_dataset("Talk", seed=0, size_factor=0.04)
        structure = make_structure("DAH", dataset.max_nodes)
        reference = ReferenceGraph(dataset.max_nodes)
        properties = VertexProperties(dataset.max_nodes, structure.space)
        properties.add("BFS")
        visited = structure.space.alloc(64, "inc.visited")
        trace, task_thread = _compute_trace(
            ComputeRun("BFS", "INC", np.zeros(0)), structure,
            ComputeView.of(reference), properties, "BFS", visited, 8,
        )
        assert len(trace) == 0
        assert task_thread.tolist() == [0]


#: Per example: 0-5 tasks, 1-5 sections of (counts per task, write bit).
_sections = st.integers(0, 5).flatmap(
    lambda tasks: st.lists(
        st.tuples(st.lists(st.integers(0, 4), min_size=tasks, max_size=tasks), st.booleans()),
        min_size=1,
        max_size=5,
    )
)


class TestInterleave:
    """``saga_interleave`` against ``_interleave``'s numpy body."""

    # ``TestComputeLibraryUnderUBSan`` runs this a second time;
    # derandomized, so there is no example database for the two to confuse.
    @settings(
        max_examples=80,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.differing_executors],
    )
    @given(layout=_sections)
    def test_matches_the_numpy_reference(self, layout):
        """Zero-count tasks, empty sections, one task and zero tasks come
        up; every address is distinct, so a misplaced one shows.  Kills:
        sections taken in another order, a section's write bit on
        another section's accesses."""
        kernels = ckernels.get()
        if kernels is None:
            pytest.skip("compiled compute kernels unavailable")
        sections = [
            _Section(
                np.asarray(counts, dtype=np.int64),
                1000 * s + np.arange(sum(counts), dtype=np.int64),
                write,
            )
            for s, (counts, write) in enumerate(layout)
        ]
        with mock.patch.object(ckernels, "get", return_value=None):
            want = _interleave(sections)
        got = _interleave(sections)
        for column in ("task_ids", "addresses", "is_write"):
            assert getattr(got, column).dtype == getattr(want, column).dtype
            assert getattr(got, column).tolist() == getattr(want, column).tolist()

    def test_counts_that_do_not_cover_the_addresses_are_refused(self):
        kernels = ckernels.get()
        if kernels is None:
            pytest.skip("compiled compute kernels unavailable")
        one = np.ones(3, dtype=np.int64)
        for bad in (
            [(one, np.arange(3), False), (one[:2], np.arange(2), True)],
            [(one, np.arange(4), False)],
            [(np.array([2, -1, 2]), np.arange(3), False)],
        ):
            with pytest.raises(ValueError, match="every section"):
                kernels.interleave(bad)


def test_one_interleave_crossing_per_compute_trace():
    """A cell crosses into ``saga_interleave`` once per compute trace it
    emits: one per algorithm per batch, 15 on the 5-batch Talk cell."""
    if ckernels.get() is None:
        pytest.skip("compiled compute kernels unavailable")
    profiler = HardwareProfiler(
        machine=SMALL_MACHINE,
        core_counts=(2, 4),
        algorithms=("BFS", "CC", "PR"),
        batch_size=1250,
        trace_cap=20_000,
    )
    METRICS.reset()
    METRICS.enable()
    try:
        cell = profiler.profile_cell("Talk", "DAH", 0.125)
        crossings = METRICS.counter(
            "compute_kernel_calls_total",
            "native compute-kernel calls (ctypes crossings)",
            kernel="interleave",
        ).value
    finally:
        METRICS.disable()
        METRICS.reset()
    assert crossings == 3 * cell.batches == 15


@pytest.mark.parametrize("trace_cap", [0, -1])
def test_trace_cap_below_one_rejected(trace_cap):
    """``profile_cell`` would scale every counter by ``len(trace) / 1``."""
    with pytest.raises(SimulationError, match="trace_cap"):
        HardwareProfiler(trace_cap=trace_cap)


class TestVisitedBitvectorSizing:
    def test_max_nodes_not_a_multiple_of_eight(self):
        """Wiki at 0.125 has 1 125 ids: the last partial byte is touched."""
        profiler = HardwareProfiler(
            machine=SMALL_MACHINE,
            core_counts=(4,),
            algorithms=("BFS",),
            batch_size=1250,
            trace_cap=5_000,
        )
        assert load_dataset("Wiki", seed=0, size_factor=0.125).max_nodes % 8
        cell = profiler.profile_cell("Wiki", "DAH", 0.125)
        assert cell.batches == len(cell.counters["compute"]) > 0

"""Unit tests for hardware-profile internals."""

from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from bench_e2e.workloads import sim_digest
from repro.analysis import hardware_profile
from repro.analysis.hardware_profile import (
    COMPUTE_TRACE_CAPACITY,
    GroupProfile,
    HardwareProfiler,
    PhaseSample,
    _average_counters,
    _compute_trace,
    merge_cells,
)
from repro.algorithms.registry import get_algorithm
from repro.compute import ckernels
from repro.compute.kernels import ComputeView
from repro.compute.stats import ComputeRun
from repro.datasets.catalog import load_dataset
from repro.errors import SimulationError
from repro.graph import EdgeBatch, ExecutionContext, ReferenceGraph, make_structure
from repro.graph.properties import VALUE_BYTES, VertexProperties
from repro.obs import METRICS
from repro.sim import ckernel
from repro.sim.counters import PhaseCounters
from repro.sim.machine import MachineConfig
from repro.sim.trace import TraceColumns, TraceRecorder
from repro.streaming.batching import make_batches
from tests.conftest import SMALL_MACHINE, native_env, on_both_sides, random_batch


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


#: (dataset, structure, size_factor) -> batches, ``sim_digest``.  Every
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
    both give the pinned digest -- also when the plane's trace columns
    start at one access, so that they grow under the cell's traces."""
    profiler = HardwareProfiler(
        machine=SMALL_MACHINE,
        core_counts=(2, 4),
        algorithms=("BFS", "CC", "PR"),
        batch_size=1250,
        trace_cap=20_000,
    )
    for capacity in (1, COMPUTE_TRACE_CAPACITY):
        for setting in (None, "1"):
            with native_env(setting), mock.patch.object(
                hardware_profile, "COMPUTE_TRACE_CAPACITY", capacity
            ):
                profiled = profiler.profile_cell(*cell)
            assert (
                profiled.batches, sim_digest(profiled)
            ) == PINNED_CELLS[cell], (capacity, setting)


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
                recorder.access(properties.region(algorithm).element(int(u), VALUE_BYTES))
            recorder.access(properties.region(algorithm).element(v, VALUE_BYTES), write=True)
        for v in iteration.push_vertices:
            v = int(v)
            recorder.begin_task(task)
            task += 1
            structure._out.trace_traversal(v, recorder)
            for w, _ in reference.out_neigh(v):
                recorder.access(visited_region.element(int(w) // 8, 1), write=True)
    task_thread = np.arange(max(task, 1), dtype=np.int32) % threads
    return recorder.finalize(), task_thread


def _assert_traces_equal(trace, task_thread, want, want_thread):
    for column in ("task_ids", "addresses", "is_write"):
        got_column, want_column = getattr(trace, column), getattr(want, column)
        assert got_column.dtype == want_column.dtype, column
        assert np.array_equal(got_column, want_column), column
    assert task_thread.dtype == want_thread.dtype
    assert np.array_equal(task_thread, want_thread)


class TestComputeTraceMatchesPerVertexLoop:
    """``_compute_trace`` against the per-vertex loop, over the native
    library and over every Python reference (each test runs on both
    sides), every trace of a test emitted into one set of columns."""

    @pytest.mark.parametrize(
        "dataset_name, structure_name",
        [("Talk", "DAH"), ("RMAT", "AS"), ("Orkut", "AS")],
    )
    @on_both_sides
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
        columns = TraceColumns(1)
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
                    run, structure, compute_view, properties, name, visited, 8,
                    columns,
                )
                _assert_traces_equal(
                    trace, task_thread,
                    *_per_vertex_compute_trace(
                        run, structure, reference, properties, name, visited, 8
                    ),
                )
                accesses += len(trace)
        assert accesses > 10_000

    @pytest.mark.parametrize(
        "dataset_name, structure_name", [("Talk", "DAH"), ("Orkut", "AS")]
    )
    @on_both_sides
    def test_run_with_empty_sets_and_a_vertex_pulled_twice(
        self, dataset_name, structure_name
    ):
        """What emitting once per run could get wrong: an iteration that
        pulls nothing, one that pushes nothing, one that does neither,
        and a vertex pulled (and pushed) in two different iterations.
        Kills: all pulled tasks placed before all pushed ones instead
        of alternating per iteration; push sections spread over the
        pulled tasks; an iteration that pulls nothing left out of the
        task layout (which only this run has).  Then the run's first
        two rounds, into the same columns: a stale tail, or a length
        taken from the columns' capacity, fails."""
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
        rounds = [
            dict(pull=[hub, busy[0], busy[1]], push=[hub, busy[0]]),
            dict(push=[busy[2]]),
            dict(),
            dict(pull=[busy[3], hub]),
            dict(pull=[busy[1], 0], push=[hub]),
        ]
        columns = TraceColumns(1)
        lengths = []
        for kept in (5, 2):
            run = ComputeRun("CC", "INC", np.zeros(0))
            for kinds in rounds[:kept]:
                run.add_round(**kinds)
            trace, task_thread = _compute_trace(
                run, structure, ComputeView.of(reference), properties, "CC",
                visited, 8, columns,
            )
            want, want_thread = _per_vertex_compute_trace(
                run, structure, reference, properties, "CC", visited, 8
            )
            _assert_traces_equal(trace, task_thread, want, want_thread)
            lengths.append((len(want_thread), len(want)))
        assert lengths[0][0] == 11 and lengths[1][0] == 6
        assert lengths[0][1] > lengths[1][1] > 50
        assert columns.capacity >= lengths[0][1]

    @on_both_sides
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
            TraceColumns(1),
        )
        assert len(trace) == 0
        assert task_thread.tolist() == [0]


#: Vertices of the emitter differential's graphs: seven have no edges,
#: and some of the others no in- or out-neighbors.
_N = 48

#: Every store family: vectors (AS, AC, BA), Stinger and DAH.
_FAMILIES = ("AS", "AC", "BA", "Stinger", "DAH")


def _emitter_graph(name):
    """``name`` and the live graph over one random batch on ``_N - 8``
    vertices and an edge into the last: ``(structure, compute view,
    properties, visited)``."""
    batch = random_batch(_N - 8, 120, seed=5)
    batch = EdgeBatch.from_edges(
        list(zip(batch.src.tolist(), batch.dst.tolist())) + [(0, _N - 1)]
    )
    structure = make_structure(name, _N)
    structure.update(batch, ExecutionContext(machine=SMALL_MACHINE))
    reference = ReferenceGraph(_N)
    reference.update(batch)
    properties = VertexProperties(_N, structure.space)
    properties.add("PR")
    visited = structure.space.alloc((_N + 7) // 8, "inc.visited")
    return structure, ComputeView.of(reference), properties, visited


class _Quiet:
    """A structure whose traversals of the ``quiet`` vertices read
    nothing, so that a task with no access at all comes up: a quiet
    vertex without out-neighbors, pushed."""

    def __init__(self, structure, quiet):
        self.structure = structure
        self.quiet = np.asarray(sorted(quiet), dtype=np.int64)

    def _silence(self, vertices, reads):
        counts, addresses = reads
        loud = ~np.isin(vertices, self.quiet)
        owner = np.repeat(np.arange(len(counts)), counts)
        return np.where(loud, counts, 0), addresses[loud[owner]]

    def trace_in_traversal(self, vertices):
        return self._silence(vertices, self.structure.trace_in_traversal(vertices))

    def trace_out_traversal(self, vertices):
        return self._silence(vertices, self.structure.trace_out_traversal(vertices))


def _run(rounds):
    run = ComputeRun("PR", "INC", np.zeros(0))
    for pull, push in rounds:
        run.add_round(pull=pull, push=push)
    return run


#: Per example: 0-4 rounds of 0-5 pulled and 0-5 pushed vertices.
_vertices = st.lists(st.integers(0, _N - 1), max_size=5)
_rounds = st.lists(st.tuples(_vertices, _vertices), max_size=4)


class TestComputeTraceEmitter:
    """``saga_compute_trace`` against ``_interleave``'s numpy body, on
    every store family, and the inputs both refuse."""

    # ``TestComputeLibraryUnderUBSan`` runs this a second time;
    # derandomized, so there is no example database for the two to confuse.
    @settings(
        max_examples=60,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.differing_executors],
    )
    @given(rounds=_rounds, quiet=st.sets(st.integers(0, _N - 1), max_size=6))
    @example(rounds=[([7, 3], [7]), ([], []), ([7, 44], [3, 45])], quiet={45})
    @example(rounds=[], quiet=set())
    def test_matches_the_numpy_reference(self, rounds, quiet):
        """Zero rounds, empty rounds, a vertex pulled and pushed in two
        rounds, zero-degree vertices (40-46) and tasks with no
        access at all come up; equal columns, dtypes and thread maps,
        five emissions into one set of columns.  Kills: pull and push
        swapped inside a round; the own write emitted before the
        neighbor reads; ``w`` in place of ``w >> 3``; a zero-access
        task not advancing the task id."""
        if ckernels.get() is None:
            pytest.skip("compiled compute kernels unavailable")
        run = _run(rounds)
        columns = TraceColumns(1)
        for name in _FAMILIES:
            structure, view, properties, visited = _emitter_graph(name)
            args = (run, _Quiet(structure, quiet), view, properties, "PR", visited, 4)
            with mock.patch.object(ckernels, "get", return_value=None):
                want, want_thread = _compute_trace(*args, TraceColumns(1))
            _assert_traces_equal(*_compute_trace(*args, columns), want, want_thread)

    @on_both_sides
    def test_hostile_runs_are_refused_before_any_write(self):
        """A vertex past the property region, an out-neighbor whose
        visited byte lies past the bitvector, and a round past the vertex
        log each raise ``SimulationError``, the first two
        ``Region.element``'s, on both paths; the columns keep what they
        held."""
        structure, view, properties, _ = _emitter_graph("AS")
        visited = structure.space.alloc(2, "inc.visited")  # vertices 0-15
        hub = int(np.argmax(view.out_csr.degrees))
        assert view.out_csr.indices[
            view.out_csr.indptr[hub]: view.out_csr.indptr[hub] + view.out_csr.degrees[hub]
        ].max() >= 16
        log = np.array([1, 2, 3], dtype=np.int64)
        for run, match in (
            (_run([([1, _N + 3], [2])]), "overruns region 'prop.PR'"),
            (_run([([1], [2, hub])]), "overruns region 'inc.visited'"),
            (
                SimpleNamespace(vertex_log=log, rounds=np.array([[1, 2, 1, 0, 0]])),
                "outside its 3-entry vertex log",
            ),
        ):
            columns = TraceColumns(1 << 10)
            columns.addresses[:] = -7
            with pytest.raises(SimulationError, match=match):
                _compute_trace(run, structure, view, properties, "PR", visited, 4, columns)
            assert (columns.addresses == -7).all()

    def test_columns_one_short_are_refused(self):
        """The kernel writes no further than the columns it is given:
        into columns of exactly the trace's length it writes the trace,
        into one access fewer nothing.  Under AddressSanitizer each
        column is its own heap block of that length."""
        kernels = ckernels.get()
        if kernels is None:
            pytest.skip("compiled compute kernels unavailable")
        structure, view, properties, visited = _emitter_graph("DAH")
        tasks = np.tile(np.arange(_N), 3)
        run = _run([(range(_N), range(_N))] * 3)
        want, _ = _compute_trace(
            run, structure, view, properties, "PR", visited, 4, TraceColumns(1)
        )
        assert len(want) > 1024  # each column a malloc block of its own
        reads = (
            structure.trace_in_traversal(tasks), structure.trace_out_traversal(tasks)
        )
        for capacity in (len(want), len(want) - 1):
            columns = TraceColumns(capacity)
            columns.addresses[:] = -7

            def emit():
                return kernels.compute_trace(
                    run, view, *reads, properties.region("PR"), 8, visited, columns
                )

            if capacity == len(want):
                assert emit() == len(want)
                assert np.array_equal(columns.addresses, want.addresses)
            else:
                with pytest.raises(SimulationError, match="overrun"):
                    emit()
                assert (columns.addresses == -7).all()


def test_one_compute_trace_crossing_per_trace():
    """A cell crosses into ``saga_compute_trace`` once per compute trace
    it emits: one per algorithm per batch, 15 on the 5-batch Talk cell."""
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
            kernel="compute_trace",
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

"""Task emission and scheduling: each fast path against its reference.

**Emission.**  A structure ingests through its stores' per-operation
methods (the reference: what kernel-less stores run) or one compiled
call per batch, traced or not.  The emitted
columns are **pinned exactly**: ``test_emitted_columns_are_pinned``
holds a sha256 of the six ``TaskArray`` columns for every structure x
orientation x {inserts, insert then delete} stream, recorded from the
per-``Task`` object path this repository had until PR 18 (which priced
every operation with scalar Python arithmetic) in its last run.  Every
ingestion mode -- kernel, kernel-less and traced over the arena stores,
plus the list/dict oracle stores of ``tests/oracle_stores.py`` -- must
reproduce them; the remaining structure tests compare schedules and
cache statistics of the modes with ``==`` on the raw floats.

**Scheduling.**  The dynamic scheduler's default dispatch, the compiled
event loop, against the one Python event loop
(``DynamicScheduler._run_event_loop``), which is also the timeline
recorder, on the same tasks, locked and lock-free; the chunked
scheduler's bincount against a plain loop.
"""

import hashlib
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.graph import EdgeBatch, ExecutionContext, STRUCTURES, make_structure
from repro.obs.tracer import TRACER
from repro.sim import ckernel
from repro.sim.cache import CacheHierarchy
from repro.sim.cost_model import DEFAULT_COST_MODEL, CostModel
from repro.sim.scheduler import ChunkedScheduler, DynamicScheduler
from repro.sim.tasks import TaskArray
from repro.sim.trace import TraceRecorder
from tests.conftest import SMALL_MACHINE, random_batch
from tests.oracle_stores import KERNEL, ORACLE, PER_EDGE, structure_over

ALL = sorted(STRUCTURES)


#: Ingestion modes as ``(store implementation, traced)``: one compiled
#: call per batch, the per-operation methods of arena stores without a
#: kernel, the compiled call again with a recorder attached
#: (``PER_OP`` from when a recorder selected the per-operation methods:
#: the kernel writes the access log now), and the per-operation methods
#: over the oracle stores (traced: every branch).
BULK, KERNEL_LESS, PER_OP, PER_OP_PLAIN = (
    (KERNEL, False), (PER_EDGE, False), (KERNEL, True), (ORACLE, True),
)
MODES = (BULK, KERNEL_LESS, PER_OP, PER_OP_PLAIN)


def stream_batches(num_nodes=48, batches=3, edges=220, seed=17):
    """A deterministic multi-batch edge stream (rng created per call)."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(batches):
        src = rng.integers(0, num_nodes, size=edges).astype(np.int64)
        dst = rng.integers(0, num_nodes, size=edges).astype(np.int64)
        weight = rng.integers(1, 9, size=edges).astype(np.float64)
        out.append(EdgeBatch(src=src, dst=dst, weight=weight))
    return out


def run_stream(name, mode, threads, delete_last=False, directed=True, cache=False):
    """Ingest the reference stream and collect every comparable number."""
    implementation, traced = mode
    structure = structure_over(implementation, name, 48, directed)
    hierarchy = CacheHierarchy(SMALL_MACHINE)
    observed = []
    digest = hashlib.sha256()
    batches = stream_batches()
    for index, batch in enumerate(batches):
        ctx = ExecutionContext(
            machine=SMALL_MACHINE,
            threads=threads,
            recorder=TraceRecorder() if traced else None,
        )
        last = index == len(batches) - 1
        if delete_last and last:
            result = structure.delete(batch, ctx)
        else:
            result = structure.update(batch, ctx)
        tasks = result.tasks
        assert isinstance(tasks, TaskArray)
        for column in TaskArray.__slots__:
            digest.update(np.ascontiguousarray(getattr(tasks, column)).tobytes())
        schedule = result.schedule
        row = {
            "makespan": schedule.makespan_cycles,
            "total_work": schedule.total_work_cycles,
            "lock_wait": schedule.lock_wait_cycles,
            "contended": schedule.contended_acquires,
            "task_count": schedule.task_count,
            "thread_busy": schedule.thread_busy_cycles.tolist(),
            "task_thread": schedule.task_thread.tolist(),
            "positive": result.edges_inserted,
            "negative": result.duplicates,
            "edges": structure.num_edges,
            "nodes": structure.num_nodes,
        }
        if cache:
            stats = hierarchy.replay(result.trace, schedule.task_thread)
            row["cache"] = (
                stats.accesses,
                stats.l1_hits,
                stats.l2_hits,
                stats.llc_hits,
                stats.local_memory_accesses,
                stats.remote_memory_accesses,
            )
        observed.append(row)
    return observed, digest.hexdigest()


def assert_modes_agree(name, modes=MODES, **kwargs):
    reference, *others = [run_stream(name, mode, **kwargs) for mode in modes]
    for other in others:
        assert other == reference  # exact: no approx anywhere


#: sha256 over the six emitted columns of the three ``stream_batches()``
#: batches, keyed ``(structure, directed, delete the last batch)``.  The
#: columns are elementwise float64 products of integer counts and cost
#: constants (plus int64 ids and bools), so the bytes are platform-stable.
PINNED_COLUMNS = {
    ("AC", True, False):
        "74510391206af93d97b70f12406baf1b266f8e5ff2301e60cf1f73e64fe08330",
    ("AC", True, True):
        "5e308cae192d5859da855bca7d1c773d10be5d580064cc949a9870b1b997246a",
    ("AC", False, False):
        "990f4c020008d6f18a52ce8b7e83d80e8bf2082590d3b2d86b3b37eb0bbdb4c4",
    ("AC", False, True):
        "51286a9aa14e3f4ff19fae3fa2b87f6f0a654257249d1763d4c2a4811c040a3d",
    ("AS", True, False):
        "e47b75e9396ba575f2feebdf2c2e5f68e4c21200dfd8b6705367b4f0cea98a44",
    ("AS", True, True):
        "ba92ad4d58e1f8d81a8eff9ab477cd8d846b9b4d29508cde83e2ff9b7b4f1169",
    ("AS", False, False):
        "3d103861c4928ca1c1c89e29a6299bececd0a8d1c115fd04652f1a64ada3d717",
    ("AS", False, True):
        "594b3b46b429c5747f32c9c09e67394252b576377f0541672e447a12401cd80c",
    ("BA", True, False):
        "74510391206af93d97b70f12406baf1b266f8e5ff2301e60cf1f73e64fe08330",
    ("BA", True, True):
        "228c198adaa1ada0c80969b2a3f462b23729cb8ef544279e76661cc1a2d367f3",
    ("BA", False, False):
        "990f4c020008d6f18a52ce8b7e83d80e8bf2082590d3b2d86b3b37eb0bbdb4c4",
    ("BA", False, True):
        "9aaeb1ccc162c3b3055cda59a4dccbe65b1bd32ab7a575c3fa3ba41070260f2a",
    ("DAH", True, False):
        "91c832f01a399315f0bc8c5bf7547f7acb82315775cf3271d14bf9f06a6cd904",
    ("DAH", True, True):
        "62e6339a228e7e61c2b1cbea1a7ce2763e5d7b01fd545d78ebb3331b4db50773",
    ("DAH", False, False):
        "e7191a97ae2660a1f5e06539850e661c4fefea1f9df8a8ac6b0475f3f3082fbe",
    ("DAH", False, True):
        "5296953af599a2458632a7fffa892f7f88a227ca7314eee7304b069b48afb9c3",
    ("Stinger", True, False):
        "f2d2c3529b9543aac9efca55b9436ff168390fa74c3c6e6c503639e902452217",
    ("Stinger", True, True):
        "318fe317b7677022115a222fd57f09ba287949d719b36872f00d45086927d67e",
    ("Stinger", False, False):
        "b62bde844567c273ba1bcc9b4b9bdcd6e3e10c6439af8a6f72732bff3ae90da3",
    ("Stinger", False, True):
        "523cf6b8054248228f6caac3055fceadd77ef948f28d90012df0cf1f5da92ee9",
}


@pytest.mark.parametrize("delete_last", [False, True])
@pytest.mark.parametrize("directed", [True, False])
@pytest.mark.parametrize("name", ALL)
def test_emitted_columns_are_pinned(name, directed, delete_last):
    for mode in MODES:
        _, digest = run_stream(
            name, mode, threads=4, delete_last=delete_last, directed=directed
        )
        assert digest == PINNED_COLUMNS[name, directed, delete_last], mode


@pytest.mark.parametrize("name", ALL)
@pytest.mark.parametrize("threads", [1, 6])
class TestStructureDifferential:
    def test_update_stream(self, name, threads):
        assert_modes_agree(name, threads=threads)

    def test_delete_batch(self, name, threads):
        assert_modes_agree(name, threads=threads, delete_last=True)


@pytest.mark.parametrize("name", ALL)
class TestStructureDifferentialInstrumented:
    def test_smt_threads(self, name):
        # More threads than physical cores: the SMT work dilation must
        # round identically in every mode.
        assert_modes_agree(name, threads=SMALL_MACHINE.hardware_threads)

    def test_trace_and_cache_replay(self, name):
        # The arena stores' per-edge methods emit the oracle stores'
        # memory trace, address for address.
        assert_modes_agree(name, (PER_OP, PER_OP_PLAIN), threads=4, cache=True)

    def test_empty_batch(self, name):
        for traced in (False, True):
            ctx = ExecutionContext(
                machine=SMALL_MACHINE,
                threads=4,
                recorder=TraceRecorder() if traced else None,
            )
            result = make_structure(name, 8).update(EdgeBatch.empty(), ctx)
            tasks = result.tasks
            # Nothing but the chunked structures' routing overhead,
            # which costs nothing for an empty batch.
            assert bool(tasks.overhead.all())
            assert result.schedule.makespan_cycles == 0.0
            assert result.schedule.task_thread.dtype == np.int32
            assert result.edges_inserted == 0

    def test_columnar_emits_task_array(self, name):
        batch = random_batch(16, 60, seed=3)
        for traced in (False, True):
            ctx = ExecutionContext(
                machine=SMALL_MACHINE,
                threads=4,
                recorder=TraceRecorder() if traced else None,
            )
            result = make_structure(name, 16).update(batch, ctx)
            tasks = result.tasks
            assert isinstance(tasks, TaskArray)
            assert len(tasks) == result.schedule.task_count


# ---------------------------------------------------------------------------
# Scheduler kernels, pinned reference-vs-fast
# ---------------------------------------------------------------------------

COST = DEFAULT_COST_MODEL


def assert_same_schedule(fast, reference):
    assert fast.makespan_cycles == reference.makespan_cycles
    assert fast.total_work_cycles == reference.total_work_cycles
    assert fast.lock_wait_cycles == reference.lock_wait_cycles
    assert fast.contended_acquires == reference.contended_acquires
    assert fast.task_count == reference.task_count
    assert fast.threads == reference.threads
    assert fast.active_threads == reference.active_threads
    assert fast.thread_busy_cycles.tolist() == reference.thread_busy_cycles.tolist()
    assert fast.task_thread.tolist() == reference.task_thread.tolist()
    assert fast.task_thread.dtype == reference.task_thread.dtype == np.int32


@contextmanager
def sim_timeline():
    """Timeline capture on: every schedule records each task's start
    and end."""
    saved = TRACER.sim_timeline
    TRACER.sim_timeline = True
    try:
        yield
    finally:
        TRACER.sim_timeline = saved


def run_both(scheduler: DynamicScheduler, tasks: TaskArray):
    """Default dispatch against the Python event loop, with and without
    the timeline; returns the default-dispatch result.

    With the sim library built, default dispatch must be the compiled
    loop at every thread count and under the timeline too, so the
    comparison is compiled against Python and not Python against
    itself; the two loops' timelines must agree bit for bit.
    """
    compiled = ckernel.get_kernel() is not None
    with mock.patch.object(
        scheduler, "_run_event_loop", wraps=scheduler._run_event_loop
    ) as python_loop:
        fast = scheduler.run(tasks)
        with sim_timeline():
            recorded = scheduler.run(tasks)
    assert python_loop.called == (len(tasks) > 0 and not compiled)
    assert fast.extra == {}
    assert_same_schedule(fast, recorded)
    # No compiled kernel: every stream runs the Python loop, which
    # records the same timeline only when asked to.
    with mock.patch.object(ckernel, "get_kernel", return_value=None):
        fallback = scheduler.run(tasks)
        with sim_timeline():
            reference = scheduler.run(tasks)
    assert fallback.extra == {}
    assert_same_schedule(fast, fallback)
    assert_same_schedule(fast, reference)
    if len(tasks):
        starts, ends = recorded.extra["timeline"]
        for mine, theirs in zip((starts, ends), reference.extra["timeline"]):
            assert mine.dtype == theirs.dtype == np.float64
            assert mine.tobytes() == theirs.tobytes()
        assert len(starts) == len(ends) == len(tasks)
        assert bool((starts <= ends).all())
        assert float(ends.max()) == recorded.makespan_cycles
    return fast


class TestDynamicKernels:
    def run_both(self, tasks: TaskArray, threads, physical_cores=None):
        return run_both(
            DynamicScheduler(threads, physical_cores=physical_cores, cost_model=COST),
            tasks,
        )

    def test_fast_path_fewer_tasks_than_threads(self):
        # n <= threads, distinct positive completion times: every task
        # starts at time zero on a thread of its own.
        tasks = TaskArray.build(5, unlocked_work=[3.0, 8.0, 1.0, 9.0, 2.0])
        result = self.run_both(tasks, threads=8)
        assert result.task_thread.tolist() == [0, 1, 2, 3, 4]

    def test_fast_path_uniform_ladder(self):
        # Uniform costs, n > threads: dispatch is round-robin, and every
        # thread walks the same ladder of completion times.
        tasks = TaskArray.build(23, unlocked_work=4.0, locked_work=0.0)
        result = self.run_both(tasks, threads=4)
        assert result.task_thread.tolist() == [i % 4 for i in range(23)]

    def test_zero_cost_tasks_fall_back_to_event_loop(self):
        # Zero completion times make the event loop's heap stack every
        # task on thread 0; the compiled loop must break the ties the
        # same way.
        free = CostModel(
            task_dispatch=0.0,
            lock_acquire=0.0,
            lock_release=0.0,
            smt_work_scale=1.0,
        )
        tasks = TaskArray.build(6, unlocked_work=0.0)
        result = run_both(DynamicScheduler(4, cost_model=free), tasks)
        assert result.task_thread.tolist() == [0] * 6

    def test_irregular_lockfree_falls_back(self):
        # Lock-free, but no two tasks cost the same.
        tasks = TaskArray.build(17, unlocked_work=np.linspace(1.0, 9.0, 17))
        self.run_both(tasks, threads=4)

    def test_locked_stream(self):
        rng = np.random.default_rng(5)
        n = 60
        tasks = TaskArray.build(
            n,
            unlocked_work=rng.uniform(0.0, 20.0, n),
            locked_work=rng.uniform(0.0, 20.0, n),
            lock=rng.integers(-1, 4, n),
            fine_lock=rng.integers(0, 2, n).astype(bool),
        )
        result = self.run_both(tasks, threads=6)
        assert result.contended_acquires > 0

    def test_smt_scale(self):
        rng = np.random.default_rng(6)
        n = 40
        tasks = TaskArray.build(
            n,
            unlocked_work=rng.uniform(0.0, 10.0, n),
            locked_work=rng.uniform(0.0, 10.0, n),
            lock=rng.integers(-1, 3, n),
        )
        self.run_both(tasks, threads=16, physical_cores=8)

    @pytest.mark.parametrize("threads", [1, 6, 65])
    def test_thread_counts(self, threads):
        # The compiled loop's heap is the caller's arrays, sized to the
        # thread count, so 65 threads run there too.
        rng = np.random.default_rng(threads)
        n = 150
        tasks = TaskArray.build(
            n,
            unlocked_work=rng.uniform(0.0, 20.0, n),
            locked_work=rng.uniform(0.0, 20.0, n),
            lock=rng.integers(-1, 5, n),
        )
        self.run_both(tasks, threads=threads)
        self.run_both(TaskArray.build(n, unlocked_work=tasks.unlocked_work), threads)

    def test_empty_array(self):
        result = self.run_both(TaskArray.empty(), threads=4)
        assert result.makespan_cycles == 0.0
        assert result.task_thread.dtype == np.int32
        assert len(result.task_thread) == 0


def chunked_loop(tasks: TaskArray, threads, physical_cores, cost):
    """The chunked model as a plain loop: chunk ``c`` runs serially on
    thread ``c % threads``; returns busy times, assignment, total work."""
    scale = cost.smt_work_scale if threads > physical_cores else 1.0
    busy = [0.0] * threads
    assignment = []
    total = 0.0
    for unlocked, locked, chunk in zip(
        tasks.unlocked_work.tolist(), tasks.locked_work.tolist(), tasks.chunk.tolist()
    ):
        work = unlocked + locked
        busy[chunk % threads] += work * scale
        total += work
        assignment.append(chunk % threads)
    return busy, assignment, total


def assert_chunked_matches_loop(tasks, threads, physical_cores=None):
    cores = threads if physical_cores is None else physical_cores
    result = ChunkedScheduler(threads, physical_cores=cores, cost_model=COST).run(tasks)
    busy, assignment, total = chunked_loop(tasks, threads, cores, COST)
    assert result.thread_busy_cycles.tolist() == busy
    assert result.task_thread.tolist() == assignment
    assert result.total_work_cycles == total
    assert result.makespan_cycles == max(busy, default=0.0)
    assert result.active_threads == (len(set(assignment)) or None)
    with sim_timeline():
        recorded = ChunkedScheduler(
            threads, physical_cores=cores, cost_model=COST
        ).run(tasks)
    assert_same_schedule(result, recorded)
    if len(tasks):
        starts, ends = recorded.extra["timeline"]
        assert bool((starts <= ends).all())
        assert float(ends.max()) == recorded.makespan_cycles


class TestChunkedKernels:
    def test_bincount_matches_loop(self):
        rng = np.random.default_rng(8)
        n = 80
        tasks = TaskArray.build(
            n,
            unlocked_work=rng.uniform(0.0, 30.0, n),
            chunk=rng.integers(0, 16, n),
        )
        assert_chunked_matches_loop(tasks, threads=6)

    def test_smt_scale(self):
        tasks = TaskArray.build(
            12, unlocked_work=np.arange(12, dtype=np.float64), chunk=np.arange(12)
        )
        assert_chunked_matches_loop(tasks, threads=16, physical_cores=8)

    def test_chunkless_array_rejected(self):
        tasks = TaskArray.build(3, unlocked_work=1.0)  # chunk = NO_CHUNK
        with pytest.raises(SimulationError):
            ChunkedScheduler(2, cost_model=COST).run(tasks)


@st.composite
def task_arrays(draw):
    n = draw(st.integers(min_value=0, max_value=50))
    values = st.floats(min_value=0.0, max_value=50.0)
    return TaskArray.build(
        n,
        unlocked_work=np.asarray([draw(values) for _ in range(n)]),
        locked_work=np.asarray([draw(values) for _ in range(n)]),
        lock=np.asarray(
            [draw(st.integers(min_value=-1, max_value=4)) for _ in range(n)],
            dtype=np.int64,
        )
        if n
        else np.empty(0, dtype=np.int64),
        fine_lock=np.asarray([draw(st.booleans()) for _ in range(n)], dtype=bool)
        if n
        else np.empty(0, dtype=bool),
    )


@given(tasks=task_arrays(), threads=st.integers(min_value=1, max_value=12))
@settings(max_examples=60, deadline=None)
def test_property_dynamic_bit_identity(tasks, threads):
    """Any task batch, locked and then lock-free: compiled loop == Python
    loop."""
    run_both(DynamicScheduler(threads, physical_cores=6, cost_model=COST), tasks)
    lockfree = TaskArray.build(
        len(tasks), unlocked_work=tasks.unlocked_work, locked_work=tasks.locked_work
    )
    run_both(DynamicScheduler(threads, physical_cores=6, cost_model=COST), lockfree)


@given(tasks=task_arrays(), threads=st.integers(min_value=1, max_value=12))
@settings(max_examples=40, deadline=None)
def test_property_chunked_bit_identity(tasks, threads):
    pinned = TaskArray.build(
        len(tasks),
        unlocked_work=tasks.unlocked_work,
        locked_work=tasks.locked_work,
        chunk=np.arange(len(tasks), dtype=np.int64) % 7,
    )
    assert_chunked_matches_loop(pinned, threads, physical_cores=6)


class TestTaskArrayContainer:
    def test_empty_is_falsy(self):
        assert not TaskArray.empty()

    def test_concatenate_filters_empty(self):
        a = TaskArray.build(2, unlocked_work=1.0)
        merged = TaskArray.concatenate([TaskArray.empty(), a, TaskArray.empty()])
        assert merged is a
        both = TaskArray.concatenate([a, TaskArray.build(1, unlocked_work=5.0)])
        assert both.unlocked_work.tolist() == [1.0, 1.0, 5.0]

    def test_slice_returns_array(self):
        array = TaskArray.build(4, unlocked_work=[1.0, 2.0, 3.0, 4.0])
        head = array[:2]
        assert isinstance(head, TaskArray)
        assert head.unlocked_work.tolist() == [1.0, 2.0]

    def test_ragged_columns_rejected(self):
        with pytest.raises(ValueError):
            TaskArray(
                unlocked_work=np.zeros(3),
                locked_work=np.zeros(2),
                lock=np.zeros(3, dtype=np.int64),
                chunk=np.zeros(3, dtype=np.int64),
                fine_lock=np.zeros(3, dtype=bool),
                overhead=np.zeros(3, dtype=bool),
            )

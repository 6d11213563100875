"""Unit and property tests for the discrete-event scheduler."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim.cost_model import CostModel
from repro.sim import ckernel
from repro.sim.scheduler import (
    ChunkedScheduler,
    DynamicScheduler,
    parallel_for_makespan,
)
from repro.sim.tasks import TaskArray

build = TaskArray.build

#: A cost model with zero scheduling/lock overheads for exact checks.
FREE = CostModel(
    task_dispatch=0.0,
    lock_acquire=0.0,
    lock_release=0.0,
    lock_contended_penalty=0.0,
    smt_work_scale=1.0,
)


class TestDynamicScheduler:
    def test_empty(self):
        result = DynamicScheduler(4, cost_model=FREE).run(TaskArray.empty())
        assert result.makespan_cycles == 0.0
        assert result.task_count == 0

    def test_single_task(self):
        result = DynamicScheduler(4, cost_model=FREE).run(build(1, unlocked_work=100))
        assert result.makespan_cycles == pytest.approx(100.0)

    def test_serial_on_one_thread(self):
        tasks = build(7, unlocked_work=10)
        result = DynamicScheduler(1, cost_model=FREE).run(tasks)
        assert result.makespan_cycles == pytest.approx(70.0)

    def test_perfect_parallelism_without_locks(self):
        tasks = build(8, unlocked_work=10)
        result = DynamicScheduler(4, cost_model=FREE).run(tasks)
        assert result.makespan_cycles == pytest.approx(20.0)

    def test_lock_serializes_same_lock(self):
        # Four tasks on the same lock cannot overlap their locked work.
        tasks = build(4, unlocked_work=0, locked_work=10, lock=7)
        result = DynamicScheduler(4, cost_model=FREE).run(tasks)
        assert result.makespan_cycles == pytest.approx(40.0)

    def test_different_locks_run_in_parallel(self):
        tasks = build(4, unlocked_work=0, locked_work=10, lock=np.arange(4))
        result = DynamicScheduler(4, cost_model=FREE).run(tasks)
        assert result.makespan_cycles == pytest.approx(10.0)

    def test_contended_acquire_counted_and_penalized(self):
        cost = CostModel(
            task_dispatch=0.0,
            lock_acquire=0.0,
            lock_release=0.0,
            lock_contended_penalty=100.0,
            smt_work_scale=1.0,
        )
        tasks = build(3, unlocked_work=0, locked_work=10, lock=1)
        result = DynamicScheduler(4, cost_model=cost).run(tasks)
        assert result.contended_acquires == 2
        # 10 + (100 + 10) + (100 + 10)
        assert result.makespan_cycles == pytest.approx(230.0)
        assert result.lock_wait_cycles > 0

    def test_unlocked_portion_overlaps_lock_wait(self):
        # Stinger's model: scans (unlocked) proceed while another task
        # holds the block lock.
        tasks = build(2, unlocked_work=[0, 100], locked_work=[100, 10], lock=1)
        result = DynamicScheduler(2, cost_model=FREE).run(tasks)
        # Task 2's scan runs during task 1's locked 100 cycles.
        assert result.makespan_cycles == pytest.approx(110.0)

    def test_smt_dilates_work(self):
        cost = CostModel(
            task_dispatch=0.0,
            lock_acquire=0.0,
            lock_release=0.0,
            smt_work_scale=1.5,
        )
        tasks = build(8, unlocked_work=10)
        plain = DynamicScheduler(4, physical_cores=4, cost_model=cost).run(tasks)
        smt = DynamicScheduler(8, physical_cores=4, cost_model=cost).run(tasks)
        assert plain.makespan_cycles == pytest.approx(20.0)
        assert smt.makespan_cycles == pytest.approx(15.0)  # 10 * 1.5

    def test_dispatch_overhead_charged(self):
        cost = CostModel(
            task_dispatch=5.0,
            lock_acquire=0.0,
            lock_release=0.0,
            smt_work_scale=1.0,
        )
        result = DynamicScheduler(1, cost_model=cost).run(build(1, unlocked_work=10))
        assert result.makespan_cycles == pytest.approx(15.0)

    def test_rejects_bad_thread_count(self):
        with pytest.raises(SimulationError):
            DynamicScheduler(0)

    def test_task_thread_assignment_shape(self):
        tasks = build(10, unlocked_work=1)
        result = DynamicScheduler(3, cost_model=FREE).run(tasks)
        assert result.task_thread.shape == (10,)
        assert set(result.task_thread) <= {0, 1, 2}

    def test_utilization_and_speedup(self):
        tasks = build(8, unlocked_work=10)
        result = DynamicScheduler(4, cost_model=FREE).run(tasks)
        assert result.speedup == pytest.approx(4.0)
        assert result.utilization == pytest.approx(1.0)


class TestChunkedScheduler:
    def test_requires_chunks(self):
        with pytest.raises(SimulationError):
            ChunkedScheduler(2, cost_model=FREE).run(build(1, unlocked_work=1))

    def test_chunks_map_round_robin(self):
        tasks = build(4, unlocked_work=10, chunk=np.arange(4))
        result = ChunkedScheduler(2, cost_model=FREE).run(tasks)
        # chunks 0, 2 -> thread 0; chunks 1, 3 -> thread 1.
        assert result.makespan_cycles == pytest.approx(20.0)

    def test_imbalance_shows_in_makespan(self):
        # One hot chunk dominates: the heavy-tailed DAH story.
        tasks = TaskArray.concatenate(
            [
                build(10, unlocked_work=100, chunk=0),
                build(7, unlocked_work=1, chunk=np.arange(1, 8)),
            ]
        )
        result = ChunkedScheduler(8, cost_model=FREE).run(tasks)
        assert result.makespan_cycles == pytest.approx(1000.0)
        assert result.utilization < 0.2

    def test_empty(self):
        result = ChunkedScheduler(4, cost_model=FREE).run(TaskArray.empty())
        assert result.makespan_cycles == 0.0
        assert result.task_thread.dtype == np.int32
        assert result.task_thread.shape == (0,)
        assert result.active_threads is None
        assert result.utilization == 0.0

    def test_more_threads_than_chunks_utilization(self):
        # Two chunks can reach at most two threads; utilization must be
        # measured against those two, not all eight.
        tasks = build(2, unlocked_work=10, chunk=np.arange(2))
        result = ChunkedScheduler(8, cost_model=FREE).run(tasks)
        assert result.active_threads == 2
        assert result.utilization == pytest.approx(1.0)
        # The dilution the fix removes: 20 work / (10 makespan * 8).
        assert result.total_work_cycles / (result.makespan_cycles * 8) < 0.5

    def test_active_threads_counts_distinct_targets(self):
        # Chunks 0 and 4 collide on thread 0 of 4: one active thread.
        tasks = build(2, unlocked_work=5, chunk=[0, 4])
        result = ChunkedScheduler(4, cost_model=FREE).run(tasks)
        assert result.active_threads == 1
        assert result.utilization == pytest.approx(1.0)


class TestRejectedInput:
    """Work columns the three dynamic routines would disagree on, and
    anything that is not a ``TaskArray``, are refused before scheduling."""

    SCHEDULERS = (DynamicScheduler, ChunkedScheduler)

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    @pytest.mark.parametrize("column", ["unlocked_work", "locked_work"])
    @pytest.mark.parametrize("bad", [float("nan"), -5.0])
    def test_nan_and_negative_work_rejected(self, scheduler, column, bad):
        # At the parent, the NaN case below gave makespan nan and
        # task_thread [0,1,1,1,1,1] from the compiled loop but 109.0 and
        # [0,1,0,1,0,1] from the Python loop; -5.0 scheduled a task
        # that ends before it starts.
        columns = {
            "unlocked_work": [1.0, 1.0, 2.0, 3.0, 1.0, 5.0],
            "locked_work": np.ones(6),
            "lock": [0, 0, 1, 1, -1, 0],
            "chunk": np.arange(6),
        }
        columns[column] = np.array(columns[column], dtype=np.float64)
        columns[column][1] = bad
        with pytest.raises(SimulationError, match=column):
            scheduler(2).run(build(6, **columns))

    def test_rejected_on_every_dynamic_routine(self):
        nan = build(
            6,
            unlocked_work=[1, float("nan"), 2, 3, 1, 5],
            locked_work=1.0,
            lock=[0, 0, 1, 1, -1, 0],
        )
        lockfree = build(3, unlocked_work=[1.0, -5.0, 2.0])
        for tasks in (nan, lockfree):
            with pytest.raises(SimulationError):
                DynamicScheduler(2).run(tasks)
            with mock.patch.object(ckernel, "get_kernel", return_value=None):
                with pytest.raises(SimulationError):
                    DynamicScheduler(2).run(tasks)

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_infinite_work_stays_legal(self, scheduler):
        tasks = build(3, unlocked_work=[1.0, np.inf, 2.0], chunk=np.arange(3))
        assert scheduler(2).run(tasks).makespan_cycles == np.inf

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    @pytest.mark.parametrize("tasks", [[], [1.0, 2.0], None, np.zeros(3)])
    def test_only_task_arrays_are_scheduled(self, scheduler, tasks):
        with pytest.raises(SimulationError, match="TaskArray"):
            scheduler(2).run(tasks)


class TestParallelFor:
    def test_empty(self):
        result = parallel_for_makespan(np.array([]), threads=4, cost_model=FREE)
        assert result.makespan_cycles == 0.0

    def test_graham_bound(self):
        costs = np.array([10.0] * 8)
        result = parallel_for_makespan(costs, threads=4, cost_model=FREE)
        # total/T + (1 - 1/T) * max = 20 + 7.5
        assert result.makespan_cycles == pytest.approx(27.5)

    def test_single_thread_is_serial(self):
        costs = np.array([5.0, 5.0, 5.0])
        result = parallel_for_makespan(costs, threads=1, cost_model=FREE)
        assert result.makespan_cycles == pytest.approx(15.0)

    def test_rejects_bad_threads(self):
        with pytest.raises(SimulationError):
            parallel_for_makespan(np.array([1.0]), threads=0)


@st.composite
def task_lists(draw):
    n = draw(st.integers(min_value=1, max_value=60))
    work = st.lists(st.floats(min_value=0, max_value=100), min_size=n, max_size=n)
    locks = st.lists(st.integers(-1, 5), min_size=n, max_size=n)  # -1: no lock
    return build(
        n, unlocked_work=draw(work), locked_work=draw(work), lock=draw(locks)
    )


@given(tasks=task_lists(), threads=st.integers(min_value=1, max_value=16))
@settings(max_examples=60, deadline=None)
def test_property_makespan_bounds(tasks, threads):
    """Makespan is bounded below by span and total/T, above by serial."""
    result = DynamicScheduler(threads, cost_model=FREE).run(tasks)
    total = float(tasks.total_work.sum())
    longest = float(tasks.total_work.max())
    assert result.makespan_cycles >= longest - 1e-9
    assert result.makespan_cycles >= total / threads - 1e-9
    assert result.makespan_cycles <= total + 1e-9

    # Lock-serialization lower bound: all work on one lock serializes.
    for lock in set(tasks.lock[tasks.lock >= 0].tolist()):
        lock_work = float(tasks.locked_work[tasks.lock == lock].sum())
        assert result.makespan_cycles >= lock_work - 1e-9


@given(tasks=task_lists())
@settings(max_examples=30, deadline=None)
def test_property_more_threads_never_slower(tasks):
    """Adding threads never increases the greedy makespan... materially.

    Greedy list scheduling is not strictly monotone, but anomalies are
    bounded by factor 2 (Graham); assert that.
    """
    one = DynamicScheduler(1, cost_model=FREE).run(tasks).makespan_cycles
    many = DynamicScheduler(8, cost_model=FREE).run(tasks).makespan_cycles
    assert many <= one + 1e-9
    assert one <= 8 * many + 1e-9

"""Deterministic parallel-execution model.

The graph data structures translate one batch update (or one compute
phase) into tasks -- "insert edge (u, v)", "evaluate the vertex
function of v" -- each carrying its cycle cost and, where relevant, the
lock it must hold and the chunk it is pinned to.  This module turns
such tasks into a *makespan*: the simulated parallel latency of the
phase on a given thread count.

Three execution models mirror the three multithreading styles in the
paper (Section III-A):

- :class:`DynamicScheduler` -- OpenMP-style dynamic scheduling with
  shared-memory locks (used by AS and Stinger).  A discrete-event
  greedy list scheduler: tasks are dispatched in order to the
  earliest-free thread; a task that needs a lock waits until the lock
  frees, and a contended acquire pays the cache-line ping-pong penalty.
- :class:`ChunkedScheduler` -- chunked-style multithreading (used by AC
  and DAH).  Each chunk is single-threaded and lockless; chunks map
  round-robin onto threads and a thread's time is the sum of its
  chunks' work.
- :func:`parallel_for_makespan` -- a lock-free OpenMP ``parallel for``
  (the compute phase).  Uses the greedy list-scheduling bound, which is
  exact for dynamic scheduling of independent tasks up to dispatch
  granularity.

Tasks arrive as a columnar :class:`~repro.sim.tasks.TaskArray` and the
schedulers run as array kernels: a ``np.bincount`` reduction for the
chunked style; for the dynamic style, a compiled discrete-event loop
(:mod:`repro.sim.ckernel`).  One Python event loop
(:meth:`DynamicScheduler._run_event_loop`) is the readable reference
the compiled loop is tested against, the fallback when no compiler is
available, and the recorder of per-task timelines for ``--trace-out``.
Both produce **bit-identical** :class:`ScheduleResult` fields
(``tests/test_task_kernels.py``, ``tests/test_sim_ckernel.py``).

All three report a :class:`ScheduleResult` with the makespan, total
work, and per-thread busy time, plus the task-to-thread assignment that
the cache model uses to replay memory traces through private caches.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.obs.tracer import TRACER
from repro.sim import ckernel
from repro.sim.cost_model import CostModel, DEFAULT_COST_MODEL
from repro.sim.tasks import TaskArray


@dataclass
class ScheduleResult:
    """Outcome of scheduling one phase on ``threads`` threads."""

    makespan_cycles: float
    total_work_cycles: float
    threads: int
    task_count: int
    thread_busy_cycles: np.ndarray
    task_thread: np.ndarray
    lock_wait_cycles: float = 0.0
    contended_acquires: int = 0
    extra: dict = field(default_factory=dict)
    #: Threads that can actually receive work.  ``None`` means all of
    #: them; the chunked scheduler sets it to the number of distinct
    #: target threads so that ``utilization`` is not diluted by threads
    #: that no chunk maps to (``threads`` > number of chunks).
    active_threads: Optional[int] = None

    @property
    def utilization(self) -> float:
        """Fraction of *eligible* thread-cycles spent doing useful work."""
        eligible = self.threads if self.active_threads is None else self.active_threads
        capacity = self.makespan_cycles * eligible
        if capacity <= 0:
            return 0.0
        return float(self.total_work_cycles / capacity)

    @property
    def speedup(self) -> float:
        """Achieved speedup over serial execution of the same work."""
        if self.makespan_cycles <= 0:
            return 0.0
        return float(self.total_work_cycles / self.makespan_cycles)


def work_scale(threads: int, physical_cores: int, cost: CostModel) -> float:
    """Per-thread work dilation when SMT siblings share cores."""
    if physical_cores <= 0:
        raise SimulationError(f"physical_cores must be positive, got {physical_cores}")
    if threads <= physical_cores:
        return 1.0
    return cost.smt_work_scale


def _empty_result(threads: int) -> ScheduleResult:
    return ScheduleResult(
        makespan_cycles=0.0,
        total_work_cycles=0.0,
        threads=threads,
        task_count=0,
        thread_busy_cycles=np.zeros(threads),
        task_thread=np.empty(0, dtype=np.int32),
    )


def _check_tasks(tasks) -> None:
    """Refuse work columns the scheduling routines would disagree on.

    NaN breaks the event loop's heap order (and the compiled loop
    differs from the Python one on it) and negative work ends a task
    before it starts; ``column >= 0`` is False for both.  ``inf`` is
    consistent everywhere and stays legal.
    """
    if not isinstance(tasks, TaskArray):
        raise SimulationError(
            f"schedulers take a TaskArray, got {type(tasks).__name__}"
        )
    for name in ("unlocked_work", "locked_work"):
        if not bool((getattr(tasks, name) >= 0).all()):
            raise SimulationError(
                f"task column {name!r} holds NaN or negative cycles"
            )


def _chunked_timeline(tid: np.ndarray, scaled_work: np.ndarray) -> tuple:
    """Per-task (start, end) cycles for chunk-pinned serial execution.

    A thread executes its tasks serially in task order, so a task's
    start is the running occupancy of its thread.  Used only when the
    tracer's simulated-timeline capture is on.
    """
    n = len(tid)
    starts = np.empty(n)
    ends = np.empty(n)
    offsets: dict = {}
    for i, (t, work) in enumerate(zip(tid.tolist(), scaled_work.tolist())):
        start = offsets.get(t, 0.0)
        end = start + work
        offsets[t] = end
        starts[i] = start
        ends[i] = end
    return starts, ends


def _sequential_sum(values: np.ndarray) -> float:
    """Left-to-right float64 sum, bit-identical to a Python ``+=`` loop.

    ``np.sum`` uses pairwise summation, which rounds differently from
    a per-task accumulation; ``np.cumsum`` accumulates strictly left
    to right, so its last element matches the loop.
    """
    if len(values) == 0:
        return 0.0
    return float(np.cumsum(values)[-1])


class DynamicScheduler:
    """OpenMP-style dynamic scheduling with shared locks.

    Tasks are dispatched in list order: whenever a thread becomes free
    it grabs the next undispatched task.  A task runs its unlocked
    portion immediately, then waits for its lock (if any).  This greedy
    event-driven model captures the two phenomena the paper attributes
    to the update phase's low thread-level parallelism: serialization
    behind hot per-vertex locks, and threads idling while blocked.
    """

    def __init__(
        self,
        threads: int,
        physical_cores: Optional[int] = None,
        cost_model: CostModel = DEFAULT_COST_MODEL,
    ) -> None:
        if threads < 1:
            raise SimulationError(f"threads must be >= 1, got {threads}")
        self.threads = threads
        self.physical_cores = physical_cores if physical_cores is not None else threads
        self.cost = cost_model

    @TRACER.layer("scheduler.run", cycles=lambda result: result.makespan_cycles)
    def run(self, tasks: TaskArray) -> ScheduleResult:
        """Schedule ``tasks`` and return the resulting makespan."""
        _check_tasks(tasks)
        n = len(tasks)
        if n == 0:
            return _empty_result(self.threads)
        scale = work_scale(self.threads, self.physical_cores, self.cost)
        kernel = ckernel.get_kernel()
        if kernel is not None:
            return self._run_event_loop_compiled(kernel, tasks, scale)
        return self._run_event_loop(tasks, scale)

    def _event_loop_columns(self, tasks: TaskArray, scale: float):
        """Per-task increments for every outcome of the lock branch.

        Shared by the Python event loop and the compiled one, so both
        add the same float64 values: a lock-free task ends
        ``locked * s`` after its unlocked portion, an uncontended
        acquire ``(locked + base) * s`` after it, a contended one
        ``(locked + (base + penalty)) * s`` after the lock frees.
        """
        cost = self.cost
        acquire_base = cost.lock_acquire + cost.lock_release
        penalty = np.where(
            tasks.fine_lock,
            cost.fine_lock_contended_penalty,
            cost.lock_contended_penalty,
        )
        locked = tasks.locked_work
        return (
            cost.task_dispatch * scale,
            tasks.unlocked_work * scale,
            locked * scale,
            (locked + acquire_base) * scale,
            (locked + (acquire_base + penalty)) * scale,
            acquire_base,
            penalty,
        )

    def _event_loop_result(
        self, tasks, acquire_base, penalty, contended_idx, waits, **fields
    ) -> ScheduleResult:
        """Assemble the result both event loops share.

        Total work and lock wait are left-to-right sums in task order
        (see :func:`_sequential_sum`): every task contributes its work,
        plus the acquire/release cycles when it locks, plus the
        contention penalty when that acquire had to wait.
        """
        work = tasks.unlocked_work + tasks.locked_work
        work_values = np.where(tasks.lock >= 0, work + acquire_base, work)
        if len(contended_idx):
            work_values[contended_idx] = (work + (acquire_base + penalty))[
                contended_idx
            ]
        return ScheduleResult(
            total_work_cycles=_sequential_sum(work_values),
            threads=self.threads,
            task_count=len(tasks),
            lock_wait_cycles=_sequential_sum(waits),
            contended_acquires=len(contended_idx),
            **fields,
        )

    def _run_event_loop(self, tasks: TaskArray, scale: float) -> ScheduleResult:
        """The discrete-event greedy list scheduler, in Python.

        The reference the compiled loop is tested against and the
        fallback without a compiler.  Both loops record the timeline:
        under ``TRACER.sim_timeline`` the ``(starts, ends)`` cycle
        arrays land in ``result.extra["timeline"]`` and the driver
        converts them to simulated microseconds.
        """
        threads = self.threads
        (
            dispatch, unlocked, locked_plain, locked_uncont, locked_cont,
            acquire_base, penalty,
        ) = self._event_loop_columns(tasks, scale)
        # Min-heap of (free_time, thread_id): the next free thread pulls
        # the next task (the essence of dynamic scheduling).  The pair
        # order is total, so equal free times break towards the lower
        # thread id.
        free_at = [(0.0, t) for t in range(threads)]  # sorted: already a heap
        lock_free: dict = {}
        busy = [0.0] * threads
        assignment, starts, ends = [], [], []
        contended_idx, waits = [], []
        for i, (u, lock, l_plain, l_unc, l_con) in enumerate(
            zip(
                unlocked.tolist(),
                tasks.lock.tolist(),
                locked_plain.tolist(),
                locked_uncont.tolist(),
                locked_cont.tolist(),
            )
        ):
            t_free, tid = free_at[0]
            unlocked_end = (t_free + dispatch) + u
            if lock < 0:
                end = unlocked_end + l_plain
            else:
                # The unlocked portion overlaps any wait for the lock;
                # only an acquire that actually waits is contended.
                acquire_ready = lock_free.get(lock, 0.0)
                if acquire_ready > unlocked_end:
                    contended_idx.append(i)
                    waits.append(acquire_ready - unlocked_end)
                    end = acquire_ready + l_con
                else:
                    end = unlocked_end + l_unc
                lock_free[lock] = end
            assignment.append(tid)
            starts.append(t_free)
            ends.append(end)
            busy[tid] += end - t_free
            heapq.heapreplace(free_at, (end, tid))
        extra = {}
        if TRACER.sim_timeline:
            extra["timeline"] = (np.asarray(starts), np.asarray(ends))
        return self._event_loop_result(
            tasks,
            acquire_base,
            penalty,
            np.asarray(contended_idx, dtype=np.int64),
            np.asarray(waits),
            makespan_cycles=max(t for t, _ in free_at),
            thread_busy_cycles=np.asarray(busy),
            task_thread=np.asarray(assignment, dtype=np.int32),
            extra=extra,
        )

    def _run_event_loop_compiled(
        self, kernel, tasks: TaskArray, scale: float
    ) -> ScheduleResult:
        """Drive the :mod:`repro.sim.ckernel` loop; bit-identical output.

        The per-task increments are the columns the Python loop walks,
        handed to the compiled loop as raw float64/int64 buffers.  Lock
        ids are densified so the kernel's lock table is a flat
        zero-initialised array (matching the Python dict's
        ``get(lock, 0.0)`` default); negative ids (lock-free tasks)
        pass through unchanged.  The free-thread heap is two arrays
        allocated here, and the per-task ``(starts, ends)`` are written
        only under ``TRACER.sim_timeline`` (NULL pointers otherwise).
        """
        n = len(tasks)
        threads = self.threads
        (
            dispatch, unlocked, locked_plain, locked_uncont, locked_cont,
            acquire_base, penalty,
        ) = self._event_loop_columns(tasks, scale)
        uniq, inverse = np.unique(tasks.lock, return_inverse=True)
        negatives = int(np.searchsorted(uniq, 0))
        dense = np.ascontiguousarray(inverse.astype(np.int64) - negatives)
        lock_free = np.zeros(max(len(uniq) - negatives, 1))
        busy = np.zeros(threads)
        assignment = np.empty(n, dtype=np.int32)
        contended_idx = np.empty(n, dtype=np.int64)
        waits = np.empty(n)
        end_heap = np.empty(threads)
        tid_heap = np.empty(threads, dtype=np.int64)
        starts = ends = None
        if TRACER.sim_timeline:
            starts, ends = np.empty(n), np.empty(n)
        makespan_out = np.zeros(1)
        contended = int(
            kernel(
                n,
                threads,
                dispatch,
                unlocked.ctypes.data,
                dense.ctypes.data,
                locked_plain.ctypes.data,
                locked_uncont.ctypes.data,
                locked_cont.ctypes.data,
                lock_free.ctypes.data,
                busy.ctypes.data,
                assignment.ctypes.data,
                contended_idx.ctypes.data,
                waits.ctypes.data,
                end_heap.ctypes.data,
                tid_heap.ctypes.data,
                None if starts is None else starts.ctypes.data,
                None if ends is None else ends.ctypes.data,
                makespan_out.ctypes.data,
            )
        )
        return self._event_loop_result(
            tasks,
            acquire_base,
            penalty,
            contended_idx[:contended],
            waits[:contended],
            makespan_cycles=float(makespan_out[0]),
            thread_busy_cycles=busy,
            task_thread=assignment,
            extra={} if starts is None else {"timeline": (starts, ends)},
        )


class ChunkedScheduler:
    """Chunked-style multithreading: lockless single-threaded chunks.

    Every task must carry a ``chunk``; chunk ``c`` executes serially and
    chunks map to threads round-robin (``c % threads``).  The makespan
    is the longest per-thread sum -- workload imbalance across chunks
    (the paper's explanation for DAH's poor scaling on heavy-tailed
    graphs) shows up directly.

    When the thread count exceeds the number of distinct target
    threads, the surplus threads can never receive work; the result's
    ``active_threads`` records the reachable count so ``utilization``
    reflects the threads that could participate.
    """

    def __init__(
        self,
        threads: int,
        physical_cores: Optional[int] = None,
        cost_model: CostModel = DEFAULT_COST_MODEL,
    ) -> None:
        if threads < 1:
            raise SimulationError(f"threads must be >= 1, got {threads}")
        self.threads = threads
        self.physical_cores = physical_cores if physical_cores is not None else threads
        self.cost = cost_model

    @TRACER.layer("scheduler.run", cycles=lambda result: result.makespan_cycles)
    def run(self, tasks: TaskArray) -> ScheduleResult:
        """Schedule chunk-pinned ``tasks``: one weighted bincount per batch."""
        _check_tasks(tasks)
        threads = self.threads
        n = len(tasks)
        if n == 0:
            return _empty_result(threads)
        chunk = tasks.chunk
        if bool((chunk < 0).any()):
            raise SimulationError("ChunkedScheduler requires tasks with a chunk")
        scale = work_scale(threads, self.physical_cores, self.cost)
        tid = chunk % threads
        work = tasks.unlocked_work + tasks.locked_work
        thread_busy = np.bincount(tid, weights=work * scale, minlength=threads)
        extra = (
            {"timeline": _chunked_timeline(tid, work * scale)}
            if TRACER.sim_timeline
            else {}
        )
        return ScheduleResult(
            makespan_cycles=float(thread_busy.max()),
            total_work_cycles=_sequential_sum(work),
            threads=threads,
            task_count=n,
            thread_busy_cycles=thread_busy,
            task_thread=tid.astype(np.int32),
            active_threads=int(np.count_nonzero(np.bincount(tid, minlength=1))),
            extra=extra,
        )


#: Iterations a lock-free ``parallel for`` hands out per dispatch.
PARALLEL_FOR_CHUNK = 64


def graham_makespan(
    work: float,
    longest: float,
    tasks: int,
    threads: int,
    physical_cores: int,
    cost: CostModel,
) -> Tuple[float, float]:
    """``(makespan, total work)`` of a lock-free ``parallel for``, from scalars.

    ``work`` and ``longest`` are the sum and the maximum of the
    ``tasks`` per-iteration costs.  The greedy list-scheduling bound
    ``makespan = total/T + (1 - 1/T) * max_task`` (Graham) is a tight
    model for dynamic scheduling of independent iterations; ``total``
    adds the per-dispatch overhead amortized over
    :data:`PARALLEL_FOR_CHUNK` iterations.
    """
    if threads < 1:
        raise SimulationError(f"threads must be >= 1, got {threads}")
    scale = work_scale(threads, physical_cores, cost)
    total = work + cost.task_dispatch * tasks / PARALLEL_FOR_CHUNK
    makespan = (total / threads + (1.0 - 1.0 / threads) * longest) * scale
    return makespan, total


def parallel_for_makespan(
    costs: np.ndarray,
    threads: int,
    physical_cores: Optional[int] = None,
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> ScheduleResult:
    """Makespan of a lock-free OpenMP ``parallel for`` over ``costs``.

    :func:`graham_makespan` over the array's sum and maximum, reported
    as a :class:`ScheduleResult` with a round-robin task assignment.
    """
    if threads < 1:
        raise SimulationError(f"threads must be >= 1, got {threads}")
    cores = physical_cores if physical_cores is not None else threads
    scale = work_scale(threads, cores, cost_model)
    costs = np.asarray(costs, dtype=np.float64)
    n = int(costs.size)
    if n == 0:
        return _empty_result(threads)
    makespan, total = graham_makespan(
        float(costs.sum()),
        float(costs.max()),
        n,
        threads,
        cores,
        cost_model,
    )
    task_thread = np.arange(n, dtype=np.int32) % threads
    busy = np.bincount(task_thread, weights=costs, minlength=threads)
    return ScheduleResult(
        makespan_cycles=makespan,
        total_work_cycles=total,
        threads=threads,
        task_count=n,
        thread_busy_cycles=busy * scale,
        task_thread=task_thread,
    )

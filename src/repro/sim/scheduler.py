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

Tasks arrive either as a columnar :class:`~repro.sim.tasks.TaskArray`
(the default hot path: the schedulers run as array kernels -- a
``np.bincount`` reduction for the chunked style, vectorized fast paths
plus an array-indexed event loop for the dynamic style) or as a legacy
``Sequence[Task]`` (per-object loops, selected structure-side by
``SAGA_BENCH_LEGACY_TASKS=1``).  Both representations produce
**bit-identical** :class:`ScheduleResult` fields; the differential
tests in ``tests/test_task_kernels.py`` enforce this.

All three report a :class:`ScheduleResult` with the makespan, total
work, and per-thread busy time, plus the task-to-thread assignment that
the cache model uses to replay memory traces through private caches.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import SimulationError
from repro.obs.metrics import METRICS
from repro.obs.tracer import TRACER
from repro.sim import ckernel
from repro.sim.cost_model import CostModel, DEFAULT_COST_MODEL
from repro.sim.tasks import (  # noqa: F401 - Task is re-exported
    NO_CHUNK,
    NO_LOCK,
    Task,
    TaskArray,
    use_legacy_tasks,
)

#: Either representation of a task batch.
Tasks = Union[TaskArray, Sequence[Task]]


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


def _work_scale(threads: int, physical_cores: int, cost: CostModel) -> float:
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


def _chunked_timeline(tid, scaled_work) -> tuple:
    """Per-task (start, end) cycles for chunk-pinned serial execution.

    A thread executes its tasks serially in task order, so a task's
    start is the running occupancy of its thread.  Used only when the
    tracer's simulated-timeline capture is on.
    """
    n = len(tid)
    starts = np.empty(n)
    ends = np.empty(n)
    offsets: dict = {}
    tid_list = tid.tolist() if hasattr(tid, "tolist") else list(tid)
    work_list = (
        scaled_work.tolist() if hasattr(scaled_work, "tolist") else list(scaled_work)
    )
    for i in range(n):
        t = tid_list[i]
        start = offsets.get(t, 0.0)
        end = start + work_list[i]
        offsets[t] = end
        starts[i] = start
        ends[i] = end
    return starts, ends


def _sequential_sum(values: np.ndarray) -> float:
    """Left-to-right float64 sum, bit-identical to a Python ``+=`` loop.

    ``np.sum`` uses pairwise summation, which rounds differently from
    the legacy per-task accumulation; ``np.cumsum`` accumulates
    strictly left to right, so its last element matches the loop.
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
        dispatch_chunk: int = 1,
    ) -> None:
        if threads < 1:
            raise SimulationError(f"threads must be >= 1, got {threads}")
        if dispatch_chunk < 1:
            raise SimulationError(f"dispatch_chunk must be >= 1, got {dispatch_chunk}")
        self.threads = threads
        self.physical_cores = physical_cores if physical_cores is not None else threads
        self.cost = cost_model
        self.dispatch_chunk = dispatch_chunk

    def run(self, tasks: Tasks) -> ScheduleResult:
        """Schedule ``tasks`` and return the resulting makespan."""
        if isinstance(tasks, TaskArray):
            return self._run_array(tasks)
        return self._run_objects(tasks)

    # -- columnar kernels ----------------------------------------------

    def _run_array(self, tasks: TaskArray) -> ScheduleResult:
        n = len(tasks)
        if n == 0:
            return _empty_result(self.threads)
        scale = _work_scale(self.threads, self.physical_cores, self.cost)
        # Timeline capture (``--trace-out``) needs per-task start/end
        # times, which only the explicit event loop produces; the
        # closed forms and the compiled kernel are bypassed.  The
        # resulting ScheduleResult fields are bit-identical either way.
        if TRACER.sim_timeline:
            return self._run_array_event_loop_timeline(tasks, scale)
        if not tasks.has_locks:
            result = self._run_array_lockfree(tasks, scale)
            if result is not None:
                return result
            if METRICS.enabled:
                METRICS.counter(
                    "sim_scheduler_fastpath_retries_total",
                    "lock-free closed-form bailed; stream replayed "
                    "through the event loop",
                ).inc()
        return self._run_array_event_loop(tasks, scale)

    def _run_array_lockfree(
        self, tasks: TaskArray, scale: float
    ) -> Optional[ScheduleResult]:
        """Fully vectorized greedy dispatch for lock-free task streams.

        Exactness of the closed forms requires strictly positive,
        strictly increasing completion times (otherwise the legacy
        heap's tie-breaking deviates from round-robin); when that does
        not hold the caller falls back to the event loop, which
        replicates the heap exactly.
        """
        n = len(tasks)
        threads = self.threads
        dispatch = (self.cost.task_dispatch / self.dispatch_chunk) * scale
        unlocked = tasks.unlocked_work
        locked = tasks.locked_work
        # Grouping mirrors the event loop: ((free + d) + u*s) + l*s.
        ends = (dispatch + unlocked * scale) + locked * scale
        total_work = _sequential_sum(unlocked + locked)

        if n <= threads:
            # Every task starts at time zero on its own thread -- but
            # only when completion times are positive, else the heap
            # re-pops the zero-time thread it just pushed back.
            if not bool((ends > 0.0).all()):
                return None
            thread_busy = np.zeros(threads)
            thread_busy[:n] = ends
            makespan = float(ends.max())
            if n < threads:
                makespan = max(makespan, 0.0)
            return ScheduleResult(
                makespan_cycles=makespan,
                total_work_cycles=total_work,
                threads=threads,
                task_count=n,
                thread_busy_cycles=thread_busy,
                task_thread=np.arange(n, dtype=np.int32),
            )

        u0 = float(unlocked[0])
        l0 = float(locked[0])
        if not (
            bool((unlocked == u0).all())
            and bool((locked == l0).all())
            and u0 >= 0.0
            and l0 >= 0.0
            and dispatch >= 0.0
        ):
            return None
        # Uniform-cost stream: dispatch is provably round-robin, and
        # every thread walks the same completion-time ladder
        # E_r = ((E_{r-1} + d) + u*s) + l*s.
        u0s = u0 * scale
        l0s = l0 * scale
        rounds = -(-n // threads)
        ends_per_round = np.empty(rounds)
        end = 0.0
        for r in range(rounds):
            end = ((end + dispatch) + u0s) + l0s
            ends_per_round[r] = end
        if ends_per_round[0] <= 0.0 or not bool(
            (np.diff(ends_per_round) > 0.0).all()
        ):
            return None  # ties possible: the heap would not round-robin
        # The legacy loop accumulates busy time as (end - previous end)
        # per round; replicate that rounding exactly via cumsum of the
        # per-round differences.
        diffs = np.empty(rounds)
        diffs[0] = ends_per_round[0] - 0.0
        diffs[1:] = ends_per_round[1:] - ends_per_round[:-1]
        busy_ladder = np.cumsum(diffs)
        rounds_per_thread = (n - 1 - np.arange(threads)) // threads + 1
        return ScheduleResult(
            makespan_cycles=float(ends_per_round[-1]),
            total_work_cycles=total_work,
            threads=threads,
            task_count=n,
            thread_busy_cycles=busy_ladder[rounds_per_thread - 1],
            task_thread=(np.arange(n) % threads).astype(np.int32),
        )

    def _run_array_event_loop(self, tasks: TaskArray, scale: float) -> ScheduleResult:
        """Array-indexed discrete-event loop (locked / irregular streams).

        Reads primitive columns hoisted into local lists -- no per-task
        attribute access, no Task boxing -- while replicating the legacy
        loop's arithmetic operation-for-operation.
        """
        n = len(tasks)
        threads = self.threads
        cost = self.cost
        dispatch = (cost.task_dispatch / self.dispatch_chunk) * scale
        acquire_base = cost.lock_acquire + cost.lock_release
        # Per-task increments precomputed for every outcome of the lock
        # branch.  Each expression replicates the scalar term grouping
        # elementwise (IEEE float64 ops are identical either way):
        # uncontended end += (locked + base) * s, contended end +=
        # (locked + (base + penalty)) * s, lock-free end += locked * s.
        unlocked = tasks.unlocked_work
        locked = tasks.locked_work
        penalty = np.where(
            tasks.fine_lock,
            cost.fine_lock_contended_penalty,
            cost.lock_contended_penalty,
        )
        work = unlocked + locked
        all_locked = bool((tasks.lock >= 0).all())
        if n and threads <= ckernel.MAX_KERNEL_THREADS:
            kernel = ckernel.get_kernel()
            if kernel is not None:
                return self._run_array_event_loop_compiled(
                    kernel,
                    tasks,
                    scale,
                    dispatch,
                    acquire_base,
                    penalty,
                    work,
                    all_locked,
                )
        unlocked_scaled = (unlocked * scale).tolist()
        locked_uncont = ((locked + acquire_base) * scale).tolist()
        locked_cont = ((locked + (acquire_base + penalty)) * scale).tolist()
        locks = tasks.lock.tolist()

        free_at = [(0.0, t) for t in range(threads)]
        heapq.heapify(free_at)
        # One heapreplace per task instead of heappop + heappush: the
        # heap's internal layout may differ, but pops of a totally
        # ordered set always yield the minimum, so the (end, thread)
        # pop sequence -- and hence the schedule -- is unchanged.
        heapreplace = heapq.heapreplace
        lock_free: dict = {}
        lock_get = lock_free.get
        busy = [0.0] * threads
        assignment = []
        append_assignment = assignment.append
        contended_idx: list = []
        append_contended = contended_idx.append
        waits: list = []
        append_wait = waits.append

        if all_locked:
            # Streams where every task locks (the common case for the
            # fig9 graph workloads): the lock test and the lock-free
            # increment drop out of the inner loop entirely.
            for i, u, lock, l_unc, l_con in zip(
                range(n), unlocked_scaled, locks, locked_uncont, locked_cont
            ):
                t_free, tid = free_at[0]
                unlocked_end = (t_free + dispatch) + u
                acquire_ready = lock_get(lock, 0.0)
                if acquire_ready > unlocked_end:
                    append_contended(i)
                    append_wait(acquire_ready - unlocked_end)
                    end = acquire_ready + l_con
                else:
                    end = unlocked_end + l_unc
                lock_free[lock] = end
                append_assignment(tid)
                busy[tid] += end - t_free
                heapreplace(free_at, (end, tid))
        else:
            locked_scaled = (locked * scale).tolist()
            for i, u, lock, l_plain, l_unc, l_con in zip(
                range(n),
                unlocked_scaled,
                locks,
                locked_scaled,
                locked_uncont,
                locked_cont,
            ):
                t_free, tid = free_at[0]
                unlocked_end = (t_free + dispatch) + u
                if lock >= 0:
                    acquire_ready = lock_get(lock, 0.0)
                    if acquire_ready > unlocked_end:
                        append_contended(i)
                        append_wait(acquire_ready - unlocked_end)
                        end = acquire_ready + l_con
                    else:
                        end = unlocked_end + l_unc
                    lock_free[lock] = end
                else:
                    end = unlocked_end + l_plain
                append_assignment(tid)
                busy[tid] += end - t_free
                heapreplace(free_at, (end, tid))

        makespan = max(t for t, _ in free_at)
        # The legacy loop accumulates total_work and lock_wait with a
        # scalar += in task order; a cumsum over per-task contributions
        # assembled post-hoc replays the identical left-to-right
        # rounding (see _sequential_sum).
        if all_locked:
            work_values = work + acquire_base
        else:
            work_values = np.where(tasks.lock >= 0, work + acquire_base, work)
        if contended_idx:
            idx = np.asarray(contended_idx)
            work_values[idx] = (work + (acquire_base + penalty))[idx]
        total_work = _sequential_sum(work_values)
        lock_wait = _sequential_sum(np.asarray(waits)) if waits else 0.0
        contended = len(contended_idx)
        return ScheduleResult(
            makespan_cycles=makespan,
            total_work_cycles=total_work,
            threads=threads,
            task_count=n,
            thread_busy_cycles=np.asarray(busy),
            task_thread=np.asarray(assignment, dtype=np.int32),
            lock_wait_cycles=lock_wait,
            contended_acquires=contended,
        )

    def _run_array_event_loop_compiled(
        self,
        kernel,
        tasks: TaskArray,
        scale: float,
        dispatch: float,
        acquire_base: float,
        penalty: np.ndarray,
        work: np.ndarray,
        all_locked: bool,
    ) -> ScheduleResult:
        """Drive the :mod:`repro.sim.ckernel` loop; bit-identical output.

        The per-task increments are the same precomputed columns the
        Python loop boxes into lists, handed to the compiled loop as
        raw float64/int64 buffers instead.  Lock ids are densified so
        the kernel's lock table is a flat zero-initialised array
        (matching the Python dict's ``get(lock, 0.0)`` default);
        negative ids (lock-free tasks) pass through unchanged.
        """
        n = len(tasks)
        threads = self.threads
        unlocked = tasks.unlocked_work
        locked = tasks.locked_work
        unlocked_scaled = unlocked * scale
        locked_scaled = locked * scale
        locked_uncont = (locked + acquire_base) * scale
        locked_cont = (locked + (acquire_base + penalty)) * scale
        uniq, inverse = np.unique(tasks.lock, return_inverse=True)
        negatives = int(np.searchsorted(uniq, 0))
        dense = np.ascontiguousarray(inverse.astype(np.int64) - negatives)
        lock_free = np.zeros(max(len(uniq) - negatives, 1))
        busy = np.zeros(threads)
        assignment = np.empty(n, dtype=np.int32)
        contended_idx = np.empty(n, dtype=np.int64)
        waits = np.empty(n)
        makespan_out = np.zeros(1)
        contended = int(
            kernel(
                n,
                threads,
                dispatch,
                unlocked_scaled.ctypes.data,
                dense.ctypes.data,
                locked_scaled.ctypes.data,
                locked_uncont.ctypes.data,
                locked_cont.ctypes.data,
                lock_free.ctypes.data,
                busy.ctypes.data,
                assignment.ctypes.data,
                contended_idx.ctypes.data,
                waits.ctypes.data,
                makespan_out.ctypes.data,
            )
        )
        if contended < 0:
            raise SimulationError(
                f"event-loop kernel rejected thread count {threads}"
            )
        if all_locked:
            work_values = work + acquire_base
        else:
            work_values = np.where(tasks.lock >= 0, work + acquire_base, work)
        if contended:
            idx = contended_idx[:contended]
            work_values[idx] = (work + (acquire_base + penalty))[idx]
        total_work = _sequential_sum(work_values)
        lock_wait = _sequential_sum(waits[:contended]) if contended else 0.0
        return ScheduleResult(
            makespan_cycles=float(makespan_out[0]),
            total_work_cycles=total_work,
            threads=threads,
            task_count=n,
            thread_busy_cycles=busy,
            task_thread=assignment,
            lock_wait_cycles=lock_wait,
            contended_acquires=contended,
        )

    def _run_array_event_loop_timeline(
        self, tasks: TaskArray, scale: float
    ) -> ScheduleResult:
        """Event loop with per-task (start, end) capture for tracing.

        Replicates :meth:`_run_array_event_loop`'s general branch
        operation-for-operation (same term grouping, same heap
        discipline), additionally recording when each task's thread
        picks it up and when it completes.  The timeline lands in
        ``result.extra["timeline"]`` as ``(starts, ends)`` cycle
        arrays; the driver converts them to simulated microseconds.
        """
        n = len(tasks)
        threads = self.threads
        cost = self.cost
        dispatch = (cost.task_dispatch / self.dispatch_chunk) * scale
        acquire_base = cost.lock_acquire + cost.lock_release
        unlocked = tasks.unlocked_work
        locked = tasks.locked_work
        penalty = np.where(
            tasks.fine_lock,
            cost.fine_lock_contended_penalty,
            cost.lock_contended_penalty,
        )
        work = unlocked + locked
        unlocked_scaled = (unlocked * scale).tolist()
        locked_scaled = (locked * scale).tolist()
        locked_uncont = ((locked + acquire_base) * scale).tolist()
        locked_cont = ((locked + (acquire_base + penalty)) * scale).tolist()
        locks = tasks.lock.tolist()

        free_at = [(0.0, t) for t in range(threads)]
        heapq.heapify(free_at)
        heapreplace = heapq.heapreplace
        lock_free: dict = {}
        lock_get = lock_free.get
        busy = [0.0] * threads
        assignment = np.empty(n, dtype=np.int32)
        starts = np.empty(n)
        ends = np.empty(n)
        contended_idx: list = []
        append_contended = contended_idx.append
        waits: list = []
        append_wait = waits.append

        for i in range(n):
            u = unlocked_scaled[i]
            lock = locks[i]
            t_free, tid = free_at[0]
            unlocked_end = (t_free + dispatch) + u
            if lock >= 0:
                acquire_ready = lock_get(lock, 0.0)
                if acquire_ready > unlocked_end:
                    append_contended(i)
                    append_wait(acquire_ready - unlocked_end)
                    end = acquire_ready + locked_cont[i]
                else:
                    end = unlocked_end + locked_uncont[i]
                lock_free[lock] = end
            else:
                end = unlocked_end + locked_scaled[i]
            assignment[i] = tid
            starts[i] = t_free
            ends[i] = end
            busy[tid] += end - t_free
            heapreplace(free_at, (end, tid))

        makespan = max(t for t, _ in free_at)
        work_values = np.where(tasks.lock >= 0, work + acquire_base, work)
        if contended_idx:
            idx = np.asarray(contended_idx)
            work_values[idx] = (work + (acquire_base + penalty))[idx]
        total_work = _sequential_sum(work_values)
        lock_wait = _sequential_sum(np.asarray(waits)) if waits else 0.0
        return ScheduleResult(
            makespan_cycles=makespan,
            total_work_cycles=total_work,
            threads=threads,
            task_count=n,
            thread_busy_cycles=np.asarray(busy),
            task_thread=assignment,
            lock_wait_cycles=lock_wait,
            contended_acquires=len(contended_idx),
            extra={"timeline": (starts, ends)},
        )

    # -- legacy object loop --------------------------------------------

    def _run_objects(self, tasks: Sequence[Task]) -> ScheduleResult:
        """The original per-object event loop (legacy task path)."""
        n = len(tasks)
        threads = self.threads
        cost = self.cost
        scale = _work_scale(threads, self.physical_cores, cost)
        thread_busy = np.zeros(threads)
        task_thread = np.empty(n, dtype=np.int32)
        if n == 0:
            return _empty_result(threads)
        timeline = TRACER.sim_timeline
        starts = np.empty(n) if timeline else None
        ends = np.empty(n) if timeline else None

        # Min-heap of (free_time, thread_id): the next free thread pulls
        # the next task (the essence of dynamic scheduling).
        free_at = [(0.0, t) for t in range(threads)]
        heapq.heapify(free_at)
        lock_free: dict = {}
        total_work = 0.0
        lock_wait = 0.0
        contended = 0
        dispatch_cost = cost.task_dispatch / self.dispatch_chunk

        for i, task in enumerate(tasks):
            t_free, tid = heapq.heappop(free_at)
            start = t_free + dispatch_cost * scale
            unlocked_end = start + task.unlocked_work * scale
            if task.lock is not None:
                acquire_ready = lock_free.get(task.lock, 0.0)
                acquire_at = max(unlocked_end, acquire_ready)
                waited = acquire_at - unlocked_end
                lock_cycles = cost.lock_acquire + cost.lock_release
                if waited > 0.0:
                    contended += 1
                    lock_wait += waited
                    lock_cycles += (
                        cost.fine_lock_contended_penalty
                        if task.fine_lock
                        else cost.lock_contended_penalty
                    )
                end = acquire_at + (task.locked_work + lock_cycles) * scale
                lock_free[task.lock] = end
                total_work += task.total_work + lock_cycles
            else:
                end = unlocked_end + task.locked_work * scale
                total_work += task.total_work
            task_thread[i] = tid
            thread_busy[tid] += end - t_free
            if timeline:
                starts[i] = t_free
                ends[i] = end
            heapq.heappush(free_at, (end, tid))

        makespan = max(t for t, _ in free_at)
        return ScheduleResult(
            makespan_cycles=makespan,
            total_work_cycles=total_work,
            threads=threads,
            task_count=n,
            thread_busy_cycles=thread_busy,
            task_thread=task_thread,
            lock_wait_cycles=lock_wait,
            contended_acquires=contended,
            extra={"timeline": (starts, ends)} if timeline else {},
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

    def run(self, tasks: Tasks) -> ScheduleResult:
        """Schedule chunk-pinned ``tasks`` and return the makespan."""
        if isinstance(tasks, TaskArray):
            return self._run_array(tasks)
        return self._run_objects(tasks)

    def _run_array(self, tasks: TaskArray) -> ScheduleResult:
        """Bincount kernel: one weighted reduction per batch."""
        threads = self.threads
        n = len(tasks)
        if n == 0:
            return _empty_result(threads)
        chunk = tasks.chunk
        if bool((chunk < 0).any()):
            raise SimulationError("ChunkedScheduler requires tasks with a chunk")
        scale = _work_scale(threads, self.physical_cores, self.cost)
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

    def _run_objects(self, tasks: Sequence[Task]) -> ScheduleResult:
        """The original per-object loop (legacy task path)."""
        threads = self.threads
        scale = _work_scale(threads, self.physical_cores, self.cost)
        thread_busy = np.zeros(threads)
        n = len(tasks)
        task_thread = np.empty(n, dtype=np.int32)
        total_work = 0.0
        for i, task in enumerate(tasks):
            if task.chunk is None:
                raise SimulationError("ChunkedScheduler requires tasks with a chunk")
            tid = task.chunk % threads
            work = task.total_work
            thread_busy[tid] += work * scale
            total_work += work
            task_thread[i] = tid
        makespan = float(thread_busy.max()) if n else 0.0
        extra = {}
        if TRACER.sim_timeline and n:
            scaled = [task.total_work * scale for task in tasks]
            extra["timeline"] = _chunked_timeline(task_thread, scaled)
        return ScheduleResult(
            makespan_cycles=makespan,
            total_work_cycles=total_work,
            threads=threads,
            task_count=n,
            thread_busy_cycles=thread_busy,
            task_thread=task_thread,
            active_threads=len(set(task_thread.tolist())) if n else None,
            extra=extra,
        )


def graham_makespan(
    work: float,
    longest: float,
    tasks: int,
    threads: int,
    physical_cores: int,
    cost: CostModel,
    dispatch_chunk: int = 64,
) -> Tuple[float, float]:
    """``(makespan, total work)`` of a lock-free ``parallel for``, from scalars.

    ``work`` and ``longest`` are the sum and the maximum of the
    ``tasks`` per-iteration costs.  The greedy list-scheduling bound
    ``makespan = total/T + (1 - 1/T) * max_task`` (Graham) is a tight
    model for dynamic scheduling of independent iterations; ``total``
    adds the per-dispatch overhead amortized over ``dispatch_chunk``
    iterations.
    """
    if threads < 1:
        raise SimulationError(f"threads must be >= 1, got {threads}")
    scale = _work_scale(threads, physical_cores, cost)
    total = work + cost.task_dispatch * tasks / dispatch_chunk
    makespan = (total / threads + (1.0 - 1.0 / threads) * longest) * scale
    return makespan, total


def parallel_for_makespan(
    costs: np.ndarray,
    threads: int,
    physical_cores: Optional[int] = None,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    dispatch_chunk: int = 64,
) -> ScheduleResult:
    """Makespan of a lock-free OpenMP ``parallel for`` over ``costs``.

    :func:`graham_makespan` over the array's sum and maximum, reported
    as a :class:`ScheduleResult` with a round-robin task assignment.
    """
    if threads < 1:
        raise SimulationError(f"threads must be >= 1, got {threads}")
    cores = physical_cores if physical_cores is not None else threads
    scale = _work_scale(threads, cores, cost_model)
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
        dispatch_chunk,
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

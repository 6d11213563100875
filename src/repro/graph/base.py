"""The SAGA-Bench data-structure API.

The paper defines a small API that every data structure implements so
that compute models and algorithms are structure-agnostic (Section
III-D): ``update()``, ``out_neigh()``, ``in_neigh()`` and
``performAlg()`` (the latter lives in :mod:`repro.algorithms.registry`).

Every structure here is *functional* -- it really stores the graph and
answers neighbor queries -- and *instrumented* -- each operation charges
cycle costs from the shared :class:`~repro.sim.cost_model.CostModel`
and (optionally) emits the memory addresses it touches.  The simulated
phase latency is the scheduler makespan over the charged tasks.

Edges are ingested uniquely: as in the paper, every insert first
searches for the edge and only inserts on a negative search.

Task emission is columnar by default: each structure provides a *task
emitter* that records the primitive counts of every store operation
(slots scanned, blocks chased, entries rehashed...) and prices them in
bulk into a :class:`~repro.sim.tasks.TaskArray` with vectorized
arithmetic, instead of allocating one ``Task`` object per edge.  The
legacy object path remains selectable with ``SAGA_BENCH_LEGACY_TASKS=1``
and produces bit-identical schedules (see ``tests/test_task_kernels.py``).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import StructureError
from repro.graph.edge import EdgeBatch
from repro.sim.cost_model import CostModel, DEFAULT_COST_MODEL
from repro.sim.machine import MachineConfig, SKYLAKE_GOLD_6142
from repro.obs.metrics import METRICS
from repro.obs.tracer import TRACER
from repro.sim.memory import AddressSpace
from repro.sim.scheduler import (
    ScheduleResult,
    Task,
    TaskArray,
    Tasks,
    use_legacy_tasks,
)
from repro.sim.trace import MemoryTrace, NullRecorder, TraceRecorder

#: Lock-namespace offset separating out-store locks from in-store locks.
IN_STORE_LOCK_BASE = 1 << 40


def contiguous_traversal_cost(degrees, cost):
    """Vectorized traversal cost of a contiguous neighbor array.

    One header read plus one light access per neighbor.  AS, AC and BA
    all expose this one function object as ``vector_traversal_cost``:
    compute pricing keys its per-vertex cost tables on the function's
    identity, so the three are priced once.
    """
    return cost.probe_element * (1.0 + degrees)


@dataclass
class ExecutionContext:
    """Where and how a phase executes on the simulated machine.

    Bundles the machine description, the thread count (defaulting to
    all hardware threads, as in the paper's methodology), the cost
    model, and an optional trace recorder for architecture profiling.
    """

    machine: MachineConfig = SKYLAKE_GOLD_6142
    threads: Optional[int] = None
    cost_model: CostModel = DEFAULT_COST_MODEL
    recorder: Optional[TraceRecorder] = None
    #: Keep the batch's tasks in ``UpdateResult.extra["tasks"]`` so
    #: callers can re-schedule them (e.g. the core-scaling sweep).
    keep_tasks: bool = False

    def __post_init__(self) -> None:
        if self.threads is None:
            self.threads = self.machine.hardware_threads
        if self.threads < 1:
            raise StructureError(f"threads must be >= 1, got {self.threads}")

    @property
    def effective_recorder(self):
        return self.recorder if self.recorder is not None else NullRecorder()

    def seconds(self, cycles: float) -> float:
        return self.machine.cycles_to_seconds(cycles)


@dataclass
class UpdateResult:
    """Outcome of ingesting one batch into a data structure."""

    schedule: ScheduleResult
    edges_attempted: int
    edges_inserted: int
    duplicates: int
    trace: Optional[MemoryTrace] = None
    extra: dict = field(default_factory=dict)

    @property
    def latency_cycles(self) -> float:
        return self.schedule.makespan_cycles

    def latency_seconds(self, machine: MachineConfig) -> float:
        return machine.cycles_to_seconds(self.latency_cycles)


class _ObjectEmitter:
    """Fallback columnar emitter: runs the object path, boxes at the end.

    Structures that do not define their own emitter still get a
    :class:`TaskArray` out of the columnar ingest loop -- they just pay
    the per-edge ``Task`` allocation they would have paid anyway.
    """

    __slots__ = ("_structure", "_tasks")

    def __init__(self, structure: "GraphDataStructure") -> None:
        self._structure = structure
        self._tasks: List[Task] = []

    @property
    def rows(self) -> int:
        return len(self._tasks)

    def insert_out(self, src, dst, weight, recorder) -> bool:
        task, changed = self._structure._insert_out(src, dst, weight, recorder)
        self._tasks.append(task)
        return changed

    def insert_in(self, src, dst, weight, recorder) -> bool:
        task, changed = self._structure._insert_in(src, dst, weight, recorder)
        self._tasks.append(task)
        return changed

    def delete_out(self, src, dst, recorder) -> bool:
        task, changed = self._structure._delete_out(src, dst, recorder)
        self._tasks.append(task)
        return changed

    def delete_in(self, src, dst, recorder) -> bool:
        task, changed = self._structure._delete_in(src, dst, recorder)
        self._tasks.append(task)
        return changed

    def finish(self, batch_size: int) -> TaskArray:
        self._tasks.extend(self._structure._batch_overhead_tasks(batch_size))
        return TaskArray.from_tasks(self._tasks)


class GraphDataStructure(abc.ABC):
    """Base class for the four streaming-graph data structures.

    Subclasses implement single-edge insertion into the out-store and
    in-store (:meth:`_insert_out` / :meth:`_insert_in`), neighbor
    retrieval, analytic traversal costs, and the scheduling style used
    to turn per-edge tasks into a batch-update makespan.

    Parameters
    ----------
    max_nodes:
        Upper bound on vertex ids (property arrays and index arrays are
        sized to it, as in the C++ benchmark where |V| is known from
        the dataset header).
    directed:
        Directed graphs keep a second copy of the structure for
        in-neighbors (paper footnote 3); undirected graphs ingest each
        edge in both orientations into the single store.
    """

    #: Short name used in tables ("AS", "AC", "Stinger", "DAH").
    name: str = "?"

    def __init__(
        self,
        max_nodes: int,
        directed: bool = True,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        address_space: Optional[AddressSpace] = None,
    ) -> None:
        if max_nodes < 1:
            raise StructureError(f"max_nodes must be >= 1, got {max_nodes}")
        self.max_nodes = max_nodes
        self.directed = directed
        self.cost = cost_model
        self.space = address_space if address_space is not None else AddressSpace()
        self._num_edges = 0
        self._max_seen_node = -1

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def update(self, batch: EdgeBatch, ctx: Optional[ExecutionContext] = None) -> UpdateResult:
        """Ingest ``batch``: the paper's *update phase* for one batch.

        Returns an :class:`UpdateResult` whose latency is the simulated
        parallel makespan of the per-edge insertion tasks under this
        structure's multithreading style.
        """
        if ctx is None:
            ctx = ExecutionContext()
        recorder = ctx.effective_recorder
        with TRACER.span("emission"):
            tasks, inserted, duplicates = self._ingest(batch, recorder, delete=False)
        with TRACER.span("schedule") as span:
            schedule = self._schedule(tasks, ctx)
            span.add_cycles(schedule.makespan_cycles)
        if METRICS.enabled:
            self._record_schedule_metrics(schedule)
        trace = recorder.finalize() if ctx.recorder is not None else None
        result = UpdateResult(
            schedule=schedule,
            edges_attempted=len(batch),
            edges_inserted=inserted,
            duplicates=duplicates,
            trace=trace,
        )
        if ctx.keep_tasks:
            result.extra["tasks"] = tasks
        return result

    def delete(self, batch: EdgeBatch, ctx: Optional[ExecutionContext] = None) -> UpdateResult:
        """Remove ``batch``'s edges: a deletion-only update phase.

        Deletions follow the same search-then-act discipline as
        insertions and the same multithreading style; an edge that is
        not present costs its (negative) search and is reported in
        ``duplicates``.  Note that incremental *compute* over deletions
        is approximate for the monotone algorithms (see
        ``repro.compute.incremental``); from-scratch recomputation is
        always exact.
        """
        if ctx is None:
            ctx = ExecutionContext()
        recorder = ctx.effective_recorder
        with TRACER.span("emission"):
            tasks, removed, missing = self._ingest(batch, recorder, delete=True)
        with TRACER.span("schedule") as span:
            schedule = self._schedule(tasks, ctx)
            span.add_cycles(schedule.makespan_cycles)
        if METRICS.enabled:
            self._record_schedule_metrics(schedule)
        trace = recorder.finalize() if ctx.recorder is not None else None
        result = UpdateResult(
            schedule=schedule,
            edges_attempted=len(batch),
            edges_inserted=removed,  # edges *affected* by this phase
            duplicates=missing,
            trace=trace,
        )
        result.extra["operation"] = "delete"
        if ctx.keep_tasks:
            result.extra["tasks"] = tasks
        return result

    def _ingest(
        self, batch: EdgeBatch, recorder, delete: bool
    ) -> Tuple[Tasks, int, int]:
        """Apply ``batch`` to the stores and emit its tasks.

        Returns ``(tasks, positive, negative)`` where *positive* counts
        edges actually inserted (or removed) and *negative* counts
        duplicates (or misses).
        """
        if use_legacy_tasks():
            return self._ingest_objects(batch, recorder, delete)
        return self._ingest_columnar(batch, recorder, delete)

    def _ingest_objects(
        self, batch: EdgeBatch, recorder, delete: bool
    ) -> Tuple[List[Task], int, int]:
        """The legacy per-edge object loop (one ``Task`` per operation)."""
        tasks: List[Task] = []
        positive = 0
        negative = 0
        for i in range(len(batch)):
            u = int(batch.src[i])
            v = int(batch.dst[i])
            self._check_vertex(u)
            self._check_vertex(v)
            recorder.begin_task(len(tasks))
            if delete:
                task, changed = self._delete_out(u, v, recorder)
            else:
                w = float(batch.weight[i])
                task, changed = self._insert_out(u, v, w, recorder)
            tasks.append(task)
            if changed:
                positive += 1
                self._num_edges += -1 if delete else 1
            else:
                negative += 1
            if u != v or self.directed:
                recorder.begin_task(len(tasks))
                if delete:
                    if self.directed:
                        tasks.append(self._delete_in(v, u, recorder)[0])
                    else:
                        tasks.append(self._delete_out(v, u, recorder)[0])
                else:
                    if self.directed:
                        tasks.append(self._insert_in(v, u, w, recorder)[0])
                    else:
                        tasks.append(self._insert_out(v, u, w, recorder)[0])
            if not delete:
                self._max_seen_node = max(self._max_seen_node, u, v)
        tasks.extend(self._batch_overhead_tasks(len(batch)))
        return tasks, positive, negative

    def _ingest_columnar(
        self, batch: EdgeBatch, recorder, delete: bool
    ) -> Tuple[TaskArray, int, int]:
        """The columnar hot path: count per edge, price in bulk.

        Store mutation is shared with the object path (same store
        methods, same call order, same trace); only task materialization
        differs.  The whole batch is range-checked up front, so an
        out-of-range vertex raises before any edge is applied (the
        object path raises mid-batch).
        """
        n = len(batch)
        self._check_batch(batch)
        emitter = self._make_emitter(delete)
        tracing = recorder.enabled
        directed = self.directed
        # Untraced batches take the fused bulk loop when the emitter
        # provides one (store internals inlined, no per-op dispatch);
        # traced batches keep the per-edge loop, whose store methods
        # emit the memory accesses.
        bulk = None if tracing else getattr(emitter, "ingest_batch", None)
        if bulk is not None:
            positive = bulk(batch)
        elif delete:
            src = batch.src.tolist()
            dst = batch.dst.tolist()
            positive = 0
            op_out = emitter.delete_out
            op_in = emitter.delete_in if directed else emitter.delete_out
            for i in range(n):
                u = src[i]
                v = dst[i]
                if tracing:
                    recorder.begin_task(emitter.rows)
                if op_out(u, v, recorder):
                    positive += 1
                if u != v or directed:
                    if tracing:
                        recorder.begin_task(emitter.rows)
                    op_in(v, u, recorder)
        else:
            src = batch.src.tolist()
            dst = batch.dst.tolist()
            weight = batch.weight.tolist()
            positive = 0
            op_out = emitter.insert_out
            op_in = emitter.insert_in if directed else emitter.insert_out
            for i in range(n):
                u = src[i]
                v = dst[i]
                w = weight[i]
                if tracing:
                    recorder.begin_task(emitter.rows)
                if op_out(u, v, w, recorder):
                    positive += 1
                if u != v or directed:
                    if tracing:
                        recorder.begin_task(emitter.rows)
                    op_in(v, u, w, recorder)
        if delete:
            self._num_edges -= positive
        else:
            self._num_edges += positive
            if n:
                self._max_seen_node = max(
                    self._max_seen_node, int(batch.src.max()), int(batch.dst.max())
                )
        return emitter.finish(n), positive, n - positive

    def _make_emitter(self, delete: bool):
        """The columnar task emitter for one batch (per structure).

        The default wraps the object path; structures override this
        with an emitter that records primitive counts and prices them
        vectorized in ``finish()``.
        """
        return _ObjectEmitter(self)

    def _delete_out(self, src: int, dst: int, recorder) -> Tuple[Task, bool]:
        """Remove ``src -> dst`` from the out-store (per structure)."""
        raise StructureError(f"{self.name} does not support deletion")

    def _delete_in(self, src: int, dst: int, recorder) -> Tuple[Task, bool]:
        """Remove ``src -> dst`` from the in-store (per structure)."""
        raise StructureError(f"{self.name} does not support deletion")

    def schedule_tasks(self, tasks: Tasks, ctx: ExecutionContext) -> ScheduleResult:
        """Re-schedule kept tasks under a different context.

        Tasks depend only on graph content, not on thread count, so one
        ingest can be re-priced at many machine shapes (the Fig. 9(a)
        core-scaling sweep).
        """
        with TRACER.span("schedule") as span:
            schedule = self._schedule(tasks, ctx)
            span.add_cycles(schedule.makespan_cycles)
        if METRICS.enabled:
            self._record_schedule_metrics(schedule)
        return schedule

    def _record_schedule_metrics(self, schedule: ScheduleResult) -> None:
        """Fold one schedule's aggregates into the metrics registry."""
        METRICS.counter(
            "sim_schedules_total",
            "phase schedules executed",
            structure=self.name,
        ).inc()
        METRICS.counter(
            "sim_tasks_emitted_total",
            "tasks emitted into the schedulers",
            structure=self.name,
        ).inc(schedule.task_count)
        if schedule.contended_acquires:
            METRICS.counter(
                "sim_lock_contended_acquires_total",
                "contended lock acquires observed by the DES scheduler",
                structure=self.name,
            ).inc(schedule.contended_acquires)
            METRICS.counter(
                "sim_lock_wait_cycles_total",
                "simulated cycles spent waiting on locks",
                structure=self.name,
            ).inc(schedule.lock_wait_cycles)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Number of vertices seen so far (max id + 1)."""
        return self._max_seen_node + 1

    @property
    def num_edges(self) -> int:
        """Number of unique logical edges ingested so far."""
        return self._num_edges

    @abc.abstractmethod
    def out_neigh(self, u: int) -> Sequence[Tuple[int, float]]:
        """The ``(neighbor, weight)`` pairs of ``u``'s out-edges."""

    def in_neigh(self, u: int) -> Sequence[Tuple[int, float]]:
        """The ``(neighbor, weight)`` pairs of ``u``'s in-edges.

        For undirected graphs this is the same as :meth:`out_neigh`.
        """
        if not self.directed:
            return self.out_neigh(u)
        return self._in_neigh_directed(u)

    def out_degree(self, u: int) -> int:
        return len(self.out_neigh(u))

    def in_degree(self, u: int) -> int:
        return len(self.in_neigh(u))

    def vertices(self) -> Iterable[int]:
        """All vertex ids from 0 to the largest seen."""
        return range(self.num_nodes)

    def csr_arrays(self, direction: str = "out"):
        """Columnar CSR snapshot of one adjacency direction.

        Neighbor order within each vertex matches :meth:`out_neigh` /
        :meth:`in_neigh` iteration order, so vectorized compute kernels
        reproduce the per-vertex loops bit-for-bit (see
        :mod:`repro.compute.kernels`).  Structures with columnar
        internals may override this with a zero-copy export.
        """
        # Imported lazily: repro.compute.pricing imports repro.graph.
        from repro.compute.kernels import csr_from_pair_rows

        n = self.num_nodes
        neigh = self.out_neigh if direction == "out" else self.in_neigh
        # Materialize each vertex's row once (Stinger/BA build theirs
        # per call), then convert all pairs in one bulk np.array.
        rows = [neigh(u) for u in range(n)]
        return csr_from_pair_rows(rows, n)

    # ------------------------------------------------------------------
    # Analytic compute-phase costs
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def out_traversal_cost(self, u: int) -> float:
        """Cycles to traverse ``u``'s out-neighbors once.

        The compute executor charges this per processed vertex; the
        constants come from the shared cost model but the *shape*
        (contiguous scan vs pointer chasing vs hashed retrieval) is the
        structure's own (paper Section V-B, "Impact of data structures
        ... on compute latency").
        """

    def in_traversal_cost(self, u: int) -> float:
        """Cycles to traverse ``u``'s in-neighbors once."""
        if not self.directed:
            return self.out_traversal_cost(u)
        return self._in_traversal_cost_directed(u)

    def degree_query_cost(self) -> float:
        """Cycles for one degree lookup during compute.

        Adjacency-based structures read a header field; DAH overrides
        this with its table meta-query cost (Section III-A4).
        """
        return self.cost.probe_element

    def trace_out_traversal(self, vertices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The memory reads of one out-neighbor traversal per vertex.

        Returns ``(counts, addresses)``: ``counts[i]`` accesses for
        ``vertices[i]``, and the flat read addresses of all traversals
        back to back in emission order.
        """
        return self._trace_traversals(np.asarray(vertices, dtype=np.int64), out=True)

    def trace_in_traversal(self, vertices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`trace_out_traversal` for in-neighbor traversals."""
        return self._trace_traversals(
            np.asarray(vertices, dtype=np.int64), out=not self.directed
        )

    def _trace_traversals(
        self, vertices: np.ndarray, out: bool
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Reference emitter: the per-vertex :meth:`_trace_traversal` in a loop.

        Structures whose stores can emit a whole vertex array at once
        override this; the result must equal this loop's.
        """
        recorder = TraceRecorder()
        ends = []
        for u in vertices.tolist():
            self._trace_traversal(u, recorder, out)
            ends.append(len(recorder))
        counts = np.diff(np.asarray(ends, dtype=np.int64), prepend=0)
        return counts, recorder.finalize().addresses

    # ------------------------------------------------------------------
    # Subclass responsibilities
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def _insert_out(self, src: int, dst: int, weight: float, recorder) -> Tuple[Task, bool]:
        """Insert ``src -> dst`` into the out-store.

        Returns the schedulable :class:`Task` for the insert and
        whether the edge was new (False for a duplicate).
        """

    @abc.abstractmethod
    def _insert_in(self, src: int, dst: int, weight: float, recorder) -> Tuple[Task, bool]:
        """Insert ``src -> dst`` into the in-store (directed only)."""

    @abc.abstractmethod
    def _in_neigh_directed(self, u: int) -> Sequence[Tuple[int, float]]:
        ...

    @abc.abstractmethod
    def _in_traversal_cost_directed(self, u: int) -> float:
        ...

    @abc.abstractmethod
    def _trace_traversal(self, u: int, recorder, out: bool) -> None:
        ...

    @abc.abstractmethod
    def _schedule(self, tasks: Tasks, ctx: ExecutionContext) -> ScheduleResult:
        """Turn the batch's tasks into a makespan (structure style)."""

    def _batch_overhead_tasks(self, batch_size: int) -> List[Task]:
        """Fixed per-batch overhead tasks (chunked routing etc.)."""
        return []

    # ------------------------------------------------------------------

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.max_nodes:
            raise StructureError(
                f"vertex {v} out of range [0, {self.max_nodes}) for {self.name}"
            )

    def _check_batch(self, batch: EdgeBatch) -> None:
        """Vectorized range check over a whole batch's endpoints."""
        if len(batch) == 0:
            return
        src = batch.src
        dst = batch.dst
        bad_src = (src < 0) | (src >= self.max_nodes)
        bad_dst = (dst < 0) | (dst >= self.max_nodes)
        bad = bad_src | bad_dst
        if bad.any():
            i = int(np.argmax(bad))
            self._check_vertex(int(src[i]) if bad_src[i] else int(dst[i]))

    def degrees_snapshot(self) -> Tuple[List[int], List[int]]:
        """(in-degrees, out-degrees) for all current vertices."""
        n = self.num_nodes
        outs = [self.out_degree(v) for v in range(n)]
        ins = outs if not self.directed else [self.in_degree(v) for v in range(n)]
        return list(ins), outs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} name={self.name} nodes={self.num_nodes} "
            f"edges={self.num_edges} directed={self.directed}>"
        )

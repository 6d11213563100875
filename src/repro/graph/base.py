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

Task emission is columnar: each structure provides a *task emitter*
(:meth:`GraphDataStructure._make_emitter`) that records the primitive
counts of every store operation (slots scanned, blocks chased, entries
rehashed...) and prices them in bulk into a
:class:`~repro.sim.tasks.TaskArray` with vectorized arithmetic.  An
emitter's per-operation methods are the reference, and what every batch
runs when the stores were built without a compiled kernel: the store
methods behind them return the counts and emit the memory accesses of
one operation.  Its ``ingest_batch(batch, recorder)`` -- the whole batch
as one compiled call, which also writes a traced batch's accesses into
the recorder -- is what every batch runs otherwise.
``tests/test_task_kernels.py`` pins the emitted columns of both,
``tests/test_cingest.py`` the traces.
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
from repro.sim.scheduler import ScheduleResult, TaskArray
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


class GraphDataStructure(abc.ABC):
    """Base class for the four streaming-graph data structures.

    Subclasses implement the per-batch task emitter over their out-
    and in-stores (:meth:`_make_emitter`), neighbor retrieval, analytic
    traversal costs, and the scheduling style used to turn per-edge
    tasks into a batch-update makespan.

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
        ``duplicates``.  Incremental *compute* stays sound across
        deletions: ``Algorithm.inc_delete_run`` invalidates what the
        removed edges supported before re-deriving it (the monotone
        algorithms), and PR converges without invalidation.
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
    ) -> Tuple[TaskArray, int, int]:
        """Apply ``batch`` to the stores and emit its tasks.

        Returns ``(tasks, positive, negative)`` where *positive* counts
        edges actually inserted (or removed) and *negative* counts
        duplicates (or misses).  Operations are counted per edge and
        priced in bulk by the emitter's ``finish``.  The whole batch is
        range-checked up front, so an out-of-range vertex raises before
        any edge is applied.
        """
        n = len(batch)
        self._check_batch(batch)
        emitter = self._make_emitter(delete)
        if delete and not hasattr(emitter, "delete_out"):
            raise StructureError(f"{self.name} does not support deletion")
        tracing = recorder.enabled
        directed = self.directed
        traced_before = len(recorder)
        # Every batch takes the emitter's one compiled call when it
        # offers one (the kernel writes a traced batch's accesses too);
        # stores without a kernel run the per-edge loop, whose store
        # methods emit them.
        bulk = getattr(emitter, "ingest_batch", None)
        if bulk is not None:
            positive = bulk(batch, recorder)
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
        if tracing and METRICS.enabled:
            METRICS.counter(
                "ingest_trace_accesses_total",
                "update-phase memory accesses emitted, by the path that wrote them",
                structure=self.name,
                path="kernel" if bulk is not None else "per_edge",
            ).inc(len(recorder) - traced_before)
        if delete:
            self._num_edges -= positive
        else:
            self._num_edges += positive
            if n:
                self._max_seen_node = max(
                    self._max_seen_node, int(batch.src.max()), int(batch.dst.max())
                )
        return emitter.finish(n), positive, n - positive

    def schedule_tasks(self, tasks: TaskArray, ctx: ExecutionContext) -> ScheduleResult:
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

        The five structures override this with their stores' C
        traversal emitter (:mod:`repro.sim.cingest`), whose result must
        equal this loop's, and run this loop when a store has no kernel.
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
    def _make_emitter(self, delete: bool):
        """The task emitter for one insert (or delete) batch.

        An emitter applies operations to the stores and counts what
        they did: ``insert_out(src, dst, weight, recorder)`` and
        ``insert_in(...)`` return whether the edge was new, ``rows`` is
        the number of tasks recorded so far, and ``finish(batch_size)``
        prices all of them into one :class:`TaskArray` (per-batch
        overhead tasks such as chunk routing included).  A structure
        that supports deletion adds ``delete_out(src, dst, recorder)``
        / ``delete_in``; one whose stores have a compiled kernel offers
        ``ingest_batch(batch, recorder)`` returning the positive count
        (absent or ``None`` otherwise).
        """

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
    def _schedule(self, tasks: TaskArray, ctx: ExecutionContext) -> ScheduleResult:
        """Turn the batch's tasks into a makespan (structure style)."""

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

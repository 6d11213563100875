"""The SAGA-Bench data-structure API, written once for every structure.

The paper defines a small API that every data structure implements so
that compute models and algorithms are structure-agnostic (Section
III-D): ``update()``, ``out_neigh()``, ``in_neigh()`` and
``performAlg()`` (the latter lives in :mod:`repro.algorithms.registry`).
The structures differ on two axes only (Section III-A): the storage
layout, and the multithreading style -- shared (per-vertex or per-block
locks, :class:`GraphDataStructure`) or chunked and lockless
(:class:`ChunkedStructure`).  Everything else is written here, once:

- a pair of stores, one per direction.  Directed graphs keep a second
  copy of the structure for in-neighbors (paper footnote 3); an
  undirected structure's in-store *is* its out-store, so each edge is
  ingested in both orientations into it and in-queries read it;
- the one ingest path.  A store with a compiled kernel takes the whole
  batch in one call (:func:`~repro.graph.nativestore.native_ingest`,
  which also writes a traced batch's accesses into the recorder).  A
  store without one runs its per-edge ``insert`` / ``remove`` -- the
  reference, which returns the primitive counts of one operation and
  emits its memory accesses -- in the kernel's row order.  Either way
  the counts are one int64 ``(columns, rows)`` block, and the
  structure's pricing turns it into one
  :class:`~repro.sim.tasks.TaskArray` with vectorized arithmetic; the
  simulated phase latency is the scheduler makespan over it;
- the neighbor queries, and the compute-phase traces: the store's C
  traversal emitter (``traversals``) or, without a kernel, its
  per-vertex ``trace_traversal`` in a loop.

A structure module declares only what is its own: its store factory,
the names of its count columns, one pricing function from the columns
to a ``TaskArray``, its scheduler,
its vectorized compute-phase traversal cost and (DAH) its degree-query
cost.  ``tests/test_task_kernels.py`` pins the emitted columns of both
ingest paths, ``tests/test_cingest.py`` the traces.

Every structure is *functional* -- it really stores the graph and
answers neighbor queries -- and *instrumented*: each operation charges
cycle costs from the shared :class:`~repro.sim.cost_model.CostModel`.
Edges are ingested uniquely: as in the paper, every insert first
searches for the edge and only inserts on a negative search.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.errors import StructureError
from repro.graph.edge import EdgeBatch
from repro.graph.nativestore import native_ingest
from repro.graph.vectorstore import row_layout
from repro.sim import cingest
from repro.sim.cost_model import CostModel, DEFAULT_COST_MODEL
from repro.sim.machine import MachineConfig, SKYLAKE_GOLD_6142
from repro.obs.metrics import METRICS
from repro.obs.tracer import TRACER
from repro.sim.memory import AddressSpace
from repro.sim.scheduler import (
    ChunkedScheduler,
    DynamicScheduler,
    ScheduleResult,
    TaskArray,
)
from repro.sim.trace import MemoryTrace, NullRecorder, TraceRecorder

#: Default chunk count; matches the paper's 64 hardware threads.
DEFAULT_CHUNKS = 64


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
    """Outcome of ingesting one batch into a data structure; ``tasks``
    can be re-scheduled at other machine shapes (:meth:`schedule_tasks`)."""

    schedule: ScheduleResult
    edges_attempted: int
    edges_inserted: int
    duplicates: int
    tasks: TaskArray
    trace: Optional[MemoryTrace] = None

    @property
    def latency_cycles(self) -> float:
        return self.schedule.makespan_cycles

    def latency_seconds(self, machine: MachineConfig) -> float:
        return machine.cycles_to_seconds(self.latency_cycles)


class GraphDataStructure(abc.ABC):
    """A streaming-graph data structure over a pair of stores.

    Shared-style multithreading (the scheduler's default): many threads
    update one store under locks.  A subclass declares its store factory
    (:meth:`_new_store`), the names of its count columns (``columns``),
    its pricing (:meth:`_price`), and its vectorized traversal cost.

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

    #: Short name used in tables ("AS", "AC", "Stinger", "DAH", "BA").
    name: str = "?"

    #: Turns a batch's tasks into a makespan (the multithreading style).
    scheduler = DynamicScheduler

    #: The count columns of one store operation, in the order the
    #: compiled kernel writes them and the fields of the stores'
    #: outcome records list them; one must be ``"hit"`` (the store
    #: changed).
    columns: Tuple[str, ...] = ()

    def __init__(
        self,
        max_nodes: int,
        directed: bool = True,
        cost_model: Optional[CostModel] = None,
    ) -> None:
        if max_nodes < 1:
            raise StructureError(f"max_nodes must be >= 1, got {max_nodes}")
        self.max_nodes = max_nodes
        self.directed = directed
        self.cost = cost_model or DEFAULT_COST_MODEL
        self.space = AddressSpace()
        self._num_edges = 0
        self._max_seen_node = -1
        kernels = cingest.get()
        self._out = self._new_store("out", kernels)
        self._in = self._new_store("in", kernels) if directed else self._out

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    @TRACER.layer("graph.update")
    def update(self, batch: EdgeBatch, ctx: Optional[ExecutionContext] = None) -> UpdateResult:
        """Ingest ``batch``: the paper's *update phase* for one batch.

        Returns an :class:`UpdateResult` whose latency is the simulated
        parallel makespan of the per-edge insertion tasks under this
        structure's multithreading style.
        """
        return self._phase(batch, ctx, delete=False)

    @TRACER.layer("graph.delete")
    def delete(self, batch: EdgeBatch, ctx: Optional[ExecutionContext] = None) -> UpdateResult:
        """Remove ``batch``'s edges: a deletion-only update phase.

        Deletions follow the same search-then-act discipline as
        insertions and the same multithreading style; an edge that is
        not present costs its (negative) search and is reported in
        ``duplicates``, and ``edges_inserted`` counts the edges removed.
        Incremental *compute* stays sound across deletions:
        ``Algorithm.inc_delete_run`` invalidates what the removed edges
        supported before re-deriving it (the monotone algorithms), and
        PR converges without invalidation.
        """
        return self._phase(batch, ctx, delete=True)

    def _phase(
        self, batch: EdgeBatch, ctx: Optional[ExecutionContext], delete: bool
    ) -> UpdateResult:
        """One update phase: emit the batch's tasks, then schedule them."""
        if ctx is None:
            ctx = ExecutionContext()
        recorder = ctx.effective_recorder
        tasks, positive, negative = self._ingest(batch, recorder, delete=delete)
        schedule = self._schedule(tasks, ctx)
        if METRICS.enabled:
            self._record_schedule_metrics(schedule)
        trace = recorder.finalize() if ctx.recorder is not None else None
        return UpdateResult(
            schedule=schedule,
            edges_attempted=len(batch),
            edges_inserted=positive,
            duplicates=negative,
            tasks=tasks,
            trace=trace,
        )

    def _ingest(
        self, batch: EdgeBatch, recorder, delete: bool
    ) -> Tuple[TaskArray, int, int]:
        """Apply ``batch`` to the stores and price its tasks.

        Returns ``(tasks, positive, negative)`` where *positive* counts
        edges actually inserted (or removed) and *negative* counts
        duplicates (or misses).  The whole batch is range-checked up
        front, so an out-of-range vertex raises before any edge is
        applied.
        """
        n = len(batch)
        self._check_batch(batch)
        traced_before = len(recorder)
        kernel = self._out.kernels is not None
        if kernel:
            positive, columns = native_ingest(
                self._out, self._in, batch, self.directed, delete, recorder, self.columns
            )
        else:
            positive, columns = self._ingest_per_edge(batch, recorder, delete)
        if recorder.enabled and METRICS.enabled:
            METRICS.counter(
                "ingest_trace_accesses_total",
                "update-phase memory accesses emitted, by the path that wrote them",
                structure=self.name,
                path="kernel" if kernel else "per_edge",
            ).inc(len(recorder) - traced_before)
        if delete:
            self._num_edges -= positive
        else:
            self._num_edges += positive
            if n:
                self._max_seen_node = max(
                    self._max_seen_node, int(batch.src.max()), int(batch.dst.max())
                )
        return self._price(batch, columns, delete), positive, n - positive

    def _ingest_per_edge(self, batch: EdgeBatch, recorder, delete: bool):
        """The reference for ``native_ingest``: ``(positive, block)``.

        One store operation per row, in the kernel's row order -- each
        edge's out-store operation, then its mirror in the in-store
        (skipped for an undirected self-loop) -- gathered into the
        kernel's int64 ``(columns, rows)`` block.  A traced batch's
        accesses are tagged with the row that made them.
        """
        tracing = recorder.enabled
        hit = self.columns.index("hit")
        rows = []

        def apply(store, src, dst, weight) -> bool:
            if tracing:
                recorder.begin_task(len(rows))
            if delete:
                outcome = store.remove(src, dst, recorder)
            else:
                outcome = store.insert(src, dst, weight, recorder)
            # An outcome record's fields are the kernel's columns, in order.
            rows.append(tuple(vars(outcome).values()))
            return bool(rows[-1][hit])

        positive = 0
        edges = zip(batch.src.tolist(), batch.dst.tolist(), batch.weight.tolist())
        for u, v, w in edges:
            positive += apply(self._out, u, v, w)
            if u != v or self.directed:
                apply(self._in, v, u, w)
        table = np.array(rows, dtype=np.int64).reshape(len(rows), len(self.columns))
        return positive, table.T.copy()

    @TRACER.layer("scheduler.ladder")
    def schedule_tasks(self, tasks: TaskArray, ctx: ExecutionContext) -> ScheduleResult:
        """Re-schedule a batch's ``UpdateResult.tasks`` under a different context.

        Tasks depend only on graph content, not on thread count, so one
        ingest can be re-priced at many machine shapes (the Fig. 9(a)
        core-scaling sweep).
        """
        schedule = self._schedule(tasks, ctx)
        if METRICS.enabled:
            self._record_schedule_metrics(schedule)
        return schedule

    def _schedule(self, tasks: TaskArray, ctx: ExecutionContext) -> ScheduleResult:
        scheduler = self.scheduler(
            threads=ctx.threads,
            physical_cores=ctx.machine.physical_cores,
            cost_model=ctx.cost_model,
        )
        return scheduler.run(tasks)

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

    def out_neigh(self, u: int) -> Sequence[Tuple[int, float]]:
        """The ``(neighbor, weight)`` pairs of ``u``'s out-edges."""
        self._check_vertex(u)
        return self._out.neighbors(u)

    def in_neigh(self, u: int) -> Sequence[Tuple[int, float]]:
        """The ``(neighbor, weight)`` pairs of ``u``'s in-edges (the
        out-edges for undirected graphs)."""
        self._check_vertex(u)
        return self._in.neighbors(u)

    def out_degree(self, u: int) -> int:
        self._check_vertex(u)
        return self._out.degree(u)

    def in_degree(self, u: int) -> int:
        self._check_vertex(u)
        return self._in.degree(u)

    def vertices(self) -> Iterable[int]:
        """All vertex ids from 0 to the largest seen."""
        return range(self.num_nodes)

    # ------------------------------------------------------------------
    # Compute-phase costs and traces
    # ------------------------------------------------------------------

    @staticmethod
    @abc.abstractmethod
    def vector_traversal_cost(degrees, cost: CostModel):
        """Cycles to traverse each vertex's neighbors once, given its degree.

        The compute pricing charges this per processed vertex; the
        constants come from the shared cost model but the *shape*
        (contiguous scan vs pointer chasing vs hashed retrieval) is the
        structure's own (paper Section V-B, "Impact of data structures
        ... on compute latency").
        """

    @staticmethod
    def degree_query_cost(cost: CostModel) -> float:
        """Cycles for one degree lookup during compute: a header field.

        DAH overrides this with its table meta-query (Section III-A4).
        """
        return cost.probe_element

    @TRACER.layer("graph.trace_traversal")
    def trace_out_traversal(self, vertices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The memory reads of one out-neighbor traversal per vertex.

        Returns ``(counts, addresses)``: ``counts[i]`` accesses for
        ``vertices[i]``, and the flat read addresses of all traversals
        back to back in emission order.
        """
        return _trace_traversals(self._out, vertices)

    @TRACER.layer("graph.trace_traversal")
    def trace_in_traversal(self, vertices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`trace_out_traversal` for in-neighbor traversals."""
        return _trace_traversals(self._in, vertices)

    # ------------------------------------------------------------------
    # Subclass responsibilities
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def _new_store(self, direction: str, kernels):
        """A fresh store for one direction (``"out"`` or ``"in"``) over
        ``kernels`` (``cingest.get()``; ``None``: per-edge only)."""

    @abc.abstractmethod
    def _price(self, batch: EdgeBatch, columns, delete: bool) -> TaskArray:
        """The batch's tasks, from its count columns (see ``columns``)."""

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


class ChunkedStructure(GraphDataStructure):
    """Chunked-style multithreading (AC, BA, DAH; Section III-A2).

    The structure is partitioned into chunks, each owning the neighbors
    of the source vertices ``u % chunks``.  A chunk is single-threaded,
    so its updates need no locks; parallelism comes from running chunks
    on different threads.  The price is routing: every chunk scans the
    whole incoming batch to pick out its own edges, a fixed per-batch
    overhead.
    """

    scheduler = ChunkedScheduler

    def __init__(
        self,
        max_nodes: int,
        directed: bool = True,
        cost_model: Optional[CostModel] = None,
        chunks: int = DEFAULT_CHUNKS,
    ) -> None:
        if chunks < 1:
            raise StructureError(f"chunks must be >= 1, got {chunks}")
        self.chunks = chunks
        super().__init__(max_nodes, directed, cost_model)

    def _chunk_tasks(self, batch: EdgeBatch, work: np.ndarray) -> TaskArray:
        """Lockless per-operation ``work`` pinned to the owning chunks,
        then one routing task per chunk: it scans the whole batch once
        per store direction (out+in, or both orientations)."""
        row_src, _ = row_layout(batch.src, batch.dst, self.directed)
        edges = TaskArray.build(
            len(work), unlocked_work=work, chunk=row_src % self.chunks
        )
        routing = TaskArray.build(
            self.chunks,
            unlocked_work=self.cost.route_edge * len(batch) * 2,
            chunk=np.arange(self.chunks, dtype=np.int64),
            overhead=True,
        )
        return TaskArray.concatenate([edges, routing])


def _trace_traversals(store, vertices) -> Tuple[np.ndarray, np.ndarray]:
    """One traversal of each vertex's neighbors in ``store``: ``(counts, addresses)``.

    A store with a kernel emits the whole array in C; one without runs
    its per-vertex ``trace_traversal`` -- the reference the C emitters
    are tested against -- in a loop.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    if store.kernels is not None:
        return store.traversals(vertices)
    recorder = TraceRecorder()
    ends = []
    for u in vertices.tolist():
        store.trace_traversal(u, recorder)
        ends.append(len(recorder))
    counts = np.diff(np.asarray(ends, dtype=np.int64), prepend=0)
    return counts, recorder.finalize().addresses

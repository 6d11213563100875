"""DAH: degree-aware hashing (Section III-A4, Fig. 5).

Each chunk of DAH owns two hash tables:

- a **low-degree table** (Robin Hood hashing) whose slots hold a vertex
  key plus a small inline array of neighbors, and
- a **high-degree table** (open addressing) mapping a vertex to a
  growable hashed neighbor set.

An edge insert first performs the *degree query* meta-operation to
decide which table owns the source vertex; when a vertex in the
low-degree table outgrows its inline array, its edges are *flushed* to
the high-degree table.  Hashing gives amortized O(1) insertion -- the
reason DAH is the most scalable structure for heavy-tailed batches --
but the meta-operations make it the slowest updater on short-tailed
ones, and hashed neighbor retrieval makes its compute phase the most
expensive of the four structures (Section V-B).

Chunks are single-threaded and lockless, like AC.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import StructureError
from repro.graph.adjacency_chunked import chunk_overhead_array
from repro.graph.base import ExecutionContext, GraphDataStructure
from repro.graph.nativestore import (
    LOW_DEGREE_THRESHOLD,
    NativeDAHStore,
    _InsertStats,
    native_dah_ingest,
)
from repro.sim import cingest
from repro.sim.scheduler import ChunkedScheduler, ScheduleResult, TaskArray

#: Default chunk count; matches the paper's 64 hardware threads.
DEFAULT_CHUNKS = 64


class _DAHEmitter:
    """Columnar task emitter for DAH: hash meta-operation counts."""

    __slots__ = (
        "_out",
        "_in",
        "_cost",
        "_chunks",
        "_delete",
        "_directed",
        "table_probes",
        "hash_ops",
        "inline_scanned",
        "degree_queries",
        "flushed",
        "rehash_moves",
        "hit",
        "chunk",
    )

    def __init__(self, structure: "DegreeAwareHash", delete: bool) -> None:
        self._out = structure._out
        self._in = structure._in
        self._cost = structure.cost
        self._chunks = structure.chunks
        self._delete = delete
        self._directed = structure.directed
        self.table_probes: List[int] = []
        self.hash_ops: List[int] = []
        self.inline_scanned: List[int] = []
        self.degree_queries: List[int] = []
        self.flushed: List[int] = []
        self.rehash_moves: List[int] = []
        self.hit: List[bool] = []
        self.chunk: List[int] = []

    @property
    def rows(self) -> int:
        return len(self.table_probes)

    @property
    def ingest_batch(self):
        """The one-call batch path; ``None`` for stores without a kernel."""
        return self._ingest_compiled if self._out.kernels is not None else None

    def _ingest_compiled(self, batch, recorder) -> int:
        """The whole batch in one compiled call."""
        (
            positive,
            self.table_probes,
            self.hash_ops,
            self.inline_scanned,
            self.degree_queries,
            self.flushed,
            self.rehash_moves,
            self.hit,
            self.chunk,
        ) = native_dah_ingest(
            self._out,
            self._in if self._directed else self._out,
            batch,
            self._directed,
            self._delete,
            recorder,
        )
        return positive

    def insert_out(self, src, dst, weight, recorder) -> bool:
        return self._record(self._out.insert(src, dst, weight, recorder), src)

    def insert_in(self, src, dst, weight, recorder) -> bool:
        return self._record(self._in.insert(src, dst, weight, recorder), src)

    def delete_out(self, src, dst, recorder) -> bool:
        return self._record(self._out.remove(src, dst, recorder), src)

    def delete_in(self, src, dst, recorder) -> bool:
        return self._record(self._in.remove(src, dst, recorder), src)

    def _record(self, stats: _InsertStats, src) -> bool:
        self.table_probes.append(stats.table_probes)
        self.hash_ops.append(stats.hash_ops)
        self.inline_scanned.append(stats.inline_scanned)
        self.degree_queries.append(stats.degree_queries)
        self.flushed.append(stats.flushed)
        self.rehash_moves.append(stats.rehash_moves)
        self.hit.append(stats.inserted)
        self.chunk.append(src % self._chunks)
        return stats.inserted

    def finish(self, batch_size: int) -> TaskArray:
        cost = self._cost
        work = (
            cost.hash_compute * np.asarray(self.hash_ops, dtype=np.float64)
            + cost.hash_probe * np.asarray(self.table_probes, dtype=np.float64)
            + cost.probe_element * np.asarray(self.inline_scanned, dtype=np.float64)
            + cost.degree_query * np.asarray(self.degree_queries, dtype=np.float64)
        )
        if not self._delete:
            work += cost.flush_per_edge * np.asarray(self.flushed, dtype=np.float64)
            work += cost.rehash_per_element * np.asarray(
                self.rehash_moves, dtype=np.float64
            )
        hit = np.asarray(self.hit, dtype=bool)
        work[hit] += cost.insert_slot
        edges = TaskArray.build(
            self.rows,
            unlocked_work=work,
            chunk=np.asarray(self.chunk, dtype=np.int64),
        )
        return TaskArray.concatenate(
            [edges, chunk_overhead_array(cost, batch_size, self._chunks)]
        )


class DegreeAwareHash(GraphDataStructure):
    """The paper's DAH data structure."""

    name = "DAH"

    def __init__(
        self,
        max_nodes,
        directed=True,
        cost_model=None,
        address_space=None,
        chunks: int = DEFAULT_CHUNKS,
    ):
        from repro.sim.cost_model import DEFAULT_COST_MODEL

        super().__init__(
            max_nodes,
            directed=directed,
            cost_model=cost_model or DEFAULT_COST_MODEL,
            address_space=address_space,
        )
        if chunks < 1:
            raise StructureError(f"chunks must be >= 1, got {chunks}")
        self.chunks = chunks
        kernels = cingest.get("DAH")
        self._out = NativeDAHStore(max_nodes, chunks, self.space, "DAH.out", kernels)
        self._in = (
            NativeDAHStore(max_nodes, chunks, self.space, "DAH.in", kernels)
            if directed
            else None
        )

    # -- mutation ------------------------------------------------------

    def _make_emitter(self, delete: bool) -> _DAHEmitter:
        return _DAHEmitter(self, delete)

    def _schedule(self, tasks: TaskArray, ctx: ExecutionContext) -> ScheduleResult:
        scheduler = ChunkedScheduler(
            threads=ctx.threads,
            physical_cores=ctx.machine.physical_cores,
            cost_model=ctx.cost_model,
        )
        return scheduler.run(tasks)

    # -- queries -------------------------------------------------------

    def out_neigh(self, u: int) -> Sequence[Tuple[int, float]]:
        return self._out.neighbors(u)

    def _in_neigh_directed(self, u: int) -> Sequence[Tuple[int, float]]:
        return self._in.neighbors(u)

    def out_degree(self, u: int) -> int:
        return self._out.degree(u)

    def in_degree(self, u: int) -> int:
        if not self.directed:
            return self._out.degree(u)
        return self._in.degree(u)

    # -- compute-phase costs -------------------------------------------

    def out_traversal_cost(self, u: int) -> float:
        return self._traversal_cost(self._out, u)

    def _in_traversal_cost_directed(self, u: int) -> float:
        return self._traversal_cost(self._in, u)

    def _traversal_cost(self, store, u: int) -> float:
        cost = self.cost
        base = cost.degree_query + cost.hash_compute + cost.hash_probe
        degree = store.degree(u)
        if store.is_high_degree(u):
            # Sparse enumeration of the hashed neighbor set.
            return base + cost.hash_iterate_slot * degree
        # Inline array: contiguous, but behind a hashed lookup.
        return base + cost.probe_element * degree

    def degree_query_cost(self) -> float:
        """Degree lookups require a table meta-query (Section III-A4)."""
        return self.cost.degree_query + self.cost.hash_probe

    @staticmethod
    def vector_traversal_cost(degrees, cost):
        """Vectorized traversal cost over a degree array.

        A vertex lives in the high-degree table exactly when its degree
        exceeds :data:`LOW_DEGREE_THRESHOLD` (the flush is triggered on
        the insert that crosses it).
        """
        base = cost.degree_query + cost.hash_compute + cost.hash_probe
        high = degrees > LOW_DEGREE_THRESHOLD
        per_neighbor = np.where(high, cost.hash_iterate_slot, cost.probe_element)
        return base + per_neighbor * degrees

    def _trace_traversal(self, u: int, recorder, out: bool) -> None:
        store = self._out if out else self._in
        store.trace_traversal(u, recorder)

    def _trace_traversals(self, vertices, out: bool):
        store = self._out if out else self._in
        if store.kernels is None:
            return super()._trace_traversals(vertices, out)
        return store.traversals(vertices)

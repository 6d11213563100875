"""AC: adjacency list with chunked-style multithreading (Section III-A2).

The adjacency list is partitioned into chunks, each owning the
neighbor vectors of a subset of source vertices (``vertex % chunks``
here).  A chunk is single-threaded, so intra-chunk updates need no
locks; parallelism comes from running chunks on different threads.
The price of the lockless design is routing: every chunk scans the
whole incoming batch to pick out its own edges, a fixed per-batch
overhead that makes AC slower than AS on short-tailed graphs but lets
it sail past AS's lock convoy on heavy-tailed ones (Section V-B).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import StructureError
from repro.graph.adjacency_shared import _price_vector_ops
from repro.graph.base import (
    ExecutionContext,
    GraphDataStructure,
    contiguous_traversal_cost,
)
from repro.graph.nativestore import NativeVectorStore, native_vec_ingest
from repro.graph.vectorstore import row_layout
from repro.sim import cingest
from repro.sim.scheduler import ChunkedScheduler, ScheduleResult, TaskArray

#: Default chunk count; matches the paper's 64 hardware threads.
DEFAULT_CHUNKS = 64


def chunk_overhead_array(cost, batch_size: int, chunks: int) -> TaskArray:
    """The per-batch routing overhead of chunked structures.

    One task per chunk: every chunk scans the whole batch once per
    store direction to find the edges it owns.
    """
    directions = 2  # out+in stores (directed) or both orientations
    route = cost.route_edge * batch_size * directions
    return TaskArray.build(
        chunks,
        unlocked_work=route,
        chunk=np.arange(chunks, dtype=np.int64),
        overhead=True,
    )


class _ChunkedEmitter:
    """Columnar task emitter for AC: lockless chunk-pinned scans."""

    __slots__ = (
        "_out",
        "_in",
        "_cost",
        "_chunks",
        "_delete",
        "_directed",
        "_layout",
        "scanned",
        "hit",
        "aux",
        "chunk",
    )

    def __init__(self, structure: "AdjacencyListChunked", delete: bool) -> None:
        self._out = structure._out
        self._in = structure._in
        self._cost = structure.cost
        self._chunks = structure.chunks
        self._delete = delete
        self._directed = structure.directed
        self._layout = None  # (src, dst) of a compiled batch, for finish()
        self.scanned: List[int] = []
        self.hit: List[bool] = []
        self.aux: List[int] = []  # grew_from (insert) / moved (delete)
        self.chunk: List[int] = []

    @property
    def rows(self) -> int:
        return len(self.scanned)

    @property
    def ingest_batch(self):
        """The one-call batch path; ``None`` for stores without a kernel."""
        return self._ingest_compiled if self._out.kernels is not None else None

    def _ingest_compiled(self, batch, recorder) -> int:
        """The whole batch in one compiled call; chunk ids are rebuilt
        in ``finish``."""
        self._layout = (batch.src, batch.dst)
        positive, self.scanned, self.hit, self.aux = native_vec_ingest(
            self._out,
            self._in if self._directed else self._out,
            batch,
            self._directed,
            self._delete,
            recorder,
        )
        return positive

    def insert_out(self, src, dst, weight, recorder) -> bool:
        return self._insert(self._out, src, dst, weight, recorder)

    def insert_in(self, src, dst, weight, recorder) -> bool:
        return self._insert(self._in, src, dst, weight, recorder)

    def _insert(self, store, src, dst, weight, recorder) -> bool:
        outcome = store.insert(src, dst, weight, recorder)
        self.scanned.append(outcome.scanned)
        self.hit.append(outcome.inserted)
        self.aux.append(outcome.grew_from)
        self.chunk.append(src % self._chunks)
        return outcome.inserted

    def delete_out(self, src, dst, recorder) -> bool:
        return self._remove(self._out, src, dst, recorder)

    def delete_in(self, src, dst, recorder) -> bool:
        return self._remove(self._in, src, dst, recorder)

    def _remove(self, store, src, dst, recorder) -> bool:
        outcome = store.remove(src, dst, recorder)
        self.scanned.append(outcome.scanned)
        self.hit.append(outcome.removed)
        self.aux.append(outcome.moved)
        self.chunk.append(src % self._chunks)
        return outcome.removed

    def finish(self, batch_size: int) -> TaskArray:
        if self._layout is not None:
            row_src, _ = row_layout(*self._layout, self._directed)
            chunk = row_src % self._chunks
        else:
            chunk = np.asarray(self.chunk, dtype=np.int64)
        edges = TaskArray.build(
            self.rows,
            unlocked_work=_price_vector_ops(
                self._cost, self.scanned, self.hit, self.aux, self._delete
            ),
            chunk=chunk,
        )
        return TaskArray.concatenate(
            [edges, chunk_overhead_array(self._cost, batch_size, self._chunks)]
        )


class AdjacencyListChunked(GraphDataStructure):
    """The paper's AC data structure."""

    name = "AC"

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
        kernels = cingest.get("AC")
        self._out = NativeVectorStore(max_nodes, self.space, "AC.out", kernels)
        self._in = (
            NativeVectorStore(max_nodes, self.space, "AC.in", kernels)
            if directed
            else None
        )

    def chunk_of(self, u: int) -> int:
        """Chunk owning vertex ``u``'s neighbor vector."""
        return u % self.chunks

    # -- mutation ------------------------------------------------------

    def _make_emitter(self, delete: bool) -> _ChunkedEmitter:
        return _ChunkedEmitter(self, delete)

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
        cost = self.cost
        return cost.probe_element * (1 + self._out.degree(u))

    def _in_traversal_cost_directed(self, u: int) -> float:
        cost = self.cost
        return cost.probe_element * (1 + self._in.degree(u))

    #: Vectorized :meth:`out_traversal_cost` over a degree array.
    vector_traversal_cost = staticmethod(contiguous_traversal_cost)

    def _trace_traversal(self, u: int, recorder, out: bool) -> None:
        store = self._out if out else self._in
        store.trace_traversal(u, recorder)

    def _trace_traversals(self, vertices, out: bool):
        store = self._out if out else self._in
        if store.kernels is None:
            return super()._trace_traversals(vertices, out)
        return store.traversals(vertices)

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

from repro.graph.base import ChunkedStructure, contiguous_traversal_cost
from repro.graph.nativestore import NativeVectorStore
from repro.graph.vectorstore import COLUMNS, vector_scan_work


class AdjacencyListChunked(ChunkedStructure):
    """The paper's AC data structure."""

    name = "AC"
    columns = COLUMNS
    vector_traversal_cost = staticmethod(contiguous_traversal_cost)

    def _new_store(self, direction, kernels):
        return NativeVectorStore(self.max_nodes, self.space, f"AC.{direction}", kernels)

    def _price(self, batch, columns, delete):
        return self._chunk_tasks(batch, vector_scan_work(self.cost, delete, *columns))

"""AS: adjacency list with shared-style multithreading (Section III-A1).

An array of per-vertex vectors updated by many threads.  A thread
updating edge ``(u, v)`` locks u's *entire* vector, scans it for the
edge, and inserts on a negative search.  There is no intra-vertex
parallelism: all updates to one source vertex serialize behind its
lock, which is exactly why AS collapses on heavy-tailed batches
(paper Section V-B) while remaining the fastest structure on
short-tailed ones (no chunk-routing overhead, contiguous scans).
"""

from __future__ import annotations

import numpy as np

from repro.graph.base import GraphDataStructure, contiguous_traversal_cost
from repro.graph.nativestore import NativeVectorStore
from repro.graph.vectorstore import COLUMNS, row_layout, vector_scan_work
from repro.sim.tasks import TaskArray

#: Lock-namespace offset separating out-store locks from in-store locks.
IN_STORE_LOCK_BASE = 1 << 40


class AdjacencyListShared(GraphDataStructure):
    """The paper's AS data structure."""

    name = "AS"
    columns = COLUMNS
    vector_traversal_cost = staticmethod(contiguous_traversal_cost)

    def _new_store(self, direction, kernels):
        return NativeVectorStore(self.max_nodes, self.space, f"AS.{direction}", kernels)

    def _price(self, batch, columns, delete):
        """The entire search-and-insert happens under the source
        vertex's lock, so all of an operation's work is locked."""
        row_src, mirror = row_layout(batch.src, batch.dst, self.directed)
        if self.directed:
            row_src = np.where(mirror, IN_STORE_LOCK_BASE + row_src, row_src)
        return TaskArray.build(
            len(row_src),
            locked_work=vector_scan_work(self.cost, delete, *columns),
            lock=row_src,
        )

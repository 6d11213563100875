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

import numpy as np

from repro.graph.base import ChunkedStructure
from repro.graph.nativestore import LOW_DEGREE_THRESHOLD, NativeDAHStore


class DegreeAwareHash(ChunkedStructure):
    """The paper's DAH data structure."""

    name = "DAH"
    #: The fields of the store's outcome record, in the kernel's order.
    columns = (
        "table_probes", "hash_ops", "inline_scanned", "degree_queries",
        "flushed", "rehash_moves", "hit",
    )

    def _new_store(self, direction, kernels):
        return NativeDAHStore(
            self.max_nodes, self.chunks, self.space, f"DAH.{direction}", kernels
        )

    def _price(self, batch, columns, delete):
        cost = self.cost
        *counts, hit = columns
        table_probes, hash_ops, inline_scanned, degree_queries, flushed, rehash = (
            np.asarray(count, dtype=np.float64) for count in counts
        )
        work = (
            cost.hash_compute * hash_ops
            + cost.hash_probe * table_probes
            + cost.probe_element * inline_scanned
            + cost.degree_query * degree_queries
        )
        if not delete:
            work += cost.flush_per_edge * flushed
            work += cost.rehash_per_element * rehash
        work[np.asarray(hit, dtype=bool)] += cost.insert_slot
        return self._chunk_tasks(batch, work)

    @staticmethod
    def degree_query_cost(cost):
        """Degree lookups require a table meta-query (Section III-A4)."""
        return cost.degree_query + cost.hash_probe

    @staticmethod
    def vector_traversal_cost(degrees, cost):
        """Vectorized traversal cost over a degree array.

        A degree query and a hashed lookup, then a sparse enumeration of
        the hashed neighbor set (high-degree table) or a scan of the
        inline array (low-degree table).  On insert-only streams a
        vertex is in the high-degree table exactly when its degree
        exceeds :data:`LOW_DEGREE_THRESHOLD` (the flush is triggered on
        the insert that crosses it); deletions never move a vertex back,
        which this form does not see.
        """
        base = cost.degree_query + cost.hash_compute + cost.hash_probe
        high = degrees > LOW_DEGREE_THRESHOLD
        per_neighbor = np.where(high, cost.hash_iterate_slot, cost.probe_element)
        return base + per_neighbor * degrees

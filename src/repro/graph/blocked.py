"""BA: Hornet-style blocked adjacency (a post-paper structure).

The paper positions SAGA-Bench as a living benchmark that will absorb
future data structures (Section III); Hornet (Busato et al., HPEC'18)
is one it cites.  This module adds a simplified Hornet-like structure:

- every vertex's neighbors live in **one contiguous segment** drawn
  from power-of-two *block pools* (capacities 4, 8, 16, ...);
- when a segment fills, the vertex **relocates** to a segment of twice
  the capacity (one memcpy, amortized O(1) per insert) and the old
  segment returns to its pool for reuse;
- duplicate detection is charged as a segment scan, like the
  adjacency lists;
- multithreading is chunked and lockless, like AC/DAH.

Compared with the paper's four structures it trades Stinger's
fragmented blocks for Hornet's contiguous-but-relocating segments:
traversal is as cheap as AS (contiguous), updates avoid AS's locks,
and memory waste is bounded by the power-of-two rounding.

Registered as ``"BA"`` in :data:`repro.graph.STRUCTURES`; the paper
reproduction pipelines keep using the original four by default.
"""

from __future__ import annotations

import numpy as np

from repro.graph.base import ChunkedStructure, contiguous_traversal_cost
from repro.graph.nativestore import NativeBlockedStore
from repro.graph.vectorstore import COLUMNS, INITIAL_CAPACITY, vector_scan_work

#: Capacity of a vertex's first segment (the smallest block pool).
MIN_SEGMENT = INITIAL_CAPACITY


class BlockedAdjacency(ChunkedStructure):
    """Hornet-like blocked adjacency ("BA")."""

    name = "BA"
    columns = COLUMNS
    vector_traversal_cost = staticmethod(contiguous_traversal_cost)

    def _new_store(self, direction, kernels):
        return NativeBlockedStore(self.max_nodes, self.space, f"BA.{direction}", kernels)

    def _price(self, batch, columns, delete):
        """A vector scan whose growth is a relocation (Hornet's memcpy
        of the whole segment); every removal is priced as a clear plus
        a backfill, whether or not an entry moved."""
        scanned, hit, aux = columns
        if delete:
            aux = np.ones_like(aux)
        work = vector_scan_work(self.cost, delete, scanned, hit, aux)
        return self._chunk_tasks(batch, work)

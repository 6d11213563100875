"""Uninstrumented columnar live graph.

The neutral view of the streamed graph, with the same unique-ingestion
semantics as the instrumented structures.  It serves two roles:

- the ground truth the test suite cross-checks every structure against
  (itself checked against the dict-of-dicts ``tests/oracles.py``);
- the view the streaming driver runs algorithms on when it only needs
  *operation counts* (per-structure compute latencies are then priced
  analytically, since vertex values are independent of which structure
  stores the topology).

The live edges are held once, as the slack CSR pair of
:mod:`repro.compute.csrstore` (one store for an undirected graph),
whose rows keep chronological order -- the order a dict-of-dicts
iterates.  Membership is read from those rows: a collect looks its
batch up with one :meth:`~repro.compute.csrstore.DynamicCSR.lookup`,
which hashes the batch's pairs (``(min, max)`` for undirected edges)
and scans only the out-rows they name, then folds the rows it kept at
once with one :meth:`~repro.compute.csrstore.ViewMaintainer.apply`,
whose view :meth:`ReferenceGraph.compute_view` returns until the next
mutation.  The lookup, like each store mutator, is one native call
when the library is loaded, else the numpy body that is its reference.
The edge count is a counter.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.compute.csrstore import ViewMaintainer
from repro.errors import StructureError
from repro.graph.edge import EdgeBatch
from repro.obs.tracer import TRACER
from repro.widths import VERTEX, WEIGHT


def with_reverse_interleaved(
    src: np.ndarray, dst: np.ndarray, weight: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each edge followed by its reverse (skipping self-loops).

    The order in which an undirected adjacency gains its entries: row
    ``u`` gets ``v``, then row ``v`` gets ``u``.
    """
    forward = src != dst
    counts = 1 + forward.astype(np.int64)
    offsets = np.cumsum(counts) - counts
    total = int(counts.sum())
    out_src = np.empty(total, dtype=VERTEX)
    out_dst = np.empty(total, dtype=VERTEX)
    out_weight = np.empty(total, dtype=WEIGHT)
    out_src[offsets] = src
    out_dst[offsets] = dst
    out_weight[offsets] = weight
    rev = offsets[forward] + 1
    out_src[rev] = dst[forward]
    out_dst[rev] = src[forward]
    out_weight[rev] = weight[forward]
    return out_src, out_dst, out_weight


_NOTHING = EdgeBatch.empty()


class ReferenceGraph:
    """Ground-truth adjacency with unique edge ingestion."""

    def __init__(self, max_nodes: int, directed: bool = True) -> None:
        # Rejects max_nodes < 1 and max_nodes whose packed keys overflow.
        self._adjacency = ViewMaintainer(max_nodes, directed=directed)
        self.max_nodes = max_nodes
        self.directed = directed
        self._max_seen = -1
        self._edges = 0
        self._view = None  # ComputeView of the last apply

    # -- mutators -------------------------------------------------------

    def update(self, batch: EdgeBatch) -> int:
        """Ingest a batch; returns the number of new unique edges."""
        return len(self.update_collect(batch))

    @TRACER.layer("reference.update")
    def update_collect(self, batch: EdgeBatch) -> EdgeBatch:
        """Ingest a batch; returns the newly inserted edges as columns.

        The returned batch holds the rows of ``batch`` that were new, in
        batch order (it iterates as ``(src, dst, weight)``); of rows
        naming the same edge the first wins.  For undirected graphs the
        reverse orientation is ingested too but reported once.  A batch
        with an out-of-range vertex is rejected whole, like the
        structures do.
        """
        src, dst = self._checked_endpoints(batch)
        first, live, _ = self._lookup(src, dst)
        kept = np.flatnonzero(first & ~live)
        inserted = EdgeBatch(src=src[kept], dst=dst[kept], weight=batch.weight[kept])
        if len(kept):
            self._max_seen = max(self._max_seen, int(src.max()), int(dst.max()))
            self._edges += len(kept)
            self._apply(inserted=inserted)
        return inserted

    @TRACER.layer("reference.delete")
    def delete_collect(self, batch: EdgeBatch) -> EdgeBatch:
        """Remove a batch's edges; returns the ones actually removed.

        Same column form as :meth:`update_collect`; the weights are the
        stored ones, not the batch's.
        """
        src, dst = self._checked_endpoints(batch)
        first, live, stored = self._lookup(src, dst)
        kept = np.flatnonzero(first & live)
        removed = EdgeBatch(src=src[kept], dst=dst[kept], weight=stored[kept])
        if len(kept):
            self._edges -= len(kept)
            self._apply(removed=removed)
        return removed

    def _checked_endpoints(self, batch: EdgeBatch):
        """The batch's endpoint columns, range-checked up front."""
        src, dst = batch.src, batch.dst
        bad = (src < 0) | (src >= self.max_nodes) | (dst < 0) | (dst >= self.max_nodes)
        if bad.any():
            i = int(np.argmax(bad))
            raise StructureError(f"edge ({int(src[i])}, {int(dst[i])}) out of range")
        return src, dst

    def _lookup(self, src: np.ndarray, dst: np.ndarray):
        """``DynamicCSR.lookup`` of the batch's edges in the out rows;
        an undirected edge is looked up as ``(min, max)``."""
        if not self.directed:
            src, dst = np.minimum(src, dst), np.maximum(src, dst)
        return self._adjacency.out.lookup(src, dst)

    def _apply(
        self, inserted: EdgeBatch = _NOTHING, removed: EdgeBatch = _NOTHING
    ) -> None:
        """Fold one collect's rows into the CSR pair."""
        ins = (inserted.src, inserted.dst, inserted.weight)
        rem = (removed.src, removed.dst, removed.weight)
        if not self.directed:
            ins, rem = with_reverse_interleaved(*ins), with_reverse_interleaved(*rem)
        self._view = self._adjacency.apply(*ins, rem[0], rem[1], self.num_nodes)

    # -- reads ----------------------------------------------------------

    def compute_view(self):
        """The columnar view of the live graph (zero-copy, both directions).

        The view of the last mutation, valid until the next one.
        """
        if self._view is None:
            self._apply()
        return self._view

    def _row(self, direction: str, u: int):
        """Vertex ``u``'s neighbor and weight slices, oldest edge first."""
        if not 0 <= u < self.max_nodes:
            raise StructureError(f"vertex {u} out of range [0, {self.max_nodes})")
        store = self._adjacency.out if direction == "out" else self._adjacency.inc
        start = store.starts[u]
        stop = start + store.lens[u]
        return store.cols[start:stop], store.wts[start:stop]

    @property
    def num_nodes(self) -> int:
        return self._max_seen + 1

    @property
    def num_edges(self) -> int:
        return self._edges

    def out_neigh(self, u: int) -> Sequence[Tuple[int, float]]:
        cols, weights = self._row("out", u)
        return list(zip(cols.tolist(), weights.tolist()))

    def in_neigh(self, u: int) -> Sequence[Tuple[int, float]]:
        cols, weights = self._row("in", u)
        return list(zip(cols.tolist(), weights.tolist()))

    def out_degree(self, u: int) -> int:
        return len(self._row("out", u)[0])

    def in_degree(self, u: int) -> int:
        return len(self._row("in", u)[0])

    def vertices(self) -> range:
        return range(self.num_nodes)

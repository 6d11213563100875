"""Uninstrumented columnar live graph.

The neutral view of the streamed graph, with the same unique-ingestion
semantics as the instrumented structures.  It serves two roles:

- the ground truth the test suite cross-checks every structure against
  (itself checked against the dict-of-dicts ``tests/oracles.py``);
- the view the streaming driver runs algorithms on when it only needs
  *operation counts* (per-structure compute latencies are then priced
  analytically, since vertex values are independent of which structure
  stores the topology).

Two things are held, each once.  **Membership** is a sorted column of
packed ``src * max_nodes + dst`` keys (``(min, max)`` for undirected
pairs) with the stored weights aligned: a batch is deduplicated with
``np.unique``, tested with ``searchsorted`` and merged in linearly, no
Python per edge.  **Adjacency** is the slack CSR pair of
:mod:`repro.compute.csrstore`: a mutator only queues the rows it kept,
and the first read after it -- normally the driver's one
:meth:`ReferenceGraph.compute_view` per batch -- folds them in with one
:meth:`~repro.compute.csrstore.ViewMaintainer.apply`.  Rows keep
chronological order, which is the order a dict-of-dicts iterates.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.errors import StructureError
from repro.graph.edge import EdgeBatch


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
    out_src = np.empty(total, dtype=np.int64)
    out_dst = np.empty(total, dtype=np.int64)
    out_weight = np.empty(total, dtype=np.float64)
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
        # Imported lazily: repro.compute.pricing imports repro.graph.
        from repro.compute.csrstore import ViewMaintainer

        # Rejects max_nodes < 1 and max_nodes whose packed keys overflow.
        self._adjacency = ViewMaintainer(max_nodes, directed=directed)
        self.max_nodes = max_nodes
        self.directed = directed
        self._keys = _NOTHING.src  # sorted packed keys of the live edges
        self._weights = _NOTHING.weight  # stored weight of each key
        self._max_seen = -1
        # Kept rows not yet folded into the adjacency: at most one
        # insert batch, then at most one delete batch.
        self._inserted = self._removed = _NOTHING
        self._view = None  # ComputeView of the adjacency, while current

    # -- mutators -------------------------------------------------------

    def update(self, batch: EdgeBatch) -> int:
        """Ingest a batch; returns the number of new unique edges."""
        return len(self.update_collect(batch))

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
        weight = np.asarray(batch.weight, dtype=np.float64)
        keys, first = np.unique(self._packed(src, dst), return_index=True)
        at, present = self._locate(keys)
        keys, first, at = keys[~present], first[~present], at[~present]
        kept = np.sort(first)
        inserted = EdgeBatch(src=src[kept], dst=dst[kept], weight=weight[kept])
        if len(kept):
            if len(self._inserted) or len(self._removed):
                self._fold()
            self._keys = np.insert(self._keys, at, keys)
            self._weights = np.insert(self._weights, at, weight[first])
            self._max_seen = max(self._max_seen, int(src.max()), int(dst.max()))
            self._inserted = inserted
            self._view = None
        return inserted

    def delete_collect(self, batch: EdgeBatch) -> EdgeBatch:
        """Remove a batch's edges; returns the ones actually removed.

        Same column form as :meth:`update_collect`; the weights are the
        stored ones, not the batch's.
        """
        src, dst = self._checked_endpoints(batch)
        keys, first = np.unique(self._packed(src, dst), return_index=True)
        at, present = self._locate(keys)
        at, first = at[present], first[present]
        order = np.argsort(first)
        kept = first[order]
        removed = EdgeBatch(
            src=src[kept], dst=dst[kept], weight=self._weights[at[order]]
        )
        if len(kept):
            if len(self._removed):
                self._fold()
            self._keys = np.delete(self._keys, at)
            self._weights = np.delete(self._weights, at)
            self._removed = removed
            self._view = None
        return removed

    def _checked_endpoints(self, batch: EdgeBatch):
        """The batch's int64 endpoint columns, range-checked up front."""
        src = np.asarray(batch.src, dtype=np.int64)
        dst = np.asarray(batch.dst, dtype=np.int64)
        bad = (src < 0) | (src >= self.max_nodes) | (dst < 0) | (dst >= self.max_nodes)
        if bad.any():
            i = int(np.argmax(bad))
            raise StructureError(f"edge ({int(src[i])}, {int(dst[i])}) out of range")
        return src, dst

    def _packed(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """One int64 key per edge; orientation-free when undirected."""
        if self.directed:
            return src * self.max_nodes + dst
        return np.minimum(src, dst) * self.max_nodes + np.maximum(src, dst)

    def _locate(self, keys: np.ndarray):
        """Slot of each sorted key in the live column, and whether it is there."""
        at = np.searchsorted(self._keys, keys)
        present = np.zeros(len(keys), dtype=bool)
        inside = at < len(self._keys)
        present[inside] = self._keys[at[inside]] == keys[inside]
        return at, present

    # -- adjacency ------------------------------------------------------

    def _fold(self):
        """Apply the queued rows to the CSR pair; returns the new view."""
        inserted, removed = self._inserted, self._removed
        self._inserted = self._removed = _NOTHING
        ins = (inserted.src, inserted.dst, inserted.weight)
        rem = (removed.src, removed.dst, removed.weight)
        if not self.directed:
            ins, rem = with_reverse_interleaved(*ins), with_reverse_interleaved(*rem)
        self._view = self._adjacency.apply(*ins, rem[0], rem[1], self.num_nodes)
        return self._view

    def compute_view(self):
        """The columnar view of the live graph (zero-copy, both directions).

        Folds what the mutators queued since the last read -- one
        ``ViewMaintainer.apply`` per batch in the streaming loop -- and
        is valid until the next mutation.
        """
        return self._view if self._view is not None else self._fold()

    def csr_arrays(self, direction: str = "out"):
        """Slack CSR of one direction (zero-copy, chronological rows)."""
        view = self.compute_view()
        return view.out_csr if direction == "out" else view.in_csr

    def _row(self, direction: str, u: int):
        """Vertex ``u``'s neighbor and weight slices, oldest edge first."""
        self.compute_view()
        store = self._adjacency.out if direction == "out" else self._adjacency.inc
        start = store.starts[u]
        stop = start + store.lens[u]
        return store.cols[start:stop], store.wts[start:stop]

    @property
    def num_nodes(self) -> int:
        return self._max_seen + 1

    @property
    def num_edges(self) -> int:
        return len(self._keys)

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

    def has_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < self.max_nodes and 0 <= v < self.max_nodes):
            return False
        key = self._packed(np.array([u], dtype=np.int64), np.array([v], dtype=np.int64))
        return bool(self._locate(key)[1][0])

    def vertices(self) -> range:
        return range(self.num_nodes)

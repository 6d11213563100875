"""The oracle the live graph is checked against.

:class:`DictGraph` is the dict-of-dicts adjacency that was
``repro.graph.reference.ReferenceGraph`` until the columnar live graph
replaced it.  Python dicts iterate in insertion order and a
popped-then-reinserted key moves to the end, which *defines* the
chronological row order the CSR store must keep.  Its
:meth:`DictGraph.edges` columns are what the compute tests hand
``repro.verify``: the live edges, read from a graph that is not the one
under test.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import StructureError
from repro.graph.edge import EdgeBatch


class DictGraph:
    """Ground-truth adjacency with unique edge ingestion."""

    def __init__(self, max_nodes: int, directed: bool = True) -> None:
        if max_nodes < 1:
            raise StructureError(f"max_nodes must be >= 1, got {max_nodes}")
        self.max_nodes = max_nodes
        self.directed = directed
        self._out: List[Dict[int, float]] = [dict() for _ in range(max_nodes)]
        self._in: List[Dict[int, float]] = (
            [dict() for _ in range(max_nodes)] if directed else self._out
        )
        self._num_edges = 0
        self._max_seen = -1

    def update(self, batch: EdgeBatch) -> int:
        """Ingest a batch; returns the number of new unique edges."""
        return len(self.update_collect(batch))

    def update_collect(self, batch: EdgeBatch) -> EdgeBatch:
        """Ingest a batch; returns the newly inserted edges as columns.

        The returned batch holds the rows of ``batch`` that were new, in
        batch order (it iterates as ``(src, dst, weight)``).  For
        undirected graphs the reverse orientation is ingested too but
        reported once.  The streaming driver uses the columns to
        maintain incremental degree and in-edge arrays.  A batch with an
        out-of-range vertex is rejected whole, like the structures do.
        """
        src, dst = self._checked_endpoints(batch)
        weight = np.asarray(batch.weight, dtype=np.float64)
        out, inn, directed = self._out, self._in, self.directed
        kept = []
        for i, (u, v, w) in enumerate(
            zip(src.tolist(), dst.tolist(), weight.tolist())
        ):
            row = out[u]
            if v not in row:
                row[v] = w
                kept.append(i)
                if directed:
                    inn[v][u] = w
                elif u != v:
                    out[v][u] = w
        if len(src):
            self._max_seen = max(self._max_seen, int(src.max()), int(dst.max()))
        self._num_edges += len(kept)
        return EdgeBatch(src=src[kept], dst=dst[kept], weight=weight[kept])

    def delete_collect(self, batch: EdgeBatch) -> EdgeBatch:
        """Remove a batch's edges; returns the ones actually removed.

        Same column form as :meth:`update_collect`; the weights are the
        stored ones, not the batch's.
        """
        src, dst = self._checked_endpoints(batch)
        out, inn, directed = self._out, self._in, self.directed
        kept = []
        weights = []
        for i, (u, v) in enumerate(zip(src.tolist(), dst.tolist())):
            weight = out[u].pop(v, None)
            if weight is None:
                continue
            kept.append(i)
            weights.append(weight)
            if directed:
                del inn[v][u]
            elif u != v:
                del out[v][u]
        self._num_edges -= len(kept)
        return EdgeBatch(
            src=src[kept],
            dst=dst[kept],
            weight=np.asarray(weights, dtype=np.float64),
        )

    def _checked_endpoints(self, batch: EdgeBatch):
        """The batch's int64 endpoint columns, range-checked up front."""
        src = np.asarray(batch.src, dtype=np.int64)
        dst = np.asarray(batch.dst, dtype=np.int64)
        bad = (src < 0) | (src >= self.max_nodes) | (dst < 0) | (dst >= self.max_nodes)
        if bad.any():
            i = int(np.argmax(bad))
            raise StructureError(f"edge ({int(src[i])}, {int(dst[i])}) out of range")
        return src, dst

    @property
    def num_nodes(self) -> int:
        return self._max_seen + 1

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def out_neigh(self, u: int) -> Sequence[Tuple[int, float]]:
        return list(self._out[u].items())

    def in_neigh(self, u: int) -> Sequence[Tuple[int, float]]:
        return list(self._in[u].items())

    def out_degree(self, u: int) -> int:
        return len(self._out[u])

    def in_degree(self, u: int) -> int:
        return len(self._in[u])

    def vertices(self) -> range:
        return range(self.num_nodes)

    def out_items(self, u: int) -> Dict[int, float]:
        """Direct (read-only by convention) access to u's out-dict."""
        return self._out[u]

    def in_items(self, u: int) -> Dict[int, float]:
        return self._in[u]

    def edges(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The live edges as ``(src, dst, weight)`` columns, row by row
        (both orientations of an undirected edge)."""
        rows = [(u, v, w) for u in self.vertices() for v, w in self._out[u].items()]
        src, dst, weight = zip(*rows) if rows else ((), (), ())
        return (
            np.array(src, dtype=np.int64),
            np.array(dst, dtype=np.int64),
            np.array(weight, dtype=np.float64),
        )

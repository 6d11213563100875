"""Multi-snapshot storage: the paper's stated future extension.

SAGA-Bench v1 maintains only the *latest* snapshot of the evolving
graph (footnote 1 of the paper); systems like Chronos and LLAMA instead
keep every batch boundary queryable.  Here a snapshot is the graph of
its stream prefix.  The store keeps one live
:class:`~repro.graph.reference.ReferenceGraph`, which dedups, range-checks
and mirrors each batch, plus the edges each commit actually added, so

- storage is shared across snapshots: the kept-edge log holds every
  edge once, in the order the live graph gained it;
- snapshot ``t`` is a fresh reference graph fed the kept edges of
  batches ``0..t`` in one collect: the same rows in the same order as a
  reference graph fed those batches one at a time.

A snapshot is a :class:`ReferenceGraph`, so every algorithm reaches it
through the same maintained compute view as the live graph -- see
``examples/temporal_analysis.py``.

The multi-snapshot model is insert-only (as in Chronos): deletions
would require tombstone versions and are out of scope here.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.errors import StructureError
from repro.graph.edge import EdgeBatch
from repro.graph.reference import ReferenceGraph


class SnapshotStore:
    """Append-only multi-snapshot graph store.

    ``commit(batch)`` ingests one edge batch and returns the new
    snapshot id; ``snapshot(t)`` returns the graph as of batch ``t``.
    All snapshots share one copy of the edge data.
    """

    def __init__(self, max_nodes: int, directed: bool = True) -> None:
        # Rejects max_nodes < 1.
        self._live = ReferenceGraph(max_nodes, directed=directed)
        self._kept: List[EdgeBatch] = []
        self._counts: List[Tuple[int, int]] = []  # (nodes, edges) per commit

    @property
    def num_snapshots(self) -> int:
        return len(self._kept)

    def commit(self, batch: EdgeBatch) -> int:
        """Ingest ``batch`` and seal it as the next snapshot.

        A batch with an out-of-range vertex is rejected whole: nothing
        of it reaches this or any later snapshot.
        """
        self._kept.append(self._live.update_collect(batch))
        self._counts.append((self._live.num_nodes, self._live.num_edges))
        return self.num_snapshots - 1

    def snapshot(self, t: int) -> ReferenceGraph:
        """The graph as of committed batch ``t`` (0-based), rebuilt."""
        if not 0 <= t < self.num_snapshots:
            raise StructureError(
                f"snapshot {t} out of range [0, {self.num_snapshots})"
            )
        prefix = self._kept[: t + 1]
        graph = ReferenceGraph(self._live.max_nodes, directed=self._live.directed)
        graph.update_collect(
            EdgeBatch(
                src=np.concatenate([kept.src for kept in prefix]),
                dst=np.concatenate([kept.dst for kept in prefix]),
                weight=np.concatenate([kept.weight for kept in prefix]),
            )
        )
        return graph

    def latest(self) -> ReferenceGraph:
        """The most recent snapshot."""
        if not self.num_snapshots:
            raise StructureError("no snapshots committed yet")
        return self.snapshot(self.num_snapshots - 1)

    def history(self) -> List[Tuple[int, int, int]]:
        """(snapshot, nodes, edges) for every committed batch."""
        return [(t, nodes, edges) for t, (nodes, edges) in enumerate(self._counts)]

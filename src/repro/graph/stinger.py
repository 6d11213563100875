"""Stinger: linked edge blocks with fine-grained locks (Section III-A3).

Each vertex owns a linked list of fixed-capacity *edge blocks* (16
edges per block, as in the paper's implementation).  Relative to AS,
Stinger trades two properties:

- **Intra-vertex parallelism.**  Locks are per edge block, not per
  vertex, so multiple threads can update one vertex's edges at once --
  the reason Stinger degrades gracefully on heavy-tailed batches.
- **Two scans per insert.**  A search scan establishes the edge is
  absent, then a second scan finds a block with free space; both
  involve pointer chasing between blocks.  This is why Stinger pays
  1.57x-1.76x over AS on short-tailed graphs (Section V-B).
"""

from __future__ import annotations

import numpy as np

from repro.graph.base import GraphDataStructure
from repro.graph.nativestore import BLOCK_CAPACITY, NativeStingerStore
from repro.sim.tasks import TaskArray


class Stinger(GraphDataStructure):
    """The paper's Stinger data structure."""

    name = "Stinger"
    #: The fields of the store's outcome record, in the kernel's order.
    columns = (
        "search_chases", "search_probes", "space_chases", "hit", "new_block", "lock",
    )

    #: Lock-id namespaces for the two stores' edge blocks.
    _OUT_LOCK_BASE = 2 << 40
    _IN_LOCK_BASE = 3 << 40

    def _new_store(self, direction, kernels):
        lock_base = self._OUT_LOCK_BASE if direction == "out" else self._IN_LOCK_BASE
        return NativeStingerStore(
            self.max_nodes, self.space, f"Stinger.{direction}", lock_base, kernels
        )

    def _price(self, batch, columns, delete):
        cost = self.cost
        search_chases, search_probes, space_chases, hit, new_block, lock = columns
        search_probes = np.asarray(search_probes, dtype=np.float64)
        hit = np.asarray(hit, dtype=bool)
        locked = np.zeros(len(hit))
        if delete:
            unlocked = (
                cost.pointer_chase * search_chases.astype(np.float64)
                + cost.probe_block_element * search_probes
            )
            locked[hit] = 2 * cost.insert_slot  # clear + backfill
        else:
            # The search scan reads blocks without holding any lock.  The
            # space scan, however, must lock-couple: each block's lock is
            # acquired to check-and-claim a free slot before moving on, so
            # two threads cannot claim the same slot.  For a high-degree
            # vertex this couples through the whole list and is the
            # residual serialization of Stinger's fine-grained locking.
            unlocked = (
                cost.pointer_chase * (search_chases + space_chases).astype(np.float64)
                + cost.probe_block_element * search_probes
            )
            per_chase = cost.lock_acquire + cost.lock_release + cost.probe_block_element
            locked[hit] = space_chases[hit] * per_chase + cost.insert_slot
            new_block = np.asarray(new_block, dtype=bool) & hit
            locked[new_block] += cost.insert_slot  # link the fresh block
        return TaskArray.build(
            len(hit),
            unlocked_work=unlocked,
            locked_work=locked,
            lock=lock,
            fine_lock=True,
        )

    @staticmethod
    def vector_traversal_cost(degrees, cost):
        """Vectorized traversal cost over a degree array.

        The vertex array entry, one pointer chase per block and one
        access per neighbor.  On insert-only streams blocks fill
        front-to-back, so the block count of a vertex with degree ``d``
        is ``ceil(d / 16)``; deletions can leave emptied blocks linked,
        which this form does not count.
        """
        blocks = np.ceil(degrees / BLOCK_CAPACITY)
        return (
            cost.probe_element
            + cost.pointer_chase * blocks
            + cost.probe_block_element * degrees
        )

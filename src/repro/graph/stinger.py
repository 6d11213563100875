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

from typing import List, Sequence, Tuple

import numpy as np

from repro.graph.base import ExecutionContext, GraphDataStructure
from repro.graph.nativestore import (
    BLOCK_CAPACITY,
    NativeStingerStore,
    _InsertOutcome,
    native_stinger_ingest,
)
from repro.sim import cingest
from repro.sim.scheduler import DynamicScheduler, ScheduleResult, TaskArray
from repro.sim.tasks import NO_LOCK


class _StingerEmitter:
    """Columnar task emitter for Stinger: block scans and fine locks."""

    __slots__ = (
        "_out",
        "_in",
        "_cost",
        "_delete",
        "_directed",
        "search_chases",
        "search_probes",
        "space_chases",
        "hit",
        "new_block",
        "lock",
    )

    def __init__(self, structure: "Stinger", delete: bool) -> None:
        self._out = structure._out
        self._in = structure._in
        self._cost = structure.cost
        self._delete = delete
        self._directed = structure.directed
        self.search_chases: List[int] = []
        self.search_probes: List[int] = []
        self.space_chases: List[int] = []
        self.hit: List[bool] = []
        self.new_block: List[bool] = []
        self.lock: List[int] = []

    @property
    def rows(self) -> int:
        return len(self.search_chases)

    @property
    def ingest_batch(self):
        """The one-call batch path; ``None`` for stores without a kernel."""
        return self._ingest_compiled if self._out.kernels is not None else None

    def _ingest_compiled(self, batch, recorder) -> int:
        """The whole batch in one compiled call."""
        (
            positive,
            self.search_chases,
            self.search_probes,
            self.space_chases,
            self.hit,
            self.new_block,
            self.lock,
        ) = native_stinger_ingest(
            self._out,
            self._in if self._directed else self._out,
            batch,
            self._directed,
            self._delete,
            recorder,
        )
        return positive

    def insert_out(self, src, dst, weight, recorder) -> bool:
        return self._record(self._out.insert(src, dst, weight, recorder))

    def insert_in(self, src, dst, weight, recorder) -> bool:
        return self._record(self._in.insert(src, dst, weight, recorder))

    def delete_out(self, src, dst, recorder) -> bool:
        return self._record(self._out.remove(src, dst, recorder))

    def delete_in(self, src, dst, recorder) -> bool:
        return self._record(self._in.remove(src, dst, recorder))

    def _record(self, outcome: _InsertOutcome) -> bool:
        self.search_chases.append(outcome.search_chases)
        self.search_probes.append(outcome.search_probes)
        self.space_chases.append(outcome.space_chases)
        self.hit.append(outcome.inserted)
        self.new_block.append(outcome.new_block)
        self.lock.append(NO_LOCK if outcome.lock is None else outcome.lock)
        return outcome.inserted

    def finish(self, batch_size: int) -> TaskArray:
        cost = self._cost
        n = self.rows
        search_chases = np.asarray(self.search_chases, dtype=np.int64)
        search_probes = np.asarray(self.search_probes, dtype=np.float64)
        hit = np.asarray(self.hit, dtype=bool)
        locked = np.zeros(n)
        if self._delete:
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
            space_chases = np.asarray(self.space_chases, dtype=np.int64)
            unlocked = (
                cost.pointer_chase * (search_chases + space_chases).astype(np.float64)
                + cost.probe_block_element * search_probes
            )
            per_chase = cost.lock_acquire + cost.lock_release + cost.probe_block_element
            locked[hit] = space_chases[hit] * per_chase + cost.insert_slot
            new_block = np.asarray(self.new_block, dtype=bool) & hit
            locked[new_block] += cost.insert_slot  # link the fresh block
        return TaskArray.build(
            n,
            unlocked_work=unlocked,
            locked_work=locked,
            lock=np.asarray(self.lock, dtype=np.int64),
            fine_lock=True,
        )


class Stinger(GraphDataStructure):
    """The paper's Stinger data structure."""

    name = "Stinger"

    #: Lock-id namespaces for the two stores' edge blocks.
    _OUT_LOCK_BASE = 2 << 40
    _IN_LOCK_BASE = 3 << 40

    def __init__(self, max_nodes, directed=True, cost_model=None, address_space=None):
        from repro.sim.cost_model import DEFAULT_COST_MODEL

        super().__init__(
            max_nodes,
            directed=directed,
            cost_model=cost_model or DEFAULT_COST_MODEL,
            address_space=address_space,
        )
        kernels = cingest.get("Stinger")
        self._out = NativeStingerStore(
            max_nodes, self.space, "Stinger.out", self._OUT_LOCK_BASE, kernels
        )
        self._in = (
            NativeStingerStore(
                max_nodes, self.space, "Stinger.in", self._IN_LOCK_BASE, kernels
            )
            if directed
            else None
        )

    # -- mutation ------------------------------------------------------

    def _make_emitter(self, delete: bool) -> _StingerEmitter:
        return _StingerEmitter(self, delete)

    def _schedule(self, tasks: TaskArray, ctx: ExecutionContext) -> ScheduleResult:
        scheduler = DynamicScheduler(
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
        return self._traversal_cost(self._out, u)

    def _in_traversal_cost_directed(self, u: int) -> float:
        return self._traversal_cost(self._in, u)

    def _traversal_cost(self, store, u: int) -> float:
        cost = self.cost
        return (
            cost.probe_element  # vertex array entry
            + cost.pointer_chase * store.block_count(u)
            + cost.probe_block_element * store.degree(u)
        )

    @staticmethod
    def vector_traversal_cost(degrees, cost):
        """Vectorized traversal cost over a degree array.

        Blocks fill front-to-back and are never compacted, so the block
        count of a vertex with degree ``d`` is exactly ``ceil(d / 16)``.
        """
        blocks = np.ceil(degrees / BLOCK_CAPACITY)
        return (
            cost.probe_element
            + cost.pointer_chase * blocks
            + cost.probe_block_element * degrees
        )

    def _trace_traversal(self, u: int, recorder, out: bool) -> None:
        store = self._out if out else self._in
        store.trace_traversal(u, recorder)

    def _trace_traversals(self, vertices, out: bool):
        store = self._out if out else self._in
        if store.kernels is None:
            return super()._trace_traversals(vertices, out)
        return store.traversals(vertices)

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

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.base import ExecutionContext, GraphDataStructure
from repro.graph.nativestore import make_stinger_store, native_stinger_ingest
from repro.sim.memory import AddressSpace, Region
from repro.sim.scheduler import DynamicScheduler, ScheduleResult, TaskArray
from repro.sim.tasks import NO_LOCK

#: Edges per edge block (paper Section III-A3).
BLOCK_CAPACITY = 16

#: Bytes per block: header (next pointer, count) + 16 packed entries.
BLOCK_HEADER_BYTES = 16
ENTRY_BYTES = 8
BLOCK_BYTES = BLOCK_HEADER_BYTES + BLOCK_CAPACITY * ENTRY_BYTES

#: Bytes per entry of the vertex array (id, degree, head pointer).
VERTEX_ENTRY_BYTES = 16


class _EdgeBlock:
    """One fixed-capacity block in a vertex's linked list."""

    __slots__ = ("block_id", "region", "entries")

    def __init__(
        self,
        block_id: int,
        region: Region,
        entries: Optional[List[Tuple[int, float]]] = None,
    ) -> None:
        self.block_id = block_id
        self.region = region
        self.entries = [] if entries is None else entries

    @property
    def full(self) -> bool:
        return len(self.entries) >= BLOCK_CAPACITY

    def entry_address(self, slot: int) -> int:
        return self.region.base + BLOCK_HEADER_BYTES + slot * ENTRY_BYTES


@dataclass
class _InsertOutcome:
    search_chases: int
    search_probes: int
    space_chases: int
    inserted: bool
    new_block: bool
    lock: Optional[int]


class _StingerStore:
    """One direction (out or in) of the Stinger structure."""

    def __init__(self, max_nodes: int, space: AddressSpace, label: str, lock_base: int) -> None:
        self.space = space
        self.label = label
        self.lock_base = lock_base
        self._blocks: List[List[_EdgeBlock]] = [[] for _ in range(max_nodes)]
        self._position: List[Dict[int, Tuple[int, int]]] = [{} for _ in range(max_nodes)]
        # Per-vertex degree, maintained on insert/remove so negative
        # searches charge their probe count without summing the blocks.
        self._degree: List[int] = [0] * max_nodes
        # While no edge has ever been removed, blocks fill strictly
        # front-to-back: every block before the tail is full.  The fused
        # emitter exploits this to compute scan lengths in O(1); any
        # remove may open a hole and permanently disables the shortcut.
        self._holes = False
        self._vertex_array = space.alloc(
            max_nodes * VERTEX_ENTRY_BYTES, f"{label}.vertices"
        )
        self._block_label = f"{label}.block"
        self._next_block_id = 0

    def _new_block(self) -> _EdgeBlock:
        block = _EdgeBlock(
            block_id=self._next_block_id,
            region=self.space.alloc(BLOCK_BYTES, self._block_label),
        )
        self._next_block_id += 1
        return block

    def insert(self, src: int, dst: int, weight: float, recorder) -> _InsertOutcome:
        """Two-scan search-then-insert of ``src -> dst``."""
        blocks = self._blocks[src]
        position = self._position[src]
        tracing = recorder.enabled
        if tracing:
            recorder.access(self._vertex_array.element(src, VERTEX_ENTRY_BYTES))
        existing = position.get(dst)
        if existing is not None:
            # Search scan stops at the block holding the edge.
            block_idx, slot = existing
            probes = slot + 1
            for i in range(block_idx):
                probes += len(blocks[i].entries)
            if tracing:
                self._trace_scan(blocks, block_idx + 1, recorder)
            return _InsertOutcome(
                search_chases=block_idx + 1,
                search_probes=probes,
                space_chases=0,
                inserted=False,
                new_block=False,
                lock=None,
            )
        # Negative search scans the entire list ...
        search_chases = len(blocks)
        search_probes = self._degree[src]
        if tracing:
            self._trace_scan(blocks, len(blocks), recorder)
        # ... then a second scan walks the list again looking for the
        # first block with free space (deletions can open holes in any
        # block; an insert-only stream always lands in the tail block).
        target_index = None
        for index, block in enumerate(blocks):
            if not block.full:
                target_index = index
                break
        new_block = False
        if target_index is None:
            space_chases = len(blocks)
            blocks.append(self._new_block())
            new_block = True
            target_index = len(blocks) - 1
        else:
            space_chases = target_index + 1
        target = blocks[target_index]
        slot = len(target.entries)
        target.entries.append((dst, weight))
        position[dst] = (target_index, slot)
        self._degree[src] += 1
        if tracing:
            recorder.access(target.entry_address(slot), write=True)
        return _InsertOutcome(
            search_chases=search_chases,
            search_probes=search_probes,
            space_chases=space_chases,
            inserted=True,
            new_block=new_block,
            lock=self.lock_base + target.block_id,
        )

    def remove(self, src: int, dst: int, recorder) -> _InsertOutcome:
        """Search for ``src -> dst`` and remove it from its block.

        The block's last entry backfills the vacated slot; a tail block
        left empty is unlinked and freed.  Reuses the insert outcome
        record (``new_block`` then means "a block was freed").
        """
        blocks = self._blocks[src]
        position = self._position[src]
        tracing = recorder.enabled
        if tracing:
            recorder.access(self._vertex_array.element(src, VERTEX_ENTRY_BYTES))
        existing = position.get(dst)
        if existing is None:
            if tracing:
                self._trace_scan(blocks, len(blocks), recorder)
            return _InsertOutcome(
                search_chases=len(blocks),
                search_probes=self._degree[src],
                space_chases=0,
                inserted=False,
                new_block=False,
                lock=None,
            )
        block_idx, slot = existing
        probes = slot + 1
        for i in range(block_idx):
            probes += len(blocks[i].entries)
        if tracing:
            self._trace_scan(blocks, block_idx + 1, recorder)
        block = blocks[block_idx]
        last = len(block.entries) - 1
        if slot != last:
            block.entries[slot] = block.entries[last]
            position[block.entries[slot][0]] = (block_idx, slot)
            if tracing:
                recorder.access(block.entry_address(slot), write=True)
        block.entries.pop()
        del position[dst]
        self._degree[src] -= 1
        self._holes = True
        freed = False
        if not block.entries and block_idx == len(blocks) - 1:
            self.space.free(blocks.pop().region)
            freed = True
        return _InsertOutcome(
            search_chases=block_idx + 1,
            search_probes=probes,
            space_chases=0,
            inserted=True,
            new_block=freed,
            lock=self.lock_base + block.block_id,
        )

    def _trace_scan(self, blocks: List[_EdgeBlock], block_count: int, recorder) -> None:
        for block in blocks[:block_count]:
            recorder.access(block.region.base)  # header / next pointer
            recorder.access_range(
                block.region.base + BLOCK_HEADER_BYTES, len(block.entries), ENTRY_BYTES
            )

    def neighbors(self, u: int) -> List[Tuple[int, float]]:
        result: List[Tuple[int, float]] = []
        for block in self._blocks[u]:
            result.extend(block.entries)
        return result

    def degree(self, u: int) -> int:
        return self._degree[u]

    def block_count(self, u: int) -> int:
        return len(self._blocks[u])

    def trace_traversal(self, u: int, recorder) -> None:
        recorder.access(self._vertex_array.element(u, VERTEX_ENTRY_BYTES))
        self._trace_scan(self._blocks[u], len(self._blocks[u]), recorder)


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

    def ingest_batch(self, batch) -> int:
        """Fused untraced ingest: inlined block scans, no outcome boxing."""
        directed = self._directed
        if getattr(self._out, "native", False):
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
                self._in if directed else self._out,
                batch,
                directed,
                self._delete,
            )
            return positive
        out = self._out
        mirror_store = self._in if directed else out
        src = batch.src.tolist()
        dst = batch.dst.tolist()
        positive = 0
        if self._delete:
            remove = self._fused_remove
            for u, v in zip(src, dst):
                if remove(out, u, v):
                    positive += 1
                if u != v or directed:
                    remove(mirror_store, v, u)
            return positive

        weight = batch.weight.tolist()
        app_chases = self.search_chases.append
        app_probes = self.search_probes.append
        app_space = self.space_chases.append
        app_hit = self.hit.append
        app_new = self.new_block.append
        app_lock = self.lock.append
        # Per-store state hoisted once; the insert body is duplicated
        # for the out and mirror operations so the hot loop runs on
        # locals only.  Inserts never open holes, so _holes is loop
        # invariant here (only removes set it).
        o_blocks_all = out._blocks
        o_pos_all = out._position
        o_degree = out._degree
        o_lock_base = out.lock_base
        o_alloc = out.space.alloc
        o_blabel = out._block_label
        o_holes = out._holes
        m_blocks_all = mirror_store._blocks
        m_pos_all = mirror_store._position
        m_degree = mirror_store._degree
        m_lock_base = mirror_store.lock_base
        m_alloc = mirror_store.space.alloc
        m_blabel = mirror_store._block_label
        m_holes = mirror_store._holes
        for u, v, w in zip(src, dst, weight):
            blocks = o_blocks_all[u]
            position = o_pos_all[u]
            existing = position.get(v)
            if existing is not None:
                block_idx, slot = existing
                if o_holes:
                    probes = slot + 1
                    for j in range(block_idx):
                        probes += len(blocks[j].entries)
                else:
                    probes = block_idx * BLOCK_CAPACITY + slot + 1
                app_chases(block_idx + 1)
                app_probes(probes)
                app_space(0)
                app_hit(False)
                app_new(False)
                app_lock(NO_LOCK)
            else:
                nblocks = len(blocks)
                app_chases(nblocks)
                deg = o_degree[u]
                app_probes(deg)
                o_degree[u] = deg + 1
                target = None
                if o_holes:
                    target_index = None
                    for index, block in enumerate(blocks):
                        if len(block.entries) < BLOCK_CAPACITY:
                            target_index = index
                            target = block
                            break
                elif nblocks:
                    # No holes: every block before the tail is full.
                    target = blocks[-1]
                    if len(target.entries) < BLOCK_CAPACITY:
                        target_index = nblocks - 1
                    else:
                        target = None
                if target is None:
                    app_space(nblocks)
                    target = _EdgeBlock(
                        out._next_block_id, o_alloc(BLOCK_BYTES, o_blabel)
                    )
                    out._next_block_id += 1
                    blocks.append(target)
                    target_index = nblocks
                    app_new(True)
                else:
                    app_space(target_index + 1)
                    app_new(False)
                entries = target.entries
                position[v] = (target_index, len(entries))
                entries.append((v, w))
                app_hit(True)
                app_lock(o_lock_base + target.block_id)
                positive += 1
            if u != v or directed:
                blocks = m_blocks_all[v]
                position = m_pos_all[v]
                existing = position.get(u)
                if existing is not None:
                    block_idx, slot = existing
                    if m_holes:
                        probes = slot + 1
                        for j in range(block_idx):
                            probes += len(blocks[j].entries)
                    else:
                        probes = block_idx * BLOCK_CAPACITY + slot + 1
                    app_chases(block_idx + 1)
                    app_probes(probes)
                    app_space(0)
                    app_hit(False)
                    app_new(False)
                    app_lock(NO_LOCK)
                else:
                    nblocks = len(blocks)
                    app_chases(nblocks)
                    deg = m_degree[v]
                    app_probes(deg)
                    m_degree[v] = deg + 1
                    target = None
                    if m_holes:
                        target_index = None
                        for index, block in enumerate(blocks):
                            if len(block.entries) < BLOCK_CAPACITY:
                                target_index = index
                                target = block
                                break
                    elif nblocks:
                        target = blocks[-1]
                        if len(target.entries) < BLOCK_CAPACITY:
                            target_index = nblocks - 1
                        else:
                            target = None
                    if target is None:
                        app_space(nblocks)
                        target = _EdgeBlock(
                            mirror_store._next_block_id, m_alloc(BLOCK_BYTES, m_blabel)
                        )
                        mirror_store._next_block_id += 1
                        blocks.append(target)
                        target_index = nblocks
                        app_new(True)
                    else:
                        app_space(target_index + 1)
                        app_new(False)
                    entries = target.entries
                    position[u] = (target_index, len(entries))
                    entries.append((u, w))
                    app_hit(True)
                    app_lock(m_lock_base + target.block_id)
        return positive

    def _fused_remove(self, store, src, dst) -> bool:
        """``_StingerStore.remove`` inlined, appending columns directly."""
        blocks = store._blocks[src]
        position = store._position[src]
        existing = position.get(dst)
        if existing is None:
            self.search_chases.append(len(blocks))
            self.search_probes.append(store._degree[src])
            self.space_chases.append(0)
            self.hit.append(False)
            self.new_block.append(False)
            self.lock.append(NO_LOCK)
            return False
        block_idx, slot = existing
        probes = slot + 1
        for i in range(block_idx):
            probes += len(blocks[i].entries)
        block = blocks[block_idx]
        entries = block.entries
        last = len(entries) - 1
        if slot != last:
            entries[slot] = entries[last]
            position[entries[slot][0]] = (block_idx, slot)
        entries.pop()
        del position[dst]
        store._degree[src] -= 1
        store._holes = True
        freed = False
        if not entries and block_idx == len(blocks) - 1:
            store.space.free(blocks.pop().region)
            freed = True
        self.search_chases.append(block_idx + 1)
        self.search_probes.append(probes)
        self.space_chases.append(0)
        self.hit.append(True)
        self.new_block.append(freed)
        self.lock.append(store.lock_base + block.block_id)
        return True

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
        self._out = make_stinger_store(
            max_nodes, self.space, "Stinger.out", self._OUT_LOCK_BASE
        )
        self._in = (
            make_stinger_store(
                max_nodes, self.space, "Stinger.in", self._IN_LOCK_BASE
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

"""The list/dict stores: an oracle for the arena stores and the C kernels.

One store per structure family, written the obvious way -- a Python
list of ``(neighbor, weight)`` tuples per vertex with a dict for
membership (AS/AC vectors, BA segments), lists of ``_EdgeBlock`` objects
(Stinger), ``tests/oracle_hashtables.py``'s tables holding Python lists
and ``_NeighborSet`` objects (DAH).  Each implements the store interface
the structures' per-edge ingest drives -- ``insert``/``remove``
returning the primitive counts of the operation as an outcome record
whose fields are the kernel's columns, in order, and emitting its
memory accesses into the recorder, ``neighbors``/``degree``,
``trace_traversal`` -- and
allocates its simulated memory in the order the product stores do, so
traced addresses and ``AddressSpace`` counters are comparable too.

Nothing here imports ``repro.graph.nativestore``, its layout constants
or its outcome records: the product path keeps one store family (numpy
arenas; per-edge methods and one C kernel per family), and this module
is the third party both are compared against.  :func:`oracle_structure`
puts a pair of these stores behind a real structure, whose ingest then
runs their per-operation methods.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.graph import make_structure
from repro.sim.memory import AddressSpace, Region
from repro.sim.tasks import NO_LOCK
from tests.conftest import cingest_env
from tests.oracle_hashtables import OpenAddressTable, RobinHoodTable

# ----------------------------------------------------------------------
# AS / AC: one growable vector per vertex
# ----------------------------------------------------------------------

#: Bytes of one (neighbor, weight) entry: 4B id + 4B weight, packed.
ENTRY_BYTES = 8

#: Bytes of one per-vertex header (pointer, size, capacity, lock word).
HEADER_BYTES = 16

#: Initial capacity of a vertex's neighbor vector.
INITIAL_CAPACITY = 4


@dataclass
class InsertOutcome:
    """Primitive counts of one search-then-insert operation."""

    scanned: int  # entries compared during the search scan
    inserted: bool  # False when the edge already existed
    grew_from: int  # elements moved by a capacity doubling (0 if none)


@dataclass
class RemoveOutcome:
    """Primitive counts of one search-then-remove operation."""

    scanned: int  # entries compared during the search scan
    removed: bool  # False when the edge was absent
    moved: int  # entries moved to close the hole (swap-remove: 0 or 1)


class VectorStore:
    """Array-of-vectors storage for one direction of adjacency.

    Functionally a ``vertex -> [(neighbor, weight), ...]`` map with
    unique neighbors.  Membership checks use a per-vertex index dict
    (so the Python implementation is O(1)), but the *charged* cost is
    the linear scan a contiguous C++ vector would perform, and the
    emitted trace walks the vector's real simulated addresses.
    """

    def __init__(self, max_nodes: int, space: AddressSpace, label: str) -> None:
        self.max_nodes = max_nodes
        self.space = space
        self.label = label
        self._neighbors: List[List[Tuple[int, float]]] = [[] for _ in range(max_nodes)]
        self._position: List[Dict[int, int]] = [{} for _ in range(max_nodes)]
        self._capacity: List[int] = [0] * max_nodes
        self._region: List[Optional[Region]] = [None] * max_nodes
        self._header = space.alloc(max_nodes * HEADER_BYTES, f"{label}.headers")
        self._vec_label = f"{label}.vec"

    def insert(self, src: int, dst: int, weight: float, recorder) -> InsertOutcome:
        """Search for ``src -> dst`` and insert it if absent."""
        vec = self._neighbors[src]
        index = self._position[src]
        tracing = recorder.enabled
        if tracing:
            recorder.access(self._header.element(src, HEADER_BYTES))
        existing = index.get(dst)
        if existing is not None:
            scanned = existing + 1
            if tracing:
                self._trace_scan(src, scanned, recorder)
            return InsertOutcome(scanned=scanned, inserted=False, grew_from=0)
        scanned = len(vec)
        if tracing:
            self._trace_scan(src, scanned, recorder)
        grew_from = 0
        if len(vec) == self._capacity[src]:
            grew_from = self._grow(src)
        index[dst] = len(vec)
        vec.append((dst, weight))
        if tracing and self._region[src] is not None:
            recorder.access(
                self._region[src].element(len(vec) - 1, ENTRY_BYTES), write=True
            )
        return InsertOutcome(scanned=scanned, inserted=True, grew_from=grew_from)

    def _grow(self, src: int) -> int:
        """Double ``src``'s vector capacity; returns elements moved."""
        old_len = len(self._neighbors[src])
        capacity = self._capacity[src]
        new_capacity = capacity * 2 if capacity else INITIAL_CAPACITY
        old_region = self._region[src]
        self._region[src] = self.space.alloc(
            new_capacity * ENTRY_BYTES, self._vec_label
        )
        if old_region is not None:
            self.space.free(old_region)
        self._capacity[src] = new_capacity
        return old_len

    def _trace_scan(self, src: int, count: int, recorder) -> None:
        region = self._region[src]
        if region is None or count == 0:
            return
        recorder.access_range(region.base, min(count, len(self._neighbors[src])), ENTRY_BYTES)

    def remove(self, src: int, dst: int, recorder) -> RemoveOutcome:
        """Search for ``src -> dst`` and swap-remove it if present.

        The last entry moves into the vacated slot, keeping the vector
        dense (the standard unordered-vector deletion).
        """
        vec = self._neighbors[src]
        index = self._position[src]
        tracing = recorder.enabled
        if tracing:
            recorder.access(self._header.element(src, HEADER_BYTES))
        position = index.get(dst)
        if position is None:
            scanned = len(vec)
            if tracing:
                self._trace_scan(src, scanned, recorder)
            return RemoveOutcome(scanned=scanned, removed=False, moved=0)
        scanned = position + 1
        if tracing:
            self._trace_scan(src, scanned, recorder)
        last = len(vec) - 1
        moved = 0
        if position != last:
            vec[position] = vec[last]
            index[vec[position][0]] = position
            moved = 1
            if tracing and self._region[src] is not None:
                recorder.access(
                    self._region[src].element(position, ENTRY_BYTES), write=True
                )
        vec.pop()
        del index[dst]
        return RemoveOutcome(scanned=scanned, removed=True, moved=moved)

    def neighbors(self, u: int) -> List[Tuple[int, float]]:
        return self._neighbors[u]

    def degree(self, u: int) -> int:
        return len(self._neighbors[u])

    def trace_traversal(self, u: int, recorder) -> None:
        """Emit the accesses of one full traversal of ``u``'s vector."""
        recorder.access(self._header.element(u, HEADER_BYTES))
        region = self._region[u]
        if region is not None:
            recorder.access_range(region.base, len(self._neighbors[u]), ENTRY_BYTES)

    @property
    def header_region(self) -> Region:
        return self._header


# ----------------------------------------------------------------------
# BA: pooled power-of-two segments
# ----------------------------------------------------------------------

MIN_SEGMENT = 4


class _SegmentPool:
    """A free list of equal-capacity segments (one Hornet block pool)."""

    def __init__(self, capacity: int, space: AddressSpace, label: str) -> None:
        self.capacity = capacity
        self.space = space
        self.label = label
        self._free: List[Region] = []
        self._alloc_bytes = capacity * ENTRY_BYTES
        self._alloc_label = f"{label}.seg{capacity}"
        self.allocations = 0
        self.reuses = 0

    def acquire(self) -> Region:
        if self._free:
            self.reuses += 1
            return self._free.pop()
        self.allocations += 1
        return self.space.alloc(self._alloc_bytes, self._alloc_label)

    def release(self, region: Region) -> None:
        self._free.append(region)


class _BlockedStore:
    """One direction of the blocked adjacency."""

    def __init__(self, max_nodes: int, space: AddressSpace, label: str) -> None:
        self.max_nodes = max_nodes
        self.space = space
        self.label = label
        self._neighbors: List[List[Tuple[int, float]]] = [[] for _ in range(max_nodes)]
        self._index: List[Dict[int, int]] = [{} for _ in range(max_nodes)]
        self._segment: List[Optional[Region]] = [None] * max_nodes
        self._capacity: List[int] = [0] * max_nodes
        self._pools: Dict[int, _SegmentPool] = {}
        self._header = space.alloc(max_nodes * 16, f"{label}.headers")

    def _pool(self, capacity: int) -> _SegmentPool:
        pool = self._pools.get(capacity)
        if pool is None:
            pool = _SegmentPool(capacity, self.space, self.label)
            self._pools[capacity] = pool
        return pool

    def insert(self, src: int, dst: int, weight: float, recorder) -> InsertOutcome:
        """Search-then-insert; ``grew_from`` counts the entries relocated."""
        vec = self._neighbors[src]
        index = self._index[src]
        tracing = recorder.enabled
        if tracing:
            recorder.access(self._header.element(src, 16))
        existing = index.get(dst)
        if existing is not None:
            scanned = existing + 1
            if tracing and self._segment[src] is not None:
                recorder.access_range(self._segment[src].base, scanned, ENTRY_BYTES)
            return InsertOutcome(scanned=scanned, inserted=False, grew_from=0)
        scanned = len(vec)
        if tracing and self._segment[src] is not None:
            recorder.access_range(self._segment[src].base, scanned, ENTRY_BYTES)
        relocated = 0
        if len(vec) == self._capacity[src]:
            relocated = self._relocate(src)
        index[dst] = len(vec)
        vec.append((dst, weight))
        if tracing:
            recorder.access(
                self._segment[src].element(len(vec) - 1, ENTRY_BYTES), write=True
            )
        return InsertOutcome(scanned=scanned, inserted=True, grew_from=relocated)

    def _relocate(self, src: int) -> int:
        """Move ``src`` to a doubled segment; returns entries copied."""
        old_capacity = self._capacity[src]
        new_capacity = old_capacity * 2 if old_capacity else MIN_SEGMENT
        old_segment = self._segment[src]
        self._segment[src] = self._pool(new_capacity).acquire()
        self._capacity[src] = new_capacity
        if old_segment is not None:
            self._pool(old_capacity).release(old_segment)
        return len(self._neighbors[src])

    def remove(self, src: int, dst: int, recorder) -> RemoveOutcome:
        """Swap-remove of ``src -> dst``."""
        vec = self._neighbors[src]
        index = self._index[src]
        tracing = recorder.enabled
        segment = self._segment[src]
        if tracing:
            recorder.access(self._header.element(src, 16))
        position = index.get(dst)
        if position is None:
            if tracing and segment is not None:
                recorder.access_range(segment.base, len(vec), ENTRY_BYTES)
            return RemoveOutcome(scanned=len(vec), removed=False, moved=0)
        if tracing:
            recorder.access_range(segment.base, position + 1, ENTRY_BYTES)
        last = len(vec) - 1
        moved = int(position != last)
        if moved:
            vec[position] = vec[last]
            index[vec[position][0]] = position
            if tracing:
                recorder.access(segment.element(position, ENTRY_BYTES), write=True)
        vec.pop()
        del index[dst]
        return RemoveOutcome(scanned=position + 1, removed=True, moved=moved)

    def neighbors(self, u: int) -> List[Tuple[int, float]]:
        return self._neighbors[u]

    def degree(self, u: int) -> int:
        return len(self._neighbors[u])

    def trace_traversal(self, u: int, recorder) -> None:
        recorder.access(self._header.element(u, 16))
        segment = self._segment[u]
        if segment is not None:
            recorder.access_range(segment.base, len(self._neighbors[u]), ENTRY_BYTES)

    def pool_stats(self) -> Dict[int, Tuple[int, int]]:
        """{capacity: (allocations, reuses)} across all pools."""
        return {
            capacity: (pool.allocations, pool.reuses)
            for capacity, pool in sorted(self._pools.items())
        }


# ----------------------------------------------------------------------
# Stinger: linked 16-edge blocks
# ----------------------------------------------------------------------

#: Edges per edge block (paper Section III-A3).
BLOCK_CAPACITY = 16

#: Bytes per block: header (next pointer, count) + 16 packed entries.
BLOCK_HEADER_BYTES = 16
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
    lock: int  # NO_LOCK when no block changed


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
                lock=NO_LOCK,
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
                lock=NO_LOCK,
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


# ----------------------------------------------------------------------
# DAH: Robin Hood low tables, open-address high tables, hashed sets
# ----------------------------------------------------------------------

#: A vertex moves to the high-degree table beyond this many neighbors.
LOW_DEGREE_THRESHOLD = 16

#: Slot sizes for trace-address computation.
LOW_SLOT_BYTES = 8 + LOW_DEGREE_THRESHOLD * 8  # key + inline neighbor array
HIGH_SLOT_BYTES = 16  # key + pointer to the neighbor set
NEIGHBOR_SLOT_BYTES = 8


class _TrackedTable:
    """A hash table plus the simulated region backing its slot array."""

    def __init__(self, table, space: AddressSpace, slot_bytes: int, label: str) -> None:
        self.table = table
        self.space = space
        self.slot_bytes = slot_bytes
        self.label = label
        self._generation = -1
        self.region: Optional[Region] = None
        self._sync_region()

    def _sync_region(self) -> None:
        if self.table.generation != self._generation:
            if self.region is not None:
                self.space.free(self.region)
            self.region = self.space.alloc(
                self.table.capacity * self.slot_bytes, self.label
            )
            self._generation = self.table.generation

    def trace_path(self, path: List[int], recorder, write_last: bool = False) -> None:
        """Emit the probe path's slot addresses; resync after resizes."""
        self._sync_region()
        if not recorder.enabled:
            return
        last = len(path) - 1
        for i, slot in enumerate(path):
            recorder.access(
                self.region.element(slot, self.slot_bytes),
                write=write_last and i == last,
            )


@dataclass
class _InsertStats:
    """Primitive counts of one DAH edge insert, for cost pricing."""

    table_probes: int = 0  # hash-table slots inspected (both tables)
    hash_ops: int = 0  # hash computations performed
    inline_scanned: int = 0  # inline-array entries compared
    degree_queries: int = 0  # table meta-queries
    flushed: int = 0  # entries migrated low -> high
    rehash_moves: int = 0  # entries moved by table resizes
    inserted: bool = False


class _NeighborSet:
    """Hashed neighbor container of one high-degree vertex."""

    def __init__(self, space: AddressSpace, label: str) -> None:
        self.table = OpenAddressTable(initial_capacity=32)
        self.tracked = _TrackedTable(self.table, space, NEIGHBOR_SLOT_BYTES, label)

    def insert(self, dst: int, weight: float, recorder, stats: _InsertStats) -> bool:
        # Search-then-insert, as everywhere in SAGA-Bench: a duplicate
        # edge must not overwrite the stored weight.
        _, found = self.table.get(dst)
        stats.hash_ops += 1
        stats.table_probes += found.probes
        self.tracked.trace_path(found.path, recorder)
        if found.found:
            return False
        outcome = self.table.put(dst, weight)
        stats.hash_ops += 1
        stats.table_probes += outcome.probes
        stats.rehash_moves += outcome.resized_moves
        self.tracked.trace_path(outcome.path, recorder, write_last=True)
        return True

    def neighbors(self) -> List[Tuple[int, float]]:
        return list(self.table.items())

    def __len__(self) -> int:
        return len(self.table)


class _DAHStore:
    """One direction (out or in) of degree-aware hashing."""

    def __init__(self, max_nodes: int, chunks: int, space: AddressSpace, label: str) -> None:
        self.max_nodes = max_nodes
        self.chunks = chunks
        self.space = space
        self.label = label
        self._low = [
            _TrackedTable(
                RobinHoodTable(initial_capacity=64),
                space,
                LOW_SLOT_BYTES,
                f"{label}.low{c}",
            )
            for c in range(chunks)
        ]
        self._high = [
            _TrackedTable(
                OpenAddressTable(initial_capacity=16),
                space,
                HIGH_SLOT_BYTES,
                f"{label}.high{c}",
            )
            for c in range(chunks)
        ]
        self._set_count = 0

    def chunk_of(self, u: int) -> int:
        return u % self.chunks

    def insert(self, src: int, dst: int, weight: float, recorder) -> _InsertStats:
        """Degree-aware search-then-insert of ``src -> dst``."""
        stats = _InsertStats()
        chunk = self.chunk_of(src)
        high = self._high[chunk]
        low = self._low[chunk]

        # Degree query 1: does the high-degree table own src?
        stats.degree_queries += 1
        neighbor_set, outcome = high.table.get(src)
        stats.hash_ops += 1
        stats.table_probes += outcome.probes
        high.trace_path(outcome.path, recorder)
        if outcome.found:
            stats.inserted = neighbor_set.insert(dst, weight, recorder, stats)
            return stats

        # Degree query 2: the low-degree table.
        stats.degree_queries += 1
        inline, outcome = low.table.get(src)
        stats.hash_ops += 1
        stats.table_probes += outcome.probes
        low.trace_path(outcome.path, recorder)
        if not outcome.found:
            put = low.table.put(src, [(dst, weight)])
            stats.hash_ops += 1
            stats.table_probes += put.probes
            stats.rehash_moves += put.resized_moves
            low.trace_path(put.path, recorder, write_last=True)
            stats.inserted = True
            return stats

        # Search the inline neighbor array (unique ingestion).
        for i, (existing, _) in enumerate(inline):
            stats.inline_scanned = i + 1
            if existing == dst:
                return stats  # duplicate
        stats.inline_scanned = len(inline)
        inline.append((dst, weight))
        stats.inserted = True
        if len(inline) <= LOW_DEGREE_THRESHOLD:
            return stats

        # Flush: src outgrew the inline array; migrate to the high table.
        delete = low.table.delete(src)
        stats.table_probes += delete.probes
        neighbor_set = _NeighborSet(self.space, f"{self.label}.nbr{self._set_count}")
        self._set_count += 1
        for flushed_dst, flushed_weight in inline:
            neighbor_set.insert(flushed_dst, flushed_weight, recorder, stats)
            stats.flushed += 1
        put = high.table.put(src, neighbor_set)
        stats.hash_ops += 1
        stats.table_probes += put.probes
        stats.rehash_moves += put.resized_moves
        high.trace_path(put.path, recorder, write_last=True)
        return stats

    def remove(self, src: int, dst: int, recorder) -> _InsertStats:
        """Degree-aware search-then-remove of ``src -> dst``.

        High-degree vertices tombstone the entry in their neighbor
        set; low-degree vertices compact their inline array.  Vertices
        never demote from the high-degree table (as in DegAwareRHH;
        re-promotion churn would dominate).  ``stats.inserted`` means
        "an edge was removed".
        """
        stats = _InsertStats()
        chunk = self.chunk_of(src)
        high = self._high[chunk]
        low = self._low[chunk]

        stats.degree_queries += 1
        neighbor_set, outcome = high.table.get(src)
        stats.hash_ops += 1
        stats.table_probes += outcome.probes
        high.trace_path(outcome.path, recorder)
        if outcome.found:
            delete = neighbor_set.table.delete(dst)
            stats.hash_ops += 1
            stats.table_probes += delete.probes
            neighbor_set.tracked.trace_path(delete.path, recorder, write_last=delete.found)
            stats.inserted = delete.found
            return stats

        stats.degree_queries += 1
        inline, outcome = low.table.get(src)
        stats.hash_ops += 1
        stats.table_probes += outcome.probes
        low.trace_path(outcome.path, recorder)
        if not outcome.found:
            return stats
        for index, (existing, _) in enumerate(inline):
            stats.inline_scanned = index + 1
            if existing == dst:
                inline[index] = inline[-1]
                inline.pop()
                stats.inserted = True
                if not inline:
                    drop = low.table.delete(src)
                    stats.table_probes += drop.probes
                return stats
        return stats

    def _lookup(self, u: int):
        """(container, is_high) for ``u``; container may be None."""
        chunk = self.chunk_of(u)
        neighbor_set, outcome = self._high[chunk].table.get(u)
        if outcome.found:
            return neighbor_set, True
        inline, outcome = self._low[chunk].table.get(u)
        if outcome.found:
            return inline, False
        return None, False

    def neighbors(self, u: int) -> List[Tuple[int, float]]:
        container, is_high = self._lookup(u)
        if container is None:
            return []
        return container.neighbors() if is_high else list(container)

    def degree(self, u: int) -> int:
        container, _ = self._lookup(u)
        return len(container) if container is not None else 0

    def is_high_degree(self, u: int) -> bool:
        _, is_high = self._lookup(u)
        return is_high

    def trace_traversal(self, u: int, recorder) -> None:
        chunk = self.chunk_of(u)
        high = self._high[chunk]
        neighbor_set, outcome = high.table.get(u)
        high.trace_path(outcome.path, recorder)
        if outcome.found:
            tracked = neighbor_set.tracked
            tracked._sync_region()
            # Enumerate the set's slot array sequentially (sparse scan).
            recorder.access_range(
                tracked.region.base, neighbor_set.table.capacity, NEIGHBOR_SLOT_BYTES
            )
            return
        low = self._low[chunk]
        _, outcome = low.table.get(u)
        low.trace_path(outcome.path, recorder)


# ----------------------------------------------------------------------
# The three implementations behind one structure
# ----------------------------------------------------------------------

#: Every store operation exists three times: in the stores above, in the
#: arena stores' per-edge methods, and in the arena stores' C kernel.
ORACLE, PER_EDGE, KERNEL = IMPLEMENTATIONS = ("oracle", "per-edge", "kernel")


def oracle_structure(name: str, max_nodes: int, directed: bool = True, **kwargs):
    """``make_structure`` with a pair of the stores above behind it.

    The structure keeps its pricing and scheduler; only the stores (and
    the address space they allocate from, started afresh so the layout
    is the one a structure built on these stores has) are replaced.  No
    kernel: every batch runs the stores' per-operation methods, and
    every compute-phase trace their per-vertex ``trace_traversal``.
    """
    structure = make_structure(name, max_nodes, directed=directed, **kwargs)
    space = structure.space = AddressSpace()
    label = structure.name

    def store(direction: str):
        if label in ("AS", "AC"):
            built = VectorStore(max_nodes, space, f"{label}.{direction}")
        elif label == "BA":
            built = _BlockedStore(max_nodes, space, f"BA.{direction}")
        elif label == "Stinger":
            lock_base = (
                structure._OUT_LOCK_BASE if direction == "out"
                else structure._IN_LOCK_BASE
            )
            built = _StingerStore(max_nodes, space, f"Stinger.{direction}", lock_base)
        else:
            built = _DAHStore(max_nodes, structure.chunks, space, f"DAH.{direction}")
        built.kernels = None
        return built

    structure._out = store("out")
    structure._in = store("in") if directed else structure._out
    return structure


def structure_over(implementation: str, name: str, max_nodes: int,
                   directed: bool = True, **kwargs):
    """``name`` over one of :data:`IMPLEMENTATIONS`.

    ``PER_EDGE`` is what ``SAGA_BENCH_NO_CINGEST`` (or a machine without
    a compiler) builds: the arena stores with no kernel, every batch
    through the per-edge methods.  ``KERNEL`` needs the compiled
    library; callers skip when ``cingest.get(name)`` is ``None``.
    """
    if implementation == ORACLE:
        return oracle_structure(name, max_nodes, directed=directed, **kwargs)
    with cingest_env("all" if implementation == PER_EDGE else None):
        structure = make_structure(name, max_nodes, directed=directed, **kwargs)
    if implementation == PER_EDGE:
        assert structure._out.kernels is None
    return structure

"""The stores: one direction of adjacency in flat numpy arenas.

Every structure keeps its out- and in-neighbors in a pair of the stores
defined here -- :class:`NativeVectorStore` (AS, AC),
:class:`NativeBlockedStore` (BA), :class:`NativeStingerStore`,
:class:`NativeDAHStore` -- whose whole state is a handful of numpy
arrays.  Each operation on that state is written twice:

* **per edge, in Python** -- ``insert``/``remove`` return the primitive
  counts of one search-then-act (slots scanned, blocks chased, table
  slots probed, entries rehashed ...) and emit the memory accesses it
  makes into the recorder.  This is the reference, and what every batch
  runs when the store was built without a kernel (the native library
  not loaded);
* **per batch, in C** -- :func:`native_ingest` hands the whole batch to
  the one batch loop of :mod:`repro.sim.cingest`, which mutates the
  same arrays, returns the same counts as one column block, row for
  row, and -- for a traced batch -- writes the same accesses into an
  access log.  This is what every batch of a store with a kernel runs,
  traced or not.  A family declares only what differs: its store's
  ``descriptor()`` (the int64 array of pointers and sizes the kernel
  unpacks), ``grow(resource, need)`` for a stall, ``replay_events``
  for the event log, and how many events and new regions one
  operation can add (``EVENTS_PER_OP``, ``SPARE_HOLDERS_PER_OP``).

Simulated-memory accounting stays in Python on both paths: the kernel
logs one event per allocation-changing operation (vector growth,
segment relocation, block alloc/free, table resize) and the store
replays the log after the call, so the ``AddressSpace`` layout -- hence
every traced address -- does not depend on which path ingested which
batch.  The vector stores (AS, AC) and Stinger replay the log as one
array -- a bump allocator's layout is a cumsum of the aligned sizes
(``AddressSpace.alloc_log``; a freed Stinger block is an event that
frees without allocating) -- while BA and DAH replay event by event
because BA's segment-pool free lists and DAH's per-table regions depend
on the order.  A kernel never allocates: when an arena is too small it
*stalls*, returning a resume cursor and a resource code, the store's
``grow`` enlarges the numpy array of that resource, and the kernel is
re-entered.

The kernel cannot know an address before the replay, so its access log
names regions by *holder* (a header array, a vertex's vector, a block,
a table, a neighbor set) and generation -- the region the holder had
before the call, or the one event ``e`` gave it -- and
:class:`_AccessLog` resolves the whole log with one gather once the
replay has produced the event regions' bases: the same ``Region`` bases
the per-edge methods read, so the two traces are equal by construction
(DESIGN.md decision #24).  The log is one more stall-and-grow resource.

The compute phase's structure reads have the same two forms: the
per-vertex ``trace_traversal`` (the reference, and what a store without
a kernel runs) and ``traversals``, which hands a whole vertex array to
the family's C traversal emitter and returns its ``(counts,
addresses)``; an access the emitter finds outside its region raises
``Region.element``'s error, as the reference does (DESIGN.md decision
#27).

The layout constants and outcome records of each family live beside its
store; the structure modules import them from here, never the reverse.
``tests/oracle_stores.py`` holds an independent list/dict implementation
of the same four stores that both paths are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.graph.vectorstore import (
    ENTRY_BYTES,
    HEADER_BYTES,
    INITIAL_CAPACITY,
    InsertOutcome,
    RemoveOutcome,
)
from repro.obs.metrics import METRICS
from repro.obs.tracer import TRACER
from repro.sim import cingest
from repro.sim.memory import AddressSpace, Region
from repro.sim.tasks import NO_LOCK

#: Initial per-store entry pool; doubled on demand (kernel stall).
INITIAL_POOL = 1 << 14

#: Initial rows of a traced batch's access log; grown on demand (kernel
#: stall).
INITIAL_LOG = 1 << 14


def _emit_traversals(emitter, vertices, store_args, overrun):
    """``(counts, addresses)`` of one traversal per vertex, from a C
    traversal emitter of :mod:`repro.sim.cingest`.

    ``emitter(n, vertices, *store_args, counts, addresses)`` is called
    twice: without an address column to fill ``counts`` -- it returns the
    position of a vertex whose traversal leaves a region, for
    ``overrun(position)`` to raise from, or -1 -- and then into one of
    ``counts.sum()`` entries.
    """
    p = cingest.IngestKernels._p
    vertices = np.ascontiguousarray(vertices, dtype=np.int64)
    counts = np.empty(len(vertices), dtype=np.int64)
    refused = emitter(len(vertices), p(vertices), *store_args, p(counts), None)
    if refused >= 0:
        overrun(refused)
    addresses = np.empty(int(counts.sum()), dtype=np.int64)
    emitter(len(vertices), p(vertices), *store_args, p(counts), p(addresses))
    return counts, addresses


class _PooledVectorState:
    """Flat (neighbor, weight) pool + per-vertex spans: the vector-family
    store (AS/AC vectors and BA segments have the same mutation
    semantics and emit the same accesses; only growth *accounting*
    differs, which is :meth:`_replay_grow`).

    Duplicate detection is charged as the linear scan a contiguous C++
    vector would perform.  ``kernels`` is ``cingest.get()``:
    ``None`` builds the same store without a compiled batch path.
    """

    #: The kernel's family code, and per operation at most one event
    #: (a growth) and no new holder (a growth replaces a region).
    FAMILY = 0
    EVENTS_PER_OP = 1
    SPARE_HOLDERS_PER_OP = 0

    def __init__(self, max_nodes: int, space: AddressSpace, label: str,
                 kernels: Optional[cingest.IngestKernels]) -> None:
        self.max_nodes = max_nodes
        self.space = space
        self.label = label
        self.kernels = kernels
        self._off = np.zeros(max_nodes, dtype=np.int64)
        self._len = np.zeros(max_nodes, dtype=np.int64)
        self._capacity = np.zeros(max_nodes, dtype=np.int64)
        self._nbr = np.empty(INITIAL_POOL, dtype=np.int64)
        self._wgt = np.empty(INITIAL_POOL, dtype=np.float64)
        self._state = np.zeros(1, dtype=np.int64)  # [0] = pool cursor
        self._header = space.alloc(max_nodes * HEADER_BYTES, f"{label}.headers")
        #: Base address of each vertex's vector; with ``_capacity`` it
        #: is the vertex's whole region (see :meth:`_region`).
        self._region_base = np.zeros(max_nodes, dtype=np.int64)
        self._vec_label = f"{label}.vec"

    # -- pool plumbing -------------------------------------------------

    def descriptor(self) -> np.ndarray:
        """The arrays the kernel reads and writes (C ``vec_unpack``)."""
        p = self.kernels._p
        return np.array([
            p(self._off), p(self._len), p(self._capacity),
            p(self._nbr), p(self._wgt), p(self._state), len(self._nbr),
        ], dtype=np.int64)

    def grow(self, resource: int, need: int) -> None:
        """Double the entry pool (the one resource) until ``need`` more
        slots fit."""
        target = int(self._state[0]) + int(need)
        size = len(self._nbr)
        while size < target:
            size *= 2
        if size > len(self._nbr):
            cursor = int(self._state[0])
            nbr = np.empty(size, dtype=np.int64)
            wgt = np.empty(size, dtype=np.float64)
            nbr[:cursor] = self._nbr[:cursor]
            wgt[:cursor] = self._wgt[:cursor]
            self._nbr = nbr
            self._wgt = wgt

    def _find(self, u: int, dst: int) -> Optional[int]:
        off = int(self._off[u])
        n = int(self._len[u])
        matches = np.nonzero(self._nbr[off:off + n] == dst)[0]
        return int(matches[0]) if matches.size else None

    def _grow(self, src: int) -> int:
        """Relocate ``src`` to a doubled span; returns entries moved."""
        old_len = int(self._len[src])
        capacity = int(self._capacity[src])
        new_capacity = capacity * 2 if capacity else INITIAL_CAPACITY
        if int(self._state[0]) + new_capacity > len(self._nbr):
            self.grow(0, new_capacity)
        off = int(self._off[src])
        noff = int(self._state[0])
        self._nbr[noff:noff + old_len] = self._nbr[off:off + old_len]
        self._wgt[noff:noff + old_len] = self._wgt[off:off + old_len]
        self._state[0] = noff + new_capacity
        self._off[src] = noff
        self._capacity[src] = new_capacity
        self._replay_grow(src, new_capacity)
        return old_len

    def _replay_grow(self, vertex: int, new_capacity: int) -> int:
        """Account one growth in the address space; returns the base of
        the vertex's new region (also left in ``_region_base``)."""
        raise NotImplementedError

    def _replay_growth(self, mirror_store, mirror, vertex, capacity) -> np.ndarray:
        """Replay a kernel growth log, in order, event by event; returns
        the base of the region each event allocated.

        ``self`` is the out store; rows with ``mirror`` set belong to
        ``mirror_store`` (the in store, or ``self`` again when
        undirected).  Both share one ``AddressSpace``, so the order
        across the two stores decides the layout.
        """
        stores = (self, mirror_store)
        return np.array(
            [
                stores[m]._replay_grow(v, c)
                for m, v, c in zip(mirror.tolist(), vertex.tolist(), capacity.tolist())
            ],
            dtype=np.int64,
        )

    def replay_events(self, mirror_store, events):
        """Replay a kernel's growth events ``(mirror, vertex, capacity)``:
        ``(base, limit)`` of the region each allocated."""
        mirror, vertex, capacity = events.T
        bases = self._replay_growth(mirror_store, mirror, vertex, capacity)
        return bases, (capacity - 1) * ENTRY_BYTES

    def _standing_regions(self, spare: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(base, limit)`` of this store's regions by holder -- the
        header array, then each vertex's vector -- as copies, taken
        before a traced kernel call replaces any of them.  ``limit`` is
        the last in-bounds offset of an access (one header, one entry).
        A call adds no holder here (a growth replaces a vertex's
        region), so ``spare`` reserves nothing.
        """
        header = self._header
        return (
            np.concatenate(([header.base], self._region_base)),
            np.concatenate(
                ([header.size - HEADER_BYTES], (self._capacity - 1) * ENTRY_BYTES)
            ),
        )

    # -- per-edge operations --------------------------------------------

    def _region(self, vertex: int) -> Optional[Region]:
        """The vertex's vector region (``None`` before its first growth)."""
        capacity = int(self._capacity[vertex])
        if not capacity:
            return None
        return Region(
            int(self._region_base[vertex]), capacity * ENTRY_BYTES, self._vec_label
        )

    def insert(self, src: int, dst: int, weight: float, recorder) -> InsertOutcome:
        """Search for ``src -> dst`` and insert it if absent."""
        tracing = recorder.enabled
        if tracing:
            recorder.access(self._header.element(src, HEADER_BYTES))
        length = int(self._len[src])
        existing = self._find(src, dst)
        if existing is not None:
            scanned = existing + 1
            if tracing:
                self._trace_scan(src, scanned, recorder)
            return InsertOutcome(scanned=scanned, inserted=False, grew_from=0)
        scanned = length
        if tracing:
            self._trace_scan(src, scanned, recorder)
        grew_from = 0
        if length == int(self._capacity[src]):
            grew_from = self._grow(src)
        off = int(self._off[src])
        self._nbr[off + length] = dst
        self._wgt[off + length] = weight
        self._len[src] = length + 1
        if tracing:
            recorder.access(
                self._region(src).element(length, ENTRY_BYTES), write=True
            )
        return InsertOutcome(scanned=scanned, inserted=True, grew_from=grew_from)

    def _trace_scan(self, src: int, count: int, recorder) -> None:
        region = self._region(src)
        if region is None or count == 0:
            return
        recorder.access_range(
            region.base, min(count, int(self._len[src])), ENTRY_BYTES
        )

    def remove(self, src: int, dst: int, recorder) -> RemoveOutcome:
        """Search for ``src -> dst`` and swap-remove it if present.

        The last entry moves into the vacated slot, keeping the vector
        dense (the standard unordered-vector deletion).
        """
        tracing = recorder.enabled
        if tracing:
            recorder.access(self._header.element(src, HEADER_BYTES))
        length = int(self._len[src])
        position = self._find(src, dst)
        if position is None:
            scanned = length
            if tracing:
                self._trace_scan(src, scanned, recorder)
            return RemoveOutcome(scanned=scanned, removed=False, moved=0)
        scanned = position + 1
        if tracing:
            self._trace_scan(src, scanned, recorder)
        off = int(self._off[src])
        last = length - 1
        moved = 0
        if position != last:
            self._nbr[off + position] = self._nbr[off + last]
            self._wgt[off + position] = self._wgt[off + last]
            moved = 1
            if tracing:
                recorder.access(
                    self._region(src).element(position, ENTRY_BYTES), write=True
                )
        self._len[src] = last
        return RemoveOutcome(scanned=scanned, removed=True, moved=moved)

    # -- queries -------------------------------------------------------

    def neighbors(self, u: int) -> List[Tuple[int, float]]:
        off = int(self._off[u])
        n = int(self._len[u])
        return list(zip(self._nbr[off:off + n].tolist(),
                        self._wgt[off:off + n].tolist()))

    def degree(self, u: int) -> int:
        return int(self._len[u])

    @property
    def header_region(self) -> Region:
        return self._header

    def trace_traversal(self, u: int, recorder) -> None:
        """Emit the accesses of one full traversal of ``u``'s vector."""
        recorder.access(self._header.element(u, HEADER_BYTES))
        region = self._region(u)
        if region is not None:
            recorder.access_range(region.base, int(self._len[u]), ENTRY_BYTES)

    def traversals(self, vertices: np.ndarray):
        """:meth:`trace_traversal` of every vertex, in C: ``(counts, addresses)``."""
        header = self._header
        # The vertices whose header lies in the header array.
        limit = min(self.max_nodes, header.size // HEADER_BYTES)
        p = self.kernels._p
        return _emit_traversals(
            self.kernels.vec_traversals,
            vertices,
            (limit, header.base, p(self._len), p(self._region_base)),
            lambda i: header.refuse(int(vertices[i]), HEADER_BYTES),
        )


class NativeVectorStore(_PooledVectorState):
    """AS/AC store: one growable vector per vertex.

    A full vector doubles into a freshly allocated region and frees the
    old one.
    """

    def _replay_grow(self, vertex: int, new_capacity: int) -> int:
        old_base = int(self._region_base[vertex])
        region = self.space.alloc(new_capacity * ENTRY_BYTES, self._vec_label)
        self._region_base[vertex] = region.base
        if new_capacity > INITIAL_CAPACITY:
            # Doubling growth: the vacated vector is half the new one.
            self.space.free(
                Region(old_base, new_capacity // 2 * ENTRY_BYTES, self._vec_label)
            )
        return region.base

    def _replay_growth(self, mirror_store, mirror, vertex, capacity) -> np.ndarray:
        """The whole growth log as one allocation and one scatter."""
        freed = np.where(capacity > INITIAL_CAPACITY, capacity // 2, 0)
        bases = self.space.alloc_log(
            capacity * ENTRY_BYTES,
            freed * ENTRY_BYTES,
            mirror,
            (self._vec_label, mirror_store._vec_label),
        )
        # A vertex that grew more than once keeps its last region: numpy
        # assigns repeated indices in order.
        if mirror_store is self:
            self._region_base[vertex] = bases
        else:
            own = mirror == 0
            self._region_base[vertex[own]] = bases[own]
            mirror_store._region_base[vertex[~own]] = bases[~own]
        return bases


class _SegmentPool:
    """A free list of equal-capacity segments (one Hornet block pool),
    each segment known by its base address."""

    def __init__(self, capacity: int, space: AddressSpace, label: str) -> None:
        self.capacity = capacity
        self.space = space
        self.label = label
        self._free: List[int] = []
        self._alloc_bytes = capacity * ENTRY_BYTES
        self._alloc_label = f"{label}.seg{capacity}"
        self.allocations = 0
        self.reuses = 0

    def acquire(self) -> int:
        if self._free:
            self.reuses += 1
            return self._free.pop()
        self.allocations += 1
        return self.space.alloc(self._alloc_bytes, self._alloc_label).base

    def release(self, base: int) -> None:
        self._free.append(base)


class NativeBlockedStore(_PooledVectorState):
    """BA store: one contiguous segment per vertex, drawn from
    power-of-two :class:`_SegmentPool` free lists; a full segment
    relocates to one of twice the capacity and returns to its pool."""

    def __init__(self, max_nodes, space, label, kernels) -> None:
        super().__init__(max_nodes, space, label, kernels)
        self._vec_label = f"{label}.seg"
        self._pools: Dict[int, _SegmentPool] = {}

    def _pool(self, capacity: int) -> _SegmentPool:
        pool = self._pools.get(capacity)
        if pool is None:
            pool = _SegmentPool(capacity, self.space, self.label)
            self._pools[capacity] = pool
        return pool

    def _replay_grow(self, vertex: int, new_capacity: int) -> int:
        old_base = int(self._region_base[vertex])
        base = self._pool(new_capacity).acquire()
        self._region_base[vertex] = base
        if new_capacity > INITIAL_CAPACITY:
            # Doubling growth: the vacated segment is half the new one.
            self._pool(new_capacity // 2).release(old_base)
        return base

    def pool_stats(self) -> Dict[int, Tuple[int, int]]:
        """{capacity: (allocations, reuses)} across all pools."""
        return {
            capacity: (pool.allocations, pool.reuses)
            for capacity, pool in sorted(self._pools.items())
        }


#: Edges per Stinger edge block (paper Section III-A3).
BLOCK_CAPACITY = 16

#: Bytes per block: header (next pointer, count) + 16 packed entries.
BLOCK_HEADER_BYTES = 16
BLOCK_BYTES = BLOCK_HEADER_BYTES + BLOCK_CAPACITY * ENTRY_BYTES

#: Bytes per entry of the vertex array (id, degree, head pointer).
VERTEX_ENTRY_BYTES = 16


@dataclass
class _InsertOutcome:
    """Primitive counts of one Stinger insert (or remove)."""

    search_chases: int
    search_probes: int
    space_chases: int
    inserted: bool
    new_block: bool
    lock: int  # the block's lock id; NO_LOCK when no block changed


class NativeStingerStore:
    """Stinger store: a linked list of 16-edge blocks per vertex.

    Blocks live in a flat pool (block id == pool slot; ids are never
    reused, so the pool cursor doubles as the next block id), each
    vertex's block list is a span in a flat block-id pool, and the
    simulated address of each block is a column indexed by id (every
    block region is ``BLOCK_BYTES`` long under one label).
    An insert scans the list twice (search, then first block with free
    space); a remove backfills from the block's last entry and unlinks
    a tail block left empty.
    """

    #: Initial pool sizes (doubled on demand via kernel stalls).
    INITIAL_BIDS = 1 << 12
    INITIAL_BLOCKS = 256

    #: The kernel's family code, and per operation at most one event
    #: (a block allocated or freed) and one new holder (the block).
    FAMILY = 1
    EVENTS_PER_OP = 1
    SPARE_HOLDERS_PER_OP = 1

    def __init__(self, max_nodes: int, space: AddressSpace, label: str,
                 lock_base: int,
                 kernels: Optional[cingest.IngestKernels]) -> None:
        self.max_nodes = max_nodes
        self.space = space
        self.label = label
        self.lock_base = lock_base
        self.kernels = kernels
        self._boff = np.zeros(max_nodes, dtype=np.int64)
        self._bcnt = np.zeros(max_nodes, dtype=np.int64)
        self._bcap = np.zeros(max_nodes, dtype=np.int64)
        self._deg = np.zeros(max_nodes, dtype=np.int64)
        self._bids = np.empty(self.INITIAL_BIDS, dtype=np.int64)
        self._bnbr = np.empty(self.INITIAL_BLOCKS * 16, dtype=np.int64)
        self._bwgt = np.empty(self.INITIAL_BLOCKS * 16, dtype=np.float64)
        self._blen = np.zeros(self.INITIAL_BLOCKS, dtype=np.int64)
        self._state = np.zeros(2, dtype=np.int64)  # [bid cursor, next id]
        #: Base address of each block's region, sized like ``_blen``.
        self._block_base = np.zeros(self.INITIAL_BLOCKS, dtype=np.int64)
        self._vertex_array = space.alloc(
            max_nodes * VERTEX_ENTRY_BYTES, f"{label}.vertices"
        )
        self._block_label = f"{label}.block"

    # -- pool plumbing -------------------------------------------------

    def descriptor(self) -> np.ndarray:
        """The arrays the kernel reads and writes (C ``st_unpack``)."""
        p = self.kernels._p
        return np.array([
            self.lock_base, NO_LOCK,
            p(self._boff), p(self._bcnt), p(self._bcap), p(self._deg),
            p(self._bids), len(self._bids),
            p(self._bnbr), p(self._bwgt), p(self._blen), len(self._blen),
            p(self._state),
        ], dtype=np.int64)

    def grow(self, resource: int, need: int) -> None:
        """Enlarge what a kernel stalled on: 0 the block-id pool by
        ``need`` slots, 1 the block pool."""
        if resource == 0:
            self._grow_bid_pool(need)
        else:
            self._grow_block_pool()

    def _grow_bid_pool(self, need: int) -> None:
        target = int(self._state[0]) + int(need)
        size = len(self._bids)
        while size < target:
            size *= 2
        if size > len(self._bids):
            cursor = int(self._state[0])
            bids = np.empty(size, dtype=np.int64)
            bids[:cursor] = self._bids[:cursor]
            self._bids = bids

    def _grow_block_pool(self) -> None:
        blocks = 2 * len(self._blen)
        used = int(self._state[1])
        bnbr = np.empty(blocks * 16, dtype=np.int64)
        bwgt = np.empty(blocks * 16, dtype=np.float64)
        blen = np.zeros(blocks, dtype=np.int64)
        base = np.zeros(blocks, dtype=np.int64)
        bnbr[:used * 16] = self._bnbr[:used * 16]
        bwgt[:used * 16] = self._bwgt[:used * 16]
        blen[:used] = self._blen[:used]
        base[:used] = self._block_base[:used]
        self._bnbr = bnbr
        self._bwgt = bwgt
        self._blen = blen
        self._block_base = base

    def replay_events(self, mirror_store, events):
        """Replay a kernel's block events ``(code, block id, 0)`` as one
        allocation log and one scatter: ``(base, limit)`` of each event's
        block (a free's is unused).

        ``code`` is ``mirror * 2 + (0: block allocated, 1: tail block
        freed)``: rows with ``mirror`` set belong to ``mirror_store`` (the
        in store, or ``self`` again when undirected), which shares this
        store's ``AddressSpace``.
        """
        code, block_id = events[:, 0], events[:, 1]
        allocated = (code & 1) == 0
        mirror = code >> 1
        size = np.where(allocated, BLOCK_BYTES, 0)
        bases = self.space.alloc_log(
            size,
            BLOCK_BYTES - size,
            mirror,
            (self._block_label, mirror_store._block_label),
        )
        for m, store in enumerate((self, mirror_store)):
            mine = allocated & (mirror == m)
            store._block_base[block_id[mine]] = bases[mine]
        return bases, np.full(len(bases), BLOCK_BYTES - ENTRY_BYTES, dtype=np.int64)

    def _standing_regions(self, spare: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(base, limit)`` of this store's regions by holder: the
        vertex array, every block, then ``spare`` holders for the blocks
        a traced kernel call may add.  ``limit`` is the last in-bounds
        offset of an access (one vertex entry, one block entry)."""
        blocks = int(self._state[1])
        vertices = self._vertex_array
        base = np.zeros(1 + blocks + spare, dtype=np.int64)
        base[0] = vertices.base
        base[1:1 + blocks] = self._block_base[:blocks]
        limit = np.full(len(base), BLOCK_BYTES - ENTRY_BYTES, dtype=np.int64)
        limit[0] = vertices.size - VERTEX_ENTRY_BYTES
        return base, limit

    # -- per-edge operations --------------------------------------------

    def _find_edge(self, u: int, dst: int) -> Tuple[int, int, int]:
        """(block index, slot, probes before the block); (-1,-1,deg) miss."""
        boff = int(self._boff[u])
        before = 0
        for k in range(int(self._bcnt[u])):
            bid = int(self._bids[boff + k])
            length = int(self._blen[bid])
            matches = np.nonzero(
                self._bnbr[bid * 16:bid * 16 + length] == dst
            )[0]
            if matches.size:
                return k, int(matches[0]), before
            before += length
        return -1, -1, before

    def _append_block(self, u: int) -> int:
        """Create a block and link it at ``u``'s tail; returns its id."""
        bcnt = int(self._bcnt[u])
        if bcnt == int(self._bcap[u]):
            need = int(self._bcap[u]) * 2 or 4
            self._grow_bid_pool(need)
            boff = int(self._boff[u])
            noff = int(self._state[0])
            self._bids[noff:noff + bcnt] = self._bids[boff:boff + bcnt]
            self._state[0] = noff + need
            self._boff[u] = noff
            self._bcap[u] = need
        if int(self._state[1]) >= len(self._blen):
            self._grow_block_pool()
        bid = int(self._state[1])
        self._state[1] = bid + 1
        self._blen[bid] = 0
        self._bids[int(self._boff[u]) + bcnt] = bid
        self._bcnt[u] = bcnt + 1
        self._block_base[bid] = self.space.alloc(BLOCK_BYTES, self._block_label).base
        return bid

    def insert(self, src: int, dst: int, weight: float, recorder) -> _InsertOutcome:
        """Two-scan search-then-insert of ``src -> dst``.

        A search scan that finds the edge stops at its block; a negative
        search scans the whole list, then a second scan walks it again
        for the first block with free space (deletions can open holes in
        any block; an insert-only stream always lands in the tail).
        """
        tracing = recorder.enabled
        if tracing:
            recorder.access(self._vertex_array.element(src, VERTEX_ENTRY_BYTES))
        bi, slot, before = self._find_edge(src, dst)
        if bi >= 0:
            if tracing:
                self._trace_scan(src, bi + 1, recorder)
            return _InsertOutcome(
                search_chases=bi + 1,
                search_probes=before + slot + 1,
                space_chases=0,
                inserted=False,
                new_block=False,
                lock=NO_LOCK,
            )
        bcnt = int(self._bcnt[src])
        search_probes = int(self._deg[src])
        if tracing:
            self._trace_scan(src, bcnt, recorder)
        boff = int(self._boff[src])
        target = None
        for k in range(bcnt):
            if int(self._blen[int(self._bids[boff + k])]) < BLOCK_CAPACITY:
                target = k
                break
        new_block = False
        if target is None:
            space_chases = bcnt
            self._append_block(src)
            new_block = True
            target = bcnt
        else:
            space_chases = target + 1
        tb = int(self._bids[int(self._boff[src]) + target])
        tslot = int(self._blen[tb])
        self._bnbr[tb * 16 + tslot] = dst
        self._bwgt[tb * 16 + tslot] = weight
        self._blen[tb] = tslot + 1
        self._deg[src] += 1
        if tracing:
            recorder.access(self._entry_address(tb, tslot), write=True)
        return _InsertOutcome(
            search_chases=bcnt,
            search_probes=search_probes,
            space_chases=space_chases,
            inserted=True,
            new_block=new_block,
            lock=self.lock_base + tb,
        )

    def remove(self, src: int, dst: int, recorder) -> _InsertOutcome:
        """Search for ``src -> dst`` and remove it from its block.

        The block's last entry backfills the vacated slot; a tail block
        left empty is unlinked and freed.  Reuses the insert outcome
        record (``new_block`` then means "a block was freed").
        """
        tracing = recorder.enabled
        if tracing:
            recorder.access(self._vertex_array.element(src, VERTEX_ENTRY_BYTES))
        bi, slot, before = self._find_edge(src, dst)
        if bi < 0:
            if tracing:
                self._trace_scan(src, int(self._bcnt[src]), recorder)
            return _InsertOutcome(
                search_chases=int(self._bcnt[src]),
                search_probes=int(self._deg[src]),
                space_chases=0,
                inserted=False,
                new_block=False,
                lock=NO_LOCK,
            )
        if tracing:
            self._trace_scan(src, bi + 1, recorder)
        tb = int(self._bids[int(self._boff[src]) + bi])
        last = int(self._blen[tb]) - 1
        if slot != last:
            self._bnbr[tb * 16 + slot] = self._bnbr[tb * 16 + last]
            self._bwgt[tb * 16 + slot] = self._bwgt[tb * 16 + last]
            if tracing:
                recorder.access(self._entry_address(tb, slot), write=True)
        self._blen[tb] = last
        self._deg[src] -= 1
        freed = False
        if last == 0 and bi == int(self._bcnt[src]) - 1:
            self._bcnt[src] = bi
            self.space.free(
                Region(int(self._block_base[tb]), BLOCK_BYTES, self._block_label)
            )
            freed = True
        return _InsertOutcome(
            search_chases=bi + 1,
            search_probes=before + slot + 1,
            space_chases=0,
            inserted=True,
            new_block=freed,
            lock=self.lock_base + tb,
        )

    def _entry_address(self, block_id: int, slot: int) -> int:
        return (
            int(self._block_base[block_id])
            + BLOCK_HEADER_BYTES
            + slot * ENTRY_BYTES
        )

    def _trace_scan(self, u: int, block_count: int, recorder) -> None:
        boff = int(self._boff[u])
        for k in range(block_count):
            bid = int(self._bids[boff + k])
            base = int(self._block_base[bid])
            recorder.access(base)  # header / next pointer
            recorder.access_range(
                base + BLOCK_HEADER_BYTES,
                int(self._blen[bid]),
                ENTRY_BYTES,
            )

    # -- queries -------------------------------------------------------

    def neighbors(self, u: int) -> List[Tuple[int, float]]:
        boff = int(self._boff[u])
        result: List[Tuple[int, float]] = []
        for k in range(int(self._bcnt[u])):
            bid = int(self._bids[boff + k])
            length = int(self._blen[bid])
            result.extend(
                zip(
                    self._bnbr[bid * 16:bid * 16 + length].tolist(),
                    self._bwgt[bid * 16:bid * 16 + length].tolist(),
                )
            )
        return result

    def degree(self, u: int) -> int:
        return int(self._deg[u])

    def block_count(self, u: int) -> int:
        return int(self._bcnt[u])

    def trace_traversal(self, u: int, recorder) -> None:
        recorder.access(self._vertex_array.element(u, VERTEX_ENTRY_BYTES))
        self._trace_scan(u, int(self._bcnt[u]), recorder)

    def traversals(self, vertices: np.ndarray):
        """:meth:`trace_traversal` of every vertex, in C: ``(counts, addresses)``."""
        entries = self._vertex_array
        limit = min(self.max_nodes, entries.size // VERTEX_ENTRY_BYTES)
        p = self.kernels._p
        return _emit_traversals(
            self.kernels.stinger_traversals,
            vertices,
            (
                limit, entries.base, p(self._boff), p(self._bcnt), p(self._bids),
                p(self._blen), p(self._block_base),
            ),
            lambda i: entries.refuse(int(vertices[i]), VERTEX_ENTRY_BYTES),
        )


def _count_growth_events(store, count: int) -> None:
    """Count one batch's replayed allocation events for ``store``'s structure."""
    if METRICS.enabled and count:
        METRICS.counter(
            "ingest_growth_events_total",
            "allocation-changing kernel events replayed into the address space",
            structure=store.label.partition(".")[0],
        ).inc(count)


class _AccessLog:
    """The access log of one traced kernel call, and its resolution.

    The kernel writes four parallel columns -- task row, region id,
    byte offset in the region, write bit -- naming regions by holder
    (see the head of ``cingest``'s C source): ``rid[holder]`` starts as
    the holder's own index, its *standing* region, and becomes
    ``holders + e`` when event ``e`` replaces the region.  The stores
    say what those ids mean: ``standing`` is their ``(base, limit)``
    columns by holder, taken before the call (the kernel and the replay
    overwrite what they are read from), and :meth:`resolve` takes the
    same for the event regions once the replay has allocated them.
    """

    def __init__(self, store_label: str, standing, mirror_h0: int) -> None:
        self._p = cingest.IngestKernels._p
        self._label = store_label
        self._base, self._limit = standing
        holders = len(self._base)
        self._columns = [
            np.empty(INITIAL_LOG, dtype=dtype)
            for dtype in (np.int64, np.int64, np.int64, np.uint8)
        ]
        self._rid = np.arange(holders, dtype=np.int64)
        self._desc = np.zeros(8, dtype=np.int64)
        self._desc[5:8] = self._p(self._rid), holders, mirror_h0
        self.stalls = 0

    def descriptor(self) -> int:
        """Pointer to the descriptor the kernel unpacks."""
        self._desc[:4] = [self._p(column) for column in self._columns]
        self._desc[4] = len(self._columns[0])
        return self._p(self._desc)

    def grow(self, used: int, need: int) -> None:
        """Make room for ``need`` more rows after the ``used`` written."""
        self.stalls += 1
        size = max(2 * len(self._columns[0]), used + need)
        grown = [np.empty(size, dtype=column.dtype) for column in self._columns]
        for new, old in zip(grown, self._columns):
            new[:used] = old[:used]
        self._columns = grown

    def resolve(self, used: int, event_base, event_limit, recorder) -> None:
        """Turn the first ``used`` rows into addresses, into ``recorder``.

        One gather over [standing | event] regions; an access past its
        region's end raises as ``Region.element`` does.
        """
        task, region, offset, write = (column[:used] for column in self._columns)
        base = np.concatenate((self._base, event_base))
        limit = np.concatenate((self._limit, event_limit))
        over = offset > limit[region]
        if over.any():
            i = int(np.argmax(over))
            raise SimulationError(
                f"access at offset {int(offset[i])} overruns region "
                f"{int(region[i])} of {self._label}, whose last element "
                f"starts at {int(limit[region[i]])}"
            )
        # Copies: the columns are larger than what was written.
        recorder.extend(task.copy(), base[region] + offset, write.astype(bool))
        if METRICS.enabled:
            METRICS.counter(
                "ingest_trace_stalls_total",
                "kernel re-entries after the access log of a traced batch filled up",
                structure=self._label.partition(".")[0],
            ).inc(self.stalls)


def _batch_columns(batch, directed: bool, delete: bool):
    """``(n, src, dst, wgt, rows)`` of one batch for a kernel call:
    contiguous columns and the number of store operations (an
    undirected self-loop has no mirror operation)."""
    src = np.ascontiguousarray(batch.src, dtype=np.int64)
    dst = np.ascontiguousarray(batch.dst, dtype=np.int64)
    if delete:
        wgt = np.empty(1, dtype=np.float64)
    else:
        wgt = np.ascontiguousarray(batch.weight, dtype=np.float64)
    n = len(batch)
    rows = 2 * n if directed else n + int(np.count_nonzero(src != dst))
    return n, src, dst, wgt, rows


def _open_log(out_store, in_store, recorder, spare: int) -> Optional[_AccessLog]:
    """The access log of a traced call over the two stores (``None``
    untraced); the mirror store's holders follow the out store's, and
    each store keeps ``spare`` holders for regions the call may add."""
    if not recorder.enabled:
        return None
    standing = out_store._standing_regions(spare)
    mirror_h0 = 0
    if in_store is not out_store:
        mirror_h0 = len(standing[0])
        mirror = in_store._standing_regions(spare)
        standing = tuple(np.concatenate(pair) for pair in zip(standing, mirror))
    return _AccessLog(out_store.label, standing, mirror_h0)


#: A DAH vertex moves to the high-degree table beyond this many neighbors.
LOW_DEGREE_THRESHOLD = 16

#: Slot sizes for trace-address computation.
LOW_SLOT_BYTES = 8 + LOW_DEGREE_THRESHOLD * 8  # key + inline neighbor array
HIGH_SLOT_BYTES = 16  # key + pointer to the neighbor set
NEIGHBOR_SLOT_BYTES = 8

#: Fibonacci hashing multiplier and 64-bit wrap mask of DAH's tables.
_HASH_MULT = 0x9E3779B97F4A7C15
_HASH_WRAP = 0xFFFFFFFFFFFFFFFF


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


class _NeighborSetView:
    """The hashed neighbor set of one high-degree vertex."""

    __slots__ = ("_store", "_sid")

    def __init__(self, store: "NativeDAHStore", sid: int) -> None:
        self._store = store
        self._sid = sid

    def neighbors(self) -> List[Tuple[int, float]]:
        s = self._store
        off = int(s._soff[self._sid])
        cap = int(s._scap[self._sid])
        keys = s._skeys[off:off + cap]
        live = keys >= 0
        return list(
            zip(keys[live].tolist(), s._swgt[off:off + cap][live].tolist())
        )

    def __len__(self) -> int:
        return int(self._store._ssize[self._sid])


class NativeDAHStore:
    """DAH store: degree-aware hashing (paper Fig. 5).

    Per-chunk Robin Hood low tables (displacement-balanced linear
    probing, backward-shift deletion) and open-address high tables
    (tombstones) live as spans in flat key/value arenas; low-table
    values are ids into a fixed-width inline-neighbor pool, high-table
    values are ids into a neighbor-set arena.  An insert first asks the
    high table, then the low table, which of them owns the source (the
    *degree query*); a vertex outgrowing its inline array is *flushed*
    into a fresh hashed set, and never demotes.  Tables double when an
    insert would pass 0.7 load.  Resizes bump-allocate a doubled span
    (old spans leak -- the arenas are backing storage, not the
    simulated memory, which frees a table's region and allocates the
    doubled one under the same label).
    """

    EMPTY = -1
    TOMB = -2
    INLINE_CAP = LOW_DEGREE_THRESHOLD + 1  # + the slot that triggers the flush
    LOW_INIT = 64
    HIGH_INIT = 16
    SET_INIT = 32

    #: Initial arena sizes (doubled on demand via kernel stalls): low-
    #: and high-table slots, inline arrays, neighbor sets, set slots.
    INITIAL_LOW_ARENA = 1 << 13
    INITIAL_HIGH_ARENA = 1 << 11
    INITIAL_INLINE = 1 << 10
    INITIAL_SETS = 256
    INITIAL_SET_ARENA = 1 << 12

    #: The kernel's family code, and per operation at most two events
    #: (a flush's new set and its high-table resize) and one new holder
    #: (the set).
    FAMILY = 2
    EVENTS_PER_OP = 2
    SPARE_HOLDERS_PER_OP = 1

    def __init__(self, max_nodes: int, chunks: int, space: AddressSpace,
                 label: str,
                 kernels: Optional[cingest.IngestKernels]) -> None:
        self.max_nodes = max_nodes
        self.chunks = chunks
        self.space = space
        self.label = label
        self.kernels = kernels
        low_span = chunks * self.LOW_INIT
        high_span = chunks * self.HIGH_INIT
        self._loff = np.arange(chunks, dtype=np.int64) * self.LOW_INIT
        self._lcap = np.full(chunks, self.LOW_INIT, dtype=np.int64)
        self._lsize = np.zeros(chunks, dtype=np.int64)
        self._lkeys = np.full(
            max(self.INITIAL_LOW_ARENA, 2 * low_span), self.EMPTY, dtype=np.int64
        )
        self._lval = np.zeros(len(self._lkeys), dtype=np.int64)
        self._hoff = np.arange(chunks, dtype=np.int64) * self.HIGH_INIT
        self._hcap = np.full(chunks, self.HIGH_INIT, dtype=np.int64)
        self._hsize = np.zeros(chunks, dtype=np.int64)
        self._hkeys = np.full(
            max(self.INITIAL_HIGH_ARENA, 2 * high_span), self.EMPTY, dtype=np.int64
        )
        self._hval = np.zeros(len(self._hkeys), dtype=np.int64)
        inline_cap = self.INITIAL_INLINE
        self._inl_nbr = np.empty(self.INLINE_CAP * inline_cap, dtype=np.int64)
        self._inl_wgt = np.empty(self.INLINE_CAP * inline_cap, dtype=np.float64)
        self._inl_len = np.zeros(inline_cap, dtype=np.int64)
        self._inl_free = np.zeros(inline_cap, dtype=np.int64)
        meta = self.INITIAL_SETS
        self._soff = np.zeros(meta, dtype=np.int64)
        self._scap = np.zeros(meta, dtype=np.int64)
        self._ssize = np.zeros(meta, dtype=np.int64)
        self._skeys = np.full(self.INITIAL_SET_ARENA, self.EMPTY, dtype=np.int64)
        self._swgt = np.zeros(len(self._skeys), dtype=np.float64)
        self._state = np.zeros(6, dtype=np.int64)
        self._state[0] = low_span
        self._state[1] = high_span
        # Every low table, then every high table.
        self._low_regions = [
            space.alloc(self.LOW_INIT * LOW_SLOT_BYTES, f"{label}.low{c}")
            for c in range(chunks)
        ]
        self._high_regions = [
            space.alloc(self.HIGH_INIT * HIGH_SLOT_BYTES, f"{label}.high{c}")
            for c in range(chunks)
        ]
        self._set_regions: List[Region] = []
        #: ``_set_regions[sid].base`` as a column (sized like the set
        #: meta arrays), for :meth:`traversals`.
        self._set_base = np.zeros(meta, dtype=np.int64)

    # -- arena plumbing ------------------------------------------------

    def descriptor(self) -> np.ndarray:
        """The arrays the kernel reads and writes (C ``dah_unpack``)."""
        p = self.kernels._p
        d = np.empty(26, dtype=np.int64)
        d[0] = self.chunks
        d[1] = p(self._loff); d[2] = p(self._lcap); d[3] = p(self._lsize)
        d[4] = p(self._lkeys); d[5] = p(self._lval); d[6] = len(self._lkeys)
        d[7] = p(self._hoff); d[8] = p(self._hcap); d[9] = p(self._hsize)
        d[10] = p(self._hkeys); d[11] = p(self._hval)
        d[12] = len(self._hkeys)
        d[13] = p(self._inl_nbr); d[14] = p(self._inl_wgt)
        d[15] = p(self._inl_len)
        d[16] = len(self._inl_len)
        d[17] = p(self._inl_free)
        d[18] = p(self._soff); d[19] = p(self._scap); d[20] = p(self._ssize)
        d[21] = len(self._soff)
        d[22] = p(self._skeys); d[23] = p(self._swgt)
        d[24] = len(self._skeys)
        d[25] = p(self._state)
        return d

    @staticmethod
    def _grown(array: np.ndarray, target: int, fill=None) -> np.ndarray:
        size = len(array)
        while size < target:
            size *= 2
        if fill is None:
            grown = np.empty(size, dtype=array.dtype)
        else:
            grown = np.full(size, fill, dtype=array.dtype)
        grown[:len(array)] = array
        return grown

    def _grow_low_arena(self, need: int) -> None:
        target = int(self._state[0]) + need
        self._lkeys = self._grown(self._lkeys, target)
        self._lval = self._grown(self._lval, target)

    def _grow_high_arena(self, need: int) -> None:
        target = int(self._state[1]) + need
        self._hkeys = self._grown(self._hkeys, target)
        self._hval = self._grown(self._hval, target)

    def _grow_inline_pool(self) -> None:
        target = 2 * len(self._inl_len)
        self._inl_nbr = self._grown(self._inl_nbr, self.INLINE_CAP * target)
        self._inl_wgt = self._grown(self._inl_wgt, self.INLINE_CAP * target)
        self._inl_len = self._grown(self._inl_len, target)
        self._inl_free = self._grown(self._inl_free, target)

    def _grow_set_arena(self, need: int) -> None:
        target = int(self._state[4]) + need
        self._skeys = self._grown(self._skeys, target)
        self._swgt = self._grown(self._swgt, target)

    def _grow_set_meta(self) -> None:
        target = 2 * len(self._soff)
        self._soff = self._grown(self._soff, target)
        self._scap = self._grown(self._scap, target)
        self._ssize = self._grown(self._ssize, target)
        self._set_base = self._grown(self._set_base, target)

    def grow(self, resource: int, need: int) -> None:
        """Enlarge what a kernel stalled on: 0 the low-key arena, 1 the
        high-key arena, 3 the set arena, each by ``need`` slots; 2 the
        inline pool, 4 the set metadata arrays."""
        if resource == 0:
            self._grow_low_arena(need)
        elif resource == 1:
            self._grow_high_arena(need)
        elif resource == 2:
            self._grow_inline_pool()
        elif resource == 3:
            self._grow_set_arena(need)
        else:
            self._grow_set_meta()

    def replay_events(self, mirror_store, events):
        """Replay a kernel's table events ``(code, table or set, slots)``
        in order, event by event: ``(base, limit)`` of each one's region.
        ``code & 3`` is the kind (:meth:`_replay_event`); ``code >= 4``
        belongs to ``mirror_store``."""
        base = np.array([
            (mirror_store if code >= 4 else self)._replay_event(code & 3, a, b)
            for code, a, b in events.tolist()
        ], dtype=np.int64)
        return base, (events[:, 2] - 1) * _EVENT_SLOT_BYTES[events[:, 0] & 3]

    def _replay_event(self, kind: int, a: int, b: int) -> int:
        """Account one table event; returns the allocated region's base."""
        if kind == 0:  # low table resized to b slots
            self.space.free(self._low_regions[a])
            region = self._low_regions[a] = self.space.alloc(
                b * LOW_SLOT_BYTES, f"{self.label}.low{a}"
            )
        elif kind == 1:  # high table resized
            self.space.free(self._high_regions[a])
            region = self._high_regions[a] = self.space.alloc(
                b * HIGH_SLOT_BYTES, f"{self.label}.high{a}"
            )
        else:
            if kind == 2:  # set a created (ids are sequential)
                self._set_regions.append(None)
            else:  # set a resized
                self.space.free(self._set_regions[a])
            region = self.space.alloc(
                b * NEIGHBOR_SLOT_BYTES, f"{self.label}.nbr{a}"
            )
            self._set_regions[a] = region
            self._set_base[a] = region.base
        return region.base

    def _standing_regions(self, spare: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(base, limit)`` of this store's regions by holder: every
        chunk's low table, every chunk's high table, every neighbor set,
        then ``spare`` holders for the sets a traced kernel call may
        add.  ``limit`` is the last in-bounds offset of an access (one
        slot of the table)."""
        sets = int(self._state[5])
        tables = self._low_regions + self._high_regions
        slot_bytes = np.repeat([LOW_SLOT_BYTES, HIGH_SLOT_BYTES], self.chunks)
        base = np.zeros(len(tables) + sets + spare, dtype=np.int64)
        limit = np.zeros(len(base), dtype=np.int64)
        base[:len(tables)] = [region.base for region in tables]
        limit[:len(tables)] = [region.size for region in tables] - slot_bytes
        base[len(tables):len(tables) + sets] = self._set_base[:sets]
        limit[len(tables):len(tables) + sets] = (
            self._scap[:sets] - 1
        ) * NEIGHBOR_SLOT_BYTES
        return base, limit

    # -- per-edge operations: table primitives -------------------------
    # Python ints throughout -- the hash multiply must not wrap at 64
    # bits the numpy way before masking.

    @staticmethod
    def _hash(key: int, mask: int) -> int:
        return ((key * _HASH_MULT & _HASH_WRAP) >> 17) & mask

    def _oa_get_path(self, keys, off: int, cap: int, key: int):
        """(slot or None, probe path) of open-address ``get``."""
        mask = cap - 1
        slot = self._hash(key, mask)
        path = []
        for _ in range(cap):
            path.append(slot)
            occ = int(keys[off + slot])
            if occ == self.EMPTY:
                return None, path
            if occ != self.TOMB and occ == key:
                return slot, path
            slot = (slot + 1) & mask
        return None, path

    def _rh_get_path(self, off: int, cap: int, key: int):
        """(slot or None, probe path) of Robin Hood ``get``."""
        keys = self._lkeys
        mask = cap - 1
        slot = self._hash(key, mask)
        distance = 0
        path = []
        while True:
            path.append(slot)
            occ = int(keys[off + slot])
            if occ == self.EMPTY:
                return None, path
            if occ == key:
                return slot, path
            if ((slot - self._hash(occ, mask)) & mask) < distance:
                return None, path
            slot = (slot + 1) & mask
            distance += 1

    def _rh_raw_insert(self, off: int, cap: int, key: int, val: int) -> None:
        keys = self._lkeys
        vals = self._lval
        mask = cap - 1
        slot = self._hash(key, mask)
        cur_key, cur_val, cur_distance = key, val, 0
        while True:
            occ = int(keys[off + slot])
            if occ == self.EMPTY:
                keys[off + slot] = cur_key
                vals[off + slot] = cur_val
                return
            occupant_distance = (slot - self._hash(occ, mask)) & mask
            if occupant_distance < cur_distance:
                keys[off + slot] = cur_key
                cur_key = occ
                vals[off + slot], cur_val = cur_val, int(vals[off + slot])
                cur_distance = occupant_distance
            slot = (slot + 1) & mask
            cur_distance += 1

    def _low_put(self, c: int, key: int, val: int):
        """Robin Hood put with growth; returns (path, resized_moves)."""
        moved = 0
        if 10 * (int(self._lsize[c]) + 1) > 7 * int(self._lcap[c]):
            old_cap = int(self._lcap[c])
            old_off = int(self._loff[c])
            new_cap = old_cap * 2
            self._grow_low_arena(new_cap)
            new_off = int(self._state[0])
            self._lkeys[new_off:new_off + new_cap] = self.EMPTY
            for i in range(old_cap):
                occ = int(self._lkeys[old_off + i])
                if occ == self.EMPTY:
                    continue
                self._rh_raw_insert(
                    new_off, new_cap, occ, int(self._lval[old_off + i])
                )
                moved += 1
            self._state[0] = new_off + new_cap
            self._loff[c] = new_off
            self._lcap[c] = new_cap
            self.space.free(self._low_regions[c])
            self._low_regions[c] = self.space.alloc(
                new_cap * LOW_SLOT_BYTES, f"{self.label}.low{c}"
            )
        off = int(self._loff[c])
        cap = int(self._lcap[c])
        keys = self._lkeys
        vals = self._lval
        mask = cap - 1
        slot = self._hash(key, mask)
        path = []
        cur_key, cur_val, cur_distance = key, val, 0
        while True:
            path.append(slot)
            occ = int(keys[off + slot])
            if occ == self.EMPTY:
                keys[off + slot] = cur_key
                vals[off + slot] = cur_val
                self._lsize[c] += 1
                return path, moved
            occupant_distance = (slot - self._hash(occ, mask)) & mask
            if occupant_distance < cur_distance:
                keys[off + slot] = cur_key
                cur_key = occ
                vals[off + slot], cur_val = cur_val, int(vals[off + slot])
                cur_distance = occupant_distance
            slot = (slot + 1) & mask
            cur_distance += 1

    def _rh_delete(self, c: int, key: int):
        """Backward-shift delete; returns the search path."""
        off = int(self._loff[c])
        cap = int(self._lcap[c])
        slot, path = self._rh_get_path(off, cap, key)
        if slot is None:
            return path
        keys = self._lkeys
        vals = self._lval
        mask = cap - 1
        while True:
            next_slot = (slot + 1) & mask
            occ = int(keys[off + next_slot])
            if occ == self.EMPTY or self._hash(occ, mask) == next_slot:
                break
            keys[off + slot] = occ
            vals[off + slot] = vals[off + next_slot]
            slot = next_slot
        keys[off + slot] = self.EMPTY
        vals[off + slot] = 0
        self._lsize[c] -= 1
        return path

    def _oa_put(self, keys, vals, off: int, cap: int, key: int, val):
        """Open-address put on a span (no growth); returns the path."""
        mask = cap - 1
        slot = self._hash(key, mask)
        path = []
        first_tombstone = None
        for _ in range(cap + 1):
            path.append(slot)
            occ = int(keys[off + slot])
            if occ == self.EMPTY:
                target = first_tombstone if first_tombstone is not None else slot
                keys[off + target] = key
                vals[off + target] = val
                return path
            if occ == self.TOMB and first_tombstone is None:
                first_tombstone = slot
            slot = (slot + 1) & mask
        keys[off + first_tombstone] = key
        vals[off + first_tombstone] = val
        return path

    def _high_put(self, c: int, key: int, sid: int):
        """High-table put with growth; returns (path, resized_moves)."""
        moved = 0
        if 10 * (int(self._hsize[c]) + 1) > 7 * int(self._hcap[c]):
            old_cap = int(self._hcap[c])
            old_off = int(self._hoff[c])
            new_cap = old_cap * 2
            self._grow_high_arena(new_cap)
            new_off = int(self._state[1])
            self._hkeys[new_off:new_off + new_cap] = self.EMPTY
            mask = new_cap - 1
            for i in range(old_cap):
                occ = int(self._hkeys[old_off + i])
                if occ < 0:  # empty or tombstone
                    continue
                slot = self._hash(occ, mask)
                while int(self._hkeys[new_off + slot]) != self.EMPTY:
                    slot = (slot + 1) & mask
                self._hkeys[new_off + slot] = occ
                self._hval[new_off + slot] = self._hval[old_off + i]
                moved += 1
            self._hsize[c] = moved
            self._state[1] = new_off + new_cap
            self._hoff[c] = new_off
            self._hcap[c] = new_cap
            self.space.free(self._high_regions[c])
            self._high_regions[c] = self.space.alloc(
                new_cap * HIGH_SLOT_BYTES, f"{self.label}.high{c}"
            )
        path = self._oa_put(
            self._hkeys, self._hval, int(self._hoff[c]), int(self._hcap[c]),
            key, sid,
        )
        self._hsize[c] += 1
        return path, moved

    def _set_put(self, sid: int, key: int, weight: float):
        """Neighbor-set put with growth; returns (path, resized_moves)."""
        moved = 0
        if 10 * (int(self._ssize[sid]) + 1) > 7 * int(self._scap[sid]):
            old_cap = int(self._scap[sid])
            old_off = int(self._soff[sid])
            new_cap = old_cap * 2
            self._grow_set_arena(new_cap)
            new_off = int(self._state[4])
            self._skeys[new_off:new_off + new_cap] = self.EMPTY
            mask = new_cap - 1
            for i in range(old_cap):
                occ = int(self._skeys[old_off + i])
                if occ < 0:
                    continue
                slot = self._hash(occ, mask)
                while int(self._skeys[new_off + slot]) != self.EMPTY:
                    slot = (slot + 1) & mask
                self._skeys[new_off + slot] = occ
                self._swgt[new_off + slot] = self._swgt[old_off + i]
                moved += 1
            self._ssize[sid] = moved
            self._state[4] = new_off + new_cap
            self._soff[sid] = new_off
            self._scap[sid] = new_cap
            self._replay_event(3, sid, new_cap)
        path = self._oa_put(
            self._skeys, self._swgt, int(self._soff[sid]),
            int(self._scap[sid]), key, weight,
        )
        self._ssize[sid] += 1
        return path, moved

    def _new_set(self) -> int:
        if int(self._state[5]) >= len(self._soff):
            self._grow_set_meta()
        if int(self._state[4]) + self.SET_INIT > len(self._skeys):
            self._grow_set_arena(self.SET_INIT)
        sid = int(self._state[5])
        self._state[5] = sid + 1
        off = int(self._state[4])
        self._state[4] = off + self.SET_INIT
        self._soff[sid] = off
        self._scap[sid] = self.SET_INIT
        self._ssize[sid] = 0
        self._skeys[off:off + self.SET_INIT] = self.EMPTY
        self._replay_event(2, sid, self.SET_INIT)
        return sid

    def _alloc_inline(self) -> int:
        top = int(self._state[3])
        if top > 0:
            self._state[3] = top - 1
            return int(self._inl_free[top - 1])
        if int(self._state[2]) >= len(self._inl_len):
            self._grow_inline_pool()
        iid = int(self._state[2])
        self._state[2] = iid + 1
        return iid

    def _free_inline(self, iid: int) -> None:
        top = int(self._state[3])
        self._inl_free[top] = iid
        self._state[3] = top + 1

    @staticmethod
    def _trace_path(region: Region, slot_bytes: int, path, recorder,
                    write_last: bool = False) -> None:
        if not recorder.enabled:
            return
        last = len(path) - 1
        for i, slot in enumerate(path):
            recorder.access(
                region.element(slot, slot_bytes),
                write=write_last and i == last,
            )

    # -- per-edge operations: the store --------------------------------

    def _set_insert(self, sid: int, dst: int, weight: float, recorder,
                    stats) -> bool:
        gslot, path = self._oa_get_path(
            self._skeys, int(self._soff[sid]), int(self._scap[sid]), dst
        )
        stats.hash_ops += 1
        stats.table_probes += len(path)
        self._trace_path(
            self._set_regions[sid], NEIGHBOR_SLOT_BYTES, path, recorder
        )
        if gslot is not None:
            return False
        path, moved = self._set_put(sid, dst, weight)
        stats.hash_ops += 1
        stats.table_probes += len(path)
        stats.rehash_moves += moved
        self._trace_path(
            self._set_regions[sid], NEIGHBOR_SLOT_BYTES, path, recorder,
            write_last=True,
        )
        return True

    def insert(self, src: int, dst: int, weight: float, recorder) -> _InsertStats:
        """Degree-aware search-then-insert of ``src -> dst``."""
        stats = _InsertStats()
        c = src % self.chunks
        stats.degree_queries += 1
        hslot, path = self._oa_get_path(
            self._hkeys, int(self._hoff[c]), int(self._hcap[c]), src
        )
        stats.hash_ops += 1
        stats.table_probes += len(path)
        self._trace_path(self._high_regions[c], HIGH_SLOT_BYTES, path, recorder)
        if hslot is not None:
            sid = int(self._hval[int(self._hoff[c]) + hslot])
            stats.inserted = self._set_insert(sid, dst, weight, recorder, stats)
            return stats

        stats.degree_queries += 1
        lslot, path = self._rh_get_path(
            int(self._loff[c]), int(self._lcap[c]), src
        )
        stats.hash_ops += 1
        stats.table_probes += len(path)
        self._trace_path(self._low_regions[c], LOW_SLOT_BYTES, path, recorder)
        if lslot is None:
            iid = self._alloc_inline()
            self._inl_len[iid] = 1
            self._inl_nbr[iid * self.INLINE_CAP] = dst
            self._inl_wgt[iid * self.INLINE_CAP] = weight
            path, moved = self._low_put(c, src, iid)
            stats.hash_ops += 1
            stats.table_probes += len(path)
            stats.rehash_moves += moved
            self._trace_path(
                self._low_regions[c], LOW_SLOT_BYTES, path, recorder,
                write_last=True,
            )
            stats.inserted = True
            return stats

        iid = int(self._lval[int(self._loff[c]) + lslot])
        length = int(self._inl_len[iid])
        base = iid * self.INLINE_CAP
        for i in range(length):
            stats.inline_scanned = i + 1
            if int(self._inl_nbr[base + i]) == dst:
                return stats  # duplicate
        stats.inline_scanned = length
        self._inl_nbr[base + length] = dst
        self._inl_wgt[base + length] = weight
        self._inl_len[iid] = length + 1
        stats.inserted = True
        if length + 1 <= LOW_DEGREE_THRESHOLD:
            return stats

        # Flush: src outgrew the inline array; migrate to the high table.
        path = self._rh_delete(c, src)
        stats.table_probes += len(path)
        sid = self._new_set()
        for j in range(length + 1):
            self._set_insert(
                sid,
                int(self._inl_nbr[base + j]),
                float(self._inl_wgt[base + j]),
                recorder,
                stats,
            )
            stats.flushed += 1
        path, moved = self._high_put(c, src, sid)
        stats.hash_ops += 1
        stats.table_probes += len(path)
        stats.rehash_moves += moved
        self._trace_path(
            self._high_regions[c], HIGH_SLOT_BYTES, path, recorder,
            write_last=True,
        )
        self._free_inline(iid)
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
        c = src % self.chunks
        stats.degree_queries += 1
        hslot, path = self._oa_get_path(
            self._hkeys, int(self._hoff[c]), int(self._hcap[c]), src
        )
        stats.hash_ops += 1
        stats.table_probes += len(path)
        self._trace_path(self._high_regions[c], HIGH_SLOT_BYTES, path, recorder)
        if hslot is not None:
            sid = int(self._hval[int(self._hoff[c]) + hslot])
            off = int(self._soff[sid])
            gslot, path = self._oa_get_path(
                self._skeys, off, int(self._scap[sid]), dst
            )
            stats.hash_ops += 1
            stats.table_probes += len(path)
            found = gslot is not None
            self._trace_path(
                self._set_regions[sid], NEIGHBOR_SLOT_BYTES, path, recorder,
                write_last=found,
            )
            if found:
                self._skeys[off + gslot] = self.TOMB
                self._swgt[off + gslot] = 0.0
                self._ssize[sid] -= 1
                stats.inserted = True
            return stats

        stats.degree_queries += 1
        lslot, path = self._rh_get_path(
            int(self._loff[c]), int(self._lcap[c]), src
        )
        stats.hash_ops += 1
        stats.table_probes += len(path)
        self._trace_path(self._low_regions[c], LOW_SLOT_BYTES, path, recorder)
        if lslot is None:
            return stats
        iid = int(self._lval[int(self._loff[c]) + lslot])
        length = int(self._inl_len[iid])
        base = iid * self.INLINE_CAP
        for index in range(length):
            stats.inline_scanned = index + 1
            if int(self._inl_nbr[base + index]) == dst:
                self._inl_nbr[base + index] = self._inl_nbr[base + length - 1]
                self._inl_wgt[base + index] = self._inl_wgt[base + length - 1]
                self._inl_len[iid] = length - 1
                stats.inserted = True
                if length - 1 == 0:
                    path = self._rh_delete(c, src)
                    stats.table_probes += len(path)
                    self._free_inline(iid)
                return stats
        return stats

    # -- queries -------------------------------------------------------

    def chunk_of(self, u: int) -> int:
        return u % self.chunks

    def _oa_find(self, keys, off: int, cap: int, key: int) -> Optional[int]:
        mask = cap - 1
        slot = self._hash(key, mask)
        for _ in range(cap):
            occ = int(keys[off + slot])
            if occ == self.EMPTY:
                return None
            if occ != self.TOMB and occ == key:
                return slot
            slot = (slot + 1) & mask
        return None

    def _lookup(self, u: int):
        """(container, is_high) for ``u``; container may be None."""
        c = u % self.chunks
        hslot = self._oa_find(
            self._hkeys, int(self._hoff[c]), int(self._hcap[c]), u
        )
        if hslot is not None:
            sid = int(self._hval[int(self._hoff[c]) + hslot])
            return _NeighborSetView(self, sid), True
        lslot, _ = self._rh_get_path(
            int(self._loff[c]), int(self._lcap[c]), u
        )
        if lslot is not None:
            iid = int(self._lval[int(self._loff[c]) + lslot])
            length = int(self._inl_len[iid])
            base = iid * self.INLINE_CAP
            return (
                list(
                    zip(
                        self._inl_nbr[base:base + length].tolist(),
                        self._inl_wgt[base:base + length].tolist(),
                    )
                ),
                False,
            )
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
        c = u % self.chunks
        hslot, path = self._oa_get_path(
            self._hkeys, int(self._hoff[c]), int(self._hcap[c]), u
        )
        self._trace_path(self._high_regions[c], HIGH_SLOT_BYTES, path, recorder)
        if hslot is not None:
            sid = int(self._hval[int(self._hoff[c]) + hslot])
            recorder.access_range(
                self._set_regions[sid].base,
                int(self._scap[sid]),
                NEIGHBOR_SLOT_BYTES,
            )
            return
        _, path = self._rh_get_path(int(self._loff[c]), int(self._lcap[c]), u)
        self._trace_path(self._low_regions[c], LOW_SLOT_BYTES, path, recorder)

    def traversals(self, vertices: np.ndarray):
        """:meth:`trace_traversal` of every vertex, in C: ``(counts, addresses)``."""
        tables = self._low_regions + self._high_regions
        base = np.array([region.base for region in tables], dtype=np.int64)
        end = np.array([region.end for region in tables], dtype=np.int64)
        refused = np.zeros(2, dtype=np.int64)  # (table, slot) of an overrun
        desc = self.descriptor()
        p = self.kernels._p

        def overrun(_position):
            table, slot = refused.tolist()
            slot_bytes = LOW_SLOT_BYTES if table < self.chunks else HIGH_SLOT_BYTES
            tables[table].refuse(slot, slot_bytes)

        return _emit_traversals(
            self.kernels.dah_traversals,
            vertices,
            (p(desc), p(base), p(end), p(self._set_base), p(refused)),
            overrun,
        )


#: Slot bytes of the table a DAH event (``code & 3``) allocates.
_EVENT_SLOT_BYTES = np.array(
    [LOW_SLOT_BYTES, HIGH_SLOT_BYTES, NEIGHBOR_SLOT_BYTES, NEIGHBOR_SLOT_BYTES],
    dtype=np.int64,
)


def native_ingest(out_store, in_store, batch, directed, delete, recorder, columns):
    """The whole batch through the compiled batch loop.

    Operation for operation what the per-edge loop over ``insert`` /
    ``remove`` does -- the same store mutations in the same order, the
    same simulated-memory layout (the kernel's events replayed in call
    order), the same accesses into an enabled ``recorder``.
    ``in_store`` is the out store itself for undirected graphs.
    Returns ``(positive, block)``: ``block`` is the int64 ``(len(columns),
    rows)`` array of the ``columns`` counts, one row per store operation.
    """
    kernels = out_store.kernels
    p = kernels._p
    n, src, dst, wgt, rows = _batch_columns(batch, directed, delete)
    block = np.zeros((len(columns), rows), dtype=np.int64)
    events = np.zeros(3 * out_store.EVENTS_PER_OP * (rows + 1), dtype=np.int64)
    ctl = np.zeros(10, dtype=np.int64)
    spare = out_store.SPARE_HOLDERS_PER_OP * rows
    log = _open_log(out_store, in_store, recorder, spare)
    with TRACER.span("ingest.ckernel"):
        while True:
            # Fresh descriptors: a grow replaces the arrays they point at.
            out_desc, in_desc = out_store.descriptor(), in_store.descriptor()
            rc = kernels.ingest(
                out_store.FAMILY, n, p(src), p(dst), p(wgt), int(directed), int(delete),
                p(out_desc), p(in_desc), p(block), p(events), p(ctl),
                log.descriptor() if log is not None else None,
            )
            if rc == cingest.OK:
                break
            if rc == cingest.STALL:
                stalled = in_store if ctl[5] else out_store
                stalled.grow(int(ctl[6]), int(ctl[7]))
            elif rc == cingest.LOG_FULL:
                log.grow(int(ctl[8]), int(ctl[9]))
            else:
                raise SimulationError(
                    "ingest kernel logged more accesses than it reserved"
                )
    count = int(ctl[4])
    with TRACER.span("ingest.replay"):
        event_base, event_limit = out_store.replay_events(
            in_store, events[:3 * count].reshape(count, 3)
        )
        if log is not None:
            log.resolve(int(ctl[8]), event_base, event_limit, recorder)
    _count_growth_events(out_store, count)
    return int(ctl[3]), block

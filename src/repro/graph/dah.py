"""DAH: degree-aware hashing (Section III-A4, Fig. 5).

Each chunk of DAH owns two hash tables:

- a **low-degree table** (Robin Hood hashing) whose slots hold a vertex
  key plus a small inline array of neighbors, and
- a **high-degree table** (open addressing) mapping a vertex to a
  growable hashed neighbor set.

An edge insert first performs the *degree query* meta-operation to
decide which table owns the source vertex; when a vertex in the
low-degree table outgrows its inline array, its edges are *flushed* to
the high-degree table.  Hashing gives amortized O(1) insertion -- the
reason DAH is the most scalable structure for heavy-tailed batches --
but the meta-operations make it the slowest updater on short-tailed
ones, and hashed neighbor retrieval makes its compute phase the most
expensive of the four structures (Section V-B).

Chunks are single-threaded and lockless, like AC.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import StructureError
from repro.graph.adjacency_chunked import chunk_overhead_array
from repro.graph.base import ExecutionContext, GraphDataStructure
from repro.graph.hashtables import (
    _EMPTY,
    _HASH_MULT,
    _HASH_WRAP,
    OpenAddressTable,
    RobinHoodTable,
)
from repro.graph.nativestore import make_dah_store, native_dah_ingest
from repro.sim.memory import AddressSpace, Region
from repro.sim.scheduler import ChunkedScheduler, ScheduleResult, TaskArray

#: A vertex moves to the high-degree table beyond this many neighbors.
LOW_DEGREE_THRESHOLD = 16

#: Slot sizes for trace-address computation.
LOW_SLOT_BYTES = 8 + LOW_DEGREE_THRESHOLD * 8  # key + inline neighbor array
HIGH_SLOT_BYTES = 16  # key + pointer to the neighbor set
NEIGHBOR_SLOT_BYTES = 8

#: Default chunk count; matches the paper's 64 hardware threads.
DEFAULT_CHUNKS = 64


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


class _DAHEmitter:
    """Columnar task emitter for DAH: hash meta-operation counts."""

    __slots__ = (
        "_out",
        "_in",
        "_cost",
        "_chunks",
        "_delete",
        "_directed",
        "table_probes",
        "hash_ops",
        "inline_scanned",
        "degree_queries",
        "flushed",
        "rehash_moves",
        "hit",
        "chunk",
    )

    def __init__(self, structure: "DegreeAwareHash", delete: bool) -> None:
        self._out = structure._out
        self._in = structure._in
        self._cost = structure.cost
        self._chunks = structure.chunks
        self._delete = delete
        self._directed = structure.directed
        self.table_probes: List[int] = []
        self.hash_ops: List[int] = []
        self.inline_scanned: List[int] = []
        self.degree_queries: List[int] = []
        self.flushed: List[int] = []
        self.rehash_moves: List[int] = []
        self.hit: List[bool] = []
        self.chunk: List[int] = []

    @property
    def rows(self) -> int:
        return len(self.table_probes)

    def ingest_batch(self, batch) -> int:
        """Fused untraced ingest via the tables' path-free fast ops.

        Resizing puts re-sync the table's simulated region immediately
        (the per-edge path syncs inside ``trace_path``), keeping the
        address-space allocation sequence identical for later traces.
        """
        directed = self._directed
        out = self._out
        mirror_store = self._in if directed else out
        if getattr(out, "native", False):
            (
                positive,
                self.table_probes,
                self.hash_ops,
                self.inline_scanned,
                self.degree_queries,
                self.flushed,
                self.rehash_moves,
                self.hit,
                self.chunk,
            ) = native_dah_ingest(
                out, mirror_store, batch, directed, self._delete
            )
            return positive
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
        chunks = self._chunks
        app_probes = self.table_probes.append
        app_ops = self.hash_ops.append
        app_inline = self.inline_scanned.append
        app_deg = self.degree_queries.append
        app_flush = self.flushed.append
        app_rehash = self.rehash_moves.append
        app_hit = self.hit.append
        app_chunk = self.chunk.append
        out_row = (
            out._high,
            out._low,
            [h.table for h in out._high],
            [lo.table for lo in out._low],
            out,
        )
        mirror_row = (
            mirror_store._high,
            mirror_store._low,
            [h.table for h in mirror_store._high],
            [lo.table for lo in mirror_store._low],
            mirror_store,
        )
        for u, v, w in zip(src, dst, weight):
            s = u
            d = v
            row = out_row
            mirrored = False
            while True:
                highs, lows, high_tables, low_tables, store = row
                chunk = s % chunks
                high_table = high_tables[chunk]
                # First-probe fast path: the overwhelmingly common case
                # is an immediate hit or an empty home slot; fall back to
                # the full probe loop on any collision (a tombstone never
                # compares equal to an int key, so it falls through too).
                hkeys = high_table._keys
                hmask = len(hkeys) - 1
                hslot = ((s * _HASH_MULT & _HASH_WRAP) >> 17) & hmask
                occupant = hkeys[hslot]
                if occupant is _EMPTY:
                    value = None
                    probes = 1
                    found = False
                elif occupant == s:
                    value = high_table._values[hslot]
                    probes = 1
                    found = True
                else:
                    value, probes, found = high_table.get_fast(s)
                hash_ops = 1
                table_probes = probes
                inline_scanned = 0
                degree_queries = 1
                flushed = 0
                rehash_moves = 0
                inserted = False
                if found:
                    neighbor_table = value.table
                    nkeys = neighbor_table._keys
                    nmask = len(nkeys) - 1
                    occupant = nkeys[((d * _HASH_MULT & _HASH_WRAP) >> 17) & nmask]
                    if occupant is _EMPTY:
                        probes = 1
                        duplicate = False
                    elif occupant == d:
                        probes = 1
                        duplicate = True
                    else:
                        _, probes, duplicate = neighbor_table.get_fast(d)
                    hash_ops = 2
                    table_probes += probes
                    if not duplicate:
                        probes, moves, _ = neighbor_table.put_fast(d, w)
                        hash_ops = 3
                        table_probes += probes
                        if moves:
                            rehash_moves = moves
                            value.tracked._sync_region()
                        inserted = True
                else:
                    low_table = low_tables[chunk]
                    degree_queries = 2
                    lkeys = low_table._keys
                    lmask = len(lkeys) - 1
                    lslot = ((s * _HASH_MULT & _HASH_WRAP) >> 17) & lmask
                    occupant = lkeys[lslot]
                    if occupant is _EMPTY:
                        inline = None
                        probes = 1
                        found_low = False
                    elif occupant == s:
                        inline = low_table._values[lslot]
                        probes = 1
                        found_low = True
                    else:
                        inline, probes, found_low = low_table.get_fast(s)
                    hash_ops = 2
                    table_probes += probes
                    if not found_low:
                        probes, moves, _ = low_table.put_fast(s, [(d, w)])
                        hash_ops = 3
                        table_probes += probes
                        if moves:
                            rehash_moves = moves
                            lows[chunk]._sync_region()
                        inserted = True
                    else:
                        duplicate = False
                        for j, (existing, _w) in enumerate(inline):
                            inline_scanned = j + 1
                            if existing == d:
                                duplicate = True
                                break
                        if not duplicate:
                            inline_scanned = len(inline)
                            inline.append((d, w))
                            inserted = True
                            if len(inline) > LOW_DEGREE_THRESHOLD:
                                probes, _found = low_table.delete_fast(s)
                                table_probes += probes
                                neighbor_set = _NeighborSet(
                                    store.space, f"{store.label}.nbr{store._set_count}"
                                )
                                store._set_count += 1
                                neighbor_table = neighbor_set.table
                                for flushed_dst, flushed_weight in inline:
                                    _, probes, duplicate = neighbor_table.get_fast(
                                        flushed_dst
                                    )
                                    hash_ops += 1
                                    table_probes += probes
                                    if not duplicate:
                                        probes, moves, _ = neighbor_table.put_fast(
                                            flushed_dst, flushed_weight
                                        )
                                        hash_ops += 1
                                        table_probes += probes
                                        if moves:
                                            rehash_moves += moves
                                            neighbor_set.tracked._sync_region()
                                    flushed += 1
                                probes, moves, _ = high_table.put_fast(s, neighbor_set)
                                hash_ops += 1
                                table_probes += probes
                                if moves:
                                    rehash_moves += moves
                                    highs[chunk]._sync_region()
                app_probes(table_probes)
                app_ops(hash_ops)
                app_inline(inline_scanned)
                app_deg(degree_queries)
                app_flush(flushed)
                app_rehash(rehash_moves)
                app_hit(inserted)
                app_chunk(chunk)
                if not mirrored and inserted:
                    positive += 1
                if mirrored or (u == v and not directed):
                    break
                mirrored = True
                s = v
                d = u
                row = mirror_row
        return positive

    def _fused_remove(self, store, src, dst) -> bool:
        """``_DAHStore.remove`` inlined with fast table ops, no stats."""
        chunk = src % self._chunks
        high = store._high[chunk]
        value, probes, found = high.table.get_fast(src)
        hash_ops = 1
        table_probes = probes
        inline_scanned = 0
        degree_queries = 1
        removed = False
        if found:
            probes, was_present = value.table.delete_fast(dst)
            hash_ops += 1
            table_probes += probes
            removed = was_present
        else:
            low = store._low[chunk]
            degree_queries = 2
            inline, probes, found_low = low.table.get_fast(src)
            hash_ops += 1
            table_probes += probes
            if found_low:
                for index, (existing, _w) in enumerate(inline):
                    inline_scanned = index + 1
                    if existing == dst:
                        inline[index] = inline[-1]
                        inline.pop()
                        removed = True
                        if not inline:
                            probes, _found = low.table.delete_fast(src)
                            table_probes += probes
                        break
        self.table_probes.append(table_probes)
        self.hash_ops.append(hash_ops)
        self.inline_scanned.append(inline_scanned)
        self.degree_queries.append(degree_queries)
        self.flushed.append(0)
        self.rehash_moves.append(0)
        self.hit.append(removed)
        self.chunk.append(chunk)
        return removed

    def insert_out(self, src, dst, weight, recorder) -> bool:
        return self._record(self._out.insert(src, dst, weight, recorder), src)

    def insert_in(self, src, dst, weight, recorder) -> bool:
        return self._record(self._in.insert(src, dst, weight, recorder), src)

    def delete_out(self, src, dst, recorder) -> bool:
        return self._record(self._out.remove(src, dst, recorder), src)

    def delete_in(self, src, dst, recorder) -> bool:
        return self._record(self._in.remove(src, dst, recorder), src)

    def _record(self, stats: _InsertStats, src) -> bool:
        self.table_probes.append(stats.table_probes)
        self.hash_ops.append(stats.hash_ops)
        self.inline_scanned.append(stats.inline_scanned)
        self.degree_queries.append(stats.degree_queries)
        self.flushed.append(stats.flushed)
        self.rehash_moves.append(stats.rehash_moves)
        self.hit.append(stats.inserted)
        self.chunk.append(src % self._chunks)
        return stats.inserted

    def finish(self, batch_size: int) -> TaskArray:
        cost = self._cost
        work = (
            cost.hash_compute * np.asarray(self.hash_ops, dtype=np.float64)
            + cost.hash_probe * np.asarray(self.table_probes, dtype=np.float64)
            + cost.probe_element * np.asarray(self.inline_scanned, dtype=np.float64)
            + cost.degree_query * np.asarray(self.degree_queries, dtype=np.float64)
        )
        if not self._delete:
            work += cost.flush_per_edge * np.asarray(self.flushed, dtype=np.float64)
            work += cost.rehash_per_element * np.asarray(
                self.rehash_moves, dtype=np.float64
            )
        hit = np.asarray(self.hit, dtype=bool)
        work[hit] += cost.insert_slot
        edges = TaskArray.build(
            self.rows,
            unlocked_work=work,
            chunk=np.asarray(self.chunk, dtype=np.int64),
        )
        return TaskArray.concatenate(
            [edges, chunk_overhead_array(cost, batch_size, self._chunks)]
        )


class DegreeAwareHash(GraphDataStructure):
    """The paper's DAH data structure."""

    name = "DAH"

    def __init__(
        self,
        max_nodes,
        directed=True,
        cost_model=None,
        address_space=None,
        chunks: int = DEFAULT_CHUNKS,
    ):
        from repro.sim.cost_model import DEFAULT_COST_MODEL

        super().__init__(
            max_nodes,
            directed=directed,
            cost_model=cost_model or DEFAULT_COST_MODEL,
            address_space=address_space,
        )
        if chunks < 1:
            raise StructureError(f"chunks must be >= 1, got {chunks}")
        self.chunks = chunks
        self._out = make_dah_store(max_nodes, chunks, self.space, "DAH.out")
        self._in = (
            make_dah_store(max_nodes, chunks, self.space, "DAH.in")
            if directed
            else None
        )

    # -- mutation ------------------------------------------------------

    def _make_emitter(self, delete: bool) -> _DAHEmitter:
        return _DAHEmitter(self, delete)

    def _schedule(self, tasks: TaskArray, ctx: ExecutionContext) -> ScheduleResult:
        scheduler = ChunkedScheduler(
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
        base = cost.degree_query + cost.hash_compute + cost.hash_probe
        degree = store.degree(u)
        if store.is_high_degree(u):
            # Sparse enumeration of the hashed neighbor set.
            return base + cost.hash_iterate_slot * degree
        # Inline array: contiguous, but behind a hashed lookup.
        return base + cost.probe_element * degree

    def degree_query_cost(self) -> float:
        """Degree lookups require a table meta-query (Section III-A4)."""
        return self.cost.degree_query + self.cost.hash_probe

    @staticmethod
    def vector_traversal_cost(degrees, cost):
        """Vectorized traversal cost over a degree array.

        A vertex lives in the high-degree table exactly when its degree
        exceeds :data:`LOW_DEGREE_THRESHOLD` (the flush is triggered on
        the insert that crosses it).
        """
        base = cost.degree_query + cost.hash_compute + cost.hash_probe
        high = degrees > LOW_DEGREE_THRESHOLD
        per_neighbor = np.where(high, cost.hash_iterate_slot, cost.probe_element)
        return base + per_neighbor * degrees

    def _trace_traversal(self, u: int, recorder, out: bool) -> None:
        store = self._out if out else self._in
        store.trace_traversal(u, recorder)

    def _trace_traversals(self, vertices, out: bool):
        store = self._out if out else self._in
        if getattr(store, "native", False):
            return store.trace_traversals(vertices)
        return super()._trace_traversals(vertices, out)

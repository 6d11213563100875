"""Shared vocabulary of the vector-family stores (AS, AC and BA).

All three store, per vertex, a contiguous growable run of
``(neighbor, weight)`` entries; they differ in multithreading style
(per-vertex locks vs lockless chunks) and in how growth is accounted.
This module holds what their stores (:mod:`repro.graph.nativestore`)
and structures agree on: the simulated entry/header layout, the
primitive counts one store operation reports and their pricing, and the
row order of a batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Bytes of one (neighbor, weight) entry: 4B id + 4B weight, packed.
ENTRY_BYTES = 8

#: Bytes of one per-vertex header (pointer, size, capacity, lock word).
HEADER_BYTES = 16

#: Initial capacity of a vertex's neighbor vector.
INITIAL_CAPACITY = 4


#: The count columns of one store operation, in the kernel's order: the
#: fields of :class:`InsertOutcome` (aux: grew_from) and
#: :class:`RemoveOutcome` (aux: moved).
COLUMNS = ("scanned", "hit", "aux")


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


def vector_scan_work(cost, delete, scanned, hit, aux) -> np.ndarray:
    """Per-operation cycles of vector-store scans (AS, AC; BA's inserts).

    Term by term: the probe charge per scanned slot, then the slot
    charge on changed rows, then the grow (insert) or backfill (delete)
    charge.
    """
    work = cost.probe_element * np.asarray(scanned, dtype=np.float64)
    hit = np.asarray(hit, dtype=bool)
    aux = np.asarray(aux, dtype=np.int64)
    if delete:
        work[hit] += cost.insert_slot * (1 + aux[hit])  # clear + backfill
    else:
        work[hit] += cost.insert_slot
        work[hit] += cost.vector_grow_per_element * aux[hit].astype(np.float64)
    return work


def row_layout(src, dst, directed):
    """Per-row source vertex and mirror flag for one batch.

    Rows appear in ingest order -- each edge's out-store operation,
    then its mirror operation (skipped for undirected self-loops) -- on
    both ingest paths, so per-row columns that depend only on the batch
    content (lock and chunk ids) are built vectorized from it.
    ``row_src`` is int64: lock and chunk ids are computed from it.
    """
    src, dst = np.asarray(src), np.asarray(dst)
    n = len(src)
    if directed:
        row_src = np.empty(2 * n, dtype=np.int64)
        row_src[0::2] = src
        row_src[1::2] = dst
        mirror = np.zeros(2 * n, dtype=bool)
        mirror[1::2] = True
        return row_src, mirror
    mirrored = src != dst
    starts = np.zeros(n, dtype=np.int64)
    np.cumsum(1 + mirrored[:-1], out=starts[1:])
    row_src = np.empty(n + int(np.count_nonzero(mirrored)), dtype=np.int64)
    mirror = np.zeros(len(row_src), dtype=bool)
    row_src[starts] = src
    mirror_rows = starts[mirrored] + 1
    row_src[mirror_rows] = dst[mirrored]
    mirror[mirror_rows] = True
    return row_src, mirror

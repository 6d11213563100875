"""The live graph's edges: a slack CSR pair under edge deltas.

These stores are the one record of
:class:`~repro.graph.reference.ReferenceGraph`'s edges -- its adjacency
and its membership test, read by its per-vertex API and exported
zero-copy to the compute kernels; nothing else holds an edge.

:class:`DynamicCSR`
    A "slack CSR": per-row ``starts``/``lens``/``caps`` (int32) plus a
    shared column heap (``cols`` int32 / ``wts`` float32, the widths of
    :mod:`repro.widths`; 8 bytes per entry, 16 per directed edge for
    the out/in pair).  The heap holds fewer than 2**31 slots, so that
    every offset into it is an int32: a rebuild, compaction or heap
    growth that would reach that is refused before it changes anything.
    Rows keep capacity slack, so an append is usually an in-place
    write; a row that overflows relocates
    to the heap's end with doubled capacity (amortized O(1) per edge),
    leaving its old extent behind as a *tombstone* -- dead heap space
    reclaimed by compaction.  Deletions shift the row's tail left
    (order-preserving), turning freed slots into reusable row slack
    rather than tombstones.  Per-row neighbor order is the
    chronological insertion order (a deleted and reinserted neighbor
    moves to the row's end) -- the order ``csr_from_edges`` produces
    and a dict-of-dicts adjacency iterates, so every kernel is
    bit-identical to the ``tests/oracles.py`` graph.  ``lens[:n]`` is
    the degree array the pricing reads.  :meth:`DynamicCSR.lookup`
    answers membership for a batch of pairs by scanning only the rows
    they name.  Each mutator and the lookup is one call into the native
    library (:mod:`repro.compute.ckernels`) when it is loaded -- an
    insert two, a plan and an apply, with the heap grown here by
    :meth:`DynamicCSR._grow_heap` in between -- and its numpy body
    otherwise; the body is the reference the kernel must match field
    for field.

:class:`ViewMaintainer`
    Owns the out/in pair (one store, aliased, for undirected graphs)
    and folds each collect's kept ``(inserted, removed)`` columns into a
    fresh :class:`~repro.compute.kernels.ComputeView`.  The first
    apply's inserted columns are the whole edge list, so it packs them
    with one stable sort (:meth:`DynamicCSR.rebuild`); when a later
    apply's delta exceeds :data:`DEFAULT_CHURN_THRESHOLD` of the live
    edge count the fold is followed by :meth:`DynamicCSR.compact`, which
    repacks the store's own rows.  Emits ``csrstore.apply`` spans and the
    ``compute_view_build_seconds`` / ``compute_view_update_seconds`` /
    ``compute_view_rebuilds_total`` observability series.

The exported view aliases the store's live arrays (zero-copy) and is
valid until the next :meth:`ViewMaintainer.apply`; within a batch
every algorithm x model run of the driver sees one consistent
snapshot.  Each apply bumps :attr:`ViewMaintainer.version`
and stamps it on the view, so staleness is detectable.  ``packed`` is
true exactly when every store's heap is tight (just rebuilt or
compacted, nothing folded since).
"""

from __future__ import annotations

import time

import numpy as np

from repro.compute import ckernels
from repro.compute.kernels import ComputeView, CSRArrays, flat_slots
from repro.errors import StructureError
from repro.obs.metrics import METRICS
from repro.obs.tracer import TRACER
from repro.widths import (
    SLOT,
    SLOT_LIMIT,
    VERTEX,
    WEIGHT,
    check_slot_extent,
    check_vertex_space,
)

#: Churn threshold: repack when a batch's inserts + deletes exceed this
#: fraction of the live edge count (0 would repack every batch).
DEFAULT_CHURN_THRESHOLD = 0.5

#: Compact the heap when tombstoned space exceeds half the used extent
#: (and the heap is big enough for compaction to matter).
COMPACT_DEAD_FRACTION = 0.5
COMPACT_MIN_USED = 4096


def check_packable(max_nodes: int) -> None:
    """Reject a ``max_nodes`` whose packed edge keys overflow ``int64``.

    The delete and the lookup, numpy bodies and kernels alike, pack
    ``(u, v)`` as ``u * max_nodes + v`` in int64 (ids are int32, so each
    is widened first: :func:`pair_keys`); the largest key is
    ``max_nodes ** 2 - 1``, and numpy wraps silently.
    """
    if max_nodes < 1:
        raise StructureError(f"max_nodes must be >= 1, got {max_nodes}")
    if max_nodes**2 >= 2**63:
        raise StructureError(
            f"max_nodes {max_nodes} too large: packed edge keys "
            "(src * max_nodes + dst) would overflow int64"
        )


def pair_keys(keys: np.ndarray, vals: np.ndarray, max_nodes: int) -> np.ndarray:
    """The packed int64 keys ``keys * max_nodes + vals`` of id columns.

    Widened before the multiply: an int32 column times a Python int
    stays int32 under numpy's promotion rules and wraps.
    """
    return keys.astype(np.int64) * max_nodes + vals.astype(np.int64)


class DynamicCSR:
    """One adjacency direction as a slack CSR under edge deltas.

    ``keys`` are the grouping vertex (src for the out-direction, dst
    for in); ``vals`` the other endpoint.  All public methods take
    whole delta arrays: one native call, or a constant number of numpy
    ops.
    """

    __slots__ = (
        "max_nodes",
        "starts",
        "lens",
        "caps",
        "cols",
        "wts",
        "used",
        "dead",
        "live",
        "tight",
    )

    def __init__(self, max_nodes: int) -> None:
        check_packable(max_nodes)
        check_vertex_space(max_nodes)
        self.max_nodes = max_nodes
        self.starts = np.zeros(max_nodes, dtype=SLOT)
        self.lens = np.zeros(max_nodes, dtype=SLOT)
        self.caps = np.zeros(max_nodes, dtype=SLOT)
        self.cols = np.empty(0, dtype=VERTEX)
        self.wts = np.empty(0, dtype=WEIGHT)
        self.used = 0  # heap extent handed out (live + dead + slack)
        self.dead = 0  # tombstoned slots from row relocations
        self.live = 0  # live edges
        #: Heap is exactly the live edges in row-major order: set by
        #: rebuild/compact, cleared by any insert or delete.
        self.tight = True

    # -- full rebuild ---------------------------------------------------

    @TRACER.layer("csrstore.rebuild")
    def rebuild(self, keys: np.ndarray, vals: np.ndarray, wts: np.ndarray) -> None:
        """Tight repack from a full edge list (chronological order).

        The stable grouping sort reproduces ``csr_from_edges`` exactly:
        per-row order equals the edge list's chronological order.  Old
        exported arrays are left untouched (the new heap is fresh), so
        a previous batch's view stays a consistent snapshot.
        """
        check_slot_extent(len(keys), "the CSR heap")
        kernels = ckernels.get()
        if kernels is not None:
            return kernels.csr_rebuild(self, keys, vals, wts)
        order = np.argsort(keys, kind="stable")
        counts = np.bincount(keys, minlength=self.max_nodes).astype(SLOT)
        self.starts = np.cumsum(counts, dtype=SLOT) - counts
        self.lens = counts
        self.caps = counts.copy()
        self.cols = vals[order].astype(VERTEX, copy=False)
        self.wts = wts[order].astype(WEIGHT, copy=False)
        self.used = self.live = int(len(keys))
        self.dead = 0
        self.tight = True

    # -- incremental deltas ---------------------------------------------

    def _grow_heap(self, extra: int) -> None:
        needed = self.used + extra
        check_slot_extent(needed, "the CSR heap")
        if needed <= len(self.cols):
            return
        capacity = min(max(len(self.cols) * 2, needed, 1024), SLOT_LIMIT - 1)
        for name, dtype in (("cols", VERTEX), ("wts", WEIGHT)):
            old = getattr(self, name)
            grown = np.empty(capacity, dtype=dtype)
            grown[: self.used] = old[: self.used]
            setattr(self, name, grown)

    def insert(self, keys: np.ndarray, vals: np.ndarray, wts: np.ndarray) -> None:
        """Append ``(key, val, wt)`` edges preserving chronological order."""
        m = len(keys)
        if m == 0:
            return
        kernels = ckernels.get()
        if kernels is not None:
            return kernels.csr_insert(self, keys, vals, wts)
        order = np.argsort(keys, kind="stable")
        k_sorted = keys[order]
        rows, first, add = np.unique(k_sorted, return_index=True, return_counts=True)
        need = self.lens[rows] + add
        over = need > self.caps[rows]
        if over.any():
            # Relocate overflowing rows to the heap's end with doubled
            # capacity; the old extents become tombstones.
            rows_over = rows[over]
            old_starts = self.starts[rows_over]
            old_lens = self.lens[rows_over]
            # Widened: twice a capacity may not fit a slot.
            new_caps = np.maximum(
                np.maximum(self.caps[rows_over].astype(np.int64) * 2, need[over]), 4
            )
            total_new = int(new_caps.sum())
            self._grow_heap(total_new)
            new_starts = self.used + np.cumsum(new_caps) - new_caps
            src_flat = flat_slots(old_starts, old_lens)
            dst_flat = flat_slots(new_starts, old_lens)
            self.cols[dst_flat] = self.cols[src_flat]
            self.wts[dst_flat] = self.wts[src_flat]
            self.dead += int(self.caps[rows_over].sum())
            self.starts[rows_over] = new_starts
            self.caps[rows_over] = new_caps
            self.used += total_new
        # Scatter the new entries behind each row's current tail, in
        # chronological (stable-sorted) order within each row.
        within = np.arange(m, dtype=np.int64) - np.repeat(first, add)
        dest = np.repeat(self.starts[rows] + self.lens[rows], add) + within
        self.cols[dest] = vals[order]
        self.wts[dest] = wts[order]
        self.lens[rows] += add
        self.live += m
        self.tight = False

    def delete(self, keys: np.ndarray, vals: np.ndarray) -> int:
        """Remove ``(key, val)`` pairs, preserving surviving row order.

        Freed slots stay behind each row's tail as reusable slack (not
        tombstones).  Returns the number of edges removed.
        """
        if len(keys) == 0 or self.live == 0:
            return 0
        kernels = ckernels.get()
        if kernels is not None:
            return kernels.csr_delete(self, keys, vals)
        rows = np.unique(keys)
        counts = self.lens[rows]
        total = int(counts.sum())
        if total == 0:
            return 0
        seg = np.repeat(np.arange(len(rows), dtype=np.int64), counts)
        flat = flat_slots(self.starts[rows], counts)
        # Packed (row, col) membership against the deletion set; the
        # reference graph guarantees (src, dst) uniqueness, so each
        # requested pair matches at most one slot.
        slot_key = pair_keys(rows[seg], self.cols[flat], self.max_nodes)
        del_key = pair_keys(keys, vals, self.max_nodes)
        keep = ~np.isin(slot_key, del_key)
        removed = total - int(keep.sum())
        if removed == 0:
            return 0
        kept_counts = np.bincount(seg[keep], minlength=len(rows)).astype(np.int64)
        src_flat = flat[keep]
        dst_flat = flat_slots(self.starts[rows], kept_counts)
        self.cols[dst_flat] = self.cols[src_flat]
        self.wts[dst_flat] = self.wts[src_flat]
        self.lens[rows] = kept_counts
        self.live -= removed
        self.tight = False
        return removed

    def lookup(self, keys: np.ndarray, vals: np.ndarray):
        """Where each ``(key, val)`` pair stands: ``(first, live, weight)``.

        ``first[i]``: row ``i`` is the first of the batch to name its
        pair; ``live[i]``: the pair is in the store, ``weight[i]`` then
        its stored weight (0.0 otherwise; of a pair stored twice, the
        older entry's).  Each distinct named row is scanned once.
        Changes nothing.
        """
        kernels = ckernels.get()
        if kernels is not None:
            return kernels.csr_lookup(self, keys, vals)
        keys = np.asarray(keys)
        pairs = pair_keys(keys, np.asarray(vals), self.max_nodes)
        distinct, at, inverse = np.unique(pairs, return_index=True, return_inverse=True)
        first = np.zeros(len(keys), dtype=bool)
        first[at] = True
        rows = np.unique(keys)
        counts = self.lens[rows]
        flat = flat_slots(self.starts[rows], counts)
        # The live pairs of the named rows, sorted, row order kept.
        slot_pairs = pair_keys(np.repeat(rows, counts), self.cols[flat], self.max_nodes)
        order = np.argsort(slot_pairs, kind="stable")
        found = np.zeros(len(distinct), dtype=bool)
        stored = np.zeros(len(distinct), dtype=WEIGHT)
        if len(order):
            where = np.searchsorted(slot_pairs, distinct, sorter=order)
            near = order[np.minimum(where, len(order) - 1)]
            found = slot_pairs[near] == distinct
            stored[found] = self.wts[flat[near[found]]]
        return first, found[inverse], stored[inverse]

    # -- maintenance ----------------------------------------------------

    def needs_compaction(self) -> bool:
        return (
            self.used > COMPACT_MIN_USED
            and self.dead > self.used * COMPACT_DEAD_FRACTION
        )

    @TRACER.layer("csrstore.compact")
    def compact(self) -> None:
        """Repack the heap tight, dropping tombstones and slack."""
        check_slot_extent(self.live, "the CSR heap")
        kernels = ckernels.get()
        if kernels is not None:
            return kernels.csr_compact(self)
        flat = flat_slots(self.starts, self.lens)
        counts = self.lens
        self.cols = self.cols[flat]
        self.wts = self.wts[flat]
        self.starts = np.cumsum(counts, dtype=SLOT) - counts
        self.caps = counts.copy()
        self.used = self.live
        self.dead = 0
        self.tight = True

    # -- export ---------------------------------------------------------

    def export(self, num_nodes: int) -> CSRArrays:
        """Zero-copy CSR view of the first ``num_nodes`` rows.

        ``indptr``/``degrees`` are views into the live arrays and the
        heap may hold slack between rows, so the result is a *slack*
        CSR: valid for every row-addressed kernel (they index
        ``indptr[v]`` + ``degrees[v]``), not for code assuming
        ``indices`` is packed edge-dense (see ``ComputeView.packed``).
        """
        return CSRArrays(
            indptr=self.starts[:num_nodes],
            indices=self.cols,
            weights=self.wts,
            degrees=self.lens[:num_nodes],
        )

    def check_against(self, reference_csr: CSRArrays, num_nodes: int) -> bool:
        """Row-for-row equality with a packed CSR, widths included (test
        helper)."""
        ours = (self.starts, self.lens, self.cols, self.wts)
        theirs = (reference_csr.indptr, reference_csr.degrees, reference_csr.indices,
                  reference_csr.weights)  # fmt: skip
        if [a.dtype for a in ours] != [a.dtype for a in theirs]:
            return False
        if not np.array_equal(self.lens[:num_nodes], reference_csr.degrees):
            return False
        flat = flat_slots(self.starts[:num_nodes], self.lens[:num_nodes])
        return np.array_equal(self.cols[flat], reference_csr.indices) and np.array_equal(
            self.wts[flat], reference_csr.weights
        )


class ViewMaintainer:
    """Owner of the live graph's CSR directions under edge deltas.

    An undirected graph holds one adjacency: ``inc`` is ``out``.  Its
    deltas arrive with each edge followed by its reverse, which makes
    the by-source and by-destination row orders identical, so folding
    them once by source serves both directions.
    """

    def __init__(self, max_nodes: int, directed: bool = True) -> None:
        self.max_nodes = max_nodes
        self.out = DynamicCSR(max_nodes)
        self.inc = DynamicCSR(max_nodes) if directed else self.out
        self.version = 0
        self.builds = 0  # tight repacks, including the seed build
        self.rebuilds = 0  # churn-triggered repacks only
        self.updates = 0  # incremental applies
        self.compactions = 0  # tombstone compactions

    def _observe(self, metric: str, help_text: str, seconds: float) -> None:
        if METRICS.enabled:
            METRICS.histogram(metric, help_text).observe(seconds)

    @TRACER.layer("csrstore.apply")
    def apply(
        self,
        ins_src: np.ndarray,
        ins_dst: np.ndarray,
        ins_wt: np.ndarray,
        rem_src: np.ndarray,
        rem_dst: np.ndarray,
        num_nodes: int,
    ) -> ComputeView:
        """Fold one mutation's deltas in and export the ComputeView.

        ``ins_*``/``rem_*`` are the actually-inserted and
        actually-removed incidence arrays (both orientations already
        interleaved for undirected graphs), applied inserts first.
        Above the churn threshold the folded stores are repacked tight.
        """
        delta = len(ins_src) + len(rem_src)
        live = self.out.live
        repack = live == 0 or delta > DEFAULT_CHURN_THRESHOLD * live
        self.version += 1
        folds = [(self.out, ins_src, ins_dst, rem_src, rem_dst)]
        if self.inc is not self.out:
            folds.append((self.inc, ins_dst, ins_src, rem_dst, rem_src))
        started = time.perf_counter()
        for store, ins_keys, ins_vals, rem_keys, rem_vals in folds:
            if live == 0:
                store.rebuild(ins_keys, ins_vals, ins_wt)
            else:
                store.insert(ins_keys, ins_vals, ins_wt)
            store.delete(rem_keys, rem_vals)
            if repack and not store.tight:
                store.compact()
            elif store.needs_compaction():
                store.compact()
                self.compactions += 1
                if METRICS.enabled:
                    METRICS.counter(
                        "compute_view_compactions_total",
                        "tombstone compactions of the CSR heap",
                    ).inc()
        if repack:
            self.builds += 1
            if live:
                self.rebuilds += 1
                if METRICS.enabled:
                    METRICS.counter(
                        "compute_view_rebuilds_total",
                        "churn-triggered full CSR rebuilds",
                    ).inc()
            self._observe(
                "compute_view_build_seconds",
                "full CSR (re)build time per batch",
                time.perf_counter() - started,
            )
        else:
            self.updates += 1
            self._observe(
                "compute_view_update_seconds",
                "incremental CSR delta-apply time per batch",
                time.perf_counter() - started,
            )
        view = ComputeView(
            num_nodes,
            out_csr=self.out.export(num_nodes),
            in_csr=self.inc.export(num_nodes),
            packed=self.out.tight and self.inc.tight,
        )
        view.version = self.version
        return view

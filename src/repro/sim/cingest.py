"""Compiled C batch-ingest kernels for the update phase.

The stores of :mod:`repro.graph.nativestore` keep their whole state in
flat numpy arrays and define every operation per edge in Python.  This
module compiles the batch loop over those operations: one exported
``saga_ingest`` runs the *entire* batch -- each edge's out operation,
then its mirror -- and calls the store family's insert or delete
operation (duplicate scans, slot writes, segment relocations, block
chases, hash probes) over the same arrays.  The families differ only
in those operations and in the int64 descriptor each store passes; the
loop, its resume protocol (the ``ctl[10]`` block described at the head
of the loop's section in the C source), the access log and the event
log are written once.  The per-operation counts come back as one int64
block of shape ``(columns, rows)`` -- the fields of the per-edge
methods' outcome records -- which the structure then prices with
vectorized arithmetic.  Results are bit-identical to the per-edge
methods.

The kernels mutate raw arrays, but simulated-memory accounting
(``AddressSpace`` regions, segment pools, table regions) stays in
Python: any operation that would allocate or free simulated memory
appends a compact *event* to an event log, and the store replays the
log after the C call in the exact order the allocations happened, so
the bump-allocated address space is laid out identically to the
per-edge path.  When a kernel runs out of backing storage (a growth
needs more pool than preallocated) it *stalls*: it returns mid-batch
with a resume cursor, Python grows the numpy pool, and the kernel is
re-entered at the stalled operation.

A traced batch takes the same call.  Handed an access-log descriptor,
a kernel also writes every memory access the per-edge methods would
have emitted -- task row, region, byte offset, write bit -- into
caller-owned columns, naming regions symbolically (the addresses exist
only once the event log is replayed); the store resolves the log with
one gather after the replay.  The log is one more stall-and-grow
resource.  See the comment at the head of the C source.

The library also emits the compute phase's structure reads: per family
one *traversal emitter* walks the same arrays -- vector spans, block
lists, DAH's probe paths by the ingest operations' own ``oa_get`` /
``rh_get`` -- for a whole vertex array, and fills the ``(counts,
addresses)`` of ``trace_in_traversal`` / ``trace_out_traversal``.

This source is one part of the native library (:mod:`repro.sim.cbuild`).
When it is not loaded (no C compiler, a failed build,
``SAGA_BENCH_NO_NATIVE=1``) the structures build the same stores and
never call it: every batch runs the stores' per-edge methods, and every
traversal the store's per-vertex ``trace_traversal``.
"""

from __future__ import annotations

import ctypes

import numpy as np

from repro.sim.cbuild import NATIVE

#: Kernel return codes: done; an arena is too small (``ctl[5..7]``: the
#: store, the resource, the need); the access log needs ``ctl[9]`` more
#: rows; an operation logged more accesses than it had asked room for
#: (a kernel defect).
OK = 0
STALL = 1
LOG_FULL = 2
LOG_OVERRUN = 3

_SOURCE = r"""
#include <stdint.h>

/* ------------------------------------------------------------------ *
 * The access log of a traced batch.
 *
 * With a log descriptor the kernel writes, per memory access the
 * per-edge methods would emit, the task row, the region, the byte
 * offset in it and the write bit into four caller-owned columns.  A
 * null descriptor means untraced: nothing below runs.
 *
 * Simulated addresses are only known after the event log is replayed,
 * so regions are named symbolically.  Every region an operation can
 * touch has a *holder* (a store's header array, a vertex's vector, an
 * edge block, a chunk's low or high table, a neighbor set), and
 * rid[holder] is the id of the region the holder currently has: its
 * own index until an event replaces the region, ev0 + e once event e
 * has.  An access therefore names the region that was current when it
 * was made, and the caller resolves the whole log with one gather
 * over [standing regions | event regions].
 *
 * Descriptor: [0..3] the four columns, [4] their capacity, [5] rid,
 * [6] ev0, [7] first holder of the mirror store.
 *
 * The log is one more stall-and-grow resource.  An operation asks for
 * room (lg_room) before it logs, and for the worst case of everything
 * it may still log before it mutates anything; without room it
 * returns LOG_FULL with the need in ctl[9].  A stalled operation's
 * partial log is rewound to its first access (save_stall), so the
 * re-entered operation starts clean.  lg_put past the capacity -- an
 * operation outrunning its own bound -- is dropped and reported as
 * LOG_OVERRUN.
 * ------------------------------------------------------------------ */

#define RC_OK 0
#define RC_STALL 1
#define RC_LOG_FULL 2
#define RC_LOG_OVERRUN 3

typedef struct {
    int64_t *task;      /* NULL = untraced */
    int64_t *region;
    int64_t *offset;
    uint8_t *write;
    int64_t  cap;
    int64_t  n;         /* cursor */
    int64_t *rid;
    int64_t  ev0;
    int64_t  need;
    int64_t  overrun;
} AccessLog;

static void lg_open(AccessLog *lg, const int64_t *d, const int64_t *ctl)
{
    lg->task = 0; lg->cap = 0; lg->n = 0; lg->need = 0; lg->overrun = 0;
    if (!d) return;
    lg->task = (int64_t *)d[0]; lg->region = (int64_t *)d[1];
    lg->offset = (int64_t *)d[2]; lg->write = (uint8_t *)d[3];
    lg->cap = d[4];
    lg->rid = (int64_t *)d[5];
    lg->ev0 = d[6];
    lg->n = ctl[8];
}

static int lg_room(AccessLog *lg, int64_t k)
{
    if (!lg->task || lg->n + k <= lg->cap) return 1;
    lg->need = k;
    return 0;
}

static void lg_put(AccessLog *lg, int64_t task, int64_t holder,
                   int64_t offset, int write)
{
    if (!lg->task) return;
    if (lg->n >= lg->cap) { lg->overrun = 1; return; }
    lg->task[lg->n] = task;
    lg->region[lg->n] = lg->rid[holder];
    lg->offset[lg->n] = offset;
    lg->write[lg->n] = (uint8_t)write;
    lg->n++;
}

/* count reads at first, first + stride, ... */
static void lg_run(AccessLog *lg, int64_t task, int64_t holder,
                   int64_t first, int64_t count, int64_t stride)
{
    if (!lg->task) return;
    for (int64_t k = 0; k < count; k++)
        lg_put(lg, task, holder, first + k * stride, 0);
}

/* A linear probe path of `count` slots from slot0; the last one is a
 * write when write_last. */
static void lg_path(AccessLog *lg, int64_t task, int64_t holder,
                    int64_t slot0, int64_t mask, int64_t count,
                    int64_t slot_bytes, int write_last)
{
    if (!lg->task) return;
    for (int64_t k = 0; k < count; k++)
        lg_put(lg, task, holder, ((slot0 + k) & mask) * slot_bytes,
               write_last && k == count - 1);
}

/* ------------------------------------------------------------------ *
 * The batch loop (saga_ingest, after the three families' sections).
 *
 * Per edge of the batch, the out op on the out store (u -> v), then
 * the mirror op on the in store (v -> u; the out store itself when
 * undirected), skipped for an undirected self-loop; row r of the
 * output is the r-th operation.  The family's *_insert_op /
 * *_delete_op writes its counts into column k of its row,
 * cols[k * rows + row]: one int64 block, the structure's columns.
 * Each store arrives as one int64 descriptor of pointers and
 * capacities, unpacked by its family's *_unpack.
 *
 * Control block ctl[10]: [0] resume edge index, [1] resume half (0 =
 * out op next, 1 = mirror op next), [2] output row cursor, [3]
 * positive count (out ops that changed the store), [4] event count,
 * [5] stalled store (0 = out, 1 = in), [6] stalled resource, [7] its
 * need, [8] access-log cursor, [9] log need.  Returns RC_OK when the
 * batch is done; RC_STALL when an operation needs more backing storage
 * than the store's arena has -- re-enter after growing resource ctl[6]
 * of store ctl[5] by ctl[7] -- and RC_LOG_FULL when the access log
 * needs ctl[9] more rows.  Every operation checks for room before it
 * mutates anything, so the re-entered operation runs cleanly.
 *
 * Allocation-changing operations append an event (code, a, b) each;
 * Python replays them in order into the simulated address space.
 * ------------------------------------------------------------------ */

typedef struct {
    int64_t *cols;      /* column k of row r at cols[k * rows + r] */
    int64_t  rows;
    int64_t  row;
    int64_t  mirror;    /* 0: out op, 1: mirror op */
    int64_t *events;
    int64_t  ec;        /* event count */
    int64_t  resource;  /* a stall's resource and need */
    int64_t  need;
    AccessLog lg;
} Batch;

#define COL(k) bt->cols[(k) * bt->rows + bt->row]

static int stall(Batch *bt, int64_t resource, int64_t need)
{
    bt->resource = resource;
    bt->need = need;
    return RC_STALL;
}

/* Append event (code, a, b); `holder` (-1: none) gets the region the
 * event allocates. */
static void log_event(Batch *bt, int64_t code, int64_t a, int64_t b,
                      int64_t holder)
{
    int64_t *e = bt->events + 3 * bt->ec;
    e[0] = code; e[1] = a; e[2] = b;
    if (bt->lg.task && holder >= 0) bt->lg.rid[holder] = bt->lg.ev0 + bt->ec;
    bt->ec++;
}

/* Leave through a stall: resume cursor, stalled store and resource,
 * and the log rewound to `mark`, the stalled operation's first access. */
static int64_t save_stall(int64_t *ctl, int64_t rc, int64_t i, int64_t half,
                          int64_t positive, Batch *bt, int64_t mark)
{
    ctl[0] = i; ctl[1] = half; ctl[2] = bt->row; ctl[3] = positive;
    ctl[4] = bt->ec; ctl[5] = half; ctl[6] = bt->resource; ctl[7] = bt->need;
    ctl[8] = mark; ctl[9] = bt->lg.need;
    return bt->lg.overrun ? RC_LOG_OVERRUN : rc;
}

/* ------------------------------------------------------------------ *
 * Traversal emitters (one per family, at the end of its section).
 *
 * GraphDataStructure.trace_in_traversal / trace_out_traversal of a
 * whole vertex array: per vertex, the reads the store's per-vertex
 * trace_traversal emits, their number into counts[] and the addresses
 * back to back into addresses[].  A first call with addresses NULL
 * fills counts[] only, so the caller sizes addresses[] exactly for the
 * second.  Addresses are region bases plus byte offsets -- the integer
 * arithmetic of Region.element -- and an access Region.element would
 * refuse stops the emitter, which returns the position of its vertex
 * (-1: none) for the caller to raise from.
 * ------------------------------------------------------------------ */

/* count addresses first, first + stride, ... at out[w] (out NULL: none) */
static void emit_run(int64_t *out, int64_t w, int64_t first, int64_t count,
                     int64_t stride)
{
    if (!out) return;
    for (int64_t k = 0; k < count; k++) out[w + k] = first + k * stride;
}

/* ------------------------------------------------------------------ *
 * Vector-family ingest (AS, AC, BA).
 *
 * Store state: one flat (neighbor, weight) pool per store plus
 * per-vertex (offset, length, capacity) arrays.  A vertex's vector is
 * pool[off .. off+len); growth bump-allocates a doubled span at the
 * pool cursor (state[0]) and copies -- mirroring the alloc-then-free
 * (AS/AC) or pool-acquire-then-release (BA) of the Python stores,
 * which is replayed from the event log: one (mirror, vertex, newcap)
 * triple per growth.  Its one stall resource: 0 = the pool, need =
 * the slots of the doubled span.  Columns: scanned, hit, aux.
 *
 * Traced, an operation logs what NativeVectorStore.insert / .remove
 * emit: the vertex's header, the scanned entries of the region it had
 * during the scan, and the slot write (insert: the new entry, in the
 * grown region if it grew; remove: the backfilled hole) -- at most
 * len + 2 accesses.  Holders: h0 = the header array, h0 + 1 + u =
 * vertex u's vector.
 * ------------------------------------------------------------------ */

#define VEC_MIN_CAPACITY 4
#define VEC_ENTRY_BYTES 8
#define VEC_HEADER_BYTES 16

typedef struct {
    int64_t *off;
    int64_t *len;
    int64_t *cap;
    int64_t *nbr;
    double  *wgt;
    int64_t *state;     /* [0] = pool cursor */
    int64_t  pool_cap;
    int64_t  h0;        /* first holder of this store */
} VecStore;

/* See _PooledVectorState.descriptor(). */
static void vec_unpack(const int64_t *d, VecStore *s)
{
    s->off = (int64_t *)d[0]; s->len = (int64_t *)d[1];
    s->cap = (int64_t *)d[2]; s->nbr = (int64_t *)d[3];
    s->wgt = (double *)d[4]; s->state = (int64_t *)d[5];
    s->pool_cap = d[6];
}

/* The search scan both operations start with: position of v in u's
 * vector (-1 when absent), header and scanned entries logged. */
static int64_t vec_scan(VecStore *s, int64_t u, int64_t v, int64_t row,
                        AccessLog *lg)
{
    int64_t len = s->len[u];
    int64_t pos = -1;
    const int64_t *nbr = s->nbr + s->off[u];
    for (int64_t k = 0; k < len; k++) {
        if (nbr[k] == v) { pos = k; break; }
    }
    lg_put(lg, row, s->h0, u * VEC_HEADER_BYTES, 0);
    lg_run(lg, row, s->h0 + 1 + u, 0, pos >= 0 ? pos + 1 : len,
           VEC_ENTRY_BYTES);
    return pos;
}

/* One search-then-insert; returns RC_OK, RC_STALL or RC_LOG_FULL. */
static __attribute__((noinline)) int
vec_insert_op(VecStore *s, int64_t u, int64_t v, double w, Batch *bt)
{
    AccessLog *lg = &bt->lg;
    int64_t off = s->off[u];
    int64_t len = s->len[u];
    if (!lg_room(lg, len + 2)) return RC_LOG_FULL;
    int64_t pos = vec_scan(s, u, v, bt->row, lg);
    if (pos >= 0) {
        COL(0) = pos + 1;
        COL(1) = 0;
        COL(2) = 0;
        return RC_OK;
    }
    int64_t grew = 0;
    if (len == s->cap[u]) {
        int64_t newcap = s->cap[u] ? s->cap[u] * 2 : VEC_MIN_CAPACITY;
        if (s->state[0] + newcap > s->pool_cap) return stall(bt, 0, newcap);
        int64_t noff = s->state[0];
        for (int64_t k = 0; k < len; k++) {
            s->nbr[noff + k] = s->nbr[off + k];
            s->wgt[noff + k] = s->wgt[off + k];
        }
        s->state[0] += newcap;
        s->off[u] = noff;
        s->cap[u] = newcap;
        off = noff;
        grew = len;
        log_event(bt, bt->mirror, u, newcap, s->h0 + 1 + u);
    }
    s->nbr[off + len] = v;
    s->wgt[off + len] = w;
    s->len[u] = len + 1;
    lg_put(lg, bt->row, s->h0 + 1 + u, len * VEC_ENTRY_BYTES, 1);
    COL(0) = len;
    COL(1) = 1;
    COL(2) = grew;
    return RC_OK;
}

/* One search-then-remove; allocates nothing, so only the log stalls it. */
static __attribute__((noinline)) int
vec_delete_op(VecStore *s, int64_t u, int64_t v, Batch *bt)
{
    AccessLog *lg = &bt->lg;
    int64_t off = s->off[u];
    int64_t len = s->len[u];
    if (!lg_room(lg, len + 2)) return RC_LOG_FULL;
    int64_t pos = vec_scan(s, u, v, bt->row, lg);
    if (pos < 0) {
        COL(0) = len;
        COL(1) = 0;
        COL(2) = 0;
        return RC_OK;
    }
    COL(0) = pos + 1;
    int64_t moved = 0;
    if (pos != len - 1) {
        s->nbr[off + pos] = s->nbr[off + len - 1];
        s->wgt[off + pos] = s->wgt[off + len - 1];
        moved = 1;
        lg_put(lg, bt->row, s->h0 + 1 + u, pos * VEC_ENTRY_BYTES, 1);
    }
    s->len[u] = len - 1;
    COL(1) = 1;
    COL(2) = moved;
    return RC_OK;
}

/* Traversal emitter: per vertex its header, then its len entries from
 * its region's base.  A vertex outside [0, limit) has no header. */
int64_t saga_vec_traversals(
    int64_t n, const int64_t *vertices, int64_t limit, int64_t header_base,
    const int64_t *len, const int64_t *region_base,
    int64_t *counts, int64_t *addresses)
{
    int64_t w = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t u = vertices[i];
        if (u < 0 || u >= limit) return i;
        emit_run(addresses, w, header_base + u * VEC_HEADER_BYTES, 1, 0);
        emit_run(addresses, w + 1, region_base[u], len[u], VEC_ENTRY_BYTES);
        counts[i] = 1 + len[u];
        w += counts[i];
    }
    return -1;
}

/* ------------------------------------------------------------------ *
 * Stinger ingest: linked 16-entry edge blocks with fine locks.
 *
 * Store state: a block pool (16-slot neighbor/weight rows plus a fill
 * count, block id == pool slot, ids never reused so state[1] is both
 * the next id and the pool cursor), a flat block-id pool holding each
 * vertex's block list as a (offset, count, capacity) span, and a
 * per-vertex degree array.  Region accounting replays from events:
 * code = mirror*2 + (0 = block allocated, 1 = tail block freed).
 * Stall resources: 0 = the block-id pool (need: the slots of a list's
 * doubled span), 1 = the block pool.  Columns: search chases, search
 * probes, space chases, hit, new block, lock.
 *
 * Traced, an operation logs what NativeStingerStore.insert / .remove
 * emit: the vertex-array entry, per scanned block its header and its
 * entries, and the slot write (insert: the new entry; remove: the
 * backfilled hole) -- at most 2 + blocks + degree accesses.  Holders:
 * h0 = the vertex array, h0 + 1 + id = block id.
 * ------------------------------------------------------------------ */

#define ST_BLOCK_CAPACITY 16
#define ST_MIN_LIST 4
#define ST_VERTEX_BYTES 16
#define ST_HEADER_BYTES 16
#define ST_ENTRY_BYTES 8

typedef struct {
    int64_t  lock_base;
    int64_t  no_lock;
    int64_t *boff;
    int64_t *bcnt;
    int64_t *bcap;
    int64_t *deg;
    int64_t *bids;
    int64_t  bids_cap;
    int64_t *bnbr;
    double  *bwgt;
    int64_t *blen;
    int64_t  blk_cap;
    int64_t *state;   /* [0] = bid-pool cursor, [1] = next block id */
    int64_t  h0;      /* first holder of this store */
} StStore;

/* See NativeStingerStore.descriptor(). */
static void st_unpack(const int64_t *d, StStore *s)
{
    s->lock_base = d[0]; s->no_lock = d[1];
    s->boff = (int64_t *)d[2]; s->bcnt = (int64_t *)d[3];
    s->bcap = (int64_t *)d[4]; s->deg = (int64_t *)d[5];
    s->bids = (int64_t *)d[6]; s->bids_cap = d[7];
    s->bnbr = (int64_t *)d[8]; s->bwgt = (double *)d[9];
    s->blen = (int64_t *)d[10]; s->blk_cap = d[11];
    s->state = (int64_t *)d[12];
}

/* Search scan shared by insert and remove: finds (block index, slot)
 * of v and the probe count up to it; -1 block index when absent.  The
 * vertex entry and every block the scan reads are logged. */
static void st_find(const StStore *s, int64_t u, int64_t v, int64_t row,
                    AccessLog *lg, int64_t *found_bi, int64_t *found_slot,
                    int64_t *probes_before)
{
    const int64_t *bids = s->bids + s->boff[u];
    int64_t bcnt = s->bcnt[u];
    int64_t acc = 0;
    *found_bi = -1;
    *found_slot = -1;
    lg_put(lg, row, s->h0, u * ST_VERTEX_BYTES, 0);
    for (int64_t bi = 0; bi < bcnt && *found_bi < 0; bi++) {
        int64_t bid = bids[bi];
        int64_t len = s->blen[bid];
        const int64_t *nbr = s->bnbr + bid * ST_BLOCK_CAPACITY;
        lg_put(lg, row, s->h0 + 1 + bid, 0, 0);  /* header / next pointer */
        lg_run(lg, row, s->h0 + 1 + bid, ST_HEADER_BYTES, len,
               ST_ENTRY_BYTES);
        for (int64_t slot = 0; slot < len; slot++) {
            if (nbr[slot] == v) {
                *found_bi = bi;
                *found_slot = slot;
                break;
            }
        }
        if (*found_bi < 0) acc += len;
    }
    *probes_before = acc;
}

/* One insert; returns RC_OK, RC_STALL or RC_LOG_FULL. */
static __attribute__((noinline)) int
st_insert_op(StStore *s, int64_t u, int64_t v, double w, Batch *bt)
{
    AccessLog *lg = &bt->lg;
    int64_t bi, slot, before;
    if (!lg_room(lg, 2 + s->bcnt[u] + s->deg[u])) return RC_LOG_FULL;
    st_find(s, u, v, bt->row, lg, &bi, &slot, &before);
    if (bi >= 0) {
        COL(0) = bi + 1;
        COL(1) = before + slot + 1;
        COL(2) = 0;
        COL(3) = 0;
        COL(4) = 0;
        COL(5) = s->no_lock;
        return RC_OK;
    }
    int64_t bcnt = s->bcnt[u];
    /* Space scan: first block with a free slot, else a new block. */
    int64_t target = -1;
    const int64_t *bids = s->bids + s->boff[u];
    for (int64_t k = 0; k < bcnt; k++) {
        if (s->blen[bids[k]] < ST_BLOCK_CAPACITY) { target = k; break; }
    }
    int64_t fresh = 0;
    if (target < 0) {
        /* Pre-check both allocations before mutating anything. */
        int64_t list_need = (bcnt == s->bcap[u])
            ? (s->bcap[u] ? s->bcap[u] * 2 : ST_MIN_LIST) : 0;
        if (list_need && s->state[0] + list_need > s->bids_cap)
            return stall(bt, 0, list_need);
        if (s->state[1] >= s->blk_cap) return stall(bt, 1, 0);
        if (list_need) {
            int64_t noff = s->state[0];
            for (int64_t k = 0; k < bcnt; k++)
                s->bids[noff + k] = s->bids[s->boff[u] + k];
            s->state[0] += list_need;
            s->boff[u] = noff;
            s->bcap[u] = list_need;
        }
        int64_t bid = s->state[1]++;
        s->blen[bid] = 0;
        s->bids[s->boff[u] + bcnt] = bid;
        s->bcnt[u] = bcnt + 1;
        /* block allocated */
        log_event(bt, bt->mirror * 2, bid, 0, s->h0 + 1 + bid);
        target = bcnt;
        fresh = 1;
    }
    int64_t tb = s->bids[s->boff[u] + target];
    int64_t tslot = s->blen[tb];
    s->bnbr[tb * ST_BLOCK_CAPACITY + tslot] = v;
    s->bwgt[tb * ST_BLOCK_CAPACITY + tslot] = w;
    s->blen[tb] = tslot + 1;
    lg_put(lg, bt->row, s->h0 + 1 + tb,
           ST_HEADER_BYTES + tslot * ST_ENTRY_BYTES, 1);
    COL(0) = bcnt;
    COL(1) = s->deg[u];
    s->deg[u] += 1;
    COL(2) = fresh ? bcnt : target + 1;
    COL(3) = 1;
    COL(4) = fresh;
    COL(5) = s->lock_base + tb;
    return RC_OK;
}

/* One remove; allocates nothing, so only the log stalls it. */
static __attribute__((noinline)) int
st_delete_op(StStore *s, int64_t u, int64_t v, Batch *bt)
{
    AccessLog *lg = &bt->lg;
    int64_t bi, slot, before;
    if (!lg_room(lg, 2 + s->bcnt[u] + s->deg[u])) return RC_LOG_FULL;
    st_find(s, u, v, bt->row, lg, &bi, &slot, &before);
    COL(2) = 0;
    if (bi < 0) {
        COL(0) = s->bcnt[u];
        COL(1) = s->deg[u];
        COL(3) = 0;
        COL(4) = 0;
        COL(5) = s->no_lock;
        return RC_OK;
    }
    int64_t tb = s->bids[s->boff[u] + bi];
    int64_t last = s->blen[tb] - 1;
    if (slot != last) {
        s->bnbr[tb * ST_BLOCK_CAPACITY + slot] =
            s->bnbr[tb * ST_BLOCK_CAPACITY + last];
        s->bwgt[tb * ST_BLOCK_CAPACITY + slot] =
            s->bwgt[tb * ST_BLOCK_CAPACITY + last];
        lg_put(lg, bt->row, s->h0 + 1 + tb,
               ST_HEADER_BYTES + slot * ST_ENTRY_BYTES, 1);
    }
    s->blen[tb] = last;
    s->deg[u] -= 1;
    int64_t freed = 0;
    if (last == 0 && bi == s->bcnt[u] - 1) {
        s->bcnt[u] -= 1;
        freed = 1;
        /* tail block freed */
        log_event(bt, bt->mirror * 2 + 1, tb, 0, -1);
    }
    COL(0) = bi + 1;
    COL(1) = before + slot + 1;
    COL(3) = 1;
    COL(4) = freed;
    COL(5) = s->lock_base + tb;
    return RC_OK;
}

/* Traversal emitter: per vertex its vertex-array entry, then per block
 * of its list the header (at the block's base) and the block's
 * entries.  A vertex outside [0, limit) has no vertex-array entry. */
int64_t saga_stinger_traversals(
    int64_t n, const int64_t *vertices, int64_t limit, int64_t vertex_base,
    const int64_t *boff, const int64_t *bcnt, const int64_t *bids,
    const int64_t *blen, const int64_t *block_base,
    int64_t *counts, int64_t *addresses)
{
    int64_t w = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t u = vertices[i];
        int64_t first = w;
        if (u < 0 || u >= limit) return i;
        emit_run(addresses, w++, vertex_base + u * ST_VERTEX_BYTES, 1, 0);
        for (int64_t k = 0; k < bcnt[u]; k++) {
            int64_t bid = bids[boff[u] + k];
            emit_run(addresses, w, block_base[bid], 1, 0);
            emit_run(addresses, w + 1, block_base[bid] + ST_HEADER_BYTES,
                     blen[bid], ST_ENTRY_BYTES);
            w += 1 + blen[bid];
        }
        counts[i] = w - first;
    }
    return -1;
}

/* ------------------------------------------------------------------ *
 * DAH ingest (degree-aware hashing).
 *
 * Store state: per-chunk Robin Hood low tables (key arena + parallel
 * value arena of inline-array ids) and open-address high tables (value
 * arena of neighbor-set ids); neighbor sets are open-address tables in
 * a shared (key, weight) arena.  Table growth bump-allocates a doubled
 * span at the matching arena cursor (old spans are leaked -- arenas
 * are backing storage, not the simulated memory, which Python replays
 * from the event log: LOW_RESIZE / HIGH_RESIZE / SET_NEW / SET_RESIZE,
 * +4 when on the mirror store).
 *
 * Every operation pre-checks the worst-case arena space it could need
 * before mutating anything.  Stall resources: 0 = low-key arena, 1 =
 * high-key arena, 2 = inline pool, 3 = set arena, 4 = set metadata
 * arrays; need = the span the doubled table or fresh set takes.
 * Columns: table probes, hash ops, inline scanned, degree queries,
 * flushed, rehash moves, hit.
 *
 * Traced, an operation logs what NativeDAHStore.insert / .remove emit:
 * the probe path of every table get and put (a put's last slot is the
 * write; the low-table delete of a flush and the inline scans emit
 * nothing).  Both tables probe linearly, so a path is its first slot
 * and its length.  A get's path is logged before anything is mutated,
 * so it asks for exactly its length; a put asks beforehand for the
 * capacity (+1) of the table it will probe, a flush for its 17 get +
 * put pairs on a fresh 32-slot set and the high-table put.  Holders:
 * h0 + c = chunk c's low table, h0 + chunks + c = its high table,
 * h0 + 2 * chunks + id = neighbor set id.
 * ------------------------------------------------------------------ */

#define DAH_EMPTY (-1)
#define DAH_TOMB  (-2)
#define DAH_INLINE_CAP 17   /* threshold 16 + the slot that triggers the flush */
#define DAH_SET_INIT 32
#define DAH_LOW_SLOT_BYTES 136   /* key + 16 inline neighbors */
#define DAH_HIGH_SLOT_BYTES 16   /* key + pointer to the neighbor set */
#define DAH_SET_SLOT_BYTES 8

typedef struct {
    int64_t  chunks;
    int64_t *loff, *lcap, *lsize;   /* low tables: spans in lkeys/lval */
    int64_t *lkeys, *lval;
    int64_t  lkeys_cap;
    int64_t *hoff, *hcap, *hsize;   /* high tables: spans in hkeys/hval */
    int64_t *hkeys, *hval;
    int64_t  hkeys_cap;
    int64_t *inl_nbr;               /* [DAH_INLINE_CAP * inline_cap] */
    double  *inl_wgt;
    int64_t *inl_len;
    int64_t  inline_cap;
    int64_t *inl_free;              /* free-id stack, top in state[3] */
    int64_t *soff, *scap, *ssize;   /* per-set metadata, indexed by id */
    int64_t  set_meta_cap;
    int64_t *skeys;                 /* set arena (parallel swgt) */
    double  *swgt;
    int64_t  skeys_cap;
    int64_t *state;  /* [0]=lkeys cursor [1]=hkeys cursor [2]=inline next
                        [3]=inline free top [4]=set cursor [5]=set count */
    int64_t  h0;     /* first holder of this store */
} DahStore;

#define DAH_LOW_HOLDER(s, c)  ((s)->h0 + (c))
#define DAH_HIGH_HOLDER(s, c) ((s)->h0 + (s)->chunks + (c))
#define DAH_SET_HOLDER(s, id) ((s)->h0 + 2 * (s)->chunks + (id))

/* See NativeDAHStore.descriptor(). */
static void dah_unpack(const int64_t *d, DahStore *s)
{
    s->chunks = d[0];
    s->loff = (int64_t *)d[1]; s->lcap = (int64_t *)d[2];
    s->lsize = (int64_t *)d[3];
    s->lkeys = (int64_t *)d[4]; s->lval = (int64_t *)d[5];
    s->lkeys_cap = d[6];
    s->hoff = (int64_t *)d[7]; s->hcap = (int64_t *)d[8];
    s->hsize = (int64_t *)d[9];
    s->hkeys = (int64_t *)d[10]; s->hval = (int64_t *)d[11];
    s->hkeys_cap = d[12];
    s->inl_nbr = (int64_t *)d[13]; s->inl_wgt = (double *)d[14];
    s->inl_len = (int64_t *)d[15];
    s->inline_cap = d[16];
    s->inl_free = (int64_t *)d[17];
    s->soff = (int64_t *)d[18]; s->scap = (int64_t *)d[19];
    s->ssize = (int64_t *)d[20];
    s->set_meta_cap = d[21];
    s->skeys = (int64_t *)d[22]; s->swgt = (double *)d[23];
    s->skeys_cap = d[24];
    s->state = (int64_t *)d[25];
}

static int64_t dah_hash(int64_t key, int64_t mask)
{
    uint64_t h = (uint64_t)key * 0x9E3779B97F4A7C15ULL;
    return (int64_t)((h >> 17) & (uint64_t)mask);
}

/* (size + 1) / cap > 0.7 with cap a power of two: exact for every
 * reachable capacity (first divergence needs cap >= 2^52). */
static int dah_over_load(int64_t size, int64_t cap)
{
    return 10 * (size + 1) > 7 * cap;
}

/* Robin Hood probe; returns slot or -1, probe count in *probes. */
static int64_t rh_get(const int64_t *keys, int64_t cap, int64_t key,
                      int64_t *probes)
{
    int64_t mask = cap - 1;
    int64_t slot = dah_hash(key, mask);
    int64_t distance = 0, p = 0;
    for (;;) {
        p++;
        int64_t occ = keys[slot];
        if (occ == DAH_EMPTY) { *probes = p; return -1; }
        if (occ == key) { *probes = p; return slot; }
        if (((slot - dah_hash(occ, mask)) & mask) < distance) {
            *probes = p; return -1;
        }
        slot = (slot + 1) & mask;
        distance++;
    }
}

/* Rehash-time Robin Hood insert (unique keys, no counting). */
static void rh_raw_insert(int64_t *keys, int64_t *vals, int64_t cap,
                          int64_t key, int64_t val)
{
    int64_t mask = cap - 1;
    int64_t slot = dah_hash(key, mask);
    int64_t ck = key, cv = val, cd = 0;
    for (;;) {
        int64_t occ = keys[slot];
        if (occ == DAH_EMPTY) { keys[slot] = ck; vals[slot] = cv; return; }
        int64_t od = (slot - dah_hash(occ, mask)) & mask;
        if (od < cd) {
            int64_t t = keys[slot]; keys[slot] = ck; ck = t;
            t = vals[slot]; vals[slot] = cv; cv = t;
            cd = od;
        }
        slot = (slot + 1) & mask;
        cd++;
    }
}

/* Low-table put (space pre-checked by the caller); emits LOW_RESIZE. */
static int64_t low_put(DahStore *s, int64_t c, int64_t key, int64_t val,
                       int64_t *probes, Batch *bt)
{
    int64_t moved = 0;
    if (dah_over_load(s->lsize[c], s->lcap[c])) {
        int64_t ocap = s->lcap[c], ooff = s->loff[c];
        int64_t ncap = ocap * 2, noff = s->state[0];
        for (int64_t i = 0; i < ncap; i++) s->lkeys[noff + i] = DAH_EMPTY;
        /* Slot-order rehash, as Python's _snapshot + _raw_insert. */
        for (int64_t i = 0; i < ocap; i++) {
            int64_t k = s->lkeys[ooff + i];
            if (k == DAH_EMPTY) continue;
            rh_raw_insert(s->lkeys + noff, s->lval + noff, ncap,
                          k, s->lval[ooff + i]);
            moved++;
        }
        s->state[0] += ncap;
        s->loff[c] = noff;
        s->lcap[c] = ncap;
        log_event(bt, bt->mirror * 4, c, ncap,  /* LOW_RESIZE */
                  DAH_LOW_HOLDER(s, c));
    }
    int64_t *keys = s->lkeys + s->loff[c];
    int64_t *vals = s->lval + s->loff[c];
    int64_t mask = s->lcap[c] - 1;
    int64_t slot = dah_hash(key, mask);
    int64_t p = 0;
    int64_t ck = key, cv = val, cd = 0;
    for (;;) {
        p++;
        int64_t occ = keys[slot];
        if (occ == DAH_EMPTY) {
            keys[slot] = ck; vals[slot] = cv;
            s->lsize[c] += 1;
            break;
        }
        /* Unique ingestion: the replace branch is unreachable (the
         * caller probed first), so only steal-and-continue remains. */
        int64_t od = (slot - dah_hash(occ, mask)) & mask;
        if (od < cd) {
            int64_t t = keys[slot]; keys[slot] = ck; ck = t;
            t = vals[slot]; vals[slot] = cv; cv = t;
            cd = od;
        }
        slot = (slot + 1) & mask;
        cd++;
    }
    *probes = p;
    return moved;
}

/* Robin Hood delete with backward shift; probe count in *probes. */
static void rh_delete(int64_t *keys, int64_t *vals, int64_t cap,
                      int64_t key, int64_t *probes)
{
    int64_t slot = rh_get(keys, cap, key, probes);
    if (slot < 0) return;
    int64_t mask = cap - 1;
    for (;;) {
        int64_t nxt = (slot + 1) & mask;
        int64_t occ = keys[nxt];
        if (occ == DAH_EMPTY || dah_hash(occ, mask) == nxt) break;
        keys[slot] = occ;
        vals[slot] = vals[nxt];
        slot = nxt;
    }
    keys[slot] = DAH_EMPTY;
    vals[slot] = 0;
}

/* Open-address probe; returns slot or -1, probe count in *probes. */
static int64_t oa_get(const int64_t *keys, int64_t cap, int64_t key,
                      int64_t *probes)
{
    int64_t mask = cap - 1;
    int64_t slot = dah_hash(key, mask);
    for (int64_t i = 0; i < cap; i++) {
        int64_t occ = keys[slot];
        if (occ == DAH_EMPTY) { *probes = i + 1; return -1; }
        if (occ != DAH_TOMB && occ == key) { *probes = i + 1; return slot; }
        slot = (slot + 1) & mask;
    }
    *probes = cap;
    return -1;
}

/* Rehash-time open-address insert: fresh table, first empty slot. */
static void oa_raw_insert_i(int64_t *keys, int64_t *vals, int64_t cap,
                            int64_t key, int64_t val)
{
    int64_t mask = cap - 1;
    int64_t slot = dah_hash(key, mask);
    while (keys[slot] != DAH_EMPTY) slot = (slot + 1) & mask;
    keys[slot] = key;
    vals[slot] = val;
}

static void oa_raw_insert_d(int64_t *keys, double *vals, int64_t cap,
                            int64_t key, double val)
{
    int64_t mask = cap - 1;
    int64_t slot = dah_hash(key, mask);
    while (keys[slot] != DAH_EMPTY) slot = (slot + 1) & mask;
    keys[slot] = key;
    vals[slot] = val;
}

/* Open-address put into a table with int64 values (the high tables);
 * space pre-checked by the caller; emits HIGH_RESIZE.  The caller
 * probed first, so the key is absent (tombstone reuse still applies). */
static int64_t high_put(DahStore *s, int64_t c, int64_t key, int64_t val,
                        int64_t *probes, Batch *bt)
{
    int64_t moved = 0;
    if (dah_over_load(s->hsize[c], s->hcap[c])) {
        int64_t ocap = s->hcap[c], ooff = s->hoff[c];
        int64_t ncap = ocap * 2, noff = s->state[1];
        for (int64_t i = 0; i < ncap; i++) s->hkeys[noff + i] = DAH_EMPTY;
        for (int64_t i = 0; i < ocap; i++) {
            int64_t k = s->hkeys[ooff + i];
            if (k == DAH_EMPTY || k == DAH_TOMB) continue;
            oa_raw_insert_i(s->hkeys + noff, s->hval + noff, ncap,
                            k, s->hval[ooff + i]);
            moved++;
        }
        s->hsize[c] = moved;
        s->state[1] += ncap;
        s->hoff[c] = noff;
        s->hcap[c] = ncap;
        log_event(bt, bt->mirror * 4 + 1, c, ncap,  /* HIGH_RESIZE */
                  DAH_HIGH_HOLDER(s, c));
    }
    int64_t *keys = s->hkeys + s->hoff[c];
    int64_t *vals = s->hval + s->hoff[c];
    int64_t mask = s->hcap[c] - 1;
    int64_t slot = dah_hash(key, mask);
    int64_t first_tomb = -1;
    int64_t p = 0;
    for (;;) {
        p++;
        int64_t occ = keys[slot];
        if (occ == DAH_EMPTY) {
            int64_t target = first_tomb >= 0 ? first_tomb : slot;
            keys[target] = key;
            vals[target] = val;
            s->hsize[c] += 1;
            break;
        }
        if (occ == DAH_TOMB && first_tomb < 0) first_tomb = slot;
        slot = (slot + 1) & mask;
    }
    *probes = p;
    return moved;
}

/* Neighbor-set put (key absent unless duplicate-checked by caller);
 * emits SET_RESIZE.  Space pre-checked by the caller. */
static int64_t set_put(DahStore *s, int64_t sid, int64_t key, double val,
                       int64_t *probes, Batch *bt)
{
    int64_t moved = 0;
    if (dah_over_load(s->ssize[sid], s->scap[sid])) {
        int64_t ocap = s->scap[sid], ooff = s->soff[sid];
        int64_t ncap = ocap * 2, noff = s->state[4];
        for (int64_t i = 0; i < ncap; i++) s->skeys[noff + i] = DAH_EMPTY;
        for (int64_t i = 0; i < ocap; i++) {
            int64_t k = s->skeys[ooff + i];
            if (k == DAH_EMPTY || k == DAH_TOMB) continue;
            oa_raw_insert_d(s->skeys + noff, s->swgt + noff, ncap,
                            k, s->swgt[ooff + i]);
            moved++;
        }
        s->ssize[sid] = moved;
        s->state[4] += ncap;
        s->soff[sid] = noff;
        s->scap[sid] = ncap;
        log_event(bt, bt->mirror * 4 + 3, sid, ncap,  /* SET_RESIZE */
                  DAH_SET_HOLDER(s, sid));
    }
    int64_t *keys = s->skeys + s->soff[sid];
    double *vals = s->swgt + s->soff[sid];
    int64_t cap = s->scap[sid];
    int64_t mask = cap - 1;
    int64_t slot = dah_hash(key, mask);
    int64_t first_tomb = -1;
    int64_t p = 0;
    /* Bounded like Python's range(capacity + 1) loop; exhausting it
     * (all slots live or tombstoned) is the state where the reference
     * table raises -- settle for the first tombstone. */
    while (p <= cap) {
        p++;
        int64_t occ = keys[slot];
        if (occ == DAH_EMPTY) {
            int64_t target = first_tomb >= 0 ? first_tomb : slot;
            keys[target] = key;
            vals[target] = val;
            s->ssize[sid] += 1;
            *probes = p;
            return moved;
        }
        if (occ == DAH_TOMB && first_tomb < 0) first_tomb = slot;
        slot = (slot + 1) & mask;
    }
    keys[first_tomb] = key;
    vals[first_tomb] = val;
    s->ssize[sid] += 1;
    *probes = p;
    return moved;
}

/* Fresh neighbor set (space pre-checked); emits SET_NEW. */
static int64_t dah_new_set(DahStore *s, Batch *bt)
{
    int64_t sid = s->state[5]++;
    int64_t off = s->state[4];
    s->state[4] += DAH_SET_INIT;
    s->soff[sid] = off;
    s->scap[sid] = DAH_SET_INIT;
    s->ssize[sid] = 0;
    for (int64_t i = 0; i < DAH_SET_INIT; i++)
        s->skeys[off + i] = DAH_EMPTY;
    log_event(bt, bt->mirror * 4 + 2, sid, DAH_SET_INIT,  /* SET_NEW */
              DAH_SET_HOLDER(s, sid));
    return sid;
}

/* Log the path of a get that found `probes` slots from key's home. */
#define DAH_LOG_GET(holder, key, cap, probes, slot_bytes, write_last)      \
    do {                                                                   \
        if (!lg_room(lg, (probes))) return RC_LOG_FULL;                    \
        lg_path(lg, row, (holder), dah_hash((key), (cap) - 1), (cap) - 1,  \
                (probes), (slot_bytes), (write_last));                     \
    } while (0)

/* One insert; returns RC_OK, RC_STALL or RC_LOG_FULL. */
static __attribute__((noinline)) int
dah_insert_op(DahStore *s, int64_t u, int64_t v, double w, Batch *bt)
{
    AccessLog *lg = &bt->lg;
    int64_t row = bt->row;
    int64_t c = u % s->chunks;
    int64_t probes;
    int64_t hslot = oa_get(s->hkeys + s->hoff[c], s->hcap[c], u, &probes);
    int64_t hash_ops = 1, table_probes = probes;
    int64_t inline_scanned = 0, degq = 1, flushed = 0, rehash = 0, hit = 0;
    DAH_LOG_GET(DAH_HIGH_HOLDER(s, c), u, s->hcap[c], probes,
                DAH_HIGH_SLOT_BYTES, 0);
    if (hslot >= 0) {
        int64_t sid = s->hval[s->hoff[c] + hslot];
        int64_t gslot = oa_get(s->skeys + s->soff[sid], s->scap[sid], v,
                               &probes);
        hash_ops = 2;
        table_probes += probes;
        DAH_LOG_GET(DAH_SET_HOLDER(s, sid), v, s->scap[sid], probes,
                    DAH_SET_SLOT_BYTES, 0);
        if (gslot < 0) {
            int64_t need = dah_over_load(s->ssize[sid], s->scap[sid])
                ? 2 * s->scap[sid] : 0;
            if (need && s->state[4] + need > s->skeys_cap)
                return stall(bt, 3, need);
            if (!lg_room(lg, (need ? need : s->scap[sid]) + 1))
                return RC_LOG_FULL;
            rehash = set_put(s, sid, v, w, &probes, bt);
            hash_ops = 3;
            table_probes += probes;
            hit = 1;
            lg_path(lg, row, DAH_SET_HOLDER(s, sid),
                    dah_hash(v, s->scap[sid] - 1), s->scap[sid] - 1,
                    probes, DAH_SET_SLOT_BYTES, 1);
        }
    } else {
        degq = 2;
        int64_t lslot = rh_get(s->lkeys + s->loff[c], s->lcap[c], u,
                               &probes);
        hash_ops = 2;
        table_probes += probes;
        DAH_LOG_GET(DAH_LOW_HOLDER(s, c), u, s->lcap[c], probes,
                    DAH_LOW_SLOT_BYTES, 0);
        if (lslot < 0) {
            int64_t need = dah_over_load(s->lsize[c], s->lcap[c])
                ? 2 * s->lcap[c] : 0;
            if (need && s->state[0] + need > s->lkeys_cap)
                return stall(bt, 0, need);
            if (s->state[3] == 0 && s->state[2] >= s->inline_cap)
                return stall(bt, 2, 0);
            if (!lg_room(lg, (need ? need : s->lcap[c]) + 1))
                return RC_LOG_FULL;
            int64_t iid = s->state[3] > 0
                ? s->inl_free[--s->state[3]] : s->state[2]++;
            s->inl_len[iid] = 1;
            s->inl_nbr[iid * DAH_INLINE_CAP] = v;
            s->inl_wgt[iid * DAH_INLINE_CAP] = w;
            rehash = low_put(s, c, u, iid, &probes, bt);
            hash_ops = 3;
            table_probes += probes;
            hit = 1;
            lg_path(lg, row, DAH_LOW_HOLDER(s, c),
                    dah_hash(u, s->lcap[c] - 1), s->lcap[c] - 1,
                    probes, DAH_LOW_SLOT_BYTES, 1);
        } else {
            int64_t iid = s->lval[s->loff[c] + lslot];
            int64_t len = s->inl_len[iid];
            int64_t *nbr = s->inl_nbr + iid * DAH_INLINE_CAP;
            int64_t dup = 0;
            for (int64_t j = 0; j < len; j++) {
                inline_scanned = j + 1;
                if (nbr[j] == v) { dup = 1; break; }
            }
            if (!dup) {
                inline_scanned = len;
                int64_t flush = len + 1 > DAH_INLINE_CAP - 1;
                if (flush) {
                    /* Pre-check every flush allocation before the
                     * append mutates the inline array. */
                    if (s->state[5] >= s->set_meta_cap)
                        return stall(bt, 4, 0);
                    if (s->state[4] + DAH_SET_INIT > s->skeys_cap)
                        return stall(bt, 3, DAH_SET_INIT);
                    int64_t hneed = dah_over_load(s->hsize[c], s->hcap[c])
                        ? 2 * s->hcap[c] : 0;
                    if (hneed && s->state[1] + hneed > s->hkeys_cap)
                        return stall(bt, 1, hneed);
                    if (!lg_room(lg, DAH_INLINE_CAP * (2 * DAH_SET_INIT + 1)
                                     + (hneed ? hneed : s->hcap[c]) + 1))
                        return RC_LOG_FULL;
                }
                nbr[len] = v;
                s->inl_wgt[iid * DAH_INLINE_CAP + len] = w;
                s->inl_len[iid] = len + 1;
                hit = 1;
                if (flush) {
                    int64_t dprobes;
                    rh_delete(s->lkeys + s->loff[c], s->lval + s->loff[c],
                              s->lcap[c], u, &dprobes);
                    s->lsize[c] -= 1;
                    table_probes += dprobes;
                    int64_t sid = dah_new_set(s, bt);
                    int64_t set = DAH_SET_HOLDER(s, sid);
                    double *wgts = s->inl_wgt + iid * DAH_INLINE_CAP;
                    for (int64_t j = 0; j < len + 1; j++) {
                        int64_t gs = oa_get(s->skeys + s->soff[sid],
                                            s->scap[sid], nbr[j], &probes);
                        hash_ops += 1;
                        table_probes += probes;
                        lg_path(lg, row, set,
                                dah_hash(nbr[j], s->scap[sid] - 1),
                                s->scap[sid] - 1, probes,
                                DAH_SET_SLOT_BYTES, 0);
                        if (gs < 0) {
                            /* 17 entries into a fresh 32-slot table
                             * never crosses the load factor, so this
                             * put cannot stall. */
                            rehash += set_put(s, sid, nbr[j], wgts[j],
                                              &probes, bt);
                            hash_ops += 1;
                            table_probes += probes;
                            lg_path(lg, row, set,
                                    dah_hash(nbr[j], s->scap[sid] - 1),
                                    s->scap[sid] - 1, probes,
                                    DAH_SET_SLOT_BYTES, 1);
                        }
                        flushed += 1;
                    }
                    rehash += high_put(s, c, u, sid, &probes, bt);
                    hash_ops += 1;
                    table_probes += probes;
                    lg_path(lg, row, DAH_HIGH_HOLDER(s, c),
                            dah_hash(u, s->hcap[c] - 1), s->hcap[c] - 1,
                            probes, DAH_HIGH_SLOT_BYTES, 1);
                    s->inl_free[s->state[3]++] = iid;
                }
            }
        }
    }
    COL(0) = table_probes;
    COL(1) = hash_ops;
    COL(2) = inline_scanned;
    COL(3) = degq;
    COL(4) = flushed;
    COL(5) = rehash;
    COL(6) = hit;
    return RC_OK;
}

/* One remove; allocates nothing, so only the log stalls it. */
static __attribute__((noinline)) int
dah_delete_op(DahStore *s, int64_t u, int64_t v, Batch *bt)
{
    AccessLog *lg = &bt->lg;
    int64_t row = bt->row;
    int64_t c = u % s->chunks;
    int64_t probes;
    int64_t hslot = oa_get(s->hkeys + s->hoff[c], s->hcap[c], u, &probes);
    int64_t hash_ops = 1, table_probes = probes;
    int64_t inline_scanned = 0, degq = 1, hit = 0;
    DAH_LOG_GET(DAH_HIGH_HOLDER(s, c), u, s->hcap[c], probes,
                DAH_HIGH_SLOT_BYTES, 0);
    if (hslot >= 0) {
        int64_t sid = s->hval[s->hoff[c] + hslot];
        int64_t *keys = s->skeys + s->soff[sid];
        int64_t gslot = oa_get(keys, s->scap[sid], v, &probes);
        hash_ops = 2;
        table_probes += probes;
        /* The found slot is the one tombstoned below. */
        DAH_LOG_GET(DAH_SET_HOLDER(s, sid), v, s->scap[sid], probes,
                    DAH_SET_SLOT_BYTES, gslot >= 0);
        if (gslot >= 0) {
            keys[gslot] = DAH_TOMB;
            s->swgt[s->soff[sid] + gslot] = 0.0;
            s->ssize[sid] -= 1;
            hit = 1;
        }
    } else {
        degq = 2;
        int64_t lslot = rh_get(s->lkeys + s->loff[c], s->lcap[c], u,
                               &probes);
        hash_ops = 2;
        table_probes += probes;
        DAH_LOG_GET(DAH_LOW_HOLDER(s, c), u, s->lcap[c], probes,
                    DAH_LOW_SLOT_BYTES, 0);
        if (lslot >= 0) {
            int64_t iid = s->lval[s->loff[c] + lslot];
            int64_t len = s->inl_len[iid];
            int64_t *nbr = s->inl_nbr + iid * DAH_INLINE_CAP;
            double *wgts = s->inl_wgt + iid * DAH_INLINE_CAP;
            for (int64_t j = 0; j < len; j++) {
                inline_scanned = j + 1;
                if (nbr[j] == v) {
                    nbr[j] = nbr[len - 1];
                    wgts[j] = wgts[len - 1];
                    s->inl_len[iid] = len - 1;
                    hit = 1;
                    if (len - 1 == 0) {
                        int64_t dprobes;
                        rh_delete(s->lkeys + s->loff[c],
                                  s->lval + s->loff[c],
                                  s->lcap[c], u, &dprobes);
                        s->lsize[c] -= 1;
                        table_probes += dprobes;
                        s->inl_free[s->state[3]++] = iid;
                    }
                    break;
                }
            }
        }
    }
    COL(0) = table_probes;
    COL(1) = hash_ops;
    COL(2) = inline_scanned;
    COL(3) = degq;
    COL(4) = 0;
    COL(5) = 0;
    COL(6) = hit;
    return RC_OK;
}

/* ------------------------------------------------------------------ *
 * The batch loop: see the comment above the Batch struct.
 * ------------------------------------------------------------------ */

/* The family operations are noinline: inlined here, all three made
 * this loop one large function, and the update phase ran 2-5% slower
 * end to end (bench_e2e scale-oocore and churn-htail on a 2-vCPU Xeon),
 * the vector scan up to 1.7x slower on a hub. */
enum { FAMILY_VEC, FAMILY_STINGER, FAMILY_DAH };

/* Per family, the column of the hit flag (the store changed). */
static const int64_t HIT_COLUMN[] = {1, 3, 6};

typedef union { VecStore vec; StStore st; DahStore dah; } Store;

static void unpack(int64_t family, const int64_t *d, int64_t h0, Store *s)
{
    switch (family) {
    case FAMILY_VEC: vec_unpack(d, &s->vec); s->vec.h0 = h0; break;
    case FAMILY_STINGER: st_unpack(d, &s->st); s->st.h0 = h0; break;
    default: dah_unpack(d, &s->dah); s->dah.h0 = h0;
    }
}

int64_t saga_ingest(
    int64_t family, int64_t n, const int64_t *src, const int64_t *dst,
    const double *wgt, int64_t directed, int64_t delete_mode,
    const int64_t *out_desc, const int64_t *in_desc, int64_t *cols,
    int64_t *events, int64_t *ctl, const int64_t *log_desc)
{
    Store out, in;
    unpack(family, out_desc, 0, &out);
    unpack(family, in_desc, log_desc ? log_desc[7] : 0, &in);
    Batch bt = {.cols = cols, .rows = 2 * n, .row = ctl[2], .events = events,
                .ec = ctl[4]};
    if (!directed) {  /* an undirected self-loop has no mirror row */
        bt.rows = n;
        for (int64_t i = 0; i < n; i++) bt.rows += src[i] != dst[i];
    }
    lg_open(&bt.lg, log_desc, ctl);
    const int64_t *hit = cols + HIT_COLUMN[family] * bt.rows;
    int64_t i = ctl[0];
    int64_t half = ctl[1];
    int64_t positive = ctl[3];
    for (; i < n; i++) {
        int64_t u = src[i];
        int64_t v = dst[i];
        double w = delete_mode ? 0.0 : wgt[i];
        for (; half < 2; half++) {
            if (half && u == v && !directed) break;
            Store *s = half ? &in : &out;
            int64_t a = half ? v : u, b = half ? u : v;
            int64_t mark = bt.lg.n;
            int rc;
            bt.mirror = half;
            switch (family) {
            case FAMILY_VEC:
                rc = delete_mode ? vec_delete_op(&s->vec, a, b, &bt)
                                 : vec_insert_op(&s->vec, a, b, w, &bt);
                break;
            case FAMILY_STINGER:
                rc = delete_mode ? st_delete_op(&s->st, a, b, &bt)
                                 : st_insert_op(&s->st, a, b, w, &bt);
                break;
            default:
                rc = delete_mode ? dah_delete_op(&s->dah, a, b, &bt)
                                 : dah_insert_op(&s->dah, a, b, w, &bt);
            }
            if (rc) return save_stall(ctl, rc, i, half, positive, &bt, mark);
            positive += !half && hit[bt.row];
            bt.row++;
        }
        half = 0;
    }
    ctl[0] = n; ctl[1] = 0; ctl[2] = bt.row; ctl[3] = positive;
    ctl[4] = bt.ec; ctl[8] = bt.lg.n;
    return bt.lg.overrun ? RC_LOG_OVERRUN : RC_OK;
}

/* The probe path of a get that inspected `probes` slots from slot0, as
 * slot addresses in the table region [base, end); 0 when a slot lies
 * past the region's end (that slot in *bad_slot). */
static int emit_path(int64_t *out, int64_t w, int64_t base, int64_t end,
                     int64_t slot0, int64_t mask, int64_t probes,
                     int64_t slot_bytes, int64_t *bad_slot)
{
    for (int64_t k = 0; k < probes; k++) {
        int64_t slot = (slot0 + k) & mask;
        if (base + (slot + 1) * slot_bytes > end) {
            *bad_slot = slot;
            return 0;
        }
        if (out) out[w + k] = base + slot * slot_bytes;
    }
    return 1;
}

/* Traversal emitter: per vertex the high-table get's probe path, then
 * on a hit every slot of the vertex's neighbor set, on a miss the
 * low-table get's probe path -- the paths of oa_get and rh_get above.
 * table_base / table_end hold the region of every chunk's low table,
 * then of every high table (holders h0 + t as in the access log), and
 * set_base the base of every neighbor set.  A path leaving its table's
 * region stops the emitter with bad[0] = that table, bad[1] = the slot. */
int64_t saga_dah_traversals(
    int64_t n, const int64_t *vertices, const int64_t *desc,
    const int64_t *table_base, const int64_t *table_end,
    const int64_t *set_base, int64_t *bad,
    int64_t *counts, int64_t *addresses)
{
    DahStore s;
    dah_unpack(desc, &s);
    int64_t w = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t u = vertices[i], first = w, probes;
        int64_t c = u % s.chunks;
        if (c < 0) c += s.chunks;  /* Python's modulo */
        int64_t high = s.chunks + c;
        int64_t hslot = oa_get(s.hkeys + s.hoff[c], s.hcap[c], u, &probes);
        if (!emit_path(addresses, w, table_base[high], table_end[high],
                       dah_hash(u, s.hcap[c] - 1), s.hcap[c] - 1, probes,
                       DAH_HIGH_SLOT_BYTES, &bad[1])) {
            bad[0] = high;
            return i;
        }
        w += probes;
        if (hslot >= 0) {
            int64_t sid = s.hval[s.hoff[c] + hslot];
            emit_run(addresses, w, set_base[sid], s.scap[sid],
                     DAH_SET_SLOT_BYTES);
            w += s.scap[sid];
        } else {
            rh_get(s.lkeys + s.loff[c], s.lcap[c], u, &probes);
            if (!emit_path(addresses, w, table_base[c], table_end[c],
                           dah_hash(u, s.lcap[c] - 1), s.lcap[c] - 1, probes,
                           DAH_LOW_SLOT_BYTES, &bad[1])) {
                bad[0] = c;
                return i;
            }
            w += probes;
        }
        counts[i] = w - first;
    }
    return -1;
}
"""


class IngestKernels:
    """ctypes facade over the compiled ingest kernels."""

    def __init__(self, lib: ctypes.CDLL) -> None:
        self._lib = lib
        lib.saga_ingest.restype = ctypes.c_longlong
        # (family, n, src, dst, wgt, directed, delete_mode, out and in
        # store descriptors, columns, events, ctl, access log or NULL)
        lib.saga_ingest.argtypes = (
            [ctypes.c_longlong] * 2 + [ctypes.c_void_p] * 3
            + [ctypes.c_longlong] * 2 + [ctypes.c_void_p] * 6
        )
        # The traversal emitters: (n, vertices, <store>, counts, addresses).
        emitters = {
            "saga_vec_traversals": [ctypes.c_longlong] * 2 + [ctypes.c_void_p] * 2,
            "saga_stinger_traversals": [ctypes.c_longlong] * 2 + [ctypes.c_void_p] * 5,
            "saga_dah_traversals": [ctypes.c_void_p] * 5,
        }
        for name, store_args in emitters.items():
            entry = getattr(lib, name)
            entry.restype = ctypes.c_longlong
            entry.argtypes = (
                [ctypes.c_longlong, ctypes.c_void_p] + store_args + [ctypes.c_void_p] * 2
            )

    @staticmethod
    def _p(array: np.ndarray) -> int:
        return array.ctypes.data

    def ingest(self, *args) -> int:
        return int(self._lib.saga_ingest(*args))

    def vec_traversals(self, *args) -> int:
        return int(self._lib.saga_vec_traversals(*args))

    def stinger_traversals(self, *args) -> int:
        return int(self._lib.saga_stinger_traversals(*args))

    def dah_traversals(self, *args) -> int:
        return int(self._lib.saga_dah_traversals(*args))


_bind = IngestKernels


def get():
    """The compiled kernels, or ``None`` when the native library is not loaded."""
    bound = NATIVE.get()
    return bound[__name__] if bound is not None else None


loaded = NATIVE.loaded

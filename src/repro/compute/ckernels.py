"""Compiled compute kernels: the hottest inner loops in C via ctypes.

The compute phase is a few tight loops, and Python pays per vertex
and per edge for each of them.  This module compiles those loops with
the system C compiler (the :mod:`repro.sim.cbuild` pattern: content-
hashed build cache, atomic install, ``-ffp-contract=off``) and exposes
them behind the same bit-identity contract as their Python twins.

The algorithms are specified as sequential Gauss-Seidel loops, and a
C loop that processes the ascending frontier one position at a time
is that loop -- the Python reference in :mod:`repro.compute.kernels`
runs the same one.  The fused unit is a whole compute **run**, four
of them: ``saga_inc_run`` loops the INC round body (recalculate +
trigger + dedup, then an inline sort of the next frontier) until no
vertex fires, ``saga_relax_run`` does the same for the FS relaxation
rounds (BFS, SSWP), ``saga_delta_run`` runs SSSP's whole delta-stepping
bucket loop, and ``saga_jacobi_run`` sweeps the same vertex functions
over all vertices from a second value buffer until nothing changes (CC,
MC, PR under FS).  The first three record every round or pass in a
caller-owned *run log* -- a vertex log ``[F0][T0][F1][T1]...`` plus a
round table ``(offset, pulled, pushed, cas_ops, pushes)`` -- which is
the run's record as it stands (:class:`repro.compute.stats.ComputeRun`);
a log (or the delta run's pending-bucket buffer) that fills stalls the
kernel, Python grows it, and the kernel resumes at its cursor (the
:mod:`repro.sim.cingest` idiom).  A Jacobi round pulls every vertex, so
its run needs no log: it returns the round count.
``saga_taint_closure`` takes the KickStarter forward closure on byte
masks.  ``saga_price_run`` reads a record back: one call prices every
round of a run on every cost table (:mod:`repro.compute.pricing`), its
per-round sum taken through ``np.add.reduce``'s own summation tree
(``saga_pairwise_sum``) so that the priced cycles are the numpy loop's
bit for bit.  Float accumulation order is the sequential order of the
per-vertex loops by construction, NaN semantics follow numpy
(``np.minimum`` propagates NaN; ``inf - inf`` is not a change), bucket
indices are ``np.floor_divide``'s, and the build forbids FMA
contraction.  ``saga_compute_trace`` is the Fig. 9/10 cell's compute
trace: it walks a traced run's round table and vertex log and writes
every task's accesses -- its store traversal, its neighbors' property
reads or visited-byte writes straight from the compute view's CSRs,
its own write -- into the trace columns the cell owns, after checking
everything it will read or write (the numpy body of
:func:`repro.analysis.hardware_profile._interleave` is its reference).

The live graph's data plane is here too: ``saga_csr_insert_plan`` /
``saga_csr_insert_apply``, ``saga_csr_delete``, ``saga_csr_rebuild``,
``saga_csr_compact`` and ``saga_csr_lookup`` are the mutators and the
membership lookup of :class:`repro.compute.csrstore.DynamicCSR`, the
one record of :class:`repro.graph.reference.ReferenceGraph`'s edges.
Each leaves exactly the state and output its numpy body leaves.  They
allocate nothing: an insert's plan returns the heap slots its row
relocations need, Python grows the heap by the store's own policy,
then the apply writes.  Rows are counted through a bitmap rather than
sorted; the delete and the lookup put the batch's pairs in one
open-addressing set and scan only the rows it names.
Every crossing ticks ``compute_kernel_calls_total{kernel}``.

This source is one part of the native library (:mod:`repro.sim.cbuild`).
When it is not loaded (no C compiler, a failed build,
``SAGA_BENCH_NO_NATIVE=1``) the numpy expansion, the sequential
Python loops of :mod:`repro.compute.kernels` and ``algorithms/sssp.py``,
the numpy Jacobi loop of ``algorithms/base.py``, the numpy loop of
:mod:`repro.compute.pricing`, the numpy compute-trace sections and the
numpy bodies of the data plane run -- the reference the kernels are
tested against.  Nor is it loaded when ``saga_pairwise_sum`` does not
reproduce this numpy's ``ndarray.sum()`` on a probe vector (checked at
load): every priced cycle must stay numpy's, so the whole simulator
then runs on Python.
"""

from __future__ import annotations

import ctypes
from typing import Tuple

import numpy as np

from repro.compute.stats import ROUND_COLUMNS, check_round_table
from repro.errors import SimulationError
from repro.obs.metrics import METRICS
from repro.sim.cbuild import NATIVE
from repro.widths import SLOT, VERTEX, WEIGHT

#: INC vertex functions (``saga_inc_run``'s ``op``).
OP_BFS = 0
OP_SSSP = 1
OP_SSWP = 2
OP_CC = 3
OP_MC = 4
OP_PR = 5

#: Relaxation ops (``saga_relax_run``'s ``op``).
RELAX_ADD1 = 0  # candidate = base + 1.0           (BFS)
RELAX_MINW = 1  # candidate = min(base, weight)    (SSWP)

#: Initial run-log capacities (vertex-log slots, round-table rows,
#: pending bucket entries of the delta-stepping run) of the run kernels,
#: sized so that a run is normally one call (slots cost nothing until
#: they are written).  A buffer that fills stalls the kernel and at
#: least doubles; the tests shrink all three to 1 so every stall point
#: is taken.
RUN_LOG_VERTICES = 1 << 16
RUN_LOG_ROUNDS = 64
RUN_LOG_PENDING = 1 << 14

#: ``saga_*_run`` return codes (``SAGA_RUN_*`` in the C source).
_RUN_STALL_VERTICES = 1
_RUN_STALL_ROUNDS = 2
_RUN_OVERRUN = 3
_RUN_STALL_PENDING = 4
_RUN_BAD_BUCKET = 5

#: ``saga_compute_trace`` refusals (``SAGA_TRACE_*`` in the C source).
_TRACE_BAD_PROPERTY = -1
_TRACE_BAD_VISITED = -2
_TRACE_NO_ROW = -3
_TRACE_BAD_READS = -4

_I64 = ctypes.c_int64
_I32 = ctypes.c_int32
_F64 = ctypes.c_double
_PTR = ctypes.c_void_p

_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <math.h>
#include <float.h>

/* Compute-phase inner loops.  Every function mirrors a numpy kernel
 * (or the sequential per-vertex loop it vectorizes) operation for
 * operation: identical IEEE float64 arithmetic in identical order, and
 * numpy's NaN semantics where min/max are involved (np.minimum /
 * np.maximum propagate NaN; C fmin/fmax do NOT, so comparisons are
 * written out with explicit x != x checks).
 *
 * CSR rows arrive as (starts, lens) rather than a packed indptr: the
 * incremental CSR store keeps per-row slack, so rows need not be
 * contiguous.  A packed CSR is the special case starts = indptr[:n].
 *
 * Widths (repro.widths): a vertex id in an array -- a CSR's cols, a
 * frontier or run log, a delta column -- is int32_t, a weight float; a
 * row's heap offset, length and capacity (starts, lens, caps, degrees)
 * is int32_t too, read into int64_t locals; counts and packed pair
 * keys are int64_t.  An id is widened to int64_t before it is
 * multiplied, and a weight to double (exactly) before any arithmetic.
 */

/* np.minimum: NaN wins; otherwise the smaller. */
static inline double take_min(double acc, double x)
{
    return (x < acc || x != x) ? x : acc;
}

static inline double take_max(double acc, double x)
{
    return (x > acc || x != x) ? x : acc;
}

/* expand_frontier: all adjacency rows of the frontier, in sequential
 * iteration order (frontier position major, neighbor order minor).  The
 * frontier is a numpy index array (intp, here int64_t), the rows the
 * CSR's own widths. */
void saga_expand(
    int64_t k,
    const int64_t *frontier,
    const int32_t *starts,
    const int32_t *lens,
    const int32_t *cols,
    const float *wts,
    int64_t *seg_out,
    int32_t *nbr_out,
    float *wt_out)
{
    int64_t p, j, r = 0;
    for (p = 0; p < k; p++) {
        int64_t v = frontier[p];
        int64_t s = starts[v];
        int64_t d = lens[v];
        for (j = 0; j < d; j++) {
            seg_out[r] = p;
            nbr_out[r] = cols[s + j];
            wt_out[r] = wts[s + j];
            r++;
        }
    }
}

/* ---- next-frontier sort --------------------------------------------
 * Ascending sort of distinct non-negative vertex ids (the seen[] bytes
 * already deduplicated them, so this completes np.unique).  Small
 * frontiers, which arrive nearly sorted because the round walks an
 * ascending frontier, take an insertion sort; larger ones an LSD radix
 * over 8-bit digits, as many digits as the largest id has. */

#define SAGA_SORT_INSERTION_MAX 48

static int32_t *g_sort_tmp = NULL;
static int64_t g_sort_cap = 0;

static void insertion_sort_ids(int32_t *ids, int64_t n)
{
    int64_t i, j;
    for (i = 1; i < n; i++) {
        int32_t x = ids[i];
        for (j = i; j > 0 && ids[j - 1] > x; j--)
            ids[j] = ids[j - 1];
        ids[j] = x;
    }
}

static void sort_ids(int32_t *ids, int64_t n)
{
    int64_t count[4][256];
    int32_t *src = ids, *dst;
    int64_t i;
    int32_t maxid = 0;
    int d, digits = 1;
    if (n <= SAGA_SORT_INSERTION_MAX) {
        insertion_sort_ids(ids, n);
        return;
    }
    if (g_sort_cap < n) {
        int64_t cap = g_sort_cap ? g_sort_cap : 1024;
        int32_t *grown;
        while (cap < n)
            cap *= 2;
        grown = (int32_t *)realloc(g_sort_tmp, (size_t)cap * sizeof(int32_t));
        if (!grown) {
            insertion_sort_ids(ids, n); /* slow, but never wrong */
            return;
        }
        g_sort_tmp = grown;
        g_sort_cap = cap;
    }
    for (i = 0; i < n; i++)
        if (ids[i] > maxid)
            maxid = ids[i];
    while (digits < 4 && (maxid >> (8 * digits)) != 0)
        digits++;
    memset(count, 0, (size_t)digits * sizeof(count[0]));
    for (i = 0; i < n; i++) {
        int32_t x = ids[i];
        for (d = 0; d < digits; d++)
            count[d][(x >> (8 * d)) & 255]++;
    }
    dst = g_sort_tmp;
    for (d = 0; d < digits; d++) {
        int64_t *c = count[d];
        int32_t *swap;
        int64_t off = 0;
        int shift = 8 * d;
        for (i = 0; i < 256; i++) {
            int64_t here = c[i];
            c[i] = off;
            off += here;
        }
        for (i = 0; i < n; i++) {
            int32_t x = src[i];
            dst[c[(x >> shift) & 255]++] = x;
        }
        swap = src;
        src = dst;
        dst = swap;
    }
    if (src != ids)
        memcpy(ids, src, (size_t)n * sizeof(int32_t));
}

/* ---- vertex recalculation ----------------------------------------
 * The Table-I vertex functions, factored out so the INC round and the
 * Jacobi sweep run the exact same IEEE float64 operations in the exact
 * same order (the build forbids FMA contraction, so inlining context
 * cannot change a single bit). */
static double inc_recalc(
    int64_t v,
    const double *values,
    const int32_t *in_starts,
    const int32_t *in_lens,
    const int32_t *in_cols,
    const float *in_wts,
    const int32_t *out_deg,
    int32_t op,
    int64_t pinned,
    double pr_base,
    double damping)
{
    double old = values[v];
    double acc;
    int64_t s, d, j;
    if (v == pinned)
        return old;
    s = in_starts[v];
    d = in_lens[v];
    switch (op) {
    case 0: /* BFS: min(values[u] + 1) */
        acc = INFINITY;
        for (j = 0; j < d; j++)
            acc = take_min(acc, values[in_cols[s + j]] + 1.0);
        return acc;
    case 1: /* SSSP: min(values[u] + w) */
        acc = INFINITY;
        for (j = 0; j < d; j++)
            acc = take_min(acc, values[in_cols[s + j]] + in_wts[s + j]);
        return acc;
    case 2: /* SSWP: max(0, max(min(values[u], w))) */
        acc = -INFINITY;
        for (j = 0; j < d; j++) {
            double vu = values[in_cols[s + j]];
            double w = in_wts[s + j];
            acc = take_max(acc, (vu < w) ? vu : w);
        }
        /* np.maximum(acc, 0.0): NaN propagates. */
        return (acc > 0.0 || acc != acc) ? acc : 0.0;
    case 3: /* CC: min(values[v], min(values[u])) */
        acc = old;
        for (j = 0; j < d; j++)
            acc = take_min(acc, values[in_cols[s + j]]);
        return acc;
    case 4: /* MC: max(values[v], max(values[u])) */
        acc = old;
        for (j = 0; j < d; j++)
            acc = take_max(acc, values[in_cols[s + j]]);
        return acc;
    default: /* PR: base + d * sum(values[u] / outdeg[u]) */
        acc = 0.0;
        for (j = 0; j < d; j++) {
            int32_t u = in_cols[s + j];
            acc += values[u] / (double)out_deg[u];
        }
        return pr_base + damping * acc;
    }
}

/* One whole INC round (Algorithm 1), fused: sequential Gauss-Seidel
 * over the ascending unique frontier -- each vertex recalculates from
 * the in-CSR reading values[] as they stand (earlier positions already
 * updated, later ones not), writes its new value, and on a change
 * greater than epsilon scans its out-row (cas_ops), deduplicating the
 * next frontier through the caller's zeroed seen[] bytes.  This IS the
 * sequential Algorithm-1 loop (repro.compute.kernels runs it in Python),
 * so bit-identity holds by construction.
 *
 * op selects the Table-I vertex function.  pinned (-1 = none) keeps
 * the source at its current value (old == new, never triggers).
 * Outputs: triggered[] prefix (counts_out[0]), next_out[] prefix in
 * discovery order, deduplicated but NOT sorted (counts_out[2]),
 * counts_out[1] = cas_ops.  seen[] is reset to zero before returning.
 */
static void inc_round(
    int64_t k,
    const int32_t *frontier,
    const int32_t *in_starts,
    const int32_t *in_lens,
    const int32_t *in_cols,
    const float *in_wts,
    const int32_t *out_starts,
    const int32_t *out_lens,
    const int32_t *out_cols,
    const int32_t *out_deg,
    double *values,
    int32_t op,
    double epsilon,
    int64_t pinned,
    double pr_base,
    double damping,
    uint8_t *seen,
    int32_t *triggered,
    int32_t *next_out,
    int64_t *counts_out)
{
    int64_t p, j, nt = 0, cas = 0, nn = 0;
    for (p = 0; p < k; p++) {
        int32_t v = frontier[p];
        double old = values[v];
        double nv = inc_recalc(v, values, in_starts, in_lens, in_cols,
                               in_wts, out_deg, op, pinned, pr_base,
                               damping);
        values[v] = nv;
        /* inf - inf is NaN; NaN > eps is false -- not a change,
         * exactly as the scalar engine treats it. */
        if (fabs(old - nv) > epsilon) {
            int64_t s = out_starts[v];
            int64_t d = out_lens[v];
            triggered[nt++] = v;
            for (j = 0; j < d; j++) {
                int32_t t = out_cols[s + j];
                cas++;
                if (!seen[t]) {
                    seen[t] = 1;
                    next_out[nn++] = t;
                }
            }
        }
    }
    for (p = 0; p < nn; p++)
        seen[next_out[p]] = 0;
    counts_out[0] = nt;
    counts_out[1] = cas;
    counts_out[2] = nn;
}

/* ---- run logs -----------------------------------------------------
 * A compute RUN, not a round, is what crosses from Python: the run
 * kernels loop their round body until the frontier empties and record
 * every round in two caller-owned buffers.
 *
 *   vlog   the vertex log.  Round r reads its frontier where round
 *          r - 1 left it and appends what it produced, so the log is
 *          [F0][T0][F1][T1]... for INC (frontier, then the triggered
 *          vertices) and [F0][F1][F2]... for the FS relaxation.
 *   rtab   one row of five per round: (offset, pulled, pushed, cas_ops,
 *          pushes).  The round's two consecutive vlog segments start
 *          at offset and have the next two lengths -- INC pulls F and
 *          pushes T, the relaxation pulls nothing and pushes F.  Log
 *          and table are the columns of the run's record as they
 *          stand (repro.compute.stats.ComputeRun), and what
 *          saga_price_run reads.
 *   ctl    [0] rounds done, [1] vlog offset of the current frontier,
 *          [2] its length, [3] capacity needed (set on a stall); the
 *          delta-stepping run parks four more words behind them.
 *
 * C never allocates a log (the cingest idiom): when the next round
 * might not fit, the kernel stores its cursor in ctl and returns a
 * stall code; Python grows that buffer, keeping the used prefix, and
 * re-enters.  A round's worst case is known before it starts -- the
 * next frontier is a deduplicated subset of the frontier's out-rows --
 * so the check runs before anything is mutated and a stalled round
 * simply runs later. */

#define SAGA_RUN_DONE 0
#define SAGA_RUN_STALL_VERTICES 1
#define SAGA_RUN_STALL_ROUNDS 2
#define SAGA_RUN_OVERRUN 3

/* Most vertices one round over frontier[] can discover. */
static int64_t next_frontier_bound(
    int64_t k, const int32_t *frontier, const int32_t *out_lens, int64_t n)
{
    int64_t p, total = 0;
    for (p = 0; p < k && total < n; p++)
        total += out_lens[frontier[p]];
    return total < n ? total : n;
}

static void log_round(int64_t *rtab, int64_t r, int64_t off, int64_t pulled,
                      int64_t pushed, int64_t cas_ops, int64_t pushes)
{
    int64_t *row = rtab + 5 * r;
    row[0] = off;
    row[1] = pulled;
    row[2] = pushed;
    row[3] = cas_ops;
    row[4] = pushes;
}

static int run_leave(int64_t *ctl, int64_t r, int64_t off, int64_t k,
                     int64_t need, int code)
{
    ctl[0] = r;
    ctl[1] = off;
    ctl[2] = k;
    ctl[3] = need;
    return code;
}

/* All INC rounds of one run (Algorithm 1's outer loop).  The round
 * body writes T_r behind F_r and collects the next frontier past the
 * k slots T_r may need; it is then moved down behind the nt triggered
 * vertices actually written and sorted there, which is where round
 * r + 1 reads it.  Returns SAGA_RUN_OVERRUN when a frontier is still
 * non-empty after max_rounds rounds. */
int64_t saga_inc_run(
    int64_t n,
    const int32_t *in_starts,
    const int32_t *in_lens,
    const int32_t *in_cols,
    const float *in_wts,
    const int32_t *out_starts,
    const int32_t *out_lens,
    const int32_t *out_cols,
    double *values,
    int32_t op,
    double epsilon,
    int64_t pinned,
    double pr_base,
    double damping,
    uint8_t *seen,
    int64_t max_rounds,
    int32_t *vlog,
    int64_t vcap,
    int64_t *rtab,
    int64_t rcap,
    int64_t *ctl)
{
    int64_t r = ctl[0], off = ctl[1], k = ctl[2];
    while (k > 0) {
        int64_t counts[3], need;
        int32_t *next;
        if (r >= max_rounds)
            return run_leave(ctl, r, off, k, 0, SAGA_RUN_OVERRUN);
        if (r >= rcap)
            return run_leave(ctl, r, off, k, r + 1, SAGA_RUN_STALL_ROUNDS);
        need = off + 2 * k + next_frontier_bound(k, vlog + off, out_lens, n);
        if (need > vcap)
            return run_leave(ctl, r, off, k, need, SAGA_RUN_STALL_VERTICES);
        inc_round(k, vlog + off, in_starts, in_lens, in_cols, in_wts,
                  out_starts, out_lens, out_cols, out_lens, values, op,
                  epsilon, pinned, pr_base, damping, seen, vlog + off + k,
                  vlog + off + 2 * k, counts);
        next = vlog + off + k + counts[0];
        memmove(next, vlog + off + 2 * k, (size_t)counts[2] * sizeof(int32_t));
        sort_ids(next, counts[2]);
        log_round(rtab, r, off, k, counts[0], counts[1], counts[2]);
        r++;
        off += k + counts[0];
        k = counts[2];
    }
    return run_leave(ctl, r, off, 0, 0, SAGA_RUN_DONE);
}

/* All FS frontier-relaxation rounds of one run (BFS / SSWP), fused:
 * the sequential loop verbatim -- each frontier vertex reads its base
 * value at its turn, relaxes its out-edges sequentially, conditionally
 * updates, and appends each target to the next frontier on its first
 * improvement (improved[] must arrive zeroed; it leaves zeroed).  The
 * next frontier keeps discovery order (the loop's append order), NOT
 * sorted, and is written straight behind the current one. */
int64_t saga_relax_run(
    int64_t n,
    const int32_t *starts,
    const int32_t *lens,
    const int32_t *cols,
    const float *wts,
    double *values,
    int32_t op,
    int32_t maximize,
    uint8_t *improved,
    int32_t *vlog,
    int64_t vcap,
    int64_t *rtab,
    int64_t rcap,
    int64_t *ctl)
{
    int64_t r = ctl[0], off = ctl[1], k = ctl[2];
    while (k > 0) {
        const int32_t *frontier = vlog + off;
        int32_t *next_out = vlog + off + k;
        int64_t p, j, nn = 0, need;
        if (r >= rcap)
            return run_leave(ctl, r, off, k, r + 1, SAGA_RUN_STALL_ROUNDS);
        need = off + k + next_frontier_bound(k, frontier, lens, n);
        if (need > vcap)
            return run_leave(ctl, r, off, k, need, SAGA_RUN_STALL_VERTICES);
        for (p = 0; p < k; p++) {
            int64_t v = frontier[p];
            double base = values[v];
            int64_t s = starts[v];
            int64_t d = lens[v];
            for (j = 0; j < d; j++) {
                int32_t t = cols[s + j];
                double w = wts[s + j];
                double cand = op == 0 ? base + 1.0 : ((base < w) ? base : w);
                double cur = values[t];
                if (maximize ? (cand > cur) : (cand < cur)) {
                    values[t] = cand;
                    if (!improved[t]) {
                        improved[t] = 1;
                        next_out[nn++] = t;
                    }
                }
            }
        }
        for (p = 0; p < nn; p++)
            improved[next_out[p]] = 0;
        log_round(rtab, r, off, 0, k, nn, nn);
        r++;
        off += k;
        k = nn;
    }
    return run_leave(ctl, r, off, 0, 0, SAGA_RUN_DONE);
}

/* KickStarter trimming: the forward closure of the flagged deletion
 * targets over the out-CSR.  tainted[] arrives holding the roots and
 * leaves holding the closure; pinned[] vertices are never tainted.
 * work[] (n slots: a vertex is queued once, when it is first tainted)
 * is the traversal queue. */
void saga_taint_closure(
    int64_t n,
    const int32_t *starts,
    const int32_t *lens,
    const int32_t *cols,
    uint8_t *tainted,
    const uint8_t *pinned,
    int32_t *work)
{
    int64_t head, tail = 0, v, j;
    for (v = 0; v < n; v++)
        if (tainted[v])
            work[tail++] = (int32_t)v;
    for (head = 0; head < tail; head++) {
        int64_t s, d;
        v = work[head];
        s = starts[v];
        d = lens[v];
        for (j = 0; j < d; j++) {
            int32_t t = cols[s + j];
            if (!tainted[t] && !pinned[t]) {
                tainted[t] = 1;
                work[tail++] = t;
            }
        }
    }
}

/* ---- FS: the Jacobi fixpoint (CC, MC, PR) -------------------------
 * Every round evaluates the Table-I vertex function of all n vertices
 * from the PREVIOUS round's values -- a second buffer, swapped after
 * each sweep -- so no vertex sees a value written in its own round
 * (the INC rounds above are Gauss-Seidel; this is not).  The run ends
 * with the first round whose largest change is <= epsilon: a NaN
 * difference (inf - inf, an unreached vertex staying unreached) is not
 * a change, a finite <-> infinite transition is (np.nan_to_num turns it
 * into DBL_MAX).
 *
 * The sweep is inc_recalc over every vertex, with three shortcuts that
 * keep its bits.  CC and MC only ever select one of the values they
 * read, so when the run starts without a NaN none can appear, and the
 * row minimum / maximum needs no NaN test: a bare compare-select
 * compiles to minsd / maxsd, where take_min's extra test costs a
 * mispredicted branch per edge (6x on the RMAT matrix).  PR's rank /
 * out_degree term is taken once per vertex per round instead of once
 * per in-edge: one division of the same operands.  And since nothing a
 * sweep reads is written before the swap (and the largest change is a
 * maximum), the vertices may be visited in any order: order[] lists
 * them by in-degree, so the row loop runs the same number of times
 * from one vertex to the next and its exit branch -- mispredicted
 * about once per vertex in id order on a skewed graph -- predicts.
 *
 * No run log: every round pulls every vertex and pushes nothing, so
 * the round count is the whole record.  scratch holds n doubles (2n
 * for PR), order n ids.  Returns the rounds run, or -1 when
 * max_iterations rounds ran and the last one still changed a value by
 * more than epsilon. */

static inline double row_min(
    double acc, const double *values, const int32_t *row, int64_t d)
{
    int64_t j;
    for (j = 0; j < d; j++) {
        double x = values[row[j]];
        acc = x < acc ? x : acc;
    }
    return acc;
}

static inline double row_max(
    double acc, const double *values, const int32_t *row, int64_t d)
{
    int64_t j;
    for (j = 0; j < d; j++) {
        double x = values[row[j]];
        acc = x > acc ? x : acc;
    }
    return acc;
}

static inline double row_sum(const double *values, const int32_t *row, int64_t d)
{
    double acc = 0.0;
    int64_t j;
    for (j = 0; j < d; j++)
        acc += values[row[j]];
    return acc;
}

/* The vertices by ascending in-degree (a stable counting sort; degrees
 * of 63 and up share the last bin). */
static void order_by_degree(int64_t n, const int32_t *lens, int32_t *order)
{
    int64_t start[65] = {0};
    int64_t v, d;
    for (v = 0; v < n; v++)
        start[(lens[v] < 63 ? lens[v] : 63) + 1]++;
    for (d = 0; d < 64; d++)
        start[d + 1] += start[d];
    for (v = 0; v < n; v++)
        order[start[lens[v] < 63 ? lens[v] : 63]++] = (int32_t)v;
}

int64_t saga_jacobi_run(
    int64_t n,
    const int32_t *in_starts,
    const int32_t *in_lens,
    const int32_t *in_cols,
    const float *in_wts,
    const int32_t *out_deg,
    double *values,
    double *scratch,
    int32_t *order,
    int32_t op,
    double epsilon,
    double pr_base,
    double damping,
    int64_t max_iterations)
{
    double *cur = values, *next = scratch, *term = scratch + n;
    int64_t rounds = 0, v, i;
    int converged = 0, clean = 1;
    for (v = 0; v < n; v++)
        if (values[v] != values[v])
            clean = 0;
    order_by_degree(n, in_lens, order);
#define JACOBI_SWEEP(NEW_VALUE) \
    for (i = 0; i < n; i++) { \
        double nv, change; \
        v = order[i]; \
        nv = (NEW_VALUE); \
        change = fabs(nv - cur[v]); \
        next[v] = nv; \
        largest = change > largest ? change : largest; /* not for NaN */ \
    }
#define JACOBI_ROW(v) in_cols + in_starts[v], in_lens[v]
    while (!converged && rounds < max_iterations) {
        double largest = 0.0, *swap;
        if (op == 3 && clean) {
            JACOBI_SWEEP(row_min(cur[v], cur, JACOBI_ROW(v)))
        } else if (op == 4 && clean) {
            JACOBI_SWEEP(row_max(cur[v], cur, JACOBI_ROW(v)))
        } else if (op == 5) {
            for (v = 0; v < n; v++)
                term[v] = out_deg[v] ? cur[v] / (double)out_deg[v] : 0.0;
            JACOBI_SWEEP(pr_base + damping * row_sum(term, JACOBI_ROW(v)))
        } else {
            JACOBI_SWEEP(inc_recalc(v, cur, in_starts, in_lens, in_cols, in_wts,
                                    out_deg, op, -1, pr_base, damping))
        }
        swap = cur;
        cur = next;
        next = swap;
        rounds++;
        if (largest > DBL_MAX)
            largest = DBL_MAX;
        converged = largest <= epsilon;
    }
#undef JACOBI_ROW
#undef JACOBI_SWEEP
    if (cur != values)
        memcpy(values, cur, (size_t)n * sizeof(double));
    return converged ? rounds : -1;
}

/* ---- FS: delta-stepping (SSSP) ------------------------------------
 * The whole bucket loop of one run.  A bucket's life: take the lowest
 * pending bucket; relax the light edges (w <= delta) of its members
 * until no relaxation lands in the bucket any more; then relax the
 * heavy edges (w > delta) of everything the light passes settled, once.
 * Every pass is one round of the run log: the vertex log is
 * [P0][P1]... (a pass's frontier; the heavy frontier is the bucket's
 * light frontiers concatenated, duplicates and order kept) and table
 * row r is (0, len(Pr), events, events), an event being one successful
 * compare-and-update.
 *
 * An event (target, candidate) is filed under bucket
 * np.floor_divide(candidate, delta): a light event of the current
 * bucket joins the next light frontier, every other one is appended to
 * the caller's pend[] buffer as a (bucket, vertex) pair.  Taking a
 * bucket is two scans of pend[] (lowest bucket and its size, then the
 * split): cheaper than a heap's sift per event at the few dozen buckets
 * a sensible delta makes (a run of the RMAT matrix: 0.40 ms against
 * 0.65), and buckets x pending entries at a senseless one -- which is
 * how the Python loop's min(buckets) degrades too.  A frontier is formed
 * the way that loop forms it: np.unique of the members, minus those
 * whose value has since left the bucket.
 *
 * The extra ctl slots: [4] pending entries, [5] current bucket, [6]
 * vlog offset of the bucket's first light frontier, [7] phase.  The
 * most events a pass can emit is the out-degree sum of its frontier,
 * so room in vlog, rtab and pend is checked before the pass touches
 * values[]. */

#define SAGA_RUN_STALL_PENDING 4
#define SAGA_RUN_BAD_BUCKET 5

#define DELTA_LIGHT 0 /* light pass over vlog[off, off + k) */
#define DELTA_HEAVY 1 /* heavy pass over vlog[first, off) */
#define DELTA_NEXT 2  /* take the next bucket out of pend[] */

/* np.floor_divide on float64 (numpy's npy_divmod): fmod, then the
 * quotient of the remainder-free part snapped to the nearest integer.
 * NOT floor(a / b): 1.0 // 0.1 is 9.0, because fmod is exact and the
 * rounded quotient is not.  For quotients below 2**51 that makes the
 * result the floor of the true quotient, and fmod costs 30 ns, so the
 * common case is settled without it: t is within one rounding
 * (t * 2**-53) of the true quotient, hence whenever t stands further
 * than t * 2**-52 from both neighbouring integers (both distances are
 * exact), floor(t) is that floor too. */
static double floor_div(double a, double b)
{
    double t = a / b, q = floor(t);
    double mod, div, floordiv;
    if (t > 0.0 && t < 0x1p50 && t - q > t * 0x1p-52 &&
        (q + 1.0) - t > t * 0x1p-52)
        return q;
    mod = fmod(a, b);
    div = (a - mod) / b;
    if (mod != 0.0 && (b < 0.0) != (mod < 0.0))
        div -= 1.0;
    if (div == 0.0)
        return copysign(0.0, a / b);
    floordiv = floor(div);
    if (div - floordiv > 0.5)
        floordiv += 1.0;
    return floordiv;
}

/* The bucket of a path length; 0 when it does not fit in int64 (the
 * cast would be undefined) or is NaN. */
static int bucket_of(double x, double delta, int64_t *bucket)
{
    double q = floor_div(x, delta);
    if (!(q >= -9223372036854775808.0 && q < 9223372036854775808.0))
        return 0;
    *bucket = (int64_t)q;
    return 1;
}

/* ids[0..count) -> the frontier they make for `bucket`, in place:
 * sorted, duplicates dropped, vertices whose value is in another
 * bucket by now dropped.  Returns its length, -1 on a bad bucket. */
static int64_t bucket_frontier(
    int32_t *ids, int64_t count, const double *values, double delta,
    int64_t bucket)
{
    int64_t p, k = 0, b;
    int32_t last = -1;
    sort_ids(ids, count);
    for (p = 0; p < count; p++) {
        int32_t t = ids[p];
        if (t == last)
            continue;
        last = t;
        if (!bucket_of(values[t], delta, &b))
            return -1;
        if (b == bucket)
            ids[k++] = t;
    }
    return k;
}

/* One light or heavy pass: the sequential conditional relaxation of
 * the frontier's out-edges on its side of delta.  Light events of
 * `bucket` are appended to same[] (*nsame), all others to pend[].
 * Returns the event count, or -1 on a bucket that does not fit. */
static int64_t delta_pass(
    int64_t k,
    const int32_t *frontier,
    const int32_t *starts,
    const int32_t *lens,
    const int32_t *cols,
    const float *wts,
    double *values,
    double delta,
    int heavy,
    int64_t bucket,
    int32_t *same,
    int64_t *nsame,
    int64_t *pend,
    int64_t *pcount)
{
    int64_t p, j, ne = 0;
    for (p = 0; p < k; p++) {
        int32_t v = frontier[p];
        double base = values[v];
        int64_t s = starts[v];
        int64_t d = lens[v];
        for (j = 0; j < d; j++) {
            double w = wts[s + j];
            int32_t t;
            int64_t b;
            double cand;
            if (heavy ? (w <= delta) : (w > delta))
                continue;
            t = cols[s + j];
            cand = base + w;
            if (cand < values[t]) {
                values[t] = cand;
                ne++;
                if (!bucket_of(cand, delta, &b))
                    return -1;
                if (!heavy && b == bucket) {
                    same[(*nsame)++] = t;
                } else {
                    pend[2 * *pcount] = b;
                    pend[2 * *pcount + 1] = t;
                    (*pcount)++;
                }
            }
        }
    }
    return ne;
}

int64_t saga_delta_run(
    const int32_t *starts,
    const int32_t *lens,
    const int32_t *cols,
    const float *wts,
    double *values,
    double delta,
    int32_t *vlog,
    int64_t vcap,
    int64_t *rtab,
    int64_t rcap,
    int64_t *ctl,
    int64_t *pend,
    int64_t pcap)
{
    int64_t r = ctl[0], off = ctl[1], k = ctl[2];
    int64_t pcount = ctl[4], bucket = ctl[5], first = ctl[6], phase = ctl[7];
    int64_t need = 0, code = SAGA_RUN_DONE;
#define DELTA_LEAVE(needed, why) \
    do { need = (needed); code = (why); goto leave; } while (0)
    for (;;) {
        if (phase == DELTA_NEXT) {
            int64_t i, members = 0, rest = 0;
            if (pcount == 0)
                break;
            bucket = pend[0];
            for (i = 0; i < pcount; i++) {
                if (pend[2 * i] < bucket) {
                    bucket = pend[2 * i];
                    members = 0;
                }
                members += pend[2 * i] == bucket;
            }
            if (off + members > vcap)
                DELTA_LEAVE(off + members, SAGA_RUN_STALL_VERTICES);
            members = 0;
            for (i = 0; i < pcount; i++) {
                if (pend[2 * i] == bucket) {
                    vlog[off + members++] = (int32_t)pend[2 * i + 1];
                } else {
                    pend[2 * rest] = pend[2 * i];
                    pend[2 * rest + 1] = pend[2 * i + 1];
                    rest++;
                }
            }
            pcount = rest;
            first = off;
            k = bucket_frontier(vlog + off, members, values, delta, bucket);
            if (k < 0)
                DELTA_LEAVE(0, SAGA_RUN_BAD_BUCKET);
            phase = DELTA_LIGHT;
        }
        if (phase == DELTA_LIGHT && k == 0) {
            /* The bucket ran dry; heavy edges only if it settled anyone. */
            phase = off == first ? DELTA_NEXT : DELTA_HEAVY;
            continue;
        }
        {
            int heavy = phase == DELTA_HEAVY;
            int64_t count = heavy ? off - first : k;
            const int32_t *from = heavy ? vlog + first : vlog + off;
            int32_t *same = vlog + off + count;
            int64_t p, bound = 0, nsame = 0, ne;
            for (p = 0; p < count; p++)
                bound += lens[from[p]];
            if (r >= rcap)
                DELTA_LEAVE(r + 1, SAGA_RUN_STALL_ROUNDS);
            if (off + count + (heavy ? 0 : bound) > vcap)
                DELTA_LEAVE(off + count + (heavy ? 0 : bound),
                            SAGA_RUN_STALL_VERTICES);
            if (pcount + bound > pcap)
                DELTA_LEAVE(pcount + bound, SAGA_RUN_STALL_PENDING);
            if (heavy)
                memcpy(vlog + off, from, (size_t)count * sizeof(int32_t));
            ne = delta_pass(count, vlog + off, starts, lens, cols, wts, values,
                            delta, heavy, bucket, same, &nsame, pend, &pcount);
            if (ne < 0)
                DELTA_LEAVE(0, SAGA_RUN_BAD_BUCKET);
            log_round(rtab, r, off, 0, count, ne, ne);
            r++;
            off += count;
            /* same[] now starts at vlog[off]: the next light frontier. */
            k = bucket_frontier(same, nsame, values, delta, bucket);
            if (k < 0)
                DELTA_LEAVE(0, SAGA_RUN_BAD_BUCKET);
            phase = heavy ? DELTA_NEXT : DELTA_LIGHT;
        }
    }
leave:
#undef DELTA_LEAVE
    ctl[4] = pcount;
    ctl[5] = bucket;
    ctl[6] = first;
    ctl[7] = phase;
    return run_leave(ctl, r, off, k, need, (int)code);
}

/* ---- pricing ------------------------------------------------------
 * np.add.reduce over a contiguous float64 vector, with numpy's own
 * summation tree written out (DOUBLE_pairwise_sum): under 8 elements
 * left to right; up to 128, eight running lanes combined pairwise and
 * the n % 8 tail added left to right; beyond that, split at n / 2
 * rounded down to a multiple of 8.  Same values, same tree: the same
 * float64 as ndarray.sum(), which the loader checks before it offers
 * saga_price_run (a numpy with another tree gets the numpy loop). */
double saga_pairwise_sum(const double *a, int64_t n)
{
    int64_t i;
    if (n < 8) {
        double res = -0.0;
        for (i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8], res;
        int lane;
        for (lane = 0; lane < 8; lane++)
            r[lane] = a[lane];
        for (i = 8; i < n - (n % 8); i += 8)
            for (lane = 0; lane < 8; lane++)
                r[lane] += a[i + lane];
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    i = n / 2;
    i -= i % 8;
    return saga_pairwise_sum(a, i) + saga_pairwise_sum(a + i, n - i);
}

/* One priced run: repro.compute.pricing's loop over the rounds of a
 * run record (vlog, rtab as above), for ntables cost tables at once.
 * tables[t] holds every vertex's pull cost, then from push_base on
 * every vertex's push cost.  Per round and table: gather the tasks'
 * costs, their maximum and their np.add.reduce sum, graham_makespan's
 * formula in its Python operand order, and a left-to-right
 * accumulation over the rounds.  A round that repeats the previous
 * one's (offset, pulled, pushed) has the same tasks and reuses its
 * (makespan, total); a round without tasks costs nothing.
 *
 *   gathered  scratch, room for the largest round's tasks
 *   out       4 rows of ntables: latency, work (the results), and the
 *             current round's makespan and total. */
void saga_price_run(
    const int32_t *vlog,
    const int64_t *rtab,
    int64_t rounds,
    int64_t push_base,
    const double *const *tables,
    int64_t ntables,
    double threads,
    double scale,
    double task_dispatch,
    double chunk,
    double queue_push,
    double *gathered,
    double *out)
{
    double *latency = out, *work = out + ntables;
    double *makespan = out + 2 * ntables, *total = out + 3 * ntables;
    double idle = 1.0 - 1.0 / threads;
    const int64_t *last = NULL;
    int64_t r, t, i;
    for (t = 0; t < ntables; t++)
        latency[t] = work[t] = 0.0;
    for (r = 0; r < rounds; r++) {
        const int64_t *row = rtab + 5 * r;
        int64_t pulled = row[1], tasks = row[1] + row[2];
        double extra;
        if (tasks == 0)
            continue;
        if (!last || row[0] != last[0] || pulled != last[1] || row[2] != last[2]) {
            const int32_t *ids = vlog + row[0];
            for (t = 0; t < ntables; t++) {
                const double *pull_cost = tables[t];
                const double *push_cost = tables[t] + push_base;
                /* The maximum is order-free, so four running lanes keep
                 * it off one dependency chain.  They step over NaN;
                 * ndarray.max() returns it, and so does the re-derivation
                 * below, which a NaN sum -- any NaN cost makes one --
                 * asks for. */
                double m[4] = {-INFINITY, -INFINITY, -INFINITY, -INFINITY};
                double longest, sum;
                for (i = 0; i < tasks; i++) {
                    double c = (i < pulled ? pull_cost : push_cost)[ids[i]];
                    gathered[i] = c;
                    if (c > m[i & 3])
                        m[i & 3] = c;
                }
                longest = take_max(take_max(m[0], m[1]), take_max(m[2], m[3]));
                sum = saga_pairwise_sum(gathered, tasks);
                if (sum != sum)
                    for (longest = gathered[0], i = 1; i < tasks; i++)
                        longest = take_max(longest, gathered[i]);
                total[t] = sum + task_dispatch * (double)tasks / chunk;
                makespan[t] = (total[t] / threads + idle * longest) * scale;
            }
            last = row;
        }
        extra = (double)row[4] * queue_push;
        for (t = 0; t < ntables; t++) {
            latency[t] += makespan[t] + extra / threads;
            work[t] += total[t] + extra;
        }
    }
}

/* ---- the compute trace ---------------------------------------------
 * repro.analysis.hardware_profile._compute_trace: a traced run's
 * accesses, task by task, into MemoryTrace's columns (task id, address,
 * write bit).  The run's round table (offset, pulled, pushed, ...) and
 * vertex log name the tasks: per round its pulled vertices, then its
 * pushed ones.  A pulled task v is its in-traversal's reads, a read of
 * prop[u] per in-neighbor u, then the write of prop[v]; a pushed task
 * is its out-traversal's reads, then a write of the visited byte of
 * every out-neighbor w.  in_reads / out_reads are the store traversals
 * of the pulled (pushed) tasks in task order: in_counts[i] addresses
 * per task, back to back; a property value is prop_width bytes.  The
 * round table lies inside the log (checked by the caller).
 *
 * Everything the emission reads or writes is checked first, so a
 * refused run leaves the columns untouched: returns the number of
 * accesses written, or a SAGA_TRACE_* code with the culprit in *bad. */

/* The position of the first of ids[0..n) outside [0, limit), or -1;
 * the common case, none, in one branch-free pass. */
static int64_t first_outside(const int32_t *ids, int64_t n, uint64_t limit)
{
    int64_t j;
    int over = 0;
    for (j = 0; j < n; j++)
        over |= (uint64_t)ids[j] >= limit;
    if (!over)
        return -1;
    for (j = 0; (uint64_t)ids[j] < limit; j++)
        ;
    return j;
}

#define SAGA_TRACE_BAD_PROPERTY (-1)
#define SAGA_TRACE_BAD_VISITED (-2)
#define SAGA_TRACE_NO_ROW (-3)
#define SAGA_TRACE_BAD_READS (-4)
#define SAGA_TRACE_OVER_CAPACITY (-5)

int64_t saga_compute_trace(
    int64_t nrounds,
    const int64_t *rounds,
    const int32_t *log,
    int64_t nrows,
    const int32_t *in_starts,
    const int32_t *in_lens,
    const int32_t *in_cols,
    const int32_t *out_starts,
    const int32_t *out_lens,
    const int32_t *out_cols,
    int64_t npull,
    const int64_t *in_counts,
    int64_t in_total,
    const int64_t *in_reads,
    int64_t npush,
    const int64_t *out_counts,
    int64_t out_total,
    const int64_t *out_reads,
    int64_t prop_base,
    int64_t prop_width,
    int64_t nprop,
    int64_t vis_base,
    int64_t vis_bytes,
    int64_t capacity,
    int64_t *task_out,
    int64_t *addr_out,
    uint8_t *write_out,
    int64_t *bad)
{
    int64_t r, i, j, total = 0, pi = 0, si = 0, ic = 0, oc = 0;
    int64_t n = 0, task = 0;
    for (r = 0; r < nrounds; r++) {
        const int64_t *row = rounds + 5 * r;
        int64_t off = row[0], pulled = row[1], pushed = row[2];
        if (pulled > npull - pi || pushed > npush - si) {
            *bad = r;
            return SAGA_TRACE_BAD_READS;
        }
        for (i = 0; i < pulled + pushed; i++) {
            int64_t v = log[off + i], c, d, at;
            const int32_t *cols;
            if (v < 0 || v >= nprop) {
                *bad = v;
                return SAGA_TRACE_BAD_PROPERTY;
            }
            if (v >= nrows) {
                *bad = v;
                return SAGA_TRACE_NO_ROW;
            }
            if (i < pulled) {
                c = in_counts[pi++];
                if (c < 0 || c > in_total - ic) {
                    *bad = r;
                    return SAGA_TRACE_BAD_READS;
                }
                ic += c;
                cols = in_cols + in_starts[v];
                d = in_lens[v];
                if ((at = first_outside(cols, d, (uint64_t)nprop)) >= 0) {
                    *bad = cols[at];
                    return SAGA_TRACE_BAD_PROPERTY;
                }
                d += 1;  /* the task's own write */
            } else {
                c = out_counts[si++];
                if (c < 0 || c > out_total - oc) {
                    *bad = r;
                    return SAGA_TRACE_BAD_READS;
                }
                oc += c;
                cols = out_cols + out_starts[v];
                d = out_lens[v];
                /* w >> 3 < vis_bytes, for w >= 0 */
                if ((at = first_outside(cols, d, (uint64_t)vis_bytes << 3)) >= 0) {
                    *bad = cols[at];
                    return SAGA_TRACE_BAD_VISITED;
                }
            }
            if (c + d > capacity - total) {
                *bad = total + c + d;
                return SAGA_TRACE_OVER_CAPACITY;
            }
            total += c + d;
        }
    }
    pi = si = ic = oc = 0;
    for (r = 0; r < nrounds; r++) {
        const int64_t *row = rounds + 5 * r;
        const int32_t *tasks = log + row[0];
        int64_t pulled = row[1], pushed = row[2];
        for (i = 0; i < pulled + pushed; i++, task++) {
            int64_t v = tasks[i], c, d;
            const int64_t *reads;
            const int32_t *cols;
            int64_t *restrict t_at, *restrict a_at;
            uint8_t *restrict w_at;
            if (i < pulled) {
                c = in_counts[pi++];
                reads = in_reads + ic;
                ic += c;
                d = in_lens[v];
                cols = in_cols + in_starts[v];
            } else {
                c = out_counts[si++];
                reads = out_reads + oc;
                oc += c;
                d = out_lens[v];
                cols = out_cols + out_starts[v];
            }
            t_at = task_out + n;
            a_at = addr_out + n;
            w_at = write_out + n;
            for (j = 0; j < c; j++) {
                t_at[j] = task;
                a_at[j] = reads[j];
                w_at[j] = 0;
            }
            t_at += c;
            a_at += c;
            w_at += c;
            if (i < pulled) {
                for (j = 0; j < d; j++) {
                    t_at[j] = task;
                    a_at[j] = prop_base + prop_width * (int64_t)cols[j];
                    w_at[j] = 0;
                }
                t_at[d] = task;
                a_at[d] = prop_base + prop_width * v;
                w_at[d] = 1;
                n += c + d + 1;
            } else {
                for (j = 0; j < d; j++) {
                    t_at[j] = task;
                    a_at[j] = vis_base + ((int64_t)cols[j] >> 3);
                    w_at[j] = 1;
                }
                n += c + d;
            }
        }
    }
    return n;
}

/* ---- the live graph's data plane -----------------------------------
 * The four mutators and the lookup of repro.compute.csrstore.DynamicCSR,
 * the live graph's one record of its edges.  Each leaves exactly the
 * state and output its numpy body leaves (that body is the reference
 * and the path without this library).  Nothing here allocates: Python
 * sizes every output and scratch buffer, and grows the column heap by
 * DynamicCSR._grow_heap's policy between an insert's plan and apply.
 * Rows are marked in a zeroed bitmap over max_nodes, so the work is
 * batch-sized plus one word per 64 rows.  A pair's key row * n + col is
 * packed in int64_t, from the widened row id.  Python keeps the heap
 * below 2**31 slots (DynamicCSR._grow_heap, rebuild and compact refuse
 * more: repro.widths.SLOT_LIMIT), so every offset, length and capacity
 * narrowed to the int32_t row arrays below fits: the explicit casts
 * mark where. */

static inline int bit_test_set(uint64_t *bits, int64_t i)
{
    uint64_t *word = bits + (i >> 6), bit = (uint64_t)1 << (i & 63);
    int was = (*word & bit) != 0;
    *word |= bit;
    return was;
}

/* A relocated row's capacity: np.maximum(np.maximum(2 * cap, need), 4). */
static inline int64_t grown_cap(int64_t cap, int64_t need)
{
    int64_t grown = 2 * cap > need ? 2 * cap : need;
    return grown > 4 ? grown : 4;
}

/* DynamicCSR.insert, first half: the rows keys[0..m) name, each once
 * and ascending (rows[]), with the entries each takes (adds[]); returns
 * the heap slots the relocations of the rows that overflow need (0:
 * every row has room).  While the keys are counted lens[r] holds row
 * r's slot in the first-touch table (len_at[], add_at[]); it holds the
 * row's length again before this returns. */
int64_t saga_csr_insert_plan(
    int64_t m,
    const int32_t *keys,
    int32_t *lens,
    const int32_t *caps,
    uint64_t *seen,
    int64_t *len_at,
    int64_t *add_at,
    int64_t *rows,
    int64_t *adds,
    int64_t *touched)
{
    int64_t i, w, t = 0, k = 0, extra = 0, lo = INT64_MAX, hi = -1;
    for (i = 0; i < m; i++) {
        int64_t r = keys[i];
        if (!bit_test_set(seen, r)) {
            len_at[t] = lens[r];
            add_at[t] = 0;
            lens[r] = (int32_t)t++; /* t < max_nodes, an int32 */
            if (r < lo)
                lo = r;
            if (r > hi)
                hi = r;
        }
        add_at[lens[r]]++;
    }
    for (w = t ? lo >> 6 : 0; t && w <= hi >> 6; w++) {
        uint64_t bits = seen[w];
        while (bits) {
            int64_t r = (w << 6) + __builtin_ctzll(bits);
            int64_t slot = lens[r], need = len_at[slot] + add_at[slot];
            bits &= bits - 1;
            lens[r] = (int32_t)len_at[slot];
            rows[k] = r;
            adds[k++] = add_at[slot];
            if (need > caps[r])
                extra += grown_cap(caps[r], need);
        }
    }
    *touched = k;
    return extra;
}

/* DynamicCSR.insert, second half, once the heap has room: the rows
 * that overflow move, ascending, to the heap's end (used) with grown
 * capacity, their old extents left as tombstones; then every entry is
 * appended behind its row's tail in batch order.  Returns the slots
 * tombstoned. */
int64_t saga_csr_insert_apply(
    int64_t m,
    const int32_t *keys,
    const int32_t *vals,
    const float *wts_in,
    int64_t touched,
    const int64_t *rows,
    const int64_t *adds,
    int64_t used,
    int32_t *starts,
    int32_t *lens,
    int32_t *caps,
    int32_t *cols,
    float *wts)
{
    int64_t i, k, dead = 0;
    for (k = 0; k < touched; k++) {
        int64_t r = rows[k], need = lens[r] + adds[k];
        if (need > caps[r]) {
            memcpy(cols + used, cols + starts[r], (size_t)lens[r] * sizeof(int32_t));
            memcpy(wts + used, wts + starts[r], (size_t)lens[r] * sizeof(float));
            dead += caps[r];
            starts[r] = (int32_t)used;
            caps[r] = (int32_t)grown_cap(caps[r], need);
            used += caps[r];
        }
    }
    for (i = 0; i < m; i++) {
        int64_t r = keys[i], at = starts[r] + lens[r]++;
        cols[at] = vals[i];
        wts[at] = wts_in[i];
    }
    return dead;
}

static inline uint64_t pair_hash(int64_t key)
{
    uint64_t h = (uint64_t)key * 0x9E3779B97F4A7C15ULL;
    h ^= h >> 32;
    h *= 0xBF58476D1CE4E5B9ULL;
    return h ^ (h >> 31);
}

/* The entry of packed pair key (row * n + col) in an open-addressing
 * set of mask + 1 entries, each a key and the first batch row naming
 * it (table[2h], table[2h + 1]; key -1: empty): where the key is, or
 * the empty entry where it would go. */
static inline uint64_t pair_slot(const int64_t *table, uint64_t mask, int64_t key)
{
    uint64_t h = pair_hash(key) & mask;
    while (table[2 * h] != -1 && table[2 * h] != key)
        h = (h + 1) & mask;
    return h;
}

/* The pair set of the m (keys, vals) pairs over n vertices, shared by
 * the delete and the lookup: table is 2 * cap scratch (cap a power of
 * two of at least 2m); seen and named are zeroed bitmaps over the
 * vertices, which get a bit per row and per val, so a row scan probes
 * the table only for the cols some pair names.  The distinct rows go
 * to rows[] (m scratch) ascending, the order their heap extents mostly
 * lie in; the scans also prefetch each row 8 rows ahead.  With
 * first_of given (m scratch), first_of[i] is the first row naming pair
 * i's pair.  Returns the row count. */
static int64_t pair_set(
    int64_t m,
    int64_t n,
    const int32_t *keys,
    const int32_t *vals,
    uint64_t *seen,
    uint64_t *named,
    int64_t *rows,
    int64_t *table,
    int64_t cap,
    int64_t *first_of)
{
    uint64_t mask = (uint64_t)cap - 1, h;
    int64_t i, w, t = 0, lo = INT64_MAX, hi = -1;
    memset(table, 0xff, (size_t)cap * 2 * sizeof(int64_t));
    for (i = 0; i < m; i++) {
        int64_t r = keys[i], key = r * n + vals[i];
        if (i + 8 < m) { /* a random entry each: start the load 8 pairs early */
            uint64_t ahead = pair_hash((int64_t)keys[i + 8] * n + vals[i + 8]) & mask;
            __builtin_prefetch(table + 2 * ahead);
        }
        h = pair_slot(table, mask, key);
        if (table[2 * h] == -1) {
            table[2 * h] = key;
            table[2 * h + 1] = i;
        }
        if (first_of)
            first_of[i] = table[2 * h + 1];
        bit_test_set(named, vals[i]);
        if (!bit_test_set(seen, r)) {
            if (r < lo)
                lo = r;
            if (r > hi)
                hi = r;
        }
    }
    for (w = m ? lo >> 6 : 0; m && w <= hi >> 6; w++) {
        uint64_t bits = seen[w];
        for (; bits; bits &= bits - 1)
            rows[t++] = (w << 6) + __builtin_ctzll(bits);
    }
    return t;
}

/* The entry of pair (r, c) in a filled pair set, or -1 if it is not
 * there. */
static inline int64_t pair_find(
    const int64_t *table, uint64_t mask, int64_t n, const uint64_t *named, int64_t r,
    int64_t c)
{
    uint64_t h;
    if (!(named[c >> 6] >> (c & 63) & 1))
        return -1;
    h = pair_slot(table, mask, r * n + c);
    return table[2 * h] == -1 ? -1 : (int64_t)h;
}

/* DynamicCSR.delete: every slot of a named row whose (row, col) pair
 * is among the m (keys, vals) pairs goes; the survivors close up in
 * order and the freed slots become the row's slack.  Returns the slots
 * removed. */
int64_t saga_csr_delete(
    int64_t m,
    int64_t n,
    const int32_t *keys,
    const int32_t *vals,
    const int32_t *starts,
    int32_t *lens,
    int32_t *cols,
    float *wts,
    uint64_t *seen,
    uint64_t *named,
    int64_t *rows,
    int64_t *table,
    int64_t cap)
{
    uint64_t mask = (uint64_t)cap - 1;
    int64_t k, removed = 0;
    int64_t t = pair_set(m, n, keys, vals, seen, named, rows, table, cap, NULL);
    for (k = 0; k < t; k++) {
        int64_t r = rows[k], from = starts[r], end = from + lens[r], to = from, s;
        if (k + 8 < t)
            __builtin_prefetch(cols + starts[rows[k + 8]]);
        for (s = from; s < end; s++) {
            int32_t c = cols[s];
            if (pair_find(table, mask, n, named, r, c) >= 0)
                continue;
            cols[to] = c;
            wts[to++] = wts[s];
        }
        removed += end - to;
        lens[r] = (int32_t)(to - from);
    }
    return removed;
}

/* DynamicCSR.lookup: for each of the m (keys, vals) pairs, whether its
 * row i is the first to name it (first[i]), whether it is live (live[i])
 * and then its stored weight (weight[i], 0 otherwise; the row's first
 * entry of the pair).  Each distinct named row is scanned once, up to
 * its length.  Scratch as for the delete, plus first_of (m). */
void saga_csr_lookup(
    int64_t m,
    int64_t n,
    const int32_t *keys,
    const int32_t *vals,
    const int32_t *starts,
    const int32_t *lens,
    const int32_t *cols,
    const float *wts,
    uint64_t *seen,
    uint64_t *named,
    int64_t *rows,
    int64_t *table,
    int64_t cap,
    int64_t *first_of,
    uint8_t *first,
    uint8_t *live,
    float *weight)
{
    uint64_t mask = (uint64_t)cap - 1;
    int64_t i, k, t = pair_set(m, n, keys, vals, seen, named, rows, table, cap, first_of);
    memset(live, 0, (size_t)m);
    memset(weight, 0, (size_t)m * sizeof(float));
    for (k = 0; k < t; k++) {
        int64_t r = rows[k], s, end = starts[r] + lens[r];
        if (k + 8 < t)
            __builtin_prefetch(cols + starts[rows[k + 8]]);
        for (s = starts[r]; s < end; s++) {
            int64_t h = pair_find(table, mask, n, named, r, cols[s]);
            if (h >= 0 && !live[table[2 * h + 1]]) {
                live[table[2 * h + 1]] = 1;
                weight[table[2 * h + 1]] = wts[s];
            }
        }
    }
    for (i = 0; i < m; i++) {
        int64_t j = first_of[i];
        first[i] = j == i;
        live[i] = live[j];
        weight[i] = weight[j];
    }
}

/* DynamicCSR.rebuild: a counting sort of the edge list by key into
 * fresh arrays, stable, so each row keeps the list's order; tight. */
void saga_csr_rebuild(
    int64_t m,
    int64_t n,
    const int32_t *keys,
    const int32_t *vals,
    const float *wts_in,
    int32_t *starts,
    int32_t *lens,
    int32_t *caps,
    int32_t *cols,
    float *wts)
{
    int64_t i, r, acc = 0;
    memset(lens, 0, (size_t)n * sizeof(int32_t));
    for (i = 0; i < m; i++)
        lens[keys[i]]++;
    for (r = 0; r < n; r++) {
        starts[r] = caps[r] = (int32_t)acc; /* caps[] is the fill cursor first */
        acc += lens[r];
    }
    for (i = 0; i < m; i++) {
        int64_t at = caps[keys[i]]++;
        cols[at] = vals[i];
        wts[at] = wts_in[i];
    }
    memcpy(caps, lens, (size_t)n * sizeof(int32_t));
}

/* DynamicCSR.compact: the live rows repacked tight into fresh arrays. */
void saga_csr_compact(
    int64_t n,
    const int32_t *starts,
    const int32_t *lens,
    const int32_t *cols,
    const float *wts,
    int32_t *new_starts,
    int32_t *new_caps,
    int32_t *new_cols,
    float *new_wts)
{
    int64_t r, acc = 0;
    for (r = 0; r < n; r++) {
        int32_t len = lens[r];
        memcpy(new_cols + acc, cols + starts[r], (size_t)len * sizeof(int32_t));
        memcpy(new_wts + acc, wts + starts[r], (size_t)len * sizeof(float));
        new_starts[r] = (int32_t)acc;
        new_caps[r] = len;
        acc += len;
    }
}
"""


def _sig(fn, restype, argtypes) -> None:
    fn.restype = restype
    fn.argtypes = argtypes


def _count_call(kernel: str) -> None:
    """One ``compute_kernel_calls_total`` tick: a crossing into C."""
    if METRICS.enabled:
        METRICS.counter(
            "compute_kernel_calls_total",
            "native compute-kernel calls (ctypes crossings)",
            kernel=kernel,
        ).inc()


class ComputeKernels:
    """ctypes wrappers over the compiled kernels (numpy in/out)."""

    def __init__(self, lib: ctypes.CDLL) -> None:
        self._lib = lib
        _sig(lib.saga_expand, None, [_I64] + [_PTR] * 8)
        _sig(
            lib.saga_inc_run,
            _I64,
            [_I64] + [_PTR] * 8 + [_I32, _F64, _I64, _F64, _F64, _PTR, _I64]
            + [_PTR, _I64, _PTR, _I64, _PTR],
        )
        _sig(
            lib.saga_relax_run,
            _I64,
            [_I64] + [_PTR] * 5 + [_I32, _I32, _PTR]
            + [_PTR, _I64, _PTR, _I64, _PTR],
        )
        _sig(lib.saga_taint_closure, None, [_I64] + [_PTR] * 6)
        _sig(
            lib.saga_jacobi_run,
            _I64,
            [_I64] + [_PTR] * 8 + [_I32, _F64, _F64, _F64, _I64],
        )
        _sig(
            lib.saga_delta_run,
            _I64,
            [_PTR] * 5 + [_F64] + [_PTR, _I64, _PTR, _I64, _PTR] + [_PTR, _I64],
        )
        _sig(lib.saga_pairwise_sum, _F64, [_PTR, _I64])
        _sig(
            lib.saga_price_run,
            None,
            [_PTR, _PTR, _I64, _I64, _PTR, _I64] + [_F64] * 5 + [_PTR, _PTR],
        )
        _sig(
            lib.saga_compute_trace,
            _I64,
            [_I64, _PTR, _PTR, _I64] + [_PTR] * 6
            + [_I64, _PTR, _I64, _PTR] * 2 + [_I64] * 6 + [_PTR] * 4,
        )
        _sig(lib.saga_csr_insert_plan, _I64, [_I64] + [_PTR] * 9)
        _sig(
            lib.saga_csr_insert_apply,
            _I64,
            [_I64] + [_PTR] * 3 + [_I64] + [_PTR] * 2 + [_I64] + [_PTR] * 5,
        )
        _sig(lib.saga_csr_delete, _I64, [_I64, _I64] + [_PTR] * 10 + [_I64])
        _sig(lib.saga_csr_rebuild, None, [_I64, _I64] + [_PTR] * 8)
        _sig(lib.saga_csr_compact, None, [_I64] + [_PTR] * 8)
        _sig(lib.saga_csr_lookup, None, [_I64, _I64] + [_PTR] * 10 + [_I64] + [_PTR] * 4)

    # ``arr.ctypes.data`` of a size-0 array is a valid (never
    # dereferenced) pointer, so empty frontiers need no special casing.
    @staticmethod
    def _p(arr: np.ndarray):
        return arr.ctypes.data

    def expand(
        self, csr, frontier: np.ndarray, total: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """C twin of :func:`repro.compute.kernels.expand_frontier`."""
        frontier = np.ascontiguousarray(frontier, dtype=np.intp)
        seg = np.empty(total, dtype=np.int64)
        nbr = np.empty(total, dtype=VERTEX)
        wt = np.empty(total, dtype=WEIGHT)
        _count_call("expand")
        self._lib.saga_expand(
            frontier.size,
            self._p(frontier),
            self._p(csr.indptr),
            self._p(csr.degrees),
            self._p(csr.indices),
            self._p(csr.weights),
            self._p(seg),
            self._p(nbr),
            self._p(wt),
        )
        return seg, nbr, wt

    def _run(
        self, kernel: str, fixed: tuple, frontier: np.ndarray, pending: bool = False
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """Drive the run kernel ``saga_<kernel>`` to the end of its run.

        ``fixed`` are the kernel's leading arguments; the run-log tail
        ``(vlog, vcap, rtab, rcap, ctl)`` is appended here, followed by
        the pending-bucket buffer ``(pend, pcap)`` when ``pending``.
        Each stall grows the buffer it names (at least doubling, used
        prefix kept) and re-enters at the cursor ``ctl`` holds.  Returns
        the vertex log and the round table, trimmed to what the run
        wrote, and the return code the run ended with.
        """
        entry = getattr(self._lib, "saga_" + kernel)
        p = self._p
        vlog = np.empty(max(frontier.size, RUN_LOG_VERTICES), dtype=VERTEX)
        vlog[: frontier.size] = frontier
        rtab = np.empty((RUN_LOG_ROUNDS, 5), dtype=np.int64)
        # (bucket, vertex) pairs.
        pend = np.empty((RUN_LOG_PENDING if pending else 0, 2), dtype=np.int64)
        ctl = np.zeros(8, dtype=np.int64)
        ctl[2] = frontier.size
        while True:
            _count_call(kernel)
            tail = (p(pend), len(pend)) if pending else ()
            code = entry(*fixed, p(vlog), vlog.size, p(rtab), len(rtab), p(ctl), *tail)
            if code == _RUN_STALL_VERTICES:
                grown = np.empty(max(int(ctl[3]), 2 * vlog.size), dtype=VERTEX)
                used = int(ctl[1] + ctl[2])
                grown[:used] = vlog[:used]
                vlog = grown
            elif code == _RUN_STALL_ROUNDS:
                grown = np.empty((max(int(ctl[3]), 2 * len(rtab)), 5), dtype=np.int64)
                grown[: ctl[0]] = rtab[: ctl[0]]
                rtab = grown
            elif code == _RUN_STALL_PENDING:
                grown = np.empty((max(int(ctl[3]), 2 * len(pend)), 2), dtype=np.int64)
                grown[: ctl[4]] = pend[: ctl[4]]
                pend = grown
            else:
                return vlog[: ctl[1]], rtab[: ctl[0]], code

    def inc_run(
        self,
        cv,
        frontier: np.ndarray,
        values: np.ndarray,
        op: int,
        epsilon: float,
        pinned: int,
        pr_base: float,
        damping: float,
        max_rounds: int,
    ) -> Tuple[np.ndarray, np.ndarray, bool]:
        """Every INC round of one run; see :meth:`_run` for the result.

        The vertex log is ``[F0][T0][F1][T1]...`` and table row r is
        ``(offset of Fr, len(Fr), len(Tr), cas_ops, pushes)``.
        """
        out_csr = cv.out_csr
        in_csr = cv.in_csr
        seen = np.zeros(cv.num_nodes, dtype=np.uint8)
        p = self._p
        fixed = (
            cv.num_nodes,
            p(in_csr.indptr),
            p(in_csr.degrees),
            p(in_csr.indices),
            p(in_csr.weights),
            p(out_csr.indptr),
            p(out_csr.degrees),
            p(out_csr.indices),
            p(values),
            op,
            epsilon,
            pinned,
            pr_base,
            damping,
            p(seen),
            max_rounds,
        )
        vlog, rtab, code = self._run("inc_run", fixed, frontier)
        return vlog, rtab, code == _RUN_OVERRUN

    def relax_run(
        self,
        csr,
        num_nodes: int,
        frontier: np.ndarray,
        values: np.ndarray,
        op: int,
        maximize: bool,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Every FS relaxation round of one run.

        The vertex log is ``[F0][F1]...`` (discovery order) and table
        row r is ``(offset of Fr, 0, len(Fr), pushes, pushes)``.
        """
        improved = np.zeros(num_nodes, dtype=np.uint8)
        p = self._p
        fixed = (
            num_nodes,
            p(csr.indptr),
            p(csr.degrees),
            p(csr.indices),
            p(csr.weights),
            p(values),
            op,
            1 if maximize else 0,
            p(improved),
        )
        vlog, rtab, _ = self._run("relax_run", fixed, frontier)
        return vlog, rtab

    def taint_closure(self, csr, tainted: np.ndarray, pinned: np.ndarray) -> None:
        """Close the ``tainted`` byte mask forward over ``csr`` in place."""
        work = np.empty(tainted.size, dtype=VERTEX)
        _count_call("taint_closure")
        self._lib.saga_taint_closure(
            tainted.size,
            self._p(csr.indptr),
            self._p(csr.degrees),
            self._p(csr.indices),
            self._p(tainted),
            self._p(pinned),
            self._p(work),
        )

    def jacobi_run(
        self,
        cv,
        values: np.ndarray,
        op: int,
        epsilon: float,
        pr_base: float,
        damping: float,
        max_iterations: int,
    ) -> int:
        """The whole Jacobi fixpoint of vertex function ``op``, in place.

        Returns the rounds run, or -1 when ``max_iterations`` rounds ran
        without the largest change falling to ``epsilon``.
        """
        n = cv.num_nodes
        if values.shape != (n,) or values.dtype != np.float64 or not values.flags.c_contiguous:
            raise ValueError(
                f"values must be a contiguous float64 array of {n} entries "
                f"(the view's vertex count), got {values.dtype}{values.shape}"
            )
        in_csr = cv.in_csr
        scratch = np.empty((2 if op == OP_PR else 1) * n, dtype=np.float64)
        order = np.empty(n, dtype=VERTEX)
        p = self._p
        _count_call("jacobi_run")
        return self._lib.saga_jacobi_run(
            n,
            p(in_csr.indptr),
            p(in_csr.degrees),
            p(in_csr.indices),
            p(in_csr.weights),
            p(cv.out_csr.degrees),
            p(values),
            p(scratch),
            p(order),
            op,
            epsilon,
            pr_base,
            damping,
            max_iterations,
        )

    def delta_run(
        self, csr, source: int, values: np.ndarray, delta: float
    ) -> Tuple[np.ndarray, np.ndarray, bool]:
        """Every delta-stepping pass of one SSSP run from ``source``.

        The vertex log is ``[P0][P1]...`` (each pass's frontier) and
        table row r is ``(offset of Pr, 0, len(Pr), events, events)``.  The third
        result is True when the run stopped at a path length whose
        bucket index does not fit in int64.
        """
        p = self._p
        fixed = (
            p(csr.indptr),
            p(csr.degrees),
            p(csr.indices),
            p(csr.weights),
            p(values),
            delta,
        )
        frontier = np.array([source], dtype=VERTEX)
        vlog, rtab, code = self._run("delta_run", fixed, frontier, pending=True)
        return vlog, rtab, code == _RUN_BAD_BUCKET

    def pairwise_sum(self, terms: np.ndarray) -> float:
        """``terms.sum()`` of a contiguous float64 vector, through the
        summation tree ``saga_price_run`` uses."""
        return self._lib.saga_pairwise_sum(self._p(terms), terms.size)

    def price_run(
        self,
        vertex_log: np.ndarray,
        rounds: np.ndarray,
        push_base: int,
        table_pointers: np.ndarray,
        threads: int,
        scale: float,
        task_dispatch: float,
        chunk: int,
        queue_push: float,
    ) -> Tuple[list, list]:
        """Every round of one run record priced on every cost table.

        ``vertex_log`` and ``rounds`` are a
        :class:`~repro.compute.stats.ComputeRun`'s columns (the record
        keeps every row inside the log) and ``table_pointers`` the
        addresses of contiguous float64 tables of ``2 * push_base``
        entries, as :class:`repro.compute.pricing.CostTables` holds
        them; the caller has checked the log's vertices against
        ``push_base``.  Returns per table the summed makespans and the
        summed work.
        """
        p = self._p
        vertex_log = np.ascontiguousarray(vertex_log, dtype=VERTEX)
        out = np.empty((4, table_pointers.size), dtype=np.float64)
        # Room for the largest round's tasks.
        largest = int((rounds[:, 1] + rounds[:, 2]).max(initial=0))
        gathered = np.empty(largest, dtype=np.float64)
        _count_call("price_run")
        self._lib.saga_price_run(
            p(vertex_log),
            p(rounds),
            len(rounds),
            push_base,
            p(table_pointers),
            table_pointers.size,
            threads,
            scale,
            task_dispatch,
            chunk,
            queue_push,
            p(gathered),
            p(out),
        )
        return out[0].tolist(), out[1].tolist()

    def compute_trace(
        self, run, compute_view, in_reads, out_reads, prop, value_bytes, visited, columns
    ) -> int:
        """A traced run's accesses, task-major, into ``columns``.

        ``in_reads`` / ``out_reads`` are the ``(counts, addresses)`` of
        the store traversals of the run's pulled (pushed) tasks in task
        order; ``prop`` (values of ``value_bytes``) and ``visited`` are
        the regions the neighbor accesses address; ``columns`` has room for
        the whole trace (:class:`repro.sim.trace.TraceColumns`).
        Returns the number of accesses written.  A run whose vertex,
        in-neighbor or out-neighbor lies outside its region raises that
        region's :meth:`~repro.sim.memory.Region.refuse` error; one whose
        round table leaves its vertex log, or that the traversals, the
        compute view or the columns do not cover, raises
        :class:`SimulationError` -- all before anything is written.
        """
        rounds = np.ascontiguousarray(run.rounds, dtype=np.int64)
        log = np.ascontiguousarray(run.vertex_log, dtype=VERTEX)
        if rounds.ndim != 2 or rounds.shape[1] != len(ROUND_COLUMNS):
            raise SimulationError(f"a round table has {ROUND_COLUMNS} columns, got {rounds.shape}")
        check_round_table(rounds, len(log))
        in_counts, in_addrs, out_counts, out_addrs = (
            np.ascontiguousarray(column, dtype=np.int64)
            for column in (*in_reads, *out_reads)
        )
        in_csr, out_csr = compute_view.in_csr, compute_view.out_csr
        bad = np.zeros(1, dtype=np.int64)
        p = self._p
        _count_call("compute_trace")
        written = self._lib.saga_compute_trace(
            len(rounds), p(rounds), p(log),
            min(len(in_csr.degrees), len(out_csr.degrees)),
            p(in_csr.indptr), p(in_csr.degrees), p(in_csr.indices),
            p(out_csr.indptr), p(out_csr.degrees), p(out_csr.indices),
            len(in_counts), p(in_counts), len(in_addrs), p(in_addrs),
            len(out_counts), p(out_counts), len(out_addrs), p(out_addrs),
            prop.base, value_bytes, prop.size // value_bytes, visited.base, visited.size,
            columns.capacity, p(columns.task_ids), p(columns.addresses),
            p(columns.is_write), p(bad),
        )
        culprit = int(bad[0])
        if written == _TRACE_BAD_PROPERTY:
            prop.refuse(culprit, value_bytes)
        if written == _TRACE_BAD_VISITED:
            visited.refuse(culprit >> 3, 1)
        if written < 0:
            reason = {
                _TRACE_NO_ROW: f"vertex {culprit} has no row in the compute view",
                _TRACE_BAD_READS: f"round {culprit}'s tasks overrun their traversal reads",
            }.get(written, f"{culprit} accesses overrun {columns.capacity} columns")
            raise SimulationError(f"compute trace refused: {reason}")
        return written

    # -- the live graph's data plane ------------------------------------

    @staticmethod
    def _deltas(store, keys, *columns):
        """A store's delta columns as contiguous arrays of one length,
        the keys and vals checked to be vertex ids: the kernels index
        by them.  Columns already of the store's widths (ids int32,
        weights float32) are passed as they are; the ids are checked
        before they are narrowed."""
        keys, *columns = (np.asarray(c) for c in (keys, *columns))
        if any(c.shape != keys.shape for c in columns) or keys.ndim != 1:
            raise ValueError("delta columns must be 1-D and of one length")
        for ids in (keys, columns[0]):
            if ids.size and (ids.min() < 0 or ids.max() >= store.max_nodes):
                raise ValueError(f"vertex ids must lie in [0, {store.max_nodes})")
        dtypes = (VERTEX, VERTEX, WEIGHT)
        return tuple(np.ascontiguousarray(c, dtype=t) for c, t in zip((keys, *columns), dtypes))

    @staticmethod
    def _row_bitmap(store) -> np.ndarray:
        return np.zeros((store.max_nodes + 63) // 64, dtype=np.uint64)

    def csr_insert(self, store, keys, vals, wts) -> None:
        """``DynamicCSR.insert`` of a non-empty delta: the plan names the
        heap slots the relocations need, the heap grows by the store's
        own policy, then the apply writes."""
        keys, vals, wts = self._deltas(store, keys, vals, wts)
        m = keys.size
        # First-touch lengths and adds, then the rows ascending and theirs.
        scratch = np.empty((4, m), dtype=np.int64)
        seen = self._row_bitmap(store)
        touched = np.zeros(1, dtype=np.int64)
        p = self._p
        _count_call("csr_insert_plan")
        extra = self._lib.saga_csr_insert_plan(
            m, p(keys), p(store.lens), p(store.caps), p(seen),
            p(scratch[0]), p(scratch[1]), p(scratch[2]), p(scratch[3]), p(touched),
        )  # fmt: skip
        if extra:
            store._grow_heap(extra)
        _count_call("csr_insert_apply")
        store.dead += self._lib.saga_csr_insert_apply(
            m, p(keys), p(vals), p(wts), int(touched[0]), p(scratch[2]), p(scratch[3]),
            store.used, p(store.starts), p(store.lens), p(store.caps), p(store.cols),
            p(store.wts),
        )  # fmt: skip
        store.used += extra
        store.live += m
        store.tight = False

    @staticmethod
    def _pair_set(m: int):
        """Scratch of the kernels' pair set over ``m`` pairs: the table
        (two slots per entry) and its entry count, a power of two >= 2m."""
        cap = 1 << max(2 * m - 1, 1).bit_length()
        return np.empty(2 * cap, dtype=np.int64), cap

    def csr_delete(self, store, keys, vals) -> int:
        """``DynamicCSR.delete``: returns the slots removed."""
        keys, vals = self._deltas(store, keys, vals)
        m = keys.size
        table, cap = self._pair_set(m)
        rows = np.empty(m, dtype=np.int64)
        seen, named = self._row_bitmap(store), self._row_bitmap(store)
        p = self._p
        _count_call("csr_delete")
        removed = self._lib.saga_csr_delete(
            m, store.max_nodes, p(keys), p(vals), p(store.starts), p(store.lens),
            p(store.cols), p(store.wts), p(seen), p(named), p(rows), p(table), cap,
        )  # fmt: skip
        if removed:
            store.live -= removed
            store.tight = False
        return removed

    def csr_lookup(self, store, keys, vals):
        """``DynamicCSR.lookup``: ``(first, live, weight)`` per pair."""
        keys, vals = self._deltas(store, keys, vals)
        m = keys.size
        table, cap = self._pair_set(m)
        rows, first_of = np.empty((2, m), dtype=np.int64)
        seen, named = self._row_bitmap(store), self._row_bitmap(store)
        first, live = np.empty((2, m), dtype=np.bool_)
        weight = np.empty(m, dtype=WEIGHT)
        p = self._p
        _count_call("csr_lookup")
        self._lib.saga_csr_lookup(
            m, store.max_nodes, p(keys), p(vals), p(store.starts), p(store.lens),
            p(store.cols), p(store.wts), p(seen), p(named), p(rows), p(table), cap,
            p(first_of), p(first), p(live), p(weight),
        )  # fmt: skip
        return first, live, weight

    def csr_rebuild(self, store, keys, vals, wts) -> None:
        """``DynamicCSR.rebuild``: fresh arrays, tight."""
        keys, vals, wts = self._deltas(store, keys, vals, wts)
        n, m = store.max_nodes, keys.size
        starts, lens, caps = (np.empty(n, dtype=SLOT) for _ in range(3))
        cols = np.empty(m, dtype=VERTEX)
        heap_wts = np.empty(m, dtype=WEIGHT)
        p = self._p
        _count_call("csr_rebuild")
        self._lib.saga_csr_rebuild(
            m, n, p(keys), p(vals), p(wts), p(starts), p(lens), p(caps), p(cols), p(heap_wts)
        )
        store.starts, store.lens, store.caps = starts, lens, caps
        store.cols, store.wts = cols, heap_wts
        store.used = store.live = m
        store.dead = 0
        store.tight = True

    def csr_compact(self, store) -> None:
        """``DynamicCSR.compact``: fresh arrays but ``lens``, tight."""
        n = store.max_nodes
        live = int(store.lens.sum())
        starts, caps = np.empty(n, dtype=SLOT), np.empty(n, dtype=SLOT)
        cols = np.empty(live, dtype=VERTEX)
        heap_wts = np.empty(live, dtype=WEIGHT)
        p = self._p
        _count_call("csr_compact")
        self._lib.saga_csr_compact(
            n, p(store.starts), p(store.lens), p(store.cols), p(store.wts),
            p(starts), p(caps), p(cols), p(heap_wts),
        )  # fmt: skip
        store.starts, store.caps, store.cols, store.wts = starts, caps, cols, heap_wts
        store.used = store.live
        store.dead = 0
        store.tight = True


#: Lengths of the probe vector's tails :func:`_sums_like_numpy` compares:
#: both sides of the tree's thresholds (8 lanes, blocks of 128, splits
#: rounded to 8) and the whole vector.  One sum agrees by luck too often.
_PROBE_LENGTHS = (
    7, 8, 9, 11, 13, 15, 16, 17, 23, 64, 100, 127, 128, 129, 250, 257, 500, 777, 1000,
)


def _sums_like_numpy(lib: ctypes.CDLL) -> bool:
    """Whether ``saga_pairwise_sum`` is this numpy's reduction tree.

    Checked once per load on tails of a fixed 1 000-element non-integer
    vector: a numpy that sums in another order must cost the native
    library (every phase then runs on Python), not move a priced cycle.
    """
    probe = (np.arange(1.0, 1001.0) * 7919.0 % 1009.0) / 7.0
    for n in _PROBE_LENGTHS:
        tail = probe[probe.size - n :]
        if lib.saga_pairwise_sum(tail.ctypes.data, n) != float(tail.sum()):
            return False
    return True


def _bind(lib: ctypes.CDLL) -> ComputeKernels:
    """The facade, once the library's sum is checked to be numpy's."""
    kernels = ComputeKernels(lib)
    if not _sums_like_numpy(lib):
        raise RuntimeError(
            "saga_pairwise_sum does not reproduce ndarray.sum() of "
            f"numpy {np.__version__}"
        )
    return kernels


def get():
    """The compiled kernels, or ``None`` when the native library is not loaded."""
    bound = NATIVE.get()
    return bound[__name__] if bound is not None else None


loaded = NATIVE.loaded

"""Compiled compute kernels: the hottest inner loops in C via ctypes.

PR 4 vectorized the compute phase, but profiling the quick RMAT
workload shows numpy *dispatch* still dominates: the INC engine issues
~30 small array ops per round (and the dependency-wave machinery on
top), matching the csl-experiments finding that per-op overhead
exceeds pure compute ~2.9x.  This module compiles the inner loops with
the system C compiler (the :mod:`repro.sim.cbuild` pattern from PR 2:
content-hashed build cache, atomic install, ``-ffp-contract=off``) and
exposes them behind the same bit-identity contract as the numpy twins.

The deeper win is *fusion*: the algorithms are specified as sequential
Gauss-Seidel loops, which numpy can only reproduce through
dependency-level wave scheduling -- but a C loop that processes the
ascending frontier one position at a time reproduces the sequential
semantics *directly*.  The fused unit is a whole compute **run**, four
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
contraction.  ``saga_interleave`` lays a traced run's accesses out task
by task for the Fig. 9/10 cell (the numpy body of
:func:`repro.analysis.hardware_profile._interleave` is its reference).
Every crossing ticks ``compute_kernel_calls_total{kernel}``.

Gates:

- ``SAGA_BENCH_NO_CCOMPUTE=1`` (or ``all``) disables every compiled
  compute kernel; a comma list (``inc_round,expand``) disables
  individual kernels, leaving the rest compiled.  The names
  (:data:`KERNEL_NAMES`): ``expand`` names ``saga_expand``,
  ``inc_round`` ``saga_inc_run`` and the closure, ``relax_round``
  ``saga_relax_run``, ``jacobi_round`` ``saga_jacobi_run``,
  ``delta_pass`` ``saga_delta_run``, ``price_run`` ``saga_price_run``
  and ``interleave`` ``saga_interleave``; without them the numpy
  expansion and engines of :mod:`repro.compute.kernels`,
  ``algorithms/base.py`` and ``algorithms/sssp.py``, the numpy loop of
  :mod:`repro.compute.pricing` and the numpy interleave run, the
  reference the kernels are tested against.  ``price_run`` is also
  withheld, whatever the variable says, when ``saga_pairwise_sum`` does
  not reproduce this numpy's ``ndarray.sum()`` on a probe vector
  (checked at load).
- ``SAGA_BENCH_REQUIRE_CCOMPUTE=1`` turns a failed build, or a withheld
  ``price_run``, into a hard error instead of the silent numpy fallback
  (CI sets it so a broken toolchain cannot masquerade as a perf
  regression).
"""

from __future__ import annotations

import ctypes
from typing import Tuple

import numpy as np

from repro.obs.metrics import METRICS
from repro.sim.cbuild import NativeLibrary

#: Disable compiled compute kernels: "1"/"all", or a comma list of
#: kernel names (see :data:`KERNEL_NAMES`).
DISABLE_ENV = "SAGA_BENCH_NO_CCOMPUTE"

#: When set, a failed build raises instead of falling back to numpy.
REQUIRE_ENV = "SAGA_BENCH_REQUIRE_CCOMPUTE"

#: Individually gateable kernel names.
KERNEL_NAMES = frozenset(
    {
        "expand",
        "inc_round",
        "relax_round",
        "jacobi_round",
        "delta_pass",
        "price_run",
        "interleave",
    }
)

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
 * iteration order (frontier position major, neighbor order minor). */
void saga_expand(
    int64_t k,
    const int64_t *frontier,
    const int64_t *starts,
    const int64_t *lens,
    const int64_t *cols,
    const double *wts,
    int64_t *seg_out,
    int64_t *nbr_out,
    double *wt_out)
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

static int64_t *g_sort_tmp = NULL;
static int64_t g_sort_cap = 0;

static void insertion_sort_ids(int64_t *ids, int64_t n)
{
    int64_t i, j;
    for (i = 1; i < n; i++) {
        int64_t x = ids[i];
        for (j = i; j > 0 && ids[j - 1] > x; j--)
            ids[j] = ids[j - 1];
        ids[j] = x;
    }
}

static void sort_ids(int64_t *ids, int64_t n)
{
    int64_t count[8][256];
    int64_t *src = ids, *dst;
    int64_t i, maxid = 0;
    int d, digits = 1;
    if (n <= SAGA_SORT_INSERTION_MAX) {
        insertion_sort_ids(ids, n);
        return;
    }
    if (g_sort_cap < n) {
        int64_t cap = g_sort_cap ? g_sort_cap : 1024;
        int64_t *grown;
        while (cap < n)
            cap *= 2;
        grown = (int64_t *)realloc(g_sort_tmp, (size_t)cap * sizeof(int64_t));
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
    while (digits < 8 && (maxid >> (8 * digits)) != 0)
        digits++;
    memset(count, 0, (size_t)digits * sizeof(count[0]));
    for (i = 0; i < n; i++) {
        int64_t x = ids[i];
        for (d = 0; d < digits; d++)
            count[d][(x >> (8 * d)) & 255]++;
    }
    dst = g_sort_tmp;
    for (d = 0; d < digits; d++) {
        int64_t *c = count[d], *swap;
        int64_t off = 0;
        int shift = 8 * d;
        for (i = 0; i < 256; i++) {
            int64_t here = c[i];
            c[i] = off;
            off += here;
        }
        for (i = 0; i < n; i++) {
            int64_t x = src[i];
            dst[c[(x >> shift) & 255]++] = x;
        }
        swap = src;
        src = dst;
        dst = swap;
    }
    if (src != ids)
        memcpy(ids, src, (size_t)n * sizeof(int64_t));
}

/* ---- vertex recalculation ----------------------------------------
 * The Table-I vertex functions, factored out so the INC round and the
 * Jacobi sweep run the exact same IEEE float64 operations in the exact
 * same order (the build forbids FMA contraction, so inlining context
 * cannot change a single bit). */
static double inc_recalc(
    int64_t v,
    const double *values,
    const int64_t *in_starts,
    const int64_t *in_lens,
    const int64_t *in_cols,
    const double *in_wts,
    const int64_t *out_deg,
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
            int64_t u = in_cols[s + j];
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
 * sequential Algorithm-1 loop (tests/oracles.py keeps it in Python), so
 * bit-identity holds by construction; the numpy engine needs
 * dependency-level waves to reproduce it.
 *
 * op selects the Table-I vertex function.  pinned (-1 = none) keeps
 * the source at its current value (old == new, never triggers).
 * Outputs: triggered[] prefix (counts_out[0]), next_out[] prefix in
 * discovery order, deduplicated but NOT sorted (counts_out[2]),
 * counts_out[1] = cas_ops.  seen[] is reset to zero before returning.
 */
static void inc_round(
    int64_t k,
    const int64_t *frontier,
    const int64_t *in_starts,
    const int64_t *in_lens,
    const int64_t *in_cols,
    const double *in_wts,
    const int64_t *out_starts,
    const int64_t *out_lens,
    const int64_t *out_cols,
    const int64_t *out_deg,
    double *values,
    int32_t op,
    double epsilon,
    int64_t pinned,
    double pr_base,
    double damping,
    uint8_t *seen,
    int64_t *triggered,
    int64_t *next_out,
    int64_t *counts_out)
{
    int64_t p, j, nt = 0, cas = 0, nn = 0;
    for (p = 0; p < k; p++) {
        int64_t v = frontier[p];
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
                int64_t t = out_cols[s + j];
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
    int64_t k, const int64_t *frontier, const int64_t *out_lens, int64_t n)
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
    const int64_t *in_starts,
    const int64_t *in_lens,
    const int64_t *in_cols,
    const double *in_wts,
    const int64_t *out_starts,
    const int64_t *out_lens,
    const int64_t *out_cols,
    double *values,
    int32_t op,
    double epsilon,
    int64_t pinned,
    double pr_base,
    double damping,
    uint8_t *seen,
    int64_t max_rounds,
    int64_t *vlog,
    int64_t vcap,
    int64_t *rtab,
    int64_t rcap,
    int64_t *ctl)
{
    int64_t r = ctl[0], off = ctl[1], k = ctl[2];
    while (k > 0) {
        int64_t counts[3], need, *next;
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
        memmove(next, vlog + off + 2 * k, (size_t)counts[2] * sizeof(int64_t));
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
    const int64_t *starts,
    const int64_t *lens,
    const int64_t *cols,
    const double *wts,
    double *values,
    int32_t op,
    int32_t maximize,
    uint8_t *improved,
    int64_t *vlog,
    int64_t vcap,
    int64_t *rtab,
    int64_t rcap,
    int64_t *ctl)
{
    int64_t r = ctl[0], off = ctl[1], k = ctl[2];
    while (k > 0) {
        const int64_t *frontier = vlog + off;
        int64_t *next_out = vlog + off + k;
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
                int64_t t = cols[s + j];
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
    const int64_t *starts,
    const int64_t *lens,
    const int64_t *cols,
    uint8_t *tainted,
    const uint8_t *pinned,
    int64_t *work)
{
    int64_t head, tail = 0, v, j;
    for (v = 0; v < n; v++)
        if (tainted[v])
            work[tail++] = v;
    for (head = 0; head < tail; head++) {
        int64_t s, d;
        v = work[head];
        s = starts[v];
        d = lens[v];
        for (j = 0; j < d; j++) {
            int64_t t = cols[s + j];
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
    double acc, const double *values, const int64_t *row, int64_t d)
{
    int64_t j;
    for (j = 0; j < d; j++) {
        double x = values[row[j]];
        acc = x < acc ? x : acc;
    }
    return acc;
}

static inline double row_max(
    double acc, const double *values, const int64_t *row, int64_t d)
{
    int64_t j;
    for (j = 0; j < d; j++) {
        double x = values[row[j]];
        acc = x > acc ? x : acc;
    }
    return acc;
}

static inline double row_sum(const double *values, const int64_t *row, int64_t d)
{
    double acc = 0.0;
    int64_t j;
    for (j = 0; j < d; j++)
        acc += values[row[j]];
    return acc;
}

/* The vertices by ascending in-degree (a stable counting sort; degrees
 * of 63 and up share the last bin). */
static void order_by_degree(int64_t n, const int64_t *lens, int64_t *order)
{
    int64_t start[65] = {0};
    int64_t v, d;
    for (v = 0; v < n; v++)
        start[(lens[v] < 63 ? lens[v] : 63) + 1]++;
    for (d = 0; d < 64; d++)
        start[d + 1] += start[d];
    for (v = 0; v < n; v++)
        order[start[lens[v] < 63 ? lens[v] : 63]++] = v;
}

int64_t saga_jacobi_run(
    int64_t n,
    const int64_t *in_starts,
    const int64_t *in_lens,
    const int64_t *in_cols,
    const double *in_wts,
    const int64_t *out_deg,
    double *values,
    double *scratch,
    int64_t *order,
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
    int64_t *ids, int64_t count, const double *values, double delta,
    int64_t bucket)
{
    int64_t p, k = 0, last = -1;
    sort_ids(ids, count);
    for (p = 0; p < count; p++) {
        int64_t t = ids[p], b;
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
    const int64_t *frontier,
    const int64_t *starts,
    const int64_t *lens,
    const int64_t *cols,
    const double *wts,
    double *values,
    double delta,
    int heavy,
    int64_t bucket,
    int64_t *same,
    int64_t *nsame,
    int64_t *pend,
    int64_t *pcount)
{
    int64_t p, j, ne = 0;
    for (p = 0; p < k; p++) {
        int64_t v = frontier[p];
        double base = values[v];
        int64_t s = starts[v];
        int64_t d = lens[v];
        for (j = 0; j < d; j++) {
            double w = wts[s + j];
            int64_t t, b;
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
    const int64_t *starts,
    const int64_t *lens,
    const int64_t *cols,
    const double *wts,
    double *values,
    double delta,
    int64_t *vlog,
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
                    vlog[off + members++] = pend[2 * i + 1];
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
            const int64_t *from = heavy ? vlog + first : vlog + off;
            int64_t *same = vlog + off + count;
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
                memcpy(vlog + off, from, (size_t)count * sizeof(int64_t));
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
    const int64_t *vlog,
    const int64_t *rtab,
    int64_t rounds,
    int64_t push_base,
    const double *const *tables,
    int64_t ntables,
    double threads,
    double scale,
    double task_dispatch,
    double dispatch_chunk,
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
            const int64_t *ids = vlog + row[0];
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
                total[t] = sum + task_dispatch * (double)tasks / dispatch_chunk;
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
 * repro.analysis.hardware_profile._interleave: a run's per-task
 * sections of accesses into one task-major trace -- task 0's sections
 * in section order, then task 1's, ...  Section s lists counts[s][t]
 * addresses per task t, the tasks' runs back to back, all reads or all
 * writes (write[s]); cursor[] (nsections zeros) follows each section's
 * next run.  The outputs are MemoryTrace's columns. */
void saga_interleave(
    int64_t ntasks,
    int64_t nsections,
    const int64_t *const *counts,
    const int64_t *const *addresses,
    const uint8_t *write,
    int64_t *cursor,
    int64_t *task_out,
    int64_t *addr_out,
    uint8_t *write_out)
{
    int64_t t, s, k, w = 0;
    for (t = 0; t < ntasks; t++) {
        for (s = 0; s < nsections; s++) {
            int64_t c = counts[s][t];
            const int64_t *from = addresses[s] + cursor[s];
            uint8_t bit = write[s];
            for (k = 0; k < c; k++) {
                task_out[w + k] = t;
                addr_out[w + k] = from[k];
                write_out[w + k] = bit;
            }
            cursor[s] += c;
            w += c;
        }
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
        _sig(lib.saga_interleave, None, [_I64, _I64] + [_PTR] * 7)
        #: Members this build must not serve, each with the reason (read
        #: by :class:`repro.sim.cbuild.NativeLibrary`).
        self.refused = {}
        if not _sums_like_numpy(lib):
            self.refused["price_run"] = (
                "saga_pairwise_sum does not reproduce ndarray.sum() of "
                f"numpy {np.__version__}"
            )

    # ``arr.ctypes.data`` of a size-0 array is a valid (never
    # dereferenced) pointer, so empty frontiers need no special casing.
    @staticmethod
    def _p(arr: np.ndarray):
        return arr.ctypes.data

    def expand(
        self, csr, frontier: np.ndarray, total: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """C twin of :func:`repro.compute.kernels.expand_frontier`."""
        seg = np.empty(total, dtype=np.int64)
        nbr = np.empty(total, dtype=np.int64)
        wt = np.empty(total, dtype=np.float64)
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
        vlog = np.empty(max(frontier.size, RUN_LOG_VERTICES), dtype=np.int64)
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
                grown = np.empty(max(int(ctl[3]), 2 * vlog.size), dtype=np.int64)
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
        work = np.empty(tainted.size, dtype=np.int64)
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
        order = np.empty(n, dtype=np.int64)
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
        frontier = np.array([source], dtype=np.int64)
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
        dispatch_chunk: int,
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
            dispatch_chunk,
            queue_push,
            p(gathered),
            p(out),
        )
        return out[0].tolist(), out[1].tolist()

    def interleave(
        self, sections
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-task sections of accesses as one task-major trace.

        Each section is ``(counts, addresses, write)``: ``counts[t]``
        accesses of task ``t`` (one entry per task, the same tasks in
        every section), their ``addresses`` task after task, and whether
        they are writes.  Returns the ``MemoryTrace`` columns
        ``(task_ids, addresses, is_write)``.
        """
        counts = [np.ascontiguousarray(s[0], dtype=np.int64) for s in sections]
        addresses = [np.ascontiguousarray(s[1], dtype=np.int64) for s in sections]
        tasks = counts[0].size
        for count, flat in zip(counts, addresses):
            if count.shape != (tasks,) or count.min(initial=0) < 0 or count.sum() != flat.size:
                raise ValueError(
                    "every section needs a non-negative count per task, "
                    "summing to its number of addresses"
                )
        total = sum(flat.size for flat in addresses)
        task_ids = np.empty(total, dtype=np.int64)
        trace = np.empty(total, dtype=np.int64)
        is_write = np.empty(total, dtype=np.bool_)
        # Named, not temporaries: each must outlive the call.
        count_columns = np.array([column.ctypes.data for column in counts], dtype=np.uintp)
        address_columns = np.array([column.ctypes.data for column in addresses], dtype=np.uintp)
        writes = np.array([s[2] for s in sections], dtype=np.uint8)
        cursor = np.zeros(len(sections), dtype=np.int64)
        p = self._p
        _count_call("interleave")
        self._lib.saga_interleave(
            tasks,
            len(sections),
            p(count_columns),
            p(address_columns),
            p(writes),
            p(cursor),
            p(task_ids),
            p(trace),
            p(is_write),
        )
        return task_ids, trace, is_write


#: Lengths of the probe vector's tails :func:`_sums_like_numpy` compares:
#: both sides of the tree's thresholds (8 lanes, blocks of 128, splits
#: rounded to 8) and the whole vector.  One sum agrees by luck too often.
_PROBE_LENGTHS = (
    7, 8, 9, 11, 13, 15, 16, 17, 23, 64, 100, 127, 128, 129, 250, 257, 500, 777, 1000,
)


def _sums_like_numpy(lib: ctypes.CDLL) -> bool:
    """Whether ``saga_pairwise_sum`` is this numpy's reduction tree.

    Checked once per load on tails of a fixed 1 000-element non-integer
    vector: a numpy that sums in another order must cost the compiled
    pricer, not move a priced cycle.
    """
    probe = (np.arange(1.0, 1001.0) * 7919.0 % 1009.0) / 7.0
    for n in _PROBE_LENGTHS:
        tail = probe[probe.size - n :]
        if lib.saga_pairwise_sum(tail.ctypes.data, n) != float(tail.sum()):
            return False
    return True


_LIBRARY = NativeLibrary(
    _SOURCE,
    "saga_compute",
    ComputeKernels,
    KERNEL_NAMES,
    DISABLE_ENV,
    REQUIRE_ENV,
    extra_flags=("-lm",),
)

#: ``get(name)``: the compiled kernels if ``name`` is available, else
#: ``None``.  ``name`` must be one of :data:`KERNEL_NAMES`; call sites
#: gate each fused path on its own name so individual kernels can be
#: disabled for differential debugging.
get = _LIBRARY.get
loaded = _LIBRARY.loaded
reset = _LIBRARY.reset

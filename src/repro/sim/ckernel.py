"""Optional compiled simulator kernels: the scheduler event loop and
the cache-hierarchy replay.

One shared object holds both sequential loops of the machine model,
compiled once with the system C compiler and called through
:mod:`ctypes` -- no third-party build machinery, no new Python
dependencies:

- ``saga_event_loop`` (:func:`get_kernel`): the discrete-event scheduler
  loop over the structure-of-arrays task layout
  (:class:`repro.sim.tasks.TaskArray`), a pure function of a handful of
  contiguous float64/int64 columns;
- ``saga_cache_replay`` (:func:`get_cache_replay`): the set-associative
  LRU replay of a :class:`~repro.sim.trace.MemoryTrace` through the
  L1/L2/LLC state arrays of :class:`repro.sim.cache.CacheHierarchy`.
  Integer-only and division-free on its hot path; its reference is the
  ``SetAssociativeCache`` loop in :mod:`repro.sim.cache`, and
  ``tests/test_sim_cache.py`` holds the verifier between the two, while
  ``tests/test_cache_stack_distance.py`` checks both against LRU stack
  distances (:func:`repro.verify.cache_replay_counts`).

The event loop is a strict drop-in for the Python loop in
``DynamicScheduler._run_event_loop``:

- the float arithmetic is adds/subtracts written in the identical
  order (there are no multiply-adds for the compiler to contract, and
  the build passes ``-ffp-contract=off`` anyway), so every IEEE
  float64 intermediate matches the Python loop bit for bit;
- the free-thread heap holds totally ordered distinct ``(end, thread)``
  pairs, and pops of such a heap always yield the minimum regardless
  of internal arrangement, so the schedule cannot diverge.

This source is one part of the native library (:mod:`repro.sim.cbuild`),
which loads whole or not at all: when it is not loaded (no C compiler,
a failed build, ``SAGA_BENCH_NO_NATIVE=1``), :func:`get_kernel` and
:func:`get_cache_replay` return ``None`` and the scheduler and the
cache hierarchy use their Python loops.
"""

from __future__ import annotations

import ctypes

from repro.sim.cbuild import NATIVE

__all__ = ["get_kernel", "get_cache_replay"]

_SOURCE = r"""
#include <stddef.h>
#include <stdint.h>
#include <string.h>

/* Discrete-event scheduler loop over columnar task streams.
 *
 * Mirrors DynamicScheduler._run_event_loop operation for
 * operation: same IEEE float64 adds/subtracts in the same order, and
 * a binary min-heap of (end, thread) pairs under the lexicographic
 * order Python's tuple comparison uses.  `locks` holds dense lock ids
 * (negative = lock-free task); `lock_free` must be zero-initialised,
 * matching the Python loop's dict.get(lock, 0.0) default.
 *
 * The free-thread heap lives in the caller's `end_heap`/`tid_heap`
 * (`threads` entries each), so any thread count runs here.
 *
 * Outputs: per-task thread assignment, per-thread busy cycles, the
 * contended task indices and their wait times (prefix of length equal
 * to the returned count), the makespan, and -- when `starts`/`ends`
 * are not NULL -- every task's start and end (the timeline).
 */
int64_t saga_event_loop(
    int64_t n,
    int64_t threads,
    double dispatch,
    const double *unlocked_scaled,
    const int64_t *locks,
    const double *locked_scaled,
    const double *locked_uncont,
    const double *locked_cont,
    double *lock_free,
    double *busy,
    int32_t *assignment,
    int64_t *contended_idx,
    double *waits,
    double *end_heap,
    int64_t *tid_heap,
    double *starts,
    double *ends,
    double *makespan_out)
{
    int64_t t, i, contended = 0;
    for (t = 0; t < threads; t++) {
        end_heap[t] = 0.0;
        tid_heap[t] = t;
    }
    for (i = 0; i < n; i++) {
        double t_free = end_heap[0];
        int64_t tid = tid_heap[0];
        double unlocked_end = (t_free + dispatch) + unlocked_scaled[i];
        int64_t lock = locks[i];
        double end;
        if (lock >= 0) {
            double acquire_ready = lock_free[lock];
            if (acquire_ready > unlocked_end) {
                contended_idx[contended] = i;
                waits[contended] = acquire_ready - unlocked_end;
                contended++;
                end = acquire_ready + locked_cont[i];
            } else {
                end = unlocked_end + locked_uncont[i];
            }
            lock_free[lock] = end;
        } else {
            end = unlocked_end + locked_scaled[i];
        }
        assignment[i] = (int32_t)tid;
        if (starts != NULL) {
            starts[i] = t_free;
            ends[i] = end;
        }
        busy[tid] += end - t_free;
        /* heapreplace((end, tid)): sift the new root down. */
        {
            int64_t pos = 0;
            for (;;) {
                int64_t child = 2 * pos + 1;
                int64_t right;
                if (child >= threads)
                    break;
                right = child + 1;
                if (right < threads &&
                    (end_heap[right] < end_heap[child] ||
                     (end_heap[right] == end_heap[child] &&
                      tid_heap[right] < tid_heap[child])))
                    child = right;
                if (end_heap[child] < end ||
                    (end_heap[child] == end && tid_heap[child] < tid)) {
                    end_heap[pos] = end_heap[child];
                    tid_heap[pos] = tid_heap[child];
                    pos = child;
                } else {
                    break;
                }
            }
            end_heap[pos] = end;
            tid_heap[pos] = tid;
        }
    }
    {
        double makespan = end_heap[0];
        for (t = 1; t < threads; t++)
            if (end_heap[t] > makespan)
                makespan = end_heap[t];
        *makespan_out = makespan;
    }
    return contended;
}

/* Four ways of one set: the probe below reads and writes a set four
 * ways at a time through GCC/Clang vector extensions, which every
 * target of those compilers lowers (to SIMD where it has it). */
typedef int32_t lanes __attribute__((vector_size(16)));

/* One look-up in one set of a set-associative LRU cache; 1 on a hit.
 *
 * `set` holds the set's `ways` tags MRU first, -1 in its empty ways
 * (which therefore trail; tags are never negative), padded with -1 to
 * a multiple of four lanes.  The look-up moves the tag to the front:
 * every way up to the tag's position p takes its MRU neighbour's tag,
 * and a miss takes p = ways - 1, which drops the last way -- an empty
 * one while there is one, else the LRU line.  Neither the probe nor
 * the move branches on the data: one pass compares every way to the
 * tag (a set holds a tag at most once, so summing `position + 1` over
 * the matching lanes gives p + 1, or 0 on a miss; two lane swaps add
 * the four partial sums into every lane), and a second blends every
 * way with its MRU-shifted neighbour where its position is <= p.
 * Padding lanes sit past ways - 1 >= p, so they keep their -1.
 * The second pass runs top down: an unaligned load at `set + k - 1`
 * then still reads the old tags of the four ways below, and the
 * bottom four take the tag itself as their neighbour of lane 0.
 */
static int lru_access(int32_t *set, int32_t tag, int64_t ways)
{
    int64_t padded = (ways + 3) & ~(int64_t)3, k;
    lanes key = {tag, tag, tag, tag};
    lanes four = {4, 4, 4, 4};
    lanes above = {1, 2, 3, 4};
    lanes found = {0, 0, 0, 0};
    lanes position = {0, 1, 2, 3};
    lanes all_ways = {(int32_t)ways, (int32_t)ways, (int32_t)ways, (int32_t)ways};
    lanes way, shifted, move, last;
    for (k = 0; k < padded; k += 4) {
        memcpy(&way, set + k, sizeof way);
        found += (way == key) & above;
        above += four;
    }
    found += (lanes){found[2], found[3], found[0], found[1]};
    found += (lanes){found[1], found[0], found[3], found[2]};
    last = found - 1 + (all_ways & (found == 0));
    for (k = padded - 4; k > 0; k -= 4) {
        memcpy(&way, set + k, sizeof way);
        memcpy(&shifted, set + k - 1, sizeof shifted);
        move = position + (int32_t)k <= last;
        way = (shifted & move) | (way & ~move);
        memcpy(set + k, &way, sizeof way);
    }
    memcpy(&way, set, sizeof way);
    shifted = (lanes){tag, way[0], way[1], way[2]};
    move = position <= last;
    way = (shifted & move) | (way & ~move);
    memcpy(set, &way, sizeof way);
    return found[0] != 0;
}

/* Replay an access trace through private L1/L2 per core and a shared
 * LLC per socket: CacheHierarchy._replay access for access.
 *
 * Lines, pages and sets are powers of two (MachineConfig refuses any
 * other geometry), so an access costs shifts and masks only: its line
 * is `address >> line_log2`, and at a level with 2**log2 sets its set
 * is `line & (2**log2 - 1)` and its tag `line >> log2`.  Each level is
 * tags[caches][2**log2][ways rounded up to a multiple of 4], int32.
 * The one division left, the home socket of an LLC miss, divides by
 * `sockets`, which need not be a power of two.
 *
 * The caller has checked every task id to index `task_core`, every
 * core in `task_core` to index `core_socket`, every tag to fit int32
 * (address >> (line_log2 + the smallest log2) < 2**31), and `sockets`
 * to be >= 1.  `counters` receives l1 hits/misses, l2 hits/misses, llc
 * hits/misses, local and remote memory accesses, in CacheStats field
 * order.
 */
void saga_cache_replay(
    int64_t n,
    const int64_t *addresses,
    const int64_t *task_ids,
    const int32_t *task_core,
    const int32_t *core_socket,
    int64_t line_log2,
    int64_t page_log2,
    int64_t sockets,
    int32_t *l1, int64_t l1_log2, int64_t l1_ways,
    int32_t *l2, int64_t l2_log2, int64_t l2_ways,
    int32_t *llc, int64_t llc_log2, int64_t llc_ways,
    int64_t *counters)
{
    int64_t l1_mask = ((int64_t)1 << l1_log2) - 1;
    int64_t l2_mask = ((int64_t)1 << l2_log2) - 1;
    int64_t llc_mask = ((int64_t)1 << llc_log2) - 1;
    int64_t l1_padded = (l1_ways + 3) & ~(int64_t)3;
    int64_t l2_padded = (l2_ways + 3) & ~(int64_t)3;
    int64_t llc_padded = (llc_ways + 3) & ~(int64_t)3;
    int64_t l1_hits = 0, l2_hits = 0, l2_misses = 0;
    int64_t llc_hits = 0, local = 0, remote = 0;
    int64_t i;
    for (i = 0; i < n; i++) {
        int64_t line = addresses[i] >> line_log2;
        int64_t core = task_core[task_ids[i]];
        int64_t socket;
        if (lru_access(l1 + ((core << l1_log2) + (line & l1_mask)) * l1_padded,
                       (int32_t)(line >> l1_log2), l1_ways)) {
            l1_hits++;
            continue;
        }
        if (lru_access(l2 + ((core << l2_log2) + (line & l2_mask)) * l2_padded,
                       (int32_t)(line >> l2_log2), l2_ways)) {
            l2_hits++;
            continue;
        }
        l2_misses++;
        socket = core_socket[core];
        if (lru_access(llc + ((socket << llc_log2) + (line & llc_mask)) * llc_padded,
                       (int32_t)(line >> llc_log2), llc_ways)) {
            llc_hits++;
            continue;
        }
        if ((line >> page_log2) % sockets == socket)
            local++;
        else
            remote++;
    }
    counters[0] = l1_hits;
    counters[1] = n - l1_hits;
    counters[2] = l2_hits;
    counters[3] = l2_misses;
    counters[4] = llc_hits;
    counters[5] = l2_misses - llc_hits;
    counters[6] = local;
    counters[7] = remote;
}
"""


def _bind(lib: ctypes.CDLL):
    """Declare both entry points: ``(event loop, cache replay)``."""
    fn = lib.saga_event_loop
    fn.restype = ctypes.c_int64
    fn.argtypes = [
        ctypes.c_int64,  # n
        ctypes.c_int64,  # threads
        ctypes.c_double,  # dispatch
        ctypes.c_void_p,  # unlocked_scaled
        ctypes.c_void_p,  # locks (dense)
        ctypes.c_void_p,  # locked_scaled
        ctypes.c_void_p,  # locked_uncont
        ctypes.c_void_p,  # locked_cont
        ctypes.c_void_p,  # lock_free
        ctypes.c_void_p,  # busy
        ctypes.c_void_p,  # assignment
        ctypes.c_void_p,  # contended_idx
        ctypes.c_void_p,  # waits
        ctypes.c_void_p,  # end_heap
        ctypes.c_void_p,  # tid_heap
        ctypes.c_void_p,  # starts (NULL: no timeline)
        ctypes.c_void_p,  # ends (NULL: no timeline)
        ctypes.c_void_p,  # makespan_out
    ]
    replay = lib.saga_cache_replay
    replay.restype = None
    replay.argtypes = (
        [ctypes.c_int64]  # n
        # addresses, task_ids, task_core, core_socket
        + [ctypes.c_void_p] * 4
        # line_log2, page_log2 (lines per page), sockets
        + [ctypes.c_int64] * 3
        # l1, l2, llc: tags, log2 of the set count, ways
        + [ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64] * 3
        + [ctypes.c_void_p]  # counters
    )
    return fn, replay


def get_kernel():
    """The compiled event-loop entry point, or ``None`` if unavailable."""
    bound = NATIVE.get()
    return bound[__name__][0] if bound is not None else None


def get_cache_replay():
    """The compiled cache-replay entry point, or ``None`` if unavailable.

    Asks :func:`get_kernel`, so whatever turns the library off -- the
    environment switch, a test's patch -- turns off both entry points.
    """
    return NATIVE.get()[__name__][1] if get_kernel() is not None else None

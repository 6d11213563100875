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
  Integer-only; its reference is the ``SetAssociativeCache`` loop in
  :mod:`repro.sim.cache`, and ``tests/test_sim_cache.py`` holds the
  verifier between the two.

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

#: The kernel keeps its heap in fixed stack arrays of this size.
MAX_KERNEL_THREADS = 64

_SOURCE = r"""
#include <stdint.h>

/* Discrete-event scheduler loop over columnar task streams.
 *
 * Mirrors DynamicScheduler._run_event_loop operation for
 * operation: same IEEE float64 adds/subtracts in the same order, and
 * a binary min-heap of (end, thread) pairs under the lexicographic
 * order Python's tuple comparison uses.  `locks` holds dense lock ids
 * (negative = lock-free task); `lock_free` must be zero-initialised,
 * matching the Python loop's dict.get(lock, 0.0) default.
 *
 * Outputs: per-task thread assignment, per-thread busy cycles, the
 * contended task indices and their wait times (prefix of length equal
 * to the returned count), and the makespan.
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
    double *makespan_out)
{
    double end_heap[64];
    int64_t tid_heap[64];
    int64_t t, i, contended = 0;
    if (threads > 64)
        return -1;
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

/* One look-up in one set-associative LRU cache; 1 on a hit.
 *
 * `tags` is tags[caches][sets][ways], every set ordered MRU first with
 * -1 in its empty ways, which therefore trail (tags of real lines are
 * never negative).  A hit at position p rotates [0..p] so the tag
 * leads; a miss is the same rotation over the whole set, which drops
 * the last way: an empty one while there is one, else the LRU line.
 */
static int lru_access(int64_t *tags, int64_t sets, int64_t ways,
                      int64_t cache, int64_t line)
{
    int64_t *set = tags + (cache * sets + line % sets) * ways;
    int64_t tag = line / sets;
    int64_t last = ways - 1, p = 0, q;
    int hit;
    while (p < last && set[p] != tag)
        p++;
    hit = set[p] == tag;
    for (q = p; q > 0; q--)
        set[q] = set[q - 1];
    set[0] = tag;
    return hit;
}

/* Replay an access trace through private L1/L2 per core and a shared
 * LLC per socket: CacheHierarchy._replay access for access.
 *
 * The caller has checked every address, task id and thread id to be in
 * range (addresses in [0, INT64_MAX), task ids index `task_thread`,
 * thread ids >= 0) and every divisor below to be >= 1.  `counters`
 * receives l1 hits/misses, l2 hits/misses, llc hits/misses, local and
 * remote memory accesses, in CacheStats field order.
 */
void saga_cache_replay(
    int64_t n,
    const int64_t *addresses,
    const int64_t *task_ids,
    const int64_t *task_thread,
    int64_t line_bytes,
    int64_t lines_per_page,
    int64_t cores,
    int64_t sockets,
    int64_t *l1, int64_t l1_sets, int64_t l1_ways,
    int64_t *l2, int64_t l2_sets, int64_t l2_ways,
    int64_t *llc, int64_t llc_sets, int64_t llc_ways,
    int64_t *counters)
{
    int64_t cores_per_socket = cores / sockets;
    int64_t l1_hits = 0, l2_hits = 0, l2_misses = 0;
    int64_t llc_hits = 0, local = 0, remote = 0;
    int64_t i;
    for (i = 0; i < n; i++) {
        int64_t line = addresses[i] / line_bytes;
        int64_t core = task_thread[task_ids[i]] % cores;
        int64_t socket;
        if (lru_access(l1, l1_sets, l1_ways, core, line)) {
            l1_hits++;
            continue;
        }
        if (lru_access(l2, l2_sets, l2_ways, core, line)) {
            l2_hits++;
            continue;
        }
        l2_misses++;
        socket = core / cores_per_socket;
        if (lru_access(llc, llc_sets, llc_ways, socket, line)) {
            llc_hits++;
            continue;
        }
        if ((line / lines_per_page) % sockets == socket)
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
        ctypes.c_void_p,  # makespan_out
    ]
    replay = lib.saga_cache_replay
    replay.restype = None
    replay.argtypes = (
        [ctypes.c_int64]  # n
        + [ctypes.c_void_p] * 3  # addresses, task_ids, task_thread
        # line_bytes, lines_per_page, cores, sockets
        + [ctypes.c_int64] * 4
        # l1, l2, llc: tags, sets, ways
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

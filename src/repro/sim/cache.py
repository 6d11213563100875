"""Set-associative LRU cache hierarchy.

Models the paper's testbed memory hierarchy: a private L1D and L2 per
physical core and a shared LLC per socket.  The hierarchy replays a
:class:`~repro.sim.trace.MemoryTrace` using the task-to-thread mapping
produced by the scheduler, so accesses from tasks that ran on the same
core share that core's private caches while all cores of a socket share
its LLC -- exactly the structure behind the paper's Fig. 10 findings
(update reuse captured by the private L2; compute reuse of
freshly-updated edge data captured by the shared LLC).

Two implementations, chosen once per hierarchy from whether the sim
library (:mod:`repro.sim.ckernel`) loaded:

- the reference and no-compiler fallback: :class:`SetAssociativeCache`
  objects (one insertion-ordered dict per set) driven access by access
  by ``CacheHierarchy._replay``;
- the fast path: one int32 ``tags[caches, sets, lanes]`` array per
  level (each set MRU first, -1 = empty way, its ways padded with -1 to
  a multiple of four lanes) walked by one ``saga_cache_replay`` call per
  replay.  Sets are indexed with shifts and masks, and each look-up is
  one branch-free pass over the set four ways at a time: compare every
  way to the tag, then move every way up to the hit (or the whole set,
  on a miss) one place towards the LRU end -- the right structure for a
  loop that evicts on almost half of its look-ups.

A hierarchy never mixes the two.  ``tests/test_sim_cache.py`` replays
the same traces through both, call by call on persistent hierarchies,
and requires every :class:`CacheStats` field equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.errors import ConfigError, SimulationError
from repro.obs.metrics import METRICS
from repro.obs.tracer import TRACER
from repro.sim import ckernel
from repro.sim.machine import MachineConfig
from repro.sim.trace import MemoryTrace


#: Tags are int32 in the native state: an address is replayed only if
#: its tag at every level, ``line >> log2(sets)``, is below this.
_TAG_LIMIT = 1 << 31


def _set_count(size_bytes: int, ways: int, line_bytes: int) -> int:
    """Number of sets of a cache with this geometry."""
    if size_bytes <= 0 or ways <= 0 or line_bytes <= 0:
        raise ConfigError("cache geometry values must be positive")
    if size_bytes % (ways * line_bytes):
        raise ConfigError(
            f"cache size {size_bytes} not divisible by ways*line "
            f"({ways}*{line_bytes})"
        )
    return size_bytes // (ways * line_bytes)


def _log2(power_of_two: int) -> int:
    return power_of_two.bit_length() - 1


def _check_range(column: str, values: np.ndarray, stop: Optional[int] = None) -> None:
    """Raise unless every element of an integer replay input lies in
    ``[0, stop)`` (``None``: up to its dtype's maximum).

    One pass: the column's unsigned view reads a negative value as at
    least ``2**(bits - 1)``, so its maximum alone decides once ``stop``
    is capped there.
    """
    bits = 8 * values.dtype.itemsize
    limit = 1 << (bits - 1)
    stop = limit if stop is None else min(stop, limit)
    if len(values) and values.view(f"u{values.dtype.itemsize}").max() >= stop:
        raise SimulationError(
            f"cannot replay trace: {column} spans [{values.min()}, {values.max()}], "
            f"outside [0, {stop})"
        )


class SetAssociativeCache:
    """One set-associative, write-allocate, LRU cache level."""

    def __init__(self, size_bytes: int, ways: int, line_bytes: int = 64) -> None:
        self.sets = _set_count(size_bytes, ways, line_bytes)
        self.line_bytes = line_bytes
        self.ways = ways
        # One insertion-ordered dict per set: key = tag, order = LRU->MRU.
        self._sets: List[Dict[int, None]] = [dict() for _ in range(self.sets)]
        self.hits = 0
        self.misses = 0

    def access(self, line_addr: int) -> bool:
        """Access one cache line (line-granular address); True on hit."""
        index = line_addr % self.sets
        tag = line_addr // self.sets
        cache_set = self._sets[index]
        if tag in cache_set:
            # Refresh LRU position.
            del cache_set[tag]
            cache_set[tag] = None
            self.hits += 1
            return True
        self.misses += 1
        if len(cache_set) >= self.ways:
            # Evict the least recently used line (first key).
            cache_set.pop(next(iter(cache_set)))
        cache_set[tag] = None
        return False


@dataclass
class CacheStats:
    """Aggregate hierarchy statistics for one replayed phase."""

    accesses: int = 0
    l1_hits: int = 0
    l1_misses: int = 0
    l2_hits: int = 0
    l2_misses: int = 0
    llc_hits: int = 0
    llc_misses: int = 0
    local_memory_accesses: int = 0
    remote_memory_accesses: int = 0

    @property
    def l2_hit_ratio(self) -> float:
        """L2 hits over L2 accesses (i.e. over L1 misses)."""
        total = self.l2_hits + self.l2_misses
        return self.l2_hits / total if total else 0.0

    @property
    def llc_hit_ratio(self) -> float:
        """LLC hits over LLC accesses (i.e. over L2 misses)."""
        total = self.llc_hits + self.llc_misses
        return self.llc_hits / total if total else 0.0


class CacheHierarchy:
    """Private L1/L2 per core plus a shared LLC per socket.

    The hierarchy is persistent across phases: replaying the update
    phase warms the caches that the subsequent compute-phase replay
    then sees, reproducing the cross-phase data-reuse relationship the
    paper identifies (Section VI-C).
    """

    def __init__(self, machine: MachineConfig) -> None:
        self.machine = machine
        cores, line = machine.physical_cores, machine.line_bytes
        levels = (
            (cores, machine.l1d_bytes, machine.l1_ways),
            (cores, machine.l2_bytes, machine.l2_ways),
            (machine.sockets, machine.llc_bytes_per_socket, machine.llc_ways),
        )
        #: The compiled replay when the sim library loaded, else None.
        #: Decides the state's representation, once, for the
        #: hierarchy's life.
        self._native = ckernel.get_cache_replay()
        sets = [_set_count(size, ways, line) for _, size, ways in levels]
        #: Addresses from here on have a tag past int32 at some level.
        self._address_stop = _TAG_LIMIT * line * min(sets)
        if self._native is not None:
            self._tags = [
                np.full((caches, count, -(-ways // 4) * 4), -1, dtype=np.int32)
                for (caches, _, ways), count in zip(levels, sets)
            ]
            self._core_socket = (
                np.arange(cores) // machine.cores_per_socket
            ).astype(np.int32)
            self._geometry = [
                arg
                for tags, count, (_, _, ways) in zip(self._tags, sets, levels)
                for arg in (tags.ctypes.data, _log2(count), ways)
            ]
        else:
            self._l1, self._l2, self._llc = (
                [SetAssociativeCache(size, ways, line) for _ in range(caches)]
                for caches, size, ways in levels
            )

    def replay(self, trace: MemoryTrace, task_thread: np.ndarray) -> CacheStats:
        """Replay ``trace`` through the hierarchy and return statistics.

        ``task_thread`` maps each task id in the trace to the thread
        that executed it (from a :class:`~repro.sim.scheduler.ScheduleResult`).
        A negative address or one whose tag does not fit int32 (see
        ``_address_stop``), a task id outside ``task_thread`` or a
        negative thread id raises :class:`SimulationError` before any
        cache state changes, on either engine.
        """
        engine, replay = (
            ("python", self._replay)
            if self._native is None
            else ("native", self._replay_native)
        )
        with TRACER.span(
            "cache.replay", args={"engine": engine, "accesses": len(trace)}
        ):
            task_thread = np.asarray(task_thread)
            _check_range("addresses", trace.addresses, self._address_stop)
            _check_range("task_ids", trace.task_ids, len(task_thread))
            _check_range("task_thread", task_thread)
            stats = replay(trace, task_thread)
            if METRICS.enabled:
                self._record_metrics(stats)
        return stats

    def _record_metrics(self, stats: CacheStats) -> None:
        """Fold one replay's statistics into the metrics registry."""
        METRICS.counter(
            "sim_cache_replays_total", "memory traces replayed"
        ).inc()
        METRICS.counter(
            "sim_cache_accesses_total", "line accesses replayed"
        ).inc(stats.accesses)
        for level, hits, misses in (
            ("l1", stats.l1_hits, stats.l1_misses),
            ("l2", stats.l2_hits, stats.l2_misses),
            ("llc", stats.llc_hits, stats.llc_misses),
        ):
            METRICS.counter(
                "sim_cache_hits_total", "cache hits per level", level=level
            ).inc(hits)
            METRICS.counter(
                "sim_cache_misses_total", "cache misses per level", level=level
            ).inc(misses)

    def _replay(self, trace: MemoryTrace, task_thread: np.ndarray) -> CacheStats:
        machine = self.machine
        lines_per_page = machine.page_bytes // machine.line_bytes
        sockets = machine.sockets
        cores_per_socket = machine.cores_per_socket
        stats = CacheStats()
        l1s, l2s, llcs = self._l1, self._l2, self._llc

        # Address translation and core assignment are stateless, so
        # they vectorize; the sequential loop below only keeps the
        # stateful LRU replay itself.
        line_list = (trace.addresses // machine.line_bytes).tolist()
        threads = np.asarray(task_thread, dtype=np.int64)[trace.task_ids]
        core_list = (threads % machine.physical_cores).tolist()
        n = len(trace)
        stats.accesses = n
        for i in range(n):
            line_addr = line_list[i]
            core = core_list[i]
            if l1s[core].access(line_addr):
                stats.l1_hits += 1
                continue
            stats.l1_misses += 1
            if l2s[core].access(line_addr):
                stats.l2_hits += 1
                continue
            stats.l2_misses += 1
            socket = core // cores_per_socket
            if llcs[socket].access(line_addr):
                stats.llc_hits += 1
                continue
            stats.llc_misses += 1
            home = (line_addr // lines_per_page) % sockets
            if home == socket:
                stats.local_memory_accesses += 1
            else:
                stats.remote_memory_accesses += 1
        return stats

    def _replay_native(self, trace: MemoryTrace, task_thread: np.ndarray) -> CacheStats:
        """:meth:`_replay` as one ``saga_cache_replay`` call over the
        columns, with each task's core computed once, here."""
        machine = self.machine
        addresses = np.ascontiguousarray(trace.addresses, dtype=np.int64)
        task_ids = np.ascontiguousarray(trace.task_ids, dtype=np.int64)
        task_core = np.ascontiguousarray(
            task_thread % machine.physical_cores, dtype=np.int32
        )
        counters = np.zeros(8, dtype=np.int64)
        self._native(
            len(addresses),
            addresses.ctypes.data,
            task_ids.ctypes.data,
            task_core.ctypes.data,
            self._core_socket.ctypes.data,
            _log2(machine.line_bytes),
            _log2(machine.page_bytes // machine.line_bytes),
            machine.sockets,
            *self._geometry,
            counters.ctypes.data,
        )
        return CacheStats(len(addresses), *counters.tolist())

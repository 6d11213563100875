"""Simulated dual-socket multicore machine.

The paper characterizes SAGA-Bench on a dual-socket Intel Xeon Gold 6142
(Skylake) with Intel PCM hardware counters.  Pure Python cannot reproduce
native multithreaded latency or hardware-counter measurements (GIL,
interpreter overhead), so this subpackage provides a deterministic
*simulated* machine instead:

- :mod:`repro.sim.machine` -- the machine description (sockets, cores,
  SMT, cache sizes, DRAM and QPI bandwidths), defaulting to the paper's
  testbed.
- :mod:`repro.sim.cost_model` -- abstract per-operation cycle costs that
  data structures charge while executing.
- :mod:`repro.sim.scheduler` -- a discrete-event, lock-aware thread
  scheduler that turns per-operation task columns into a parallel
  makespan (the simulated phase latency).
- :mod:`repro.sim.memory` / :mod:`repro.sim.trace` -- a synthetic
  address space and a memory-access trace recorder.
- :mod:`repro.sim.cache` -- a set-associative LRU cache hierarchy
  (private L1/L2 per core, shared LLC per socket).
- :mod:`repro.sim.counters` -- PCM-like derived counters: hit ratios,
  MPKI, memory bandwidth, and QPI-link utilization.
"""

from repro.sim.cache import CacheHierarchy, CacheStats, SetAssociativeCache
from repro.sim.cost_model import CostModel, DEFAULT_COST_MODEL
from repro.sim.counters import PhaseCounters, derive_counters
from repro.sim.machine import MachineConfig, SKYLAKE_GOLD_6142
from repro.sim.memory import AddressSpace, Region
from repro.sim.scheduler import (
    ChunkedScheduler,
    DynamicScheduler,
    ScheduleResult,
    TaskArray,
)
from repro.sim.trace import MemoryTrace, TraceRecorder

__all__ = [
    "AddressSpace",
    "CacheHierarchy",
    "CacheStats",
    "ChunkedScheduler",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "DynamicScheduler",
    "MachineConfig",
    "MemoryTrace",
    "PhaseCounters",
    "Region",
    "ScheduleResult",
    "SetAssociativeCache",
    "SKYLAKE_GOLD_6142",
    "TaskArray",
    "TraceRecorder",
    "derive_counters",
]

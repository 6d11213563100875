"""PCM-like derived counters.

The paper measures architecture behavior with Intel Processor Counter
Monitor: cache hit ratios, misses per kilo-instruction (MPKI), memory
bandwidth, and QPI-link utilization.  This module derives the same
quantities from the simulator's primary outputs (a phase's makespan
and work cycles, and a cache replay).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError
from repro.sim.cache import CacheStats
from repro.sim.machine import MachineConfig


@dataclass(frozen=True)
class PhaseCounters:
    """Derived architecture counters for one phase of one batch."""

    seconds: float
    instructions: float
    l2_hit_ratio: float
    llc_hit_ratio: float
    l2_mpki: float
    llc_mpki: float
    memory_bytes: float
    memory_bandwidth: float
    memory_bw_utilization: float
    qpi_bytes: float
    qpi_bandwidth: float
    qpi_utilization: float


def derive_counters(
    makespan_cycles: float,
    total_work_cycles: float,
    cache: CacheStats,
    machine: MachineConfig,
    trace_scale: float = 1.0,
) -> PhaseCounters:
    """Combine a phase's simulated time and work with a cache replay into
    PCM-style counters.

    ``trace_scale`` compensates for trace sampling: if only ``1/s`` of
    the accesses were replayed, pass ``s`` so that miss *counts* (and
    hence MPKI and bandwidth) are scaled back up; hit *ratios* are
    unaffected by systematic sampling.

    Instructions are estimated as the phase's total work cycles (an
    IPC-of-one convention, stated in EXPERIMENTS.md); MPKI shapes are
    insensitive to the convention because both phases use the same one.
    """
    if trace_scale < 1.0:
        raise SimulationError(f"trace_scale must be >= 1, got {trace_scale}")
    seconds = machine.cycles_to_seconds(makespan_cycles)
    instructions = max(total_work_cycles, 1.0)
    kilo_instructions = instructions / 1e3

    l2_misses = cache.l2_misses * trace_scale
    llc_misses = cache.llc_misses * trace_scale
    l2_mpki = l2_misses / kilo_instructions
    llc_mpki = llc_misses / kilo_instructions

    line = machine.line_bytes
    memory_bytes = llc_misses * line
    remote_bytes = cache.remote_memory_accesses * trace_scale * line
    if seconds > 0:
        memory_bw = memory_bytes / seconds
        qpi_bw = remote_bytes / seconds
    else:
        memory_bw = 0.0
        qpi_bw = 0.0
    return PhaseCounters(
        seconds=seconds,
        instructions=instructions,
        l2_hit_ratio=cache.l2_hit_ratio,
        llc_hit_ratio=cache.llc_hit_ratio,
        l2_mpki=l2_mpki,
        llc_mpki=llc_mpki,
        memory_bytes=memory_bytes,
        memory_bandwidth=memory_bw,
        memory_bw_utilization=min(1.0, memory_bw / machine.total_dram_bandwidth),
        qpi_bytes=remote_bytes,
        qpi_bandwidth=qpi_bw,
        qpi_utilization=min(1.0, qpi_bw / machine.qpi_bandwidth_per_direction),
    )

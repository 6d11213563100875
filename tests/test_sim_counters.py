"""Unit tests for the PCM-like derived counters."""

import pytest

from repro.errors import SimulationError
from repro.sim.cache import CacheStats
from repro.sim.counters import derive_counters
from repro.sim.machine import MachineConfig


def cycles(makespan=1e6, work=2e6):
    """A phase's ``(makespan_cycles, total_work_cycles)``."""
    return makespan, work


MACHINE = MachineConfig(frequency_hz=1e9)


class TestDeriveCounters:
    def test_seconds_from_cycles(self):
        counters = derive_counters(*cycles(makespan=2e9), CacheStats(), MACHINE)
        assert counters.seconds == pytest.approx(2.0)

    def test_hit_ratios_passthrough(self):
        stats = CacheStats(l2_hits=8, l2_misses=2, llc_hits=1, llc_misses=1)
        counters = derive_counters(*cycles(), stats, MACHINE)
        assert counters.l2_hit_ratio == pytest.approx(0.8)
        assert counters.llc_hit_ratio == pytest.approx(0.5)

    def test_mpki(self):
        stats = CacheStats(l2_misses=500, llc_misses=100)
        counters = derive_counters(*cycles(work=1e6), stats, MACHINE)
        assert counters.l2_mpki == pytest.approx(0.5)
        assert counters.llc_mpki == pytest.approx(0.1)

    def test_memory_bandwidth(self):
        stats = CacheStats(llc_misses=1_000_000)
        counters = derive_counters(*cycles(makespan=1e9), stats, MACHINE)
        # 1M misses x 64B over 1 second.
        assert counters.memory_bandwidth == pytest.approx(64e6)
        assert 0.0 <= counters.memory_bw_utilization <= 1.0

    def test_qpi_traffic_from_remote_accesses(self):
        stats = CacheStats(llc_misses=100, remote_memory_accesses=50)
        counters = derive_counters(*cycles(makespan=1e9), stats, MACHINE)
        assert counters.qpi_bytes == pytest.approx(50 * 64)
        assert counters.qpi_utilization <= 1.0

    def test_trace_scale_multiplies_misses_not_ratios(self):
        stats = CacheStats(l2_hits=8, l2_misses=2, llc_misses=2)
        plain = derive_counters(*cycles(), stats, MACHINE, trace_scale=1.0)
        scaled = derive_counters(*cycles(), stats, MACHINE, trace_scale=10.0)
        assert scaled.l2_mpki == pytest.approx(10 * plain.l2_mpki)
        assert scaled.l2_hit_ratio == pytest.approx(plain.l2_hit_ratio)

    def test_rejects_downscaling(self):
        with pytest.raises(SimulationError):
            derive_counters(*cycles(), CacheStats(), MACHINE, trace_scale=0.5)

    def test_zero_time_degrades_gracefully(self):
        counters = derive_counters(*cycles(makespan=0.0), CacheStats(llc_misses=5), MACHINE)
        assert counters.memory_bandwidth == 0.0
        assert counters.qpi_bandwidth == 0.0

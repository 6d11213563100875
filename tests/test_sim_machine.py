"""Unit tests for the machine description."""

import pytest

from repro.errors import ConfigError
from repro.sim.machine import CACHE_LINE_BYTES, MachineConfig, SKYLAKE_GOLD_6142


class TestDefaults:
    def test_paper_platform_cores(self):
        assert SKYLAKE_GOLD_6142.physical_cores == 32

    def test_paper_platform_threads(self):
        assert SKYLAKE_GOLD_6142.hardware_threads == 64

    def test_paper_llc_per_socket(self):
        assert SKYLAKE_GOLD_6142.llc_bytes_per_socket == 22 * 1024 * 1024

    def test_paper_memory_bandwidth(self):
        assert SKYLAKE_GOLD_6142.dram_bandwidth_per_socket == pytest.approx(128e9)

    def test_paper_qpi_bandwidth(self):
        assert SKYLAKE_GOLD_6142.qpi_bandwidth_per_direction == pytest.approx(68.1e9)

    def test_total_llc(self):
        assert SKYLAKE_GOLD_6142.total_llc_bytes == 2 * 22 * 1024 * 1024

    def test_total_dram_bandwidth(self):
        assert SKYLAKE_GOLD_6142.total_dram_bandwidth == pytest.approx(256e9)


class TestValidation:
    def test_rejects_zero_sockets(self):
        with pytest.raises(ConfigError):
            MachineConfig(sockets=0)

    def test_rejects_zero_cores(self):
        with pytest.raises(ConfigError):
            MachineConfig(cores_per_socket=0)

    def test_rejects_zero_smt(self):
        with pytest.raises(ConfigError):
            MachineConfig(smt=0)

    def test_rejects_negative_frequency(self):
        with pytest.raises(ConfigError):
            MachineConfig(frequency_hz=-1)

    def test_rejects_unaligned_cache(self):
        with pytest.raises(ConfigError):
            MachineConfig(l2_bytes=1000)  # not a multiple of 64

    def test_rejects_zero_line_size(self):
        """Was a ``ZeroDivisionError`` out of the capacity check."""
        with pytest.raises(ConfigError, match="line_bytes"):
            MachineConfig(line_bytes=0)

    def test_rejects_page_smaller_than_a_line(self):
        """Was accepted; ``CacheHierarchy.replay`` then divided by
        ``page_bytes // line_bytes == 0`` at the first memory access."""
        with pytest.raises(ConfigError, match="page_bytes"):
            MachineConfig(page_bytes=32)

    @pytest.mark.parametrize("page_bytes", [0, -4096, 96])
    def test_rejects_page_not_a_whole_number_of_lines(self, page_bytes):
        with pytest.raises(ConfigError, match="page_bytes"):
            MachineConfig(page_bytes=page_bytes)

    @pytest.mark.parametrize("field", ["l1_ways", "l2_ways", "llc_ways"])
    def test_rejects_zero_ways(self, field):
        with pytest.raises(ConfigError, match=field):
            MachineConfig(**{field: 0})

    def test_accepts_one_line_pages(self):
        assert MachineConfig(page_bytes=64).page_bytes == 64


class TestGeometry:
    def test_cycles_to_seconds(self):
        machine = MachineConfig(frequency_hz=2e9)
        assert machine.cycles_to_seconds(2e9) == pytest.approx(1.0)

    def test_socket_of_page_interleaves(self):
        machine = MachineConfig()
        assert machine.socket_of_page(0) == 0
        assert machine.socket_of_page(machine.page_bytes) == 1
        assert machine.socket_of_page(2 * machine.page_bytes) == 0

    def test_socket_of_core_socket_major(self):
        machine = MachineConfig(sockets=2, cores_per_socket=16)
        assert machine.socket_of_core(0) == 0
        assert machine.socket_of_core(15) == 0
        assert machine.socket_of_core(16) == 1
        assert machine.socket_of_core(31) == 1

    def test_socket_of_core_out_of_range(self):
        with pytest.raises(ConfigError):
            MachineConfig().socket_of_core(32)

    def test_with_cores_splits_evenly(self):
        machine = SKYLAKE_GOLD_6142.with_cores(8)
        assert machine.cores_per_socket == 4
        assert machine.physical_cores == 8
        assert machine.hardware_threads == 16

    def test_with_cores_rejects_odd_split(self):
        with pytest.raises(ConfigError):
            SKYLAKE_GOLD_6142.with_cores(7)

    def test_with_cores_preserves_caches(self):
        machine = SKYLAKE_GOLD_6142.with_cores(4)
        assert machine.l2_bytes == SKYLAKE_GOLD_6142.l2_bytes
        assert machine.llc_bytes_per_socket == SKYLAKE_GOLD_6142.llc_bytes_per_socket

    def test_line_size_constant(self):
        assert SKYLAKE_GOLD_6142.line_bytes == CACHE_LINE_BYTES

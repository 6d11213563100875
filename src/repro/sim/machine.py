"""Machine description for the simulated testbed.

The paper's platform (Section IV-A) is a dual-socket Intel Xeon Gold
6142 (Skylake) server: 16 physical cores per socket, 2-way SMT (64
hardware threads total), 32KB private L1D per core, 1MB private L2 per
core, 22MB shared LLC per socket, 768GB DRAM with 128GB/s per-socket
memory bandwidth, and three QPI links providing 68.1GB/s in each
direction.  :data:`SKYLAKE_GOLD_6142` encodes exactly that machine.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigError

#: Size of a cache line in bytes on every machine we model.
CACHE_LINE_BYTES = 64

#: Size of the pages interleaved round-robin across sockets.
PAGE_BYTES = 4096


def _is_power_of_two(value: int) -> bool:
    return value > 0 and not value & (value - 1)


@dataclass(frozen=True)
class MachineConfig:
    """A dual-socket shared-memory server, described structurally.

    All capacity fields are in bytes and all bandwidths in bytes per
    second so that derived counters never need unit juggling.  The line
    size, the lines per page and every level's set count are powers of
    two, so the cache replay indexes them with shifts and masks.
    """

    sockets: int = 2
    cores_per_socket: int = 16
    smt: int = 2
    frequency_hz: float = 2.6e9
    l1d_bytes: int = 32 * 1024
    l2_bytes: int = 1024 * 1024
    llc_bytes_per_socket: int = 22 * 1024 * 1024
    dram_bandwidth_per_socket: float = 128e9
    qpi_bandwidth_per_direction: float = 68.1e9
    l1_ways: int = 8
    l2_ways: int = 16
    llc_ways: int = 11
    line_bytes: int = CACHE_LINE_BYTES
    page_bytes: int = PAGE_BYTES

    def __post_init__(self) -> None:
        if self.sockets < 1:
            raise ConfigError(f"sockets must be >= 1, got {self.sockets}")
        if self.cores_per_socket < 1:
            raise ConfigError(
                f"cores_per_socket must be >= 1, got {self.cores_per_socket}"
            )
        if self.smt < 1:
            raise ConfigError(f"smt must be >= 1, got {self.smt}")
        if self.frequency_hz <= 0:
            raise ConfigError(f"frequency_hz must be > 0, got {self.frequency_hz}")
        for name in ("line_bytes", "page_bytes", "l1_ways", "l2_ways", "llc_ways"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        # The replay indexes lines, pages and sets with shifts and masks.
        if not _is_power_of_two(self.line_bytes):
            raise ConfigError(
                f"line_bytes must be a power of two, got {self.line_bytes}"
            )
        if self.page_bytes % self.line_bytes or not _is_power_of_two(
            self.page_bytes // self.line_bytes
        ):
            raise ConfigError(
                f"page_bytes must be a power-of-two number of "
                f"{self.line_bytes}-byte lines, got {self.page_bytes}"
            )
        for name, ways in (
            ("l1d_bytes", self.l1_ways),
            ("l2_bytes", self.l2_ways),
            ("llc_bytes_per_socket", self.llc_ways),
        ):
            value = getattr(self, name)
            if value <= 0 or value % self.line_bytes:
                raise ConfigError(
                    f"{name} must be a positive multiple of the line size, got {value}"
                )
            if value % (ways * self.line_bytes) or not _is_power_of_two(
                value // (ways * self.line_bytes)
            ):
                raise ConfigError(
                    f"{name} must hold a power-of-two number of sets of "
                    f"{ways} {self.line_bytes}-byte ways, got {value}"
                )

    @property
    def physical_cores(self) -> int:
        """Total physical cores across all sockets."""
        return self.sockets * self.cores_per_socket

    @property
    def hardware_threads(self) -> int:
        """Total hardware execution threads (cores x SMT)."""
        return self.physical_cores * self.smt

    @property
    def total_dram_bandwidth(self) -> float:
        """Aggregate peak DRAM bandwidth across sockets (bytes/s)."""
        return self.sockets * self.dram_bandwidth_per_socket

    def cycles_to_seconds(self, cycles: float) -> float:
        """Convert a simulated cycle count to seconds at this clock."""
        return cycles / self.frequency_hz

    def with_cores(self, physical_cores: int) -> "MachineConfig":
        """A copy of this machine restricted to ``physical_cores`` cores.

        Used by the Fig. 9(a) core-scaling sweep.  Cores are distributed
        equally among the two sockets, exactly as in the paper, so the
        count must be even for a dual-socket machine.
        """
        if physical_cores < self.sockets or physical_cores % self.sockets:
            raise ConfigError(
                f"core count {physical_cores} cannot be split evenly over "
                f"{self.sockets} sockets"
            )
        return replace(self, cores_per_socket=physical_cores // self.sockets)


#: The paper's characterization platform (Section IV-A).
SKYLAKE_GOLD_6142 = MachineConfig()

#: The same platform with scaled-down caches for the ~1000x scale-down
#: of the datasets: L1d and L2 16x smaller, the LLC 11x smaller with 16
#: ways instead of 11.  Standard simulation
#: methodology: hit ratios and MPKI are working-set-to-capacity
#: effects, so a faithfully scaled hierarchy on a scaled workload
#: reproduces the full-size machine's behavior on the full workload.
#: Bandwidths stay at native values because both traffic and simulated
#: time scale down together.  Used by the Fig. 9-10 reproduction.
SCALED_SKYLAKE_GOLD_6142 = MachineConfig(
    l1d_bytes=2 * 1024,
    l2_bytes=64 * 1024,
    llc_bytes_per_socket=2 * 1024 * 1024,
    llc_ways=16,
)

"""Synthetic address space for the simulated machine.

The data structures allocate their storage (neighbor vectors, edge
blocks, hash tables, property arrays) from an :class:`AddressSpace` so
that the memory trace they emit has realistic spatial structure: a
vector occupies a contiguous range, separate allocations land on
separate cache lines, and page interleaving determines each address's
home socket for the QPI traffic model.
"""

from __future__ import annotations

from typing import Dict, NoReturn

import numpy as np

from repro.errors import SimulationError
from repro.sim.machine import CACHE_LINE_BYTES


class Region:
    """A contiguous allocation: ``[base, base + size)``.

    A plain ``__slots__`` class rather than a dataclass: regions are
    created on every block/vector/table allocation, so construction is
    on the simulator's hot path.  Treat instances as immutable.
    """

    __slots__ = ("base", "size", "label")

    def __init__(self, base: int, size: int, label: str) -> None:
        self.base = base
        self.size = size
        self.label = label

    @property
    def end(self) -> int:
        return self.base + self.size

    def element(self, index: int, element_bytes: int) -> int:
        """Address of the ``index``-th element of ``element_bytes`` each."""
        addr = self.base + index * element_bytes
        if addr + element_bytes > self.end:
            raise SimulationError(
                f"element {index} x {element_bytes}B overruns region "
                f"{self.label!r} of {self.size}B"
            )
        return addr

    def refuse(self, index: int, element_bytes: int) -> NoReturn:
        """Raise for element ``index``, which an emitter found outside
        the region: :meth:`element`'s error past the end, the same kind
        before the base."""
        self.element(index, element_bytes)
        raise SimulationError(
            f"element {index} x {element_bytes}B lies before region {self.label!r}"
        )

    def elements(self, indices: np.ndarray, element_bytes: int) -> np.ndarray:
        """:meth:`element` over an index array, with the same overrun check.

        The indices are widened first: int32 vertex ids times a slot size
        would wrap in int32.
        """
        addrs = self.base + np.asarray(indices, dtype=np.int64) * element_bytes
        over = addrs + element_bytes > self.end
        if over.any():
            self.element(int(indices[np.argmax(over)]), element_bytes)
        return addrs


class AddressSpace:
    """A bump allocator handing out cache-line-aligned regions.

    Allocations never overlap and are never reused, which keeps the
    model simple and makes traces reproducible.  ``free`` exists only to
    keep accounting of live bytes honest (e.g. when a vector doubles and
    the old storage is discarded).
    """

    def __init__(self, base: int = 1 << 20) -> None:
        self._next = _align_up(base, CACHE_LINE_BYTES)
        self._live_bytes = 0
        self._allocated_bytes = 0
        self._region_count = 0
        self._live_by_label: Dict[str, int] = {}

    def alloc(self, size: int, label: str = "") -> Region:
        """Allocate ``size`` bytes; returns the new :class:`Region`."""
        if size <= 0:
            raise SimulationError(f"allocation size must be positive, got {size}")
        base = self._next
        end = base + size
        self._next = (end + CACHE_LINE_BYTES - 1) // CACHE_LINE_BYTES * CACHE_LINE_BYTES
        self._region_count += 1
        self._live_bytes += size
        self._allocated_bytes += size
        live = self._live_by_label
        live[label] = live.get(label, 0) + size
        return Region(base, size, label)

    def alloc_log(self, sizes, freed, label_index, labels) -> np.ndarray:
        """Replay an ordered allocation log at once; returns the bases.

        Event ``i`` allocates ``sizes[i]`` bytes under
        ``labels[label_index[i]]`` and then frees ``freed[i]`` bytes of
        the same label (0 for none) -- the grow-and-discard step of a
        doubling vector; an event of size 0 only frees (a released
        block), and its base is unused.  Every base is line-aligned, so
        the layout is an exclusive cumsum of the aligned sizes, and
        every counter ends where the equivalent :meth:`alloc` /
        :meth:`free` sequence leaves it.  A rejected log (a negative
        size, an event that neither allocates nor frees, live bytes
        going negative at any event) changes nothing.
        """
        sizes = np.asarray(sizes, dtype=np.int64)
        if sizes.size == 0:
            return np.empty(0, dtype=np.int64)
        freed = np.asarray(freed, dtype=np.int64)
        bad = (sizes < 0) | ((sizes == 0) & (freed == 0))
        if bad.any():
            raise SimulationError(
                "allocation size must be positive, "
                f"got {int(sizes[np.argmax(bad)])}"
            )
        net = sizes - freed
        if self._live_bytes + int(np.cumsum(net).min()) < 0:
            raise SimulationError("double free detected in AddressSpace")
        aligned = (sizes + CACHE_LINE_BYTES - 1) // CACHE_LINE_BYTES * CACHE_LINE_BYTES
        ends = self._next + np.cumsum(aligned)
        self._next = int(ends[-1])
        self._region_count += int(np.count_nonzero(sizes))
        self._live_bytes += int(net.sum())
        self._allocated_bytes += int(sizes.sum())
        live = self._live_by_label
        label_index = np.asarray(label_index)
        for k, label in enumerate(labels):
            mine = label_index == k
            if mine.any():
                live[label] = live.get(label, 0) + int(net[mine].sum())
        return ends - aligned

    def free(self, region: Region) -> None:
        """Mark ``region`` dead (addresses are never recycled)."""
        self._live_bytes -= region.size
        self._live_by_label[region.label] = (
            self._live_by_label.get(region.label, 0) - region.size
        )
        if self._live_bytes < 0:
            raise SimulationError("double free detected in AddressSpace")

    @property
    def live_bytes(self) -> int:
        """Bytes currently allocated and not freed."""
        return self._live_bytes

    @property
    def allocated_bytes(self) -> int:
        """Total bytes ever allocated (freed or not)."""
        return self._allocated_bytes

    def live_bytes_for(self, label: str) -> int:
        """Live bytes attributed to allocations labeled ``label``."""
        return self._live_by_label.get(label, 0)

    @property
    def region_count(self) -> int:
        return self._region_count


def _align_up(value: int, alignment: int) -> int:
    return (value + alignment - 1) // alignment * alignment

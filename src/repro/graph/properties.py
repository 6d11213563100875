"""Vertex property storage.

Per the paper (footnote 4), vertex property values are kept in a
separate contiguous array regardless of data structure.  The compute
phase's large working set -- edge data *plus* property arrays -- is what
drives its LLC-friendly / L2-hostile cache behavior (Section VI-C), so
properties get their own simulated region for trace emission.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.errors import StructureError
from repro.sim.memory import AddressSpace, Region

#: Bytes per property value (double precision).
VALUE_BYTES = 8


class VertexProperties:
    """Named per-vertex value arrays backed by simulated regions."""

    def __init__(self, max_nodes: int, space: AddressSpace) -> None:
        if max_nodes < 1:
            raise StructureError(f"max_nodes must be >= 1, got {max_nodes}")
        self.max_nodes = max_nodes
        self.space = space
        self._arrays: Dict[str, np.ndarray] = {}
        self._regions: Dict[str, Region] = {}

    def add(self, name: str, initial: float = 0.0) -> np.ndarray:
        """Create (or reset) the property ``name``; returns its array."""
        array = np.full(self.max_nodes, initial, dtype=np.float64)
        self._arrays[name] = array
        if name not in self._regions:
            self._regions[name] = self.space.alloc(
                self.max_nodes * VALUE_BYTES, f"prop.{name}"
            )
        return array

    def get(self, name: str) -> np.ndarray:
        if name not in self._arrays:
            raise StructureError(f"unknown property {name!r}")
        return self._arrays[name]

    def __contains__(self, name: str) -> bool:
        return name in self._arrays

    def region(self, name: str) -> Region:
        """The simulated region backing ``name``'s values."""
        return self._regions[name]

    def address_of(self, name: str, vertex: int) -> int:
        """Simulated byte address of ``name[vertex]`` (for tracing)."""
        return self._regions[name].element(vertex, VALUE_BYTES)

    def names(self):
        return self._arrays.keys()

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
        self._regions: Dict[str, Region] = {}

    def add(self, name: str, initial: float = 0.0) -> np.ndarray:
        """Create (or reset) the property ``name``; returns a fresh array
        of its values (the caller keeps it; only the region stays here)."""
        array = np.full(self.max_nodes, initial, dtype=np.float64)
        if name not in self._regions:
            self._regions[name] = self.space.alloc(
                self.max_nodes * VALUE_BYTES, f"prop.{name}"
            )
        return array

    def region(self, name: str) -> Region:
        """The simulated region backing ``name``'s values."""
        return self._regions[name]

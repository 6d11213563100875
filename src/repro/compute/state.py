"""Persistent per-algorithm state carried across batches.

The incremental model's *processing amortization* starts each compute
phase from the values the previous batch produced (Algorithm 1 lines
2-4), so the driver keeps one :class:`AlgorithmState` per (algorithm,
dataset) stream and hands it to every INC run.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import StructureError


class AlgorithmState:
    """Vertex values plus bookkeeping for new-vertex initialization.

    ``init_value`` produces the initial value of a vertex id (e.g.
    ``inf`` for distances, the id itself for CC labels).  Vertices that
    appear for the first time in a batch are initialized lazily via
    :meth:`ensure_initialized` -- the paper's "if v is a new vertex"
    branch.
    """

    def __init__(
        self,
        max_nodes: int,
        init_value: Callable[[np.ndarray], np.ndarray],
        name: str = "",
    ) -> None:
        if max_nodes < 1:
            raise StructureError(f"max_nodes must be >= 1, got {max_nodes}")
        self.max_nodes = max_nodes
        self.name = name
        self.init_fn = init_value
        ids = np.arange(max_nodes)
        self.values = np.asarray(init_value(ids), dtype=np.float64)
        self.initialized_up_to = 0

    def ensure_initialized(self, num_nodes: int) -> int:
        """Initialize values of vertices ``[initialized_up_to, num_nodes)``.

        Returns how many vertices were newly initialized.  Values of
        already-initialized vertices are left untouched (amortization).
        """
        if num_nodes <= self.initialized_up_to:
            return 0
        if num_nodes > self.max_nodes:
            raise StructureError(
                f"num_nodes {num_nodes} exceeds state capacity {self.max_nodes}"
            )
        ids = np.arange(self.initialized_up_to, num_nodes)
        self.values[ids] = self.init_fn(ids)
        fresh = num_nodes - self.initialized_up_to
        self.initialized_up_to = num_nodes
        return fresh

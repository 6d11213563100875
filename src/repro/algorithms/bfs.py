"""Breadth-First Search.

Table I vertex function:
``v.depth <- min over in-edges of (e.source.depth + 1)``.

FS implementation: round-based top-down frontier BFS from the source,
the Table-I-faithful kernel the characterization prices.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.algorithms.base import TRACER, Algorithm
from repro.compute import ckernels, kernels
from repro.compute.stats import ComputeRun


class BFS(Algorithm):
    """Single-source BFS: vertex value is its hop distance."""

    name = "BFS"
    needs_source = True
    monotonic = "min"
    ckernel_op = ckernels.OP_BFS

    def supports(self, source_value, weight, target_value):
        return target_value == source_value + 1.0

    def supports_batch(self, source_values, weights, target_values):
        return target_values == source_values + 1.0

    def init_value(self, ids: np.ndarray) -> np.ndarray:
        return np.full(len(ids), np.inf)

    def source_value(self) -> float:
        return 0.0

    def recalculate(self, v: int, view, values: np.ndarray) -> float:
        best = np.inf
        for u, _ in view.in_neigh(v):
            depth = values[u] + 1.0
            if depth < best:
                best = depth
        return best

    @TRACER.layer("algorithms.fs")
    def fs_run(self, view, source: Optional[int] = None) -> ComputeRun:
        source = self.checked_source(source, view)
        values = np.full(max(view.num_nodes, 1), np.inf)
        if source < view.num_nodes:
            values[source] = 0.0
        return kernels.frontier_relaxation_kernel(
            kernels.ComputeView.of(view),
            values,
            source,
            relax=lambda base, wt: base + 1.0,
            better=lambda candidate, current: candidate < current,
            algorithm=self.name,
            optimize="min",
            relax_op=ckernels.RELAX_ADD1,
        )

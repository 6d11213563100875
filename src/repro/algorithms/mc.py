"""Max Computation.

Table I vertex function:
``v.value <- max(v.value, max over in-edges of e.source.value)``.

The dual of CC: the maximum label propagates along edges.  The paper
notes (footnote 7) that its FS and INC implementations are similar,
which is why MC shows the smallest incremental benefit.

FS implementation: synchronous max propagation until stable.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.algorithms.base import TRACER, Algorithm, synchronous_fixpoint
from repro.compute import ckernels, kernels
from repro.compute.stats import ComputeRun


def _combine_max(values: np.ndarray, src: np.ndarray, dst: np.ndarray, weight: np.ndarray) -> np.ndarray:
    new_values = values.copy()
    if len(src):
        np.maximum.at(new_values, dst, values[src])
    return new_values


class MaxComputation(Algorithm):
    """Max-label propagation; value is the largest reaching label."""

    name = "MC"
    monotonic = "max"
    ckernel_op = ckernels.OP_MC

    def supports(self, source_value, weight, target_value):
        return target_value == source_value

    def supports_batch(self, source_values, weights, target_values):
        return target_values == source_values

    def init_value(self, ids: np.ndarray) -> np.ndarray:
        return ids.astype(np.float64)

    def recalculate(self, v: int, view, values: np.ndarray) -> float:
        best = values[v]
        for u, _ in view.in_neigh(v):
            if values[u] > best:
                best = values[u]
        return best

    @TRACER.layer("algorithms.fs")
    def fs_run(self, view, source: Optional[int] = None) -> ComputeRun:
        values = np.arange(max(view.num_nodes, 1), dtype=np.float64)
        return synchronous_fixpoint(
            kernels.ComputeView.of(view),
            values,
            _combine_max,
            algorithm=self.name,
            epsilon=0.0,
            kernel_op=self.ckernel_op,
        )

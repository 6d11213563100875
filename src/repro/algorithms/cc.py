"""Connected Components.

Table I vertex function:
``v.value <- min(v.value, min over in-edges of e.source.value)``.

Labels start as vertex ids and the minimum label propagates.  On
undirected graphs the fixpoint labels are true connected components;
on directed graphs the function is exactly the paper's (label
propagation along edge direction).

FS implementation: synchronous label propagation until stable.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.algorithms.base import TRACER, Algorithm, synchronous_fixpoint
from repro.compute import ckernels, kernels
from repro.compute.stats import ComputeRun


def _combine_min(values: np.ndarray, src: np.ndarray, dst: np.ndarray, weight: np.ndarray) -> np.ndarray:
    new_values = values.copy()
    if len(src):
        np.minimum.at(new_values, dst, values[src])
    return new_values


class ConnectedComponents(Algorithm):
    """Min-label propagation; value is the component label."""

    name = "CC"
    monotonic = "min"
    ckernel_op = ckernels.OP_CC

    def supports(self, source_value, weight, target_value):
        return target_value == source_value

    def supports_batch(self, source_values, weights, target_values):
        return target_values == source_values

    def init_value(self, ids: np.ndarray) -> np.ndarray:
        return ids.astype(np.float64)

    def recalculate(self, v: int, view, values: np.ndarray) -> float:
        best = values[v]
        for u, _ in view.in_neigh(v):
            label = values[u]
            if label < best or label != label:  # a NaN term wins
                best = label
        return best

    @TRACER.layer("algorithms.fs")
    def fs_run(self, view, source: Optional[int] = None) -> ComputeRun:
        values = np.arange(max(view.num_nodes, 1), dtype=np.float64)
        return synchronous_fixpoint(
            kernels.ComputeView.of(view),
            values,
            _combine_min,
            algorithm=self.name,
            epsilon=0.0,
            kernel_op=self.ckernel_op,
        )

"""Single-Source Widest Paths.

Table I vertex function:
``v.path <- max over in-edges of min(e.source.path, e.weight)``.

The *width* of a path is its narrowest edge; each vertex converges to
the widest width over all paths from the source.  Unreached vertices
have width 0; the source itself has infinite width.

FS implementation: frontier-based widest-path relaxation (not in GAP;
implemented from scratch, as the paper did).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.algorithms.base import TRACER, Algorithm
from repro.compute import ckernels, kernels
from repro.compute.stats import ComputeRun


class SSWP(Algorithm):
    """Widest ("maximum bottleneck") paths from a source."""

    name = "SSWP"
    needs_source = True
    uses_weights = True
    monotonic = "max"
    ckernel_op = ckernels.OP_SSWP

    def supports(self, source_value, weight, target_value):
        return target_value == min(source_value, weight)

    def supports_batch(self, source_values, weights, target_values):
        return target_values == np.minimum(source_values, weights)

    def init_value(self, ids: np.ndarray) -> np.ndarray:
        return np.zeros(len(ids))

    def source_value(self) -> float:
        return np.inf

    def recalculate(self, v: int, view, values: np.ndarray) -> float:
        best = -np.inf
        for u, w in view.in_neigh(v):
            vu = values[u]
            width = vu if vu < w else w
            if width > best or width != width:  # a NaN term wins
                best = width
        return best if best > 0.0 or best != best else 0.0

    @TRACER.layer("algorithms.fs")
    def fs_run(self, view, source: Optional[int] = None) -> ComputeRun:
        source = self.checked_source(source, view)
        values = np.zeros(max(view.num_nodes, 1))
        if source < view.num_nodes:
            values[source] = np.inf
        return kernels.frontier_relaxation_kernel(
            kernels.ComputeView.of(view),
            values,
            source,
            relax=lambda base, wt: base if base < wt else wt,
            better=lambda candidate, current: candidate > current,
            algorithm=self.name,
            optimize="max",
            relax_op=ckernels.RELAX_MINW,
        )

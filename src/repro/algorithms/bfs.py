"""Breadth-First Search.

Table I vertex function:
``v.depth <- min over in-edges of (e.source.depth + 1)``.

FS implementation: round-based frontier BFS from the source (GAP-style
top-down).  GAP's *direction-optimizing* variant (Beamer et al.) is
available via ``BFS(direction_optimizing=True)``: when the frontier
grows past a fraction of the graph, rounds switch to bottom-up --
every unvisited vertex pulls over its in-edges looking for a visited
parent -- which skips the bulk of the edge examinations on
small-diameter graphs.  It is off by default so the characterization
pipeline uses the plain Table-I-faithful kernel.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.algorithms.base import Algorithm, in_sources
from repro.compute import ckernels, kernels
from repro.compute.stats import ComputeRun

#: Switch to bottom-up when the frontier exceeds this fraction of |V|
#: (GAP uses edge-based thresholds; a vertex fraction is the common
#: simplification).
BOTTOM_UP_THRESHOLD = 0.05


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

    def __init__(self, direction_optimizing: bool = False) -> None:
        self.direction_optimizing = direction_optimizing

    def init_value(self, ids: np.ndarray) -> np.ndarray:
        return np.full(len(ids), np.inf)

    def source_value(self) -> float:
        return 0.0

    def recalculate(self, v: int, view, values: np.ndarray) -> float:
        best = np.inf
        for u in in_sources(view, v):
            depth = values[u] + 1.0
            if depth < best:
                best = depth
        return best

    def recalculate_batch(self, frontier, cv, values, rows, view):
        seg, nbr, _ = rows
        counts = np.bincount(seg, minlength=len(frontier))
        return kernels.segment_min(values[nbr] + 1.0, counts, np.inf)

    def fs_run(
        self, view, source: Optional[int] = None, compute_view=None
    ) -> ComputeRun:
        source = self.checked_source(source, view)
        if self.direction_optimizing:
            return self._fs_direction_optimizing(view, source)
        values = np.full(max(view.num_nodes, 1), np.inf)
        if source < view.num_nodes:
            values[source] = 0.0
        return kernels.frontier_relaxation_kernel(
            view,
            values,
            source,
            relax=lambda base, wt: base + 1.0,
            better=lambda candidate, current: candidate < current,
            algorithm=self.name,
            optimize="min",
            compute_view=compute_view,
            relax_op=ckernels.RELAX_ADD1,
        )

    def _fs_direction_optimizing(self, view, source: int) -> ComputeRun:
        """Beamer-style hybrid BFS: top-down until the frontier grows
        large, then bottom-up over the unvisited set."""
        n = view.num_nodes
        values = np.full(max(n, 1), np.inf)
        run = ComputeRun(
            algorithm=self.name, model="FS", values=values, source=source
        )
        run.linear_scans = 1
        if source >= n:
            return run
        values[source] = 0.0
        frontier = [source]
        depth = 0.0
        while frontier:
            depth += 1.0
            if len(frontier) < BOTTOM_UP_THRESHOLD * n:
                # Top-down: scan the frontier's out-edges.
                next_frontier = []
                pushes = 0
                for v in frontier:
                    for w, _ in view.out_neigh(v):
                        if values[w] == np.inf:
                            values[w] = depth
                            next_frontier.append(w)
                            pushes += 1
                run.add_round(push=frontier, pushes=pushes, cas_ops=pushes)
            else:
                # Bottom-up: every unvisited vertex pulls over its
                # in-edges looking for a parent in the frontier.
                frontier_set = set(frontier)
                next_frontier = []
                unvisited = [v for v in range(n) if values[v] == np.inf]
                for v in unvisited:
                    for u in in_sources(view, v):
                        if u in frontier_set:
                            values[v] = depth
                            next_frontier.append(v)
                            break
                run.add_round(
                    pull=unvisited,
                    pushes=len(next_frontier),
                    cas_ops=len(next_frontier),
                )
            frontier = next_frontier
        return run

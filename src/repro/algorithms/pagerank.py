"""PageRank.

Table I vertex function:
``v.rank <- 0.15/|V| + 0.85 * sum over in-edges of
(e.source.rank / e.source.out_degree)``.

Two properties make PR distinctive in the paper's characterization:

- its vertex function queries the **out-degree of every in-neighbor**
  (the normalization term), which on DAH costs an extra hash-table
  meta-query per neighbor -- the reason DAH's compute latency is worst
  on PR (up to 4.7x AS, Section V-B);
- its incremental variant is the paper's Algorithm 1 verbatim,
  including the 1e-7 triggering threshold.

FS implementation: power iteration (vectorized Jacobi sweep).
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.algorithms.base import TRACER, Algorithm, synchronous_fixpoint
from repro.compute import ckernels, kernels
from repro.compute.state import AlgorithmState
from repro.compute.stats import ComputeRun
from repro.graph.edge import EdgeBatch

#: Damping factor of Table I's vertex function.
DAMPING = 0.85

#: Convergence / triggering threshold (Algorithm 1 line 1).
PR_EPSILON = 1e-7


class PageRank(Algorithm):
    """PageRank with the paper's damped, size-normalized formula."""

    name = "PR"
    neighbor_degree_query = True
    epsilon = PR_EPSILON
    ckernel_op = ckernels.OP_PR

    def ckernel_constants(self, num_nodes: int):
        # The compiled vertex function computes base + damping * total
        # with the same float operations as recalculate.
        return ((1.0 - DAMPING) / max(num_nodes, 1), DAMPING)

    def init_value(self, ids: np.ndarray) -> np.ndarray:
        # Placeholder used only before the first batch; real
        # initialization is 1/|V| at the size when the vertex appears.
        return np.zeros(len(ids))

    def recalculate(self, v: int, view, values: np.ndarray) -> float:
        total = 0.0
        out_degree = view.out_degree
        for u, _ in view.in_neigh(v):
            total += values[u] / out_degree(u)
        return (1.0 - DAMPING) / max(view.num_nodes, 1) + DAMPING * total

    def inc_run(
        self,
        view,
        state: AlgorithmState,
        affected: Iterable[int],
        source: Optional[int] = None,
    ) -> ComputeRun:
        # New vertices start at 1/|V| of the *current* graph
        # (Algorithm 1 line 4).
        n = max(view.num_nodes, 1)
        state.init_fn = lambda ids: np.full(len(ids), 1.0 / n)
        return super().inc_run(view, state, affected, source=source)

    @TRACER.layer("algorithms.affected")
    def affected_from_batch(self, batch: EdgeBatch, view) -> np.ndarray:
        """PR's affected set additionally covers rank renormalization.

        Inserting ``(u, v)`` changes v's in-edges *and* u's out-degree;
        the latter perturbs the term ``rank(u)/out_degree(u)`` seen by
        every existing out-neighbor of u, so the out-rows of the
        batch's sources join the endpoints.
        """
        cv = kernels.ComputeView.of(view)
        src, dst = batch.src, batch.dst
        sources = kernels.unique_ids(src, cv.num_nodes)
        _, fanout, _ = kernels.expand_frontier(cv.out_csr, sources)
        return kernels.unique_ids(np.concatenate([src, dst, fanout]), cv.num_nodes)

    @TRACER.layer("algorithms.fs")
    def fs_run(self, view, source: Optional[int] = None) -> ComputeRun:
        n = max(view.num_nodes, 1)
        values = np.full(n, 1.0 / n)
        cv = kernels.ComputeView.of(view)
        # Small integers convert to float64 exactly: the scalar
        # function's divisors.  (A vertex without out-edges is nobody's
        # in-neighbor, so its zero is never read.)
        out_degree = cv.out_csr.degrees.astype(np.float64)
        base = (1.0 - DAMPING) / n

        def combine(current, src, dst, weight):
            # bincount accumulates in array order: the same float bits
            # as the scalar function's sequential sum over in-neighbors.
            sums = np.bincount(
                dst, weights=current[src] / out_degree[src], minlength=len(current)
            )
            return base + DAMPING * sums

        return synchronous_fixpoint(
            cv,
            values,
            combine,
            algorithm=self.name,
            epsilon=PR_EPSILON,
            max_iterations=200,
            kernel_op=self.ckernel_op,
            kernel_constants=self.ckernel_constants(n),
        )

"""Compute models of SAGA-Bench (Section III-B).

Two models run an algorithm over the freshly updated graph:

- **FS (recomputation from scratch)** -- every batch resets all vertex
  values and reruns a conventional static-graph algorithm (GAP-style).
  Implemented per algorithm in :mod:`repro.algorithms`.
- **INC (incremental computation)** -- Algorithm 1 of the paper:
  *processing amortization* (start from the previous batch's values)
  plus *selective triggering* (recompute only vertices affected,
  directly or transitively, by the latest update).  The generic engine
  is :func:`repro.compute.kernels.run_incremental_frontier`.

:mod:`repro.compute.pricing` converts the operation counts of a run
into per-data-structure compute latencies on the simulated machine.

:mod:`repro.compute.kernels` holds the vectorized compute path: one
columnar :class:`~repro.compute.kernels.ComputeView` per batch plus
frontier-at-a-time kernels for both models, bit-identical to the
sequential per-vertex loops they replaced (kept as the oracle in
``tests/oracles.py``).
"""

from repro.compute.kernels import ComputeView, run_incremental_frontier
from repro.compute.pricing import ComputePricing, CostTables, price_compute_run
from repro.compute.stats import ComputeRun, IterationStats
from repro.compute.state import AlgorithmState

__all__ = [
    "AlgorithmState",
    "ComputePricing",
    "ComputeRun",
    "ComputeView",
    "CostTables",
    "IterationStats",
    "price_compute_run",
    "run_incremental_frontier",
]

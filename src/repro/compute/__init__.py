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
It reads the structure registry of :mod:`repro.graph`, whose live
graph is built on :mod:`repro.compute.csrstore`, so it is imported as
a submodule and not re-exported here: the package imports nothing that
imports :mod:`repro.graph`.

:mod:`repro.compute.kernels` holds the compute engines: one columnar
:class:`~repro.compute.kernels.ComputeView` per batch, and per model
the compiled run kernel's dispatch beside the same sequential loop in
Python, bit-identical to each other; :mod:`repro.verify` checks their
values.
"""

from repro.compute.kernels import ComputeView, run_incremental_frontier
from repro.compute.stats import ComputeRun, IterationStats
from repro.compute.state import AlgorithmState

__all__ = [
    "AlgorithmState",
    "ComputeRun",
    "ComputeView",
    "IterationStats",
    "run_incremental_frontier",
]

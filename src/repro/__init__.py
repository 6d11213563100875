"""Pure-Python reproduction of SAGA-Bench (ISPASS 2020).

SAGA-Bench is a benchmark for StreAming Graph Analytics: batched edge
updates interleaved with analytics on the continuously evolving graph.
This package reproduces the whole system from scratch:

- :mod:`repro.graph` -- the four streaming-graph data structures
  (shared adjacency list, chunked adjacency list, Stinger, degree-aware
  hashing) behind one API, plus property arrays and a reference model.
- :mod:`repro.compute` -- the two compute models: recomputation from
  scratch (FS) and incremental computation (INC, Algorithm 1 of the
  paper: processing amortization + selective triggering), over the CSR
  views the compute phase reads.
- :mod:`repro.algorithms` -- BFS, CC, MC, PR, SSSP, SSWP, each in both
  compute models.
- :mod:`repro.datasets` -- RMAT and calibrated power-law generators
  standing in for the SNAP datasets, plus a SNAP edge-list loader.
- :mod:`repro.streaming` -- the batch-by-batch driver implementing the
  paper's measurement methodology (Equation 1, P1/P2/P3 staging).
- :mod:`repro.sim` -- the simulated dual-socket multicore machine used
  in place of the paper's Xeon testbed: a deterministic discrete-event
  thread scheduler, a set-associative cache hierarchy, and PCM-like
  bandwidth/QPI counters.
- :mod:`repro.analysis` -- harnesses that regenerate every table and
  figure of the paper's evaluation.
- :mod:`repro.engine` -- the shared experiment engine behind those
  harnesses: content-addressed result caching (RunStore) and cached,
  process-parallel sweep execution.
"""

from repro.engine import RunStore, run_stream
from repro.graph import (
    AdjacencyListChunked,
    AdjacencyListShared,
    DegreeAwareHash,
    GraphDataStructure,
    Stinger,
    make_structure,
)
from repro.sim import SKYLAKE_GOLD_6142, MachineConfig
from repro.streaming import StreamConfig, StreamDriver

__version__ = "1.0.0"

__all__ = [
    "AdjacencyListChunked",
    "AdjacencyListShared",
    "DegreeAwareHash",
    "GraphDataStructure",
    "Stinger",
    "make_structure",
    "RunStore",
    "run_stream",
    "StreamDriver",
    "StreamConfig",
    "MachineConfig",
    "SKYLAKE_GOLD_6142",
    "__version__",
]

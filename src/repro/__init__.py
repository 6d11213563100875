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

A package's re-exported names resolve on first access
(:func:`lazy_exports`), so ``import repro`` imports no subpackage and a
run imports only the modules it reaches.
"""

import importlib
import sys

__version__ = "1.0.0"


def lazy_exports(package: str, exports: dict):
    """PEP 562 ``__getattr__`` and ``__dir__`` for ``package``.

    ``exports`` maps each public name to the submodule (relative to
    ``package``) that defines it.  The submodule is imported on the
    name's first access and the name is then bound in the package, so
    importing a package costs only the submodules its importer reaches.
    """
    namespace = vars(sys.modules[package])

    def __getattr__(name: str):
        if name not in exports:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{exports[name]}"), name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted({*namespace, *exports})

    return __getattr__, __dir__


_EXPORTS = {
    "AdjacencyListChunked": "graph",
    "AdjacencyListShared": "graph",
    "DegreeAwareHash": "graph",
    "GraphDataStructure": "graph",
    "Stinger": "graph",
    "make_structure": "graph",
    "RunStore": "engine.store",
    "run_stream": "engine.sweep",
    "StreamDriver": "streaming.driver",
    "StreamConfig": "streaming.driver",
    "MachineConfig": "sim.machine",
    "SKYLAKE_GOLD_6142": "sim.machine",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = [*_EXPORTS, "__version__"]

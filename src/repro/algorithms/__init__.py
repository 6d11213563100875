"""The six vertex-centric algorithms of SAGA-Bench (Table I).

Each algorithm is implemented in both compute models:

========  ==============================  =================================
 Name      Vertex function (pull-style)    FS implementation
========  ==============================  =================================
 BFS       min over in-edges of            round-based frontier BFS
           ``src.depth + 1``
 CC        min over in-edges of            synchronous label propagation
           ``src.value``
 MC        max over in-edges of            synchronous max propagation
           ``src.value``
 PR        ``0.15/|V| + 0.85 *             power iteration
           sum(src.rank / src.out_deg)``
 SSSP      min over in-edges of            delta-stepping
           ``src.path + w``
 SSWP      max over in-edges of            frontier widest-path relaxation
           ``min(src.path, w)``
========  ==============================  =================================

The INC implementations all share the Algorithm-1 engine
:func:`repro.compute.kernels.run_incremental_frontier`.
"""

from repro.algorithms.base import Algorithm
from repro.algorithms.bfs import BFS
from repro.algorithms.cc import ConnectedComponents
from repro.algorithms.mc import MaxComputation
from repro.algorithms.pagerank import PageRank
from repro.algorithms.registry import ALGORITHMS, get_algorithm, perform_alg
from repro.algorithms.sssp import SSSP
from repro.algorithms.sswp import SSWP

__all__ = [
    "ALGORITHMS",
    "Algorithm",
    "BFS",
    "ConnectedComponents",
    "MaxComputation",
    "PageRank",
    "SSSP",
    "SSWP",
    "get_algorithm",
    "perform_alg",
]

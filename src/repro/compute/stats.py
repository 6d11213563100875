"""Operation-count records produced by one compute-phase run.

Vertex values do not depend on which data structure stores the
topology, so the driver executes each algorithm once per batch against
a neutral view and records *what work happened*; per-structure compute
latencies are then priced from these records (see
:mod:`repro.compute.pricing`).  This mirrors the paper's observation
that the compute phase differs across structures only through the
traversal mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np


def _as_vertex_array(vertices) -> np.ndarray:
    return np.asarray(vertices, dtype=np.int64)


@dataclass
class IterationStats:
    """Work performed by one parallel iteration of an algorithm.

    Attributes
    ----------
    pull_vertices:
        Vertices whose vertex function was (re)evaluated by traversing
        their **in**-edges (Table I functions are pull-style).
    push_vertices:
        Vertices whose **out**-neighbors were scanned to propagate a
        change (Algorithm 1 line 12) or to relax edges (frontier-style
        FS algorithms).
    pushes:
        Vertices appended to the next frontier/queue.
    cas_ops:
        Compare-and-swap attempts on the visited bitvector.
    """

    pull_vertices: np.ndarray
    push_vertices: np.ndarray
    pushes: int = 0
    cas_ops: int = 0

    @classmethod
    def make(cls, pull=(), push=(), pushes: int = 0, cas_ops: int = 0) -> "IterationStats":
        return cls(
            pull_vertices=_as_vertex_array(pull),
            push_vertices=_as_vertex_array(push),
            pushes=pushes,
            cas_ops=cas_ops,
        )

    @property
    def evaluations(self) -> int:
        return int(len(self.pull_vertices))


@dataclass
class ComputeRun:
    """Everything one compute-phase execution produced.

    ``values`` is the final vertex property array; ``iterations`` holds
    the per-iteration operation counts the pricer consumes;
    ``linear_scans`` counts full passes over the vertex array (INC's
    affected-flag scan and new-vertex initialization, FS's value
    reset), each charged as one light access per vertex.
    """

    algorithm: str
    model: str
    values: np.ndarray
    iterations: List[IterationStats] = field(default_factory=list)
    linear_scans: int = 0
    converged: bool = True
    source: Optional[int] = None
    #: Frontier accounting filled by the frontier engines (0 for the
    #: synchronous fixpoints): rounds executed and total frontier
    #: vertices across them -- the per-batch features the cost-model
    #: fitter joins with the ``compute_frontier_size`` histogram.
    frontier_rounds: int = 0
    frontier_vertices: int = 0

    @property
    def total_evaluations(self) -> int:
        return sum(it.evaluations for it in self.iterations)

    @property
    def total_pushes(self) -> int:
        return sum(it.pushes for it in self.iterations)

    @property
    def iteration_count(self) -> int:
        return len(self.iterations)

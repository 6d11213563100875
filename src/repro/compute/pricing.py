"""Pricing a compute run on the data structures.

Vertex *values* are independent of the storage structure, but compute
*latency* is not: each structure has its own traversal mechanism
(contiguous scan, pointer-chased blocks, hashed retrieval; Section V-B
of the paper).  Given the operation counts of one
:class:`~repro.compute.stats.ComputeRun`, this module prices the run on
any set of structures in one pass: every evaluated vertex is a
parallel-for task whose cost combines the structure's traversal cost
with the algorithm's per-neighbor work, and the simulated latency is
the sum of the per-iteration makespans.

Only the traversal cost differs between structures, so a call builds
one per-vertex cost table per *distinct* traversal cost (AS, AC and BA
share theirs) and an iteration is then one gather, one sum and one max
per table.  Every task cost is computed with the operand order of the
per-iteration formula and the tasks keep their order, so the result is
bit-equal to pricing each structure's iterations one by one (the
reference pricer in ``tests/test_compute_pricing.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.compute.stats import ComputeRun
from repro.errors import StructureError
from repro.graph import STRUCTURES
from repro.graph.base import ExecutionContext
from repro.sim.cost_model import CostModel
from repro.sim.scheduler import graham_makespan

#: Stands for every empty vertex array, so that "the same arrays as in
#: the previous iteration" is an identity test on both sides.
_NO_VERTICES = np.empty(0, dtype=np.int64)

#: Structures whose degree lookups go through hash-table meta-queries.
_DAH_NAME = "DAH"


def _degree_query_cost(structure: str, cost: CostModel) -> float:
    if structure == _DAH_NAME:
        return cost.degree_query + cost.hash_probe
    return cost.probe_element


@dataclass
class ComputePricing:
    """Simulated compute-phase latency of one run on one structure."""

    structure: str
    latency_cycles: float
    total_work_cycles: float
    iteration_count: int

    def latency_seconds(self, machine) -> float:
        return machine.cycles_to_seconds(self.latency_cycles)


def _cost_table(vector_cost, dq, deg_in, deg_out, cost: CostModel) -> np.ndarray:
    """The pull cost of every vertex, then the push cost of every vertex.

    ``dq`` is the degree-query cost a pull pays per in-neighbor, or
    ``None`` when the vertex function makes no such query.
    """
    pull_costs = (
        cost.vertex_task_base
        + vector_cost(deg_in, cost)
        + deg_in * cost.neighbor_visit
        + cost.property_write
    )
    if dq is not None:
        pull_costs = pull_costs + deg_in * dq
    push_costs = vector_cost(deg_out, cost) + deg_out * cost.cas
    return np.concatenate((pull_costs, push_costs))


def price_compute_run(
    run: ComputeRun,
    structures: Sequence[str],
    deg_in: np.ndarray,
    deg_out: np.ndarray,
    ctx: ExecutionContext,
    neighbor_degree_query: bool = False,
) -> Dict[str, ComputePricing]:
    """Price ``run`` as if it had executed on each of ``structures``.

    Parameters
    ----------
    structures:
        Names from :data:`repro.graph.STRUCTURES`; the result holds one
        :class:`ComputePricing` per name.
    deg_in, deg_out:
        Per-vertex in/out-degree arrays of the graph *as of this
        batch* (the traversal costs are degree-driven).
    neighbor_degree_query:
        True for PageRank, whose vertex function additionally queries
        the out-degree of every in-neighbor (the normalization in
        Table I) -- particularly expensive on DAH (Section V-B).
    """
    if isinstance(structures, str):
        raise StructureError(
            f"structures must be a sequence of names, not the string "
            f"{structures!r}; pass ({structures!r},)"
        )
    cost = ctx.cost_model
    threads = ctx.threads
    cores = ctx.machine.physical_cores

    # One table per distinct (traversal cost, degree-query cost).
    table_of: Dict[str, int] = {}
    table_keys: Dict[tuple, int] = {}
    tables: List[np.ndarray] = []
    for structure in structures:
        if structure not in STRUCTURES:
            raise StructureError(f"unknown structure {structure!r}")
        vector_cost = STRUCTURES[structure].vector_traversal_cost
        dq = _degree_query_cost(structure, cost) if neighbor_degree_query else None
        key = (vector_cost, dq)
        if key not in table_keys:
            table_keys[key] = len(tables)
            tables.append(_cost_table(vector_cost, dq, deg_in, deg_out, cost))
        table_of[structure] = table_keys[key]
    push_base = len(deg_in)

    latency = [0.0] * len(tables)
    work = [0.0] * len(tables)
    last_pull = last_push = None
    #: Per table, the (makespan, work) of the last distinct task set.
    priced: List[Tuple[float, float]] = []
    for it in run.iterations:
        pull = it.pull_vertices if len(it.pull_vertices) else _NO_VERTICES
        push = it.push_vertices if len(it.push_vertices) else _NO_VERTICES
        # Every Jacobi FS round records the same vertex arrays: the same
        # objects are the same tasks, so only the sums below repeat.
        if pull is not last_pull or push is not last_push:
            last_pull, last_push = pull, push
            if push is _NO_VERTICES:
                tasks = pull
            elif pull is _NO_VERTICES:
                tasks = push + push_base
            else:
                tasks = np.concatenate((pull, push + push_base))
            priced = []
            if len(tasks):
                for table in tables:
                    per_task = table[tasks]
                    priced.append(
                        graham_makespan(
                            float(per_task.sum()),
                            float(per_task.max()),
                            len(tasks),
                            threads,
                            cores,
                            cost,
                        )
                    )
        if not priced:
            continue
        extra = it.pushes * cost.queue_push
        for slot, (makespan, total) in enumerate(priced):
            latency[slot] += makespan + extra / threads
            work[slot] += total + extra

    # Whole-array scans (affected flags, new-vertex init, FS resets):
    # one light access per vertex, perfectly parallel.
    scan_work = run.linear_scans * len(deg_in) * cost.probe_element
    return {
        structure: ComputePricing(
            structure=structure,
            latency_cycles=latency[slot] + scan_work / threads,
            total_work_cycles=work[slot] + scan_work,
            iteration_count=run.iteration_count,
        )
        for structure, slot in table_of.items()
    }

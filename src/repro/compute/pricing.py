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

Only the traversal cost differs between structures, and the degrees
only between batches, so a batch has one :class:`CostTables`: one
per-vertex cost table per *distinct* (traversal cost, degree-query
cost) -- AS, AC and BA share theirs -- built when a run first needs it
and read by every algorithm x model run of the batch.  A round is then
one gather, one sum and one max per table, and a whole run one native
call over the record's columns (``saga_price_run``), of which
:func:`_price_rounds` is the reference and the no-compiler fallback.
Every task cost is computed with the operand order of the
per-iteration formula, the tasks keep their order and the sum keeps
numpy's summation tree, so the result is bit-equal to pricing each
structure's iterations one by one (the reference pricer in
``tests/test_compute_pricing.py``) on any cost model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.compute import ckernels
from repro.compute.stats import ComputeRun
from repro.errors import SimulationError, StructureError
from repro.graph import STRUCTURES
from repro.graph.base import ExecutionContext
from repro.obs.tracer import TRACER
from repro.sim.cost_model import CostModel
from repro.sim.scheduler import PARALLEL_FOR_CHUNK, graham_makespan, work_scale

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


class _Selection(NamedTuple):
    """The tables one (structures, degree-query) choice is priced on."""

    slot_of: Dict[str, int]  # structure -> index into ``tables``
    tables: List[np.ndarray]
    pointers: np.ndarray  # the tables' addresses, for the native call


class CostTables:
    """The per-vertex cost tables of one batch's graph.

    ``deg_in`` / ``deg_out`` are the per-vertex in/out-degree arrays of
    the graph *as of this batch* (the traversal costs are
    degree-driven).  Tables are built on first use and shared by every
    run priced through this object.
    """

    def __init__(self, deg_in: np.ndarray, deg_out: np.ndarray, cost: CostModel) -> None:
        if len(deg_in) != len(deg_out):
            raise SimulationError(
                f"degree arrays disagree on the vertex count: "
                f"{len(deg_in)} in, {len(deg_out)} out"
            )
        self.deg_in = deg_in
        self.deg_out = deg_out
        self.cost = cost
        self._tables: Dict[tuple, np.ndarray] = {}
        self._selections: Dict[tuple, _Selection] = {}

    @property
    def num_nodes(self) -> int:
        return len(self.deg_in)

    def select(self, structures: Sequence[str], neighbor_degree_query: bool) -> _Selection:
        """One table per distinct (traversal cost, degree-query cost)
        among ``structures``, built now if no earlier run needed it."""
        choice = (tuple(structures), neighbor_degree_query)
        selection = self._selections.get(choice)
        if selection is not None:
            return selection
        slot_of: Dict[str, int] = {}
        slots: Dict[tuple, int] = {}
        tables: List[np.ndarray] = []
        for structure in structures:
            if structure not in STRUCTURES:
                raise StructureError(f"unknown structure {structure!r}")
            cls = STRUCTURES[structure]
            vector_cost = cls.vector_traversal_cost
            dq = cls.degree_query_cost(self.cost) if neighbor_degree_query else None
            key = (vector_cost, dq)
            if key not in slots:
                if key not in self._tables:
                    self._tables[key] = np.ascontiguousarray(
                        _cost_table(vector_cost, dq, self.deg_in, self.deg_out, self.cost),
                        dtype=np.float64,
                    )
                slots[key] = len(tables)
                tables.append(self._tables[key])
            slot_of[structure] = slots[key]
        selection = _Selection(
            slot_of,
            tables,
            np.array([table.ctypes.data for table in tables], dtype=np.uintp),
        )
        self._selections[choice] = selection
        return selection


def _price_rounds(
    vertex_log: np.ndarray,
    rounds: np.ndarray,
    push_base: int,
    tables: Sequence[np.ndarray],
    threads: int,
    cores: int,
    cost: CostModel,
) -> Tuple[List[float], List[float]]:
    """Per table, the summed makespans and summed work of the rounds.

    The reference for, and the no-compiler fallback of,
    ``saga_price_run`` (see :mod:`repro.compute.ckernels`).
    """
    latency = [0.0] * len(tables)
    work = [0.0] * len(tables)
    last = None
    #: Per table, the (makespan, work) of the last distinct task set.
    priced: List[Tuple[float, float]] = []
    for offset, pulled, pushed, _cas_ops, pushes in rounds.tolist():
        if pulled + pushed == 0:
            continue
        # Every Jacobi FS round points at the same log entries: the same
        # tasks, so only the sums below repeat.
        if (offset, pulled, pushed) != last:
            last = (offset, pulled, pushed)
            tasks = vertex_log[offset : offset + pulled + pushed]
            if pushed:
                tasks = tasks.copy()
                tasks[pulled:] += push_base
            priced = []
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
        extra = pushes * cost.queue_push
        for slot, (makespan, total) in enumerate(priced):
            latency[slot] += makespan + extra / threads
            work[slot] += total + extra
    return latency, work


@TRACER.layer("pricing.price")
def price_compute_run(
    run: ComputeRun,
    structures: Sequence[str],
    tables: CostTables,
    ctx: ExecutionContext,
    neighbor_degree_query: bool = False,
) -> Dict[str, ComputePricing]:
    """Price ``run`` as if it had executed on each of ``structures``.

    Parameters
    ----------
    structures:
        Names from :data:`repro.graph.STRUCTURES`; the result holds one
        :class:`ComputePricing` per name.
    tables:
        The :class:`CostTables` of the graph the run executed on,
        shared by all the runs of its batch.
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
    if cost is not tables.cost and cost != tables.cost:
        raise SimulationError(
            "the cost tables were built for another cost model than the "
            "context prices with"
        )
    threads = ctx.threads
    cores = ctx.machine.physical_cores
    selection = tables.select(structures, neighbor_degree_query)
    num_nodes = tables.num_nodes
    vertex_log, rounds = run.vertex_log, run.rounds
    if len(vertex_log) and not (
        0 <= vertex_log.min() and vertex_log.max() < num_nodes
    ):
        raise SimulationError(
            f"the run's vertex log names vertices outside the "
            f"{num_nodes}-vertex graph it is priced on"
        )
    ck = ckernels.get()
    if ck is not None:
        latency, work = ck.price_run(
            vertex_log,
            rounds,
            num_nodes,
            selection.pointers,
            threads,
            work_scale(threads, cores, cost),
            cost.task_dispatch,
            PARALLEL_FOR_CHUNK,
            cost.queue_push,
        )
    else:
        latency, work = _price_rounds(
            vertex_log, rounds, num_nodes, selection.tables, threads, cores, cost
        )

    # Whole-array scans (affected flags, new-vertex init, FS resets):
    # one light access per vertex, perfectly parallel.
    scan_work = run.linear_scans * num_nodes * cost.probe_element
    return {
        structure: ComputePricing(
            structure=structure,
            latency_cycles=latency[slot] + scan_work / threads,
            total_work_cycles=work[slot] + scan_work,
            iteration_count=run.iteration_count,
        )
        for structure, slot in selection.slot_of.items()
    }

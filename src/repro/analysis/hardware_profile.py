"""Architecture-level profiling: Figs. 9-10 (Section VI).

The paper characterizes the update and compute phases with Intel PCM
on the best structure per dataset group:

- **STail** -- short-tailed LJ, Orkut, RMAT on AS;
- **HTail** -- heavy-tailed Wiki, Talk on DAH;

all with the incremental compute model, averaged over the six
algorithms.  This module reproduces the three experiments on the
simulated machine:

- **Fig. 9(a)** core scaling: each batch's update task list is
  re-scheduled at every physical core count (threads = 2 x cores,
  cores split across both sockets); compute runs are re-priced
  likewise.
- **Fig. 9(b,c)** memory and QPI bandwidth: the phases' memory traces
  replay through a persistent cache hierarchy; LLC miss traffic over
  the phase's simulated time gives bandwidth, and the remote-socket
  share gives QPI utilization.
- **Fig. 10** caches: L2/LLC hit ratios and MPKI per phase, from the
  same replays.  The hierarchy persists from update to compute within
  a batch, reproducing the cross-phase reuse the paper observes.

A cell is the streaming driver's one batch loop over a
:class:`HardwarePlane` (DESIGN.md decision #26), and a sweep of cells
resolves through the sweep engine's :func:`~repro.engine.sweep.resolve`,
the cache lookup and stream-directory pool the stream sweeps use
(decision #36).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.stats import stage_slices
from repro.compute import ckernels
from repro.compute.kernels import ComputeView, expand_frontier
from repro.compute.pricing import price_compute_run
from repro.compute.stats import check_round_table
from repro.datasets.catalog import (
    DEFAULT_BATCH_SIZE, HEAVY_TAILED, SHORT_TAILED, Dataset, load_dataset,
)
from repro.engine.fingerprint import canonical, describe_dataset, fingerprint
from repro.engine.store import RunStore
from repro.engine.sweep import Cell, resolve
from repro.errors import SimulationError
from repro.graph.base import ExecutionContext
from repro.graph.properties import VALUE_BYTES, VertexProperties
from repro.sim.cache import CacheHierarchy
from repro.sim.cost_model import CostModel, DEFAULT_COST_MODEL
from repro.sim.counters import PhaseCounters, derive_counters
from repro.sim.machine import MachineConfig, SKYLAKE_GOLD_6142
from repro.obs.metrics import METRICS
from repro.obs.tracer import TRACER
from repro.sim.trace import MemoryTrace, TraceColumns, TraceRecorder, ragged_arange
from repro.streaming.driver import StreamConfig, StreamDriver, UpdatePlane

#: Core counts swept in Fig. 9(a).
DEFAULT_CORE_COUNTS = (4, 8, 12, 16, 20, 24, 28)

#: Cap on replayed accesses per phase per batch (systematic sampling).
DEFAULT_TRACE_CAP = 60_000

#: Initial room, in accesses, of a plane's compute-trace columns.  They
#: grow at least geometrically to the cell's longest trace and serve
#: every trace of the cell; the tests shrink this to 1 so that growth is
#: taken.  At 2**19 each int64 column is 4 MiB, the size from which
#: numpy asks the kernel for transparent huge pages: the first touch of
#: the columns then faults once per 2 MiB rather than once per page, and
#: room no trace reaches is never touched.
COMPUTE_TRACE_CAPACITY = 1 << 19

_PHASES = ("update", "compute")


@dataclass
class PhaseSample:
    """One batch's counters for one phase."""

    batch_index: int
    counters: PhaseCounters


@dataclass
class HardwareCell:
    """One (dataset, structure) slice of an architecture profile.

    The unit of caching and parallelism in the hardware sweep: cells
    are independent (each gets its own cache hierarchy, reference
    graph, and algorithm states), so the engine can execute them in any
    order and merge deterministically.
    """

    dataset: str
    structure: str
    batches: int
    #: {phase: {cores: total makespan cycles summed over batches}}
    scaling_cycles: Dict[str, Dict[int, float]]
    #: {phase: [PhaseCounters, ...]} in batch order.
    counters: Dict[str, List[PhaseCounters]]

    @TRACER.layer("results.encode")
    def to_payload(self) -> Tuple[dict, Dict[str, np.ndarray]]:
        """Split into JSON metadata and columnar arrays for the store."""
        fields = list(PhaseCounters.__dataclass_fields__)
        core_counts = sorted(self.scaling_cycles[_PHASES[0]])
        meta = {
            "dataset": self.dataset,
            "structure": self.structure,
            "batches": self.batches,
            "core_counts": core_counts,
            "counter_fields": fields,
        }
        arrays = {}
        for phase in _PHASES:
            arrays[f"scaling_{phase}"] = np.asarray(
                [self.scaling_cycles[phase][c] for c in core_counts]
            )
            arrays[f"counters_{phase}"] = np.asarray(
                [[getattr(c, f) for f in fields] for c in self.counters[phase]]
            ).reshape(len(self.counters[phase]), len(fields))
        return meta, arrays

    @classmethod
    def from_payload(cls, meta: dict, arrays: Dict[str, np.ndarray]) -> "HardwareCell":
        fields = list(meta["counter_fields"])
        if fields != list(PhaseCounters.__dataclass_fields__):
            raise SimulationError("cached cell has incompatible counter fields")
        core_counts = [int(c) for c in meta["core_counts"]]
        scaling = {
            phase: dict(zip(core_counts, map(float, arrays[f"scaling_{phase}"])))
            for phase in _PHASES
        }
        counters = {
            phase: [
                PhaseCounters(**dict(zip(fields, map(float, row))))
                for row in arrays[f"counters_{phase}"]
            ]
            for phase in _PHASES
        }
        return cls(
            dataset=meta["dataset"],
            structure=meta["structure"],
            batches=int(meta["batches"]),
            scaling_cycles=scaling,
            counters=counters,
        )


@dataclass
class GroupProfile:
    """Aggregated architecture profile of one dataset group."""

    group: str
    structure: str
    datasets: Tuple[str, ...]
    #: {phase: {cores: total makespan cycles summed over batches}}
    scaling_cycles: Dict[str, Dict[int, float]] = field(default_factory=dict)
    #: {phase: [PhaseSample, ...]} in batch order per dataset.
    samples: Dict[str, List[PhaseSample]] = field(
        default_factory=lambda: {p: [] for p in _PHASES}
    )
    batches_per_dataset: Dict[str, int] = field(default_factory=dict)

    def scaling_performance(self, phase: str) -> Dict[int, float]:
        """Fig. 9(a): speedup of each core count over the smallest."""
        cycles = self.scaling_cycles[phase]
        base_cores = min(cycles)
        base = cycles[base_cores]
        return {cores: base / cycles[cores] for cores in sorted(cycles)}

    def stage_counter(self, phase: str, stage: int, attribute: str, stages: int = 3) -> float:
        """Mean of one counter over a stage's batches, pooled per dataset."""
        values = []
        offset = 0
        samples = self.samples[phase]
        for dataset, count in self.batches_per_dataset.items():
            slices = stage_slices(count, stages)
            chunk = samples[offset: offset + count]
            for sample in chunk[slices[stage]]:
                values.append(getattr(sample.counters, attribute))
            offset += count
        if not values:
            raise SimulationError(f"no samples for {phase} stage {stage}")
        return float(np.mean(values))


@dataclass
class HardwareProfile:
    """Both groups' profiles (the paper's STail and HTail averages)."""

    groups: Dict[str, GroupProfile]

    def __getitem__(self, group: str) -> GroupProfile:
        if group not in self.groups:
            raise SimulationError(f"unknown group {group!r}")
        return self.groups[group]


class HardwarePlane(UpdatePlane):
    """The Fig. 9/10 plane: one structure, every batch traced.

    The structure ingests each batch with a trace recorder; its update
    tasks are re-scheduled at every core count of the ladder.  ``price``
    prices each INC run the loop executes on the ladder and the full
    machine and emits its accesses (:func:`_compute_trace`) into columns
    the plane owns for the cell, reused from trace to trace.  Both
    phases' accesses replay, in that order, through one cache hierarchy
    that persists across the cell, and become one counter row per phase
    per batch -- the compute row averaged over the algorithms.
    """

    def __init__(self, profiler: "HardwareProfiler", config, dataset, ctx) -> None:
        super().__init__(config, dataset, ctx, config.models, config.structures)
        self.profiler = profiler
        self.ladder = {
            cores: ExecutionContext(
                machine=ctx.machine.with_cores(cores),
                threads=2 * cores,
                cost_model=ctx.cost_model,
            )
            for cores in profiler.core_counts
        }
        (name,) = self.structures
        max_nodes = self.dataset.max_nodes
        self.structure = self.new_structure(name)
        self.hierarchy = CacheHierarchy(self.ctx.machine)
        self.properties = VertexProperties(max_nodes, self.structure.space)
        for algorithm in self.config.algorithms:
            self.properties.add(algorithm)
        self.visited = self.structure.space.alloc(
            max((max_nodes + 7) // 8, 64), "inc.visited"
        )
        self.trace_columns = TraceColumns(COMPUTE_TRACE_CAPACITY)
        self.cell = HardwareCell(
            dataset=self.dataset.name,
            structure=name,
            batches=self.total_batches,
            scaling_cycles={p: dict.fromkeys(self.ladder, 0.0) for p in _PHASES},
            counters={p: [] for p in _PHASES},
        )

    def update(self, batch, record, reference) -> Dict[str, int]:
        self._batch_index = record.batch_index
        self._compute_rows: List[PhaseCounters] = []
        ctx = replace(self.ctx, recorder=TraceRecorder())
        update = self.structure.update(batch, ctx)
        for cores, sctx in self.ladder.items():
            scaled = self.structure.schedule_tasks(update.tasks, sctx)
            self.cell.scaling_cycles["update"][cores] += scaled.makespan_cycles
        schedule = update.schedule
        self.cell.counters["update"].append(
            self._replay(
                "update", update.trace, schedule.task_thread,
                schedule.makespan_cycles, schedule.total_work_cycles,
            )
        )
        record.update_cycles[self.cell.structure] = update.latency_cycles
        return {self.cell.structure: update.edges_inserted}

    def price(self, algorithm, runs, compute_view, cost_tables) -> Dict[str, float]:
        """Price the run on the ladder and the full machine, then trace
        and replay it; the loop records the full machine's cycles."""
        (run,) = runs  # INC, no churn
        name = self.cell.structure

        def pricing(ctx):
            return price_compute_run(
                run, self.structures, cost_tables, ctx,
                neighbor_degree_query=algorithm.neighbor_degree_query,
            )[name]

        for cores, sctx in self.ladder.items():
            self.cell.scaling_cycles["compute"][cores] += pricing(sctx).latency_cycles
        full = pricing(self.ctx)
        with TRACER.span("compute.trace"):
            trace, task_thread = _compute_trace(
                run, self.structure, compute_view, self.properties,
                algorithm.name, self.visited, self.ctx.threads,
                self.trace_columns,
            )
        self._compute_rows.append(
            self._replay(
                "compute", trace, task_thread,
                full.latency_cycles, full.total_work_cycles,
            )
        )
        return {name: full.latency_cycles}

    def after_batch(self, record) -> str:
        self.cell.counters["compute"].append(_average_counters(self._compute_rows))
        return ""

    def _replay(self, phase, trace, task_thread, makespan_cycles, work_cycles):
        """One phase's counters: its trace, sampled, through the hierarchy."""
        _count_emitted(phase, trace)
        sampled = trace.sample(self.profiler.trace_cap, seed=self._batch_index)
        scale = max(1.0, len(trace) / max(len(sampled), 1))
        stats = self.hierarchy.replay(sampled, task_thread)
        return derive_counters(
            makespan_cycles, work_cycles, stats, self.ctx.machine, scale
        )


class _CellDriver(StreamDriver):
    """:class:`StreamDriver`'s batch loop over a :class:`HardwarePlane`."""

    def __init__(self, config: StreamConfig, profiler: "HardwareProfiler") -> None:
        super().__init__(config)
        self.profiler = profiler

    def _make_plane(self, dataset, ctx) -> HardwarePlane:
        self.plane = HardwarePlane(self.profiler, self.config, dataset, ctx)
        return self.plane


class HardwareProfiler:
    """Streams one dataset on one structure with full instrumentation."""

    def __init__(
        self,
        machine: MachineConfig = SKYLAKE_GOLD_6142,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        core_counts: Sequence[int] = DEFAULT_CORE_COUNTS,
        algorithms: Sequence[str] = ("BFS", "CC", "MC", "PR", "SSSP", "SSWP"),
        batch_size: int = DEFAULT_BATCH_SIZE,
        trace_cap: int = DEFAULT_TRACE_CAP,
        seed: int = 0,
    ) -> None:
        self.machine = machine
        self.cost = cost_model
        self.core_counts = tuple(core_counts)
        self.algorithms = tuple(algorithms)
        self.batch_size = batch_size
        if trace_cap < 1:
            raise SimulationError(f"trace_cap must be >= 1, got {trace_cap}")
        self.trace_cap = trace_cap
        self.seed = seed

    def cell_key(
        self, dataset_name: str, structure_name: str, size_factor: float
    ) -> str:
        """RunStore fingerprint of one (dataset, structure) cell."""
        fields = list(PhaseCounters.__dataclass_fields__)
        return fingerprint(
            {
                "kind": "hardware-cell",
                "dataset": describe_dataset(dataset_name, self.seed, size_factor),
                "structure": structure_name,
                "machine": canonical(self.machine),
                "cost_model": canonical(self.cost),
                "core_counts": list(self.core_counts),
                "algorithms": list(self.algorithms),
                "batch_size": self.batch_size,
                "trace_cap": self.trace_cap,
                "counter_fields": fields,
            }
        )

    def profile_cells(
        self,
        specs: Sequence[Tuple[str, str, float]],
        store: Optional[RunStore] = None,
        jobs: Optional[int] = None,
    ) -> List[HardwareCell]:
        """Resolve (dataset, structure, size_factor) cells, in order.

        One :func:`~repro.engine.sweep.resolve` request per spec: a
        cached cell that decodes loads from ``store``; the rest run as
        :meth:`profile_dataset` cells, serially or over the sweep pool
        with ``jobs`` > 1, and are written back.
        """
        def cell(spec: Tuple[str, str, float]) -> Cell:
            dataset, structure, size_factor = spec
            return Cell(
                (dataset, self.seed, size_factor),
                partial(self.profile_dataset, structure),
                f"{dataset}/{structure}",
            )

        return resolve(
            specs, lambda spec: self.cell_key(*spec), cell,
            HardwareCell.from_payload, store, jobs,
        )

    def profile_cell(
        self,
        dataset_name: str,
        structure_name: str,
        size_factor: float = 1.0,
    ) -> HardwareCell:
        """One cell, uncached and in process: the catalog's dataset
        through :meth:`profile_dataset`."""
        return self.profile_dataset(
            structure_name,
            load_dataset(dataset_name, seed=self.seed, size_factor=size_factor),
        )

    def profile_dataset(self, structure_name: str, dataset: Dataset) -> HardwareCell:
        """Stream one dataset on one structure with full instrumentation:
        the driver's batch loop, INC only, over a :class:`HardwarePlane`."""
        driver = _CellDriver(
            StreamConfig(
                batch_size=self.batch_size,
                structures=(structure_name,),
                algorithms=self.algorithms,
                models=("INC",),
                machine=self.machine,
                cost_model=self.cost,
                shuffle_seed=self.seed,
            ),
            self,
        )
        driver.run(dataset)
        return driver.plane.cell


def _compute_trace(
    run,
    structure,
    compute_view: ComputeView,
    properties: VertexProperties,
    algorithm: str,
    visited_region,
    threads: int,
    columns: TraceColumns,
):
    """Emit the compute phase's memory accesses as a trace, into ``columns``.

    Every evaluated vertex reads its in-neighbors' values from the
    structure plus their property entries and writes its own; every
    triggered vertex scans its out-neighbors and touches the
    visited bitvector.  One task per vertex (a round's pulled
    vertices, then its pushed ones), round-robin threads.  A task is
    ``[traversal | neighbor accesses | own write]``.

    The graph does not change during a run, so the structure's
    traversals are emitted once for all of the run's pulled (resp.
    pushed) vertices.  One native call (``saga_compute_trace``) then
    walks the round table and lays each task out, its neighbor
    accesses read straight from the compute view's CSRs;
    :func:`_interleave` is its numpy reference and the fallback without
    the native library.  A round outside the vertex log, or a vertex
    or neighbor outside its region, is refused before anything is
    written.

    The trace is a view of ``columns``: it is valid until the next
    emission into them.
    """
    rounds, log = run.rounds, run.vertex_log
    check_round_table(rounds, len(log))
    seg, within = ragged_arange(rounds[:, 1])
    pull = log[rounds[seg, 0] + within]
    seg, within = ragged_arange(rounds[:, 2])
    push = log[rounds[seg, 0] + rounds[seg, 1] + within]
    prop = properties.region(algorithm)
    for tasks in (pull, push):
        outside = (tasks < 0) | (tasks >= properties.max_nodes)
        if outside.any():
            prop.refuse(int(tasks[np.argmax(outside)]), VALUE_BYTES)
    in_reads = structure.trace_in_traversal(pull)
    out_reads = structure.trace_out_traversal(push)
    kernels = ckernels.get()
    if kernels is None:
        trace = _interleave(
            rounds, pull, push, in_reads, out_reads, compute_view, prop,
            visited_region, columns,
        )
    else:
        columns.reserve(
            len(in_reads[1]) + len(out_reads[1]) + len(pull)
            + int(compute_view.in_csr.degrees[pull].sum())
            + int(compute_view.out_csr.degrees[push].sum())
        )
        trace = columns.view(
            kernels.compute_trace(
                run, compute_view, in_reads, out_reads, prop, VALUE_BYTES,
                visited_region, columns,
            )
        )
    task_thread = np.arange(max(len(pull) + len(push), 1), dtype=np.int32) % threads
    return trace, task_thread


def _interleave(
    rounds, pull, push, in_reads, out_reads, compute_view, prop, visited, columns
) -> MemoryTrace:
    """``saga_compute_trace``'s numpy reference: five per-task sections
    of accesses -- both traversals, the property reads (pull), the
    visited writes (push) and the own write (pull) -- each with zero
    accesses on the other kind's tasks, laid out task-major into
    ``columns``: task 0's sections back to back, then task 1's, ..."""
    in_csr, out_csr = compute_view.in_csr, compute_view.out_csr
    # Per round (pulled, pushed): the lengths of the task runs that
    # alternate between the two kinds.
    pulled = np.repeat(np.tile([True, False], len(rounds)), rounds[:, 1:3].ravel())

    def section(mask, counts, addresses, write=False):
        per_task = np.zeros(len(pulled), dtype=np.int64)
        per_task[mask] = counts
        return per_task, addresses, write

    sections = (
        section(pulled, *in_reads),
        section(~pulled, *out_reads),
        section(
            pulled,
            in_csr.degrees[pull],
            prop.elements(expand_frontier(in_csr, pull)[1], VALUE_BYTES),
        ),
        section(
            ~pulled,
            out_csr.degrees[push],
            visited.elements(expand_frontier(out_csr, push)[1] // 8, 1),
            write=True,
        ),
        section(pulled, 1, prop.elements(pull, VALUE_BYTES), write=True),
    )
    totals = np.sum([counts for counts, _, _ in sections], axis=0)
    lead = np.cumsum(totals) - totals  # where each task's next section starts
    columns.reserve(int(totals.sum()))
    trace = columns.view(int(totals.sum()))
    for counts, addresses, write in sections:
        seg, within = ragged_arange(counts)
        slots = lead[seg] + within
        trace.addresses[slots] = addresses
        trace.is_write[slots] = write
        lead = lead + counts
    trace.task_ids[:] = np.repeat(np.arange(len(totals), dtype=np.int64), totals)
    return trace


def _count_emitted(phase: str, trace: MemoryTrace) -> None:
    """Count a phase's emitted accesses, before sampling caps the replay."""
    if METRICS.enabled:
        METRICS.counter(
            "sim_trace_accesses_total",
            "memory accesses emitted into phase traces, before sampling",
            phase=phase,
        ).inc(len(trace))


def merge_cells(
    group: str,
    structure: str,
    cells: Sequence[HardwareCell],
    core_counts: Sequence[int],
) -> GroupProfile:
    """Assemble a :class:`GroupProfile` from per-dataset cells, in order.

    Produces exactly what the former monolithic per-group loop did:
    scaling cycles summed across datasets, samples concatenated in
    dataset order with per-dataset batch indices.
    """
    profile = GroupProfile(
        group=group,
        structure=structure,
        datasets=tuple(cell.dataset for cell in cells),
        scaling_cycles={p: {c: 0.0 for c in core_counts} for p in _PHASES},
    )
    for cell in cells:
        profile.batches_per_dataset[cell.dataset] = cell.batches
        for phase in _PHASES:
            for cores in core_counts:
                profile.scaling_cycles[phase][cores] += cell.scaling_cycles[phase][
                    cores
                ]
            profile.samples[phase].extend(
                PhaseSample(batch_index=index, counters=counters)
                for index, counters in enumerate(cell.counters[phase])
            )
    return profile


def _average_counters(counters: List[PhaseCounters]) -> PhaseCounters:
    """Field-wise mean of a list of :class:`PhaseCounters`."""
    if not counters:
        raise SimulationError("cannot average zero counters")
    fields = PhaseCounters.__dataclass_fields__
    means = {
        name: float(np.mean([getattr(c, name) for c in counters])) for name in fields
    }
    return PhaseCounters(**means)


def run_hardware_profile(
    machine: MachineConfig = SKYLAKE_GOLD_6142,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    core_counts: Sequence[int] = DEFAULT_CORE_COUNTS,
    algorithms: Sequence[str] = ("BFS", "CC", "MC", "PR", "SSSP", "SSWP"),
    short_tailed: Sequence[str] = SHORT_TAILED,
    heavy_tailed: Sequence[str] = HEAVY_TAILED,
    batch_size: int = DEFAULT_BATCH_SIZE,
    size_factor: float = 1.0,
    seed: int = 0,
    trace_cap: int = DEFAULT_TRACE_CAP,
    store: Optional[RunStore] = None,
    jobs: Optional[int] = None,
) -> HardwareProfile:
    """Run the full Section VI characterization on both groups.

    All (group, dataset) cells resolve through one cache lookup /
    process pool, then merge per group in dataset order, so the profile
    is identical to the sequential sweep regardless of ``jobs``.
    """
    profiler = HardwareProfiler(
        machine=machine,
        cost_model=cost_model,
        core_counts=core_counts,
        algorithms=algorithms,
        batch_size=batch_size,
        trace_cap=trace_cap,
        seed=seed,
    )
    plan = [("STail", tuple(short_tailed), "AS"), ("HTail", tuple(heavy_tailed), "DAH")]
    specs = [
        (dataset, structure, size_factor)
        for _, datasets, structure in plan
        for dataset in datasets
    ]
    cells = profiler.profile_cells(specs, store=store, jobs=jobs)
    groups = {}
    offset = 0
    for group, datasets, structure in plan:
        groups[group] = merge_cells(
            group,
            structure,
            cells[offset: offset + len(datasets)],
            profiler.core_counts,
        )
        offset += len(datasets)
    return HardwareProfile(groups=groups)

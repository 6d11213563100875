"""The streaming driver: the paper's measurement loop (Section IV-B).

A run shuffles the dataset's edge stream once, with its
``shuffle_seed``, slices it into batches, and for every batch executes
the two phases of Fig. 1:

1. **Update phase** -- the batch is ingested into every configured data
   structure; the simulated makespan of the insertion tasks is that
   structure's update latency.
2. **Compute phase** -- every configured algorithm runs under every
   configured compute model against a neutral reference view (vertex
   values are structure-independent), and the recorded operation
   counts are priced per structure to produce compute latencies.

Batch processing latency = update latency + compute latency
(Equation 1).

The paper's three repetitions (Section IV-B) are three runs with
three shuffle seeds; :func:`repro.analysis.stats.stage_stats` pools
their series stacked as rows.

That loop is written once, :meth:`StreamDriver._run_batches`.  What
the static, sharded and adaptive drivers and the Fig. 9/10 hardware
profile disagree on -- who ingests a batch, which cells are executed
and priced, which are recorded, what is traced -- is an
:class:`UpdatePlane`: :class:`MatrixPlane` here,
:class:`repro.streaming.sharded.ShardPlanPlane`,
:class:`repro.streaming.autotune.LiveStructurePlane` and
:class:`repro.analysis.hardware_profile.HardwarePlane` beside their
drivers, each of which only chooses its plane.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.algorithms.registry import ALGORITHMS, COMPUTE_MODELS, get_algorithm
from repro.compute.pricing import CostTables, price_compute_run
from repro.datasets.catalog import DEFAULT_BATCH_SIZE, Dataset
from repro.errors import ConfigError
from repro.graph import STRUCTURES, ReferenceGraph, make_structure
from repro.graph.base import ExecutionContext
from repro.obs.metrics import METRICS
from repro.obs.tracer import TRACER
from repro.sim.cbuild import NATIVE
from repro.sim.cost_model import CostModel, DEFAULT_COST_MODEL
from repro.sim.machine import MachineConfig, SKYLAKE_GOLD_6142
from repro.sim.scheduler import ScheduleResult
from repro.streaming.batching import batch_count, make_batches
from repro.streaming.results import BatchRecord, StreamResult

#: The paper's four structures (the default characterization matrix);
#: the registry also accepts post-paper extensions such as "BA".
ALL_STRUCTURES = ("AS", "AC", "Stinger", "DAH")
ALL_ALGORITHMS = ("BFS", "CC", "MC", "PR", "SSSP", "SSWP")


def _check_names(kind: str, names, known) -> None:
    """Every entry a known ``kind``, none of them twice.

    A repeated name would not be run twice: both entries share one
    structure instance, one INC state and one result key, and the
    second run's numbers overwrite the first's.
    """
    for index, name in enumerate(names):
        if name not in known:
            raise ConfigError(f"unknown {kind} {name!r}")
        if name in names[:index]:
            raise ConfigError(f"{kind} {name!r} is listed more than once")


@dataclass
class StreamConfig:
    """What to run and on which simulated machine."""

    batch_size: int = DEFAULT_BATCH_SIZE
    structures: Tuple[str, ...] = ALL_STRUCTURES
    algorithms: Tuple[str, ...] = ALL_ALGORITHMS
    models: Tuple[str, ...] = COMPUTE_MODELS
    machine: MachineConfig = SKYLAKE_GOLD_6142
    threads: Optional[int] = None
    cost_model: CostModel = DEFAULT_COST_MODEL
    shuffle_seed: int = 0
    progress: Optional[Callable[[str], None]] = None
    #: Churn: after each insert batch, delete this fraction of the
    #: batch's edges again (a mixed insert/delete stream).  The update
    #: phase measures both operations.  Both compute models stay
    #: sound: FS recomputes, and INC repairs each deletion batch (see
    #: ``Algorithm.inc_delete_run``: invalidation then re-derivation
    #: for the monotone algorithms, PR re-converges without it).
    churn_fraction: float = 0.0
    #: Partition-parallel update simulation: split each batch across
    #: this many vertex-partitioned shards, each ingesting its share
    #: into its own structure instance; the batch's update latency is
    #: the slowest shard plus a cross-shard merge charge (see
    #: repro.streaming.sharded).  1 = the serial model; algorithm
    #: results are bit-identical either way.
    shards: int = 1
    #: Cycled per-batch sizes overriding ``batch_size`` (regime-shifting
    #: streams: batch ``i`` holds ``batch_schedule[i % len]`` edges).
    batch_schedule: Optional[Tuple[int, ...]] = None
    #: Adaptive mode (``structures=("adaptive",)`` with
    #: ``models=("adaptive",)``): the pool the auto-tuner picks from.
    #: ``None`` means the paper's full matrix (ALL_STRUCTURES and both
    #: compute models).
    candidate_structures: Optional[Tuple[str, ...]] = None
    candidate_models: Optional[Tuple[str, ...]] = None

    @property
    def is_adaptive(self) -> bool:
        """True when the auto-tuner drives (structure, model) selection."""
        return self.structures == ("adaptive",)

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 <= self.churn_fraction < 1.0:
            raise ConfigError(
                f"churn_fraction must be in [0, 1), got {self.churn_fraction}"
            )
        if self.shards < 1:
            raise ConfigError(f"shards must be >= 1, got {self.shards}")
        if self.batch_schedule is not None:
            if not self.batch_schedule:
                raise ConfigError("batch_schedule must not be empty")
            for size in self.batch_schedule:
                if size < 1:
                    raise ConfigError(
                        f"batch_schedule sizes must be >= 1, got {size}"
                    )
            if self.shards != 1:
                raise ConfigError("batch_schedule requires shards == 1")
        adaptive = "adaptive" in self.structures or "adaptive" in self.models
        if adaptive:
            if self.structures != ("adaptive",) or self.models != ("adaptive",):
                raise ConfigError(
                    "adaptive mode is all-or-nothing: use "
                    "structures=('adaptive',) together with "
                    "models=('adaptive',)"
                )
            if self.shards != 1:
                raise ConfigError("adaptive mode requires shards == 1")
            _check_names(
                "candidate structure", self.candidate_structures or (), STRUCTURES
            )
            _check_names(
                "candidate model", self.candidate_models or (), COMPUTE_MODELS
            )
        else:
            _check_names("structure", self.structures, STRUCTURES)
            _check_names("compute model", self.models, COMPUTE_MODELS)
            if self.candidate_structures or self.candidate_models:
                raise ConfigError(
                    "candidate_structures/candidate_models only apply to "
                    "adaptive mode (structures=('adaptive',))"
                )
        _check_names("algorithm", self.algorithms, ALGORITHMS)


def pick_source(dataset: Dataset) -> int:
    """The single-source root of a run over ``dataset``.

    The stream's hottest source: a hub is (almost surely) present from
    the first batch on and reaches a large fraction of the graph, which
    matches how single-source roots are chosen in graph benchmarks.
    """
    if len(dataset.edges) == 0:
        raise ConfigError(
            f"{dataset.name} has no edges to pick a source vertex from"
        )
    return int(np.bincount(dataset.edges.src).argmax())


def churn_count(batch_edges: int, fraction: float) -> int:
    """How many of a batch's ``batch_edges`` edges a churn stream
    deletes again: none without churn or edges, else at least one."""
    if fraction <= 0.0 or not batch_edges:
        return 0
    return max(1, int(batch_edges * fraction))


def churn_victims(batch, fraction: float):
    """The head of ``batch`` a churn stream deletes again."""
    return batch.slice(0, churn_count(len(batch), fraction))


def _verify_counts(reported: Dict[str, int], expected: int, verb: str) -> None:
    """Every ingesting structure must agree with the reference graph."""
    for name, count in reported.items():
        assert count == expected, (
            f"{name} {verb} {count} edges where the reference "
            f"graph {verb} {expected}"
        )


def _execute_compute(algorithm, model, reference, state, batch, removed, source):
    """Every run one algorithm x model schedules for this batch.

    FS reruns from scratch; INC applies the batch incrementally and,
    under churn, appends the KickStarter-style deletion repair whose
    cost belongs to the same compute phase.
    """
    if model == "FS":
        return [algorithm.fs_run(reference, source=source)]
    affected = algorithm.affected_from_batch(batch, reference)
    runs = [algorithm.inc_run(reference, state, affected, source=source)]
    if removed:
        runs.append(
            algorithm.inc_delete_run(reference, state, removed, source=source)
        )
    return runs


class UpdatePlane:
    """What one driver decides about a batch; the loop does the rest.

    The static, sharded and adaptive drivers and the hardware profile
    run the same batch loop (:meth:`StreamDriver._run_batches`) and
    disagree on four things only (DESIGN.md decisions #21, #26): *who
    ingests* a batch (the run state each of the four planes builds in
    its constructor, and ``update`` / ``delete``), *what is executed and priced*
    (``models`` x ``structures``, and ``price``, which the hardware
    plane extends to trace and replay what it prices) and *what is
    recorded* (``record_cell`` / ``after_batch``).
    The defaults -- every structure priced on the run's machine, every
    priced cell under its own key -- serve the static and sharded
    planes.  A driver builds one plane per run.
    """

    def __init__(self, config, dataset: Dataset, ctx, models, structures) -> None:
        self.config = config
        self.dataset = dataset
        self.ctx = ctx
        self.models: Tuple[str, ...] = models
        self.structures: Tuple[str, ...] = structures
        self.total_batches = batch_count(
            len(dataset.edges), config.batch_size, config.batch_schedule
        )
        self.sim_clocks: Dict[str, float] = {}

    def observe(self, structure_name: str, schedule: ScheduleResult, label: str) -> None:
        """Per-batch observability for one structure's update schedule.

        ``sim_clocks`` is the simulated clock per timeline track
        (dataset/structure): batches abut on the track even though each
        schedule starts at cycle 0.
        """
        ctx = self.ctx
        if METRICS.enabled:
            METRICS.histogram(
                "stream_update_latency_seconds",
                "simulated per-batch update latency",
                structure=structure_name,
            ).observe(ctx.seconds(schedule.makespan_cycles))
        if TRACER.sim_timeline:
            track = f"{self.dataset.name}/{structure_name}"
            offset = self.sim_clocks.get(track, 0.0)
            to_us = 1e6 / ctx.machine.frequency_hz
            timeline = schedule.extra.get("timeline")
            if timeline is not None:
                starts, ends = timeline
                starts_us = np.asarray(starts, dtype=np.float64) * to_us + offset
                ends_us = np.asarray(ends, dtype=np.float64) * to_us + offset
                TRACER.record_schedule_threads(
                    track,
                    np.asarray(schedule.task_thread, dtype=np.int64).tolist(),
                    starts_us.tolist(),
                    ends_us.tolist(),
                    [label] * len(starts_us),
                )
            self.sim_clocks[track] = offset + schedule.makespan_cycles * to_us

    def new_structure(self, name: str):
        """An empty ``name`` structure sized for the dataset."""
        return make_structure(
            name,
            self.dataset.max_nodes,
            directed=self.dataset.directed,
            cost_model=self.config.cost_model,
        )

    def price(self, algorithm, runs, compute_view, cost_tables) -> Dict[str, float]:
        """Compute-phase cycles of one algorithm x model on each structure
        the plane prices, from the runs it just executed on
        ``compute_view``.

        The runs a batch schedules (INC, plus its deletion repair under
        churn) belong to the same compute phase, so their latencies add.
        """
        cycles = dict.fromkeys(self.structures, 0.0)
        for run in runs:
            pricings = price_compute_run(
                run, self.structures, cost_tables, self.ctx,
                neighbor_degree_query=algorithm.neighbor_degree_query,
            )
            for structure, pricing in pricings.items():
                cycles[structure] += pricing.latency_cycles
        return cycles

    def record_cell(self, algorithm, model, structure, cycles):
        """The ``(model, structure)`` key a priced cell is recorded
        under, or ``None`` when the batch's record does not carry it."""
        return (model, structure)

    def after_batch(self, record: BatchRecord) -> str:
        """Close the batch; returns what its progress line adds."""
        return ""


class MatrixPlane(UpdatePlane):
    """The static driver's plane: every configured structure ingests."""

    def __init__(self, config: StreamConfig, dataset: Dataset, ctx) -> None:
        super().__init__(config, dataset, ctx, config.models, config.structures)
        self._live = {name: self.new_structure(name) for name in self.structures}

    def update(self, batch, record: BatchRecord, reference) -> Dict[str, int]:
        """Ingest ``batch`` (``reference`` does not hold it yet) and
        start ``record.update_cycles``.  Returns each ingesting
        structure's inserted-edge count for the cross-check."""
        return self._apply("update", batch, record)

    def delete(self, victims, record: BatchRecord) -> Dict[str, int]:
        """Apply the churn deletions; add their latency to the batch's.
        Returns each ingesting structure's removed-edge count."""
        return self._apply("delete", victims, record)

    def _apply(self, operation: str, edges, record: BatchRecord) -> Dict[str, int]:
        counts = {}
        for name, structure in self._live.items():
            outcome = getattr(structure, operation)(edges, self.ctx)
            record.update_cycles[name] = (
                record.update_cycles.get(name, 0.0) + outcome.latency_cycles
            )
            counts[name] = outcome.edges_inserted
            self.observe(name, outcome.schedule, operation)
        return counts


class StreamDriver:
    """Runs the full characterization loop over one dataset."""

    def __init__(self, config: Optional[StreamConfig] = None) -> None:
        self.config = config if config is not None else StreamConfig()

    def _make_plane(self, dataset: Dataset, ctx: ExecutionContext):
        """This driver's update plane for one run."""
        return MatrixPlane(self.config, dataset, ctx)

    def run(self, dataset: Dataset) -> StreamResult:
        """Stream ``dataset`` and record every simulated latency."""
        cfg = self.config
        source = pick_source(dataset)
        ctx = ExecutionContext(
            machine=cfg.machine, threads=cfg.threads, cost_model=cfg.cost_model
        )
        if METRICS.enabled:
            METRICS.gauge(
                "native_loaded",
                "1 when the native library (sim, ingest and compute kernels) is loaded",
            ).set(1.0 if NATIVE.loaded() else 0.0)
        plane = self._make_plane(dataset, ctx)
        result = StreamResult(
            dataset=dataset.name,
            machine=cfg.machine,
            structures=cfg.structures,
            algorithms=cfg.algorithms,
            models=cfg.models,
            batches_per_rep=plane.total_batches,
        )
        self._run_batches(plane, source, result)
        return result

    def _run_batches(self, plane, source: int, result) -> None:
        """The one batch loop: Fig. 1's two phases for every batch."""
        cfg, dataset, ctx = self.config, plane.dataset, plane.ctx
        batches = make_batches(
            dataset.edges,
            cfg.batch_size,
            shuffle_seed=cfg.shuffle_seed,
            schedule=cfg.batch_schedule,
        )
        reference = ReferenceGraph(dataset.max_nodes, directed=dataset.directed)
        states = {
            name: get_algorithm(name).make_state(dataset.max_nodes)
            for name in cfg.algorithms
            if "INC" in plane.models
        }

        record_cell = plane.record_cell
        for batch_index, batch in enumerate(batches):
            record = BatchRecord(
                batch_index=batch_index,
                edges_attempted=len(batch),
                edges_inserted=0,
                num_nodes=0,
                num_edges=0,
            )
            # ---- Update phase: the plane's structures ingest the batch ----
            inserted = plane.update(batch, record, reference)
            # The reference graph is the single source of truth for how
            # many unique edges the batch contributed (and, under churn,
            # lost again); the instrumented structures must agree with
            # it (and with each other).
            record.edges_inserted = len(reference.update_collect(batch))
            if __debug__:
                _verify_counts(inserted, record.edges_inserted, "inserted")
            removed = ()  # an EdgeBatch once churn removes something
            if cfg.churn_fraction > 0.0 and len(batch):
                victims = churn_victims(batch, cfg.churn_fraction)
                deleted = plane.delete(victims, record)
                removed = reference.delete_collect(victims)
                if __debug__:
                    _verify_counts(deleted, len(removed), "removed")
            n = reference.num_nodes
            record.num_nodes = n
            record.num_edges = reference.num_edges
            # The zero-copy columnar view the collects left, the one
            # every algorithm x model run reaches through the reference,
            # its ``degrees`` the arrays the pricing reads.
            compute_view = reference.compute_view()
            # Built as the batch's runs ask for them, read by all of them.
            cost_tables = CostTables(
                compute_view.in_csr.degrees,
                compute_view.out_csr.degrees,
                ctx.cost_model,
            )

            # ---- Compute phase: each algorithm under each model the
            # plane executes, priced on each structure it prices ----
            with TRACER.span("compute") as compute_span:
                for alg_name in cfg.algorithms:
                    algorithm = get_algorithm(alg_name)
                    for model in plane.models:
                        runs = _execute_compute(
                            algorithm, model, reference,
                            states.get(alg_name), batch, removed, source,
                        )
                        structure_cycles = plane.price(
                            algorithm, runs, compute_view, cost_tables
                        )
                        recorded_model = None
                        for structure_name, cycles in structure_cycles.items():
                            key = record_cell(
                                alg_name, model, structure_name, cycles
                            )
                            if key is None:
                                continue
                            recorded_model, recorded_structure = key
                            record.compute_cycles[
                                (alg_name, recorded_model, recorded_structure)
                            ] = cycles
                            compute_span.add_cycles(cycles)
                            if METRICS.enabled:
                                METRICS.histogram(
                                    "stream_compute_latency_seconds",
                                    "simulated per-batch compute latency",
                                    algorithm=alg_name,
                                    model=recorded_model,
                                    structure=recorded_structure,
                                ).observe(ctx.seconds(cycles))
                        if recorded_model is not None:
                            record.compute_iterations[
                                (alg_name, recorded_model)
                            ] = sum(r.iteration_count for r in runs)
            progress_suffix = plane.after_batch(record)
            if METRICS.enabled:
                METRICS.counter(
                    "stream_batches_total", "batches processed",
                    dataset=dataset.name,
                ).inc()
                METRICS.counter(
                    "stream_edges_inserted_total",
                    "unique edges ingested across batches",
                    dataset=dataset.name,
                ).inc(record.edges_inserted)
            result.add_record(record)
            if cfg.progress is not None:
                cfg.progress(
                    f"{dataset.name} batch {batch_index + 1}/"
                    f"{len(batches)}{progress_suffix}: "
                    f"|V|={n} |E|={reference.num_edges}"
                )


def make_driver(config: Optional[StreamConfig] = None) -> StreamDriver:
    """The driver matching ``config``: sharded when ``shards > 1``,
    adaptive when ``structures=("adaptive",)``.

    Call sites (the sweep engine, the CLI, benches) construct through
    this factory so the partition-parallel and auto-tuned paths are
    picked up anywhere a config asks for them.
    """
    config = config if config is not None else StreamConfig()
    if config.is_adaptive:
        # Local import: autotune builds on this module.
        from repro.streaming.autotune import AdaptiveStreamDriver

        return AdaptiveStreamDriver(config)
    if config.shards > 1:
        # Local import: sharded builds on this module.
        from repro.streaming.sharded import ShardedStreamDriver

        return ShardedStreamDriver(config)
    return StreamDriver(config)

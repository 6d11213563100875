"""Partition-parallel simulation of one stream (``StreamConfig.shards``).

The paper's update phase models one multi-threaded machine ingesting
each batch whole.  This module models the natural scale-out step:
vertex-partitioned **shards**, each ingesting the slice of every batch
it owns into its own structure instance, followed by a merge step that
ships cross-partition state over the remote-socket interconnect.

Partitioning is by *home vertex*, so every dedup decision stays
shard-local and therefore exact:

* directed streams route edge ``(u, v)`` by ``u`` -- all of ``u``'s
  out-adjacency, and hence every duplicate test for ``(u, *)``, lives
  on one shard;
* undirected streams route by ``min(u, v)`` -- both orientations of
  ``{u, v}`` land on the same shard.

Consequently the sum of per-shard inserted counts equals the serial
reference count batch for batch, and the driver's reference-graph
cross-check keeps holding.

The sharded driver splits the run in two phases:

1. **Shard simulation** (:func:`_simulate_shard`): each shard replays
   the whole stream against its own structures, producing per
   ``(repetition, batch, structure)`` makespan and count arrays (its
   own update/churn replay, not the driver's loop: a shard has no
   reference graph and no compute phase to run).  A
   pure function of ``(stream, config, shard)``, so running shards in
   a process pool or in-process yields bit-identical arrays; workers
   open the stream from an mmap stream directory
   (:func:`repro.datasets.mmapio.stream_directory`) -- never a pickled
   copy.
2. **Replay** (:class:`StreamDriver`'s one batch loop over a
   :class:`ShardPlanPlane`): the parent runs reference graph, degrees
   and the full compute phase exactly as the serial driver -- so
   algorithm values, inserted and removed counts, and compute cycles
   are bit-identical to ``shards=1`` -- and the plane
   fills each batch's update latency from the plan:
   ``max over shards of the shard makespan + the cross-shard merge
   charge`` (:func:`repro.sim.counters.shard_merge_cycles`).

The per-update simulated timeline is not traced in sharded mode (there
is no single schedule to draw); metrics histograms are still recorded.
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Union

import numpy as np

from repro.datasets.mmapio import open_edge_mmap, stream_directory
from repro.engine.sweep import run_cells
from repro.graph import make_structure
from repro.graph.base import ExecutionContext
from repro.graph.edge import EdgeBatch
from repro.obs.metrics import METRICS
from repro.obs.tracer import TRACER
from repro.sim.counters import shard_merge_cycles
from repro.streaming.batching import batch_count, make_batches
from repro.streaming.driver import (
    REP_SEED_STRIDE,
    StreamConfig,
    StreamDriver,
    UpdatePlane,
    churn_victims,
)


def shard_of(
    src: np.ndarray,
    dst: np.ndarray,
    shards: int,
    max_nodes: int,
    directed: bool,
) -> np.ndarray:
    """Home shard of each edge (vectorized).

    The vertex space ``[0, max_nodes)`` is cut into ``shards``
    contiguous ranges; an edge lives with its routing key's range --
    ``src`` for directed streams, ``min(src, dst)`` for undirected
    ones (see the module docstring for why this keeps dedup exact).
    """
    key = src if directed else np.minimum(src, dst)
    return (key * shards) // max_nodes


def cross_shard_count(
    src: np.ndarray,
    dst: np.ndarray,
    shards: int,
    max_nodes: int,
) -> int:
    """Edges whose endpoints live in different vertex partitions.

    This is the merge traffic: each such edge forces the owning shard
    to publish updated state to the remote endpoint's partition.
    """
    if shards < 2 or len(src) == 0:
        return 0
    home_src = (src * shards) // max_nodes
    home_dst = (dst * shards) // max_nodes
    return int(np.count_nonzero(home_src != home_dst))


@dataclass(frozen=True)
class _ShardTask:
    """Everything one shard needs to replay the stream; picklable."""

    shard: int
    source: Union[EdgeBatch, Path]  # in process: the batch; pooled: its directory
    max_nodes: int
    directed: bool
    config: StreamConfig  # without its progress callback


@dataclass
class ShardPlan:
    """Merged per-shard schedules, indexed ``[rep, batch, shard, structure]``."""

    shards: int
    update_makespan: np.ndarray
    inserted: np.ndarray
    delete_makespan: np.ndarray
    removed: np.ndarray
    sim_seconds: float


def _simulate_shard(task: _ShardTask) -> dict:
    """Replay the whole stream for one shard; returns schedule arrays.

    Observability is forced off for the duration: the shard replay must
    produce identical numbers whether it runs in-process or in a pool
    worker, and the parent records everything user-visible from the
    returned arrays instead.
    """
    metrics_was = METRICS.enabled
    tracer_state = (TRACER.enabled, TRACER.keep_events, TRACER.sim_timeline)
    METRICS.enabled = False
    TRACER.enabled = False
    try:
        edges = task.source
        if isinstance(edges, Path):
            edges = open_edge_mmap(edges)
        return _simulate_shard_inner(task, edges)
    finally:
        METRICS.enabled = metrics_was
        TRACER.enabled, TRACER.keep_events, TRACER.sim_timeline = tracer_state


def _home_share(edges: EdgeBatch, task: _ShardTask) -> EdgeBatch:
    """The rows of ``edges`` whose home shard is ``task.shard``."""
    mask = task.shard == shard_of(
        edges.src, edges.dst, task.config.shards, task.max_nodes, task.directed
    )
    return EdgeBatch(
        src=edges.src[mask], dst=edges.dst[mask], weight=edges.weight[mask]
    )


def _simulate_shard_inner(task: _ShardTask, edges: EdgeBatch) -> dict:
    cfg = task.config
    ctx = ExecutionContext(
        machine=cfg.machine, threads=cfg.threads, cost_model=cfg.cost_model
    )
    shape = (
        cfg.repetitions,
        batch_count(len(edges), cfg.batch_size),
        len(cfg.structures),
    )
    columns = {
        "update_makespan": np.zeros(shape),
        "inserted": np.zeros(shape, dtype=np.int64),
        "delete_makespan": np.zeros(shape),
        "removed": np.zeros(shape, dtype=np.int64),
    }
    for rep in range(cfg.repetitions):
        batches = make_batches(
            edges,
            cfg.batch_size,
            shuffle_seed=cfg.shuffle_seed + REP_SEED_STRIDE * rep,
        )
        structures = {
            name: make_structure(
                name,
                task.max_nodes,
                directed=task.directed,
                cost_model=cfg.cost_model,
            )
            for name in cfg.structures
        }
        for batch_index, batch in enumerate(batches):
            phases = [
                ("update", batch, columns["update_makespan"], columns["inserted"])
            ]
            if cfg.churn_fraction > 0.0 and len(batch):
                # The victims are the head of the whole batch, as in the
                # serial loop; this shard deletes the ones it owns.
                victims = churn_victims(batch, cfg.churn_fraction)
                phases.append(
                    ("delete", victims, columns["delete_makespan"], columns["removed"])
                )
            for operation, affected, makespans, counts in phases:
                share = _home_share(affected, task)
                for si, name in enumerate(cfg.structures):
                    outcome = getattr(structures[name], operation)(share, ctx)
                    makespans[rep, batch_index, si] = outcome.latency_cycles
                    counts[rep, batch_index, si] = outcome.edges_inserted
    return columns


class ShardPlanPlane(UpdatePlane):
    """The sharded driver's plane: lookups into a :class:`ShardPlan`.

    Nothing ingests in this process -- the shards already did, in phase
    1 -- so a batch's update latency is the slowest shard's makespan
    plus the cross-shard merge charge, and the counts handed to the
    reference cross-check are the sums over shards.
    """

    def __init__(self, config: StreamConfig, dataset, ctx, plan: ShardPlan) -> None:
        super().__init__(config, dataset, ctx, config.models, config.structures)
        self.plan = plan

    def _cross(self, edges) -> int:
        return cross_shard_count(
            edges.src, edges.dst, self.plan.shards, self.dataset.max_nodes
        )

    def _lookup(self, cross: int, record, makespans, counts) -> Dict[str, int]:
        merge = shard_merge_cycles(cross, self.ctx.machine)
        totals: Dict[str, int] = {}
        for si, name in enumerate(self.structures):
            per_shard = (record.repetition, record.batch_index, slice(None), si)
            cycles = float(makespans[per_shard].max()) + merge
            record.update_cycles[name] = record.update_cycles.get(name, 0.0) + cycles
            totals[name] = int(counts[per_shard].sum())
            if METRICS.enabled:
                METRICS.histogram(
                    "stream_update_latency_seconds",
                    "simulated per-batch update latency",
                    structure=name,
                ).observe(self.ctx.seconds(cycles))
        return totals

    def update(self, batch, record, reference) -> Dict[str, int]:
        merge_started = time.perf_counter()
        cross = self._cross(batch)
        inserted = self._lookup(
            cross, record, self.plan.update_makespan, self.plan.inserted
        )
        if METRICS.enabled:
            METRICS.counter(
                "shard_cross_edges_total",
                "edges crossing vertex partitions (merge traffic units)",
                dataset=self.dataset.name,
            ).inc(cross)
            METRICS.histogram(
                "shard_merge_seconds",
                "wall time of the per-batch cross-shard merge step",
                dataset=self.dataset.name,
            ).observe(time.perf_counter() - merge_started)
        return inserted

    def delete(self, victims, record) -> Dict[str, int]:
        return self._lookup(
            self._cross(victims), record,
            self.plan.delete_makespan, self.plan.removed,
        )


class ShardedStreamDriver(StreamDriver):
    """Drives one dataset with partition-parallel update simulation.

    :class:`StreamDriver`'s batch loop over a :class:`ShardPlanPlane`.
    With more than one CPU the shard replays fan out over the sweep
    engine's process pool (:func:`repro.engine.sweep.run_cells`), each
    worker opening the stream from its mmap directory -- spilled to a
    temporary one unless the dataset already is a whole stream
    directory.  With one CPU they replay in this process; the
    resulting numbers are bit-identical either way.
    """

    def _make_plane(self, dataset, ctx) -> ShardPlanPlane:
        """Phase 1, then the plane phase 2 reads it through."""
        return ShardPlanPlane(
            self.config, dataset, ctx, self._simulate_shards(dataset)
        )

    def _shard_tasks(self, dataset, source: Union[EdgeBatch, Path]) -> list:
        config = replace(self.config, progress=None)  # a callback does not pickle
        return [
            _ShardTask(shard, source, dataset.max_nodes, dataset.directed, config)
            for shard in range(config.shards)
        ]

    def _simulate_shards(self, dataset) -> ShardPlan:
        cfg = self.config
        started = time.perf_counter()
        jobs = min(cfg.shards, os.cpu_count() or 1)
        transport = (
            stream_directory(dataset.edges) if jobs > 1 else nullcontext(dataset.edges)
        )
        with transport as source:
            tasks = self._shard_tasks(dataset, source)
            outs = run_cells(
                _simulate_shard,
                [(task,) for task in tasks],
                jobs,
                [f"shard {task.shard}" for task in tasks],
            )
        plan = ShardPlan(
            shards=cfg.shards,
            sim_seconds=time.perf_counter() - started,
            **{
                column: np.stack([out[column] for out in outs], axis=2)
                for column in outs[0]
            },
        )
        if METRICS.enabled:
            METRICS.histogram(
                "shard_sim_seconds",
                "wall time of the whole-stream shard simulation phase",
                dataset=dataset.name,
            ).observe(plan.sim_seconds)
        return plan

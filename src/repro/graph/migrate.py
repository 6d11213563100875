"""Live structure migration for the adaptive driver.

When the auto-tuner (:mod:`repro.streaming.autotune`) decides a
different data structure would serve the remaining stream better, the
graph built so far has to move: the live logical edge set is bulk-
exported from the reference graph into one columnar
:class:`~repro.graph.edge.EdgeBatch` and bulk-ingested into a freshly
constructed target structure through the ordinary
:meth:`~repro.graph.base.GraphDataStructure.update` path -- which means
the ``cingest`` fast path fires when loaded, and the simulated makespan
of the ingest tasks is the migration's price.  That price is charged to
the batch that triggered the switch, so adaptive timings stay honest.

Vertex values never move: algorithms run on the reference graph, so a
migration cannot change algorithm results -- only update latencies and
the per-structure compute *pricing* change, and the reference graph's
own adjacency (the compute view) is untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compute.kernels import flat_slots
from repro.graph import make_structure
from repro.graph.base import ExecutionContext, GraphDataStructure
from repro.graph.edge import EdgeBatch
from repro.graph.reference import ReferenceGraph
from repro.obs.metrics import METRICS
from repro.obs.tracer import TRACER


@dataclass
class MigrationResult:
    """One completed structure migration."""

    structure: GraphDataStructure
    target: str
    edges_moved: int
    latency_cycles: float


def export_live_edges(reference: ReferenceGraph) -> EdgeBatch:
    """The live logical edge set as one columnar batch.

    Deterministic vertex-major order (chronological per row): one flat
    gather of the out-adjacency's live slots.  Undirected graphs store
    both orientations in the reference rows, so each pair is emitted
    once, from the row of its smaller endpoint (self-loops appear in
    one row only and are emitted once); directed graphs emit every
    stored entry.
    """
    csr = reference.compute_view().out_csr
    slots = flat_slots(csr.indptr, csr.degrees)
    src = np.repeat(np.arange(reference.num_nodes, dtype=np.int64), csr.degrees)
    dst, weight = csr.indices[slots], csr.weights[slots]
    if not reference.directed:
        once = dst >= src
        src, dst, weight = src[once], dst[once], weight[once]
    return EdgeBatch(src=src, dst=dst, weight=weight)


def migrate_structure(
    reference: ReferenceGraph,
    target: str,
    ctx: ExecutionContext,
    cost_model=None,
) -> MigrationResult:
    """Move the live graph into a fresh ``target`` structure.

    Exports the reference graph's logical edges and bulk-ingests them
    as a single batch; the ingest schedule's simulated makespan is the
    migration latency the caller charges to the triggering batch.
    """
    with TRACER.span("autotune.migrate") as span:
        structure = make_structure(
            target,
            reference.max_nodes,
            directed=reference.directed,
            cost_model=cost_model if cost_model is not None else ctx.cost_model,
        )
        batch = export_live_edges(reference)
        latency_cycles = 0.0
        if len(batch):
            update = structure.update(batch, ctx)
            latency_cycles = update.latency_cycles
            assert update.edges_inserted == reference.num_edges, (
                f"migration to {target} ingested {update.edges_inserted} "
                f"edges where the reference graph holds "
                f"{reference.num_edges}"
            )
        span.add_cycles(latency_cycles)
    if METRICS.enabled:
        METRICS.counter(
            "autotune_migrated_edges_total",
            "edges moved by live structure migrations",
            target=target,
        ).inc(len(batch))
        METRICS.histogram(
            "autotune_migration_latency_seconds",
            "simulated latency of live structure migrations",
            target=target,
        ).observe(ctx.seconds(latency_cycles))
    return MigrationResult(
        structure=structure,
        target=target,
        edges_moved=len(batch),
        latency_cycles=latency_cycles,
    )

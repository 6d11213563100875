"""The six studies beyond the paper, each at the one size it is committed at.

``repro all --output DIR`` renders each into its ``ext_*.txt`` file and
``benchmarks/`` asserts their shapes on what these functions return.
None of them has a quick size: ``--quick`` leaves their text unchanged.

- TLP diagnosis, memory footprint and batch-size sensitivity run the
  harnesses of :mod:`repro.analysis.tlp`, :mod:`~repro.analysis.memory_report`
  and :mod:`~repro.analysis.sensitivity` on fixed streams;
- deletion churn, the multi-snapshot store and the fifth structure (BA)
  are small enough to live here whole, run and renderer side by side.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.analysis.memory_report import MemoryReport, run_memory_report
from repro.analysis.sensitivity import SensitivityResult, run_batch_size_sensitivity
from repro.analysis.tlp import TLPReport, run_tlp_report
from repro.datasets import load_dataset
from repro.graph import ExecutionContext, make_structure
from repro.graph.snapshots import SnapshotStore
from repro.streaming import StreamConfig, StreamDriver, make_batches

#: (dataset, structure) streams of the TLP diagnosis: contention on AS,
#: imbalance on DAH, each against short-tailed AS.
TLP_STREAMS = (
    ("LJ", "AS"), ("Talk", "AS"), ("Talk", "DAH"), ("Wiki", "AS"), ("Wiki", "DAH")
)

#: One short- and one heavy-tailed stream for the footprint and
#: batch-size studies.
TAIL_PAIR = ("LJ", "Talk")

CHURN_STRUCTURES = ("AS", "AC", "Stinger", "DAH")
FIFTH_STRUCTURES = ("AS", "AC", "Stinger", "DAH", "BA")


def tlp_diagnosis() -> List[TLPReport]:
    return [
        run_tlp_report(dataset, structure, size_factor=0.6)
        for dataset, structure in TLP_STREAMS
    ]


def memory_footprint() -> List[MemoryReport]:
    return [
        run_memory_report(name, size_factor=0.5, batch_size=1250) for name in TAIL_PAIR
    ]


def batch_size_sensitivity() -> List[SensitivityResult]:
    return [
        run_batch_size_sensitivity(name, batch_sizes=(500, 1500, 4500), size_factor=0.5)
        for name in TAIL_PAIR
    ]


def run_deletion_churn() -> Dict[str, Tuple[float, float, float]]:
    """Ingest Talk, delete its first batch, re-insert it.

    Returns ``{structure: (ingest, delete, reinsert)}`` simulated ms.
    """
    dataset = load_dataset("Talk", seed=4, size_factor=0.5)
    batches = make_batches(dataset.edges, 1500, shuffle_seed=4)
    ctx = ExecutionContext()
    rows = {}
    for name in CHURN_STRUCTURES:
        structure = make_structure(name, dataset.max_nodes, directed=dataset.directed)
        insert_ms = sum(
            structure.update(batch, ctx).latency_seconds(ctx.machine)
            for batch in batches
        ) * 1e3
        victims = batches[0]
        delete_ms = structure.delete(victims, ctx).latency_seconds(ctx.machine) * 1e3
        reinsert_ms = structure.update(victims, ctx).latency_seconds(ctx.machine) * 1e3
        rows[name] = (insert_ms, delete_ms, reinsert_ms)
    return rows


def render_deletion_churn(rows: Dict[str, Tuple[float, float, float]]) -> str:
    lines = ["Deletion churn: update/delete/reinsert latency (ms)"]
    for name, (insert_ms, delete_ms, reinsert_ms) in rows.items():
        lines.append(
            f"  {name:8s} ingest {insert_ms:8.3f}  delete {delete_ms:7.3f}  "
            f"reinsert {reinsert_ms:7.3f}"
        )
    return "\n".join(lines)


def run_snapshot_store() -> SnapshotStore:
    """LJ committed one batch per snapshot."""
    dataset = load_dataset("LJ", seed=6, size_factor=0.5)
    store = SnapshotStore(dataset.max_nodes, directed=dataset.directed)
    for batch in make_batches(dataset.edges, 2500, shuffle_seed=6):
        store.commit(batch)
    return store


def render_snapshot_store(store: SnapshotStore) -> str:
    return "Multi-snapshot store: (snapshot, nodes, edges)\n" + "\n".join(
        f"  {row}" for row in store.history()
    )


def run_fifth_structure() -> Dict[str, Dict[str, float]]:
    """Where the post-paper Hornet-style BA lands among the four.

    Returns ``{dataset: {structure: P3 update latency / AS's}}``.
    """
    config = StreamConfig(
        structures=FIFTH_STRUCTURES, algorithms=("BFS",), models=("INC",)
    )
    rows = {}
    for name in TAIL_PAIR:
        result = StreamDriver(config).run(load_dataset(name, seed=1, size_factor=0.6))
        batches = result.batches_per_rep
        p3 = slice(batches - max(batches // 3, 1), batches)
        base = result.update_latency("AS")[0, p3].mean()
        rows[name] = {
            structure: result.update_latency(structure)[0, p3].mean() / base
            for structure in config.structures
        }
    return rows


def render_fifth_structure(rows: Dict[str, Dict[str, float]]) -> str:
    lines = ["Fifth structure (BA, Hornet-style): P3 update latency vs AS"]
    for dataset, ratios in rows.items():
        lines.append(
            f"  {dataset:6s} " + "  ".join(f"{s}:{r:5.2f}" for s, r in ratios.items())
        )
    return "\n".join(lines)

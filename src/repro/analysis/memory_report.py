"""Memory-footprint characterization of the four data structures.

Not a paper artifact, but the natural companion study: the simulated
address space already accounts every allocation, so we can report
bytes-per-edge and total footprint per structure as the stream grows.
The structural trade-offs mirror the latency ones:

- AS/AC pay vector slack (capacity doubling) and per-vertex headers;
- Stinger pays block slack (a vertex with 17 edges holds 32 slots);
- DAH pays hash-table load-factor slack twice (vertex tables and
  per-hub neighbor sets).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.datasets.catalog import DEFAULT_BATCH_SIZE, load_dataset
from repro.graph import ExecutionContext, make_structure
from repro.streaming.batching import make_batches

STRUCTURE_NAMES = ("AS", "AC", "Stinger", "DAH")


@dataclass(frozen=True)
class FootprintSample:
    """Live structure memory after one ingested batch."""

    batch_index: int
    edges: int
    live_bytes: int

    @property
    def bytes_per_edge(self) -> float:
        return self.live_bytes / self.edges if self.edges else 0.0


@dataclass
class MemoryReport:
    """Footprint series of every structure over one dataset's stream."""

    dataset: str
    series: Dict[str, List[FootprintSample]]

    def final_bytes_per_edge(self) -> Dict[str, float]:
        return {
            name: samples[-1].bytes_per_edge for name, samples in self.series.items()
        }

    def final_bytes(self) -> Dict[str, int]:
        return {name: samples[-1].live_bytes for name, samples in self.series.items()}


def run_memory_report(
    dataset_name: str,
    batch_size: int = DEFAULT_BATCH_SIZE,
    structures: Sequence[str] = STRUCTURE_NAMES,
    seed: int = 0,
    size_factor: float = 1.0,
) -> MemoryReport:
    """Stream one dataset through each structure, sampling live bytes."""
    dataset = load_dataset(dataset_name, seed=seed, size_factor=size_factor)
    batches = make_batches(dataset.edges, batch_size, shuffle_seed=seed)
    ctx = ExecutionContext()
    series: Dict[str, List[FootprintSample]] = {}
    for name in structures:
        structure = make_structure(
            name, dataset.max_nodes, directed=dataset.directed
        )
        samples: List[FootprintSample] = []
        for index, batch in enumerate(batches):
            structure.update(batch, ctx)
            samples.append(
                FootprintSample(
                    batch_index=index,
                    edges=structure.num_edges,
                    live_bytes=structure.space.live_bytes,
                )
            )
        series[name] = samples
    return MemoryReport(dataset=dataset_name, series=series)


def render_memory_report(reports: Sequence[MemoryReport]) -> str:
    """Plain-text table of final footprints per dataset and structure."""
    lines = [
        "Memory footprint: live simulated bytes after the full stream",
        "-" * 78,
        f"  {'dataset':8s} " + "".join(f"{name:>14s}" for name in STRUCTURE_NAMES),
    ]
    for report in reports:
        per_edge = report.final_bytes_per_edge()
        totals = report.final_bytes()
        lines.append(
            f"  {report.dataset:8s} "
            + "".join(
                f"{totals.get(name, 0) / 1024:>10.0f} KiB" for name in STRUCTURE_NAMES
            )
        )
        lines.append(
            f"  {'  B/edge':8s} "
            + "".join(f"{per_edge.get(name, 0.0):>14.1f}" for name in STRUCTURE_NAMES)
        )
    return "\n".join(lines)

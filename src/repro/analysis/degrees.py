"""Degree statistics: Table IV.

Max in/out-degree of each dataset, over the entire stream and over one
typical batch -- the structural signature that separates short-tailed
from heavy-tailed graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.datasets.catalog import DEFAULT_BATCH_SIZE, dataset_names, load_dataset
from repro.streaming.batching import make_batches


@dataclass(frozen=True)
class DegreeRow:
    """One dataset's row of Table IV."""

    dataset: str
    max_in: int
    max_out: int
    batch_max_in: int
    batch_max_out: int
    paper_max_in: int
    paper_max_out: int
    paper_batch_max_in: int
    paper_batch_max_out: int

    @property
    def heavy_tailed(self) -> bool:
        """The paper's classification: a batch tail far above the
        short-tailed graphs' single digits."""
        return max(self.batch_max_in, self.batch_max_out) >= 12


def degree_table(
    names: Optional[Sequence[str]] = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
    seed: int = 0,
    size_factor: float = 1.0,
) -> Dict[str, DegreeRow]:
    """Compute Table IV for the generated stand-in datasets."""
    rows: Dict[str, DegreeRow] = {}
    for name in names if names is not None else dataset_names():
        dataset = load_dataset(name, seed=seed, size_factor=size_factor)
        full_in, full_out = dataset.edges.max_in_out_degree()
        batch = make_batches(dataset.edges, batch_size, shuffle_seed=seed)[0]
        batch_in, batch_out = batch.max_in_out_degree()
        paper = dataset.spec.paper
        rows[name] = DegreeRow(
            dataset=name,
            max_in=full_in,
            max_out=full_out,
            batch_max_in=batch_in,
            batch_max_out=batch_out,
            paper_max_in=paper.max_in_degree if paper else 0,
            paper_max_out=paper.max_out_degree if paper else 0,
            paper_batch_max_in=paper.batch_max_in_degree if paper else 0,
            paper_batch_max_out=paper.batch_max_out_degree if paper else 0,
        )
    return rows

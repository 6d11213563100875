"""Edge and edge-batch types.

A streaming graph's input is a stream of weighted edges, consumed in
fixed-size batches (Section II-A of the paper).  :class:`EdgeBatch`
stores one batch as parallel numpy arrays -- ids ``int32``, weights
``float32`` (:mod:`repro.widths`) -- and is the unit handed to
:meth:`repro.graph.base.GraphDataStructure.update`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence, Tuple

import numpy as np

from repro.errors import DatasetError
from repro.widths import VERTEX, WEIGHT, vertex_column, weight_column


class Edge(NamedTuple):
    """A single weighted directed edge ``src -> dst``."""

    src: int
    dst: int
    weight: float = 1.0


@dataclass(frozen=True)
class EdgeBatch:
    """A batch of edges as parallel arrays (src, dst, weight).

    Columns of other dtypes are narrowed on construction, checked: an id
    an ``int32`` cannot hold or a weight a ``float32`` cannot hold
    raises :class:`~repro.errors.DatasetError`.  Columns that already
    have the widths are kept as they are (a memmap stays mapped).
    """

    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray

    def __post_init__(self) -> None:
        if not (len(self.src) == len(self.dst) == len(self.weight)):
            raise DatasetError("edge batch arrays must have equal length")
        object.__setattr__(self, "src", vertex_column(self.src))
        object.__setattr__(self, "dst", vertex_column(self.dst))
        object.__setattr__(self, "weight", weight_column(self.weight))

    @classmethod
    def from_edges(cls, edges: Sequence[Tuple[int, int, float]]) -> "EdgeBatch":
        """Build a batch from ``(src, dst, weight)`` tuples.

        Two-tuples ``(src, dst)`` are accepted with an implied weight
        of 1.0.
        """
        srcs, dsts, weights = [], [], []
        for edge in edges:
            if len(edge) == 2:
                u, v = edge
                w = 1.0
            else:
                u, v, w = edge
            srcs.append(u)
            dsts.append(v)
            weights.append(w)
        return cls(
            src=np.asarray(srcs, dtype=np.int64),
            dst=np.asarray(dsts, dtype=np.int64),
            weight=np.asarray(weights, dtype=np.float64),
        )

    @classmethod
    def empty(cls) -> "EdgeBatch":
        return cls(
            src=np.empty(0, dtype=VERTEX),
            dst=np.empty(0, dtype=VERTEX),
            weight=np.empty(0, dtype=WEIGHT),
        )

    def __len__(self) -> int:
        return len(self.src)

    def __iter__(self) -> Iterator[Edge]:
        for i in range(len(self.src)):
            yield Edge(int(self.src[i]), int(self.dst[i]), float(self.weight[i]))

    def slice(self, start: int, stop: int) -> "EdgeBatch":
        """The sub-batch ``[start:stop)``."""
        return EdgeBatch(
            src=self.src[start:stop],
            dst=self.dst[start:stop],
            weight=self.weight[start:stop],
        )

    def max_in_out_degree(self) -> Tuple[int, int]:
        """(max in-degree, max out-degree) of this batch alone.

        Used for Table IV's per-batch degree columns: parallel edges
        within the batch count once, matching unique ingestion.
        """
        if len(self) == 0:
            return (0, 0)
        unique = np.unique(np.stack([self.src, self.dst], axis=1), axis=0)
        out_deg = np.bincount(unique[:, 0])
        in_deg = np.bincount(unique[:, 1])
        return int(in_deg.max()), int(out_deg.max())

"""Stream preparation: shuffling and batch slicing (Section IV-B).

The paper randomly shuffles each input file to break any ordering --
streaming edges do not arrive in a predefined order -- then reads it in
fixed-size batches.  A run shuffles once, with its ``shuffle_seed``;
the paper's repetitions are runs with different seeds, which is where
the run-to-run variation behind the confidence intervals comes from.

:func:`make_batches` returns a lazy :class:`BatchView` rather than a
list of copies: the shuffle is a permutation *index* and each batch is
gathered from the backing arrays only when accessed.  Peak memory is
one batch (plus the 4-byte-per-edge permutation), not 2x the stream --
which is what lets a memory-mapped stream be driven without ever
materializing it.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.errors import DatasetError
from repro.graph.edge import EdgeBatch
from repro.obs.tracer import TRACER
from repro.widths import VERTEX, VERTEX_LIMIT


def _validate_schedule(schedule: Sequence[int]) -> Tuple[int, ...]:
    sizes = tuple(int(size) for size in schedule)
    if not sizes:
        raise DatasetError("batch schedule must not be empty")
    for size in sizes:
        if size < 1:
            raise DatasetError(f"batch schedule sizes must be >= 1, got {size}")
    return sizes


def _schedule_offsets(num_edges: int, schedule: Tuple[int, ...]) -> np.ndarray:
    """Batch boundary offsets [0, ..., num_edges] under a cycled schedule."""
    offsets = [0]
    index = 0
    while offsets[-1] < num_edges:
        offsets.append(
            min(offsets[-1] + schedule[index % len(schedule)], num_edges)
        )
        index += 1
    return np.asarray(offsets, dtype=np.int64)


def batch_count(
    num_edges: int,
    batch_size: int,
    schedule: Optional[Sequence[int]] = None,
) -> int:
    """How many batches a stream splits into, without building the view.

    With ``schedule`` (a cycled sequence of per-batch sizes, e.g. the
    regime-shifting streams of the auto-tuner bench), the count follows
    the schedule; otherwise it is the usual ceil division.
    """
    if schedule is not None:
        return len(_schedule_offsets(num_edges, _validate_schedule(schedule))) - 1
    return (num_edges + batch_size - 1) // batch_size


class BatchView:
    """A lazy sequence of the batches of one (shuffled) stream.

    Batch ``i`` is ``edges[order][i*b : (i+1)*b]``, produced on access
    as a single fancy-index gather (``src[order[i*b:(i+1)*b]]``).  With
    ``order=None`` (unshuffled) batches are zero-copy slices of the
    backing arrays, memory-mapped or not.

    ``schedule`` overrides the fixed ``batch_size`` with a cycled
    sequence of per-batch sizes (batch ``i`` holds
    ``schedule[i % len(schedule)]`` edges, the final batch truncated):
    the regime-shifting streams the adaptive driver is benchmarked on.

    Supports ``len``, indexing (negative too) and iteration.
    """

    def __init__(
        self,
        edges: EdgeBatch,
        batch_size: int,
        order: Optional[np.ndarray] = None,
        schedule: Optional[Sequence[int]] = None,
    ) -> None:
        if batch_size < 1:
            raise DatasetError(f"batch_size must be >= 1, got {batch_size}")
        if order is not None and len(order) != len(edges):
            raise DatasetError(
                f"permutation length {len(order)} != stream length {len(edges)}"
            )
        self.edges = edges
        self.batch_size = batch_size
        self.order = order
        self.schedule = None
        self._offsets = None
        if schedule is not None:
            self.schedule = _validate_schedule(schedule)
            self._offsets = _schedule_offsets(len(edges), self.schedule)
            self._count = len(self._offsets) - 1
        else:
            self._count = (len(edges) + batch_size - 1) // batch_size

    def __len__(self) -> int:
        return self._count

    @TRACER.layer("batching.gather")
    def __getitem__(self, index: int) -> EdgeBatch:
        if index < 0:
            index += self._count
        if not 0 <= index < self._count:
            raise IndexError(f"batch index {index} out of range")
        if self._offsets is not None:
            start = int(self._offsets[index])
            stop = int(self._offsets[index + 1])
        else:
            start = index * self.batch_size
            stop = min(start + self.batch_size, len(self.edges))
        if self.order is None:
            return self.edges.slice(start, stop)
        take = self.order[start:stop]
        return EdgeBatch(
            src=np.asarray(self.edges.src[take]),
            dst=np.asarray(self.edges.dst[take]),
            weight=np.asarray(self.edges.weight[take]),
        )

    def __iter__(self) -> Iterator[EdgeBatch]:
        for index in range(self._count):
            yield self[index]


@TRACER.layer("batching.make")
def make_batches(
    edges: EdgeBatch,
    batch_size: int,
    shuffle_seed: int = 0,
    shuffle: bool = True,
    schedule: Optional[Sequence[int]] = None,
) -> BatchView:
    """Shuffle ``edges`` and slice the stream into batches, lazily.

    The final batch may be smaller than ``batch_size``; empty streams
    produce an empty view.  The shuffle is the stream's one order:
    ``default_rng(shuffle_seed).permutation``, its positions held as
    :data:`~repro.widths.VERTEX` (a shuffle of the same ``arange``, so
    the same values), gathered per batch; a stream of ``2**31`` edges
    or more is refused before anything is drawn.
    ``schedule`` cycles per-batch sizes instead of the fixed
    ``batch_size`` (the shuffle order is unaffected -- only where the
    batch boundaries fall).
    """
    order = None
    if shuffle and len(edges):
        if len(edges) >= VERTEX_LIMIT:
            raise DatasetError(
                f"a stream of {len(edges)} edges cannot be shuffled: its "
                "positions are int32, so a stream holds fewer than 2**31 edges"
            )
        order = np.arange(len(edges), dtype=VERTEX)
        np.random.default_rng(shuffle_seed).shuffle(order)
    return BatchView(edges, batch_size, order, schedule=schedule)

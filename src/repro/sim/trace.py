"""Memory-access trace recording.

While a data structure executes a phase it may emit the addresses it
touches into a :class:`TraceRecorder`.  Each access is attributed to the
*task* being executed at the time; after the scheduler assigns tasks to
threads, the cache hierarchy replays the trace with per-thread private
caches and a shared LLC.

Tracing is optional: the software-level profiling (Section V of the
paper) runs without a recorder attached, and the architecture-level
profiling (Section VI) attaches one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.errors import SimulationError


@dataclass(frozen=True)
class MemoryTrace:
    """A finalized access trace: parallel arrays of equal length."""

    task_ids: np.ndarray  # int64, which task issued the access
    addresses: np.ndarray  # int64, byte address
    is_write: np.ndarray  # bool

    def __post_init__(self) -> None:
        if not (len(self.task_ids) == len(self.addresses) == len(self.is_write)):
            raise ValueError("trace arrays must have equal length")

    def __len__(self) -> int:
        return len(self.addresses)

    @property
    def write_count(self) -> int:
        return int(self.is_write.sum())

    def sample(self, max_accesses: int, seed: int = 0) -> "MemoryTrace":
        """An order-preserving systematic sample of at most ``max_accesses``.

        Cache statistics on graph traces are dominated by the access
        *mix* rather than exact interleaving, so a strided subsample
        keeps hit-ratio estimates stable while bounding replay cost.
        """
        if max_accesses < 1:
            raise SimulationError(
                f"max_accesses must be >= 1, got {max_accesses}"
            )
        n = len(self)
        if n <= max_accesses:
            return self
        stride = n / max_accesses
        rng = np.random.default_rng(seed)
        offsets = np.floor(np.arange(max_accesses) * stride).astype(np.int64)
        offsets = np.minimum(offsets + rng.integers(0, max(1, int(stride))), n - 1)
        return MemoryTrace(
            task_ids=self.task_ids[offsets],
            addresses=self.addresses[offsets],
            is_write=self.is_write[offsets],
        )


class TraceColumns:
    """Room for a trace's three columns, reused from emission to emission.

    :meth:`reserve` makes room for the next trace (growing at least
    geometrically; what the columns held is not kept) and :meth:`view`
    is a :class:`MemoryTrace` over its first entries.  A view aliases
    the columns: it is valid until the next emission into them.
    """

    def __init__(self, capacity: int) -> None:
        self._allocate(capacity)

    def _allocate(self, capacity: int) -> None:
        self.capacity = capacity
        self.task_ids = np.empty(capacity, dtype=np.int64)
        self.addresses = np.empty(capacity, dtype=np.int64)
        self.is_write = np.empty(capacity, dtype=bool)

    def reserve(self, accesses: int) -> None:
        """Room for ``accesses`` entries."""
        if accesses > self.capacity:
            self._allocate(max(accesses, 2 * self.capacity))

    def view(self, accesses: int) -> MemoryTrace:
        """The first ``accesses`` entries as a trace (not a copy)."""
        return MemoryTrace(
            task_ids=self.task_ids[:accesses],
            addresses=self.addresses[:accesses],
            is_write=self.is_write[:accesses],
        )


def ragged_arange(counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(seg, within)`` of segments laid back to back.

    Segment ``i`` has ``counts[i]`` elements; element ``j`` of the flat
    layout belongs to segment ``seg[j]`` at position ``within[j]``.  The
    Fig. 9/10 compute trace gathers a run's pulled and pushed tasks from
    its vertex log with this, and its numpy reference places every
    task's sections with it.
    """
    seg = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    starts = np.cumsum(counts) - counts
    return seg, np.arange(len(seg), dtype=np.int64) - starts[seg]


class TraceRecorder:
    """Accumulates accesses during a phase; ``finalize`` yields arrays.

    The per-access calls buffer into plain Python lists (append-
    dominated workload); :meth:`extend` takes accesses that already are
    arrays -- a compiled batch ingest's resolved access log.  Either
    way the accesses come out of ``finalize`` in the order they came in.
    """

    #: Hot paths may skip trace emission entirely when False.
    enabled = True

    def __init__(self) -> None:
        self._task_ids: list = []
        self._addresses: list = []
        self._writes: list = []
        #: Accesses already frozen into arrays, oldest first.
        self._chunks: list = []
        self._current_task = 0

    def begin_task(self, task_id: int) -> None:
        """All subsequent accesses are attributed to ``task_id``."""
        self._current_task = task_id

    def access(self, address: int, write: bool = False) -> None:
        """Record one memory access by the current task."""
        self._task_ids.append(self._current_task)
        self._addresses.append(address)
        self._writes.append(write)

    def access_range(self, base: int, count: int, stride: int, write: bool = False) -> None:
        """Record ``count`` accesses at ``base, base+stride, ...`` (stride != 0)."""
        self._task_ids.extend([self._current_task] * count)
        self._addresses.extend(range(base, base + count * stride, stride))
        self._writes.extend([write] * count)

    def extend(self, task_ids: np.ndarray, addresses: np.ndarray,
               is_write: np.ndarray) -> None:
        """Record a run of accesses given as parallel arrays (each its
        own task id; the current task is not consulted)."""
        self._freeze()
        self._chunks.append(
            MemoryTrace(task_ids=task_ids, addresses=addresses, is_write=is_write)
        )

    def _freeze(self) -> None:
        """Move the list buffers, if any, behind the frozen chunks."""
        if self._addresses:
            self._chunks.append(
                MemoryTrace(
                    task_ids=np.asarray(self._task_ids, dtype=np.int64),
                    addresses=np.asarray(self._addresses, dtype=np.int64),
                    is_write=np.asarray(self._writes, dtype=bool),
                )
            )
            self._task_ids, self._addresses, self._writes = [], [], []

    def __len__(self) -> int:
        return len(self._addresses) + sum(len(chunk) for chunk in self._chunks)

    def finalize(self) -> MemoryTrace:
        """Freeze the buffered accesses into a :class:`MemoryTrace`."""
        self._freeze()
        if len(self._chunks) == 1:
            return self._chunks[0]
        chunks = self._chunks or [
            MemoryTrace(
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=bool),
            )
        ]
        return MemoryTrace(
            task_ids=np.concatenate([c.task_ids for c in chunks], dtype=np.int64),
            addresses=np.concatenate([c.addresses for c in chunks], dtype=np.int64),
            is_write=np.concatenate([c.is_write for c in chunks], dtype=bool),
        )


class NullRecorder:
    """A no-op recorder used when tracing is disabled.

    It mimics the :class:`TraceRecorder` interface so structures never
    *need* to branch on "is tracing on"; hot paths may still consult
    :attr:`enabled` to skip address computation entirely.
    """

    enabled = False

    def begin_task(self, task_id: int) -> None:  # noqa: D102 - interface stub
        pass

    def access(self, address: int, write: bool = False) -> None:  # noqa: D102
        pass

    def access_range(self, base: int, count: int, stride: int, write: bool = False) -> None:  # noqa: D102
        pass

    def __len__(self) -> int:
        return 0

    def finalize(self) -> Optional[MemoryTrace]:  # noqa: D102
        return None

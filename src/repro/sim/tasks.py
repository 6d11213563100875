"""Schedulable tasks, stored column-wise.

A *task* is one schedulable unit of simulated work ("insert edge
(u, v)", "evaluate the vertex function of v"), carrying its cycle
costs, the lock it must hold, and the chunk it is pinned to.  A batch
of tasks is a :class:`TaskArray`: a structure of numpy arrays, one
column per field.  The graph structures emit these in bulk and the
schedulers consume them as array kernels; no per-task Python object
exists anywhere.

``TaskArray`` uses the sentinel ``-1`` (:data:`NO_LOCK` /
:data:`NO_CHUNK`) for "no lock" / "no chunk" because the real lock and
chunk namespaces are non-negative.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

#: Column sentinel for "this task takes no lock".
NO_LOCK = -1

#: Column sentinel for "this task is not pinned to a chunk".
NO_CHUNK = -1


class TaskArray:
    """A batch of tasks stored column-wise (structure of arrays).

    Columns are parallel numpy arrays of one dtype each, row ``i``
    describing task ``i``:

    ``unlocked_work`` (float64)
        Cycles executed before any lock is taken (e.g. Stinger's search
        scans, which read edge blocks without locking).
    ``locked_work`` (float64)
        Cycles executed while holding ``lock``.  Zero for lockless
        tasks.
    ``lock`` (int64)
        Identifier of the lock the task must hold for its locked
        portion, :data:`NO_LOCK` for none.  AS uses the source-vertex
        id; Stinger uses a per-edge-block id.
    ``chunk`` (int64)
        For chunked-style structures, the chunk this task is pinned to;
        :data:`NO_CHUNK` when unpinned.
    ``fine_lock`` (bool)
        True when ``lock`` is a fine-grained lock (tiny critical
        section); contended acquires then pay the smaller
        ``fine_lock_contended_penalty``.
    ``overhead`` (bool)
        Fixed per-batch overhead (e.g. chunk routing) rather than
        per-edge work; analysis code may separate the two.

    Slicing returns a :class:`TaskArray` over the sliced columns.
    """

    __slots__ = (
        "unlocked_work",
        "locked_work",
        "lock",
        "chunk",
        "fine_lock",
        "overhead",
    )

    def __init__(
        self,
        unlocked_work: np.ndarray,
        locked_work: np.ndarray,
        lock: np.ndarray,
        chunk: np.ndarray,
        fine_lock: np.ndarray,
        overhead: np.ndarray,
    ) -> None:
        self.unlocked_work = np.asarray(unlocked_work, dtype=np.float64)
        self.locked_work = np.asarray(locked_work, dtype=np.float64)
        self.lock = np.asarray(lock, dtype=np.int64)
        self.chunk = np.asarray(chunk, dtype=np.int64)
        self.fine_lock = np.asarray(fine_lock, dtype=bool)
        self.overhead = np.asarray(overhead, dtype=bool)
        n = len(self.unlocked_work)
        for name in self.__slots__:
            column = getattr(self, name)
            if column.ndim != 1 or len(column) != n:
                raise ValueError(
                    f"column {name!r} must be 1-D of length {n}, "
                    f"got shape {column.shape}"
                )

    # -- constructors --------------------------------------------------

    @classmethod
    def build(
        cls,
        n: int,
        unlocked_work=0.0,
        locked_work=0.0,
        lock=NO_LOCK,
        chunk=NO_CHUNK,
        fine_lock=False,
        overhead=False,
    ) -> "TaskArray":
        """Build an ``n``-task array from columns or broadcast scalars."""

        def column(value, dtype):
            array = np.asarray(value, dtype=dtype)
            if array.ndim == 0:
                return np.full(n, array, dtype=dtype)
            return array

        return cls(
            unlocked_work=column(unlocked_work, np.float64),
            locked_work=column(locked_work, np.float64),
            lock=column(lock, np.int64),
            chunk=column(chunk, np.int64),
            fine_lock=column(fine_lock, bool),
            overhead=column(overhead, bool),
        )

    @classmethod
    def empty(cls) -> "TaskArray":
        return cls.build(0)

    @classmethod
    def concatenate(cls, parts: Iterable["TaskArray"]) -> "TaskArray":
        parts = [p for p in parts if len(p)]
        if not parts:
            return cls.empty()
        if len(parts) == 1:
            return parts[0]
        return cls(
            *(
                np.concatenate([getattr(p, name) for p in parts])
                for name in cls.__slots__
            )
        )

    # -- container protocol --------------------------------------------

    def __len__(self) -> int:
        return len(self.unlocked_work)

    def __bool__(self) -> bool:
        return len(self) > 0

    def __getitem__(self, index: slice) -> "TaskArray":
        return TaskArray(*(getattr(self, name)[index] for name in self.__slots__))

    # -- derived columns ----------------------------------------------

    @property
    def total_work(self) -> np.ndarray:
        """Per-task ``unlocked_work + locked_work`` (float64 column)."""
        return self.unlocked_work + self.locked_work

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        locked = int((self.lock >= 0).sum())
        return f"<TaskArray n={len(self)} locked={locked}>"

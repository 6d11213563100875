"""Shared-memory edge-stream transport for parallel sweeps.

A ``--jobs`` sweep used to hand each worker nothing but a dataset
*name*: every worker regenerated the full edge stream, burning CPU and
holding one private copy per process.  :class:`SharedEdgeStream`
instead publishes the stream once, in a single POSIX shared-memory
segment laid out as three back-to-back int64/int64/float64 columns,
and workers attach zero-copy views.

Lifecycle contract (CPython 3.11, where ``SharedMemory`` has no
``track`` switch):

* the **parent** owns the segment: it publishes before the pool starts
  and closes + unlinks after the pool is done, whatever the workers did
  -- a crashed worker cannot leak or tear down the segment;
* **workers** attach through a per-process cache that (a) maps the
  segment directly, bypassing the resource tracker, so a worker
  exiting does not unlink a segment it does not own, and (b) keeps the
  mapping referenced for the process lifetime, so numpy views never
  outlive their buffer.

Transport is invisible to results and fingerprints: an attached batch
is bit-identical to the generated one, so shm runs share RunStore
entries with in-RAM runs.  On a platform without POSIX shared memory
(:func:`shm_enabled` false) sweeps regenerate the stream per worker and
sharded runs replay in-process.
"""

from __future__ import annotations

import mmap
import os
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, Tuple

try:  # CPython's POSIX shm primitive (what SharedMemory itself uses).
    import _posixshmem
except ImportError:  # pragma: no cover - non-POSIX platforms
    _posixshmem = None

import numpy as np

from repro.graph.edge import EdgeBatch
from repro.obs.metrics import METRICS

#: Column layout inside a segment: (attribute, dtype), back to back.
_LAYOUT: Tuple[Tuple[str, str], ...] = (
    ("src", "<i8"),
    ("dst", "<i8"),
    ("weight", "<f8"),
)


def shm_enabled() -> bool:
    """Whether this platform has POSIX shared memory to attach through."""
    return _posixshmem is not None


@dataclass(frozen=True)
class SharedStreamHandle:
    """Picklable descriptor a worker needs to attach a published stream."""

    name: str
    edges: int


def _views(buffer, edges: int) -> Dict[str, np.ndarray]:
    """The three column views over a segment buffer."""
    views: Dict[str, np.ndarray] = {}
    offset = 0
    for attr, dtype in _LAYOUT:
        nbytes = edges * np.dtype(dtype).itemsize
        views[attr] = np.frombuffer(buffer, dtype=dtype, count=edges,
                                    offset=offset)
        offset += nbytes
    return views


def _segment_bytes(edges: int) -> int:
    return sum(edges * np.dtype(dtype).itemsize for _, dtype in _LAYOUT)


class SharedEdgeStream:
    """A parent-owned edge stream published in one shm segment."""

    def __init__(self, shm: shared_memory.SharedMemory, edges: int) -> None:
        self._shm = shm
        self._edges = edges
        self._unlinked = False

    @classmethod
    def publish(cls, batch: EdgeBatch) -> "SharedEdgeStream":
        """Copy ``batch`` into a fresh shm segment (parent side)."""
        # SharedMemory rejects size 0; keep one byte for empty streams.
        size = max(_segment_bytes(len(batch)), 1)
        shm = shared_memory.SharedMemory(create=True, size=size)
        views = _views(shm.buf, len(batch))
        views["src"][:] = batch.src
        views["dst"][:] = batch.dst
        views["weight"][:] = batch.weight
        if METRICS.enabled:
            METRICS.gauge(
                "shm_segments_active",
                "edge-stream shared-memory segments currently published",
            ).set(_active_count(+1))
        return cls(shm, len(batch))

    @property
    def handle(self) -> SharedStreamHandle:
        return SharedStreamHandle(name=self._shm.name, edges=self._edges)

    @property
    def batch(self) -> EdgeBatch:
        """Zero-copy view of the published stream (parent side)."""
        views = _views(self._shm.buf, self._edges)
        return EdgeBatch(src=views["src"], dst=views["dst"],
                         weight=views["weight"])

    def close(self) -> None:
        """Drop the parent's mapping (workers' mappings unaffected)."""
        self._shm.close()

    def unlink(self) -> None:
        """Remove the segment from the system (parent side, once)."""
        if self._unlinked:
            return
        self._unlinked = True
        # Re-register before unlinking: if a fallback-path worker (see
        # :func:`_map_segment`) shared this process's resource tracker
        # and unregistered the segment, unlink()'s own unregister would
        # make the tracker log a KeyError.  Registration is a set add,
        # so this is a no-op when the entry is still present.
        try:
            resource_tracker.register(self._shm._name, "shared_memory")
        except Exception:
            pass
        self._shm.unlink()
        if METRICS.enabled:
            METRICS.gauge(
                "shm_segments_active",
                "edge-stream shared-memory segments currently published",
            ).set(_active_count(-1))


#: Parent-side count of live published segments (drives the gauge).
_ACTIVE = 0


def _active_count(delta: int) -> int:
    global _ACTIVE
    _ACTIVE = max(_ACTIVE + delta, 0)
    return _ACTIVE


#: Worker-side cache: segment name -> (buffer owner, EdgeBatch).  The
#: owner (an ``mmap``) must stay referenced as long as any numpy view of
#: its buffer might -- entries therefore live for the process.
_ATTACHED: Dict[str, Tuple[object, EdgeBatch]] = {}


def _map_segment(name: str):
    """Map an existing segment without involving the resource tracker.

    CPython < 3.13 registers even mere *attachments* with the resource
    tracker, so a worker exit would unlink a segment the parent still
    owns (spawn), and explicitly unregistering instead races other
    workers' unregisters under fork, where all children share one
    tracker.  Mapping the POSIX segment directly -- the same two
    syscalls ``SharedMemory`` performs -- sidesteps the tracker
    entirely: the parent's create-time registration is the only one
    that ever exists, and its unlink balances it.  Callers publish only
    where :func:`shm_enabled`, so ``_posixshmem`` is there.
    """
    fd = _posixshmem.shm_open("/" + name.lstrip("/"), os.O_RDWR, mode=0o600)
    try:
        return mmap.mmap(fd, 0)
    finally:
        os.close(fd)


def attach(handle: SharedStreamHandle) -> EdgeBatch:
    """Attach to a published stream (worker side), cached per process.

    The parent owns unlinking: attaching never registers with this
    process's resource tracker (see :func:`_map_segment`), so a worker
    exit -- clean or crashed -- cannot tear the segment down under its
    siblings.
    """
    cached = _ATTACHED.get(handle.name)
    if cached is not None:
        return cached[1]
    owner = _map_segment(handle.name)
    views = _views(owner, handle.edges)
    batch = EdgeBatch(src=views["src"], dst=views["dst"],
                      weight=views["weight"])
    _ATTACHED[handle.name] = (owner, batch)
    return batch


def detach_all() -> None:
    """Drop every cached attachment (test hook; not used on hot paths).

    Callers must ensure no numpy views of the segments are still alive,
    or ``close`` raises ``BufferError``.
    """
    while _ATTACHED:
        _, (owner, batch) = _ATTACHED.popitem()
        del batch  # release the numpy views before closing the buffer
        owner.close()

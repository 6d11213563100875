"""Memory-mapped edge-stream storage (the out-of-core data plane).

The paper streams up to 500M RMAT edges; holding such a stream as
in-RAM Python objects is what capped this reproduction ~1000x below
that.  This module stores an edge stream as three flat binary columns
on disk --

::

    <dir>/meta.json    {"version", "edges", "columns", "source"}
    <dir>/src.bin      edges x int64, little-endian
    <dir>/dst.bin      edges x int64
    <dir>/weight.bin   edges x float64

-- written append-only by :class:`EdgeStreamWriter` (so generators and
parsers never materialize more than one chunk) and re-opened zero-copy
by :func:`open_edge_mmap` as ``np.memmap``-backed
:class:`~repro.graph.edge.EdgeBatch` arrays.  The OS page cache is the
only "loader": touching a batch faults in exactly the pages the batch's
permutation indices cover.

The ``source`` record in ``meta.json`` is the generator recipe (e.g.
the RMAT parameters) -- the *content identity* of the stream.  It is
what lets mmap-backed and in-RAM runs share RunStore fingerprints:
transport is not part of the key, the recipe is.  Every ad-hoc stream
(R-MAT chunks, a SNAP parse) goes through :func:`materialize`, the one
place that checks a recipe and chooses RAM or a directory, so the
transport cannot change a stream's bytes.

A stream directory is also how a pool worker receives a stream:
:func:`stream_directory` spills the stream into a temporary one for
the duration of the pool, and each worker opens it with
:func:`open_edge_mmap`.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, Optional, Tuple, Union

import numpy as np

from repro.errors import DatasetError
from repro.graph.edge import EdgeBatch
from repro.obs.metrics import METRICS

#: Version of the on-disk layout; bumped on incompatible change.
MMAP_LAYOUT_VERSION = 1

#: Metadata file name inside a stream directory.
META_FILE = "meta.json"

#: The three columns of a stream, with their fixed little-endian dtypes.
COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("src", "<i8"),
    ("dst", "<i8"),
    ("weight", "<f8"),
)


def _column_path(directory: Path, name: str) -> Path:
    return directory / f"{name}.bin"


class EdgeStreamWriter:
    """Append-only writer of one mmap edge-stream directory.

    Chunks are appended with :meth:`append` (each chunk is flushed
    straight to the column files, so peak memory is one chunk) and the
    stream is finalized with :meth:`close`, which writes ``meta.json``
    last -- a directory without a valid meta file is an unfinished
    write and is rejected by :func:`open_edge_mmap`.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        meta = self.directory / META_FILE
        if meta.exists():
            meta.unlink()
        self._handles = {
            name: open(_column_path(self.directory, name), "wb")
            for name, _ in COLUMNS
        }
        self._edges = 0
        self._closed = False

    def append(
        self, src: np.ndarray, dst: np.ndarray, weight: np.ndarray
    ) -> None:
        """Append one chunk of parallel (src, dst, weight) arrays."""
        if self._closed:
            raise DatasetError("cannot append to a closed EdgeStreamWriter")
        if not (len(src) == len(dst) == len(weight)):
            raise DatasetError("edge stream chunk arrays must have equal length")
        for (name, dtype), column in zip(COLUMNS, (src, dst, weight)):
            np.ascontiguousarray(column, dtype=dtype).tofile(self._handles[name])
        self._edges += len(src)

    def close(self, source: Optional[dict] = None) -> Path:
        """Flush, write ``meta.json``, and return the stream directory.

        ``source`` records the stream's content identity (generator
        recipe or input-file description); it is stored verbatim and
        surfaced by :func:`mmap_source` for fingerprinting.
        """
        if self._closed:
            return self.directory
        for handle in self._handles.values():
            handle.close()
        meta = {
            "version": MMAP_LAYOUT_VERSION,
            "edges": self._edges,
            "columns": {name: dtype for name, dtype in COLUMNS},
            "source": source,
        }
        (self.directory / META_FILE).write_text(
            json.dumps(meta, sort_keys=True, indent=1) + "\n"
        )
        self._closed = True
        return self.directory

    def abort(self) -> None:
        """Close handles without writing meta (leaves dir unfinished)."""
        if not self._closed:
            for handle in self._handles.values():
                handle.close()
            self._closed = True

    def __enter__(self) -> "EdgeStreamWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()


def write_edge_mmap(
    directory: Union[str, Path],
    batch_or_chunks: Union[EdgeBatch, Iterable[EdgeBatch]],
    source: Optional[dict] = None,
) -> Path:
    """Write a batch (or an iterable of chunk batches) as a stream dir."""
    chunks: Iterable[EdgeBatch]
    if isinstance(batch_or_chunks, EdgeBatch):
        chunks = (batch_or_chunks,)
    else:
        chunks = batch_or_chunks
    with EdgeStreamWriter(directory) as writer:
        for chunk in chunks:
            writer.append(chunk.src, chunk.dst, chunk.weight)
        return writer.close(source=source)


def read_meta(directory: Union[str, Path]) -> dict:
    """The validated ``meta.json`` of a stream directory."""
    directory = Path(directory)
    meta_path = directory / META_FILE
    if not directory.exists():
        raise DatasetError(f"edge stream directory not found: {directory}")
    if not meta_path.exists():
        raise DatasetError(
            f"no {META_FILE} in {directory}: not an edge stream "
            f"(or an unfinished write)"
        )
    try:
        meta = json.loads(meta_path.read_text())
    except (ValueError, OSError) as error:
        raise DatasetError(f"corrupt {meta_path}: {error}") from error
    version = meta.get("version")
    if version != MMAP_LAYOUT_VERSION:
        raise DatasetError(
            f"unsupported edge stream layout version {version!r} in "
            f"{directory} (this build reads version {MMAP_LAYOUT_VERSION})"
        )
    edges = meta.get("edges")
    if not isinstance(edges, int) or edges < 0:
        raise DatasetError(f"invalid edge count {edges!r} in {meta_path}")
    return meta


def mmap_source(directory: Union[str, Path]) -> Optional[dict]:
    """The recorded content-identity recipe of a stream, if any."""
    return read_meta(directory).get("source")


def set_source(directory: Union[str, Path], source: Optional[dict]) -> None:
    """Replace the recorded recipe of a finished stream directory.

    Used by :func:`materialize` after a post-pass over the appended
    columns (the SNAP relabel and weights): the recipe is attached only
    once the content actually matches it, so an interrupted post-pass
    can never be mistaken for a finished stream on reuse.
    """
    directory = Path(directory)
    meta = read_meta(directory)
    meta["source"] = source
    (directory / META_FILE).write_text(
        json.dumps(meta, sort_keys=True, indent=1) + "\n"
    )


def open_edge_mmap(
    directory: Union[str, Path], mode: str = "r"
) -> EdgeBatch:
    """Open a stream directory as a zero-copy mmap-backed EdgeBatch.

    Column files are validated against the meta record: a missing or
    short (truncated) file raises :class:`~repro.errors.DatasetError`
    instead of returning silently-garbled arrays.  The mapped byte
    total is recorded in the ``stream_bytes_mapped`` metric.
    """
    directory = Path(directory)
    meta = read_meta(directory)
    edges = meta["edges"]
    arrays: Dict[str, np.ndarray] = {}
    total_bytes = 0
    for name, dtype in COLUMNS:
        recorded = meta["columns"].get(name)
        if recorded != dtype:
            raise DatasetError(
                f"column {name!r} in {directory} has dtype {recorded!r}, "
                f"expected {dtype!r}"
            )
        path = _column_path(directory, name)
        if not path.exists():
            raise DatasetError(f"missing column file {path}")
        expected = edges * np.dtype(dtype).itemsize
        actual = path.stat().st_size
        if actual < expected:
            raise DatasetError(
                f"truncated column file {path}: {actual} bytes for "
                f"{edges} edges (expected {expected})"
            )
        if edges == 0:
            arrays[name] = np.empty(0, dtype=dtype)
        else:
            arrays[name] = np.memmap(
                path, dtype=dtype, mode=mode, shape=(edges,)
            )
        total_bytes += expected
    if METRICS.enabled:
        METRICS.counter(
            "stream_bytes_mapped",
            "bytes of edge-stream columns memory-mapped",
        ).inc(total_bytes)
    return EdgeBatch(
        src=arrays["src"], dst=arrays["dst"], weight=arrays["weight"]
    )


def materialize(
    chunks: Iterable[EdgeBatch],
    source: dict,
    directory: Optional[Union[str, Path]] = None,
    finish: Optional[Callable[[EdgeBatch], None]] = None,
) -> EdgeBatch:
    """The stream ``chunks`` make, in RAM or in a stream directory.

    Without ``directory`` the chunks are concatenated.  With one, a
    directory whose recorded recipe equals ``source`` is opened as it
    is and ``chunks`` is never drawn; any other (absent, unreadable,
    unfinished, another recipe) is rewritten from ``chunks``, one chunk
    in RAM at a time.  ``finish`` post-processes a fresh stream's
    columns in place -- RAM arrays, or writable memmaps that are then
    flushed -- and the recipe is attached only after it returns, so an
    interrupted post-pass is a miss on the next call.
    """
    if directory is None:
        parts = [EdgeBatch.empty(), *chunks]
        edges = EdgeBatch(
            *(np.concatenate([getattr(p, name) for p in parts])
              for name, _ in COLUMNS)
        )
        if finish is not None:
            finish(edges)
        return edges
    directory = Path(directory)
    try:
        if mmap_source(directory) == source:
            return open_edge_mmap(directory)
    except DatasetError:
        pass  # absent or unreadable stream: rewrite it below
    write_edge_mmap(directory, chunks, source=None if finish else source)
    if finish is not None:
        edges = open_edge_mmap(directory, mode="r+")
        finish(edges)
        for name, _ in COLUMNS:
            column = getattr(edges, name)
            if isinstance(column, np.memmap):
                column.flush()
        set_source(directory, source)
    return open_edge_mmap(directory)


@contextmanager
def stream_directory(edges: EdgeBatch) -> Iterator[Path]:
    """A stream directory holding ``edges``, for pool workers to open.

    The stream is written once into a private ``saga_stream-*``
    temporary directory, which is removed on exit -- also when the
    body raised or a worker died.
    """
    spill = Path(tempfile.mkdtemp(prefix="saga_stream-"))
    try:
        write_edge_mmap(spill, edges)
        yield spill
    finally:
        shutil.rmtree(spill, ignore_errors=True)

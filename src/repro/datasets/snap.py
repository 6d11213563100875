"""Loader for SNAP edge-list files.

The paper's four real datasets come from the SNAP collection
(https://snap.stanford.edu/data): whitespace-separated ``src dst``
pairs, ``#``-prefixed comment lines.  Users who have the real files can
stream them through the benchmark instead of the synthetic stand-ins.

The parser works in bounded chunks that land directly in preallocated
numpy buffers -- no intermediate Python lists -- and hands them to
:func:`repro.datasets.mmapio.materialize`, which holds the stream in
RAM or in a memory-mapped directory (``mmap_dir``, so a paper-scale
file never materializes in RAM).  One post-pass then runs over the
returned columns in either transport: the weights from one
``default_rng(weight_seed)`` stream drawn chunk by chunk.  A relabelled
parse reads the file twice: once to gather the sorted vertex-id table,
then again to hand over chunks already compacted against it, so a raw
id past the ``int32`` range never reaches a stream column.
"""

from __future__ import annotations

import gzip
import hashlib
from pathlib import Path
from typing import Iterator, Optional, Tuple, Union

import numpy as np

from repro.datasets.mmapio import materialize
from repro.errors import DatasetError
from repro.graph.edge import EdgeBatch
from repro.widths import WEIGHT, vertex_column

#: Edges per parse chunk, and per piece of the weight post-pass: the
#: most a parse into a stream directory holds in RAM.
#: Not part of a stream's identity -- any chunking gives the same bytes.
DEFAULT_SNAP_CHUNK = 1 << 20


def _iter_snap_chunks(
    path: Path, chunk_edges: int, limit: Optional[int]
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Yield ``(src, dst)`` int64 chunk arrays parsed from ``path``.

    Each yielded pair is freshly allocated (safe to keep); the parse
    itself fills one reused preallocated buffer per column, so peak
    memory is one chunk no matter the file size.  A file without an
    edge raises once the parse is done.
    """
    opener = gzip.open if path.suffix == ".gz" else open
    src_buf = np.empty(chunk_edges, dtype=np.int64)
    dst_buf = np.empty(chunk_edges, dtype=np.int64)
    fill = 0
    total = 0
    with opener(path, "rt") as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) < 2:
                raise DatasetError(f"malformed SNAP line: {line!r}")
            try:
                src_buf[fill] = int(parts[0])
                dst_buf[fill] = int(parts[1])
            except ValueError as error:
                raise DatasetError(
                    f"malformed SNAP line: {line!r} ({error})"
                ) from error
            fill += 1
            total += 1
            if fill == chunk_edges:
                yield src_buf[:fill].copy(), dst_buf[:fill].copy()
                fill = 0
            if limit is not None and total >= limit:
                break
    if fill:
        yield src_buf[:fill].copy(), dst_buf[:fill].copy()
    if not total:
        raise DatasetError(f"no edges found in {path}")


def _sha256(path: Path) -> str:
    """Hex sha256 of the file's bytes, in one streaming read."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def snap_recipe(
    path: Path,
    max_weight: int,
    weight_seed: int,
    relabel: bool,
    limit: Optional[int],
) -> dict:
    """Content-identity recipe of a parsed SNAP stream (for mmap meta).

    The file is named by its bytes (``sha256``), not only its path and
    size: an edit that keeps the size is another stream.
    """
    return {
        "kind": "snap",
        "path": str(path),
        "bytes": path.stat().st_size,
        "sha256": _sha256(path),
        "max_weight": max_weight,
        "weight_seed": weight_seed,
        "relabel": relabel,
        "limit": limit,
    }


def load_snap_edges(
    path: Union[str, Path],
    max_weight: int = 8,
    weight_seed: int = 0,
    relabel: bool = True,
    limit: Optional[int] = None,
    mmap_dir: Optional[Union[str, Path]] = None,
) -> EdgeBatch:
    """Parse a SNAP edge list (optionally gzipped) into an EdgeBatch.

    SNAP graphs are unweighted; weights are drawn uniformly from
    ``[1, max_weight]`` (deterministically from ``weight_seed``) so the
    weighted algorithms (SSSP, SSWP) have something to chew on.  With
    ``relabel``, vertex ids are compacted to ``0..V-1`` (sorted order).
    ``limit`` truncates to the first N edges.  Raw ids are parsed as
    ``int64``: relabelled, any non-negative id is accepted as long as
    fewer than ``2**31`` distinct ones occur; without ``relabel`` an id
    outside ``[0, 2**31)`` raises :class:`DatasetError` in both
    transports.

    With ``mmap_dir`` the parsed stream is written to a memory-mapped
    directory and the returned batch is a zero-copy view of it; a
    directory already holding a stream with the same recipe (file
    bytes and parse options) is reused without re-parsing.  Either
    way the stream has the same bytes.
    """
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"SNAP file not found: {path}")
    chunk = DEFAULT_SNAP_CHUNK

    def parse():
        ids = np.empty(0, dtype=np.int64)
        if relabel:
            for src, dst in _iter_snap_chunks(path, chunk, limit):
                ids = np.union1d(ids, np.union1d(src, dst))
        for src, dst in _iter_snap_chunks(path, chunk, limit):
            if relabel:
                # An id's rank in the sorted id table is its label.
                src, dst = np.searchsorted(ids, src), np.searchsorted(ids, dst)
            yield EdgeBatch(
                src=vertex_column(src, low=0),
                dst=vertex_column(dst, low=0),
                weight=np.zeros(len(src), dtype=WEIGHT),
            )

    def finish(edges: EdgeBatch) -> None:
        # One rng's draws do not depend on how they are split, so every
        # piece size gives the same bytes.
        rng = np.random.default_rng(weight_seed)
        for start in range(0, len(edges), chunk):
            stop = min(start + chunk, len(edges))
            edges.weight[start:stop] = rng.integers(
                1, max_weight + 1, size=stop - start
            )

    recipe = snap_recipe(path, max_weight, weight_seed, relabel, limit)
    return materialize(parse(), recipe, mmap_dir, finish)

"""R-MAT recursive-matrix graph generator (Chakrabarti et al., 2004).

The paper's RMAT dataset uses parameters a=0.55, b=0.15, c=0.15,
d=0.25 (Section IV-C).  Each edge picks one quadrant of the adjacency
matrix per bit of the vertex id, recursively:

    +-------+-------+
    |   a   |   b   |     a: (0, 0)   b: (0, 1)
    +-------+-------+
    |   c   |   d   |     c: (1, 0)   d: (1, 1)
    +-------+-------+

The implementation is fully vectorized: one random draw per (edge,
bit).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import DatasetError
from repro.graph.edge import EdgeBatch

#: The paper's R-MAT parameters.
PAPER_RMAT_PARAMS = (0.55, 0.15, 0.15, 0.25)

#: Edges per chunk of an ad-hoc stream (``make_rmat_dataset``, the
#: default of ``repro scale --chunk-edges``): the most one generation
#: step holds in RAM, and part of the stream's identity.
DEFAULT_RMAT_CHUNK = 1_000_000


def rmat_edges(
    scale: int,
    num_edges: int,
    a: float = 0.55,
    b: float = 0.15,
    c: float = 0.15,
    d: float = 0.25,
    seed: int = 0,
    max_weight: int = 8,
    allow_self_loops: bool = False,
) -> EdgeBatch:
    """Generate ``num_edges`` R-MAT edges over ``2**scale`` vertices.

    Weights are uniform integers in ``[1, max_weight]``.  Self-loops
    are re-targeted to the next vertex unless ``allow_self_loops``.

    The quadrant probabilities are normalized by their sum: the paper's
    stated parameters (0.55, 0.15, 0.15, 0.25) add up to 1.10 -- an
    apparent typo -- so we follow the stated ratios rather than reject
    them.
    """
    if scale < 1 or scale > 30:
        raise DatasetError(f"scale must be in [1, 30], got {scale}")
    if num_edges < 1:
        raise DatasetError(f"num_edges must be >= 1, got {num_edges}")
    total = a + b + c + d
    if total <= 0 or min(a, b, c, d) < 0:
        raise DatasetError(f"RMAT parameters must be non-negative, got {(a, b, c, d)}")
    a, b, c, d = a / total, b / total, c / total, d / total
    rng = np.random.default_rng(seed)
    src = np.zeros(num_edges, dtype=np.int64)
    dst = np.zeros(num_edges, dtype=np.int64)
    thresholds = np.cumsum([a, b, c])
    for _ in range(scale):
        draw = rng.random(num_edges)
        quadrant = np.searchsorted(thresholds, draw)
        src = (src << 1) | (quadrant >> 1)
        dst = (dst << 1) | (quadrant & 1)
    if not allow_self_loops:
        loops = src == dst
        dst[loops] = (dst[loops] + 1) % (1 << scale)
    weight = rng.integers(1, max_weight + 1, size=num_edges).astype(np.float64)
    return EdgeBatch(src=src, dst=dst, weight=weight)


def rmat_edge_chunks(
    scale: int,
    num_edges: int,
    a: float = 0.55,
    b: float = 0.15,
    c: float = 0.15,
    d: float = 0.25,
    seed: int = 0,
    max_weight: int = 8,
    allow_self_loops: bool = False,
    chunk_edges: int = DEFAULT_RMAT_CHUNK,
) -> Iterator[EdgeBatch]:
    """Generate an R-MAT stream one bounded chunk at a time.

    Chunk ``i`` is drawn from ``default_rng([seed, i])``, so the stream
    is a deterministic function of ``(seed, chunk_edges)`` and any
    chunk can be regenerated independently.  Peak memory is one chunk
    regardless of ``num_edges``, which is what lets the data plane
    write paper-scale streams straight to mmap.

    Note a chunked stream is *not* the same edge sequence as one
    ``rmat_edges`` call with the same seed (the rng is consumed per
    chunk); ``chunk_edges`` is therefore part of the stream's identity
    and is recorded in the mmap recipe.
    """
    if chunk_edges < 1:
        raise DatasetError(f"chunk_edges must be >= 1, got {chunk_edges}")
    if num_edges < 1:
        raise DatasetError(f"num_edges must be >= 1, got {num_edges}")
    produced = 0
    index = 0
    while produced < num_edges:
        count = min(chunk_edges, num_edges - produced)
        yield rmat_edges(
            scale=scale,
            num_edges=count,
            a=a,
            b=b,
            c=c,
            d=d,
            seed=[seed, index],
            max_weight=max_weight,
            allow_self_loops=allow_self_loops,
        )
        produced += count
        index += 1


def rmat_recipe(
    scale: int,
    num_edges: int,
    a: float = 0.55,
    b: float = 0.15,
    c: float = 0.15,
    d: float = 0.25,
    seed: int = 0,
    max_weight: int = 8,
    allow_self_loops: bool = False,
    chunk_edges: int = DEFAULT_RMAT_CHUNK,
) -> dict:
    """The content-identity recipe of an R-MAT stream (for mmap meta)."""
    return {
        "kind": "rmat",
        "scale": scale,
        "num_edges": num_edges,
        "params": [a, b, c, d],
        "seed": seed,
        "max_weight": max_weight,
        "allow_self_loops": allow_self_loops,
        "chunk_edges": chunk_edges,
    }

"""R-MAT recursive-matrix graph generator (Chakrabarti et al., 2004).

The paper's RMAT dataset uses parameters a=0.55, b=0.15, c=0.15,
d=0.25 (Section IV-C).  Each edge picks one quadrant of the adjacency
matrix per bit of the vertex id, recursively:

    +-------+-------+
    |   a   |   b   |     a: (0, 0)   b: (0, 1)
    +-------+-------+
    |   c   |   d   |     c: (1, 0)   d: (1, 1)
    +-------+-------+

The implementation is fully vectorized: one uniform draw per (edge,
bit), made into one reused buffer.  The draw ``u`` picks the quadrant
whose cumulative-probability interval holds it, with the thresholds
``t0 = a``, ``t1 = a + b``, ``t2 = a + b + c``: the quadrant index is
the number of thresholds strictly below ``u`` (``np.searchsorted``'s
left side, ties included).  Its two bits follow by comparison alone --
the source bit is ``u > t1`` and the destination bit is the parity
``(u > t0) ^ (u > t1) ^ (u > t2)`` -- and are shifted into the id
columns in place.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import DatasetError
from repro.graph.edge import EdgeBatch

#: The paper's R-MAT parameters (a, b, c, d).
PAPER_RMAT_PARAMS = (0.55, 0.15, 0.15, 0.25)

#: Edge weights are uniform integers in ``[1, MAX_WEIGHT]``.
MAX_WEIGHT = 8

#: Edges per chunk of an ad-hoc stream (``make_rmat_dataset``, the
#: default of ``repro scale --chunk-edges``): the most one generation
#: step holds in RAM, and part of the stream's identity.
DEFAULT_RMAT_CHUNK = 1_000_000


def rmat_edges(scale: int, num_edges: int, seed: int = 0) -> EdgeBatch:
    """Generate ``num_edges`` R-MAT edges over ``2**scale`` vertices.

    The quadrant probabilities are :data:`PAPER_RMAT_PARAMS` normalized
    by their sum: the paper's stated parameters add up to 1.10 -- an
    apparent typo -- so we follow the stated ratios.  Weights are
    uniform integers in ``[1, MAX_WEIGHT]``; a self-loop is re-targeted
    to the next vertex.
    """
    if scale < 1 or scale > 30:
        raise DatasetError(f"scale must be in [1, 30], got {scale}")
    if num_edges < 1:
        raise DatasetError(f"num_edges must be >= 1, got {num_edges}")
    a, b, c, d = PAPER_RMAT_PARAMS
    total = a + b + c + d
    rng = np.random.default_rng(seed)
    src = np.zeros(num_edges, dtype=np.int64)
    dst = np.zeros(num_edges, dtype=np.int64)
    t0, t1, t2 = np.cumsum([a / total, b / total, c / total]).tolist()
    draw = np.empty(num_edges)
    bit = np.empty(num_edges, dtype=bool)
    above = np.empty(num_edges, dtype=bool)
    for _ in range(scale):
        rng.random(out=draw)
        np.greater(draw, t1, out=bit)
        src <<= 1
        src |= bit
        np.greater(draw, t0, out=above)
        bit ^= above
        np.greater(draw, t2, out=above)
        bit ^= above
        dst <<= 1
        dst |= bit
    loops = src == dst
    dst[loops] = (dst[loops] + 1) % (1 << scale)
    weight = rng.integers(1, MAX_WEIGHT + 1, size=num_edges).astype(np.float64)
    return EdgeBatch(src=src, dst=dst, weight=weight)


def rmat_edge_chunks(
    scale: int,
    num_edges: int,
    seed: int = 0,
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
        yield rmat_edges(scale=scale, num_edges=count, seed=[seed, index])
        produced += count
        index += 1


def rmat_recipe(
    scale: int,
    num_edges: int,
    seed: int = 0,
    chunk_edges: int = DEFAULT_RMAT_CHUNK,
) -> dict:
    """The content-identity recipe of an R-MAT stream (for mmap meta)."""
    return {
        "kind": "rmat",
        "scale": scale,
        "num_edges": num_edges,
        "params": list(PAPER_RMAT_PARAMS),
        "seed": seed,
        "max_weight": MAX_WEIGHT,
        "allow_self_loops": False,
        "chunk_edges": chunk_edges,
    }

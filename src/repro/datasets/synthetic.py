"""Calibrated power-law graph generators.

The paper's data-structure findings are driven by one structural
variable: the share of a batch's edges concentrated on the hottest
vertex (Table IV; "short-tailed" vs "heavy-tailed").  Because batches
are random shuffles of the whole stream, a vertex's expected share of
any batch equals its share of the full edge list -- so a stand-in graph
only needs the right *per-node edge shares*.

:func:`power_law_edges` samples edge endpoints from truncated power
laws ``p_i ~ (i + 1) ** -alpha`` whose exponents are calibrated with
:func:`calibrate_alpha` so the hottest vertex's share matches the real
dataset's (e.g. wiki-Talk's hottest source emits 2.0% of all edges;
LiveJournal's hottest emits 0.03%).
"""

from __future__ import annotations

import numpy as np

from repro.errors import DatasetError
from repro.graph.edge import EdgeBatch
from repro.widths import VERTEX, WEIGHT


def _top_share(alpha: float, num_nodes: int) -> float:
    """Share of probability mass on rank-0 under ``(i+1)^-alpha``."""
    weights = np.power(np.arange(1, num_nodes + 1, dtype=np.float64), -alpha)
    return float(weights[0] / weights.sum())


def calibrate_alpha(
    num_nodes: int,
    target_top_share: float,
    tolerance: float = 1e-4,
    max_iterations: int = 100,
) -> float:
    """Power-law exponent giving the hottest node ``target_top_share``.

    Bisects ``alpha`` in [0, 4]; ``alpha = 0`` is uniform (top share
    ``1/num_nodes``), larger exponents concentrate mass on the head.
    """
    if num_nodes < 2:
        raise DatasetError("calibration needs at least 2 nodes")
    uniform = 1.0 / num_nodes
    if target_top_share <= uniform:
        return 0.0
    if target_top_share >= 1.0:
        raise DatasetError(f"target share {target_top_share} must be < 1")
    low, high = 0.0, 4.0
    if _top_share(high, num_nodes) < target_top_share:
        raise DatasetError(
            f"target share {target_top_share} unreachable with alpha <= {high}"
        )
    for _ in range(max_iterations):
        mid = (low + high) / 2.0
        share = _top_share(mid, num_nodes)
        if abs(share - target_top_share) <= tolerance * target_top_share:
            return mid
        if share < target_top_share:
            low = mid
        else:
            high = mid
    return (low + high) / 2.0


def power_law_edges(
    num_nodes: int,
    num_edges: int,
    alpha_out: float,
    alpha_in: float,
    seed: int = 0,
    max_weight: int = 8,
) -> EdgeBatch:
    """Sample edges with power-law out- and in-degree distributions.

    Sources are drawn from ``(rank+1)^-alpha_out`` and destinations
    independently from ``(rank+1)^-alpha_in``.  The two rankings are
    decorrelated by a random vertex permutation per side, so the
    hottest source and hottest destination are (almost surely)
    different vertices -- as in wiki-Talk, where the top talker and the
    top talked-to differ.  Self-loops are re-drawn.
    """
    if num_nodes < 2:
        raise DatasetError(f"num_nodes must be >= 2, got {num_nodes}")
    if num_edges < 1:
        raise DatasetError(f"num_edges must be >= 1, got {num_edges}")
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, num_nodes + 1, dtype=np.float64)

    def side_distribution(alpha: float):
        weights = np.power(ranks, -alpha)
        probabilities = weights / weights.sum()
        permutation = rng.permutation(num_nodes)
        return probabilities, permutation

    p_out, perm_out = side_distribution(alpha_out)
    p_in, perm_in = side_distribution(alpha_in)

    src = perm_out[rng.choice(num_nodes, size=num_edges, p=p_out)]
    dst = perm_in[rng.choice(num_nodes, size=num_edges, p=p_in)]
    # Re-draw self-loops (a handful at most).
    for _ in range(100):
        loops = src == dst
        count = int(loops.sum())
        if not count:
            break
        dst[loops] = perm_in[rng.choice(num_nodes, size=count, p=p_in)]
    else:
        dst[src == dst] = (dst[src == dst] + 1) % num_nodes
    weight = rng.integers(1, max_weight + 1, size=num_edges).astype(WEIGHT)
    return EdgeBatch(src=src.astype(VERTEX), dst=dst.astype(VERTEX), weight=weight)

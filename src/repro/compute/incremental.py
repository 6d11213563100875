"""The incremental compute engine: Algorithm 1 of the paper.

One generic engine implements both of the paper's incremental
techniques for every algorithm:

- **Processing amortization** -- the run starts from the caller's
  ``values`` array (the previous batch's results); only vertices that
  appeared for the first time get fresh initial values.
- **Selective triggering** -- the first parallel pass re-evaluates only
  the vertices flagged *affected* by the latest update; a vertex whose
  value changed by more than the triggering threshold pushes its
  out-neighbors onto the next queue (guarded by a CAS on the visited
  bitvector), and rounds continue until no vertex is triggered.

The per-algorithm piece is ``recalculate(v)``: the pull-style vertex
function from Table I.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from repro.compute.stats import ComputeRun, IterationStats
from repro.errors import SimulationError

#: The paper's triggering threshold (Algorithm 1 line 1).
DEFAULT_EPSILON = 1e-7

#: Safety valve: no algorithm here needs anywhere near this many rounds.
MAX_ROUNDS = 10_000


def invalidate_after_deletions(
    view,
    values: np.ndarray,
    deleted_edges,
    supports: Callable[[float, float, float], bool],
    init_fn,
    pinned=(),
):
    """KickStarter-style invalidation for deletion batches.

    Algorithm 1 assumes edge *insertions*: for a monotone vertex
    function, values only improve, so recomputing affected vertices
    converges.  After a *deletion*, a vertex's stored value may rest on
    a path that no longer exists, and plain recomputation can keep such
    stale values alive through cycles of mutual support (a vertex and
    its downstream neighbors vouching for each other's dead values).

    The sound fix (the trimming idea of KickStarter): flag every
    deletion target whose stored value *could* have been derived
    through the deleted edge -- ``supports(source_value, weight,
    target_value)`` is the algorithm's derivation test -- then
    over-approximate the tainted region by the flagged vertices'
    forward closure (a value derived through a tainted vertex lies in
    that closure by construction), reset the region to its initial
    values, and let a normal incremental run re-derive it from the
    still-valid boundary.

    ``deleted_edges`` is the ``(src, dst, weight)`` list actually
    removed.  Returns the affected set to feed to
    :func:`run_incremental` (the reset region plus the flagged roots).
    """
    num_nodes = view.num_nodes
    pinned = set(pinned)
    roots = set()
    for u, v, w in deleted_edges:
        if v >= num_nodes or v in pinned:
            continue
        if supports(float(values[u]), float(w), float(values[v])):
            roots.add(v)
    # Forward closure of the flagged vertices (out-edges only: a value
    # can only have been derived along edge direction).
    tainted = set(roots)
    frontier = list(roots)
    while frontier:
        v = frontier.pop()
        for w, _ in view.out_neigh(v):
            if w not in tainted and w not in pinned:
                tainted.add(w)
                frontier.append(w)
    if tainted:
        ids = np.fromiter(tainted, dtype=np.int64)
        values[ids] = init_fn(ids)
    return tainted


def run_incremental(
    view,
    values: np.ndarray,
    affected: Iterable[int],
    recalculate: Callable[[int], float],
    algorithm: str,
    epsilon: float = DEFAULT_EPSILON,
    max_rounds: int = MAX_ROUNDS,
) -> ComputeRun:
    """Run Algorithm 1 and return the operation-count record.

    Parameters
    ----------
    view:
        Any graph view exposing ``out_neigh``/``num_nodes``.
    values:
        The persistent vertex-value array, mutated in place.
    affected:
        Vertices directly affected by the latest update phase.
    recalculate:
        The vertex function: ``recalculate(v)`` returns v's new value
        from its in-neighbors' current values.
    epsilon:
        Triggering threshold: changes of at most ``epsilon`` do not
        propagate.
    """
    num_nodes = view.num_nodes
    visited = np.zeros(num_nodes, dtype=bool)
    run = ComputeRun(algorithm=algorithm, model="INC", values=values)
    # Lines 2-7 of Algorithm 1 scan the whole vertex array twice: once
    # initializing new vertices, once testing the affected flags.
    run.linear_scans = 2

    # Deterministic round order: a unique ascending numpy frontier.
    # (The old sorted-set rebuild gave the same order but went through
    # Python set semantics; np.unique pins the contract explicitly and
    # keeps the array form the vectorized engine shares.)
    if isinstance(affected, np.ndarray):
        seed = affected.astype(np.int64, copy=False)
    else:
        seed = np.fromiter(affected, dtype=np.int64)
    current = np.unique(seed[seed < num_nodes])
    rounds = 0
    while current.size:
        rounds += 1
        if rounds > max_rounds:
            raise SimulationError(
                f"incremental {algorithm} exceeded {max_rounds} rounds; "
                "the vertex function is probably not convergent"
            )
        visited[:] = False
        next_queue = []
        triggered = []
        pushes = 0
        cas_ops = 0
        # tolist() hands the loop plain Python ints: view methods (and
        # DAH's hash function in particular) expect native integers.
        for v in current.tolist():
            # Plain floats: inf - inf is a quiet NaN (an unreached
            # vertex staying unreached is not a change).
            old = float(values[v])
            new = float(recalculate(v))
            values[v] = new
            if abs(old - new) > epsilon:
                triggered.append(v)
                for w, _ in view.out_neigh(v):
                    cas_ops += 1
                    if not visited[w]:
                        visited[w] = True
                        next_queue.append(w)
                        pushes += 1
        run.iterations.append(
            IterationStats.make(
                pull=current, push=triggered, pushes=pushes, cas_ops=cas_ops
            )
        )
        # The visited bitvector already deduplicated next_queue, so the
        # stable unique only sorts ascending -- the legacy round order.
        current = np.unique(np.asarray(next_queue, dtype=np.int64))
    return run

"""Oracles: readable implementations the fast ones are checked against.

:class:`DictGraph` is the dict-of-dicts adjacency that was
``repro.graph.reference.ReferenceGraph`` until the columnar live graph
replaced it -- the class body is unchanged.  Python dicts iterate in
insertion order and a popped-then-reinserted key moves to the end,
which *defines* the chronological row order the CSR store must keep.

The **compute oracles** below it are the sequential per-vertex engines
that were ``repro.compute.incremental`` and the per-vertex branches of
``repro.algorithms`` until the frontier kernels became the only engine:
Algorithm 1 (:func:`run_incremental`), the KickStarter invalidation
(:func:`invalidate_after_deletions`), the per-edge push relaxation
(:func:`frontier_relaxation`), set-based delta-stepping
(:func:`delta_stepping`), and the per-vertex in-edge walk
(:func:`extract_in_edges`) -- loop bodies unchanged.  They read a graph
only through ``num_nodes`` / ``in_neigh`` / ``out_neigh`` /
``out_degree`` and an algorithm only through its scalar Table-I
functions (``recalculate``, ``supports``, ``init_value``,
``source_value``); they import numpy and nothing from ``repro.compute``,
so a result they share with the product engines is not shared code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Sequence, Set, Tuple

import numpy as np

from repro.errors import StructureError
from repro.graph.edge import EdgeBatch


class DictGraph:
    """Ground-truth adjacency with unique edge ingestion."""

    def __init__(self, max_nodes: int, directed: bool = True) -> None:
        if max_nodes < 1:
            raise StructureError(f"max_nodes must be >= 1, got {max_nodes}")
        self.max_nodes = max_nodes
        self.directed = directed
        self._out: List[Dict[int, float]] = [dict() for _ in range(max_nodes)]
        self._in: List[Dict[int, float]] = (
            [dict() for _ in range(max_nodes)] if directed else self._out
        )
        self._num_edges = 0
        self._max_seen = -1

    def update(self, batch: EdgeBatch) -> int:
        """Ingest a batch; returns the number of new unique edges."""
        return len(self.update_collect(batch))

    def update_collect(self, batch: EdgeBatch) -> EdgeBatch:
        """Ingest a batch; returns the newly inserted edges as columns.

        The returned batch holds the rows of ``batch`` that were new, in
        batch order (it iterates as ``(src, dst, weight)``).  For
        undirected graphs the reverse orientation is ingested too but
        reported once.  The streaming driver uses the columns to
        maintain incremental degree and in-edge arrays.  A batch with an
        out-of-range vertex is rejected whole, like the structures do.
        """
        src, dst = self._checked_endpoints(batch)
        weight = np.asarray(batch.weight, dtype=np.float64)
        out, inn, directed = self._out, self._in, self.directed
        kept = []
        for i, (u, v, w) in enumerate(
            zip(src.tolist(), dst.tolist(), weight.tolist())
        ):
            row = out[u]
            if v not in row:
                row[v] = w
                kept.append(i)
                if directed:
                    inn[v][u] = w
                elif u != v:
                    out[v][u] = w
        if len(src):
            self._max_seen = max(self._max_seen, int(src.max()), int(dst.max()))
        self._num_edges += len(kept)
        return EdgeBatch(src=src[kept], dst=dst[kept], weight=weight[kept])

    def delete_collect(self, batch: EdgeBatch) -> EdgeBatch:
        """Remove a batch's edges; returns the ones actually removed.

        Same column form as :meth:`update_collect`; the weights are the
        stored ones, not the batch's.
        """
        src, dst = self._checked_endpoints(batch)
        out, inn, directed = self._out, self._in, self.directed
        kept = []
        weights = []
        for i, (u, v) in enumerate(zip(src.tolist(), dst.tolist())):
            weight = out[u].pop(v, None)
            if weight is None:
                continue
            kept.append(i)
            weights.append(weight)
            if directed:
                del inn[v][u]
            elif u != v:
                del out[v][u]
        self._num_edges -= len(kept)
        return EdgeBatch(
            src=src[kept],
            dst=dst[kept],
            weight=np.asarray(weights, dtype=np.float64),
        )

    def _checked_endpoints(self, batch: EdgeBatch):
        """The batch's int64 endpoint columns, range-checked up front."""
        src = np.asarray(batch.src, dtype=np.int64)
        dst = np.asarray(batch.dst, dtype=np.int64)
        bad = (src < 0) | (src >= self.max_nodes) | (dst < 0) | (dst >= self.max_nodes)
        if bad.any():
            i = int(np.argmax(bad))
            raise StructureError(f"edge ({int(src[i])}, {int(dst[i])}) out of range")
        return src, dst

    @property
    def num_nodes(self) -> int:
        return self._max_seen + 1

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def out_neigh(self, u: int) -> Sequence[Tuple[int, float]]:
        return list(self._out[u].items())

    def in_neigh(self, u: int) -> Sequence[Tuple[int, float]]:
        return list(self._in[u].items())

    def out_degree(self, u: int) -> int:
        return len(self._out[u])

    def in_degree(self, u: int) -> int:
        return len(self._in[u])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._out[u]

    def vertices(self) -> range:
        return range(self.num_nodes)

    def out_items(self, u: int) -> Dict[int, float]:
        """Direct (read-only by convention) access to u's out-dict."""
        return self._out[u]

    def in_items(self, u: int) -> Dict[int, float]:
        return self._in[u]


# ----------------------------------------------------------------------
# Compute oracles
# ----------------------------------------------------------------------

#: The paper's triggering threshold (Algorithm 1 line 1).
DEFAULT_EPSILON = 1e-7

#: Safety valve: no algorithm here needs anywhere near this many rounds.
MAX_ROUNDS = 10_000


class OracleError(Exception):
    """The oracle's own failure (a vertex function that never converges)."""


@dataclass
class OracleRun:
    """What one oracle run did, in plain Python values.

    ``iterations`` holds one ``(pull ids, push ids, pushes, cas_ops)``
    tuple per round -- the fields of the product's ``IterationStats``.
    """

    values: np.ndarray
    linear_scans: int
    converged: bool = True
    iterations: List[Tuple[List[int], List[int], int, int]] = field(
        default_factory=list
    )

    def record(self, pull=(), push=(), pushes=0, cas_ops=0) -> None:
        self.iterations.append(
            ([int(v) for v in pull], [int(v) for v in push], pushes, cas_ops)
        )


def observed(run) -> tuple:
    """A product ``ComputeRun`` or an :class:`OracleRun`, comparable."""
    if isinstance(run, OracleRun):
        iterations = run.iterations
    else:
        iterations = [
            (
                it.pull_vertices.tolist(),
                it.push_vertices.tolist(),
                it.pushes,
                it.cas_ops,
            )
            for it in run.iterations
        ]
    return (run.values.tobytes(), run.linear_scans, run.converged, iterations)


def invalidate_after_deletions(
    view,
    values: np.ndarray,
    deleted_edges,
    supports: Callable[[float, float, float], bool],
    init_fn,
    pinned=(),
):
    """KickStarter-style invalidation for deletion batches.

    Flag every deletion target whose stored value *could* have been
    derived through the deleted edge -- ``supports(source_value,
    weight, target_value)`` is the algorithm's derivation test -- then
    over-approximate the tainted region by the flagged vertices'
    forward closure, and reset the region to its initial values.

    ``deleted_edges`` is the ``(src, dst, weight)`` list actually
    removed.  Returns the tainted set (the reset region plus the
    flagged roots).
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
    epsilon: float = DEFAULT_EPSILON,
    max_rounds: int = MAX_ROUNDS,
) -> OracleRun:
    """Algorithm 1, one vertex at a time.

    ``values`` is the persistent vertex-value array, mutated in place;
    ``affected`` the vertices directly affected by the latest update
    phase; ``recalculate(v)`` returns v's new value from its
    in-neighbors' current values; changes of at most ``epsilon`` do not
    propagate.
    """
    num_nodes = view.num_nodes
    visited = np.zeros(num_nodes, dtype=bool)
    # Lines 2-7 of Algorithm 1 scan the whole vertex array twice: once
    # initializing new vertices, once testing the affected flags.
    run = OracleRun(values=values, linear_scans=2)

    # Deterministic round order: a unique ascending frontier.
    seed = np.fromiter((int(v) for v in affected), dtype=np.int64)
    current = np.unique(seed[seed < num_nodes])
    rounds = 0
    while current.size:
        rounds += 1
        if rounds > max_rounds:
            raise OracleError(f"exceeded {max_rounds} rounds")
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
        run.record(pull=current, push=triggered, pushes=pushes, cas_ops=cas_ops)
        # The visited bitvector already deduplicated next_queue, so the
        # unique only sorts ascending.
        current = np.unique(np.asarray(next_queue, dtype=np.int64))
    return run


def frontier_relaxation(
    view,
    values: np.ndarray,
    source: int,
    relax: Callable[[float, float], float],
    better: Callable[[float, float], bool],
) -> OracleRun:
    """Round-based push-style relaxation from ``source`` (BFS, SSWP).

    Each round scans the out-edges of the active frontier; a neighbor
    whose tentative value improves joins the next frontier.
    """
    run = OracleRun(values=values, linear_scans=1)
    if source >= view.num_nodes:
        return run
    frontier = [source]
    while frontier:
        next_frontier = []
        improved = np.zeros(view.num_nodes, dtype=bool)
        pushes = 0
        for v in frontier:
            base = values[v]
            for w, wt in view.out_neigh(v):
                candidate = relax(base, wt)
                if better(candidate, values[w]):
                    values[w] = candidate
                    if not improved[w]:
                        improved[w] = True
                        next_frontier.append(w)
                        pushes += 1
        run.record(push=frontier, pushes=pushes, cas_ops=pushes)
        frontier = next_frontier
    return run


def mean_edge_weight(view) -> float:
    """Delta-stepping's default delta: the mean out-edge weight."""
    total, count = 0.0, 0
    for v in range(view.num_nodes):
        for _, w in view.out_neigh(v):
            total += w
            count += 1
    return max(total / count, 1e-9) if count else 1.0


def delta_stepping(view, source: int, delta=None) -> OracleRun:
    """SSSP by delta-stepping over sets of vertices.

    Light edges (weight <= delta) are relaxed iteratively inside a
    bucket; heavy edges once per settled bucket.  ``delta`` defaults to
    the mean edge weight.
    """
    n = max(view.num_nodes, 1)
    values = np.full(n, np.inf)
    run = OracleRun(values=values, linear_scans=1)
    if source >= view.num_nodes:
        return run
    values[source] = 0.0
    if delta is None:
        delta = mean_edge_weight(view)

    buckets: Dict[int, Set[int]] = {0: {source}}
    while buckets:
        i = min(buckets)
        bucket = buckets.pop(i)
        settled: list = []
        # Light-edge phase: iterate within the bucket.
        while True:
            frontier = sorted(v for v in bucket if int(values[v] // delta) == i)
            bucket = set()
            if not frontier:
                break
            settled.extend(frontier)
            pushes = 0
            for v in frontier:
                base = values[v]
                for w, wt in view.out_neigh(v):
                    if wt > delta:
                        continue
                    candidate = base + wt
                    if candidate < values[w]:
                        values[w] = candidate
                        pushes += 1
                        j = int(candidate // delta)
                        if j == i:
                            bucket.add(w)
                        else:
                            buckets.setdefault(j, set()).add(w)
            run.record(push=frontier, pushes=pushes, cas_ops=pushes)
        if not settled:
            continue
        # Heavy-edge phase: one relaxation pass over the bucket.
        pushes = 0
        for v in settled:
            base = values[v]
            for w, wt in view.out_neigh(v):
                if wt <= delta:
                    continue
                candidate = base + wt
                if candidate < values[w]:
                    values[w] = candidate
                    pushes += 1
                    buckets.setdefault(int(candidate // delta), set()).add(w)
        run.record(push=settled, pushes=pushes, cas_ops=pushes)
    return run


def extract_in_edges(view) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All edges as (src, dst, weight) arrays, grouped by destination.

    The arrays describe the in-edges of every vertex (for undirected
    views, both orientations appear, matching ``in_neigh``).
    """
    srcs, dsts, weights = [], [], []
    for v in range(view.num_nodes):
        for u, w in view.in_neigh(v):
            srcs.append(u)
            dsts.append(v)
            weights.append(w)
    return (
        np.asarray(srcs, dtype=np.int64),
        np.asarray(dsts, dtype=np.int64),
        np.asarray(weights, dtype=np.float64),
    )


def jacobi_fixpoint(
    view, values: np.ndarray, recalculate, epsilon: float, max_iterations: int
) -> OracleRun:
    """Evaluate every vertex function from the previous sweep's values
    until the largest change is at most ``epsilon`` (CC, MC, PR's power
    iteration)."""
    n = view.num_nodes
    run = OracleRun(values=values, linear_scans=1)  # the from-scratch reset
    if n == 0:
        return run
    for _ in range(max_iterations):
        old = values.copy()
        largest = 0.0
        for v in range(n):
            values[v] = recalculate(v, view, old)
            # inf - inf (an unreached vertex staying unreached) is NaN:
            # not a change.
            change = abs(float(values[v]) - float(old[v]))
            if change > largest:
                largest = change
        run.record(pull=range(n))
        if largest <= epsilon:
            return run
    run.converged = False
    return run


# -- the six algorithms through the oracle engines ----------------------


def _pr_start(num_nodes: int):
    """PR's initial rank: 1/|V| of the graph as it stands."""
    n = max(num_nodes, 1)
    return lambda ids: np.full(len(ids), 1.0 / n)


def fs_oracle(algorithm, view, source=None) -> OracleRun:
    """Recomputation from scratch: the FS baseline of each algorithm."""
    n = max(view.num_nodes, 1)
    name = algorithm.name
    if name == "SSSP":
        return delta_stepping(view, source, algorithm.delta)
    if name in ("BFS", "SSWP"):
        values = np.asarray(algorithm.init_value(np.arange(n)), dtype=np.float64)
        if source < view.num_nodes:
            values[source] = algorithm.source_value()
        if name == "BFS":
            return frontier_relaxation(
                view, values, source, lambda base, wt: base + 1.0,
                lambda candidate, current: candidate < current,
            )
        return frontier_relaxation(
            view, values, source, min,
            lambda candidate, current: candidate > current,
        )
    if name == "PR":
        values = _pr_start(n)(np.arange(n))
        return jacobi_fixpoint(
            view, values, algorithm.recalculate, algorithm.epsilon, 200
        )
    values = np.arange(n, dtype=np.float64)  # CC, MC: own id as label
    return jacobi_fixpoint(view, values, algorithm.recalculate, 0.0, 1000)


class OracleState:
    """Values carried across batches; new vertices initialized lazily
    (Algorithm 1's "if v is a new vertex" branch)."""

    def __init__(self, max_nodes: int, algorithm) -> None:
        self.init_fn = algorithm.init_value
        self.values = np.asarray(
            algorithm.init_value(np.arange(max_nodes)), dtype=np.float64
        )
        self.initialized_up_to = 0

    def ensure_initialized(self, num_nodes: int) -> None:
        if num_nodes > self.initialized_up_to:
            ids = np.arange(self.initialized_up_to, num_nodes)
            self.values[ids] = self.init_fn(ids)
            self.initialized_up_to = num_nodes


def affected_oracle(algorithm, batch, view) -> Set[int]:
    """Vertices directly affected by ingesting ``batch``: both endpoints
    of every edge, and for PR every out-neighbor of a source too (its
    ``rank / out_degree`` term changed)."""
    affected: Set[int] = set()
    for i in range(len(batch)):
        u = int(batch.src[i])
        v = int(batch.dst[i])
        affected.add(u)
        affected.add(v)
        if algorithm.name == "PR":
            affected.update(w for w, _ in view.out_neigh(u))
    return affected


def inc_oracle(algorithm, view, state: OracleState, affected, source=None) -> OracleRun:
    """Incremental run (Algorithm 1) updating ``state`` in place."""
    if algorithm.name == "PR":
        # New vertices start at 1/|V| of the *current* graph
        # (Algorithm 1 line 4).
        state.init_fn = _pr_start(view.num_nodes)
    state.ensure_initialized(view.num_nodes)
    if algorithm.needs_source:
        state.values[source] = algorithm.source_value()

    def recalc(v: int) -> float:
        if algorithm.needs_source and v == source:
            return state.values[v]
        return algorithm.recalculate(v, view, state.values)

    return run_incremental(
        view, state.values, affected, recalc, epsilon=algorithm.epsilon
    )


def inc_delete_oracle(
    algorithm, view, state: OracleState, deleted_edges, source=None
) -> OracleRun:
    """Incremental recomputation after a deletion batch.

    ``view`` already reflects the deletions; ``deleted_edges`` holds
    the ``(src, dst, weight)`` actually removed.  The monotone
    algorithms invalidate first; PR just re-converges from the
    deletion endpoints.
    """
    state.ensure_initialized(view.num_nodes)
    edges = [(int(u), int(v), float(w)) for u, v, w in deleted_edges]
    if not getattr(view, "directed", True):
        edges = edges + [(v, u, w) for u, v, w in edges if u != v]
    endpoints = {v for _, v, _ in edges} | {u for u, _, _ in edges}
    if algorithm.monotonic is None:
        return inc_oracle(algorithm, view, state, endpoints, source=source)
    pinned = set()
    if algorithm.needs_source:
        state.values[source] = algorithm.source_value()
        pinned.add(source)
    affected = invalidate_after_deletions(
        view, state.values, edges, algorithm.supports, state.init_fn, pinned=pinned
    )
    return inc_oracle(algorithm, view, state, affected | endpoints, source=source)

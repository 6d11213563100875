"""Algorithm base class and the shared FS execution engines.

An :class:`Algorithm` supplies its Table-I vertex function plus an FS
implementation; the INC side is fully generic (Algorithm 1).  Two FS
engines cover five of the six algorithms:

- :func:`synchronous_fixpoint` -- evaluate every vertex's pull function
  each iteration until nothing changes (CC, MC and, with a tolerance,
  PR's power iteration).  Vectorized over an in-edge array.
- :func:`frontier_relaxation` -- push-style rounds relaxing the
  out-edges of an active frontier (BFS, SSWP).  SSSP's delta-stepping
  lives in its own module.
"""

from __future__ import annotations

import abc
from typing import Callable, Iterable, Optional, Set, Tuple

import numpy as np

from repro.compute import kernels
from repro.compute.incremental import DEFAULT_EPSILON, run_incremental
from repro.compute.kernels import use_legacy_compute
from repro.compute.state import AlgorithmState
from repro.compute.stats import ComputeRun, IterationStats
from repro.errors import SimulationError
from repro.graph.edge import EdgeBatch
from repro.obs.tracer import TRACER


class Algorithm(abc.ABC):
    """One vertex-centric algorithm in both compute models."""

    #: Paper name ("BFS", "CC", "MC", "PR", "SSSP", "SSWP").
    name: str = "?"

    #: True when edge weights matter (SSSP, SSWP).
    uses_weights: bool = False

    #: True when the vertex function queries each in-neighbor's
    #: out-degree (PR's rank normalization) -- extra degree-query
    #: meta-operations on DAH (Section V-B).
    neighbor_degree_query: bool = False

    #: True for single-source algorithms (BFS, SSSP, SSWP).
    needs_source: bool = False

    #: Triggering threshold for the INC engine.
    epsilon: float = DEFAULT_EPSILON

    #: Direction of monotone convergence under insertions: "min" when
    #: values only improve downward (BFS, CC, SSSP), "max" when upward
    #: (MC, SSWP), None when not monotone (PR).  Drives the sound
    #: deletion handling in :meth:`inc_delete_run`.
    monotonic: Optional[str] = None

    # -- values ---------------------------------------------------------

    @abc.abstractmethod
    def init_value(self, ids: np.ndarray) -> np.ndarray:
        """Initial property values for vertex ids ``ids``."""

    def make_state(self, max_nodes: int) -> AlgorithmState:
        """Fresh persistent state for an INC stream."""
        return AlgorithmState(max_nodes, self.init_value, name=self.name)

    @abc.abstractmethod
    def recalculate(self, v: int, view, values: np.ndarray) -> float:
        """The pull-style vertex function of Table I."""

    #: Vectorized vertex function: ``recalculate_batch(frontier, cv,
    #: values, rows=None)`` returns the new values of every frontier
    #: vertex from a :class:`~repro.compute.kernels.ComputeView`.
    #: ``rows`` optionally carries the pre-expanded in-adjacency
    #: ``(seg, nbr, wt)`` of the frontier.  Must be bit-identical to
    #: per-vertex ``recalculate``.  ``None`` keeps the algorithm on the
    #: legacy engine (third-party algorithms need not implement it).
    recalculate_batch = None

    #: Vectorized derivation test for deletion invalidation:
    #: ``supports_batch(src_values, weights, dst_values)`` returns a
    #: boolean array.  ``None`` keeps deletions on the legacy path.
    supports_batch = None

    #: Compiled vertex-function opcode (a ``ckernels.OP_*`` constant).
    #: When set and the compute kernels built, the INC engine runs each
    #: Gauss-Seidel round as a single C call instead of the wave
    #: machinery.  ``None`` keeps third-party algorithms on numpy.
    ckernel_op: Optional[int] = None

    def ckernel_constants(self, num_nodes: int) -> Tuple[float, float]:
        """``(pr_base, damping)`` scalars for the compiled vertex function.

        Only PR's opcode reads them; everything else ignores the pair.
        """
        return (0.0, 0.0)

    # -- runs -----------------------------------------------------------

    @abc.abstractmethod
    def fs_run(self, view, source: Optional[int] = None, in_edges=None) -> ComputeRun:
        """Recomputation from scratch on the current graph.

        ``in_edges`` optionally supplies pre-extracted ``(src, dst,
        weight)`` arrays of the view's in-edges; the synchronous
        algorithms use them to skip re-extraction (the streaming driver
        maintains them incrementally).  Built-in implementations also
        accept ``compute_view`` (a prebuilt columnar view for the
        frontier kernels); the driver shares one per batch through
        :func:`repro.compute.kernels.view_scope` instead of passing it,
        so third-party overrides need not add the parameter.
        """

    def inc_run(
        self,
        view,
        state: AlgorithmState,
        affected: Iterable[int],
        source: Optional[int] = None,
        compute_view=None,
    ) -> ComputeRun:
        """Incremental run (Algorithm 1) updating ``state`` in place.

        Runs the vectorized frontier engine when the algorithm supplies
        ``recalculate_batch`` (all six built-ins do), unless
        ``SAGA_BENCH_LEGACY_COMPUTE=1`` selects the per-vertex loop.
        ``compute_view`` optionally supplies a prebuilt columnar view;
        otherwise the driver-scoped view or a fresh export is used.
        """
        state.ensure_initialized(view.num_nodes)
        if self.needs_source:
            if source is None:
                raise SimulationError(f"{self.name} requires a source vertex")
            state.values[source] = self.source_value()

        if self.recalculate_batch is not None and not use_legacy_compute():
            run = kernels.run_incremental_frontier(
                view,
                state.values,
                affected,
                self,
                source=source,
                compute_view=compute_view,
            )
            run.source = source
            return run

        def recalc(v: int) -> float:
            if self.needs_source and v == source:
                return state.values[v]
            return self.recalculate(v, view, state.values)

        run = run_incremental(
            view,
            state.values,
            affected,
            recalc,
            algorithm=self.name,
            epsilon=self.epsilon,
        )
        run.source = source
        return run

    def source_value(self) -> float:
        """The pinned value of the source vertex (single-source only)."""
        raise SimulationError(f"{self.name} has no source value")

    # -- deletions --------------------------------------------------------

    def supports(self, source_value: float, weight: float, target_value: float) -> bool:
        """Could ``target_value`` have been derived via this edge?

        The derivation test used by the deletion invalidation: return
        True when applying the vertex function's edge term to
        ``source_value`` yields exactly ``target_value``.  The default
        is the conservative always-True (safe but invalidates more).
        """
        return True

    def inc_delete_run(
        self,
        view,
        state: AlgorithmState,
        deleted_edges,
        source: Optional[int] = None,
        compute_view=None,
    ) -> ComputeRun:
        """Incremental recomputation after a deletion batch (sound).

        Plain Algorithm 1 is insertion-only: stale values can survive
        deletions through cycles of mutual support.  For the monotone
        algorithms this method first invalidates the possibly-tainted
        region (KickStarter-style, see
        :func:`repro.compute.incremental.invalidate_after_deletions`),
        then re-derives it with a normal incremental run.  ``view``
        must already reflect the deletions; ``deleted_edges`` holds the
        edges actually removed -- the :class:`EdgeBatch` that
        ``ReferenceGraph.delete_collect`` returns, or any iterable of
        ``(src, dst, weight)``.

        Non-monotone algorithms (PR) fall back to a plain incremental
        run over the deletion endpoints, which converges to the new
        fixpoint without invalidation.
        """
        from repro.compute.incremental import invalidate_after_deletions

        state.ensure_initialized(view.num_nodes)
        directed = getattr(view, "directed", True)
        use_kernel = (
            not use_legacy_compute()
            and self.recalculate_batch is not None
            and (self.monotonic is None or self.supports_batch is not None)
        )
        if use_kernel:
            deleted = deleted_edges
            if not isinstance(deleted, EdgeBatch):
                deleted = EdgeBatch.from_edges(deleted)
            src, dst, weight = deleted.src, deleted.dst, deleted.weight
            if not directed:
                mirrored = src != dst
                src, dst, weight = (
                    np.concatenate([src, dst[mirrored]]),
                    np.concatenate([dst, src[mirrored]]),
                    np.concatenate([weight, weight[mirrored]]),
                )
            endpoints = kernels.as_frontier(
                np.concatenate([src, dst]), view.num_nodes
            )
            if self.monotonic is None:
                return self.inc_run(
                    view, state, endpoints, source=source, compute_view=compute_view
                )
            pinned = ()
            if self.needs_source:
                if source is None:
                    raise SimulationError(f"{self.name} requires a source vertex")
                state.values[source] = self.source_value()
                pinned = (source,)
            cv = kernels.resolve_view(view, compute_view)
            with TRACER.span("compute.closure", args={"algorithm": self.name}):
                tainted = kernels.invalidate_frontier(
                    view,
                    state.values,
                    src,
                    dst,
                    weight,
                    self.supports_batch,
                    state.init_fn,
                    pinned=pinned,
                    compute_view=cv,
                )
            # Both id arrays lie below num_nodes, so their union needs
            # no sort: mark and read back.
            affected = kernels.unique_ids(
                np.concatenate((tainted, endpoints)), view.num_nodes
            )
            return self.inc_run(
                view, state, affected, source=source, compute_view=cv
            )
        edges = list(deleted_edges)
        if not directed:
            edges = edges + [(v, u, w) for u, v, w in edges if u != v]
        endpoints = {v for _, v, _ in edges} | {u for u, _, _ in edges}
        if self.monotonic is None:
            return self.inc_run(view, state, endpoints, source=source)
        pinned = set()
        if self.needs_source:
            if source is None:
                raise SimulationError(f"{self.name} requires a source vertex")
            state.values[source] = self.source_value()
            pinned.add(source)
        affected = invalidate_after_deletions(
            view,
            state.values,
            edges,
            self.supports,
            state.init_fn,
            pinned=pinned,
        )
        return self.inc_run(view, state, affected | endpoints, source=source)

    # -- affected set ----------------------------------------------------

    def affected_from_batch(self, batch: EdgeBatch, view):
        """Vertices directly affected by ingesting ``batch``.

        The default marks both endpoints of every edge: the pull-side
        vertex function of the destination sees a new in-edge, and on
        undirected graphs both ends gain a neighbor.  With a columnar
        view in scope the result is the ascending id array the frontier
        engine wants; otherwise a set (same vertices either way).
        """
        cv = kernels.scoped_view(view) if not use_legacy_compute() else None
        if cv is not None:
            endpoints = np.concatenate([batch.src, batch.dst])
            return kernels.unique_ids(
                endpoints.astype(np.int64, copy=False), cv.num_nodes
            )
        affected: Set[int] = set()
        for i in range(len(batch)):
            affected.add(int(batch.src[i]))
            affected.add(int(batch.dst[i]))
        return affected


# ----------------------------------------------------------------------
# Per-vertex neighbor iteration (the per-vertex tier's vertex functions)
# ----------------------------------------------------------------------


def in_pairs(view, v: int):
    """``(neighbor, weight)`` pairs of v's in-edges."""
    return view.in_neigh(v)


def in_sources(view, v: int):
    """Just the source vertices of v's in-edges (weights unused)."""
    return [u for u, _ in view.in_neigh(v)]


def out_targets(view, v: int):
    """Just the target vertices of v's out-edges."""
    return [w for w, _ in view.out_neigh(v)]


# ----------------------------------------------------------------------
# Shared FS engines
# ----------------------------------------------------------------------


def extract_in_edges(view, compute_view=None) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All edges as (src, dst, weight) arrays, grouped by destination.

    Used by the vectorized synchronous engine; the arrays describe the
    in-edges of every vertex (for undirected views, both orientations
    appear, matching ``in_neigh``).  When a :class:`ComputeView` is
    supplied or in scope (and the legacy path is off), the arrays come
    from its in-CSR -- the same grouped-by-destination order the
    per-vertex loop produces, without the per-vertex loop.
    """
    if not use_legacy_compute():
        cv = compute_view if compute_view is not None else kernels.scoped_view(view)
        if cv is not None:
            return kernels.packed_in_edges(cv)
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


def synchronous_fixpoint(
    view,
    values: np.ndarray,
    combine: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    algorithm: str,
    epsilon: float = 0.0,
    max_iterations: int = 1000,
    in_edges=None,
    compute_view=None,
) -> ComputeRun:
    """Jacobi iteration of a pull-style vertex function over all vertices.

    ``combine(values, src, dst, weight)`` returns the next value array
    given the current one and the in-edge arrays.  Iterates until the
    largest change is at most ``epsilon``.
    """
    n = view.num_nodes
    run = ComputeRun(algorithm=algorithm, model="FS", values=values)
    run.linear_scans = 1  # the from-scratch reset
    if n == 0:
        return run
    src, dst, weight = (
        in_edges
        if in_edges is not None
        else extract_in_edges(view, compute_view)
    )
    everyone = np.arange(n, dtype=np.int64)
    for _ in range(max_iterations):
        new_values = combine(values, src, dst, weight)
        # inf - inf (an unreached vertex staying unreached) is NaN: not
        # a change.  A transition between finite and infinite is +/-inf:
        # a real change, kept as such.
        delta = np.abs(np.nan_to_num(new_values - values, nan=0.0))
        values[:] = new_values
        run.iterations.append(IterationStats.make(pull=everyone))
        if float(delta.max(initial=0.0)) <= epsilon:
            return run
    run.converged = False
    return run


def frontier_relaxation(
    view,
    values: np.ndarray,
    source: int,
    relax: Callable[[float, float], float],
    better: Callable[[float, float], bool],
    algorithm: str,
    optimize: str = "min",
    compute_view=None,
    relax_op: Optional[int] = None,
) -> ComputeRun:
    """Round-based push-style relaxation from ``source`` (BFS, SSWP).

    Each round scans the out-edges of the active frontier; a neighbor
    whose tentative value improves joins the next frontier.  ``relax``
    and ``better`` must accept numpy arrays as well as scalars: the
    default engine is the vectorized relaxation kernel (``optimize``
    names the scatter direction, "min" or "max"), with the per-edge
    loop below behind ``SAGA_BENCH_LEGACY_COMPUTE=1``.  ``relax_op``
    optionally names the compiled twin of ``relax`` (a
    ``ckernels.RELAX_*`` code) for the fused C rounds.
    """
    if not use_legacy_compute():
        return kernels.frontier_relaxation_kernel(
            view,
            values,
            source,
            relax,
            better,
            optimize,
            algorithm,
            compute_view=compute_view,
            relax_op=relax_op,
        )
    run = ComputeRun(algorithm=algorithm, model="FS", values=values, source=source)
    run.linear_scans = 1
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
        run.iterations.append(
            IterationStats.make(push=frontier, pushes=pushes, cas_ops=pushes)
        )
        frontier = next_frontier
    return run

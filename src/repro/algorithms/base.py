"""Algorithm base class and the shared FS execution engines.

An :class:`Algorithm` supplies its Table-I vertex function plus an FS
implementation; the INC side is fully generic (Algorithm 1, run by
:func:`repro.compute.kernels.run_incremental_frontier`).  Two FS
engines cover five of the six algorithms:

- :func:`synchronous_fixpoint` -- evaluate every vertex's pull function
  each iteration until nothing changes (CC, MC and, with a tolerance,
  PR's power iteration).  One compiled call per run, or vectorized over
  an in-edge array.
- :func:`repro.compute.kernels.frontier_relaxation_kernel` --
  push-style rounds relaxing the out-edges of an active frontier (BFS,
  SSWP).  SSSP's delta-stepping lives in its own module.
"""

from __future__ import annotations

import abc
import math
from typing import Callable, Iterable, Optional, Tuple

import numpy as np

from repro.compute import ckernels, kernels
from repro.compute.kernels import DEFAULT_EPSILON
from repro.compute.state import AlgorithmState
from repro.compute.stats import ROUND_COLUMNS, ComputeRun
from repro.errors import SimulationError
from repro.graph.edge import EdgeBatch
from repro.obs.tracer import TRACER
from repro.widths import VERTEX


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
        """The pull-style vertex function of Table I.

        The readable specification of the algorithm, the extension point
        and what the INC engine runs without the native library (or
        without :attr:`ckernel_op`): one call per frontier vertex, in
        ascending order, ``values`` holding the new values of the
        round's earlier vertices.  ``view`` is the graph's
        :class:`~repro.compute.kernels.ComputeView`, read through the
        paper's neighbour API (``in_neigh``, ``out_neigh``, the degrees,
        ``num_nodes``).  Defining this (plus :meth:`init_value` and
        :meth:`fs_run`) is enough to run in both compute models.
        """

    #: Compiled vertex-function opcode (a ``ckernels.OP_*`` constant).
    #: When set and the compute kernels built, the INC engine runs the
    #: whole Gauss-Seidel run as a single C call of the loop that
    #: :meth:`recalculate` runs in Python, and must give its bits.
    #: ``None`` keeps an algorithm on :meth:`recalculate`.
    ckernel_op: Optional[int] = None

    def ckernel_constants(self, num_nodes: int) -> Tuple[float, float]:
        """``(pr_base, damping)`` scalars for the compiled vertex function.

        Only PR's opcode reads them; everything else ignores the pair.
        """
        return (0.0, 0.0)

    # -- runs -----------------------------------------------------------

    @abc.abstractmethod
    def fs_run(self, view, source: Optional[int] = None) -> ComputeRun:
        """Recomputation from scratch on the current graph.

        ``view`` is any graph or a
        :class:`~repro.compute.kernels.ComputeView`; the built-ins read
        it through one :meth:`~repro.compute.kernels.ComputeView.of`,
        which hands a live graph's maintained view over without work.
        """

    @TRACER.layer("algorithms.inc")
    def inc_run(
        self,
        view,
        state: AlgorithmState,
        affected: Iterable[int],
        source: Optional[int] = None,
    ) -> ComputeRun:
        """Incremental run (Algorithm 1) updating ``state`` in place.

        ``view`` is any graph or its
        :class:`~repro.compute.kernels.ComputeView`, read through one
        :meth:`~repro.compute.kernels.ComputeView.of`.
        """
        state.ensure_initialized(view.num_nodes)
        if self.needs_source:
            source = self.checked_source(source, state)
            state.values[source] = self.source_value()
        run = kernels.run_incremental_frontier(
            kernels.ComputeView.of(view), state.values, affected, self, source=source
        )
        run.source = source
        return run

    def source_value(self) -> float:
        """The pinned value of the source vertex (single-source only)."""
        raise SimulationError(f"{self.name} has no source value")

    def checked_source(self, source: Optional[int], holder) -> int:
        """``source`` as the root of a single-source run, or an error.

        ``holder`` is what the run indexes by vertex id -- the view
        (FS) or the INC state -- and its ``max_nodes`` the id space: a
        negative id would wrap to another vertex in numpy and read out
        of bounds in the compiled kernels, one at or past ``max_nodes``
        has no value slot.  A root in ``[view.num_nodes, max_nodes)`` is
        legal -- not in the graph yet; a view that states no
        ``max_nodes`` has no upper bound to check.
        """
        capacity = getattr(holder, "max_nodes", math.inf)
        if source is None:
            raise SimulationError(f"{self.name} requires a source vertex")
        if not 0 <= source < capacity:
            raise SimulationError(
                f"{self.name}: source vertex {source} is outside [0, {capacity})"
            )
        return source

    # -- deletions --------------------------------------------------------

    def supports(self, source_value: float, weight: float, target_value: float) -> bool:
        """Could ``target_value`` have been derived via this edge?

        The derivation test used by the deletion invalidation: return
        True when applying the vertex function's edge term to
        ``source_value`` yields exactly ``target_value``.  The default
        is the conservative always-True (safe but invalidates more).
        """
        return True

    def supports_batch(self, source_values, weights, target_values) -> np.ndarray:
        """:meth:`supports` over edge columns (deletion invalidation).

        The default applies the scalar test per edge; the built-ins
        override it with one vector comparison.
        """
        return np.fromiter(
            (
                self.supports(s, w, t)
                for s, w, t in zip(
                    source_values.tolist(), weights.tolist(), target_values.tolist()
                )
            ),
            dtype=bool,
            count=len(weights),
        )

    @TRACER.layer("algorithms.inc_delete")
    def inc_delete_run(
        self,
        view,
        state: AlgorithmState,
        deleted_edges,
        source: Optional[int] = None,
    ) -> ComputeRun:
        """Incremental recomputation after a deletion batch (sound).

        Plain Algorithm 1 is insertion-only: stale values can survive
        deletions through cycles of mutual support.  For the monotone
        algorithms this method first invalidates the possibly-tainted
        region (KickStarter-style, see
        :func:`repro.compute.kernels.invalidate_frontier`),
        then re-derives it with a normal incremental run.  ``view``
        must already reflect the deletions; ``deleted_edges`` holds the
        edges actually removed -- the :class:`EdgeBatch` that
        ``ReferenceGraph.delete_collect`` returns, or any iterable of
        ``(src, dst, weight)``.

        Non-monotone algorithms (PR) fall back to a plain incremental
        run over the deletion endpoints, which converges to the new
        fixpoint without invalidation.
        """
        state.ensure_initialized(view.num_nodes)
        deleted = deleted_edges
        if not isinstance(deleted, EdgeBatch):
            deleted = EdgeBatch.from_edges(deleted)
        src, dst, weight = deleted.src, deleted.dst, deleted.weight
        if not getattr(view, "directed", True):
            mirrored = src != dst
            src, dst, weight = (
                np.concatenate([src, dst[mirrored]]),
                np.concatenate([dst, src[mirrored]]),
                np.concatenate([weight, weight[mirrored]]),
            )
        endpoints = kernels.as_frontier(np.concatenate([src, dst]), view.num_nodes)
        if self.monotonic is None:
            return self.inc_run(view, state, endpoints, source=source)
        pinned = ()
        if self.needs_source:
            source = self.checked_source(source, state)
            state.values[source] = self.source_value()
            pinned = (source,)
        cv = kernels.ComputeView.of(view)
        with TRACER.span("compute.closure", args={"algorithm": self.name}):
            tainted = kernels.invalidate_frontier(
                cv,
                state.values,
                src,
                dst,
                weight,
                self.supports_batch,
                state.init_fn,
                pinned=pinned,
            )
        # Both id arrays lie below num_nodes, so their union needs no
        # sort: mark and read back.
        affected = kernels.unique_ids(
            np.concatenate((tainted, endpoints)), view.num_nodes
        )
        return self.inc_run(cv, state, affected, source=source)

    # -- affected set ----------------------------------------------------

    @TRACER.layer("algorithms.affected")
    def affected_from_batch(self, batch: EdgeBatch, view) -> np.ndarray:
        """Vertices directly affected by ingesting ``batch``, ascending.

        The default marks both endpoints of every edge: the pull-side
        vertex function of the destination sees a new in-edge, and on
        undirected graphs both ends gain a neighbor.
        """
        return kernels.as_frontier(
            np.concatenate([batch.src, batch.dst]), view.num_nodes
        )


# ----------------------------------------------------------------------
# Shared FS engine
# ----------------------------------------------------------------------


def synchronous_fixpoint(
    cv: kernels.ComputeView,
    values: np.ndarray,
    combine: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    algorithm: str,
    epsilon: float = 0.0,
    max_iterations: int = 1000,
    kernel_op: Optional[int] = None,
    kernel_constants: Tuple[float, float] = (0.0, 0.0),
) -> ComputeRun:
    """Jacobi iteration of a pull-style vertex function over all vertices.

    ``combine(values, src, dst, weight)`` returns the next value array
    given the current one and the in-edge arrays: every edge grouped by
    destination, each group in the view's ``in_neigh`` order (for
    undirected views both orientations appear), read from the in-CSR of
    the graph's :class:`~repro.compute.kernels.ComputeView` ``cv``.
    Iterates until the largest change is at most ``epsilon``.

    ``kernel_op`` is the compiled twin of ``combine`` (a
    ``ckernels.OP_*`` vertex function, ``kernel_constants`` its
    :meth:`Algorithm.ckernel_constants`); when given and the compute
    kernels built, the whole fixpoint is one C call that sweeps the
    in-CSR rows in place (``ckernels.ComputeKernels.jacobi_run``) and
    reports how many rounds it took -- every round pulls every vertex,
    so that count is the run's whole record.
    """
    n = cv.num_nodes
    run = ComputeRun(algorithm=algorithm, model="FS", values=values)
    run.linear_scans = 1  # the from-scratch reset
    if n == 0:
        return run
    ck = ckernels.get() if kernel_op is not None else None
    with TRACER.span("compute.kernel", args={"algorithm": algorithm, "model": "FS"}):
        if ck is not None:
            rounds = ck.jacobi_run(
                cv, values, kernel_op, epsilon, *kernel_constants, max_iterations
            )
            if rounds < 0:
                run.converged = False
                rounds = max_iterations
        else:
            src, dst, weight = kernels.packed_in_edges(cv)
            rounds, run.converged = 0, False
            while rounds < max_iterations and not run.converged:
                new_values = combine(values, src, dst, weight)
                # inf - inf (an unreached vertex staying unreached) is NaN:
                # not a change.  A transition between finite and infinite is
                # +/-inf: a real change, kept as such.
                delta = np.abs(np.nan_to_num(new_values - values, nan=0.0))
                values[:] = new_values
                rounds += 1
                run.converged = float(delta.max(initial=0.0)) <= epsilon
    # Every round pulls every vertex: one copy of them, ``rounds`` rows.
    table = np.zeros((rounds, len(ROUND_COLUMNS)), dtype=np.int64)
    table[:, ROUND_COLUMNS.index("pulled")] = n
    run.set_log(np.arange(n, dtype=VERTEX), table)
    return run

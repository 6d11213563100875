"""Compute-phase engines: columnar CSR views + frontier loops.

Algorithm 1 and the push-style FS relaxations run over a
:class:`ComputeView` -- indptr / indices / weights CSR arrays exported
by every graph structure or maintained per batch by the streaming
driver -- which also answers the paper's neighbour API (``out_neigh``,
``in_neigh``, the degrees, ``vertices()``) row by row.

Each engine has two forms.  The compiled run kernels of
:mod:`repro.compute.ckernels` run a whole run as one C call when the
native library is loaded and the algorithm names a compiled op.  The
other form is here: the same sequential loop in Python, one vertex (or
edge) at a time in the order the C loop takes them, through the
algorithm's scalar Table-I functions.  It is the reference the kernels
are tested against and the path without the native library or for a
third-party algorithm without ``ckernel_op``.  The two are
bit-identical -- same float values, same per-round vertex arrays, same
triggered counts, and therefore the same priced cycles -- and
:mod:`repro.verify` checks the values they agree on.
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.compute import ckernels
from repro.compute.stats import ROUND_COLUMNS, ComputeRun
from repro.errors import SimulationError
from repro.obs.metrics import DEFAULT_COUNT_BUCKETS, METRICS
from repro.obs.tracer import TRACER
from repro.widths import SLOT, VERTEX, WEIGHT, check_slot_extent

#: The paper's triggering threshold (Algorithm 1 line 1).
DEFAULT_EPSILON = 1e-7

#: Safety valve: no algorithm here needs anywhere near this many rounds.
MAX_ROUNDS = 10_000

_EMPTY_SEG = np.empty(0, dtype=np.int64)
_EMPTY_IDS = np.empty(0, dtype=VERTEX)
_EMPTY_WEIGHTS = np.empty(0, dtype=WEIGHT)


# ----------------------------------------------------------------------
# Columnar views
# ----------------------------------------------------------------------


class CSRArrays(NamedTuple):
    """One direction of adjacency in CSR form.

    ``indices[indptr[u] : indptr[u] + degrees[u]]`` are u's neighbors
    in the exact order the source view iterates them (required for
    bit-identity of sequential accumulations); ``weights`` is parallel
    to ``indices``.  ``indices``, ``indptr`` and ``degrees`` are int32
    and ``weights`` float32 (:mod:`repro.widths`: ``VERTEX``, ``SLOT``,
    ``WEIGHT``).  Rows are usually packed (``degrees`` is
    ``np.diff(indptr)``), but the incrementally-maintained views of
    :mod:`repro.compute.csrstore` export rows with slack between them;
    every kernel therefore reads row extents from ``indptr[u]`` +
    ``degrees[u]``, never from ``indptr[u + 1]``.
    """

    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    degrees: np.ndarray


def csr_from_edges(
    src: np.ndarray, dst: np.ndarray, weight: np.ndarray, num_nodes: int, by_src: bool
) -> CSRArrays:
    """Group an edge list into CSR by source (out) or destination (in).

    The grouping sort is stable, so per-vertex neighbor order equals
    the chronological order of the edge list -- which is how the
    driver's incidence buffer and the reference graph's dicts iterate.
    Ids and weights are cast to the view's widths as the live CSR casts
    its deltas; the checked boundary is :class:`~repro.graph.edge.EdgeBatch`.
    """
    keys = src if by_src else dst
    vals = dst if by_src else src
    check_slot_extent(len(keys), "a CSR")
    order = np.argsort(keys, kind="stable")
    counts = np.bincount(keys, minlength=num_nodes).astype(SLOT)
    indptr = np.zeros(num_nodes + 1, dtype=SLOT)
    np.cumsum(counts, dtype=SLOT, out=indptr[1:])
    return CSRArrays(
        indptr=indptr,
        indices=vals[order].astype(VERTEX, copy=False),
        weights=weight[order].astype(WEIGHT, copy=False),
        degrees=counts,
    )


class ComputeView:
    """Both adjacency directions of one graph snapshot, columnar.

    The batch-granular artifact the kernels run against, reached from
    any graph through :meth:`of`: maintained by the live graph
    (``ReferenceGraph.compute_view()``) or built on demand from any view
    exposing ``out_neigh``/``in_neigh``.
    """

    __slots__ = (
        "num_nodes",
        "out_csr",
        "in_csr",
        "packed",
        "version",
        "_packed_in",
        "_packed_out_w",
    )

    def __init__(
        self,
        num_nodes: int,
        out_csr: CSRArrays,
        in_csr: CSRArrays,
        packed: bool = True,
    ) -> None:
        # The compiled kernels read both row arrays through int32 pointers.
        for csr in (out_csr, in_csr):
            if csr.indptr.dtype != SLOT or csr.degrees.dtype != SLOT:
                raise SimulationError(
                    f"a CSR's indptr and degrees are {SLOT}, got "
                    f"{csr.indptr.dtype} and {csr.degrees.dtype}"
                )
        self.num_nodes = num_nodes
        self.out_csr = out_csr
        self.in_csr = in_csr
        #: True when both CSRs are slack-free (indices/weights have
        #: exactly E live entries in row-major order).  Incremental
        #: views from csrstore leave slack and set this False.
        self.packed = packed
        #: Monotonic snapshot id assigned by the maintainer (0 = ad hoc).
        self.version = 0
        self._packed_in = None
        self._packed_out_w = None

    # -- the paper's neighbour API (the scalar vertex functions read it) --

    def out_neigh(self, u: int) -> List[Tuple[int, float]]:
        """``u``'s out-edges as ``(neighbor, weight)`` pairs, in row order."""
        return _row_pairs(self.out_csr, u)

    def in_neigh(self, u: int) -> List[Tuple[int, float]]:
        """``u``'s in-edges as ``(neighbor, weight)`` pairs, in row order."""
        return _row_pairs(self.in_csr, u)

    def out_degree(self, u: int) -> int:
        return int(self.out_csr.degrees[u])

    def in_degree(self, u: int) -> int:
        return int(self.in_csr.degrees[u])

    def vertices(self) -> range:
        return range(self.num_nodes)

    @classmethod
    def of(cls, view) -> "ComputeView":
        """The one route from a graph to the view every run reads.

        A ``ComputeView`` is returned as is, and a live graph (the
        reference graph, a snapshot) hands out its maintained view
        (``compute_view()``) without doing any work.  Any other view
        with the paper's neighbour API -- the instrumented structures,
        a third-party graph -- is exported once, row by row, from its
        ``out_neigh``/``in_neigh`` in iteration order.
        """
        if isinstance(view, ComputeView):
            return view
        maintained = getattr(view, "compute_view", None)
        if maintained is not None:
            return maintained()
        n = view.num_nodes
        return cls(
            n,
            out_csr=csr_from_pair_rows([view.out_neigh(u) for u in range(n)], n),
            in_csr=csr_from_pair_rows([view.in_neigh(u) for u in range(n)], n),
        )


def _row_pairs(csr: CSRArrays, u: int) -> List[Tuple[int, float]]:
    start = int(csr.indptr[u])
    stop = start + int(csr.degrees[u])
    return list(zip(csr.indices[start:stop].tolist(), csr.weights[start:stop].tolist()))


def csr_from_pair_rows(rows, num_nodes: int) -> CSRArrays:
    """:class:`CSRArrays` from materialized per-vertex pair rows.

    ``rows`` is an indexable sequence of ``len()``-able ``(neighbor,
    weight)`` collections, one per vertex id, so the columns come from
    one bulk ``np.array`` conversion instead of a per-pair Python loop.
    Neighbor ids survive the float64 round trip exactly (they are far
    below 2**53).
    """
    counts = np.fromiter(
        (len(rows[u]) for u in range(num_nodes)), dtype=SLOT, count=num_nodes
    )
    check_slot_extent(int(counts.sum()), "a CSR")
    indptr = np.zeros(num_nodes + 1, dtype=SLOT)
    np.cumsum(counts, dtype=SLOT, out=indptr[1:])
    total = int(indptr[-1])
    if total == 0:
        return CSRArrays(indptr, _EMPTY_IDS, _EMPTY_WEIGHTS, counts)
    flat = np.array(
        [pair for u in range(num_nodes) for pair in rows[u]], dtype=np.float64
    ).reshape(total, 2)
    return CSRArrays(
        indptr=indptr,
        indices=flat[:, 0].astype(VERTEX),
        weights=flat[:, 1].astype(WEIGHT),
        degrees=counts,
    )


def flat_slots(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Heap slot of every row element: starts repeated + within-row rank."""
    total = int(counts.sum())
    offsets = np.cumsum(counts) - counts
    within = np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)
    return np.repeat(starts, counts) + within


def packed_in_edges(cv: ComputeView) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(src, dst, weight)`` of every edge, grouped by destination.

    Within one destination the edges keep the view's neighbor order --
    the order a per-vertex ``in_neigh`` walk visits them.  Zero-copy when
    the view is packed; a single flat gather otherwise.  Cached on the
    view, which is immutable once published.
    """
    cached = cv._packed_in
    if cached is None:
        csr = cv.in_csr
        n = cv.num_nodes
        dst = np.repeat(np.arange(n, dtype=VERTEX), csr.degrees[:n])
        if cv.packed:
            cached = (csr.indices, dst, csr.weights)
        else:
            flat = flat_slots(csr.indptr[:n], csr.degrees[:n])
            cached = (csr.indices[flat], dst, csr.weights[flat])
        cv._packed_in = cached
    return cached


def packed_out_weights(cv: ComputeView) -> np.ndarray:
    """All live out-edge weights in row-major order (slack squeezed out).

    SSSP's delta pick needs a sequential ``cumsum`` over exactly the
    live weights in the order the packed view would store them.
    """
    weights = cv._packed_out_w
    if weights is None:
        if cv.packed:
            weights = cv.out_csr.weights
        else:
            csr, n = cv.out_csr, cv.num_nodes
            weights = csr.weights[flat_slots(csr.indptr[:n], csr.degrees[:n])]
        cv._packed_out_w = weights
    return weights


# ----------------------------------------------------------------------
# Frontier primitives
# ----------------------------------------------------------------------


def expand_frontier(
    csr: CSRArrays, frontier: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All adjacency rows of ``frontier``, in sequential iteration order.

    Returns ``(seg, nbr, wt)``: for row r, frontier position ``seg[r]``
    touches neighbor ``nbr[r]`` with weight ``wt[r]``.  ``seg`` is
    non-decreasing and rows within one position follow the view's
    neighbor order -- exactly the order a sequential per-vertex loop
    visits edges.  Robust to empty adjacency lists.
    """
    counts = csr.degrees[frontier]
    total = int(counts.sum())
    if total == 0:
        return _EMPTY_SEG, _EMPTY_IDS, _EMPTY_WEIGHTS
    ck = ckernels.get()
    if ck is not None:
        return ck.expand(csr, frontier, total)
    seg = np.repeat(np.arange(len(frontier), dtype=np.int64), counts)
    offsets = np.cumsum(counts) - counts  # exclusive prefix per position
    within = np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)
    flat = csr.indptr[frontier][seg] + within
    return seg, csr.indices[flat], csr.weights[flat]


# ----------------------------------------------------------------------
# INC: Algorithm 1
# ----------------------------------------------------------------------


def unique_ids(ids: np.ndarray, bound: int) -> np.ndarray:
    """``np.unique(ids)`` for vertex ids in ``[0, bound)``, without sorting.

    Marks a ``bound``-sized bool array and reads the marks back in
    order: linear in ``len(ids) + bound``, where ``np.unique`` sorts or
    hashes the (much longer, duplicate-heavy) endpoint columns.
    """
    seen = np.zeros(bound, dtype=bool)
    seen[ids] = True
    return np.flatnonzero(seen)


def as_frontier(affected, num_nodes: int) -> np.ndarray:
    """Normalize an affected set to a unique ascending int64 array."""
    if isinstance(affected, np.ndarray):
        arr = affected
    else:
        arr = np.fromiter(affected, dtype=np.int64)
    return unique_ids(arr[arr < num_nodes], num_nodes)


def _observe_frontiers(run: ComputeRun, frontier: str) -> None:
    """One ``compute_frontier_size`` observation per round of ``run``.

    ``frontier`` names the round-table column that is the round's
    frontier (``"pulled"`` for INC, ``"pushed"`` for the relaxations).
    """
    if METRICS.enabled:
        histogram = METRICS.histogram(
            "compute_frontier_size",
            "frontier size per compute-kernel round",
            buckets=DEFAULT_COUNT_BUCKETS,
            algorithm=run.algorithm,
            model=run.model,
        )
        for size in run.rounds[:, ROUND_COLUMNS.index(frontier)].tolist():
            histogram.observe(float(size))


def _append_run_log(
    run: ComputeRun, vlog: np.ndarray, table: np.ndarray, frontier: str
) -> None:
    """Hand a run kernel's log to ``run`` as it stands.

    ``vlog`` and ``table`` are the record's own two columns (see
    ``ckernels`` and :class:`~repro.compute.stats.ComputeRun`);
    ``frontier`` is :func:`_observe_frontiers`' column.
    """
    run.set_log(vlog, table)
    _observe_frontiers(run, frontier)


def _rounds_exceeded(algorithm_name: str, max_rounds: int) -> SimulationError:
    return SimulationError(
        f"incremental {algorithm_name} exceeded {max_rounds} rounds; "
        "the vertex function is probably not convergent"
    )


def run_incremental_frontier(
    cv: ComputeView,
    values: np.ndarray,
    affected,
    algorithm,
    source: Optional[int] = None,
    max_rounds: int = MAX_ROUNDS,
) -> ComputeRun:
    """Algorithm 1 over the graph's :class:`ComputeView` ``cv``.

    The paper's two incremental techniques: *processing amortization*
    (the run starts from the caller's ``values``, the previous batch's
    results) and *selective triggering* (the first round re-evaluates
    only the ``affected`` vertices; a vertex whose value changed by
    more than ``epsilon`` pushes its out-neighbors onto the next
    frontier, until no vertex is triggered).

    ``algorithm`` supplies the scalar vertex function ``recalculate(v,
    cv, values)`` (Table I), ``epsilon`` and source pinning.  Each round
    evaluates the ascending frontier one vertex at a time, Gauss-Seidel:
    a vertex reads the values of earlier vertices of its round as just
    written, and a pinned source keeps its value (it never triggers).
    The triggered vertices' out-rows are then expanded, and
    ``np.unique`` of the targets (the CAS-guarded visited bitvector of
    Algorithm 1) is the next frontier.

    When the algorithm declares a compiled vertex function
    (``ckernel_op``) and the compute kernels built, the whole run is
    one C call of this same loop that records itself in a run log
    (``ckernels.ComputeKernels.inc_run``).
    """
    n = cv.num_nodes
    run = ComputeRun(algorithm=algorithm.name, model="INC", values=values)
    run.linear_scans = 2
    epsilon = algorithm.epsilon
    pinned = source if algorithm.needs_source and source is not None else None
    frontier = as_frontier(affected, n)
    ck = ckernels.get()
    ck_op = getattr(algorithm, "ckernel_op", None)
    with TRACER.span(
        "compute.kernel", args={"algorithm": algorithm.name, "model": "INC"}
    ):
        if ck is not None and ck_op is not None:
            pin = int(pinned) if pinned is not None and pinned < n else -1
            pr_base, damping = algorithm.ckernel_constants(n)
            vlog, table, overran = ck.inc_run(
                cv, frontier, values, ck_op, epsilon, pin, pr_base, damping, max_rounds
            )
            if overran:
                raise _rounds_exceeded(algorithm.name, max_rounds)
            _append_run_log(run, vlog, table, frontier="pulled")
            return run
        recalculate = algorithm.recalculate
        rounds = 0
        while frontier.size:
            rounds += 1
            if rounds > max_rounds:
                raise _rounds_exceeded(algorithm.name, max_rounds)
            triggered = []
            for v in frontier.tolist():
                if v == pinned:
                    continue
                # Plain floats: inf - inf is a quiet NaN (an unreached
                # vertex staying unreached is not a change).
                old = float(values[v])
                new = float(recalculate(v, cv, values))
                values[v] = new
                if abs(old - new) > epsilon:
                    triggered.append(v)
            _, targets, _ = expand_frontier(cv.out_csr, np.array(triggered, np.int64))
            next_frontier = np.unique(targets)
            run.add_round(
                pull=frontier,
                push=triggered,
                pushes=int(next_frontier.size),
                cas_ops=int(targets.size),
            )
            frontier = next_frontier
        _observe_frontiers(run, "pulled")
    return run


def invalidate_frontier(
    cv: ComputeView,
    values: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    weight: np.ndarray,
    supports_batch: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    init_fn,
    pinned=(),
) -> np.ndarray:
    """KickStarter-style invalidation for deletion batches.

    Algorithm 1 assumes edge *insertions*: for a monotone vertex
    function, values only improve, so recomputing affected vertices
    converges.  After a *deletion*, a vertex's stored value may rest on
    a path that no longer exists, and plain recomputation can keep such
    stale values alive through cycles of mutual support (a vertex and
    its downstream neighbors vouching for each other's dead values).

    The sound fix (the trimming idea of KickStarter): flag every
    deletion target whose stored value *could* have been derived
    through the deleted edge -- ``supports_batch(src_values, weights,
    dst_values)`` is the algorithm's derivation test -- then
    over-approximate the tainted region by the flagged vertices'
    forward closure over the out-CSR (a value derived through a tainted
    vertex lies in that closure by construction), reset the region to
    ``init_fn``, and let a normal incremental run re-derive it from the
    still-valid boundary.  Returns the tainted vertex ids ascending.
    """
    n = cv.num_nodes
    pinned_mask = np.zeros(n, dtype=bool)
    for p in pinned:
        if 0 <= p < n:
            pinned_mask[p] = True
    tainted = np.zeros(n, dtype=bool)
    if len(src):
        eligible = (dst < n) & ~pinned_mask[np.minimum(dst, n - 1)] if n else dst < n
        if eligible.any():
            es, ed, ew = src[eligible], dst[eligible], weight[eligible]
            supported = supports_batch(values[es], ew, values[ed])
            tainted[ed[supported]] = True
    ck = ckernels.get()
    if ck is not None:
        ck.taint_closure(cv.out_csr, tainted, pinned_mask)
    else:
        frontier = np.nonzero(tainted)[0]
        while frontier.size:
            _, targets, _ = expand_frontier(cv.out_csr, frontier)
            fresh = targets[~(tainted[targets] | pinned_mask[targets])]
            if fresh.size == 0:
                break
            fresh = np.unique(fresh)
            tainted[fresh] = True
            frontier = fresh
    ids = np.nonzero(tainted)[0]
    if ids.size:
        values[ids] = init_fn(ids)
    return ids


# ----------------------------------------------------------------------
# FS: push-style relaxation kernels (BFS, SSWP, SSSP passes)
# ----------------------------------------------------------------------


def frontier_relaxation_kernel(
    cv: ComputeView,
    values: np.ndarray,
    source: int,
    relax: Callable[[float, float], float],
    better: Callable[[float, float], bool],
    optimize: str,
    algorithm: str,
    relax_op: Optional[int] = None,
) -> ComputeRun:
    """Round-based push-style relaxation from ``source`` (BFS, SSWP).

    Each round scans the out-edges of the active frontier in order; a
    neighbor whose tentative value improves (``better(relax(base,
    weight), current)``, scalars) takes it, and joins the next frontier
    on its first improvement of the round.  ``relax_op`` is the
    compiled twin of ``relax`` (a ``ckernels.RELAX_*`` code, ``optimize``
    its direction, "min" or "max"); when given and the compute kernels
    built, the whole run is one C call of this loop, recorded in a run
    log.
    """
    run = ComputeRun(algorithm=algorithm, model="FS", values=values, source=source)
    run.linear_scans = 1
    if source >= cv.num_nodes:
        return run
    ck = ckernels.get() if relax_op is not None else None
    with TRACER.span("compute.kernel", args={"algorithm": algorithm, "model": "FS"}):
        if ck is not None:
            vlog, table = ck.relax_run(
                cv.out_csr,
                cv.num_nodes,
                np.array([source], dtype=np.int64),
                values,
                relax_op,
                optimize == "max",
            )
            _append_run_log(run, vlog, table, frontier="pushed")
            return run
        frontier = [source]
        while frontier:
            next_frontier = []
            improved = set()
            for v in frontier:
                base = values[v]
                for w, weight in cv.out_neigh(v):
                    candidate = relax(base, weight)
                    if better(candidate, values[w]):
                        values[w] = candidate
                        if w not in improved:
                            improved.add(w)
                            next_frontier.append(w)
            run.add_round(
                push=frontier,
                pushes=len(next_frontier),
                cas_ops=len(next_frontier),
            )
            frontier = next_frontier
        _observe_frontiers(run, "pushed")
    return run

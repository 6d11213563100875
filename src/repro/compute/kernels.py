"""Vectorized compute-phase kernels: columnar CSR views + frontier ops.

PR 2 made the *update* phase columnar; this module does the same for
the *compute* phase.  Algorithm 1 and the push-style FS relaxations
run frontier-at-a-time over a :class:`ComputeView` -- indptr /
indices / weights CSR arrays exported by every graph structure or
maintained per batch by the streaming driver -- in the GraphBolt /
KickStarter shape: expand the frontier with ``np.repeat``, gather
neighbor values, reduce with segment operations.

The specification is the sequential per-vertex loop (kept as the
oracle in ``tests/oracles.py``), and the kernels are **bit-identical**
to it: same float values, same per-round vertex arrays, same
triggered counts, and therefore the same priced cycles.  Two
things make that non-trivial:

1. **Sequential in-round semantics.**  Algorithm 1 is Gauss-Seidel
   within a round: a vertex late in the iteration order observes the
   *updated* values of vertices processed earlier in the same round.
   The INC engine reproduces this with *dependency-level waves*
   (:func:`dependency_levels`): a wave evaluates its vertices from the
   values as they stand, then writes all of them back, and a vertex
   sits in a strictly later wave than every earlier-positioned
   in-neighbor whose new value it must see.  The push-style passes
   use contiguous *prefix waves* (:func:`prefix_waves`) instead.
2. **Sequential float accumulation.**  ``np.add.reduce`` and
   ``np.add.reduceat`` use pairwise summation, which is *not* the
   bit pattern of a sequential Python ``+=`` loop.  ``np.bincount``
   and ``np.cumsum`` are sequential, so ordered segment sums (PR) use
   ``bincount`` and whole-array sums (SSSP's delta pick) ``cumsum``.
   Min/max reductions are order-free bitwise and use ``reduceat``.

The numpy engines here are the reference for, and the fallback without
the native library of, the compiled run kernels in
:mod:`repro.compute.ckernels`.
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.compute import ckernels
from repro.compute.stats import ROUND_COLUMNS, ComputeRun
from repro.errors import SimulationError
from repro.obs.metrics import DEFAULT_COUNT_BUCKETS, METRICS
from repro.obs.tracer import TRACER

#: The paper's triggering threshold (Algorithm 1 line 1).
DEFAULT_EPSILON = 1e-7

#: Safety valve: no algorithm here needs anywhere near this many rounds.
MAX_ROUNDS = 10_000

_EMPTY_I64 = np.empty(0, dtype=np.int64)
_EMPTY_F64 = np.empty(0, dtype=np.float64)


# ----------------------------------------------------------------------
# Columnar views
# ----------------------------------------------------------------------


class CSRArrays(NamedTuple):
    """One direction of adjacency in CSR form.

    ``indices[indptr[u] : indptr[u] + degrees[u]]`` are u's neighbors
    in the exact order the source view iterates them (required for
    bit-identity of sequential accumulations); ``weights`` is parallel
    to ``indices``.  Rows are usually packed (``degrees`` is
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
    """
    keys = src if by_src else dst
    vals = dst if by_src else src
    order = np.argsort(keys, kind="stable")
    counts = np.bincount(keys, minlength=num_nodes).astype(np.int64)
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return CSRArrays(
        indptr=indptr,
        indices=vals[order],
        weights=weight[order],
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

    @property
    def out_degree(self) -> np.ndarray:
        return self.out_csr.degrees

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


def csr_from_pair_rows(rows, num_nodes: int) -> CSRArrays:
    """:class:`CSRArrays` from materialized per-vertex pair rows.

    ``rows`` is an indexable sequence of ``len()``-able ``(neighbor,
    weight)`` collections, one per vertex id, so the columns come from
    one bulk ``np.array`` conversion instead of a per-pair Python loop.
    Neighbor ids survive the float64 round trip exactly (they are far
    below 2**53).
    """
    counts = np.fromiter(
        (len(rows[u]) for u in range(num_nodes)), dtype=np.int64, count=num_nodes
    )
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    total = int(indptr[-1])
    if total == 0:
        return CSRArrays(indptr, _EMPTY_I64, _EMPTY_F64, counts)
    flat = np.array(
        [pair for u in range(num_nodes) for pair in rows[u]], dtype=np.float64
    ).reshape(total, 2)
    return CSRArrays(
        indptr=indptr,
        indices=flat[:, 0].astype(np.int64),
        weights=np.ascontiguousarray(flat[:, 1]),
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
        dst = np.repeat(np.arange(n, dtype=np.int64), csr.degrees[:n])
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
        return _EMPTY_I64, _EMPTY_I64, _EMPTY_F64
    ck = ckernels.get()
    if ck is not None:
        return ck.expand(csr, frontier, total)
    seg = np.repeat(np.arange(len(frontier), dtype=np.int64), counts)
    offsets = np.cumsum(counts) - counts  # exclusive prefix per position
    within = np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)
    flat = csr.indptr[frontier][seg] + within
    return seg, csr.indices[flat], csr.weights[flat]


def segment_min(terms: np.ndarray, counts: np.ndarray, identity: float) -> np.ndarray:
    """Per-segment minimum with ``identity`` for empty segments.

    ``terms`` holds the segments back to back; ``counts[i]`` is segment
    i's length.  Min is order-free bitwise, so ``reduceat`` is safe
    (only the starts of non-empty segments are passed, which makes the
    spans between consecutive starts cover exactly one segment each).
    """
    return _segment_reduce(np.minimum, terms, counts, identity)


def segment_max(terms: np.ndarray, counts: np.ndarray, identity: float) -> np.ndarray:
    """Per-segment maximum with ``identity`` for empty segments."""
    return _segment_reduce(np.maximum, terms, counts, identity)


def _segment_reduce(op, terms, counts, identity):
    out = np.full(len(counts), identity, dtype=np.float64)
    if terms.size == 0 or len(counts) == 0:
        return out
    nonempty = counts > 0
    starts = np.cumsum(counts) - counts
    out[nonempty] = op.reduceat(terms, starts[nonempty])
    return out


def segment_sum_ordered(
    terms: np.ndarray, seg: np.ndarray, num_segments: int
) -> np.ndarray:
    """Per-segment sum accumulating in row order (sequential bit pattern).

    ``np.bincount`` adds elements into each bin in array order, so the
    result carries the same float bits as a Python ``+=`` loop over the
    rows -- unlike ``np.add.reduceat``, which sums pairwise.
    """
    if terms.size == 0:
        return np.zeros(num_segments, dtype=np.float64)
    return np.bincount(seg, weights=terms, minlength=num_segments)


def prefix_waves(
    size: int, dep_src: np.ndarray, dep_dst: np.ndarray
) -> List[Tuple[int, int]]:
    """Cut positions ``0..size`` into sequentially-safe contiguous waves.

    A dependency ``(p, q)`` with ``p < q`` means position q must run in
    a strictly later wave than position p (q reads a value p writes).
    Waves are *prefix ranges*: contiguity guarantees both directions of
    the sequential contract -- a dependent position runs after its
    writer, and a position's inputs are read before any later position
    overwrites them.  A greedy "ready set" partition would violate the
    second property.

    Each wave starts at the previous cut s and ends before the first
    position q > s whose latest writer ``maxdep[q]`` lies at or after
    s.  ``maxdep[q] < q`` always, so every wave is non-empty.
    """
    if size <= 1 or len(dep_src) == 0:
        return [(0, size)] if size else []
    maxdep = np.full(size, -1, dtype=np.int64)
    np.maximum.at(maxdep, dep_dst, dep_src)
    waves: List[Tuple[int, int]] = []
    start = 0
    while start < size:
        tail = maxdep[start + 1 :]
        violating = tail >= start
        end = start + 1 + int(np.argmax(violating)) if violating.any() else size
        waves.append((start, end))
        start = end
    return waves


def dependency_levels(
    size: int,
    fwd_src: np.ndarray,
    fwd_dst: np.ndarray,
    anti_src: np.ndarray,
    anti_dst: np.ndarray,
) -> np.ndarray:
    """Exact sequential-equivalence levels for one Gauss-Seidel round.

    Position q of an (ascending, unique) frontier must observe the new
    value of every in-frontier in-neighbor at an earlier position
    (forward dependency: ``lvl[q] > lvl[p]``) and the *old* value of
    every in-frontier in-neighbor at a later position (anti dependency:
    the later writer runs no earlier, ``lvl[writer] >= lvl[reader]``;
    equality is safe because a wave gathers all inputs before it
    writes).  The least fixpoint of those constraints is the longest
    dependency-chain depth -- far fewer waves than contiguous prefix
    cuts, which split on *positions* rather than chains.

    Monotone iteration to the fixpoint: each sweep extends every chain
    by at least one step, so the sweep count is the final depth + 1.
    """
    lvl = np.zeros(size, dtype=np.int64)
    if fwd_src.size == 0:
        return lvl
    if anti_src.size:
        src = np.concatenate([fwd_src, anti_src])
        dst = np.concatenate([fwd_dst, anti_dst])
        bump = np.zeros(src.size, dtype=np.int64)
        bump[: fwd_src.size] = 1
    else:
        src, dst, bump = fwd_src, fwd_dst, 1
    before = np.int64(-1)
    while True:
        np.maximum.at(lvl, dst, lvl[src] + bump)
        # Levels only grow, so an unchanged sum means a fixpoint.
        total = lvl.sum()
        if total == before:
            return lvl
        before = total


def writer_reader_deps(
    frontier: np.ndarray, writer_pos: np.ndarray, writer_tgt: np.ndarray, size: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Forward dependencies of push-style rounds (FS relaxation).

    Row r at frontier position ``writer_pos[r]`` may write vertex
    ``writer_tgt[r]``; frontier position q reads the base value of
    ``frontier[q]`` at its turn.  Returns ``(dep_src, dep_dst)`` pairs
    ``(p, q)`` where p is the *latest* writer position below q that
    targets ``frontier[q]`` -- sufficient for :func:`prefix_waves`.
    Handles duplicate frontier entries (SSSP's settled list may revisit
    a vertex), which is why this is a sorted join rather than a single
    position scatter.
    """
    if writer_pos.size == 0 or size <= 1:
        return _EMPTY_I64, _EMPTY_I64
    order = np.lexsort((writer_pos, writer_tgt))
    tgt_sorted = writer_tgt[order]
    pos_sorted = writer_pos[order]
    # Composite key (target, writer position): positions are < size, so
    # target * size + position sorts by target then position.
    keys = tgt_sorted * size + pos_sorted
    positions = np.arange(size, dtype=np.int64)
    queries = frontier * size + positions
    idx = np.searchsorted(keys, queries)
    group_start = np.searchsorted(tgt_sorted, frontier)
    has_dep = idx > group_start
    dep_dst = positions[has_dep]
    dep_src = pos_sorted[idx[has_dep] - 1]
    return dep_src, dep_dst


# ----------------------------------------------------------------------
# INC: frontier-at-a-time Algorithm 1
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
        arr = affected.astype(np.int64, copy=False)
    else:
        arr = np.fromiter(affected, dtype=np.int64)
    return unique_ids(arr[arr < num_nodes], num_nodes)


def _observe_frontiers(run: ComputeRun, sizes) -> None:
    """Per-round frontier accounting: run totals + optional histogram.

    ``sizes`` holds one frontier size per round.  The run totals
    (``frontier_rounds`` / ``frontier_vertices``) are two integer adds,
    so they stay on even when observability is off.
    """
    run.frontier_rounds += len(sizes)
    run.frontier_vertices += int(sum(sizes))
    if METRICS.enabled:
        histogram = METRICS.histogram(
            "compute_frontier_size",
            "frontier size per compute-kernel round",
            buckets=DEFAULT_COUNT_BUCKETS,
            algorithm=run.algorithm,
            model=run.model,
        )
        for size in sizes:
            histogram.observe(float(size))


def _observe_frontier(run: ComputeRun, size: int) -> None:
    """One round's :func:`_observe_frontiers` (the round-at-a-time engines)."""
    _observe_frontiers(run, (size,))


def _observe_expansion(run: ComputeRun, edges: int) -> None:
    """Record one round's expanded-edge count (numpy paths only --
    the fused C rounds never materialize the expansion)."""
    if METRICS.enabled:
        METRICS.histogram(
            "compute_expanded_edges",
            "edges expanded per compute-kernel round",
            buckets=DEFAULT_COUNT_BUCKETS,
            algorithm=run.algorithm,
            model=run.model,
        ).observe(float(edges))


def _append_run_log(
    run: ComputeRun, vlog: np.ndarray, table: np.ndarray, frontier: str
) -> None:
    """Hand a run kernel's log to ``run`` as it stands.

    ``vlog`` and ``table`` are the record's own two columns (see
    ``ckernels`` and :class:`~repro.compute.stats.ComputeRun`);
    ``frontier`` names the table column that is the round's frontier
    (``"pulled"`` for INC, ``"pushed"`` for the relaxations).
    """
    _observe_frontiers(run, table[:, ROUND_COLUMNS.index(frontier)].tolist())
    run.set_log(vlog, table)


def _rounds_exceeded(algorithm_name: str, max_rounds: int) -> SimulationError:
    return SimulationError(
        f"incremental {algorithm_name} exceeded {max_rounds} rounds; "
        "the vertex function is probably not convergent"
    )


def run_incremental_frontier(
    view,
    values: np.ndarray,
    affected,
    algorithm,
    source: Optional[int] = None,
    max_rounds: int = MAX_ROUNDS,
    cv: Optional[ComputeView] = None,
) -> ComputeRun:
    """Algorithm 1, one frontier at a time (bit-identical to the loop).

    The paper's two incremental techniques: *processing amortization*
    (the run starts from the caller's ``values``, the previous batch's
    results) and *selective triggering* (the first round re-evaluates
    only the ``affected`` vertices; a vertex whose value changed by
    more than ``epsilon`` pushes its out-neighbors onto the next
    frontier, until no vertex is triggered).

    ``view`` is the graph (or its :class:`ComputeView`): the run reads
    ``cv`` (``ComputeView.of(view)`` unless the caller resolved it), and
    a vertex function that walks the graph itself (a third-party scalar
    ``recalculate``) gets ``view``.
    ``algorithm`` supplies ``recalculate_batch`` (the Table I vertex
    function over a wave), ``epsilon``, and source pinning.  Per round:
    expand the ascending frontier over the in-CSR, schedule it into
    dependency-level waves so Gauss-Seidel reads see exactly the values
    the sequential loop would, recalculate wave-at-a-time, then derive
    ``triggered``/``cas_ops``/``pushes`` from vectorized masks over the
    out-expansion (the CAS-guarded visited bitvector of Algorithm 1
    becomes ``np.unique``).

    When the algorithm declares a compiled vertex function
    (``ckernel_op``) and the compute kernels built, the whole run --
    every round's expansion, Gauss-Seidel recalculation, trigger test
    and next-frontier dedup -- is one C call that records itself in a
    run log (``ckernels.ComputeKernels.inc_run``): the C loop IS
    sequential, so the wave machinery (whose entire purpose is
    reproducing sequential reads with vector ops) disappears rather
    than being translated, and the log is the run's record as it stands.
    """
    cv = ComputeView.of(view) if cv is None else cv
    n = cv.num_nodes
    run = ComputeRun(algorithm=algorithm.name, model="INC", values=values)
    run.linear_scans = 2
    epsilon = algorithm.epsilon
    pinned = source if algorithm.needs_source and source is not None else None
    frontier = as_frontier(affected, n)
    ck = ckernels.get()
    ck_op = getattr(algorithm, "ckernel_op", None)
    if ck is not None and ck_op is not None:
        pin = int(pinned) if pinned is not None and pinned < n else -1
        pr_base, damping = algorithm.ckernel_constants(n)
        with TRACER.span(
            "compute.kernel", args={"algorithm": algorithm.name, "model": "INC"}
        ):
            vlog, table, overran = ck.inc_run(
                cv, frontier, values, ck_op, epsilon, pin, pr_base, damping, max_rounds
            )
            if overran:
                raise _rounds_exceeded(algorithm.name, max_rounds)
            _append_run_log(run, vlog, table, frontier="pulled")
        return run
    rounds = 0
    with TRACER.span(
        "compute.kernel", args={"algorithm": algorithm.name, "model": "INC"}
    ):
        while frontier.size:
            rounds += 1
            if rounds > max_rounds:
                raise _rounds_exceeded(algorithm.name, max_rounds)
            _observe_frontier(run, frontier.size)
            k = frontier.size
            seg, nbr, nwt = expand_frontier(cv.in_csr, frontier)
            _observe_expansion(run, nbr.size)
            # Forward deps: reading an in-neighbor that sits earlier in
            # this (ascending, unique) frontier sees its new value.
            position = np.full(n, -1, dtype=np.int64)
            position[frontier] = np.arange(k, dtype=np.int64)
            pin_pos = int(position[pinned]) if pinned is not None and pinned < n else -1
            writer = position[nbr]
            in_front = writer >= 0
            forward = in_front & (writer < seg)
            # inf - inf (unreached stays unreached) is NaN: not a
            # change, exactly as the scalar engine treats it.
            with np.errstate(invalid="ignore"):
                if not forward.any():
                    # No position reads an earlier position's write:
                    # the whole round is one wave.
                    old = values[frontier].copy()
                    new = algorithm.recalculate_batch(
                        frontier, cv, values, (seg, nbr, nwt), view
                    )
                    if pin_pos >= 0:
                        # The source keeps its pinned value: old ==
                        # new, so it never triggers (matching the
                        # scalar closure).
                        new[pin_pos] = values[pinned]
                    values[frontier] = new
                    changed = np.abs(old - new) > epsilon
                else:
                    anti = in_front & (writer > seg)
                    lvl = dependency_levels(
                        k, writer[forward], seg[forward], seg[anti], writer[anti]
                    )
                    order = np.argsort(lvl, kind="stable")
                    levels, pos_counts = np.unique(lvl, return_counts=True)
                    pos_ends = np.cumsum(pos_counts)
                    row_lvl = lvl[seg]
                    row_order = np.argsort(row_lvl, kind="stable")
                    row_ends = np.searchsorted(
                        row_lvl[row_order], levels, side="right"
                    )
                    changed = np.zeros(k, dtype=bool)
                    pa = ra = 0
                    for w in range(levels.size):
                        pb, rb = int(pos_ends[w]), int(row_ends[w])
                        # Stable sorts keep both slices ascending, so
                        # the wave's vertices stay in frontier order
                        # and each vertex's rows keep their edge order.
                        wave_pos = order[pa:pb]
                        rows = row_order[ra:rb]
                        ids = frontier[wave_pos]
                        old = values[ids].copy()
                        new = algorithm.recalculate_batch(
                            ids,
                            cv,
                            values,
                            (
                                np.searchsorted(wave_pos, seg[rows]),
                                nbr[rows],
                                nwt[rows],
                            ),
                            view,
                        )
                        if pin_pos >= 0 and lvl[pin_pos] == levels[w]:
                            new[
                                int(np.searchsorted(wave_pos, pin_pos))
                            ] = values[pinned]
                        values[ids] = new
                        changed[wave_pos] = np.abs(old - new) > epsilon
                        pa, ra = pb, rb
            triggered = frontier[changed]
            _, targets, _ = expand_frontier(cv.out_csr, triggered)
            next_frontier = np.unique(targets)
            run.add_round(
                pull=frontier,
                push=triggered,
                pushes=int(next_frontier.size),
                cas_ops=int(targets.size),
            )
            frontier = next_frontier
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


def relax_pass(
    cv: ComputeView,
    values: np.ndarray,
    frontier: np.ndarray,
    relax: Callable[[np.ndarray, np.ndarray], np.ndarray],
    optimize: str,
    edge_mask: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One sequential-order relaxation pass over ``frontier``.

    Expands the frontier's out-edges (optionally filtered by
    ``edge_mask`` over the weights -- delta-stepping's light/heavy
    split), schedules prefix waves so each relaxer's *base* value
    reflects exactly the in-round updates the sequential loop would
    have applied, and scatter-min/maxes the candidates into ``values``.

    Returns ``(candidates, targets, start_values)`` per row in
    sequential relaxation order; the final values are already applied
    (min/max scatter equals the sequential conditional update), and the
    row arrays let callers reconstruct order-dependent bookkeeping
    (first improvements, relaxation events) exactly.
    """
    seg, tgt, wts = expand_frontier(cv.out_csr, frontier)
    if edge_mask is not None and seg.size:
        keep = edge_mask(wts)
        seg, tgt, wts = seg[keep], tgt[keep], wts[keep]
    start_values = values[tgt]  # gathered before any in-pass write
    candidates = np.empty(seg.size, dtype=np.float64)
    dep_src, dep_dst = writer_reader_deps(frontier, seg, tgt, len(frontier))
    scatter = np.minimum if optimize == "min" else np.maximum
    for a, b in prefix_waves(len(frontier), dep_src, dep_dst):
        lo = int(np.searchsorted(seg, a, side="left"))
        hi = int(np.searchsorted(seg, b, side="left"))
        if lo == hi:
            continue
        base = values[frontier[seg[lo:hi]]]
        cand = relax(base, wts[lo:hi])
        candidates[lo:hi] = cand
        scatter.at(values, tgt[lo:hi], cand)
    return candidates, tgt, start_values


def first_improvements(
    candidates: np.ndarray,
    targets: np.ndarray,
    start_values: np.ndarray,
    better: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> np.ndarray:
    """Rows where a target first improves, in sequential order.

    In a monotone pass a target's value stays at its start value until
    the first candidate strictly better than it, so the sequential
    "append on first improvement" frontier is exactly: per target, the
    earliest row whose candidate beats the start value; rows sorted
    ascending reproduce the append order.
    """
    improving = np.nonzero(better(candidates, start_values))[0]
    if improving.size == 0:
        return _EMPTY_I64
    order = np.argsort(targets[improving], kind="stable")
    tgt_sorted = targets[improving][order]
    rows_sorted = improving[order]
    first = np.ones(tgt_sorted.size, dtype=bool)
    first[1:] = tgt_sorted[1:] != tgt_sorted[:-1]
    return np.sort(rows_sorted[first])


def relaxation_events(
    candidates: np.ndarray,
    targets: np.ndarray,
    start_values: np.ndarray,
    minimize: bool = True,
) -> np.ndarray:
    """Rows that would win a sequential compare-and-update, in order.

    A sequential loop counts a push whenever ``candidate`` beats the
    target's *current* value, which during a pass equals the best of
    its start value and all earlier candidates.  Computed exactly with
    a target-grouped exclusive running min/max: group rows by target
    (stable, preserving sequential order), seed each group with the
    start value, and scan with Hillis-Steele doubling (min/max are
    idempotent, so the shifted-inclusive scan is exact).
    """
    m = candidates.size
    if m == 0:
        return _EMPTY_I64
    order = np.argsort(targets, kind="stable")
    cand = candidates[order]
    tgt = targets[order]
    seed = start_values[order]
    new_group = np.ones(m, dtype=bool)
    new_group[1:] = tgt[1:] != tgt[:-1]
    group = np.cumsum(new_group) - 1
    combine = np.minimum if minimize else np.maximum
    identity = np.inf if minimize else -np.inf
    # Exclusive scan: each row sees the best of the group's earlier
    # candidates (identity at group starts), then fold in the seed.
    shifted = np.empty(m, dtype=np.float64)
    shifted[0] = identity
    shifted[1:] = np.where(new_group[1:], identity, cand[:-1])
    step = 1
    while step < m:
        same = group[step:] == group[:-step]
        shifted[step:] = combine(
            shifted[step:], np.where(same, shifted[:-step], identity)
        )
        step *= 2
    running = combine(seed, shifted)
    wins = cand < running if minimize else cand > running
    return np.sort(order[np.nonzero(wins)[0]])


def frontier_relaxation_kernel(
    cv: ComputeView,
    values: np.ndarray,
    source: int,
    relax: Callable[[np.ndarray, np.ndarray], np.ndarray],
    better: Callable[[np.ndarray, np.ndarray], np.ndarray],
    optimize: str,
    algorithm: str,
    relax_op: Optional[int] = None,
) -> ComputeRun:
    """Round-based push-style relaxation from ``source`` (BFS, SSWP).

    Each round scans the out-edges of the active frontier; a neighbor
    whose tentative value improves joins the next frontier.  ``relax``
    and ``better`` take numpy arrays; ``optimize`` names the scatter
    direction ("min" or "max").  ``relax_op`` is the compiled twin of
    ``relax`` (a ``ckernels.RELAX_*`` code); when given and the compute
    kernels built, the whole run is one C call of sequential passes --
    relaxation, update, and first-improvement discovery fused, in the
    exact order a per-edge loop runs -- recorded in a run log.
    """
    run = ComputeRun(algorithm=algorithm, model="FS", values=values, source=source)
    run.linear_scans = 1
    if source >= cv.num_nodes:
        return run
    frontier = np.array([source], dtype=np.int64)
    ck = ckernels.get() if relax_op is not None else None
    with TRACER.span("compute.kernel", args={"algorithm": algorithm, "model": "FS"}):
        if ck is not None:
            vlog, table = ck.relax_run(
                cv.out_csr, cv.num_nodes, frontier, values, relax_op, optimize == "max"
            )
            _append_run_log(run, vlog, table, frontier="pushed")
            return run
        while frontier.size:
            _observe_frontier(run, frontier.size)
            candidates, targets, start_values = relax_pass(
                cv, values, frontier, relax, optimize
            )
            _observe_expansion(run, candidates.size)
            rows = first_improvements(candidates, targets, start_values, better)
            next_frontier = targets[rows]
            run.add_round(
                push=frontier,
                pushes=int(next_frontier.size),
                cas_ops=int(next_frontier.size),
            )
            frontier = next_frontier
    return run

"""Bit-identity of the compiled compute kernels vs their Python references.

Every C kernel in ``repro.compute.ckernels`` must reproduce the Python
path it replaces *exactly* -- the numpy array kernels and the
sequential compute loops: identical float64 bits and identical run
logs -- because the simulated latencies the benchmark reports are
priced from those numbers.  Each kernel is exercised through its real
dispatch site (the public ``repro.compute.kernels`` functions and the
algorithm engines) under two settings of ``SAGA_BENCH_NO_NATIVE``: the
native library, and every Python reference.  The values both agree on
are checked by ``repro.verify`` as well.

The suite skips (with a reason) when the native library is
unavailable -- no working C compiler -- except for the switch and
loader tests, which need no library at all.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.algorithms import get_algorithm
from repro.algorithms.pagerank import DAMPING
from repro.algorithms.sssp import SSSP
from repro.compute import ckernels
from repro.compute.csrstore import DynamicCSR
from repro.compute.kernels import (
    ComputeView,
    csr_from_edges,
    expand_frontier,
    packed_in_edges,
    run_incremental_frontier,
)
from repro.errors import SimulationError
from repro.graph import EdgeBatch, ReferenceGraph
from repro.obs import METRICS
from repro.sim import cbuild, cingest, ckernel
from tests import test_compute_pricing, test_hardware_profile_units
from tests.conftest import native_env, observed, ubsan_probe, verified
from tests.oracles import DictGraph
from tests.test_compute_kernels import play

ALGOS = ("BFS", "CC", "MC", "PR", "SSSP", "SSWP")

needs_ckernels = pytest.mark.skipif(
    not ckernels.loaded(),
    reason="compiled compute kernels unavailable (no working C compiler)",
)


def _both_paths(fn):
    """Evaluate ``fn`` on the compiled path and the numpy fallback."""
    with native_env(None):
        assert ckernels.loaded()
        compiled = fn()
    with native_env("1"):
        assert not ckernels.loaded()
        fallback = fn()
    return compiled, fallback


def _typed(*arrays):
    """Each array's dtype and bytes: equal values of another width differ."""
    return [(array.dtype, array.tobytes()) for array in arrays]


def _random_edges(num_nodes, num_edges, seed):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, num_nodes, size=num_edges).astype(np.int64)
    dst = rng.integers(0, num_nodes, size=num_edges).astype(np.int64)
    wt = np.round(rng.uniform(0.5, 4.0, size=num_edges), 2)
    return src, dst, wt


def _slack_csr(num_nodes, src, dst, wt, delete_first=0):
    """A genuinely-slack CSR: rebuild + append + optional deletions."""
    store = DynamicCSR(num_nodes)
    half = len(src) // 2
    store.rebuild(src[:half], dst[:half], wt[:half])
    store.insert(src[half:], dst[half:], wt[half:])
    if delete_first:
        store.delete(src[:delete_first], dst[:delete_first])
    return store


class TestDirectKernels:
    """The array kernels, through their public dispatch sites: the
    frontier expansion compiled and in numpy."""

    @needs_ckernels
    def test_expand_packed_and_slack(self):
        num_nodes = 40
        src, dst, wt = _random_edges(num_nodes, 200, seed=5)
        # Unique pairs only, so the slack store and the packed rebuild
        # describe the same multiset of edges.
        _, keep = np.unique(src * num_nodes + dst, return_index=True)
        keep.sort()
        src, dst, wt = src[keep], dst[keep], wt[keep]
        store = _slack_csr(num_nodes, src, dst, wt)
        packed = csr_from_edges(src, dst, wt, num_nodes, by_src=True)
        assert store.check_against(packed, num_nodes)
        frontier = np.unique(src)[::2].astype(np.int64)
        for csr in (packed, store.export(num_nodes)):
            (c_seg, c_nbr, c_wt), (n_seg, n_nbr, n_wt) = _both_paths(
                lambda csr=csr: expand_frontier(csr, frontier)
            )
            assert _typed(c_seg, c_nbr, c_wt) == _typed(n_seg, n_nbr, n_wt)

    @needs_ckernels
    def test_expand_empty_frontier_and_single_vertex(self):
        csr = csr_from_edges(
            np.array([0], dtype=np.int64),
            np.array([0], dtype=np.int64),
            np.array([2.5]),
            1,
            by_src=True,
        )
        for frontier in (np.empty(0, dtype=np.int64), np.array([0], dtype=np.int64)):
            compiled, fallback = _both_paths(
                lambda f=frontier: expand_frontier(csr, f)
            )
            assert _typed(*compiled) == _typed(*fallback)

    @needs_ckernels
    def test_expand_all_deleted_edges(self):
        """Frontier rows whose every edge was deleted expand to nothing."""
        num_nodes = 10
        src = np.arange(num_nodes, dtype=np.int64)
        dst = (src + 1) % num_nodes
        wt = np.ones(num_nodes)
        store = _slack_csr(num_nodes, src, dst, wt, delete_first=num_nodes)
        assert store.live == 0
        frontier = np.arange(num_nodes, dtype=np.int64)
        compiled, fallback = _both_paths(
            lambda: expand_frontier(store.export(num_nodes), frontier)
        )
        assert compiled[0].size == 0
        assert _typed(*compiled) == _typed(*fallback)

    @needs_ckernels
    def test_lookup_known_answers(self):
        """``DynamicCSR.lookup`` on a slack store whose row 0 keeps a
        deleted pair in its slack: first rows, live pairs and stored
        weights, the same compiled and in numpy.

        Fails on: the last occurrence owning a pair (row 3 first); a
        row scanned past its length (``(0, 2)`` live).
        """

        def run():
            store = DynamicCSR(4)
            store.rebuild(
                np.array([0, 0, 1]), np.array([1, 2, 3]), np.array([0.5, 1.5, 2.5])
            )
            store.delete(np.array([0]), np.array([2]))
            first, live, weight = store.lookup(
                np.array([0, 1, 0, 0, 3]), np.array([2, 3, 1, 2, 0])
            )
            return first.tolist(), live.tolist(), weight.tolist()

        compiled, fallback = _both_paths(run)
        assert compiled == fallback == (
            [True, True, True, False, True],
            [False, True, True, False, False],
            [0.0, 2.5, 0.5, 0.0, 0.0],
        )

    @needs_ckernels
    def test_one_lookup_and_one_fold_per_collect(self):
        """A collect crosses into C once for its lookup and folds the
        rows it keeps with one ``ViewMaintainer.apply``: a churned
        batch's insert and delete are two of each."""
        batch = EdgeBatch.from_edges([(0, 1, 1.0), (1, 2, 2.0), (0, 1, 3.0)])
        METRICS.reset()
        METRICS.enable()
        try:
            graph = ReferenceGraph(4)
            graph.update_collect(batch)
            graph.delete_collect(batch.slice(0, 1))
            lookups = METRICS.value("compute_kernel_calls_total", kernel="csr_lookup")
        finally:
            METRICS.disable()
            METRICS.reset()
        assert (int(lookups), graph._adjacency.version, graph.num_edges) == (2, 2, 1)


@needs_ckernels
class TestFusedKernels:
    """The four run kernels through whole algorithm runs on degenerate
    graphs (ordinary streams are ``TestBitIdentityMatrix``'s, in
    ``tests/test_compute_kernels.py``)."""

    def test_single_vertex_graph(self):
        def run():
            reference = ReferenceGraph(1, directed=True)
            reference.update_collect(EdgeBatch.from_edges([(0, 0, 1.5)]))
            return [
                observed(get_algorithm(a).fs_run(reference, source=0))
                for a in ALGOS
            ]

        compiled, fallback = _both_paths(run)
        assert compiled == fallback

    def test_empty_affected_set(self):
        def run():
            reference = ReferenceGraph(8, directed=True)
            reference.update_collect(
                EdgeBatch.from_edges([(i, i + 1, 1.0) for i in range(7)])
            )
            out = []
            for a in ALGOS:
                algorithm = get_algorithm(a)
                state = algorithm.make_state(8)
                out.append(
                    observed(
                        algorithm.inc_run(reference, state, set(), source=0)
                    )
                )
            return out

        compiled, fallback = _both_paths(run)
        assert compiled == fallback

    def test_fully_deleted_graph(self):
        def run():
            batch = EdgeBatch.from_edges([(i, (i + 3) % 16, 2.0) for i in range(16)])
            reference = ReferenceGraph(16, directed=True)
            reference.update_collect(batch)
            states = {a: get_algorithm(a).make_state(16) for a in ALGOS}
            for a in ALGOS:
                get_algorithm(a).inc_run(
                    reference,
                    states[a],
                    get_algorithm(a).affected_from_batch(batch, reference),
                    source=0,
                )
            removed = reference.delete_collect(batch)
            assert len(removed) == 16
            out = []
            for a in ALGOS:
                algorithm = get_algorithm(a)
                out.append(
                    observed(
                        algorithm.inc_delete_run(
                            reference, states[a], removed, source=0
                        )
                    )
                )
                out.append(observed(algorithm.fs_run(reference, source=0)))
            return out

        compiled, fallback = _both_paths(run)
        assert compiled == fallback


# ----------------------------------------------------------------------
# Run logs: one native call per compute run
# ----------------------------------------------------------------------

#: The sequential loops in Python (``SAGA_BENCH_NO_NATIVE``: every
#: Python reference).
LOOP_ENGINE = "1"

_CAPACITIES = ("RUN_LOG_VERTICES", "RUN_LOG_ROUNDS", "RUN_LOG_PENDING")


@contextlib.contextmanager
def _engine(setting, log_capacity=None):
    """One engine configuration: kernel gate, log sizes."""
    saved = [getattr(ckernels, name) for name in _CAPACITIES]
    with native_env(setting):
        if log_capacity is not None:
            for name in _CAPACITIES:
                setattr(ckernels, name, log_capacity)
        try:
            yield
        finally:
            for name, value in zip(_CAPACITIES, saved):
                setattr(ckernels, name, value)


#: ``TestComputeLibraryUnderUBSan`` runs every hypothesis test of
#: ``TestRunLog`` a second time; derandomized, so there is no example
#: database for the two to confuse.
RUN_LOG_SETTINGS = dict(
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.differing_executors],
)


@st.composite
def scenarios(draw):
    """An insert/delete stream: per step, a batch and how much of it dies.

    Small graphs come edge by edge from hypothesis (self-loops,
    duplicates and isolated ids included); the 320-vertex graphs are
    drawn from a seed so that frontiers pass the 48 ids above which the
    next-frontier sort is the radix sort.
    """
    num_nodes = draw(st.sampled_from([5, 24, 320]))
    directed = draw(st.booleans())
    steps = []
    for _ in range(draw(st.integers(1, 3))):
        if num_nodes == 320:
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            count = draw(st.sampled_from([200, 900]))
            edges = list(
                zip(
                    rng.integers(0, num_nodes, size=count).tolist(),
                    rng.integers(0, num_nodes, size=count).tolist(),
                    rng.integers(1, 5, size=count).astype(float).tolist(),
                )
            )
        else:
            vertex = st.integers(0, num_nodes - 1)
            edges = [
                (u, v, float(w))
                for u, v, w in draw(
                    st.lists(st.tuples(vertex, vertex, st.integers(1, 4)), max_size=50)
                )
            ]
        deleted = draw(st.sampled_from([0.0, 0.3, 1.0]))
        steps.append((edges, int(len(edges) * deleted)))
    return num_nodes, directed, steps


def _pushed(record):
    """Every round's push vertices (a delta-stepping pass's frontier)."""
    return [push for _, push, _, _ in record.rounds]


def _play(scenario):
    """All six algorithms over the stream from source 0: FS and INC after
    each insert, delete repair and FS after each deletion, every run
    verified (``tests/test_compute_kernels.py::play``)."""
    num_nodes, directed, steps = scenario
    stream = []
    for edges, delete_count in steps:
        batch = EdgeBatch.from_edges(edges)
        stream.append((batch, batch.slice(0, delete_count)))
    return play(ReferenceGraph(num_nodes, directed=directed), stream, source=0)


def _view_from_edges(src, dst, weight, num_nodes):
    """A ComputeView of an edge list, rows in list order."""
    return ComputeView(
        num_nodes,
        out_csr=csr_from_edges(src, dst, weight, num_nodes, by_src=True),
        in_csr=csr_from_edges(src, dst, weight, num_nodes, by_src=False),
    )


def _star(num_nodes, leaves):
    """0 -> 1 -> leaves: CC's label 0 reaches vertex 1 in round one and
    every leaf in round two, so round one's next frontier is ``leaves``
    in the out-row's (unsorted) order."""
    src = np.array([0] + [1] * len(leaves), dtype=np.int64)
    dst = np.array([1] + list(leaves), dtype=np.int64)
    return _view_from_edges(src, dst, np.ones(src.size), num_nodes)


def _uphill_chain(num_nodes):
    """``i + 1 -> i``: MC's largest label walks down one vertex per round
    (the ascending Gauss-Seidel order works against it), so a run over
    all vertices takes ``num_nodes - 1`` rounds."""
    reference = ReferenceGraph(num_nodes, directed=True)
    reference.update_collect(
        EdgeBatch.from_edges([(i + 1, i, 1.0) for i in range(num_nodes - 1)])
    )
    return reference, get_algorithm("MC")


@needs_ckernels
class TestRunLog:
    """The four run kernels against the Python loops, and their values
    against the verifiers."""

    @given(scenario=scenarios())
    @settings(max_examples=20, **RUN_LOG_SETTINGS)
    def test_run_log_matches_sequential_loop(self, scenario):
        """Every run of the stream, iteration by iteration, and every
        run's values verified.

        Fails when the kernel drops the next-frontier sort (pull arrays
        out of order), when the log slices are off by one (pull/push
        arrays shifted), when the relaxation log loses discovery order,
        when the Jacobi sweep is Gauss-Seidel (reads the buffer it
        writes), when convergence is tested on the wrong buffer (the
        swapped one: every run "converges" in one round), and when PR's
        per-vertex term is a multiplication by the reciprocal.
        """
        with _engine(LOOP_ENGINE):
            expected = _play(scenario)
        with _engine(None):
            assert _play(scenario) == expected

    @given(scenario=scenarios())
    @settings(max_examples=15, **RUN_LOG_SETTINGS)
    def test_every_stall_point_resumes(self, scenario):
        """Both logs start at capacity 1, so the vertex log stalls before
        the first round and whenever a round outgrows the doubling, and
        the round table stalls at rounds 1, 2, 4, 8...

        Fails when the resume cursor is not restored from ``ctl`` (round
        0 runs twice), when a grown log drops its used prefix, when a
        stalled round has already written values, when a delta run that
        stalls on the pending buffer does not store its cursor (the
        resume re-runs passes that had finished), and when the grown
        pending buffer drops its used prefix.
        """
        with _engine(LOOP_ENGINE):
            expected = _play(scenario)
        with _engine(None, log_capacity=1):
            assert _play(scenario) == expected

    def test_stalls_are_counted_as_native_calls(self):
        """One call when the logs have room, one more per stall when they
        do not (the injected exhaustion must actually happen)."""

        def calls(log_capacity):
            reference, algorithm = _uphill_chain(41)
            METRICS.reset()
            METRICS.enable()
            try:
                with _engine(None, log_capacity=log_capacity):
                    run = algorithm.inc_run(
                        reference, algorithm.make_state(41), np.arange(41)
                    )
                native = METRICS.value("compute_kernel_calls_total", kernel="inc_run")
                return len(run.iterations), int(native)
            finally:
                METRICS.disable()
                METRICS.reset()

        assert calls(None) == (40, 1)
        rounds, native = calls(1)
        assert rounds == 40
        # Round table 1 -> 2 -> 4 ... -> 64 is six stalls; the vertex
        # log stalls at least once on top.
        assert native >= 8

    def test_round_limit_raises_the_same_error(self):
        """Fails when the kernel ignores ``max_rounds`` (no error) or
        counts rounds off by one (the compiled run survives a limit the
        Python loop trips on)."""
        from repro.compute.kernels import run_incremental_frontier

        reference, algorithm = _uphill_chain(11)

        def attempt(max_rounds):
            values = algorithm.init_value(np.arange(11))
            try:
                run = run_incremental_frontier(
                    reference.compute_view(),
                    values,
                    np.arange(11),
                    algorithm,
                    max_rounds=max_rounds,
                )
            except SimulationError as exc:
                return str(exc)
            return len(run.iterations)

        for limit in (1, 9, 10):
            compiled, fallback = _both_paths(lambda: attempt(limit))
            assert compiled == fallback, limit
        assert attempt(10) == 10
        assert attempt(9) == (
            "incremental MC exceeded 9 rounds; "
            "the vertex function is probably not convergent"
        )

    @pytest.mark.parametrize(
        "num_nodes, low",
        [(200, 2), (60_000, 300), (70_000, 65_536)],
        ids=["one-digit", "two-digits", "three-digits"],
    )
    @pytest.mark.parametrize("size", [1, 47, 48, 49, 130])
    def test_next_frontier_sorted(self, num_nodes, low, size):
        """``sort_ids`` on both sides of the insertion/radix cut (48),
        with ids of one, two and three radix digits up to
        ``max_nodes - 1``.

        Fails when the sort is dropped, when the radix stops a digit
        early (ids above 255 or 65 535 stay out of order), or when an
        odd number of passes leaves the result in the scratch buffer.
        """
        rng = np.random.default_rng(size)
        leaves = rng.choice(np.arange(low, num_nodes - 1), size - 1, replace=False)
        leaves = np.append(leaves, num_nodes - 1)[::-1].tolist()
        cv = _star(num_nodes, leaves)
        algorithm = get_algorithm("CC")

        def run():
            state = algorithm.make_state(num_nodes)
            return observed(
                algorithm.inc_run(cv, state, np.array([0, 1]))
            )

        with _engine(LOOP_ENGINE):
            expected = run()
        with _engine(None):
            got = run()
        assert got == expected
        assert got.rounds[1][0] == sorted(leaves)

    # -- FS: saga_jacobi_run / saga_delta_run ---------------------------

    #: delta, edges, the push arrays the passes must have.
    SSSP_CASES = {
        # 1 is reached at 3 from the source and at 2 through 2, both in
        # bucket 0: it is settled twice and the heavy frontier says so.
        "improved-twice-in-one-bucket": (
            4.0,
            [(0, 1, 3.0), (0, 2, 1.0), (2, 1, 1.0)],
            [[0], [1, 2], [1], [0, 1, 2, 1]],
        ),
        # 1 is filed under bucket 5 by the heavy edge, then improved into
        # bucket 2: bucket 5 holds nobody by the time it is taken.  The
        # weight-1 edges equal delta, so they are light.
        "bucket-empties-when-taken": (
            1.0,
            [(0, 1, 5.0), (0, 2, 1.0), (2, 1, 1.0)],
            [[0], [0], [2], [2], [1], [1]],
        ),
        "delta-below-every-weight": (
            0.5,
            [(0, 1, 1.0), (0, 2, 3.0), (1, 2, 1.0), (2, 3, 2.0)],
            [[0], [0], [1], [1], [2], [2], [3], [3]],
        ),
        "delta-above-every-weight": (
            100.0,
            [(0, 1, 1.0), (0, 2, 3.0), (1, 2, 1.0), (2, 3, 2.0)],
            [[0], [1, 2], [2, 3], [0, 1, 2, 2, 3]],
        ),
        "zero-weight-edges": (
            1.0,
            [(0, 1, 0.0), (1, 2, 0.0), (2, 0, 0.0), (1, 3, 2.0)],
            [[0], [1], [2], [0, 1, 2], [3], [3]],
        ),
        "one-vertex": (None, [(0, 0, 1.5)], [[0], [0]]),
    }

    @pytest.mark.parametrize("case", sorted(SSSP_CASES))
    def test_delta_stepping_cases(self, case):
        """The bucket loop's corners, kernel == Python loop == the passes
        worked out by hand, with room and at capacity 1, and verified.

        Fails when the heavy frontier is deduplicated or sorted
        (improved-twice), when a member whose value left the bucket is
        not dropped as the bucket is taken (bucket-empties: two extra
        passes over vertex 1), and when the light filter is ``<``
        instead of ``<=`` (bucket-empties: its weight-1 edges turn
        heavy and 2 is settled a bucket late).
        """
        delta, edges, passes = self.SSSP_CASES[case]
        batch = EdgeBatch.from_edges(edges)
        reference, mirror = ReferenceGraph(8), DictGraph(8)
        reference.update_collect(batch)
        mirror.update(batch)
        algorithm = SSSP(delta=delta)

        def run():
            run = algorithm.fs_run(reference, source=0)
            return observed(verified(run, mirror.edges(), mirror.num_nodes, 0))

        with _engine(LOOP_ENGINE):
            expected = run()
        assert _pushed(expected) == passes
        for log_capacity in (None, 1):
            with _engine(None, log_capacity=log_capacity):
                assert run() == expected

    def test_delta_stepping_without_edges_or_source(self):
        """An edgeless view settles the source alone (one light and one
        heavy pass that relax nothing); a source id the view does not
        have settles nobody, on either engine."""
        nothing = np.empty(0, dtype=np.int64)
        cv = _view_from_edges(nothing, nothing, np.empty(0), 3)
        algorithm = get_algorithm("SSSP")

        def run(source):
            return observed(algorithm.fs_run(cv, source=source))

        for source, passes in ((0, [[0], [0]]), (3, [])):
            compiled, fallback = _both_paths(lambda: run(source))
            assert compiled == fallback
            assert _pushed(compiled) == passes
            assert np.isinf(np.frombuffer(compiled.values)).sum() == 2 + (source == 3)

    def test_bucket_index_is_numpy_floor_divide(self):
        """A star whose leaf weights sit on and beside multiples of delta:
        each leaf's bucket is ``np.floor_divide(weight, delta)``, which
        is not ``floor(weight / delta)`` (``1.0 // 0.1`` is 9), and the
        leaves of one bucket are settled in one pass.

        Weights are float32: the float32s nearest to multiples of 0.1 and
        their float32 neighbours, whole numbers (``k / 0.1`` rounds to
        the integer ``10 k``, which ``np.floor_divide`` puts one bucket
        lower when ``fmod`` leaves a remainder), multiples of two anchors,
        a subnormal and two past the shortcut's ``2**50`` bound.  Delta
        moves instead of the weights: 0.1, then ``anchor / k`` and its
        two double neighbours, so that ``anchor * j / delta`` lands on,
        or a few ulps beside, the integer ``j k`` (SSSP's default delta
        is a mean weight, an arbitrary double).

        Fails when the kernel files events by ``floor(candidate /
        delta)`` and when its shortcut for quotients clear of an integer
        is taken at or beside one.
        """
        near = [np.float32(k * 0.1) for k in range(1, 40)]
        weights = [float(w) for w in near]
        weights += [float(np.nextafter(w, np.float32(np.inf))) for w in near[:20]]
        weights += [float(np.nextafter(w, np.float32(0.0))) for w in near[:20]]
        weights += [float(k) for k in range(1, 40)] + [2.5, 0.75, 0.25]
        weights += [float(np.float32(x)) for x in (1e-45, 1.23456e14, 2.0**51 * 0.1)]
        anchors = [0.375, 7.0]
        weights += [anchor * j for anchor in anchors for j in range(1, 13)]
        assert all(float(np.float32(w)) == w for w in weights)
        deltas = [0.1]
        for anchor in anchors:
            for k in (3, 10):
                on = anchor / k
                deltas += [on, np.nextafter(on, 0.0), np.nextafter(on, np.inf)]
        # Quotients a few ulps beside an integer, not on it, are there.
        quotients = np.divide.outer(weights, deltas)
        beside = np.abs(quotients - np.round(quotients))
        assert ((beside > 0) & (beside <= 4 * np.spacing(quotients))).sum() >= 20
        leaves = np.arange(1, len(weights) + 1, dtype=np.int64)
        cv = _view_from_edges(
            np.zeros(leaves.size, dtype=np.int64), leaves, np.array(weights), leaves.size + 1
        )
        for delta in deltas:
            algorithm = SSSP(delta=float(delta))
            compiled, fallback = _both_paths(
                lambda: observed(algorithm.fs_run(cv, source=0))
            )
            assert compiled == fallback
            # Every pass after the source's settles the leaves of one
            # bucket, buckets ascending, and every leaf is settled.
            bucket = np.floor_divide(np.array([0.0] + weights), delta)
            taken = [set(bucket[push].tolist()) for push in _pushed(compiled)]
            assert all(len(buckets) == 1 for buckets in taken)
            order = [buckets.pop() for buckets in taken]
            assert order == sorted(order) and set(order) == set(bucket.tolist())

    def test_bucket_index_must_fit_int64(self):
        """The largest double below 2**63 is a bucket like any other (the
        largest float32 below 2**63 over a delta just under 1 lands on
        it); a quotient of 2**63 (the next delta down) and the largest
        float32 are refused with the same error by both engines.  Fails
        (under UBSan: traps on the cast) when the kernel casts first."""
        limit = 2.0**63
        weight = float(np.nextafter(np.float32(limit), np.float32(0.0)))
        delta = weight / np.nextafter(limit, 0.0)
        assert np.floor_divide(weight, delta) == np.nextafter(limit, 0.0)
        for weight, delta, fits in (
            (weight, delta, True),
            (weight, np.nextafter(delta, 0.0), False),
            (limit, delta, False),
            (float(np.finfo(np.float32).max), delta, False),
        ):
            cv = _view_from_edges(
                np.zeros(2, dtype=np.int64),
                np.array([1, 2], dtype=np.int64),
                np.array([1.0, weight]),
                3,
            )

            def run():
                try:
                    return observed(SSSP(delta=float(delta)).fs_run(cv, source=0))
                except SimulationError as exc:
                    return str(exc)

            compiled, fallback = _both_paths(run)
            if fits:
                assert compiled == fallback
                assert _pushed(compiled)[-1] == [2]
            else:
                assert compiled == fallback and "bucket index" in compiled

    def test_jacobi_iteration_limit(self):
        """``max_iterations`` one short of, at, and past what MC needs on
        the uphill chain (10 rounds to carry the label down, one more to
        see nothing change): same round count, same ``converged``, same
        values on both engines.

        Fails when the kernel counts the round after the check (one
        round too many at the limit) and when it reports a run that hit
        the limit as converged.
        """
        from repro.algorithms.base import synchronous_fixpoint
        from repro.algorithms.mc import _combine_max

        reference, algorithm = _uphill_chain(11)

        def attempt(limit):
            run = synchronous_fixpoint(
                reference.compute_view(),
                np.arange(11, dtype=np.float64),
                _combine_max,
                algorithm="MC",
                max_iterations=limit,
                kernel_op=ckernels.OP_MC,
            )
            return observed(run)

        for limit, rounds, converged in ((0, 0, False), (10, 10, False), (11, 11, True), (50, 11, True)):
            compiled, fallback = _both_paths(lambda: attempt(limit))
            assert compiled == fallback
            assert (len(compiled.rounds), compiled.converged) == (rounds, converged)

    @pytest.mark.parametrize(
        "name, start",
        [
            # Every vertex takes inf from its in-neighbour in turn (a
            # change: one more round), then keeps it (inf - inf: not one).
            ("MC", [0.0, np.inf, 2.0]),
            ("CC", [0.0, -np.inf, 2.0]),
            # A NaN label switches the CC/MC sweep to the NaN-propagating
            # minimum (np.minimum's rule); a difference with a NaN in it
            # is not a change.
            ("CC", [np.nan, 1.0, 2.0]),
            ("MC", [0.0, 1.0, np.nan]),
        ],
    )
    def test_jacobi_infinite_and_nan_changes(self, name, start):
        """Fails when a finite -> infinite step is not counted as a change
        (one round instead of three), when inf -> inf is (the run never
        converges), and when the no-NaN shortcut is taken although a
        value is NaN (the NaN label is skipped instead of spreading)."""
        from repro.algorithms import base, cc, mc

        reference = ReferenceGraph(3, directed=True)
        reference.update_collect(EdgeBatch.from_edges([(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)]))
        algorithm = get_algorithm(name)
        combine = cc._combine_min if name == "CC" else mc._combine_max

        def attempt():
            return observed(
                base.synchronous_fixpoint(
                    reference.compute_view(),
                    np.array(start),
                    combine,
                    algorithm=name,
                    max_iterations=20,
                    kernel_op=algorithm.ckernel_op,
                )
            )

        with np.errstate(invalid="ignore"):
            compiled, fallback = _both_paths(attempt)
        assert compiled == fallback
        assert compiled.converged
        values = np.frombuffer(compiled.values)
        if np.isnan(start).any():
            # The NaN reached at least its out-neighbour.
            assert np.isnan(values).sum() >= 2
        else:
            # inf walks the 3-cycle in two rounds; the third sees no change.
            assert len(compiled.rounds) == 3
            assert values.tolist() == [start[1]] * 3

    def test_jacobi_rows_of_every_length(self):
        """The sweep visits vertices by in-degree, telling degrees apart
        up to 63: rows of 0, 1, 62, 63 and 100 in-edges, kernel == numpy
        loop, and verified.  Fails when the counting sort files a vertex
        under its uncapped degree (the hub's slot is read from beyond the
        bin table: some vertex is never visited)."""
        edges = [(leaf, 0, 1.0) for leaf in range(1, 101)]
        edges += [(leaf, 101, 1.0) for leaf in range(1, 64)]
        edges += [(leaf, 102, 1.0) for leaf in range(1, 63)]
        edges += [(0, 103, 1.0), (103, 1, 1.0)]
        reference, mirror = ReferenceGraph(104), DictGraph(104)
        reference.update_collect(EdgeBatch.from_edges(edges))
        mirror.update(EdgeBatch.from_edges(edges))
        assert sorted(set(reference.compute_view().in_csr.degrees.tolist())) == [
            0, 1, 62, 63, 100,
        ]
        for name in ("CC", "MC", "PR"):
            algorithm = get_algorithm(name)
            compiled, fallback = _both_paths(
                lambda: observed(
                    verified(algorithm.fs_run(reference), mirror.edges(), 104)
                )
            )
            assert compiled == fallback

    def test_jacobi_slack_view_equals_packed_view(self):
        """A maintained view keeps slack between its rows (and dead
        entries in it); the same rows packed must give the same run, and
        the numpy loop, which packs them itself, too.  Fails when the
        sweep takes a row's end from the next row's start."""
        num_nodes = 40
        src, dst, wt = _random_edges(num_nodes, 200, seed=5)
        _, keep = np.unique(src * num_nodes + dst, return_index=True)
        keep.sort()
        src, dst, wt = src[keep], dst[keep], wt[keep]
        out_store = _slack_csr(num_nodes, src, dst, wt, delete_first=25)
        in_store = _slack_csr(num_nodes, dst, src, wt, delete_first=25)
        assert not in_store.tight
        slack = ComputeView(
            num_nodes, out_store.export(num_nodes), in_store.export(num_nodes), packed=False
        )
        packed = _view_from_edges(*packed_in_edges(slack), num_nodes)
        assert np.array_equal(packed.out_csr.degrees, slack.out_csr.degrees)
        for name in ("CC", "MC", "PR"):
            algorithm = get_algorithm(name)
            with _engine(None):
                on_slack, on_packed = (
                    observed(algorithm.fs_run(cv)) for cv in (slack, packed)
                )
            with _engine(LOOP_ENGINE):
                fallback = observed(algorithm.fs_run(slack))
            assert [on_slack, on_packed] == [fallback, fallback]
            assert len(on_slack.rounds) > 2

    def test_fs_native_calls(self):
        """One ``jacobi_run`` call per Jacobi run whatever the capacities
        (it has no log to grow); one ``delta_run`` call per SSSP run with
        room, and one more per stall without."""
        reference, _ = _uphill_chain(21)

        def calls(name, kernel, log_capacity):
            METRICS.reset()
            METRICS.enable()
            try:
                with _engine(None, log_capacity=log_capacity):
                    run = get_algorithm(name).fs_run(reference, source=20)
                native = METRICS.value("compute_kernel_calls_total", kernel=kernel)
                return len(run.iterations), int(native)
            finally:
                METRICS.disable()
                METRICS.reset()

        assert calls("MC", "jacobi_run", None) == (21, 1)
        assert calls("MC", "jacobi_run", 1) == (21, 1)
        assert calls("SSSP", "delta_run", None) == (42, 1)
        passes, native = calls("SSSP", "delta_run", 1)
        assert passes == 42
        # Round table 1 -> 2 -> ... -> 64 is six stalls; the vertex log
        # and the pending buffer stall on top.
        assert native >= 9


def _inc_rounds(cv, values, affected, name, source=None):
    """One INC run of ``name`` over ``values`` (updated in place):
    the value bits and every round's pulled and pushed vertices."""
    run = run_incremental_frontier(
        cv, values, affected, get_algorithm(name), source=source
    )
    rounds = [
        (it.pull_vertices.tolist(), it.push_vertices.tolist())
        for it in run.iterations
    ]
    return values.tobytes(), rounds


@needs_ckernels
class TestIncRoundCorners:
    """Corners of one INC round, worked out by hand: the compiled vertex
    functions and the scalar Table-I functions the Python loop calls
    give the same bits and the same rounds."""

    def test_vertex_without_in_edges_keeps_its_seed(self):
        """An affected vertex with no in-edges: CC and MC keep their own
        value (the minimum or maximum starts from it), BFS and SSSP fall
        to inf, SSWP to 0, PR to the teleport term.

        Fails when a compiled min/max starts from its identity instead of
        the vertex's own value, or when an empty in-row skips the write.
        """
        cv = _view_from_edges(
            np.array([0], dtype=np.int64),
            np.array([1], dtype=np.int64),
            np.array([1.0]),
            4,
        )
        expected = {
            "BFS": np.inf,
            "CC": 5.0,
            "MC": 5.0,
            "PR": (1.0 - DAMPING) / 4 + DAMPING * 0.0,
            "SSSP": np.inf,
            "SSWP": 0.0,
        }
        for name, value in expected.items():
            values = np.array([0.0, 1.0, 5.0, 2.0])
            compiled, fallback = _both_paths(
                lambda: _inc_rounds(cv, values.copy(), [2], name, source=0)
            )
            assert compiled == fallback, name
            assert np.frombuffer(compiled[0])[2] == value, name
            assert compiled[1][0][0] == [2], name

    def test_pagerank_adds_in_edges_in_row_order(self):
        """Vertex 3's in-row is ``0, 1, 2`` carrying ``1.0, 1e16, -1e16``:
        added in row order the 1.0 is lost to 1e16 before -1e16 cancels
        it (a reversed or exact sum would keep it)."""
        src = np.array([0, 1, 2], dtype=np.int64)
        cv = _view_from_edges(src, np.full(3, 3, dtype=np.int64), np.ones(3), 4)
        assert [u for u, _ in cv.in_neigh(3)] == [0, 1, 2]
        values = np.array([1.0, 1e16, -1e16, 0.25])
        compiled, fallback = _both_paths(
            lambda: _inc_rounds(cv, values.copy(), [3], "PR")
        )
        assert compiled == fallback
        assert np.frombuffer(compiled[0])[3] == (1.0 - DAMPING) / 4 + DAMPING * 0.0

    def test_round_reads_earlier_vertices_as_just_written(self):
        """Gauss-Seidel: on the chain ``0 -> 1 -> 2 -> 3`` with every
        vertex affected, BFS depths reach vertex 3 within round one;
        round two re-evaluates the triggered targets and stops.

        Fails when a round reads the values it started with (Jacobi:
        one depth per round, four rounds).
        """
        src = np.array([0, 1, 2], dtype=np.int64)
        cv = _view_from_edges(src, src + 1, np.ones(3), 4)
        values = np.array([0.0, np.inf, np.inf, np.inf])
        compiled, fallback = _both_paths(
            lambda: _inc_rounds(cv, values.copy(), [1, 2, 3], "BFS", source=0)
        )
        assert compiled == fallback
        assert np.frombuffer(compiled[0]).tolist() == [0.0, 1.0, 2.0, 3.0]
        assert compiled[1] == [([1, 2, 3], [1, 2, 3]), ([2, 3], [])]

    def test_pinned_source_is_never_reevaluated(self):
        """SSWP on ``0 <-> 1`` from source 0: the source keeps its inf
        width although its in-edge offers 3, and never triggers; vertex 1
        takes width 2 and pushes the source back onto the frontier.

        Fails when the pinned source is evaluated (its width drops to 2)
        or triggers its out-neighbours.
        """
        cv = _view_from_edges(
            np.array([0, 1], dtype=np.int64),
            np.array([1, 0], dtype=np.int64),
            np.array([2.0, 3.0]),
            2,
        )
        values = np.array([np.inf, 0.0])
        compiled, fallback = _both_paths(
            lambda: _inc_rounds(cv, values.copy(), [0, 1], "SSWP", source=0)
        )
        assert compiled == fallback
        assert np.frombuffer(compiled[0]).tolist() == [np.inf, 2.0]
        assert compiled[1] == [([0, 1], [1]), ([0], [])]


def _nan_weight_run(name, model):
    """``name`` under ``model`` from source 0 over a graph whose edge
    ``0 -> 2`` weighs NaN; the run's value bits."""
    batch = EdgeBatch.from_edges(
        [(0, 1, 1.0), (0, 2, np.nan), (2, 1, 1.0), (1, 3, 1.0), (2, 3, 5.0)]
    )
    reference = ReferenceGraph(4, directed=True)
    reference.update_collect(batch)
    algorithm = get_algorithm(name)
    if model == "FS":
        run = algorithm.fs_run(reference, source=0)
    else:
        run = algorithm.inc_run(
            reference,
            algorithm.make_state(4),
            algorithm.affected_from_batch(batch, reference),
            source=0,
        )
    return np.asarray(run.values[:4]).tobytes()


@needs_ckernels
@pytest.mark.parametrize(
    "name, model, expected",
    [
        ("SSSP", "INC", [0.0, 1.0, np.nan, np.nan]),
        ("SSWP", "INC", [np.inf, 1.0, np.nan, 5.0]),
        ("SSWP", "FS", [np.inf, 1.0, 0.0, 1.0]),
        ("BFS", "FS", [0.0, 1.0, 1.0, 2.0]),
    ],
)
def test_nan_weight_answers_alike_natively_and_in_python(name, model, expected):
    """A NaN term wins a vertex's min or max, as ``np.minimum`` and the
    compiled ``take_min`` / ``take_max`` have it, and SSWP's ``min(vu,
    w)`` is ``vu if vu < w else w`` (NaN when ``w`` is).  So the NaN
    reaches vertex 2 and, under SSSP, vertex 3 through it; SSWP's FS
    relaxation never improves a width by a NaN candidate.

    Fails when a Python vertex function skips a NaN term (SSSP INC then
    answers ``[0, 1, inf, 2]``) or SSWP's FS relaxation takes Python's
    ``min`` (``[inf, 1, inf, 5]``).
    """
    compiled, fallback = _both_paths(lambda: _nan_weight_run(name, model))
    assert compiled == fallback
    np.testing.assert_array_equal(np.frombuffer(compiled), expected)

# ----------------------------------------------------------------------
# The compute library under UndefinedBehaviorSanitizer
# ----------------------------------------------------------------------

_UBSAN_PROBE = """
import sys
import numpy as np
from repro.compute import ckernels
from repro.sim import cbuild
cbuild.CFLAGS = cbuild.CFLAGS + tuple(sys.argv[1:])
lib = ckernels.get()._lib
# A frontier of 2**62 vertices: the room an INC round needs (2k + ...)
# overflows before any buffer is touched.
ctl = np.array([0, 0, 2**62, 0, 0, 0, 0, 0], dtype=np.int64)
lib.saga_inc_run(
    0, *[None] * 8, 0, 0.0, -1, 0.0, 0.0, None, 1,
    None, 0, None, 1, ctl.ctypes.data,
)
"""


@needs_ckernels
@pytest.mark.usefixtures("ubsan_libraries")
class TestComputeLibraryUnderUBSan(
    TestRunLog,
    test_compute_pricing.TestExactness,
    test_hardware_profile_units.TestComputeTraceEmitter,
):
    """The run-log differential above (INC and FS, every stall point,
    every run's values through ``repro.verify``), the
    pricing verifier of ``tests/test_compute_pricing.py`` (``saga_price_run``
    against the per-iteration pricer, ``saga_pairwise_sum`` against
    ``ndarray.sum()``) and the ``saga_compute_trace`` verifier and
    hostile inputs of ``tests/test_hardware_profile_units.py``, all
    inherited, run through the sanitized build."""

    def test_the_sanitizer_is_live(self, ubsan_libraries):
        """The build under test does trap: a raw call with a cursor
        ``ComputeKernels._run`` never hands over is reported by the UBSan
        runtime in a child process."""
        assert list(ubsan_libraries.glob("saga_native_*.so"))
        child = ubsan_probe(_UBSAN_PROBE)
        assert child.returncode != 0
        assert "runtime error: signed integer overflow" in child.stderr


#: The three modules over the one library, each with its accessor.
ACCESSORS = [(ckernels, "get"), (cingest, "get"), (ckernel, "get_kernel")]


def _stand_in_build(patch, fails=False):
    """Replace compile-and-bind with a stand-in (no compiler needed)."""

    def load(source, stem, extra_flags=()):
        if fails:
            raise OSError("no compiler on this box")
        return "lib"

    patch.setattr(cbuild, "load_library", load)
    for module, _ in ACCESSORS:
        patch.setattr(module, "_bind", lambda lib: (lib, lib))


class TestEnvGates:
    """The one switch and the one loader (no compiler needed)."""

    def test_all_disables_everything(self):
        with native_env("1"):
            assert not ckernels.loaded() and not cingest.loaded()
            for module, accessor in ACCESSORS:
                assert getattr(module, accessor)() is None

    @pytest.mark.parametrize(
        "module, accessor", ACCESSORS, ids=["ccompute", "cingest", "ckernel"]
    )
    def test_one_truth_value_parse(self, module, accessor, monkeypatch):
        """``0`` is "unset" for the one switch, whichever part asks, and
        ``1``/``all``/``true`` turn every part off.  Fails when
        ``SAGA_BENCH_NO_NATIVE=0`` turns the library off."""

        def probe(value):
            monkeypatch.setenv(cbuild.DISABLE_ENV, value)
            cbuild.NATIVE.reset()
            return getattr(module, accessor)()

        try:
            _stand_in_build(monkeypatch)
            for value in ("", "0", "false", "off", "OFF"):
                assert probe(value) is not None, value
            for value in ("1", "all", "true"):
                assert probe(value) is None, value
                assert not cbuild.NATIVE.loaded() and cbuild.NATIVE.error is None
        finally:
            monkeypatch.undo()
            cbuild.NATIVE.reset()

    def test_build_failure_falls_back_without_require(self, monkeypatch):
        """A failed build is "not loaded" -- no flag makes it an error --
        and the loader keeps the reason."""
        _stand_in_build(monkeypatch, fails=True)
        monkeypatch.delenv(cbuild.DISABLE_ENV, raising=False)
        cbuild.NATIVE.reset()
        try:
            assert not ckernels.loaded()
            assert ckernels.get() is None and cingest.get() is None
            assert "no compiler on this box" in cbuild.NATIVE.error
        finally:
            monkeypatch.undo()
            cbuild.NATIVE.reset()

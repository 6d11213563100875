"""Bit-identity of the compiled compute kernels vs their numpy twins.

Every C kernel in ``repro.compute.ckernels`` must reproduce the numpy
path it replaces *exactly* -- identical float64 bits and identical
iteration statistics -- because the simulated latencies the benchmark
reports are priced from those numbers.  Each kernel is exercised
through its real dispatch site (the public ``repro.compute.kernels``
functions and the algorithm engines) under two settings of
``SAGA_BENCH_NO_CCOMPUTE``: compiled on, and forced numpy fallback.

The suite skips (with a reason) when the compiled library is
unavailable -- no working C compiler -- except for the env-gate parsing
tests, which need no library at all.
"""

import contextlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import get_algorithm
from repro.compute import ckernels
from repro.compute.csrstore import DynamicCSR
from repro.compute.kernels import (
    ComputeView,
    csr_from_edges,
    expand_frontier,
    scatter_extreme,
    segment_max,
    segment_min,
    segment_sum_ordered,
)
from repro.errors import SimulationError
from repro.graph import EdgeBatch, ReferenceGraph
from repro.obs import METRICS
from tests.conftest import ccompute_env
from tests.oracles import observed as _snapshot_run
from tests.test_compute_kernels import _hub, _stream

ALGOS = ("BFS", "CC", "MC", "PR", "SSSP", "SSWP")

needs_ckernels = pytest.mark.skipif(
    not ckernels.loaded(),
    reason="compiled compute kernels unavailable (no working C compiler)",
)


def _both_paths(fn):
    """Evaluate ``fn`` on the compiled path and the numpy fallback."""
    with ccompute_env(None):
        assert ckernels.loaded()
        compiled = fn()
    with ccompute_env("1"):
        assert not ckernels.loaded()
        fallback = fn()
    return compiled, fallback


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


@needs_ckernels
class TestDirectKernels:
    """The array kernels, through their public dispatch sites."""

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
            assert np.array_equal(c_seg, n_seg)
            assert np.array_equal(c_nbr, n_nbr)
            assert c_wt.tobytes() == n_wt.tobytes()

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
            for a, b in zip(compiled, fallback):
                assert np.array_equal(a, b)

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
        for a, b in zip(compiled, fallback):
            assert np.array_equal(a, b)

    def test_segment_reduce_with_nan_and_empty_segments(self):
        rng = np.random.default_rng(9)
        counts = rng.integers(0, 5, size=50).astype(np.int64)
        terms = rng.normal(size=int(counts.sum()))
        terms[::7] = np.nan  # np.minimum/np.maximum propagate NaN
        for fn, identity in ((segment_min, np.inf), (segment_max, -np.inf)):
            compiled, fallback = _both_paths(lambda fn=fn, i=identity: fn(terms, counts, i))
            assert compiled.tobytes() == fallback.tobytes()

    def test_segment_reduce_non_identity_seed_stays_numpy(self):
        """Only the true identity routes to C (it always seeds with it)."""
        counts = np.array([0, 2], dtype=np.int64)
        terms = np.array([3.0, 1.0])
        compiled, fallback = _both_paths(lambda: segment_min(terms, counts, 5.0))
        assert compiled.tolist() == fallback.tolist() == [5.0, 1.0]

    def test_segment_sum_matches_bincount_order(self):
        rng = np.random.default_rng(11)
        counts = rng.integers(0, 6, size=40).astype(np.int64)
        seg = np.repeat(np.arange(40, dtype=np.int64), counts)
        terms = rng.normal(size=seg.size) * 1e-3 + 0.1
        compiled, fallback = _both_paths(
            lambda: segment_sum_ordered(terms, seg, 40)
        )
        assert compiled.tobytes() == fallback.tobytes()
        assert (
            compiled.tobytes()
            == np.bincount(seg, weights=terms, minlength=40).tobytes()
        )

    def test_scatter_extreme_duplicates_and_nan(self):
        rng = np.random.default_rng(13)
        idx = rng.integers(0, 8, size=64).astype(np.int64)
        terms = rng.normal(size=64)
        terms[5] = np.nan
        with np.errstate(invalid="ignore"):
            for maximize, ufunc in ((False, np.minimum), (True, np.maximum)):
                def run(maximize=maximize):
                    out = np.full(8, 0.0 if maximize else 10.0)
                    scatter_extreme(out, idx, terms, maximize=maximize)
                    return out

                compiled, fallback = _both_paths(run)
                expected = np.full(8, 0.0 if maximize else 10.0)
                ufunc.at(expected, idx, terms)
                assert compiled.tobytes() == fallback.tobytes() == expected.tobytes()

    def test_scatter_extreme_empty(self):
        out = np.array([1.0, 2.0])
        scatter_extreme(out, np.empty(0, dtype=np.int64), np.empty(0), maximize=False)
        assert out.tolist() == [1.0, 2.0]


def _replay_algorithms(num_nodes=64, seed=17):
    """All six algorithms, FS + INC + delete repair, on one stream."""
    batches = _stream(num_nodes=num_nodes, seed=seed)
    source = _hub(batches)
    snapshots = []
    reference = ReferenceGraph(num_nodes, directed=True)
    states = {a: get_algorithm(a).make_state(num_nodes) for a in ALGOS}
    for batch in batches:
        reference.update_collect(batch)
        for alg_name in ALGOS:
            algorithm = get_algorithm(alg_name)
            affected = algorithm.affected_from_batch(batch, reference)
            snapshots.append(_snapshot_run(algorithm.fs_run(reference, source=source)))
            snapshots.append(
                _snapshot_run(
                    algorithm.inc_run(
                        reference, states[alg_name], affected, source=source
                    )
                )
            )
    removed = reference.delete_collect(batches[0].slice(0, 40))
    assert removed
    for alg_name in ALGOS:
        algorithm = get_algorithm(alg_name)
        snapshots.append(
            _snapshot_run(
                algorithm.inc_delete_run(
                    reference, states[alg_name], removed, source=source
                )
            )
        )
        snapshots.append(_snapshot_run(algorithm.fs_run(reference, source=source)))
    return snapshots


@needs_ckernels
class TestFusedKernels:
    """inc_round / relax_round / delta_pass through whole algorithm runs."""

    def test_all_algorithms_bit_identical(self):
        compiled, fallback = _both_paths(_replay_algorithms)
        assert compiled == fallback

    def test_single_vertex_graph(self):
        def run():
            reference = ReferenceGraph(1, directed=True)
            reference.update_collect(EdgeBatch.from_edges([(0, 0, 1.5)]))
            return [
                _snapshot_run(get_algorithm(a).fs_run(reference, source=0))
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
                    _snapshot_run(
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
                    _snapshot_run(
                        algorithm.inc_delete_run(
                            reference, states[a], removed, source=0
                        )
                    )
                )
                out.append(_snapshot_run(algorithm.fs_run(reference, source=0)))
            return out

        compiled, fallback = _both_paths(run)
        assert compiled == fallback


# ----------------------------------------------------------------------
# Run logs: one native call per compute run
# ----------------------------------------------------------------------

#: The numpy wave engine for both run kernels, everything else compiled.
WAVE_ENGINE = "inc_round,relax_round"


@contextlib.contextmanager
def _engine(setting, threads=1, log_capacity=None):
    """One engine configuration: kernel gate, gather threads, log sizes."""
    saved = ckernels.RUN_LOG_VERTICES, ckernels.RUN_LOG_ROUNDS
    with ccompute_env(setting):
        if log_capacity is not None:
            ckernels.RUN_LOG_VERTICES = ckernels.RUN_LOG_ROUNDS = log_capacity
        # Every probe resets the pool to the env's thread count.
        ckernels.set_compute_threads(threads)
        try:
            yield
        finally:
            ckernels.RUN_LOG_VERTICES, ckernels.RUN_LOG_ROUNDS = saved


@st.composite
def scenarios(draw):
    """An insert/delete stream: per step, a batch and how much of it dies.

    Small graphs come edge by edge from hypothesis (self-loops,
    duplicates and isolated ids included); the 320-vertex graphs are
    drawn from a seed so that frontiers pass the 128 positions the
    threaded gather needs.
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


def _record(run):
    """Everything the run log must reproduce, in comparable form."""
    return SimpleNamespace(
        label=f"{run.algorithm}/{run.model}",
        values=run.values.view(np.int64).copy(),
        iterations=[
            (it.pull_vertices.copy(), it.push_vertices.copy(), it.pushes, it.cas_ops)
            for it in run.iterations
        ],
        frontier_rounds=run.frontier_rounds,
        frontier_vertices=run.frontier_vertices,
    )


def _play(scenario):
    """All six algorithms over the stream: FS, INC and delete repair."""
    num_nodes, directed, steps = scenario
    reference = ReferenceGraph(num_nodes, directed=directed)
    states = {a: get_algorithm(a).make_state(num_nodes) for a in ALGOS}
    records = []
    for edges, delete_count in steps:
        batch = EdgeBatch.from_edges(edges)
        reference.update_collect(batch)
        for name in ALGOS:
            algorithm = get_algorithm(name)
            if reference.num_nodes:
                records.append(_record(algorithm.fs_run(reference, source=0)))
            records.append(
                _record(
                    algorithm.inc_run(
                        reference,
                        states[name],
                        algorithm.affected_from_batch(batch, reference),
                        source=0,
                    )
                )
            )
        # The driver's order: the repair run sees the deletions, the
        # insertion run never does (Algorithm 1 alone is insertion-only).
        removed = reference.delete_collect(batch.slice(0, delete_count))
        for name in ALGOS:
            records.append(
                _record(
                    get_algorithm(name).inc_delete_run(
                        reference, states[name], removed, source=0
                    )
                )
            )
    return records


def _assert_same_runs(got, expected):
    assert len(got) == len(expected)
    for run, wave in zip(got, expected):
        assert run.label == wave.label
        assert np.array_equal(run.values, wave.values), run.label
        assert run.frontier_rounds == wave.frontier_rounds, run.label
        assert run.frontier_vertices == wave.frontier_vertices, run.label
        assert len(run.iterations) == len(wave.iterations), run.label
        for index, (mine, theirs) in enumerate(zip(run.iterations, wave.iterations)):
            where = (run.label, index)
            assert mine[0].dtype == mine[1].dtype == np.int64, where
            assert np.array_equal(mine[0], theirs[0]), where
            assert np.array_equal(mine[1], theirs[1]), where
            assert mine[2] == theirs[2], where
            assert mine[3] == theirs[3], where


def _star(num_nodes, leaves):
    """0 -> 1 -> leaves: CC's label 0 reaches vertex 1 in round one and
    every leaf in round two, so round one's next frontier is ``leaves``
    in the out-row's (unsorted) order."""
    src = np.array([0] + [1] * len(leaves), dtype=np.int64)
    dst = np.array([1] + list(leaves), dtype=np.int64)
    return ComputeView.from_edges(src, dst, np.ones(src.size), num_nodes)


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
    """``saga_inc_run`` / ``saga_relax_run`` against the numpy wave engine."""

    @given(scenario=scenarios())
    @settings(max_examples=20, deadline=None)
    def test_run_log_matches_wave_engine(self, scenario):
        """Iteration by iteration, serial and threaded.

        Fails when the kernel drops the next-frontier sort (pull arrays
        out of order), when the log slices are off by one (pull/push
        arrays shifted), or when the relaxation log loses discovery
        order.
        """
        with _engine(WAVE_ENGINE):
            expected = _play(scenario)
        for threads in (1, 4):
            with _engine(None, threads=threads):
                assert ckernels.compute_threads() == threads
                _assert_same_runs(_play(scenario), expected)

    @given(scenario=scenarios())
    @settings(max_examples=15, deadline=None)
    def test_every_stall_point_resumes(self, scenario):
        """Both logs start at capacity 1, so the vertex log stalls before
        the first round and whenever a round outgrows the doubling, and
        the round table stalls at rounds 1, 2, 4, 8...

        Fails when the resume cursor is not restored from ``ctl`` (round
        0 runs twice), when a grown log drops its used prefix, or when a
        stalled round has already written values.
        """
        with _engine(WAVE_ENGINE):
            expected = _play(scenario)
        for threads in (1, 4):
            with _engine(None, threads=threads, log_capacity=1):
                _assert_same_runs(_play(scenario), expected)

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
                return run.frontier_rounds, int(native)
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
        wave engine trips on)."""
        from repro.compute.kernels import run_incremental_frontier

        reference, algorithm = _uphill_chain(11)

        def attempt(max_rounds):
            values = algorithm.init_value(np.arange(11))
            try:
                run = run_incremental_frontier(
                    reference, values, np.arange(11), algorithm, max_rounds=max_rounds
                )
            except SimulationError as exc:
                return str(exc)
            return run.frontier_rounds

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
            return _record(
                algorithm.inc_run(
                    SimpleNamespace(num_nodes=num_nodes),
                    state,
                    np.array([0, 1]),
                    compute_view=cv,
                )
            )

        with _engine(WAVE_ENGINE):
            expected = run()
        with _engine(None):
            got = run()
        _assert_same_runs([got], [expected])
        assert got.iterations[1][0].tolist() == sorted(leaves)


class TestEnvGates:
    """DISABLE_ENV / REQUIRE_ENV semantics (no compiler needed)."""

    @needs_ckernels
    def test_per_kernel_disable_list(self):
        with ccompute_env("inc_round,expand"):
            assert ckernels.loaded()  # library still builds
            assert ckernels.get("inc_round") is None
            assert ckernels.get("expand") is None
            assert ckernels.get("relax_round") is not None
            assert ckernels.get("segment_sum") is not None

    def test_all_disables_everything(self):
        with ccompute_env("all"):
            assert not ckernels.loaded()
            for name in ckernels.KERNEL_NAMES:
                assert ckernels.get(name) is None

    def test_unknown_kernel_name_rejected(self):
        with pytest.raises(ValueError, match="unknown kernels"):
            with ccompute_env("inc_round,typo"):
                ckernels.loaded()

    def test_require_env_turns_build_failure_into_error(self, monkeypatch):
        def broken(source, stem):
            raise OSError("no compiler on this box")

        monkeypatch.setattr(ckernels, "load_library", broken)
        monkeypatch.setenv(ckernels.REQUIRE_ENV, "1")
        monkeypatch.delenv(ckernels.DISABLE_ENV, raising=False)
        ckernels.reset()
        try:
            with pytest.raises(RuntimeError, match=ckernels.REQUIRE_ENV):
                ckernels.loaded()
        finally:
            monkeypatch.undo()
            ckernels.reset()

    def test_build_failure_falls_back_without_require(self, monkeypatch):
        def broken(source, stem):
            raise OSError("no compiler on this box")

        monkeypatch.setattr(ckernels, "load_library", broken)
        monkeypatch.delenv(ckernels.REQUIRE_ENV, raising=False)
        monkeypatch.delenv(ckernels.DISABLE_ENV, raising=False)
        ckernels.reset()
        try:
            assert not ckernels.loaded()
            assert ckernels.get("inc_round") is None
        finally:
            monkeypatch.undo()
            ckernels.reset()

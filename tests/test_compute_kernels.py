"""The compute engines against each other and against the verifiers.

Every algorithm runs on the compiled kernels (``repro.compute.ckernels``)
and on the sequential loops they run in Python, which must agree
*exactly*: same float bits in the value arrays, same per-iteration
operation counts, same convergence flags -- over every algorithm, both
compute models, insert as well as delete batches, directed and
undirected graphs.  Anything less would silently change the priced
latencies the whole benchmark reports.  What the two agree on is then
checked by ``repro.verify``, which shares no code with either: it reads
the live edges of a ``tests.oracles.DictGraph`` mirror, not the graph
under test.
"""

import operator

import numpy as np
import pytest

from repro.algorithms import get_algorithm
from repro.algorithms.base import Algorithm
from repro.compute import ckernels, kernels
from repro.compute.kernels import (
    ComputeView,
    packed_in_edges,
    unique_ids,
)
from repro.datasets import load_dataset
from repro.engine import RunStore, stream_run_key
from repro.engine.sweep import run_stream
from repro.graph import EdgeBatch, ReferenceGraph, make_structure
from repro.graph.snapshots import SnapshotStore
from repro.streaming import StreamConfig, StreamDriver
from tests.conftest import native_env, observed, verified
from tests.oracles import DictGraph

ALGOS = ("BFS", "CC", "MC", "PR", "SSSP", "SSWP")
STRUCTS = ("AS", "AC", "Stinger", "DAH", "BA")
#: Compiled run kernels, then the sequential loops they run in Python.
ENGINES = (None, "1")


def _stream(num_nodes=64, batches=3, per_batch=90, seed=7):
    """A deterministic random edge stream with duplicates and self-loops."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(batches):
        src = rng.integers(0, num_nodes, size=per_batch).tolist()
        dst = rng.integers(0, num_nodes, size=per_batch).tolist()
        # Two decimals, then the nearest float32: the stream's weight width.
        wts = np.round(rng.uniform(0.5, 4.0, size=per_batch), 2).astype(np.float32).tolist()
        out.append(EdgeBatch.from_edges(list(zip(src, dst, wts))))
    return out


def _hub(batches):
    sources = np.concatenate([b.src for b in batches])
    return int(np.bincount(sources).argmax())


def play(graph, steps, source):
    """All six algorithms over an insert/delete stream on ``graph``, on
    the engine in force; the observed records of every run, each
    verified against a ``DictGraph`` mirror.

    ``steps`` holds ``(batch, victims)`` pairs.  After a batch is
    inserted every algorithm runs FS and INC; after its victims (``None``:
    no deletion) are deleted, the repair run and FS.  ``graph`` is a
    ``ReferenceGraph`` or a structure.
    """
    mirror = DictGraph(graph.max_nodes, directed=graph.directed)
    algorithms = [get_algorithm(name) for name in ALGOS]
    states = [algorithm.make_state(graph.max_nodes) for algorithm in algorithms]
    records = []

    def record(run):
        records.append(observed(verified(run, edges, mirror.num_nodes, source)))

    for batch, victims in steps:
        graph.update(batch)
        mirror.update(batch)
        edges = mirror.edges()
        for algorithm, state in zip(algorithms, states):
            if graph.num_nodes:
                record(algorithm.fs_run(graph, source=source))
            affected = algorithm.affected_from_batch(batch, graph)
            record(algorithm.inc_run(graph, state, affected, source=source))
        if victims is None:
            continue
        # The driver's order: the repair run sees the deletions, the
        # insertion run never does (Algorithm 1 alone is insertion-only).
        removed = mirror.delete_collect(victims)
        edges = mirror.edges()
        if isinstance(graph, ReferenceGraph):
            graph.delete_collect(victims)
        else:
            graph.delete(victims)
        for algorithm, state in zip(algorithms, states):
            record(algorithm.inc_delete_run(graph, state, removed, source=source))
            if graph.num_nodes:
                record(algorithm.fs_run(graph, source=source))
    return records


def _engines_agree(run):
    """``run()``'s records on the compiled kernels equal the loop's."""
    records = []
    for engine in ENGINES:
        with native_env(engine):
            records.append(run())
    compiled, loop = records
    assert compiled == loop


class TestBitIdentityMatrix:
    """Three batches, FS and INC after each, then one deletion's repair
    and FS: both engines, every run verified."""

    @pytest.mark.parametrize("directed", [True, False])
    def test_reference_graph(self, directed):
        batches = _stream(seed=11)
        steps = [(batch, None) for batch in batches]
        steps[-1] = (batches[-1], batches[0].slice(0, 40))
        _engines_agree(
            lambda: play(ReferenceGraph(64, directed=directed), steps, _hub(batches))
        )

    @pytest.mark.parametrize("name", STRUCTS)
    def test_structures(self, name):
        """The instrumented structures, exported row by row by ``ComputeView.of``."""
        batches = _stream()
        steps = [(batch, None) for batch in batches]
        steps[-1] = (batches[-1], batches[1].slice(0, 30))
        _engines_agree(
            lambda: play(make_structure(name, 64, directed=True), steps, _hub(batches))
        )

    def test_snapshot_views(self):
        """Historical snapshots (prefix replays) take the engines unchanged."""
        batches = _stream(seed=23)
        source = _hub(batches)
        store = SnapshotStore(64, directed=True)
        for batch in batches:
            store.commit(batch)

        def run():
            mirror = DictGraph(64)
            algorithms = [get_algorithm(name) for name in ALGOS]
            states = [algorithm.make_state(64) for algorithm in algorithms]
            records = []
            for t, batch in enumerate(batches):
                mirror.update(batch)
                edges = mirror.edges()
                view = store.snapshot(t)
                for algorithm, state in zip(algorithms, states):
                    affected = algorithm.affected_from_batch(batch, view)
                    for got in (
                        algorithm.fs_run(view, source=source),
                        algorithm.inc_run(view, state, affected, source=source),
                    ):
                        records.append(
                            observed(verified(got, edges, mirror.num_nodes, source))
                        )
            return records

        _engines_agree(run)


class TestKernelPrimitives:
    def test_relaxation_events_match_sequential_simulation(self):
        """``frontier_relaxation_kernel`` on both engines against a
        compare-and-update loop over ``out_neigh``: the same value bits,
        and every round pushes the frontier it discovered, in discovery
        order, once per vertex however often it improves."""
        #: (relax, its compiled twin, direction, better, unreached, source)
        add1 = (
            lambda base, wt: base + 1.0,
            ckernels.RELAX_ADD1,
            "min",
            operator.lt,
            np.inf,
            0.0,
        )
        minw = (min, ckernels.RELAX_MINW, "max", operator.gt, 0.0, np.inf)
        for seed in range(6):
            (batch,) = _stream(num_nodes=24, batches=1, per_batch=60, seed=seed)
            reference = ReferenceGraph(24, directed=True)
            reference.update(batch)
            source = int(batch.src[0])
            for relax, relax_op, optimize, better, start, source_value in (add1, minw):
                current = [start] * 24
                current[source] = source_value
                expected_rounds = []
                frontier = [source]
                while frontier:
                    discovered = []
                    for v in frontier:
                        for w, weight in reference.out_neigh(v):
                            candidate = relax(current[v], weight)
                            if better(candidate, current[w]):
                                current[w] = candidate
                                if w not in discovered:
                                    discovered.append(w)
                    expected_rounds.append((frontier, len(discovered)))
                    frontier = discovered
                for engine in ENGINES:
                    values = np.full(24, start)
                    values[source] = source_value
                    with native_env(engine):
                        run = kernels.frontier_relaxation_kernel(
                            ComputeView.of(reference),
                            values,
                            source,
                            relax,
                            better,
                            optimize,
                            "t",
                            relax_op=relax_op,
                        )
                    where = (seed, optimize, engine)
                    assert values.tobytes() == np.array(current).tobytes(), where
                    assert [
                        (it.push_vertices.tolist(), it.pushes)
                        for it in run.iterations
                    ] == expected_rounds, where
                assert len(expected_rounds) > 2, (seed, optimize)

    def test_unique_ids_is_np_unique_without_the_sort(self):
        rng = np.random.default_rng(11)
        bound = 64
        for size in (0, 1, 7, 500):
            ids = rng.integers(0, bound, size=size)
            got = unique_ids(ids, bound)
            assert got.dtype == np.int64
            assert np.array_equal(got, np.unique(ids))
        edge = np.array([bound - 1, 0, bound - 1], dtype=np.int64)
        assert unique_ids(edge, bound).tolist() == [0, bound - 1]
        assert unique_ids(np.empty(0, dtype=np.int64), 0).size == 0

    def test_affected_sets_are_the_same_vertices_with_a_view_in_scope(self):
        """One return type: the ascending id array of the batch's
        endpoints -- for PR also every out-neighbour of a source, whose
        ``rank / out_degree`` term changed -- read through the live
        graph's own view."""
        first, second = _stream(num_nodes=32, batches=2, per_batch=80, seed=4)
        reference = ReferenceGraph(32, directed=True)
        reference.update(first)
        reference.update(second)
        endpoints = set(second.src.tolist()) | set(second.dst.tolist())
        fanout = {w for u in second.src.tolist() for w, _ in reference.out_neigh(u)}
        for name, want in (("CC", endpoints), ("PR", endpoints | fanout)):
            bare = get_algorithm(name).affected_from_batch(second, reference)
            assert isinstance(bare, np.ndarray) and bare.dtype == np.int64
            assert bare.tolist() == sorted(want)

    def test_csr_export_matches_neighbor_iteration(self):
        batches = _stream(num_nodes=32, batches=1, per_batch=80, seed=3)
        for name in STRUCTS:
            structure = make_structure(name, 32, directed=True)
            structure.update(batches[0])
            cv = ComputeView.of(structure)
            for u in range(structure.num_nodes):
                pairs = list(structure.out_neigh(u))
                lo, hi = cv.out_csr.indptr[u], cv.out_csr.indptr[u + 1]
                assert cv.out_csr.indices[lo:hi].tolist() == [v for v, _ in pairs]
                assert cv.out_csr.weights[lo:hi].tolist() == [w for _, w in pairs]
                pairs = list(structure.in_neigh(u))
                lo, hi = cv.in_csr.indptr[u], cv.in_csr.indptr[u + 1]
                assert cv.in_csr.indices[lo:hi].tolist() == [v for v, _ in pairs]
            # The synchronous FS engine's in-edge columns are the
            # per-vertex walk, destination by destination.
            walk = [
                (u, v, w)
                for v in range(structure.num_nodes)
                for u, w in structure.in_neigh(v)
            ]
            assert [col.tolist() for col in packed_in_edges(cv)] == [
                list(col) for col in zip(*walk)
            ]


class TestOneRouteIntoAView:
    """``ComputeView.of`` is every run's way to its graph: free on a live
    graph, one row-by-row export on anything else."""

    def test_driver_never_exports_rows(self, monkeypatch):
        """A churned stream over all six algorithms and both models reads
        every run's graph through the reference's maintained view."""

        def refuse(rows, num_nodes):
            raise AssertionError("a driver run took the per-vertex route")

        monkeypatch.setattr(kernels, "csr_from_pair_rows", refuse)
        config = StreamConfig(
            batch_size=400,
            structures=("AS",),
            algorithms=ALGOS,
            models=("FS", "INC"),
            churn_fraction=0.25,
        )
        result = StreamDriver(config).run(load_dataset("Talk", size_factor=0.05))
        assert result.batches_per_rep >= 2

    def test_fs_run_on_a_structure_exports_once(self, monkeypatch):
        """PR resolves the view once and hands it to the fixpoint: one
        builder call per direction."""
        built = []
        real = kernels.csr_from_pair_rows

        def counting(rows, num_nodes):
            built.append(num_nodes)
            return real(rows, num_nodes)

        monkeypatch.setattr(kernels, "csr_from_pair_rows", counting)
        structure = make_structure("AS", 32, directed=True)
        structure.update(_stream(num_nodes=32, batches=1, seed=3)[0])
        get_algorithm("PR").fs_run(structure)
        assert built == [structure.num_nodes] * 2

    def test_deletion_repair_on_a_structure_exports_once(self, monkeypatch):
        """CC's deletion repair resolves the view once and re-derives
        from it: one builder call per direction, not two."""
        built = []
        real = kernels.csr_from_pair_rows

        def counting(rows, num_nodes):
            built.append(num_nodes)
            return real(rows, num_nodes)

        structure = make_structure("AS", 32, directed=True)
        batch = _stream(num_nodes=32, batches=1, seed=3)[0]
        structure.update(batch)
        cc = get_algorithm("CC")
        state = cc.make_state(32)
        cc.inc_run(structure, state, np.arange(structure.num_nodes))
        victims = batch.slice(0, 8)
        structure.delete(victims)
        monkeypatch.setattr(kernels, "csr_from_pair_rows", counting)
        cc.inc_delete_run(structure, state, victims)
        assert built == [structure.num_nodes] * 2


class _Relay(Algorithm):
    """Scalar-only toy: hop count from vertex 0 (9 = not reached yet)."""

    name = "t"

    def init_value(self, ids):
        return np.where(ids == 0, 0.0, 9.0)

    def recalculate(self, v, view, values):
        best = values[v]
        for u, _ in view.in_neigh(v):
            best = min(best, values[u] + 1.0)
        return best

    def fs_run(self, view, source=None):
        raise NotImplementedError


class TestDeterministicRounds:
    def test_frontier_order_is_input_independent(self):
        """Every round's frontier is unique and ascending, whatever
        order (or multiplicity) the affected vertices arrive in."""
        reference = ReferenceGraph(6, directed=True)
        reference.update(
            EdgeBatch.from_edges([(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)])
        )
        algorithm = _Relay()

        def run_with(affected):
            state = algorithm.make_state(6)
            return algorithm.inc_run(reference, state, affected), state.values

        orderings = [[1, 2], [2, 1], (v for v in (2, 1, 1, 2))]
        runs = [run_with(o) for o in orderings]
        baseline_values = runs[0][1]
        for run, values in runs:
            assert np.array_equal(values, baseline_values)
            for it in run.iterations:
                pulls = it.pull_vertices
                assert np.array_equal(pulls, np.sort(pulls))
        pull_rounds = [
            [it.pull_vertices.tolist() for it in run.iterations]
            for run, _ in runs
        ]
        assert pull_rounds[0] == pull_rounds[1] == pull_rounds[2]
        assert pull_rounds[0] == [[1, 2], [3], [4]]


class TestEngineFingerprint:
    def test_engines_share_run_store_entries(self, tmp_path):
        """The engine is not part of the key: both hit the same entries."""
        from repro.streaming.driver import StreamConfig

        config = StreamConfig(
            batch_size=120,
            structures=("AS",),
            algorithms=("BFS", "PR"),
        )
        key = stream_run_key("RMAT", config, seed=1, size_factor=0.003)
        store = RunStore(tmp_path / "cache")
        with native_env(None):
            fresh = run_stream(
                "RMAT", config, seed=1, size_factor=0.003, store=store
            )
        assert store.path(key).exists()
        assert store.misses == 1
        with native_env("1"):
            assert stream_run_key("RMAT", config, seed=1, size_factor=0.003) == key
            cached = run_stream(
                "RMAT", config, seed=1, size_factor=0.003, store=store
            )
            recomputed = run_stream("RMAT", config, seed=1, size_factor=0.003)
        assert store.hits == 1
        assert np.array_equal(fresh.compute_cycles, cached.compute_cycles)
        assert np.array_equal(fresh.compute_cycles, recomputed.compute_cycles)

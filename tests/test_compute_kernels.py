"""Bit-identity of the vectorized compute kernels vs the legacy loops.

The frontier kernels (``repro.compute.kernels``) must reproduce the
per-vertex Python engines *exactly*: same float bits in the value
arrays, same per-iteration operation counts, same convergence flags --
over every algorithm, every graph structure (via the generic
``csr_arrays`` export), both compute models, and insert as well as
delete batches.  Anything less would silently change the priced
latencies the whole benchmark reports.
"""

import contextlib
import os

import numpy as np
import pytest

from repro.algorithms import get_algorithm
from repro.compute.incremental import run_incremental
from repro.compute.kernels import (
    LEGACY_COMPUTE_ENV,
    ComputeView,
    relaxation_events,
    unique_ids,
    use_legacy_compute,
    view_scope,
)
from repro.engine import RunStore, stream_run_key
from repro.engine.sweep import run_stream
from repro.graph import EdgeBatch, ReferenceGraph, make_structure
from repro.graph.snapshots import SnapshotStore

ALGOS = ("BFS", "CC", "MC", "PR", "SSSP", "SSWP")
STRUCTS = ("AS", "AC", "Stinger", "DAH", "BA")


@contextlib.contextmanager
def _compute_path(legacy: bool):
    """Select the legacy or kernel compute path for the enclosed code."""
    previous = os.environ.pop(LEGACY_COMPUTE_ENV, None)
    if legacy:
        os.environ[LEGACY_COMPUTE_ENV] = "1"
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(LEGACY_COMPUTE_ENV, None)
        else:
            os.environ[LEGACY_COMPUTE_ENV] = previous


def _stream(num_nodes=64, batches=3, per_batch=90, seed=7):
    """A deterministic random edge stream with duplicates and self-loops."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(batches):
        src = rng.integers(0, num_nodes, size=per_batch).tolist()
        dst = rng.integers(0, num_nodes, size=per_batch).tolist()
        wts = np.round(rng.uniform(0.5, 4.0, size=per_batch), 2).tolist()
        out.append(EdgeBatch.from_edges(list(zip(src, dst, wts))))
    return out


def _snapshot_run(run):
    """Everything bit-identity covers, as a comparable value."""
    return (
        run.algorithm,
        run.model,
        run.linear_scans,
        run.converged,
        run.source,
        run.values.tobytes(),
        [
            (
                it.pull_vertices.tobytes(),
                it.push_vertices.tobytes(),
                it.pushes,
                it.cas_ops,
            )
            for it in run.iterations
        ],
    )


def _hub(batches):
    sources = np.concatenate([b.src for b in batches])
    return int(np.bincount(sources).argmax())


def _replay_structure(name: str, legacy: bool, directed: bool = True):
    """Stream inserts + one delete batch through a structure, both models."""
    num_nodes = 64
    batches = _stream(num_nodes=num_nodes)
    source = _hub(batches)
    snapshots = []
    with _compute_path(legacy):
        assert use_legacy_compute() is legacy
        structure = make_structure(name, num_nodes, directed=directed)
        states = {a: get_algorithm(a).make_state(num_nodes) for a in ALGOS}
        mirror = {}  # (u, v) -> weight of every unique ingested edge
        for batch in batches:
            structure.update(batch)
            for i in range(len(batch)):
                key = (int(batch.src[i]), int(batch.dst[i]))
                if key not in mirror:
                    mirror[key] = float(batch.weight[i])
            for alg_name in ALGOS:
                algorithm = get_algorithm(alg_name)
                affected = algorithm.affected_from_batch(batch, structure)
                snapshots.append(
                    _snapshot_run(algorithm.fs_run(structure, source=source))
                )
                snapshots.append(
                    _snapshot_run(
                        algorithm.inc_run(
                            structure, states[alg_name], affected, source=source
                        )
                    )
                )
        # Delete a slice of the ingested edges, then repair each state.
        removed = [(u, v, w) for (u, v), w in list(mirror.items())[:30]]
        structure.delete(
            EdgeBatch.from_edges([(u, v) for u, v, _ in removed])
        )
        for alg_name in ALGOS:
            algorithm = get_algorithm(alg_name)
            snapshots.append(
                _snapshot_run(
                    algorithm.inc_delete_run(
                        structure, states[alg_name], removed, source=source
                    )
                )
            )
            snapshots.append(
                _snapshot_run(algorithm.fs_run(structure, source=source))
            )
    return snapshots


class TestBitIdentityMatrix:
    @pytest.mark.parametrize("name", STRUCTS)
    def test_structures(self, name):
        assert _replay_structure(name, legacy=False) == _replay_structure(
            name, legacy=True
        )

    @pytest.mark.parametrize("directed", [True, False])
    def test_reference_graph(self, directed):
        num_nodes = 64
        batches = _stream(num_nodes=num_nodes, seed=11)
        source = _hub(batches)

        def replay(legacy):
            snapshots = []
            with _compute_path(legacy):
                reference = ReferenceGraph(num_nodes, directed=directed)
                states = {a: get_algorithm(a).make_state(num_nodes) for a in ALGOS}
                for batch in batches:
                    reference.update_collect(batch)
                    for alg_name in ALGOS:
                        algorithm = get_algorithm(alg_name)
                        affected = algorithm.affected_from_batch(batch, reference)
                        snapshots.append(
                            _snapshot_run(
                                algorithm.fs_run(reference, source=source)
                            )
                        )
                        snapshots.append(
                            _snapshot_run(
                                algorithm.inc_run(
                                    reference,
                                    states[alg_name],
                                    affected,
                                    source=source,
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
            return snapshots

        assert replay(False) == replay(True)

    def test_snapshot_views(self):
        """Historical SnapshotView runs take the kernels unchanged."""
        num_nodes = 64
        batches = _stream(num_nodes=num_nodes, seed=23)
        source = _hub(batches)
        store = SnapshotStore(num_nodes, directed=True)
        for batch in batches:
            store.commit(batch)

        def replay(legacy):
            snapshots = []
            with _compute_path(legacy):
                states = {a: get_algorithm(a).make_state(num_nodes) for a in ALGOS}
                for t in range(store.num_snapshots):
                    view = store.snapshot(t)
                    for alg_name in ALGOS:
                        algorithm = get_algorithm(alg_name)
                        affected = algorithm.affected_from_batch(batches[t], view)
                        snapshots.append(
                            _snapshot_run(algorithm.fs_run(view, source=source))
                        )
                        snapshots.append(
                            _snapshot_run(
                                algorithm.inc_run(
                                    view, states[alg_name], affected, source=source
                                )
                            )
                        )
            return snapshots

        assert replay(False) == replay(True)


class TestKernelPrimitives:
    def test_relaxation_events_match_sequential_simulation(self):
        rng = np.random.default_rng(5)
        for minimize in (True, False):
            for trial in range(20):
                m = int(rng.integers(1, 60))
                targets = rng.integers(0, 8, size=m)
                candidates = np.round(rng.uniform(0.0, 4.0, size=m), 1)
                start = np.round(rng.uniform(0.0, 4.0, size=8), 1)[targets]
                expected = []
                current = dict(zip(targets.tolist(), start.tolist()))
                for row in range(m):
                    t = int(targets[row])
                    c = float(candidates[row])
                    wins = c < current[t] if minimize else c > current[t]
                    if wins:
                        current[t] = c
                        expected.append(row)
                got = relaxation_events(
                    candidates, targets, start, minimize=minimize
                )
                assert got.tolist() == expected

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
        """The columnar branch returns the set branch's vertices, ascending."""
        first, second = _stream(num_nodes=32, batches=2, per_batch=80, seed=4)
        reference = ReferenceGraph(32, directed=True)
        reference.update(first)
        reference.update(second)
        for name in ("CC", "PR"):
            algorithm = get_algorithm(name)
            as_set = algorithm.affected_from_batch(second, reference)
            assert isinstance(as_set, set)
            with view_scope(reference, ComputeView.of(reference)):
                as_array = algorithm.affected_from_batch(second, reference)
            assert as_array.tolist() == sorted(as_set)

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


class TestDeterministicRounds:
    def test_legacy_engine_frontier_order_is_input_independent(self):
        """Satellite: the numpy frontier rebuild sorts every round."""
        reference = ReferenceGraph(6, directed=True)
        reference.update(
            EdgeBatch.from_edges([(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)])
        )

        def run_with(affected_iterable):
            values = np.array([0.0, 9.0, 9.0, 9.0, 9.0, 9.0])

            def recalc(v):
                best = values[v]
                for u, _ in reference.in_neigh(v):
                    best = min(best, values[u] + 1.0)
                return best

            return run_incremental(
                reference, values, affected_iterable, recalc, algorithm="t"
            ), values

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


class TestEngineFingerprint:
    def test_kernel_and_legacy_paths_share_run_store_entries(self, tmp_path):
        """No key-schema bump: both paths hit the same cached results."""
        from repro.streaming.driver import StreamConfig

        config = StreamConfig(
            batch_size=120,
            structures=("AS",),
            algorithms=("BFS", "PR"),
            repetitions=1,
        )
        key = stream_run_key("RMAT", config, seed=1, size_factor=0.003)
        store = RunStore(tmp_path / "cache")
        with _compute_path(legacy=False):
            fresh = run_stream(
                "RMAT", config, seed=1, size_factor=0.003, store=store
            )
            assert stream_run_key("RMAT", config, seed=1, size_factor=0.003) == key
        assert store.contains(key)
        assert store.misses == 1
        with _compute_path(legacy=True):
            assert stream_run_key("RMAT", config, seed=1, size_factor=0.003) == key
            cached = run_stream(
                "RMAT", config, seed=1, size_factor=0.003, store=store
            )
        assert store.hits == 1
        assert len(cached.records) == len(fresh.records)
        for a, b in zip(fresh.records, cached.records):
            assert a.compute_cycles == b.compute_cycles

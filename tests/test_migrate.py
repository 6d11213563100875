"""Tests for live structure migration (repro.graph.migrate).

The load-bearing guarantee: migrating the live structure mid-stream --
between *any* pair of the five structures, with or without deletion
churn -- must leave algorithm results bit-identical to a static run
that never migrated.  Plus the mechanical contracts of the edge
exporter (orientation, self-loops, round-trip counts) and the
migration result accounting.
"""

import numpy as np
import pytest

from repro.datasets import load_dataset
from repro.graph import EdgeBatch, ReferenceGraph, make_structure
from repro.graph.migrate import export_live_edges, migrate_structure
from repro.streaming import StreamConfig, StreamDriver
from repro.streaming.autotune import AdaptiveStreamDriver
from tests.oracles import DictGraph

STRUCTURES = ("AS", "AC", "Stinger", "DAH", "BA")

DATASET = "Talk"
SIZE_FACTOR = 0.1
BATCH_SIZE = 400
ALGORITHMS = ("BFS", "PR")


class TestExportLiveEdges:
    def test_directed_roundtrip(self):
        reference = ReferenceGraph(8, directed=True)
        edges = [(0, 1), (1, 2), (2, 0), (3, 4)]
        reference.update(EdgeBatch.from_edges(edges))
        exported = export_live_edges(reference)
        assert len(exported) == reference.num_edges == len(edges)
        seen = sorted(zip(exported.src.tolist(), exported.dst.tolist()))
        assert seen == sorted(edges)

    def test_undirected_emits_each_pair_once(self):
        reference = ReferenceGraph(6, directed=False)
        reference.update(EdgeBatch.from_edges([(0, 1), (2, 1), (4, 5)]))
        exported = export_live_edges(reference)
        assert len(exported) == reference.num_edges == 3
        # Vertex-major export emits the low endpoint first.
        pairs = sorted(zip(exported.src.tolist(), exported.dst.tolist()))
        assert pairs == [(0, 1), (1, 2), (4, 5)]

    @pytest.mark.parametrize("directed", [True, False])
    def test_order_matches_the_dict_walk(self, directed):
        """Vertex-major, chronological per row (a deleted and reinserted
        neighbour last), undirected pairs from the smaller endpoint's
        row: the order the old per-vertex walk of the dicts emitted."""
        rng = np.random.default_rng(5)
        reference = ReferenceGraph(12, directed=directed)
        oracle = DictGraph(12, directed=directed)
        for step in range(6):
            batch = EdgeBatch(
                src=rng.integers(0, 12, 40),
                dst=rng.integers(0, 12, 40),
                weight=rng.uniform(0.5, 9.0, 40).astype(np.float32),
            )
            for graph in (reference, oracle):
                graph.update_collect(batch)
                if step % 2:
                    graph.delete_collect(batch.slice(5, 25))
        expected = [
            (u, v, w)
            for u in oracle.vertices()
            for v, w in oracle.out_items(u).items()
            if directed or v >= u
        ]
        exported = export_live_edges(reference)
        assert exported.src.dtype == exported.dst.dtype == np.int32
        assert [tuple(edge) for edge in exported] == expected

    def test_self_loops_survive(self):
        for directed in (True, False):
            reference = ReferenceGraph(4, directed=directed)
            reference.update(EdgeBatch.from_edges([(2, 2), (0, 1)]))
            exported = export_live_edges(reference)
            assert len(exported) == reference.num_edges
            pairs = set(zip(exported.src.tolist(), exported.dst.tolist()))
            assert (2, 2) in pairs

    def test_weights_preserved(self):
        reference = ReferenceGraph(4, directed=True)
        reference.update(
            EdgeBatch(
                src=np.array([0, 1], dtype=np.int64),
                dst=np.array([1, 2], dtype=np.int64),
                weight=np.array([3.5, 7.0]),
            )
        )
        exported = export_live_edges(reference)
        weights = dict(
            zip(zip(exported.src.tolist(), exported.dst.tolist()),
                exported.weight.tolist())
        )
        assert weights[(0, 1)] == 3.5
        assert weights[(1, 2)] == 7.0

    def test_empty_reference(self):
        assert len(export_live_edges(ReferenceGraph(4, directed=True))) == 0


class TestMigrateStructure:
    @pytest.mark.parametrize("target", STRUCTURES)
    def test_migrated_structure_holds_every_edge(self, ctx, target):
        reference = ReferenceGraph(40, directed=True)
        rng = np.random.default_rng(7)
        src = rng.integers(0, 40, size=300).astype(np.int64)
        dst = (src + 1 + rng.integers(0, 38, size=300)).astype(np.int64) % 40
        reference.update(EdgeBatch(src=src, dst=dst, weight=np.ones(300)))
        result = migrate_structure(reference, target, ctx)
        assert result.target == target
        assert result.edges_moved == reference.num_edges
        assert result.latency_cycles > 0

    def test_unknown_target_rejected(self, ctx):
        from repro.errors import StructureError

        reference = ReferenceGraph(4, directed=True)
        with pytest.raises(StructureError):
            migrate_structure(reference, "BTree", ctx)


def _static_run(churn):
    config = StreamConfig(
        batch_size=BATCH_SIZE,
        structures=STRUCTURES,
        algorithms=ALGORITHMS,
        models=("FS", "INC"),
        churn_fraction=churn,
    )
    dataset = load_dataset(DATASET, size_factor=SIZE_FACTOR)
    return StreamDriver(config).run(dataset)


def _adaptive_run(plan, churn):
    config = StreamConfig(
        batch_size=BATCH_SIZE,
        structures=("adaptive",),
        models=("adaptive",),
        candidate_structures=STRUCTURES,
        candidate_models=("FS", "INC"),
        algorithms=ALGORITHMS,
        churn_fraction=churn,
    )
    dataset = load_dataset(DATASET, size_factor=SIZE_FACTOR)
    driver = AdaptiveStreamDriver(config)
    driver.forced_plan = dict(plan)
    result = driver.run(dataset)
    return result, driver.decision_log["decisions"]


class TestMigrationEquivalence:
    """Forced mid-stream migrations never perturb algorithm results."""

    @pytest.fixture(scope="class")
    def static_results(self):
        return {churn: _static_run(churn) for churn in (0.0, 0.25)}

    @pytest.mark.parametrize("churn", [0.0, 0.25])
    @pytest.mark.parametrize(
        "pair",
        [(a, b) for a in STRUCTURES for b in STRUCTURES if a != b],
        ids=lambda pair: f"{pair[0]}->{pair[1]}",
    )
    def test_forced_migration_matrix(self, static_results, churn, pair):
        start, target = pair
        static = static_results[churn]
        # Hold `start` for two batches, then migrate to `target`.
        plan = {0: start, 1: start, 2: target, 3: target}
        adaptive, decisions = _adaptive_run(plan, churn)

        assert np.array_equal(
            adaptive.edges_inserted, static.edges_inserted
        )
        migrated = [d for d in decisions if d["batch"] == 2]
        assert migrated and migrated[0]["structure"] == target
        assert migrated[0]["migration_seconds"] > 0.0
        for entry in decisions:
            batch = entry["batch"]
            s_idx = static.structures.index(entry["structure"])
            for a_idx, algorithm in enumerate(static.algorithms):
                m_idx = static.models.index(entry["models"][algorithm])
                assert (
                    adaptive.compute_cycles[0, batch, a_idx, 0, 0]
                    == static.compute_cycles[0, batch, a_idx, m_idx, s_idx]
                ), f"batch {batch} {algorithm} diverged after migration"
                assert (
                    adaptive.compute_iterations[0, batch, a_idx, 0]
                    == static.compute_iterations[0, batch, a_idx, m_idx]
                )

    def test_migration_cycles_charged_to_batch(self, static_results):
        """The migrating batch's update latency includes the move."""
        static = static_results[0.0]
        plan = {0: "AS", 1: "AS", 2: "DAH", 3: "DAH"}
        adaptive, decisions = _adaptive_run(plan, 0.0)
        migrating = next(d for d in decisions if d["batch"] == 2)
        update_adaptive = adaptive.update_latency("adaptive")[0, 2]
        update_static = static.update_latency("DAH")[0, 2]
        assert update_adaptive > update_static
        assert update_adaptive == pytest.approx(
            update_static + migrating["migration_seconds"], rel=1e-6
        )

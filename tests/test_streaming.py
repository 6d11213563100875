"""Tests for batching, the stream driver, and result series."""

import dataclasses

import numpy as np
import pytest

from repro.datasets import load_dataset
from repro.datasets.mmapio import open_edge_mmap, write_edge_mmap
from repro.errors import ConfigError, DatasetError, SimulationError
from repro.graph import EdgeBatch
from repro.streaming import StreamConfig, StreamDriver, make_batches
from repro.streaming.driver import pick_source
from tests.conftest import SMALL_MACHINE


class TestBatching:
    def test_batch_sizes(self):
        edges = EdgeBatch.from_edges([(i, i + 1) for i in range(25)])
        batches = make_batches(edges, batch_size=10, shuffle=False)
        assert [len(b) for b in batches] == [10, 10, 5]

    def test_shuffle_preserves_multiset(self):
        edges = EdgeBatch.from_edges([(i, i + 1, float(i)) for i in range(25)])
        batches = make_batches(edges, batch_size=10, shuffle_seed=3)
        seen = sorted(
            (int(s), int(d), float(w))
            for b in batches
            for s, d, w in zip(b.src, b.dst, b.weight)
        )
        assert seen == [(i, i + 1, float(i)) for i in range(25)]

    def test_empty_stream(self):
        assert len(make_batches(EdgeBatch.empty(), batch_size=10)) == 0

    def test_rejects_bad_batch_size(self):
        with pytest.raises(DatasetError):
            make_batches(EdgeBatch.empty(), batch_size=0)

    def test_different_seeds_different_orders(self):
        edges = EdgeBatch.from_edges([(i, i + 1) for i in range(100)])
        a = make_batches(edges, 50, shuffle_seed=1)[0]
        b = make_batches(edges, 50, shuffle_seed=2)[0]
        assert not np.array_equal(a.src, b.src)

    @pytest.mark.parametrize("mapped", [False, True], ids=["ram", "mmap"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_the_order_is_the_int32_permutation(self, tmp_path, mapped, seed):
        """The shuffle keeps 4 bytes per edge, and exactly the positions
        ``default_rng(seed).permutation`` draws."""
        edges = EdgeBatch.from_edges([(i % 97, i % 89) for i in range(5_000)])
        if mapped:
            write_edge_mmap(tmp_path / "s", edges)
            edges = open_edge_mmap(tmp_path / "s")
        order = make_batches(edges, 64, shuffle_seed=seed).order
        assert order.dtype == np.int32
        assert order.tolist() == np.random.default_rng(seed).permutation(5_000).tolist()

    def test_a_stream_of_two_to_the_31_edges_is_refused_before_drawing(self):
        class Huge:
            def __len__(self):
                return 2**31

        with pytest.raises(DatasetError, match=r"2\*\*31"):
            make_batches(Huge(), 64)


class TestStreamConfig:
    def test_defaults_cover_paper_matrix(self):
        config = StreamConfig()
        assert set(config.structures) == {"AS", "AC", "Stinger", "DAH"}
        assert set(config.algorithms) == {"BFS", "CC", "MC", "PR", "SSSP", "SSWP"}
        assert set(config.models) == {"FS", "INC"}

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"batch_size": 0},
            {"models": ("adaptive",)},  # adaptive is all-or-nothing
            {"structures": ("AS", "XX")},
            {"algorithms": ("BFS", "XX")},
            {"models": ("FS", "XX")},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            StreamConfig(**kwargs)


    @pytest.mark.parametrize(
        "field",
        ["structures", "algorithms", "models",
         "candidate_structures", "candidate_models"],
    )
    def test_repeated_name_is_refused(self, field):
        """A repeated entry used to be accepted and not run twice: both
        shared one structure / one INC state / one result key, and the
        second run of the batch overwrote the first's numbers."""
        entry = {"structures": "AS", "algorithms": "BFS", "models": "INC",
                 "candidate_structures": "AS", "candidate_models": "INC"}[field]
        kwargs = {field: (entry, entry)}
        if field.startswith("candidate"):
            kwargs.update(structures=("adaptive",), models=("adaptive",))
        with pytest.raises(ConfigError, match=f"{entry!r} is listed more than once"):
            StreamConfig(**kwargs)

    def test_repeated_algorithm_recorded_the_second_runs_numbers(self):
        """``("BFS", "BFS")`` recorded 1 362.48 cycles / 1 iteration for
        this cell: the second ``inc_run`` of the batch, with nothing
        left to do."""
        dataset = load_dataset("RMAT", size_factor=0.02)
        result = StreamDriver(
            StreamConfig(batch_size=500, structures=("AS",), algorithms=("BFS",))
        ).run(dataset)
        inc = result.models.index("INC")
        assert result.compute_cycles[0, 1, 0, inc, 0] == pytest.approx(5257.90, abs=0.01)
        assert result.compute_iterations[0, 1, 0, inc] == 16


class TestSource:
    """The root of a single-source run is the stream's hottest source."""

    CONFIG = dict(batch_size=500, structures=("AS",), algorithms=("BFS", "SSSP"))

    def test_default_is_the_hottest_source(self):
        dataset = load_dataset("Talk", size_factor=0.05)
        assert pick_source(dataset) == int(np.bincount(dataset.edges.src).argmax())

    def test_edgeless_stream_has_no_default_source(self):
        dataset = load_dataset("Talk", size_factor=0.05)
        empty = dataclasses.replace(dataset, edges=EdgeBatch.empty())
        with pytest.raises(ConfigError, match="no edges"):
            StreamDriver(StreamConfig(**self.CONFIG)).run(empty)


def _small_config(**overrides):
    return StreamConfig(
        batch_size=800,
        machine=SMALL_MACHINE,
        structures=("AS", "DAH"),
        algorithms=("BFS", "CC"),
        **overrides,
    )


@pytest.fixture(scope="module")
def small_result():
    dataset = load_dataset("Talk", seed=2, size_factor=0.12)
    return StreamDriver(_small_config()).run(dataset), dataset


class TestDriver:
    def test_batches_and_reps(self, small_result):
        """One run: the leading axis of every series has length 1."""
        result, dataset = small_result
        assert result.batches_per_rep == dataset.batch_count(800)
        assert result.num_edges.shape == (1, result.batches_per_rep)

    def test_series_shapes(self, small_result):
        result, _ = small_result
        series = result.update_latency("AS")
        assert series.shape == (1, result.batches_per_rep)
        assert (series > 0).all()

    def test_equation_1(self, small_result):
        """batch latency = update latency + compute latency."""
        result, _ = small_result
        total = result.batch_latency("BFS", "INC", "AS")
        parts = result.update_latency("AS") + result.compute_latency(
            "BFS", "INC", "AS"
        )
        assert np.allclose(total, parts)

    def test_update_fraction_in_unit_interval(self, small_result):
        result, _ = small_result
        fraction = result.update_fraction("CC", "FS", "DAH")
        assert (fraction >= 0).all() and (fraction <= 1).all()

    def test_unknown_combo_rejected(self, small_result):
        result, _ = small_result
        with pytest.raises(SimulationError):
            result.update_latency("Stinger")
        with pytest.raises(SimulationError):
            result.compute_latency("PR", "INC", "AS")
        with pytest.raises(SimulationError):
            result.batch_latency("BFS", "XX", "AS")

    def test_graph_grows_over_batches(self, small_result):
        result, _ = small_result
        edges = result.num_edges[0].tolist()
        assert edges == sorted(edges)
        assert edges[-1] > edges[0]

    def test_repetitions_differ_by_shuffle(self, small_result):
        """The paper's repetitions are runs with other shuffle seeds."""
        result, dataset = small_result
        other = StreamDriver(_small_config(shuffle_seed=1)).run(dataset)
        assert not np.allclose(
            result.update_latency("AS"), other.update_latency("AS")
        )

    def test_inserted_counts_match_final_graph(self, small_result):
        result, _ = small_result
        assert result.edges_inserted[0].sum() == result.num_edges[0, -1]

    def test_progress_callback(self):
        dataset = load_dataset("Talk", seed=2, size_factor=0.05)
        messages = []
        config = StreamConfig(
            batch_size=500,
            machine=SMALL_MACHINE,
            structures=("AS",),
            algorithms=("BFS",),
            progress=messages.append,
        )
        StreamDriver(config).run(dataset)
        assert len(messages) == dataset.batch_count(500)


class TestChurn:
    def test_churn_fraction_validated(self):
        with pytest.raises(ConfigError):
            StreamConfig(churn_fraction=1.0)
        with pytest.raises(ConfigError):
            StreamConfig(churn_fraction=-0.1)

    def test_churn_stream_runs_and_shrinks_graph(self):
        dataset = load_dataset("Talk", seed=3, size_factor=0.1)
        base_cfg = dict(
            batch_size=600,
            machine=SMALL_MACHINE,
            structures=("AS", "DAH"),
            algorithms=("CC",),
            models=("FS",),
        )
        plain = StreamDriver(StreamConfig(**base_cfg)).run(dataset)
        churned = StreamDriver(
            StreamConfig(churn_fraction=0.3, **base_cfg)
        ).run(dataset)
        # Deletions shrink the final graph.
        assert churned.num_edges[0, -1] < plain.num_edges[0, -1]
        # The update phase paid for the deletions too.
        assert (
            churned.update_latency("AS").sum() > plain.update_latency("AS").sum()
        )

    def test_churned_fs_values_match_reference_graph(self):
        """FS compute stays exact under churn."""
        import numpy as np

        from repro.algorithms import get_algorithm
        from repro.graph import ReferenceGraph
        from repro.streaming import make_batches

        dataset = load_dataset("LJ", seed=5, size_factor=0.05)
        batches = make_batches(dataset.edges, 400, shuffle_seed=5)
        reference = ReferenceGraph(dataset.max_nodes, directed=True)
        for batch in batches:
            reference.update(batch)
            victims = batch.slice(0, len(batch) // 4)
            reference.delete_collect(victims)
        run = get_algorithm("CC").fs_run(reference)
        n = reference.num_nodes
        for v in range(n):
            incoming = [run.values[u] for u, _ in reference.in_neigh(v)]
            assert run.values[v] <= min(incoming, default=run.values[v])


class TestDeterminism:
    def test_identical_configs_identical_results(self):
        """The whole pipeline is deterministic given seeds."""
        dataset_a = load_dataset("Talk", seed=7, size_factor=0.08)
        dataset_b = load_dataset("Talk", seed=7, size_factor=0.08)
        config = StreamConfig(
            batch_size=500,
            machine=SMALL_MACHINE,
            structures=("AS", "DAH"),
            algorithms=("BFS", "PR"),
            shuffle_seed=3,
        )
        first = StreamDriver(config).run(dataset_a)
        second = StreamDriver(config).run(dataset_b)
        for structure in ("AS", "DAH"):
            assert np.array_equal(
                first.update_latency(structure), second.update_latency(structure)
            )
        for key in (("BFS", "INC", "AS"), ("PR", "FS", "DAH")):
            assert np.array_equal(
                first.compute_latency(*key), second.compute_latency(*key)
            )

    def test_different_shuffle_seed_changes_latencies(self):
        dataset = load_dataset("Talk", seed=7, size_factor=0.08)
        base = dict(
            batch_size=500,
            machine=SMALL_MACHINE,
            structures=("AS",),
            algorithms=("BFS",),
        )
        a = StreamDriver(StreamConfig(shuffle_seed=1, **base)).run(dataset)
        b = StreamDriver(StreamConfig(shuffle_seed=2, **base)).run(dataset)
        assert not np.array_equal(a.update_latency("AS"), b.update_latency("AS"))

    def test_churned_inc_state_stays_correct(self):
        """With churn, the driver's INC states match FS after the run."""
        from repro.algorithms import get_algorithm
        from repro.graph import ReferenceGraph
        from repro.streaming import make_batches

        dataset = load_dataset("Talk", seed=9, size_factor=0.08)
        config = StreamConfig(
            batch_size=500,
            machine=SMALL_MACHINE,
            structures=("AS",),
            algorithms=("CC",),
            models=("INC",),
            churn_fraction=0.3,
        )
        result = StreamDriver(config).run(dataset)
        assert result.batches_per_rep >= 2
        # Rebuild the same churned stream and verify the combined
        # inc_run + inc_delete_run discipline stays equal to FS.
        algorithm = get_algorithm("CC")
        reference = ReferenceGraph(dataset.max_nodes, directed=True)
        state = algorithm.make_state(dataset.max_nodes)
        for batch in make_batches(dataset.edges, 500, shuffle_seed=config.shuffle_seed):
            reference.update(batch)
            algorithm.inc_run(
                reference, state, algorithm.affected_from_batch(batch, reference)
            )
            victims = batch.slice(0, max(1, int(len(batch) * 0.3)))
            removed = reference.delete_collect(victims)
            algorithm.inc_delete_run(reference, state, removed)
        expected = algorithm.fs_run(reference).values
        n = reference.num_nodes
        assert np.array_equal(state.values[:n], expected[:n])

"""Tests for partition-parallel simulation (streaming.sharded)."""

import dataclasses
import os

import numpy as np
import pytest

from repro.datasets import load_dataset, make_rmat_dataset
from repro.datasets.mmapio import stream_directory
from repro.engine.fingerprint import stream_run_key
from repro.errors import ConfigError, SimulationError
from repro.graph.edge import EdgeBatch
from repro.obs import METRICS
from repro.sim.counters import shard_merge_bytes, shard_merge_cycles
from repro.sim.machine import SKYLAKE_GOLD_6142
from repro.streaming import StreamConfig, StreamDriver, make_driver
from repro.streaming.sharded import (
    ShardedStreamDriver,
    cross_shard_count,
    shard_of,
)
from tests.conftest import SMALL_MACHINE, one_cpu

CONFIG = dict(
    batch_size=500,
    structures=("AS", "DAH"),
    algorithms=("PR", "CC"),
    models=("INC",),
    repetitions=2,
    machine=SMALL_MACHINE,
)

ALGO_ARRAYS = ("edges_attempted", "edges_inserted", "num_edges", "compute_cycles")


def small_dataset():
    return load_dataset("Talk", size_factor=0.1)


class TestRouting:
    def test_directed_routes_by_src(self):
        src = np.array([0, 50, 99])
        dst = np.array([99, 0, 0])
        homes = shard_of(src, dst, shards=4, max_nodes=100, directed=True)
        assert homes.tolist() == [0, 2, 3]

    def test_undirected_routes_by_min_endpoint(self):
        src = np.array([99, 10])
        dst = np.array([0, 80])
        homes = shard_of(src, dst, shards=4, max_nodes=100, directed=False)
        assert homes.tolist() == [0, 0]

    def test_homes_cover_valid_range(self):
        rng = np.random.default_rng(3)
        src = rng.integers(0, 1000, size=5000)
        dst = rng.integers(0, 1000, size=5000)
        homes = shard_of(src, dst, shards=7, max_nodes=1000, directed=True)
        assert homes.min() >= 0 and homes.max() < 7

    def test_cross_count_zero_for_single_shard(self):
        src = np.array([0, 99])
        dst = np.array([99, 0])
        assert cross_shard_count(src, dst, shards=1, max_nodes=100) == 0

    def test_cross_count_counts_split_endpoints(self):
        src = np.array([0, 0, 99])
        dst = np.array([1, 99, 98])
        assert cross_shard_count(src, dst, shards=2, max_nodes=100) == 1


class TestMergeModel:
    def test_merge_bytes_is_line_granular(self):
        machine = SKYLAKE_GOLD_6142
        assert shard_merge_bytes(10, machine) == 10 * machine.line_bytes

    def test_merge_cycles_priced_at_qpi(self):
        machine = SKYLAKE_GOLD_6142
        expected = (
            10 * machine.line_bytes / machine.qpi_bandwidth_per_direction
        ) * machine.frequency_hz
        assert shard_merge_cycles(10, machine) == pytest.approx(expected)

    def test_negative_cross_edges_rejected(self):
        with pytest.raises(SimulationError):
            shard_merge_bytes(-1, SKYLAKE_GOLD_6142)

    def test_zero_cross_edges_cost_nothing(self):
        assert shard_merge_cycles(0, SKYLAKE_GOLD_6142) == 0.0


class TestDispatch:
    def test_make_driver_serial(self):
        assert type(make_driver(StreamConfig(**CONFIG))) is StreamDriver

    def test_make_driver_sharded(self):
        driver = make_driver(StreamConfig(shards=3, **CONFIG))
        assert isinstance(driver, ShardedStreamDriver)

    def test_shards_validated(self):
        with pytest.raises(ConfigError):
            StreamConfig(shards=0)
        with pytest.raises(ConfigError):
            StreamConfig(shards=-2)

    def test_fingerprint_elides_default_shards(self):
        base = StreamConfig(**CONFIG)
        assert stream_run_key("Talk", base) == stream_run_key(
            "Talk", StreamConfig(shards=1, **CONFIG)
        )

    def test_fingerprint_keys_nondefault_shards(self):
        base = StreamConfig(**CONFIG)
        sharded = StreamConfig(shards=3, **CONFIG)
        assert stream_run_key("Talk", base) != stream_run_key("Talk", sharded)


class TestBitIdentity:
    def test_single_shard_equals_serial_exactly(self):
        dataset = small_dataset()
        serial = StreamDriver(StreamConfig(**CONFIG)).run(dataset)
        sharded = ShardedStreamDriver(StreamConfig(shards=1, **CONFIG)).run(dataset)
        meta_a, arrays_a = serial.to_payload()
        meta_b, arrays_b = sharded.to_payload()
        assert meta_a == meta_b
        for key in arrays_a:
            assert np.array_equal(arrays_a[key], arrays_b[key]), key

    def test_sharded_algorithm_results_equal_serial(self):
        dataset = small_dataset()
        serial = StreamDriver(StreamConfig(**CONFIG)).run(dataset)
        sharded = make_driver(StreamConfig(shards=3, **CONFIG)).run(dataset)
        for attr in ALGO_ARRAYS:
            assert np.array_equal(
                getattr(serial, attr), getattr(sharded, attr)
            ), attr

    def test_pooled_equals_in_process(self):
        dataset = small_dataset()
        config = StreamConfig(shards=3, **CONFIG)
        pooled = ShardedStreamDriver(config).run(dataset)
        with one_cpu():
            in_process = ShardedStreamDriver(config).run(dataset)
        _, arrays_a = pooled.to_payload()
        _, arrays_b = in_process.to_payload()
        for key in arrays_a:
            assert np.array_equal(arrays_a[key], arrays_b[key]), key

    def test_mmap_backed_dataset_shards_identically(self, tmp_path):
        """The whole mmap stream reaches the workers through its own
        directory; a prefix of it is not that directory's stream and is
        spilled to a temporary one."""
        dataset = make_rmat_dataset(
            scale=12, num_edges=4000, mmap_dir=tmp_path / "s", chunk_edges=2000
        )
        prefix = dataclasses.replace(dataset, edges=dataset.edges.slice(0, 3000))
        with stream_directory(dataset.edges) as whole:
            assert whole == tmp_path / "s"
        with stream_directory(prefix.edges) as spilled:
            assert spilled.name.startswith("saga_stream-")
        config = dict(CONFIG, structures=("AS",), algorithms=("PR",))
        for stream in (dataset, prefix):
            serial = StreamDriver(StreamConfig(**config)).run(stream)
            sharded = make_driver(StreamConfig(shards=3, **config)).run(stream)
            for attr in ALGO_ARRAYS:
                assert np.array_equal(getattr(serial, attr), getattr(sharded, attr))

    @pytest.mark.skipif(
        (os.cpu_count() or 1) < 2, reason="one CPU: shards replay in process"
    )
    def test_swapped_columns_of_a_stream_directory_shard_as_themselves(
        self, tmp_path
    ):
        """A stream whose ``src`` and ``dst`` are a stream directory's
        ``dst`` and ``src`` memmaps is the reversed stream, not that
        directory's: the pool replays what the parent would."""
        dataset = make_rmat_dataset(scale=12, num_edges=4000, mmap_dir=tmp_path / "s")
        edges = dataset.edges
        reversed_stream = dataclasses.replace(
            dataset, edges=EdgeBatch(src=edges.dst, dst=edges.src, weight=edges.weight)
        )
        config = StreamConfig(
            shards=2, batch_size=1000, structures=("AS",), algorithms=("PR",),
            models=("INC",),
        )
        pooled = ShardedStreamDriver(config).run(reversed_stream)
        with one_cpu():
            in_process = ShardedStreamDriver(config).run(reversed_stream)
            forward = ShardedStreamDriver(config).run(dataset)
        assert np.array_equal(pooled.update_cycles, in_process.update_cycles)
        assert not np.array_equal(pooled.update_cycles, forward.update_cycles)

    def test_sharded_run_is_deterministic(self):
        dataset = small_dataset()
        config = StreamConfig(shards=3, **CONFIG)
        first = make_driver(config).run(dataset)
        second = make_driver(config).run(dataset)
        _, arrays_a = first.to_payload()
        _, arrays_b = second.to_payload()
        for key in arrays_a:
            assert np.array_equal(arrays_a[key], arrays_b[key]), key


class TestCliScale:
    def test_scale_subcommand_runs_out_of_core(self, tmp_path, capsys):
        from repro.cli import main

        code = main([
            "scale",
            "--scale", "12",
            "--edges", "6000",
            "--batch-size", "2000",
            "--chunk-edges", "2500",
            "--mmap-dir", str(tmp_path / "stream"),
            "--shards", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "RMAT-s12" in out
        assert "edges/s" in out
        assert (tmp_path / "stream" / "meta.json").exists()


class TestMergeCost:
    def test_update_latency_includes_merge(self):
        """Sharded update cycles = max-over-shards makespan + merge."""
        dataset = small_dataset()
        config = dict(CONFIG, structures=("AS",), algorithms=("PR",))
        serial = StreamDriver(StreamConfig(**config)).run(dataset)
        sharded = make_driver(StreamConfig(shards=3, **config)).run(dataset)
        assert not np.array_equal(serial.update_cycles, sharded.update_cycles)

    def test_metrics_record_shard_phases(self):
        dataset = small_dataset()
        config = dict(CONFIG, structures=("AS",), algorithms=("PR",))
        METRICS.reset()
        METRICS.enable()
        try:
            make_driver(StreamConfig(shards=3, **config)).run(dataset)
            assert METRICS.value("shard_cross_edges_total", dataset="Talk") > 0
            snapshot = METRICS.snapshot()
            assert "shard_sim_seconds" in snapshot
            assert "shard_merge_seconds" in snapshot
        finally:
            METRICS.disable()
            METRICS.reset()

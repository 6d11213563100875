"""Tests for the experiment engine: fingerprints, RunStore, sweeps.

Covers the cache-key invalidation matrix (any change to the cost
model, machine, batch size, shuffle seed, dataset spec, or schema
version must miss), the columnar ``.npz`` round trip, and the
engine's core guarantee: cached and parallel execution are
bit-identical to a direct ``StreamDriver.run``.
"""

from dataclasses import replace

import numpy as np
import pytest

import sys

from repro.analysis.hardware_profile import HardwareProfiler
from repro.datasets import load_dataset
from repro.engine import (
    RunStore,
    StreamRequest,
    default_store,
    fingerprint,
    run_many,
    run_stream,
    stream_run_key,
)
from repro.engine.store import CACHE_DIR_ENV
from repro.errors import ConfigError, SimulationError
from repro.sim.cost_model import DEFAULT_COST_MODEL
from repro.streaming import StreamConfig, StreamDriver, StreamResult
from tests.conftest import SMALL_MACHINE

# The package re-exports the fingerprint *function*, which shadows the
# submodule on attribute access; go through sys.modules for the module.
fingerprint_mod = sys.modules["repro.engine.fingerprint"]

DATASET = "Talk"
SEED = 3
SIZE_FACTOR = 0.1


#: The overrides that put :func:`small_config` in adaptive mode.
ADAPTIVE = {"structures": ("adaptive",), "models": ("adaptive",)}


def small_config(**overrides) -> StreamConfig:
    kwargs = dict(
        batch_size=900,
        machine=SMALL_MACHINE,
        structures=("AS", "DAH"),
        algorithms=("BFS",),
        models=("FS", "INC"),
        shuffle_seed=5,
    )
    kwargs.update(overrides)
    return StreamConfig(**kwargs)


def assert_identical(a: StreamResult, b: StreamResult) -> None:
    """Every array and accessor of ``a`` and ``b`` is bit-identical."""
    assert a.dataset == b.dataset
    assert a.machine == b.machine
    assert (a.structures, a.algorithms, a.models) == (
        b.structures,
        b.algorithms,
        b.models,
    )
    assert a.batches_per_rep == b.batches_per_rep
    for name in (
        "edges_attempted",
        "edges_inserted",
        "num_nodes",
        "num_edges",
        "update_cycles",
        "compute_cycles",
        "compute_iterations",
    ):
        left, right = getattr(a, name), getattr(b, name)
        assert left.dtype == right.dtype, name
        assert np.array_equal(left, right), name
    for structure in a.structures:
        assert np.array_equal(a.update_latency(structure), b.update_latency(structure))
        for algorithm in a.algorithms:
            for model in a.models:
                combo = (algorithm, model, structure)
                assert np.array_equal(a.compute_latency(*combo), b.compute_latency(*combo))
                assert np.array_equal(a.batch_latency(*combo), b.batch_latency(*combo))
                assert np.array_equal(a.update_fraction(*combo), b.update_fraction(*combo))


def assert_same_payload(payload, other) -> None:
    """Two ``to_payload()`` results: equal meta, bit-identical arrays."""
    (meta, arrays), (other_meta, other_arrays) = payload, other
    assert meta == other_meta
    assert sorted(arrays) == sorted(other_arrays)
    for name, column in arrays.items():
        assert column.dtype == other_arrays[name].dtype, name
        assert np.array_equal(column, other_arrays[name]), name


class TestFingerprint:
    def test_identical_configs_share_a_key(self):
        assert stream_run_key(DATASET, small_config()) == stream_run_key(
            DATASET, small_config()
        )

    def test_progress_callback_is_not_content(self):
        with_progress = small_config(progress=print)
        assert stream_run_key(DATASET, with_progress) == stream_run_key(
            DATASET, small_config()
        )

    @pytest.mark.parametrize(
        "overrides",
        [
            {"batch_size": 901},
            {"shuffle_seed": 6},
            {"structures": ("AS",)},
            {"algorithms": ("BFS", "CC")},
            {"models": ("FS",)},
            {"churn_fraction": 0.1},
            {"shards": 2},
            {"threads": 4},
            {"batch_schedule": (300, 600)},
            {**ADAPTIVE, "candidate_structures": ("AS", "DAH")},
            {"machine": replace(SMALL_MACHINE, frequency_hz=2.7e9)},
            {
                "cost_model": replace(
                    DEFAULT_COST_MODEL,
                    probe_element=DEFAULT_COST_MODEL.probe_element + 1,
                )
            },
        ],
    )
    def test_config_changes_change_the_key(self, overrides):
        # A candidate pool only exists in adaptive mode, so it is keyed
        # against the adaptive config without one.
        adaptive = "candidate_structures" in overrides
        base = stream_run_key(DATASET, small_config(**(ADAPTIVE if adaptive else {})))
        assert stream_run_key(DATASET, small_config(**overrides)) != base

    def test_dataset_spec_changes_change_the_key(self):
        base = stream_run_key(DATASET, small_config(), seed=SEED, size_factor=SIZE_FACTOR)
        config = small_config()
        assert stream_run_key("LJ", config, seed=SEED, size_factor=SIZE_FACTOR) != base
        assert stream_run_key(DATASET, config, seed=SEED + 1, size_factor=SIZE_FACTOR) != base
        assert stream_run_key(DATASET, config, seed=SEED, size_factor=0.2) != base

    def test_schema_version_changes_the_key(self, monkeypatch):
        base = stream_run_key(DATASET, small_config())
        monkeypatch.setattr(
            fingerprint_mod,
            "RESULT_SCHEMA_VERSION",
            fingerprint_mod.RESULT_SCHEMA_VERSION + 1,
        )
        assert stream_run_key(DATASET, small_config()) != base

    def test_key_schema_bump_retires_old_entries(self, tmp_path, monkeypatch):
        """Entries keyed before the columnar-kernel rewrite are misses.

        The columnar rewrite bumped ``KEY_SCHEMA_VERSION`` to retire
        caches populated by the old object path; a store warmed under
        the previous version must not serve the current keys.
        """
        assert fingerprint_mod.KEY_SCHEMA_VERSION >= 2
        store = RunStore(tmp_path)
        current_key = stream_run_key(DATASET, small_config())
        monkeypatch.setattr(
            fingerprint_mod,
            "KEY_SCHEMA_VERSION",
            fingerprint_mod.KEY_SCHEMA_VERSION - 1,
        )
        old_key = stream_run_key(DATASET, small_config())
        assert old_key != current_key
        store.save_arrays(old_key, {"schema": 1}, {"x": np.zeros(1)})
        assert store.load(current_key, StreamResult.from_payload) is None
        assert store.misses == 1

    def test_unknown_dataset_rejected(self):
        with pytest.raises(ConfigError):
            stream_run_key("NotADataset", small_config())

    def test_callables_rejected(self):
        with pytest.raises(ConfigError):
            fingerprint({"callback": print})


def _raw(meta, arrays):
    """The identity decode: an entry's ``(meta, arrays)`` as stored."""
    return meta, arrays


class TestRunStore:
    def test_round_trip_and_counters(self, tmp_path):
        store = RunStore(tmp_path / "cache")
        key = "ab" * 32
        arrays = {"values": np.arange(6, dtype=np.float64).reshape(2, 3)}
        assert store.load(key, _raw) is None
        store.save_arrays(key, {"note": "x"}, arrays)
        loaded = store.load(key, _raw)
        assert loaded is not None
        meta, out = loaded
        assert meta == {"note": "x"}
        assert np.array_equal(out["values"], arrays["values"])
        assert (store.hits, store.misses) == (1, 1)

    def test_malformed_key_rejected(self, tmp_path):
        store = RunStore(tmp_path)
        with pytest.raises(ConfigError):
            store.path("../escape")
        with pytest.raises(ConfigError):
            store.path("UPPER")

    def test_meta_name_reserved(self, tmp_path):
        store = RunStore(tmp_path)
        with pytest.raises(ConfigError):
            store.save_arrays("ff", {}, {"__meta__": np.zeros(1)})

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = RunStore(tmp_path)
        key = "cd" * 32
        store.path(key).write_bytes(b"not an npz file")
        assert store.load(key, _raw) is None
        assert (store.hits, store.misses) == (0, 1)

    def test_default_store_resolution(self, tmp_path, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        assert default_store() is None
        assert default_store(tmp_path).root == tmp_path
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "env"))
        assert default_store().root == tmp_path / "env"
        assert default_store(no_cache=True) is None


@pytest.fixture(scope="module")
def warm_store(tmp_path_factory):
    """A store populated by one cold engine run, plus the cold result."""
    store = RunStore(tmp_path_factory.mktemp("runstore"))
    result = run_stream(
        DATASET, small_config(), seed=SEED, size_factor=SIZE_FACTOR, store=store
    )
    return store, result


class TestSweep:
    def test_cold_run_matches_direct_driver(self, warm_store):
        _, cold = warm_store
        dataset = load_dataset(DATASET, seed=SEED, size_factor=SIZE_FACTOR)
        direct = StreamDriver(small_config()).run(dataset)
        assert_identical(cold, direct)

    def test_warm_run_is_bit_identical_without_simulating(self, warm_store, monkeypatch):
        store, cold = warm_store

        def forbidden(self, dataset):
            raise AssertionError("warm cache must not invoke StreamDriver.run")

        monkeypatch.setattr(StreamDriver, "run", forbidden)
        hits = store.hits
        warm = run_stream(
            DATASET, small_config(), seed=SEED, size_factor=SIZE_FACTOR, store=store
        )
        assert store.hits == hits + 1
        assert_identical(warm, cold)

    def test_changed_cost_model_misses_the_cache(self, warm_store):
        store, _ = warm_store
        perturbed = small_config(
            cost_model=replace(
                DEFAULT_COST_MODEL, probe_element=DEFAULT_COST_MODEL.probe_element + 1
            )
        )
        request = StreamRequest(
            DATASET, perturbed, seed=SEED, size_factor=SIZE_FACTOR
        )
        assert not store.path(request.key).exists()

    def test_parallel_execution_is_deterministic(self, warm_store):
        """Two shuffles of one stream are two requests; pooled, each is
        its own serial run, the first the warm store's cold run."""
        _, cold = warm_store
        configs = [small_config(), small_config(shuffle_seed=6)]
        parallel = run_many(
            [
                StreamRequest(DATASET, c, seed=SEED, size_factor=SIZE_FACTOR)
                for c in configs
            ],
            jobs=2,
        )
        dataset = load_dataset(DATASET, seed=SEED, size_factor=SIZE_FACTOR)
        for result, config in zip(parallel, configs):
            assert_identical(result, StreamDriver(config).run(dataset))
        assert_identical(parallel[0], cold)
        assert not np.array_equal(parallel[0].update_cycles, parallel[1].update_cycles)

    def test_run_many_preserves_request_order(self, tmp_path):
        store = RunStore(tmp_path)
        configs = [small_config(batch_size=900), small_config(batch_size=1100)]
        requests = [
            StreamRequest(DATASET, c, seed=SEED, size_factor=SIZE_FACTOR)
            for c in configs
        ]
        results = run_many(requests, store=store)
        assert [r.batches_per_rep for r in results] == [
            load_dataset(DATASET, seed=SEED, size_factor=SIZE_FACTOR).batch_count(900),
            load_dataset(DATASET, seed=SEED, size_factor=SIZE_FACTOR).batch_count(1100),
        ]
        again = run_many(requests, store=store)
        for fresh, cached in zip(results, again):
            assert_identical(fresh, cached)

    def test_negative_jobs_rejected(self):
        with pytest.raises(ConfigError):
            run_many([], jobs=-1)


def _from_npz(path):
    """Decode a file :meth:`StreamResult.to_npz` wrote, as the store does
    (so ``path`` is named by a hex key)."""
    return RunStore(path.parent).load(path.stem, StreamResult.from_payload)


class TestNpzRoundTrip:
    def test_round_trip_is_exact(self, warm_store, tmp_path):
        _, cold = warm_store
        path = cold.to_npz(tmp_path / "ab.npz")
        assert_identical(_from_npz(path), cold)

    def test_payload_survives_round_trip(self, warm_store, tmp_path):
        _, cold = warm_store
        loaded = _from_npz(cold.to_npz(tmp_path / "ab.npz"))
        assert_same_payload(loaded.to_payload(), cold.to_payload())

    def test_schema_mismatch_rejected(self, warm_store):
        _, cold = warm_store
        meta, arrays = cold.to_payload()
        meta["schema"] = -1
        with pytest.raises(SimulationError):
            StreamResult.from_payload(meta, arrays)

    def test_old_schema_cache_entry_is_a_miss(self, warm_store, tmp_path):
        store = RunStore(tmp_path)
        _, cold = warm_store
        meta, arrays = cold.to_payload()
        meta["schema"] = meta["schema"] + 1
        key = "ee" * 32
        store.save_arrays(key, meta, arrays)
        assert store.load(key, StreamResult.from_payload) is None
        assert (store.hits, store.misses) == (0, 1)


#: The Fig 9/10 cell the hardware cache tests resolve.
CELL = (DATASET, "DAH", SIZE_FACTOR)


def small_profiler(**overrides) -> HardwareProfiler:
    kwargs = dict(
        machine=SMALL_MACHINE,
        core_counts=(2,),
        algorithms=("BFS",),
        batch_size=900,
        trace_cap=2_000,
        seed=SEED,
    )
    kwargs.update(overrides)
    return HardwareProfiler(**kwargs)


@pytest.fixture(scope="module")
def warm_cell_store(tmp_path_factory):
    """A store populated by one cold ``profile_cells``, plus the cell."""
    store = RunStore(tmp_path_factory.mktemp("cellstore"))
    (cell,) = small_profiler().profile_cells([CELL], store=store)
    return store, cell


def _drop_last_counter_field(meta, arrays):
    """An entry written when ``PhaseCounters`` had one field fewer."""
    meta["counter_fields"] = meta["counter_fields"][:-1]
    for phase in ("update", "compute"):
        arrays[f"counters_{phase}"] = arrays[f"counters_{phase}"][:, :-1]


#: Entries a cell lookup must count as one miss, then re-simulate.
DAMAGED_CELLS = {
    "corrupt": None,
    "old-schema": _drop_last_counter_field,
    "no-core-counts": lambda meta, arrays: meta.pop("core_counts"),
}


class TestHardwareCellCache:
    """The stream cache tests above, with a Fig 9/10 cell as the input."""

    def test_cold_run_matches_direct_profile(self, warm_cell_store):
        _, cold = warm_cell_store
        direct = small_profiler().profile_cell(*CELL)
        assert_same_payload(cold.to_payload(), direct.to_payload())

    def test_warm_run_is_bit_identical_without_simulating(
        self, warm_cell_store, monkeypatch
    ):
        store, cold = warm_cell_store

        def forbidden(self, dataset):
            raise AssertionError("a warm cell must not run the driver")

        monkeypatch.setattr(StreamDriver, "run", forbidden)
        hits, misses = store.hits, store.misses
        (warm,) = small_profiler().profile_cells([CELL], store=store, jobs=2)
        assert (store.hits, store.misses) == (hits + 1, misses)
        assert_same_payload(warm.to_payload(), cold.to_payload())

    def test_changed_cost_model_misses_the_cache(self, warm_cell_store):
        store, _ = warm_cell_store
        perturbed = small_profiler(
            cost_model=replace(
                DEFAULT_COST_MODEL, probe_element=DEFAULT_COST_MODEL.probe_element + 1
            )
        )
        assert store.path(small_profiler().cell_key(*CELL)).exists()
        assert not store.path(perturbed.cell_key(*CELL)).exists()

    @pytest.mark.parametrize("damage", sorted(DAMAGED_CELLS))
    def test_damaged_entry_is_one_miss_and_resimulates(
        self, warm_cell_store, tmp_path, damage
    ):
        """A corrupt file, an entry with another ``PhaseCounters``
        layout and one without ``core_counts`` each count one miss and
        no hit, re-simulate the same cell and overwrite the entry."""
        _, cold = warm_cell_store
        store = RunStore(tmp_path)
        key = small_profiler().cell_key(*CELL)
        if DAMAGED_CELLS[damage] is None:
            store.path(key).write_bytes(b"not an npz file")
        else:
            meta, arrays = cold.to_payload()
            DAMAGED_CELLS[damage](meta, arrays)
            store.save_arrays(key, meta, arrays)
        (fresh,) = small_profiler().profile_cells([CELL], store=store)
        assert (store.hits, store.misses) == (0, 1)
        assert_same_payload(fresh.to_payload(), cold.to_payload())
        assert store.load(key, _raw) is not None

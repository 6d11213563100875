"""The id and weight widths at their boundaries (:mod:`repro.widths`).

Every host array of vertex ids is int32 and every array of weights
float32.  What cannot be held so is refused where it enters, before
anything is allocated or written; what stays int64 (packed pair keys)
is widened before it is packed.
"""

import json
import tracemalloc

import numpy as np
import pytest

from repro import widths
from repro.compute import ckernels, csrstore
from repro.compute.csrstore import DynamicCSR, ViewMaintainer, pair_keys
from repro.compute.kernels import ComputeView, csr_from_edges
from repro.datasets.catalog import make_rmat_dataset
from repro.datasets.mmapio import (
    META_FILE,
    EdgeStreamWriter,
    open_edge_mmap,
    read_meta,
    write_edge_mmap,
)
from repro.errors import ConfigError, DatasetError, SimulationError
from repro.graph import EdgeBatch, ReferenceGraph, make_structure
from repro.graph.nativestore import BLOCK_CAPACITY
from repro.widths import SLOT, SLOT_LIMIT, VERTEX_LIMIT
from tests.conftest import native_env

#: The largest id an int32 holds; also the largest ``max_nodes`` allowed.
TOP = VERTEX_LIMIT - 1


class TestVertexSpace:
    @pytest.mark.parametrize(
        "make",
        [
            DynamicCSR,
            ViewMaintainer,
            ReferenceGraph,
            lambda n: make_structure("AS", n),
            lambda n: make_structure("DAH", n),
        ],
        ids=["DynamicCSR", "ViewMaintainer", "ReferenceGraph", "AS", "DAH"],
    )
    def test_two_to_the_31_vertices_are_refused_before_allocating(self, make):
        """``2**31`` rows of int64 offsets alone would be 16 GiB: the
        refusal comes first, so the traced heap never grows."""
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="int32"):
                make(2**31)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestEdgeBatchColumns:
    def test_columns_take_the_widths(self):
        batch = EdgeBatch.from_edges([(0, 1, 2.0), (3, 4)])
        assert (batch.src.dtype, batch.dst.dtype, batch.weight.dtype) == (
            np.int32, np.int32, np.float32,
        )

    @pytest.mark.parametrize("bad", [VERTEX_LIMIT, -VERTEX_LIMIT - 1, 2**40])
    def test_an_id_an_int32_cannot_hold_is_refused(self, bad):
        with pytest.raises(DatasetError, match=f"vertex id {bad} "):
            EdgeBatch.from_edges([(0, 1), (bad, 2)])
        with pytest.raises(DatasetError, match=f"vertex id {bad} "):
            EdgeBatch(src=np.array([1, 2]), dst=np.array([0, bad]), weight=np.ones(2))

    def test_the_largest_int32_id_is_kept_exactly(self):
        batch = EdgeBatch.from_edges([(TOP, 0)])
        assert batch.src.tolist() == [TOP]

    @pytest.mark.parametrize("bad", [0.1, 1 / 3, 1e300, 2.0**24 + 1])
    def test_a_weight_a_float32_cannot_hold_is_refused(self, bad):
        with pytest.raises(DatasetError, match="not a float32"):
            EdgeBatch.from_edges([(0, 1, 1.0), (1, 2, bad)])

    def test_nan_and_infinities_are_held(self):
        """The hostile-input tests stream them; float32 holds them."""
        batch = EdgeBatch.from_edges([(0, 1, np.nan), (1, 2, np.inf), (2, 3, -np.inf)])
        assert np.isnan(batch.weight[0]) and batch.weight[1:].tolist() == [np.inf, -np.inf]

    def test_columns_of_the_widths_are_not_copied(self, tmp_path):
        write_edge_mmap(tmp_path / "s", EdgeBatch.from_edges([(0, 1), (1, 2)]))
        mapped = open_edge_mmap(tmp_path / "s")
        again = EdgeBatch(src=mapped.src, dst=mapped.dst, weight=mapped.weight)
        assert again.src is mapped.src and isinstance(again.weight, np.memmap)


class TestStreamFormat:
    def test_twelve_bytes_per_edge(self, tmp_path):
        write_edge_mmap(tmp_path / "s", EdgeBatch.from_edges([(0, 1, 2.0)] * 10))
        meta = read_meta(tmp_path / "s")
        assert meta["version"] == 2
        assert meta["columns"] == {"src": "<i4", "dst": "<i4", "weight": "<f4"}
        sizes = [(tmp_path / "s" / f"{name}.bin").stat().st_size for name in meta["columns"]]
        assert sum(sizes) == 10 * 12

    @pytest.mark.parametrize("bad", [-1, VERTEX_LIMIT])
    def test_the_writer_refuses_an_id_outside_the_id_space(self, tmp_path, bad):
        writer = EdgeStreamWriter(tmp_path / "s")
        with pytest.raises(DatasetError, match=f"vertex id {bad} outside \\[0, 2\\*\\*31\\)"):
            writer.append(np.array([0, bad]), np.array([1, 1]), np.ones(2))
        writer.abort()
        assert (tmp_path / "s" / "src.bin").stat().st_size == 0

    def test_the_writer_casts_integral_float_ids_and_refuses_others(self, tmp_path):
        """``EdgeStreamWriter.append`` casts what it is handed, float id
        columns such as ``np.zeros(n)`` included, as long as every id is
        an integer; a fractional id is refused before anything is
        written."""
        writer = EdgeStreamWriter(tmp_path / "s")
        with pytest.raises(DatasetError, match="must be integers"):
            writer.append(np.array([0.0, 1.5]), np.zeros(2), np.ones(2))
        assert (tmp_path / "s" / "src.bin").stat().st_size == 0
        writer.append(np.array([3.0, 0.0]), np.zeros(2), np.ones(2))
        writer.close()
        assert open_edge_mmap(tmp_path / "s").src.tolist() == [3, 0]

    def test_the_writer_refuses_an_inexact_weight(self, tmp_path):
        writer = EdgeStreamWriter(tmp_path / "s")
        with pytest.raises(DatasetError, match="not a float32"):
            writer.append(np.array([0]), np.array([1]), np.array([0.1]))
        writer.abort()

    @staticmethod
    def _as_version_one(directory):
        """Rewrite a stream directory in the version-1 layout."""
        meta = read_meta(directory)
        for name, wide in (("src", "<i8"), ("dst", "<i8"), ("weight", "<f8")):
            path = directory / f"{name}.bin"
            np.fromfile(path, dtype=meta["columns"][name]).astype(wide).tofile(path)
            meta["columns"][name] = wide
        meta["version"] = 1
        (directory / META_FILE).write_text(json.dumps(meta))

    def test_a_version_one_directory_is_refused_by_name(self, tmp_path):
        write_edge_mmap(tmp_path / "s", EdgeBatch.from_edges([(0, 1), (1, 2)]))
        self._as_version_one(tmp_path / "s")
        with pytest.raises(DatasetError, match="layout version 1 .*regenerate"):
            open_edge_mmap(tmp_path / "s")

    def test_make_rmat_dataset_regenerates_over_a_version_one_directory(self, tmp_path):
        """The directory's recipe is the same, but its layout is not: the
        stream is written again, in the current layout, with the same
        values."""
        recipe = dict(scale=8, num_edges=3_000, seed=1, chunk_edges=1_000)
        first = make_rmat_dataset(mmap_dir=tmp_path / "s", **recipe).edges
        values = [column.tolist() for column in (first.src, first.dst, first.weight)]
        del first
        self._as_version_one(tmp_path / "s")
        again = make_rmat_dataset(mmap_dir=tmp_path / "s", **recipe).edges
        assert read_meta(tmp_path / "s")["version"] == 2
        assert [column.tolist() for column in (again.src, again.dst, again.weight)] == values


class TestPairKeysAreInt64:
    """A pair ``(u, v)`` packs as ``u * max_nodes + v`` in int64; with
    int32 ids that needs a widening before the multiply, at every site.
    Near the top of the id space an int32 key wraps: ``(2, 9)`` over
    ``2**31 - 1`` ids wraps to ``7``, the key of ``(0, 7)``."""

    def test_the_helper_widens_before_the_multiply(self):
        keys = np.array([TOP - 1, 2, 0], dtype=np.int32)
        vals = np.array([TOP - 1, 9, 7], dtype=np.int32)
        packed = pair_keys(keys, vals, TOP)
        assert packed.dtype == np.int64
        assert packed.tolist() == [(TOP - 1) * TOP + TOP - 1, 2 * TOP + 9, 7]

    #: Pairs named by the lookup and the delete: ``(2, 9)`` wraps onto
    #: the live ``(0, 7)``, and ``(1, 7)`` names column 7 for the kernel's
    #: column filter.
    KEYS = np.array([2, 0, 1], dtype=np.int32)
    VALS = np.array([9, 5, 7], dtype=np.int32)

    @staticmethod
    def _store():
        """Rows 0 and 2 of a 16-vertex store, ``(0, 5) (0, 7) (2, 3)
        (2, 9)`` with weights 1 to 4, whose keys are then packed over
        ``2**31 - 1`` ids: the multiplier alone, no id past 9."""
        store = DynamicCSR(16)
        store.rebuild(
            np.array([0, 0, 2, 2], dtype=np.int32),
            np.array([5, 7, 3, 9], dtype=np.int32),
            np.array([1, 2, 3, 4], dtype=np.float32),
        )
        store.max_nodes = TOP
        return store

    @staticmethod
    def _rows(store):
        return [
            store.cols[start : start + length].tolist()
            for start, length in zip(store.starts[:3].tolist(), store.lens[:3].tolist())
        ]

    def test_numpy_bodies_pack_in_int64(self, monkeypatch):
        monkeypatch.setattr(ckernels, "get", lambda: None)
        first, live, weight = self._store().lookup(self.KEYS, self.VALS)
        assert live.tolist() == [True, True, False]
        assert weight.tolist() == [4.0, 1.0, 0.0]
        store = self._store()
        assert store.delete(self.KEYS, self.VALS) == 2
        assert self._rows(store) == [[7], [], [3]]

    def test_the_kernels_delete_packs_in_int64(self):
        """``saga_csr_delete`` called directly, with bitmaps sized for the
        few ids named (the facade sizes them by ``max_nodes``)."""
        kernels = ckernels.get()
        if kernels is None:
            pytest.skip("native library not loaded")
        store = self._store()
        m = len(self.KEYS)
        table, cap = kernels._pair_set(m)
        seen, named = np.zeros(1, dtype=np.uint64), np.zeros(1, dtype=np.uint64)
        rows = np.empty(m, dtype=np.int64)
        p = kernels._p
        removed = kernels._lib.saga_csr_delete(
            m, TOP, p(self.KEYS), p(self.VALS), p(store.starts), p(store.lens),
            p(store.cols), p(store.wts), p(seen), p(named), p(rows), p(table), cap,
        )  # fmt: skip
        assert removed == 2
        assert self._rows(store) == [[7], [], [3]]


#: Both engines: the native library, and every phase on its Python
#: reference (``SAGA_BENCH_NO_NATIVE=1``).
ENGINES = pytest.mark.parametrize("engine", [None, "1"], ids=["native", "no-native"])

#: The per-vertex arrays of each structure's stores (arrays of
#: ``max_nodes`` entries): SLOT, but for the simulated addresses.
PER_VERTEX = {
    "AS": {"_off", "_len", "_capacity", "_region_base"},
    "AC": {"_off", "_len", "_capacity", "_region_base"},
    "BA": {"_off", "_len", "_capacity", "_region_base"},
    "Stinger": {"_boff", "_bcnt", "_bcap", "_deg"},
    "DAH": set(),  # keyed by chunk, not by vertex
}

#: ``max_nodes`` of the stores below: no pool or table starts this size.
NODES = 1000


def _arrays(*holders):
    """Every numpy array the holders keep, by position and name."""
    return {
        (i, name): (value.dtype, value.shape, value.tobytes())
        for i, holder in enumerate(holders)
        for name in getattr(holder, "__slots__", None) or vars(holder)
        if isinstance(value := getattr(holder, name), np.ndarray)
    }


def _csr_state(store):
    return _arrays(store), (store.used, store.dead, store.live, store.tight)


class TestSlotWidth:
    """Per-vertex offsets, lengths, capacities and degrees are SLOT."""

    @ENGINES
    def test_the_live_csr_rows_are_slots(self, engine):
        rng = np.random.default_rng(3)
        keys, vals = rng.integers(0, 40, (2, 300)).astype(np.int32)
        wts = np.ones(300, dtype=np.float32)
        with native_env(engine):
            store = DynamicCSR(40)
            for op, args in [
                ("rebuild", (keys[:100], vals[:100], wts[:100])),
                ("insert", (keys[100:], vals[100:], wts[100:])),
                ("delete", (keys[::3], vals[::3])),
                ("compact", ()),
            ]:
                getattr(store, op)(*args)
                assert (store.starts.dtype, store.lens.dtype, store.caps.dtype) == (
                    SLOT, SLOT, SLOT,
                ), op  # fmt: skip

    @ENGINES
    def test_an_exported_view_rows_are_slots(self, engine):
        batch = EdgeBatch.from_edges([(u, (7 * u + 1) % 50) for u in range(50)])
        with native_env(engine):
            graph = ReferenceGraph(50)
            graph.update_collect(batch)
            structure = make_structure("Stinger", 50)
            structure.update(batch)
            views = [graph.compute_view(), ComputeView.of(structure)]
        packed = csr_from_edges(batch.src, batch.dst, batch.weight, 50, by_src=True)
        for csr in [packed] + [getattr(v, d) for v in views for d in ("out_csr", "in_csr")]:
            assert (csr.indptr.dtype, csr.degrees.dtype) == (SLOT, SLOT)

    def test_a_view_of_wider_rows_is_refused(self):
        """The kernels read ``indptr`` and ``degrees`` as int32."""
        csr = csr_from_edges(np.array([0]), np.array([1]), np.ones(1), 2, by_src=True)
        wide = csr._replace(degrees=csr.degrees.astype(np.int64))
        with pytest.raises(SimulationError, match="int32"):
            ComputeView(2, out_csr=wide, in_csr=csr)

    @ENGINES
    @pytest.mark.parametrize("name", sorted(PER_VERTEX))
    def test_the_stores_per_vertex_arrays_are_slots(self, name, engine):
        batch = EdgeBatch.from_edges([(u % 40, (u * 7) % 40) for u in range(300)])
        with native_env(engine):
            structure = make_structure(name, NODES)
            structure.update(batch)
        for store in (structure._out, structure._in):
            per_vertex = {
                key: value.dtype
                for key, value in vars(store).items()
                if isinstance(value, np.ndarray) and len(value) == NODES
            }
            assert set(per_vertex) == PER_VERTEX[name]
            widths = {key: SLOT for key in per_vertex} | (
                {"_region_base": np.dtype(np.int64)} if "_region_base" in per_vertex else {}
            )
            assert per_vertex == widths


class TestSlotLimit:
    """A pool or heap never reaches ``2**31`` slots: growth that would is
    refused before anything is allocated or changed, on both engines.
    Cursors are set near the limit; nothing of that size is allocated."""

    @ENGINES
    def test_the_csr_heap_does_not_grow_to_the_limit(self, engine):
        with native_env(engine):
            store = DynamicCSR(8)
            store.rebuild(*(np.array(c, dtype=d) for c, d in (
                ([0, 1], np.int32), ([1, 2], np.int32), ([1, 1], np.float32))))  # fmt: skip
            store.used = SLOT_LIMIT - 3  # row 0 relocates to 4 slots
            before = _csr_state(store)
            with pytest.raises(SimulationError, match=r"fewer than 2\*\*31 slots"):
                store.insert(*(np.array([c], dtype=d) for c, d in (
                    (0, np.int32), (3, np.int32), (1.0, np.float32))))  # fmt: skip
            assert _csr_state(store) == before

    @ENGINES
    def test_rebuild_and_compact_refuse_the_limit(self, engine):
        """A zero-stride column of ``2**31`` entries allocates nothing."""
        with native_env(engine):
            store = DynamicCSR(8)
            before = _csr_state(store)
            huge = [np.broadcast_to(np.zeros(1, dtype=d), (SLOT_LIMIT,))
                    for d in (np.int32, np.int32, np.float32)]  # fmt: skip
            with pytest.raises(SimulationError, match=r"fewer than 2\*\*31 slots"):
                store.rebuild(*huge)
            assert _csr_state(store) == before
            store.live = SLOT_LIMIT
            before = _csr_state(store)
            with pytest.raises(SimulationError, match=r"fewer than 2\*\*31 slots"):
                store.compact()
            assert _csr_state(store) == before

    @ENGINES
    def test_the_csr_heap_stays_below_a_lowered_limit(self, engine, monkeypatch):
        """Doubling is capped below the limit, and the heap fills up to
        it on both engines, then refuses."""
        limit = 1 << 12
        for module in (widths, csrstore):
            monkeypatch.setattr(module, "SLOT_LIMIT", limit)
        with native_env(engine):
            store = DynamicCSR(8)
            hub = np.zeros(300, dtype=np.int32)
            with pytest.raises(SimulationError, match="slots"):
                for _ in range(limit):
                    store.insert(hub, hub + 1, np.ones(300, dtype=np.float32))
                    assert len(store.cols) < limit
            assert store.used < limit <= store.used + 2 * store.caps[0]

    @ENGINES
    @pytest.mark.parametrize(
        "name, cursor",
        [
            ("AS", (0, SLOT_LIMIT - 2)),
            ("AC", (0, SLOT_LIMIT - 2)),
            ("BA", (0, SLOT_LIMIT - 2)),
            ("Stinger", (0, SLOT_LIMIT - 2)),  # the block-id pool
            ("Stinger", (1, SLOT_LIMIT // BLOCK_CAPACITY)),  # the block pool
        ],
        ids=["AS", "AC", "BA", "Stinger-bids", "Stinger-blocks"],
    )
    def test_a_store_pool_does_not_grow_to_the_limit(self, name, cursor, engine):
        """The batch's first operation needs a new span or block past the
        cursor: the refusal leaves both stores as they were."""
        with native_env(engine):
            structure = make_structure(name, 64)
            structure.update(EdgeBatch.from_edges([(1, 2), (2, 3)]))
            structure._out._state[cursor[0]] = cursor[1]
            before = _arrays(structure._out, structure._in)
            with pytest.raises(SimulationError, match=r"fewer than 2\*\*31 slots"):
                structure.update(EdgeBatch.from_edges([(5, 6)]))
            assert _arrays(structure._out, structure._in) == before


@pytest.mark.usefixtures("ubsan_libraries")
class TestSlotLimitUnderUBSan(TestSlotLimit):
    """The refusals above, inherited, through the ``-fsanitize=undefined``
    build of the library."""

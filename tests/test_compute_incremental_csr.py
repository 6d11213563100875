"""Differential tests: incremental CSR maintenance vs full rebuilds.

The :class:`~repro.compute.csrstore.ViewMaintainer` must be
*observationally invisible*: streaming a dataset with the churn
threshold forcing a rebuild every batch (``DEFAULT_CHURN_THRESHOLD`` patched
to 0, the PR 4 behavior), with the default threshold, and with a threshold so
high no rebuild ever triggers must all yield bit-identical stream
results -- values, iteration counts, and therefore every priced
latency.  On top of the end-to-end differential, the store itself is
checked row-for-row against ``csr_from_edges`` rebuilt from scratch
after every batch of an oscillating insert/delete stream.
"""

import runpy
from pathlib import Path

import numpy as np
import pytest

from repro import cli
from repro.compute.csrstore import (
    DynamicCSR,
    ViewMaintainer,
    check_packable,
)
from repro.compute.kernels import (
    csr_from_edges,
    flat_slots,
    packed_in_edges,
    packed_out_weights,
)
from repro.datasets import load_dataset
from repro.errors import StructureError
from repro.graph import ReferenceGraph
from repro.streaming import StreamConfig, StreamDriver
from tests.conftest import SMALL_MACHINE, churn_threshold as _churn

STRUCTS = ("AS", "AC", "Stinger", "DAH", "BA")


def _stream_result(churn_setting, churn_fraction, structures=STRUCTS):
    """One full driver run under a churn-threshold setting."""
    with _churn(churn_setting):
        dataset = load_dataset("Talk", seed=3, size_factor=0.1)
        config = StreamConfig(
            batch_size=600,
            machine=SMALL_MACHINE,
            structures=structures,
            churn_fraction=churn_fraction,
        )
        return StreamDriver(config).run(dataset)


def _result_digest(result):
    """Everything the maintainer could have perturbed, as bytes."""
    return (
        result.num_nodes.tobytes(),
        result.num_edges.tobytes(),
        result.edges_inserted.tobytes(),
        result.compute_cycles.tobytes(),
        result.compute_iterations.tobytes(),
        result.update_cycles.tobytes(),
    )


class TestStreamDifferential:
    """rebuild-every-batch vs default vs never-rebuild, end to end."""

    # DAH is excluded from the delete-heavy run: its open-address table
    # overflows under 50% churn regardless of how the compute view is
    # maintained (the maintainer is per-repetition, not per-structure,
    # so the differential is unaffected).
    @pytest.mark.parametrize(
        "churn_fraction, structures",
        [(0.0, STRUCTS), (0.5, ("AS", "AC", "Stinger", "BA"))],
        ids=["insert_only", "delete_heavy"],
    )
    def test_churn_settings_bit_identical(self, churn_fraction, structures):
        rebuild_every = _stream_result("0", churn_fraction, structures)
        default = _stream_result(None, churn_fraction, structures)
        never_rebuild = _stream_result("1e9", churn_fraction, structures)
        assert _result_digest(rebuild_every) == _result_digest(default)
        assert _result_digest(rebuild_every) == _result_digest(never_rebuild)


def _oscillating_batches(num_nodes=48, rounds=6, seed=21):
    """Insert / delete / re-insert waves over one edge population."""
    rng = np.random.default_rng(seed)
    pairs = set()
    while len(pairs) < 300:
        pairs.add(
            (int(rng.integers(0, num_nodes)), int(rng.integers(0, num_nodes)))
        )
    pairs = sorted(pairs)
    rng.shuffle(pairs)
    batches = []
    live = []  # chronological (u, v, w) list mirroring the store
    cursor = 0
    for r in range(rounds):
        chunk = pairs[cursor : cursor + 60]
        cursor += 60
        inserts = [(u, v, round(0.5 + 0.01 * ((u + v) % 97), 2)) for u, v in chunk]
        if r >= 2:
            # Re-insert half of what the previous round deleted.
            inserts += batches[r - 1]["deletes_full"][::2]
        deletes = [e for e in live[:: max(1, r)] if r][:40] if r else []
        batches.append(
            {"inserts": inserts, "deletes": [(u, v) for u, v, _ in deletes],
             "deletes_full": deletes}
        )
        delete_keys = {(u, v) for u, v, _ in deletes}
        live = [e for e in live if (e[0], e[1]) not in delete_keys]
        live += inserts
    return batches


def _arrays(edges):
    if not edges:
        return (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )
    src, dst, wt = zip(*edges)
    return (
        np.asarray(src, dtype=np.int64),
        np.asarray(dst, dtype=np.int64),
        np.asarray(wt, dtype=np.float64),
    )


class TestOscillatingStream:
    """Store-level equality with from-scratch rebuilds, every batch."""

    @pytest.mark.parametrize("churn_setting", ["0", None, "1e9"])
    def test_store_matches_rebuild(self, churn_setting):
        num_nodes = 48
        batches = _oscillating_batches(num_nodes=num_nodes)
        with _churn(churn_setting):
            maintainer = ViewMaintainer(num_nodes)
            live = []
            for batch in batches:
                delete_keys = set(batch["deletes"])
                live = [e for e in live if (e[0], e[1]) not in delete_keys]
                # apply() folds inserts first, then the removals; a
                # batch never deletes what it inserts, so the order of
                # the two on the mirror list does not matter.
                live += batch["inserts"]
                ins_src, ins_dst, ins_wt = _arrays(batch["inserts"])
                rem_src, rem_dst, _ = _arrays(batch["deletes_full"])
                src, dst, wt = _arrays(live)
                view = maintainer.apply(
                    ins_src, ins_dst, ins_wt, rem_src, rem_dst, num_nodes
                )
                out_ref = csr_from_edges(src, dst, wt, num_nodes, by_src=True)
                in_ref = csr_from_edges(src, dst, wt, num_nodes, by_src=False)
                assert maintainer.out.check_against(out_ref, num_nodes)
                assert maintainer.inc.check_against(in_ref, num_nodes)
                assert view.version == maintainer.version
                # The packed helpers must see identical edges either way.
                p_src, p_dst, p_wt = packed_in_edges(view)
                assert np.array_equal(p_src, in_ref.indices)
                assert np.array_equal(
                    p_dst,
                    np.repeat(
                        np.arange(num_nodes, dtype=np.int64), in_ref.degrees
                    ),
                )
                assert p_wt.tobytes() == in_ref.weights.tobytes()
                assert (
                    packed_out_weights(view).tobytes()
                    == out_ref.weights.tobytes()
                )

    def test_rebuild_counters_respect_threshold(self):
        num_nodes = 48
        batches = _oscillating_batches(num_nodes=num_nodes)

        def run(setting):
            with _churn(setting):
                maintainer = ViewMaintainer(num_nodes)
                for batch in batches:
                    ins = _arrays(batch["inserts"])
                    rem_src, rem_dst, _ = _arrays(batch["deletes_full"])
                    maintainer.apply(*ins, rem_src, rem_dst, num_nodes)
                return maintainer

        rebuild_every = run("0")
        assert rebuild_every.updates == 0
        assert rebuild_every.builds == len(batches)
        assert rebuild_every.rebuilds == len(batches) - 1  # seed build excluded
        never = run("1e9")
        assert never.rebuilds == 0
        assert never.builds == 1  # the seed build only
        assert never.updates == len(batches) - 1

    def test_view_packed_flag_tracks_path(self):
        num_nodes = 8
        src = np.arange(4, dtype=np.int64)
        dst = src + 1
        wt = np.ones(4)
        with _churn("1e9"):
            maintainer = ViewMaintainer(num_nodes)
            seed = maintainer.apply(
                src, dst, wt,
                np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
                num_nodes,
            )
            assert seed.packed  # seed build is a tight rebuild
            more = maintainer.apply(
                src + 4, dst + 3, wt,
                np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
                num_nodes,
            )
            assert not more.packed  # incremental export has slack


def _interleaved(edges):
    """Each undirected edge followed by its reverse (self-loops once)."""
    rows = []
    for u, v, w in edges:
        rows.append((u, v, w))
        if u != v:
            rows.append((v, u, w))
    return _arrays(rows)


class TestUndirectedHoldsOneAdjacency:
    """``directed=False`` aliases ``inc`` to ``out`` and folds once."""

    @pytest.mark.parametrize("churn_setting", ["0", None, "1e9"])
    def test_aliased_store_matches_the_two_store_result(self, churn_setting):
        """Orkut-style undirected stream with self-loops: every view of
        the one-store maintainer equals the two-store maintainer's, both
        directions.  Fails on: folding an aliased delta twice."""
        rng = np.random.default_rng(11)
        num_nodes = 40
        live = {}
        with _churn(churn_setting):
            one = ViewMaintainer(num_nodes, directed=False)
            two = ViewMaintainer(num_nodes)
            assert one.inc is one.out and two.inc is not two.out
            for _ in range(8):
                fresh = {}
                for u, v in rng.integers(0, num_nodes, (70, 2)).tolist():
                    key = (min(u, v), max(u, v))
                    if key not in live and key not in fresh:
                        fresh[key] = (u, v, float(rng.uniform(0.5, 9.0)))
                victims = [live.pop(key) for key in list(live)[::3]]
                live.update(fresh)
                ins = _interleaved(fresh.values())
                rem_src, rem_dst, _ = _interleaved(victims)
                views = [
                    m.apply(*ins, rem_src, rem_dst, num_nodes) for m in (one, two)
                ]
                assert views[0].packed == views[1].packed
                for direction in ("out_csr", "in_csr"):
                    got = getattr(views[0], direction)
                    expected = getattr(views[1], direction)
                    assert np.array_equal(got.degrees, expected.degrees)
                    for column in ("indices", "weights"):
                        assert np.array_equal(
                            getattr(got, column)[flat_slots(got.indptr, got.degrees)],
                            getattr(expected, column)[
                                flat_slots(expected.indptr, expected.degrees)
                            ],
                        )
                assert one.out.live == two.out.live == two.inc.live


class TestPackedKeyOverflow:
    """``src * max_nodes + dst`` must fit int64: refused at construction."""

    #: Smallest max_nodes whose largest key, max_nodes ** 2 - 1, overflows.
    LIMIT = 3_037_000_500

    def test_boundary(self):
        assert (self.LIMIT - 1) ** 2 < 2**63 <= self.LIMIT**2
        check_packable(self.LIMIT - 1)
        with pytest.raises(StructureError, match="overflow int64"):
            check_packable(self.LIMIT)

    @pytest.mark.parametrize(
        "make", [DynamicCSR, ViewMaintainer, ReferenceGraph], ids=lambda m: m.__name__
    )
    def test_constructors_refuse_before_allocating(self, make):
        with pytest.raises(StructureError, match="overflow int64"):
            make(self.LIMIT)
        with pytest.raises(StructureError, match="max_nodes must be >= 1"):
            make(0)


class TestDynamicCSRMechanics:
    def test_capacity_doubling_and_compaction(self):
        """Repeated same-row appends force relocations, then a compact."""
        num_nodes = 4
        store = DynamicCSR(num_nodes)
        store.rebuild(
            np.zeros(2, dtype=np.int64),
            np.array([1, 2], dtype=np.int64),
            np.ones(2),
        )
        mirror = [(0, 1, 1.0), (0, 2, 1.0)]
        nxt = 3
        for wave in range(9):
            vals = np.arange(nxt, nxt + 2 ** wave, dtype=np.int64) % num_nodes
            keys = np.full(vals.size, wave % 2, dtype=np.int64)
            wts = np.full(vals.size, 0.5 + wave)
            # Row-major uniqueness is irrelevant here: DynamicCSR itself
            # never dedups; it appends exactly what it is told.
            store.insert(keys, vals, wts)
            mirror += list(zip(keys.tolist(), vals.tolist(), wts.tolist()))
            nxt += vals.size
        assert store.dead > 0  # relocations left tombstones behind
        src, dst, wt = _arrays(mirror)
        reference = csr_from_edges(src, dst, wt, num_nodes, by_src=True)
        assert store.check_against(reference, num_nodes)
        store.compact()
        assert store.dead == 0 and store.used == store.live
        assert store.check_against(reference, num_nodes)

    def test_delete_preserves_survivor_order(self):
        num_nodes = 3
        store = DynamicCSR(num_nodes)
        keys = np.zeros(5, dtype=np.int64)
        vals = np.array([2, 0, 1, 2, 0], dtype=np.int64)
        # (0,0) occupies two slots; delete removes every matching slot,
        # like the incidence buffer's pair match.
        store.rebuild(keys, vals, np.arange(5, dtype=np.float64))
        removed = store.delete(
            np.array([0], dtype=np.int64), np.array([0], dtype=np.int64)
        )
        assert removed == 2
        flat = store.cols[store.starts[0] : store.starts[0] + store.lens[0]]
        assert flat.tolist() == [2, 1, 2]
        assert store.live == 3

    def test_delete_missing_pair_is_noop(self):
        store = DynamicCSR(4)
        store.rebuild(
            np.array([1], dtype=np.int64),
            np.array([2], dtype=np.int64),
            np.ones(1),
        )
        assert (
            store.delete(
                np.array([1], dtype=np.int64), np.array([3], dtype=np.int64)
            )
            == 0
        )
        assert store.live == 1


class TestLiveGraphEndToEnd:
    """The deletion example and an mmap `repro scale` stream print the
    same numbers whether every batch is folded and compacted (threshold
    0) or the shipped threshold decides."""

    EXAMPLE = Path(__file__).parent.parent / "examples" / "streaming_deletions.py"

    def _outputs(self, setting, mmap_dir, capsys):
        compactions = []
        compact = DynamicCSR.compact

        def counted(store):
            compactions.append(store)
            compact(store)

        with _churn(setting), pytest.MonkeyPatch.context() as patch:
            patch.setattr(DynamicCSR, "compact", counted)
            runpy.run_path(str(self.EXAMPLE), run_name="__main__")
            deletions = capsys.readouterr().out
            scale = [
                "scale", "--scale", "16", "--edges", "200000",
                "--batch-size", "40000", "--mmap-dir", str(mmap_dir),
            ]  # fmt: skip
            assert cli.main(scale) == 0
            # The first two lines carry the mmap path and wall times.
            sustained = capsys.readouterr().out.splitlines()[-1]
        return deletions, sustained, len(compactions)

    def test_compacting_every_batch_changes_no_output(self, tmp_path, capsys):
        default = self._outputs(None, tmp_path / "default", capsys)
        every_batch = self._outputs("0", tmp_path / "compact", capsys)
        assert "stayed exactly equal" in default[0]
        assert default[1].startswith("sustained simulated ingest:")
        assert every_batch[:2] == default[:2]
        assert every_batch[2] > default[2]  # the patch did reach the maintainer

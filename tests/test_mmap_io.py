"""Tests for the memory-mapped edge-stream storage (datasets.mmapio)."""

import dataclasses
import json
import tempfile

import numpy as np
import pytest

from repro.datasets import load_snap_edges, make_rmat_dataset
from repro.datasets.mmapio import (
    META_FILE,
    EdgeStreamWriter,
    mmap_source,
    open_edge_mmap,
    read_meta,
    set_source,
    stream_directory,
    write_edge_mmap,
)
from repro.datasets.rmat import rmat_edge_chunks
from repro.errors import DatasetError
from repro.graph import EdgeBatch
from repro.obs import METRICS
from repro.streaming import make_batches
from tests.conftest import random_batch


class TestRoundTrip:
    def test_mmap_batch_equals_in_ram(self, tmp_path):
        batch = random_batch(100, 500, seed=1)
        write_edge_mmap(tmp_path / "s", batch)
        mapped = open_edge_mmap(tmp_path / "s")
        assert np.array_equal(mapped.src, batch.src)
        assert np.array_equal(mapped.dst, batch.dst)
        assert np.array_equal(mapped.weight, batch.weight)

    def test_mapped_arrays_are_memmaps(self, tmp_path):
        write_edge_mmap(tmp_path / "s", random_batch(50, 200, seed=2))
        mapped = open_edge_mmap(tmp_path / "s")
        assert isinstance(mapped.src, np.memmap)
        assert isinstance(mapped.weight, np.memmap)

    def test_chunked_write_equals_single_write(self, tmp_path):
        batch = random_batch(100, 500, seed=3)
        write_edge_mmap(tmp_path / "whole", batch)
        chunks = [batch.slice(0, 200), batch.slice(200, 350), batch.slice(350, 500)]
        write_edge_mmap(tmp_path / "chunked", chunks)
        whole = open_edge_mmap(tmp_path / "whole")
        chunked = open_edge_mmap(tmp_path / "chunked")
        assert np.array_equal(whole.src, chunked.src)
        assert np.array_equal(whole.dst, chunked.dst)
        assert np.array_equal(whole.weight, chunked.weight)

    def test_empty_stream(self, tmp_path):
        write_edge_mmap(tmp_path / "s", EdgeBatch.empty())
        mapped = open_edge_mmap(tmp_path / "s")
        assert len(mapped) == 0

    def test_batches_over_mmap_equal_batches_over_ram(self, tmp_path):
        batch = random_batch(100, 400, seed=4)
        write_edge_mmap(tmp_path / "s", batch)
        mapped = open_edge_mmap(tmp_path / "s")
        assert _same_batches(
            make_batches(mapped, 64, shuffle_seed=7),
            make_batches(batch, 64, shuffle_seed=7),
        )

    def test_shuffle_deterministic_per_seed_over_mmap(self, tmp_path):
        batch = random_batch(100, 400, seed=8)
        write_edge_mmap(tmp_path / "s", batch)
        mapped = open_edge_mmap(tmp_path / "s")
        first = make_batches(mapped, 64, shuffle_seed=3)
        second = make_batches(mapped, 64, shuffle_seed=3)
        assert _same_batches(first, second)
        assert not _same_batches(first, make_batches(mapped, 64, shuffle_seed=4))

    def test_source_recipe_round_trips(self, tmp_path):
        recipe = {"kind": "test", "seed": 9}
        write_edge_mmap(tmp_path / "s", random_batch(10, 20, seed=5), source=recipe)
        assert mmap_source(tmp_path / "s") == recipe

    def test_set_source_after_post_pass(self, tmp_path):
        write_edge_mmap(tmp_path / "s", random_batch(10, 20, seed=6))
        assert mmap_source(tmp_path / "s") is None
        set_source(tmp_path / "s", {"kind": "post"})
        assert mmap_source(tmp_path / "s") == {"kind": "post"}

    def test_bytes_mapped_metric(self, tmp_path):
        batch = random_batch(10, 100, seed=7)
        write_edge_mmap(tmp_path / "s", batch)
        METRICS.reset()
        METRICS.enable()
        try:
            open_edge_mmap(tmp_path / "s")
            # 100 edges x (8 + 8 + 8) bytes across the three columns.
            assert METRICS.value("stream_bytes_mapped") == 100 * 24
        finally:
            METRICS.disable()
            METRICS.reset()


class TestWriterLifecycle:
    def test_append_after_close_rejected(self, tmp_path):
        writer = EdgeStreamWriter(tmp_path / "s")
        writer.close()
        with pytest.raises(DatasetError):
            writer.append(np.zeros(2), np.zeros(2), np.zeros(2))

    def test_mismatched_columns_rejected(self, tmp_path):
        writer = EdgeStreamWriter(tmp_path / "s")
        with pytest.raises(DatasetError):
            writer.append(np.zeros(3), np.zeros(2), np.zeros(3))
        writer.abort()

    def test_abort_leaves_unfinished_directory(self, tmp_path):
        writer = EdgeStreamWriter(tmp_path / "s")
        writer.append(np.zeros(2), np.zeros(2), np.zeros(2))
        writer.abort()
        with pytest.raises(DatasetError, match="unfinished|not an edge stream"):
            open_edge_mmap(tmp_path / "s")

    def test_context_manager_aborts_on_error(self, tmp_path):
        with pytest.raises(RuntimeError):
            with EdgeStreamWriter(tmp_path / "s") as writer:
                writer.append(np.zeros(2), np.zeros(2), np.zeros(2))
                raise RuntimeError("interrupted")
        assert not (tmp_path / "s" / META_FILE).exists()

    def test_rewrite_replaces_stale_meta(self, tmp_path):
        write_edge_mmap(tmp_path / "s", random_batch(10, 30, seed=1))
        fresh = random_batch(10, 12, seed=2)
        write_edge_mmap(tmp_path / "s", fresh)
        mapped = open_edge_mmap(tmp_path / "s")
        assert len(mapped) == 12
        assert np.array_equal(mapped.src, fresh.src)


class TestValidation:
    def test_missing_directory(self, tmp_path):
        with pytest.raises(DatasetError):
            open_edge_mmap(tmp_path / "nope")

    def test_corrupt_meta_json(self, tmp_path):
        write_edge_mmap(tmp_path / "s", random_batch(10, 5, seed=0))
        (tmp_path / "s" / META_FILE).write_text("{not json")
        with pytest.raises(DatasetError, match="corrupt"):
            read_meta(tmp_path / "s")

    def test_unsupported_version(self, tmp_path):
        write_edge_mmap(tmp_path / "s", random_batch(10, 5, seed=0))
        meta = json.loads((tmp_path / "s" / META_FILE).read_text())
        meta["version"] = 99
        (tmp_path / "s" / META_FILE).write_text(json.dumps(meta))
        with pytest.raises(DatasetError, match="version"):
            open_edge_mmap(tmp_path / "s")

    def test_truncated_column_file(self, tmp_path):
        write_edge_mmap(tmp_path / "s", random_batch(10, 50, seed=0))
        column = tmp_path / "s" / "dst.bin"
        column.write_bytes(column.read_bytes()[:-16])
        with pytest.raises(DatasetError, match="truncated"):
            open_edge_mmap(tmp_path / "s")

    def test_missing_column_file(self, tmp_path):
        write_edge_mmap(tmp_path / "s", random_batch(10, 5, seed=0))
        (tmp_path / "s" / "weight.bin").unlink()
        with pytest.raises(DatasetError, match="missing column"):
            open_edge_mmap(tmp_path / "s")

    def test_bad_edge_count(self, tmp_path):
        write_edge_mmap(tmp_path / "s", random_batch(10, 5, seed=0))
        meta = json.loads((tmp_path / "s" / META_FILE).read_text())
        meta["edges"] = -3
        (tmp_path / "s" / META_FILE).write_text(json.dumps(meta))
        with pytest.raises(DatasetError, match="edge count"):
            open_edge_mmap(tmp_path / "s")


@pytest.fixture
def spills(tmp_path, monkeypatch):
    """A private temp dir for spilled streams."""
    directory = tmp_path / "tmp"
    directory.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(directory))
    return directory


def _same(a: EdgeBatch, b: EdgeBatch) -> bool:
    return all(
        np.array_equal(getattr(a, name), getattr(b, name))
        and getattr(a, name).dtype == getattr(b, name).dtype
        for name in ("src", "dst", "weight")
    )


def _same_batches(a, b) -> bool:
    """Two batch sequences hold the same batches, in the same order."""
    return len(a) == len(b) and all(map(_same, a, b))


class TestStreamDirectory:
    def test_prefix_and_in_ram_streams_are_spilled(self, tmp_path, spills):
        write_edge_mmap(tmp_path / "s", random_batch(50, 300, seed=3))
        mapped = open_edge_mmap(tmp_path / "s")
        for edges in (mapped.slice(0, 200), random_batch(40, 100, seed=4)):
            with stream_directory(edges) as directory:
                assert directory.parent == spills
                assert directory.name.startswith("saga_stream-")
                assert directory.stat().st_mode & 0o777 == 0o700
                assert _same(open_edge_mmap(directory), edges)
            assert not directory.exists()

    def test_rearranged_columns_are_spilled(self, tmp_path, spills):
        """A whole stream directory, and swapped, reversed, strided or
        offset memmaps of it, are each spilled and read back as the
        stream they are."""
        write_edge_mmap(tmp_path / "s", random_batch(50, 300, seed=3))
        e = open_edge_mmap(tmp_path / "s")
        for edges in (
            e,
            EdgeBatch(src=e.dst, dst=e.src, weight=e.weight),
            EdgeBatch(src=e.src[::-1], dst=e.dst[::-1], weight=e.weight[::-1]),
            EdgeBatch(src=e.src[::2], dst=e.dst[::2], weight=e.weight[::2]),
            e.slice(1, 300),
        ):
            with stream_directory(edges) as directory:
                assert directory.parent == spills
                assert _same(open_edge_mmap(directory), edges)

    def test_each_spill_is_a_fresh_directory(self, spills):
        """Two pools over one stream at once get a directory each, and
        leaving one removes only its own."""
        edges = random_batch(30, 80, seed=6)
        with stream_directory(edges) as first:
            with stream_directory(edges) as second:
                assert first != second
                assert _same(open_edge_mmap(first), open_edge_mmap(second))
            assert not second.exists()
            assert _same(open_edge_mmap(first), edges)
        assert not first.exists()
        assert not list(spills.iterdir())

    def test_empty_stream_is_spilled(self, spills):
        with stream_directory(EdgeBatch.empty()) as directory:
            assert read_meta(directory)["edges"] == 0
            assert len(open_edge_mmap(directory)) == 0
        assert not list(spills.iterdir())

    def test_spill_is_removed_when_the_body_raises(self, spills):
        with pytest.raises(RuntimeError):
            with stream_directory(random_batch(10, 20, seed=5)) as directory:
                assert (directory / META_FILE).exists()
                raise RuntimeError("a worker died")
        assert not directory.exists()
        assert not list(spills.iterdir())


class TestRmatMmap:
    def test_chunked_equals_chunk_sequence(self, tmp_path):
        chunks = list(rmat_edge_chunks(10, 2500, seed=3, chunk_edges=1000))
        assert [len(c) for c in chunks] == [1000, 1000, 500]
        for mmap_dir in (None, tmp_path / "s"):
            edges = make_rmat_dataset(
                10, 2500, seed=3, mmap_dir=mmap_dir, chunk_edges=1000
            ).edges
            assert np.array_equal(
                edges.src, np.concatenate([c.src for c in chunks])
            )
            assert np.array_equal(
                edges.weight, np.concatenate([c.weight for c in chunks])
            )

    def test_matching_recipe_reused(self, tmp_path, monkeypatch):
        make_rmat_dataset(10, 1000, seed=1, mmap_dir=tmp_path / "s")
        # A second call with the same recipe must not regenerate.
        import repro.datasets.rmat as rmat_module

        def fail(*args, **kwargs):
            raise AssertionError("stream regenerated despite matching recipe")

        monkeypatch.setattr(rmat_module, "rmat_edges", fail)
        mapped = make_rmat_dataset(10, 1000, seed=1, mmap_dir=tmp_path / "s")
        assert len(mapped.edges) == 1000

    def test_recipe_mismatch_regenerates(self, tmp_path):
        make_rmat_dataset(10, 1000, seed=1, mmap_dir=tmp_path / "s")
        mapped = make_rmat_dataset(10, 1000, seed=2, mmap_dir=tmp_path / "s")
        expected = make_rmat_dataset(10, 1000, seed=2)
        assert _same(mapped.edges, expected.edges)

    def test_scale_subcommand_runs_out_of_core(self, tmp_path, capsys):
        from repro.cli import main

        code = main([
            "scale",
            "--scale", "12",
            "--edges", "6000",
            "--batch-size", "2000",
            "--chunk-edges", "2500",
            "--mmap-dir", str(tmp_path / "stream"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "RMAT-s12" in out
        assert "edges/s" in out
        assert (tmp_path / "stream" / "meta.json").exists()
        summary = out.splitlines()[-2]
        assert summary.startswith("AS/PR INC: 3 batches of 2,000 simulated in ")

    def test_scale_last_line_is_the_same_in_ram_and_mmap(self, tmp_path, capsys):
        """The transport does not change what is simulated: the
        sustained-ingest line reads the same over RAM and a directory."""
        from repro.cli import main

        argv = ["scale", "--scale", "11", "--edges", "4000",
                "--batch-size", "1000", "--chunk-edges", "1500"]
        last_lines = []
        for extra in ([], ["--mmap-dir", str(tmp_path / "stream")]):
            assert main(argv + extra) == 0
            last_lines.append(capsys.readouterr().out.splitlines()[-1])
        assert last_lines[0].startswith("sustained simulated ingest: ")
        assert last_lines[0] == last_lines[1]

    @pytest.mark.parametrize("edges", [None, 3000], ids=["whole", "prefix"])
    def test_mmap_backed_stream_runs_as_in_ram(self, tmp_path, edges):
        """A stream directory, or a prefix of it, drives the same run as
        the in-RAM stream of the same recipe."""
        from repro.streaming import StreamConfig, StreamDriver
        from tests.conftest import SMALL_MACHINE

        runs = []
        for mmap_dir in (None, tmp_path / "s"):
            dataset = make_rmat_dataset(
                12, 4000, seed=4, mmap_dir=mmap_dir, chunk_edges=2000
            )
            if edges is not None:
                dataset = dataclasses.replace(
                    dataset, edges=dataset.edges.slice(0, edges)
                )
            config = StreamConfig(
                batch_size=500, structures=("AS",), algorithms=("PR",),
                models=("INC",), machine=SMALL_MACHINE,
            )
            runs.append(StreamDriver(config).run(dataset).to_payload())
        (meta_ram, arrays_ram), (meta_mmap, arrays_mmap) = runs
        assert meta_ram == meta_mmap
        assert sorted(arrays_ram) == sorted(arrays_mmap)
        for key, column in arrays_ram.items():
            assert np.array_equal(column, arrays_mmap[key]), key


class TestSnapMmap:
    def write_snap(self, tmp_path, lines):
        path = tmp_path / "graph.txt"
        path.write_text("\n".join(lines) + "\n")
        return path

    def edges_lines(self, count):
        rng = np.random.default_rng(11)
        pairs = rng.integers(0, 500, size=(count, 2))
        return [f"{u} {v}" for u, v in pairs]

    def test_mmap_equals_legacy(self, tmp_path):
        path = self.write_snap(tmp_path, self.edges_lines(300))
        legacy = load_snap_edges(path)
        mapped = load_snap_edges(path, mmap_dir=tmp_path / "s")
        assert np.array_equal(mapped.src, legacy.src)
        assert np.array_equal(mapped.dst, legacy.dst)
        assert np.array_equal(mapped.weight, legacy.weight)

    def test_chunked_parse_equals_unchunked_pairs(self, tmp_path, monkeypatch):
        path = self.write_snap(tmp_path, self.edges_lines(300))
        whole = load_snap_edges(path, weight_seed=4)
        monkeypatch.setattr("repro.datasets.snap.DEFAULT_SNAP_CHUNK", 64)
        chunked = load_snap_edges(path, weight_seed=4)
        # The parse chunk is not part of the identity: edges and the
        # weights drawn in pieces of it are the one-chunk stream's.
        assert _same(whole, chunked)

    def test_chunked_mmap_matches_chunked_ram(self, tmp_path, monkeypatch):
        path = self.write_snap(tmp_path, self.edges_lines(300))
        monkeypatch.setattr("repro.datasets.snap.DEFAULT_SNAP_CHUNK", 64)
        ram = load_snap_edges(path)
        mapped = load_snap_edges(path, mmap_dir=tmp_path / "s")
        assert _same(mapped, ram)

    @pytest.mark.parametrize("chunk", [None, 64])
    @pytest.mark.parametrize("limit", [None, 150])
    @pytest.mark.parametrize("relabel", [True, False])
    def test_directory_equals_ram(self, tmp_path, monkeypatch, relabel, limit,
                                  chunk):
        """The transport never changes a SNAP stream's bytes: relabel on
        and off, truncated or not, one parse chunk or several."""
        path = self.write_snap(tmp_path, self.edges_lines(300))
        if chunk is not None:
            monkeypatch.setattr("repro.datasets.snap.DEFAULT_SNAP_CHUNK", chunk)
        options = dict(weight_seed=5, relabel=relabel, limit=limit)
        ram = load_snap_edges(path, **options)
        mapped = load_snap_edges(path, mmap_dir=tmp_path / "s", **options)
        assert isinstance(mapped.src, np.memmap)
        assert len(ram) == (limit or 300)
        assert _same(mapped, ram)

    def test_malformed_line_raises(self, tmp_path):
        path = self.write_snap(tmp_path, ["1 2", "not an edge", "3 4"])
        with pytest.raises(DatasetError):
            load_snap_edges(path, mmap_dir=tmp_path / "s")

    def test_mmap_reuse_skips_reparse(self, tmp_path):
        path = self.write_snap(tmp_path, self.edges_lines(100))
        first = load_snap_edges(path, mmap_dir=tmp_path / "s")
        # Garble the text file: a matching recipe would mask the change,
        # except the recipe names the file's bytes, so this re-parses
        # and surfaces the malformed line.
        path.write_text("broken\n")
        with pytest.raises(DatasetError):
            load_snap_edges(path, mmap_dir=tmp_path / "s")
        # With the file intact the stream is served from the directory.
        self.write_snap(tmp_path, self.edges_lines(100))
        again = load_snap_edges(path, mmap_dir=tmp_path / "s")
        assert np.array_equal(first.src, again.src)

    def test_same_size_edit_is_reparsed(self, tmp_path):
        """An edit that keeps the file's size is another stream: the
        directory must not serve the old parse."""
        path = self.write_snap(tmp_path, ["1 2", "2 3", "3 1"])
        load_snap_edges(path, relabel=False, mmap_dir=tmp_path / "s")
        self.write_snap(tmp_path, ["1 2", "2 3", "3 2"])
        mapped = load_snap_edges(path, relabel=False, mmap_dir=tmp_path / "s")
        assert mapped.dst.tolist() == [2, 3, 2]
        assert _same(mapped, load_snap_edges(path, relabel=False))

    def test_interrupted_post_pass_not_reused(self, tmp_path):
        path = self.write_snap(tmp_path, self.edges_lines(100))
        load_snap_edges(path, mmap_dir=tmp_path / "s")
        # Simulate a crash between the append pass and the post pass:
        # the recipe is cleared, exactly the on-disk state mid-rewrite.
        set_source(tmp_path / "s", None)
        again = load_snap_edges(path, mmap_dir=tmp_path / "s")
        assert np.array_equal(again.src, load_snap_edges(path).src)

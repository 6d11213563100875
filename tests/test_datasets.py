"""Unit tests for dataset generation and loading."""

import hashlib

import numpy as np
import pytest

from repro.datasets import (
    DATASETS,
    calibrate_alpha,
    dataset_names,
    load_dataset,
    load_snap_edges,
    make_rmat_dataset,
    power_law_edges,
    rmat_edges,
)
from repro.datasets.catalog import HEAVY_TAILED, SHORT_TAILED
from repro.datasets.rmat import MAX_WEIGHT, PAPER_RMAT_PARAMS
from repro.errors import DatasetError
from repro.streaming import make_batches


class TestRMAT:
    def test_vertex_range(self):
        batch = rmat_edges(scale=8, num_edges=1000, seed=1)
        assert batch.src.max() < 256
        assert batch.dst.max() < 256
        assert batch.src.min() >= 0

    def test_deterministic(self):
        a = rmat_edges(scale=8, num_edges=500, seed=3)
        b = rmat_edges(scale=8, num_edges=500, seed=3)
        assert np.array_equal(a.src, b.src)
        assert np.array_equal(a.weight, b.weight)

    def test_seed_changes_output(self):
        a = rmat_edges(scale=8, num_edges=500, seed=3)
        b = rmat_edges(scale=8, num_edges=500, seed=4)
        assert not np.array_equal(a.src, b.src)

    def test_no_self_loops_by_default(self):
        batch = rmat_edges(scale=6, num_edges=2000, seed=5)
        assert (batch.src != batch.dst).all()

    def test_skew_toward_quadrant_a(self):
        # a > d concentrates edges on low vertex ids.
        batch = rmat_edges(scale=10, num_edges=20000, seed=7)
        low = int((batch.src < 512).sum())
        assert low > 0.6 * len(batch)

    def test_paper_parameters_normalized(self):
        # The paper's (0.55, 0.15, 0.15, 0.25) sums to 1.10; the first
        # threshold is 0.55 / 1.10 = 0.5, so a draw of 0.52 lands in b.
        batch = rmat_edges(1, 1, seed=_ScriptedDraws(np.array([0.52])))
        assert (batch.src[0], batch.dst[0]) == (0, 1)

    def test_rejects_bad_scale(self):
        with pytest.raises(DatasetError):
            rmat_edges(scale=0, num_edges=10)

    def test_weights_in_range(self):
        batch = rmat_edges(scale=6, num_edges=500, seed=2)
        assert batch.weight.min() >= 1
        assert batch.weight.max() <= MAX_WEIGHT


def _column_digests(edges):
    return {
        name: hashlib.sha256(np.ascontiguousarray(getattr(edges, name)).tobytes()).hexdigest()
        for name in ("src", "dst", "weight")
    }


class _ScriptedDraws(np.random.Generator):
    """A generator whose ``random`` hands out one scripted array."""

    def __init__(self, draws):
        super().__init__(np.random.PCG64(0))
        self.draws = draws

    def random(self, size=None, dtype=np.float64, out=None):
        if out is None:
            return self.draws.copy()
        out[...] = self.draws
        return out


class TestRMATBytes:
    """The generator's output values, not only their shape, are pinned."""

    def test_one_call_is_pinned(self):
        assert _column_digests(rmat_edges(18, 100_000, seed=[0, 0])) == {
            "src": "b3dfac601624f76351136e2e65f2c89aa2be6e2d41616aab40beb3b418d566fe",
            "dst": "53c6613b82e6065fd877bbf12ec8ac887f7215319f31d318a1cd91f4a996036d",
            "weight": "24d3fb6fe3c0eeb5bf3db86b133e5be55db480ec5e83afe1144b77ad3f71b4cd",
        }

    @pytest.mark.parametrize("mmap", [False, True], ids=["ram", "mmap"])
    def test_chunked_stream_with_a_partial_last_chunk_is_pinned(self, tmp_path, mmap):
        dataset = make_rmat_dataset(
            scale=12, num_edges=25_000, seed=3, chunk_edges=10_000,
            mmap_dir=tmp_path / "stream" if mmap else None,
        )
        assert len(dataset.edges) == 25_000
        assert _column_digests(dataset.edges) == {
            "src": "185103b156516d5f8dea771b5c7e20eaf0aa96a277f7f8817ea3e2a28be05db5",
            "dst": "afaf063490250d01ea86160b0ff33d12e446b9d36ccb125ab85a14800d76a730",
            "weight": "e228f541de8e98d63654a677cfeac5850de63f8f54c7cacc0eac46e48155f2f1",
        }

    @pytest.mark.parametrize("params", [PAPER_RMAT_PARAMS], ids=["paper"])
    def test_quadrant_of_a_tie_is_searchsorteds(self, params):
        a, b, c, d = params
        total = a + b + c + d
        thresholds = np.cumsum([a / total, b / total, c / total])
        draws = np.array(
            [0.0, np.nextafter(1.0, 0.0)]
            + [np.nextafter(t, side) for t in thresholds for side in (0.0, 1.0)]
            + list(thresholds)
        )
        quadrant = np.searchsorted(thresholds, draws)
        src, dst = quadrant >> 1, quadrant & 1
        dst[src == dst] ^= 1  # a self-loop is re-targeted to the next vertex
        batch = rmat_edges(1, len(draws), seed=_ScriptedDraws(draws))
        assert batch.src.tolist() == src.tolist()
        assert batch.dst.tolist() == dst.tolist()


class TestPowerLaw:
    def test_calibrate_alpha_hits_target(self):
        target = 0.02
        alpha = calibrate_alpha(5000, target)
        weights = np.power(np.arange(1, 5001, dtype=float), -alpha)
        share = weights[0] / weights.sum()
        assert share == pytest.approx(target, rel=1e-3)

    def test_calibrate_uniform_floor(self):
        assert calibrate_alpha(100, 0.001) == 0.0  # below 1/n

    def test_calibrate_rejects_impossible(self):
        with pytest.raises(DatasetError):
            calibrate_alpha(100, 1.5)

    def test_hot_vertex_share_matches_target(self):
        alpha = calibrate_alpha(2000, 0.02)
        batch = power_law_edges(2000, 50_000, alpha_out=alpha, alpha_in=0.0, seed=1)
        counts = np.bincount(batch.src)
        assert counts.max() / len(batch) == pytest.approx(0.02, rel=0.25)

    def test_no_self_loops(self):
        batch = power_law_edges(50, 5000, alpha_out=1.0, alpha_in=1.0, seed=2)
        assert (batch.src != batch.dst).all()

    def test_deterministic(self):
        a = power_law_edges(100, 500, 0.5, 0.5, seed=9)
        b = power_law_edges(100, 500, 0.5, 0.5, seed=9)
        assert np.array_equal(a.src, b.src)


class TestCatalog:
    def test_five_datasets(self):
        assert set(dataset_names()) == {"LJ", "Orkut", "RMAT", "Wiki", "Talk"}

    def test_groups_partition_catalog(self):
        assert set(SHORT_TAILED) | set(HEAVY_TAILED) == set(dataset_names())
        assert not set(SHORT_TAILED) & set(HEAVY_TAILED)

    def test_orkut_is_undirected(self):
        assert not DATASETS["Orkut"].directed
        assert all(
            DATASETS[name].directed for name in dataset_names() if name != "Orkut"
        )

    def test_rmat_is_largest(self):
        sizes = {name: DATASETS[name].num_edges for name in dataset_names()}
        assert max(sizes, key=sizes.get) == "RMAT"

    def test_load_dataset(self):
        dataset = load_dataset("LJ", seed=1, size_factor=0.05)
        assert dataset.name == "LJ"
        assert len(dataset.edges) >= 32
        edges = dataset.edges
        assert max(edges.src.max(), edges.dst.max()) < dataset.max_nodes

    def test_load_unknown(self):
        with pytest.raises(DatasetError):
            load_dataset("Twitter")

    def test_size_factor_scales(self):
        small = load_dataset("Talk", size_factor=0.1)
        full = load_dataset("Talk")
        assert len(small.edges) < len(full.edges)

    def test_heavy_tail_signature(self):
        """The paper's Table IV split must hold for the stand-ins."""
        for name in HEAVY_TAILED:
            dataset = load_dataset(name, seed=0)
            batch = make_batches(dataset.edges, 5000, shuffle_seed=0)[0]
            max_in, max_out = batch.max_in_out_degree()
            assert max(max_in, max_out) >= 20, name
        for name in SHORT_TAILED:
            dataset = load_dataset(name, seed=0)
            batch = make_batches(dataset.edges, 5000, shuffle_seed=0)[0]
            max_in, max_out = batch.max_in_out_degree()
            assert max(max_in, max_out) <= 15, name

    def test_talk_tail_is_out_wiki_tail_is_in(self):
        talk = load_dataset("Talk", seed=0).edges
        wiki = load_dataset("Wiki", seed=0).edges
        talk_in, talk_out = talk.max_in_out_degree()
        wiki_in, wiki_out = wiki.max_in_out_degree()
        assert talk_out > 5 * talk_in
        assert wiki_in > 5 * wiki_out

    def test_batch_count(self):
        dataset = load_dataset("Talk")
        assert dataset.batch_count(5000) == -(-len(dataset.edges) // 5000)


class TestSnapLoader:
    def test_parse_edge_list(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("# comment\n0 1\n1 2\n\n2 0\n")
        batch = load_snap_edges(path, weight_seed=1)
        assert len(batch) == 3
        assert batch.weight.min() >= 1

    def test_relabel_compacts_ids(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("100 200\n200 300\n")
        batch = load_snap_edges(path)
        assert max(batch.src.max(), batch.dst.max()) == 2

    def test_no_relabel(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("100 200\n")
        batch = load_snap_edges(path, relabel=False)
        assert max(batch.src.max(), batch.dst.max()) == 200

    def test_limit(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("\n".join(f"{i} {i+1}" for i in range(100)))
        batch = load_snap_edges(path, limit=10)
        assert len(batch) == 10

    def test_gzip(self, tmp_path):
        import gzip

        path = tmp_path / "graph.txt.gz"
        with gzip.open(path, "wt") as handle:
            handle.write("0 1\n1 0\n")
        assert len(load_snap_edges(path)) == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError):
            load_snap_edges(tmp_path / "nope.txt")

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0\n")
        with pytest.raises(DatasetError):
            load_snap_edges(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# only comments\n")
        with pytest.raises(DatasetError):
            load_snap_edges(path)

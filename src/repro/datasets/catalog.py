"""The five evaluation datasets (Table II), as calibrated stand-ins.

Each spec records the paper's real statistics (for Tables II and IV)
alongside the parameters of its synthetic stand-in.  The stand-ins are
scaled down ~1000x in edge count but preserve the one structural
variable the paper's conclusions rest on: the hottest vertex's share
of the edge stream, and hence the per-batch degree tail.

=======  ==========  =========================  =======================
 Name     Direction   Paper signature            Stand-in target
=======  ==========  =========================  =======================
 LJ       directed    short-tailed social        top shares ~3e-4
 Orkut    undirected  short-tailed social        top shares ~3e-4
 RMAT     directed    short-tailed synthetic     R-MAT(0.55,...)
 Wiki     directed    heavy **in**-tail          top in-share 0.83%
 Talk     directed    heavy **out**-tail         top out-share 2.0%
=======  ==========  =========================  =======================
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.datasets.mmapio import materialize
from repro.datasets.rmat import (
    DEFAULT_RMAT_CHUNK,
    rmat_edge_chunks,
    rmat_edges,
    rmat_recipe,
)
from repro.datasets.synthetic import calibrate_alpha, power_law_edges
from repro.errors import DatasetError
from repro.graph.edge import EdgeBatch
from repro.obs.tracer import TRACER

#: Batch size of the scaled-down streams (paper: 500K).  Chosen so a
#: batch touches a comparable *fraction* of the graph as the paper's
#: 500K batches do, which is what the incremental model's benefit and
#: the update tail behavior scale with.
DEFAULT_BATCH_SIZE = 2500


@dataclass(frozen=True)
class PaperStats:
    """What the paper reports for the real dataset (Tables II & IV)."""

    vertices: int
    edges: int
    batch_count: int
    max_in_degree: int
    max_out_degree: int
    batch_max_in_degree: int
    batch_max_out_degree: int


@dataclass(frozen=True)
class DatasetSpec:
    """Generator recipe plus the paper's reference statistics."""

    name: str
    directed: bool
    num_nodes: int
    num_edges: int
    kind: str  # "power_law" or "rmat"
    top_out_share: float = 0.0
    top_in_share: float = 0.0
    rmat_scale: int = 0
    heavy_tailed: bool = False
    description: str = ""
    paper: Optional[PaperStats] = None

    def generate(self, seed: int = 0, size_factor: float = 1.0) -> EdgeBatch:
        """Generate the full edge stream for this dataset.

        ``size_factor`` scales both vertex and edge counts (used by the
        test suite to run miniature streams).
        """
        if size_factor <= 0:
            raise DatasetError(f"size_factor must be > 0, got {size_factor}")
        nodes = max(int(self.num_nodes * size_factor), 16)
        edges = max(int(self.num_edges * size_factor), 32)
        if self.kind == "rmat":
            scale = self.rmat_scale
            while size_factor < 1.0 and scale > 5 and (1 << (scale - 1)) >= nodes:
                scale -= 1
            return rmat_edges(scale=scale, num_edges=edges, seed=seed)
        alpha_out = calibrate_alpha(nodes, self.top_out_share)
        alpha_in = calibrate_alpha(nodes, self.top_in_share)
        return power_law_edges(
            num_nodes=nodes,
            num_edges=edges,
            alpha_out=alpha_out,
            alpha_in=alpha_in,
            seed=seed,
        )

    def max_nodes(self, size_factor: float = 1.0) -> int:
        """Vertex-id capacity needed by structures for this dataset."""
        if self.kind == "rmat":
            scale = self.rmat_scale
            nodes = max(int(self.num_nodes * size_factor), 16)
            while size_factor < 1.0 and scale > 5 and (1 << (scale - 1)) >= nodes:
                scale -= 1
            return 1 << scale
        return max(int(self.num_nodes * size_factor), 16)


@dataclass
class Dataset:
    """A generated stream ready to feed the driver."""

    spec: DatasetSpec
    edges: EdgeBatch
    max_nodes: int
    seed: int

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def directed(self) -> bool:
        return self.spec.directed

    def batch_count(self, batch_size: int = DEFAULT_BATCH_SIZE) -> int:
        return (len(self.edges) + batch_size - 1) // batch_size


#: Top-share targets derived from Table IV: a vertex's expected share
#: of a shuffled batch equals its share of the full stream, so
#: ``batch max degree / batch size`` is the calibration target.
DATASETS: Dict[str, DatasetSpec] = {
    "LJ": DatasetSpec(
        name="LJ",
        directed=True,
        num_nodes=24_000,
        num_edges=65_000,
        kind="power_law",
        top_out_share=147 / 500_000,
        top_in_share=106 / 500_000,
        heavy_tailed=False,
        description="LiveJournal online social network (SNAP soc-LiveJournal1)",
        paper=PaperStats(4_847_571, 68_993_773, 138, 13906, 20293, 106, 147),
    ),
    "Orkut": DatasetSpec(
        name="Orkut",
        directed=False,
        num_nodes=16_000,
        num_edges=80_000,
        kind="power_law",
        top_out_share=144 / 500_000,
        top_in_share=144 / 500_000,
        heavy_tailed=False,
        description="Orkut online social network (SNAP com-Orkut, undirected)",
        paper=PaperStats(3_072_441, 117_185_083, 235, 33313, 33313, 144, 144),
    ),
    "RMAT": DatasetSpec(
        name="RMAT",
        directed=True,
        num_nodes=65_536,
        num_edges=150_000,
        kind="rmat",
        rmat_scale=16,
        heavy_tailed=False,
        description="Synthetic R-MAT graph, a=0.55 b=0.15 c=0.15 d=0.25",
        paper=PaperStats(33_554_432, 500_000_000, 1000, 8016, 7997, 10, 10),
    ),
    "Wiki": DatasetSpec(
        name="Wiki",
        directed=True,
        num_nodes=9_000,
        num_edges=55_000,
        kind="power_law",
        top_out_share=70 / 500_000,
        top_in_share=4174 / 500_000,
        heavy_tailed=True,
        description="Wikipedia hyperlink graph (SNAP wiki-topcats); heavy in-tail",
        paper=PaperStats(1_791_489, 28_511_807, 58, 238040, 3907, 4174, 70),
    ),
    "Talk": DatasetSpec(
        name="Talk",
        directed=True,
        num_nodes=8_000,
        num_edges=45_000,
        kind="power_law",
        top_out_share=9957 / 500_000,
        top_in_share=330 / 500_000,
        heavy_tailed=True,
        description="Wikipedia communication network (SNAP wiki-Talk); heavy out-tail",
        paper=PaperStats(2_394_385, 5_021_410, 11, 3311, 100022, 330, 9957),
    ),
}

#: The paper's grouping used throughout Section VI.
SHORT_TAILED = ("LJ", "Orkut", "RMAT")
HEAVY_TAILED = ("Wiki", "Talk")


def dataset_names() -> Tuple[str, ...]:
    """All dataset names, in the paper's table order."""
    return tuple(DATASETS)


@TRACER.layer("datasets.build")
def load_dataset(name: str, seed: int = 0, size_factor: float = 1.0) -> Dataset:
    """Generate dataset ``name``'s edge stream.

    The stream is *not* shuffled here; the driver shuffles per
    repetition (Section IV-B), so different repetitions see different
    edge orders of the same graph.
    """
    spec = DATASETS.get(name)
    if spec is None:
        raise DatasetError(
            f"unknown dataset {name!r}; expected one of {sorted(DATASETS)}"
        )
    edges = spec.generate(seed=seed, size_factor=size_factor)
    return Dataset(
        spec=spec,
        edges=edges,
        max_nodes=spec.max_nodes(size_factor),
        seed=seed,
    )


@TRACER.layer("datasets.build")
def make_rmat_dataset(
    scale: int,
    num_edges: int,
    seed: int = 0,
    mmap_dir: Optional[Union[str, Path]] = None,
    chunk_edges: int = DEFAULT_RMAT_CHUNK,
) -> Dataset:
    """An ad-hoc R-MAT stream at arbitrary scale, ready for the driver.

    Unlike the calibrated Table II stand-ins, this is the raw generator
    -- the entry point for paper-scale runs (``repro scale`` and the
    ``scale-oocore`` benchmark workload).  The stream is the
    :func:`~repro.datasets.rmat.rmat_edge_chunks` sequence, in RAM or,
    with ``mmap_dir``, in a memory-mapped directory written one chunk
    at a time and reused on a recipe match (:func:`materialize`); both
    transports hold the same bytes.
    """
    spec = DatasetSpec(
        name=f"RMAT-s{scale}",
        directed=True,
        num_nodes=1 << scale,
        num_edges=num_edges,
        kind="rmat",
        rmat_scale=scale,
        description=f"Ad-hoc R-MAT scale-{scale} stream ({num_edges} edges)",
    )
    edges = materialize(
        rmat_edge_chunks(scale, num_edges, seed=seed, chunk_edges=chunk_edges),
        rmat_recipe(scale, num_edges, seed=seed, chunk_edges=chunk_edges),
        mmap_dir,
    )
    return Dataset(spec=spec, edges=edges, max_nodes=1 << scale, seed=seed)

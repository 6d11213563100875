"""Datasets of the paper's evaluation (Section IV-C, Table II).

The paper streams four SNAP graphs (LiveJournal, Orkut, wiki-topcats,
wiki-Talk) and one synthetic RMAT graph.  The SNAP files are not
redistributable here, so :mod:`repro.datasets.synthetic` generates
calibrated stand-ins reproducing each graph's *structural signature* --
the per-node edge shares that determine the per-batch degree
distribution, which is the variable all of the paper's data-structure
conclusions hinge on.  Real SNAP files can be loaded with
:mod:`repro.datasets.snap` instead.

Every ad-hoc stream -- :func:`make_rmat_dataset` (the front door for
scale runs) and :func:`load_snap_edges` -- is a sequence of chunks that
:func:`repro.datasets.mmapio.materialize` holds in RAM or writes, one
chunk at a time, into a memory-mapped stream directory; the transport
never changes the stream's bytes.
"""

from repro.datasets.catalog import (
    DATASETS,
    Dataset,
    DatasetSpec,
    dataset_names,
    load_dataset,
    make_rmat_dataset,
)
from repro.datasets.mmapio import (
    EdgeStreamWriter,
    open_edge_mmap,
    write_edge_mmap,
)
from repro.datasets.rmat import rmat_edge_chunks, rmat_edges
from repro.datasets.snap import load_snap_edges
from repro.datasets.synthetic import calibrate_alpha, power_law_edges

__all__ = [
    "DATASETS",
    "Dataset",
    "DatasetSpec",
    "EdgeStreamWriter",
    "calibrate_alpha",
    "dataset_names",
    "load_dataset",
    "load_snap_edges",
    "make_rmat_dataset",
    "open_edge_mmap",
    "power_law_edges",
    "rmat_edge_chunks",
    "rmat_edges",
    "write_edge_mmap",
]

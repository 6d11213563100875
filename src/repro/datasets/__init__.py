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

from repro import lazy_exports

_EXPORTS = {
    "DATASETS": "catalog",
    "dataset_names": "catalog",
    "load_dataset": "catalog",
    "make_rmat_dataset": "catalog",
    "load_snap_edges": "snap",
    "rmat_edges": "rmat",
    "calibrate_alpha": "synthetic",
    "power_law_edges": "synthetic",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)

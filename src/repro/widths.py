"""The one host width of a vertex id and of an edge weight.

Every host array of vertex ids -- the stream's columns, an
:class:`~repro.graph.edge.EdgeBatch`, the live CSR's ``cols``, the
structures' neighbor pools, a compute run's vertex log -- is
:data:`VERTEX` (``int32``), and every array of edge weights is
:data:`WEIGHT` (``float32``): the widths of GAP's reference code.
Every generator draws integer weights in ``[1, 8]``; widening a
``float32`` to ``float64`` is exact, so every float64 intermediate the
compute kernels and their Python references form is unchanged.

Every per-vertex array of heap offsets, row lengths, capacities and
degrees -- the live CSR's ``starts``/``lens``/``caps`` and the
``indptr``/``degrees`` it exports to the compute kernels, the vector
stores' spans, Stinger's block lists and degrees -- is :data:`SLOT`
(``int32``): an offset fits it while its pool or heap stays below
:data:`SLOT_LIMIT` slots, and every growth that would reach that is
refused (:func:`check_slot_extent`) before anything is allocated.

What stays ``int64``: a packed pair key ``u * max_nodes + v`` (widened
before the multiply), simulated addresses, and every array a result's
payload holds (a value taken from a slot array is widened first).

A graph of :data:`VERTEX_LIMIT` vertices or more is refused
(:func:`check_vertex_space`) rather than served by an ``int64`` twin;
so is a pool of :data:`SLOT_LIMIT` slots.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError, DatasetError, SimulationError

#: Dtype of every host array of vertex ids.
VERTEX = np.dtype(np.int32)

#: Dtype of every host array of edge weights.
WEIGHT = np.dtype(np.float32)

#: Vertex ids lie in ``[0, VERTEX_LIMIT)``; ``max_nodes`` stays below it.
VERTEX_LIMIT = 2**31

#: Dtype of every per-vertex array of heap offsets, lengths, capacities
#: and degrees.
SLOT = np.dtype(np.int32)

#: A pool or heap that such offsets index holds fewer slots than this.
SLOT_LIMIT = 2**31


def check_vertex_space(max_nodes: int) -> None:
    """Refuse a graph whose vertex count reaches :data:`VERTEX_LIMIT`,
    before anything of that size is allocated."""
    if max_nodes >= VERTEX_LIMIT:
        raise ConfigError(
            f"max_nodes {max_nodes} too large: vertex ids are int32, so a "
            f"graph holds fewer than 2**31 vertices"
        )


def check_slot_extent(slots: int, what: str) -> None:
    """Refuse to grow ``what`` (a pool or heap) to ``slots`` slots when
    that reaches :data:`SLOT_LIMIT`, before anything is allocated or
    changed.  2**31 slots of ids and weights are 16 GiB."""
    if slots >= SLOT_LIMIT:
        raise SimulationError(
            f"{what} would hold {slots} slots: offsets, lengths and capacities "
            "are int32, so a pool or heap holds fewer than 2**31 slots"
        )


def vertex_column(values, low: int = -VERTEX_LIMIT) -> np.ndarray:
    """``values`` as a :data:`VERTEX` array: as it is when it already is
    one (a memmap stays a memmap), else a copy checked to lie in
    ``[low, VERTEX_LIMIT)``.

    An id an ``int32`` cannot hold (or a float that is no integer)
    raises :class:`DatasetError`; a negative one passes (at the default
    ``low``), for the structures to refuse as out of range.  Integral
    floats are taken because :meth:`EdgeStreamWriter.append
    <repro.datasets.mmapio.EdgeStreamWriter.append>` has always cast
    whatever columns it is handed (``np.zeros(n)`` ids included).
    """
    array = values if isinstance(values, np.ndarray) else np.asarray(values)
    if array.dtype == VERTEX and low <= -VERTEX_LIMIT:
        return array
    if array.dtype.kind not in "iub" and array.size:
        if array.dtype.kind != "f" or not (array == np.trunc(array)).all():
            raise DatasetError(f"vertex ids must be integers, got {array.dtype}")
    if array.size and (array.min() < low or array.max() >= VERTEX_LIMIT):
        bad = array[(array < low) | (array >= VERTEX_LIMIT)][0]
        raise DatasetError(
            f"vertex id {int(bad)} outside [{max(low, -VERTEX_LIMIT)}, 2**31): "
            "ids are int32"
        )
    return array.astype(VERTEX, copy=False)


def weight_column(values) -> np.ndarray:
    """``values`` as a :data:`WEIGHT` array: as it is when it already is
    one, else a copy checked to hold every weight exactly.

    A weight that ``float32`` cannot hold (``0.1``, ``1e300``) raises
    :class:`DatasetError`; NaN and the infinities are held exactly.
    """
    array = values if isinstance(values, np.ndarray) else np.asarray(values)
    if array.dtype == WEIGHT:
        return array
    with np.errstate(over="ignore", invalid="ignore"):
        narrow = array.astype(WEIGHT)
        inexact = (narrow != array) & (array == array)
    if inexact.any():
        bad = array[inexact][0]
        raise DatasetError(f"weight {bad!r} is not a float32: weights are float32")
    return narrow

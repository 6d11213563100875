"""Graph data structures of SAGA-Bench.

Four streaming structures behind one API (paper Section III):

======== =============================== ==================== =================
 Name     Storage                         Multithreading       Intra-vertex par.
======== =============================== ==================== =================
 AS       array of vectors                shared, per-vertex   no
                                          locks
 AC       chunked array of vectors        chunked, lockless    no
 Stinger  linked 16-edge blocks           shared, per-block    yes
                                          locks
 DAH      low/high-degree hash tables     chunked, lockless    no
======== =============================== ==================== =================

Plus :class:`~repro.graph.reference.ReferenceGraph` (uninstrumented
ground truth).  The CSR form the compute phase reads lives in
:mod:`repro.compute`: packed ``CSRArrays`` and the incrementally
maintained ``DynamicCSR``.
"""

from typing import Optional

from repro.errors import StructureError
from repro.graph.adjacency_chunked import AdjacencyListChunked
from repro.graph.adjacency_shared import AdjacencyListShared
from repro.graph.base import ExecutionContext, GraphDataStructure, UpdateResult
from repro.graph.blocked import BlockedAdjacency
from repro.graph.dah import DegreeAwareHash
from repro.graph.edge import Edge, EdgeBatch
from repro.graph.properties import VertexProperties
from repro.graph.reference import ReferenceGraph
from repro.graph.stinger import Stinger

#: Registry mapping structure names to classes.  The first four are
#: the paper's; "BA" is the post-paper Hornet-style extension (the
#: characterization pipelines default to the original four).
STRUCTURES = {
    "AS": AdjacencyListShared,
    "AC": AdjacencyListChunked,
    "Stinger": Stinger,
    "DAH": DegreeAwareHash,
    "BA": BlockedAdjacency,
}


def make_structure(
    name: str,
    max_nodes: int,
    directed: bool = True,
    cost_model=None,
    address_space=None,
    **kwargs,
) -> GraphDataStructure:
    """Instantiate a data structure by its paper name.

    ``name`` is one of ``"AS"``, ``"AC"``, ``"Stinger"``, ``"DAH"``,
    ``"BA"`` (case-insensitive).  Extra keyword arguments (e.g.
    ``chunks`` for the chunked structures) are forwarded to the
    constructor.
    """
    key = {
        "as": "AS",
        "ac": "AC",
        "stinger": "Stinger",
        "dah": "DAH",
        "ba": "BA",
    }.get(name.lower())
    if key is None:
        raise StructureError(
            f"unknown data structure {name!r}; expected one of {sorted(STRUCTURES)}"
        )
    cls = STRUCTURES[key]
    return cls(
        max_nodes,
        directed=directed,
        cost_model=cost_model,
        address_space=address_space,
        **kwargs,
    )


__all__ = [
    "AdjacencyListChunked",
    "AdjacencyListShared",
    "BlockedAdjacency",
    "DegreeAwareHash",
    "Edge",
    "EdgeBatch",
    "ExecutionContext",
    "GraphDataStructure",
    "ReferenceGraph",
    "STRUCTURES",
    "Stinger",
    "UpdateResult",
    "VertexProperties",
    "make_structure",
]

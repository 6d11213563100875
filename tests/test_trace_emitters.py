"""Array trace emitters against the per-vertex reference.

``trace_in_traversal`` / ``trace_out_traversal`` take a vertex array and
return ``(counts, addresses)``.  The reference is the per-vertex
``trace_traversal(u, recorder)`` every store defines: the array result
must be that method's accesses, vertex after vertex.  Every store with
a compiled kernel emits the array in C, one traversal emitter per
family in :mod:`repro.sim.cingest` (the vector family's
``saga_vec_traversals``: header, then the entry span; Stinger's
``saga_stinger_traversals``: vertex entry, then header + entries per
block; DAH's ``saga_dah_traversals``: the high-table probe path, then
the neighbor set or the low-table path), and a store without one runs
the base-class loop over ``trace_traversal``.  Figs 9/10 trace only AS
and DAH; Stinger's emitter is reached through ``profile_cell`` on any
of the five structures, and here.  The reference is taken twice: from the
structure under test, and (``plain``) from a second structure over the
list/dict oracle stores of ``tests/oracle_stores.py`` fed the same
stream -- which also holds the kernel-ingested layout to the oracle's.
"""


import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.graph import EdgeBatch, ExecutionContext, STRUCTURES, make_structure
from repro.sim import cingest
from repro.sim.memory import Region
from repro.sim.trace import TraceRecorder
from tests.conftest import SMALL_MACHINE, native_env
from tests.oracle_stores import oracle_structure

ALL = sorted(STRUCTURES)
#: Few ids, so that random streams push vertices across DAH's degree-16
#: flush (and back to empty through deletes).
N = 40


def _reference(store, vertices):
    """Concatenated per-vertex emission: the old entry points' loop."""
    counts, addresses = [], []
    for u in vertices:
        recorder = TraceRecorder()
        store.trace_traversal(int(u), recorder)
        trace = recorder.finalize()
        assert not trace.is_write.any()
        counts.append(len(trace))
        addresses.extend(trace.addresses.tolist())
    return counts, addresses


def _assert_matches_reference(structures, vertices):
    """The first structure's array emitters against the per-vertex loop
    over the last one (the same structure, or its oracle-store twin)."""
    vertices = np.asarray(vertices, dtype=np.int64)
    structure, reference = structures[0], structures[-1]
    for emit, store in (
        (structure.trace_out_traversal, reference._out),
        (structure.trace_in_traversal, reference._in),
    ):
        counts, addresses = emit(vertices)
        want_counts, want_addresses = _reference(store, vertices)
        assert counts.tolist() == want_counts
        assert addresses.tolist() == want_addresses
        assert counts.dtype == addresses.dtype == np.int64


def _make(name, directed, plain, max_nodes=N, chunks=2):
    """The structure under test, followed when ``plain`` by an empty
    twin over the oracle stores.

    Few chunks, so that keys collide in DAH's per-chunk tables.
    """
    kwargs = {"chunks": chunks} if name in ("AC", "BA", "DAH") else {}
    structures = [make_structure(name, max_nodes, directed=directed, **kwargs)]
    if plain:
        structures.append(oracle_structure(name, max_nodes, directed, **kwargs))
    return structures


@pytest.mark.parametrize("name", ALL)
def test_every_structure_emits_arrays(name, monkeypatch):
    """No registered structure with a compiled kernel runs the
    per-vertex loop; one without runs it."""
    visits = []
    (structure,) = _make(name, True, plain=False)
    store_class = type(structure._out)
    reference = store_class.trace_traversal

    def per_vertex(store, u, recorder):
        visits.append(u)
        return reference(store, u, recorder)

    monkeypatch.setattr(store_class, "trace_traversal", per_vertex)
    structure.trace_out_traversal(np.arange(N))
    assert visits == ([] if cingest.get() is not None else list(range(N)))
    with native_env("1"):
        (structure,) = _make(name, True, plain=False)
    visits.clear()
    structure.trace_in_traversal(np.arange(N))
    assert visits == list(range(N))


_edges = st.lists(
    st.tuples(st.integers(0, N - 2), st.integers(0, N - 2)), max_size=120
)
_stream = st.lists(st.tuples(st.booleans(), _edges), max_size=5)


def _apply(structures, stream):
    ctx = ExecutionContext(machine=SMALL_MACHINE)
    for structure in structures:
        for delete, edges in stream:
            batch = EdgeBatch.from_edges(edges)
            (structure.delete if delete else structure.update)(batch, ctx)


@pytest.mark.parametrize("name", ALL)
@pytest.mark.parametrize("directed", [True, False])
@pytest.mark.parametrize("plain", [False, True])
class TestArrayEmittersMatchPerVertex:
    @settings(max_examples=25, deadline=None)
    @given(
        stream=_stream,
        # Vertex N - 1 never gets an edge: always absent from the tables.
        vertices=st.lists(st.integers(0, N - 1), max_size=60),
    )
    def test_random_streams(self, name, directed, plain, stream, vertices):
        structures = _make(name, directed, plain)
        _apply(structures, stream)
        _assert_matches_reference(structures, vertices)

    def test_hub_resizes_and_tombstones(self, name, directed, plain):
        """Hubs past the degree-16 flush, resized tables, deleted edges."""
        # One chunk: the 20 hubs resize the high table (more than 0.7 x
        # 16 keys) and the 89 chain vertices fill the resized low table
        # to just under 0.7 x 128, so that probes of the absent ids
        # 20..49 run into displaced keys (the Robin Hood stop rule).
        m = 141
        structures = _make(name, directed, plain, max_nodes=m, chunks=1)
        hubs = [(u, v) for u in range(20) for v in range(20, 50)]
        _apply(
            structures,
            [
                (False, hubs),
                (False, [(u, u + 1) for u in range(50, m - 2)]),
                # Tombstones in the hubs' neighbor sets; vertex 60 emptied.
                (True, hubs[::3] + [(60, 61)]),
            ],
        )
        everyone = list(range(m)) + [0, 0, 60, m - 1]
        _assert_matches_reference(structures, everyone)
        _assert_matches_reference(structures, [])


class TestOverrunsStillRaise:
    """The vectorised checks raise where ``Region.element`` did."""

    @pytest.mark.parametrize("name", ["AS", "AC", "BA", "Stinger"])
    def test_vertex_beyond_max_nodes(self, name):
        (structure,) = _make(name, True, plain=False)
        with pytest.raises(SimulationError):
            structure._out.trace_traversal(N, TraceRecorder())
        for emit in (structure.trace_out_traversal, structure.trace_in_traversal):
            with pytest.raises(SimulationError, match=f"element {N} "):
                emit(np.array([1, N, 2]))

    @pytest.mark.parametrize("table", ["_low_regions", "_high_regions"])
    def test_region_shorter_than_its_table(self, table):
        (structure,) = _make("DAH", True, plain=False, chunks=1)
        ctx = ExecutionContext(machine=SMALL_MACHINE)
        structure.update(
            EdgeBatch.from_edges([(u, 0) for u in range(1, N)]), ctx
        )
        region = getattr(structure._out, table)[0]
        getattr(structure._out, table)[0] = Region(region.base, 8, region.label)
        vertices = np.arange(N)
        with pytest.raises(SimulationError, match="overruns region"):
            _reference(structure._out, vertices)
        with pytest.raises(SimulationError, match="overruns region"):
            structure.trace_out_traversal(vertices)


@pytest.mark.parametrize("name", ["AS", "BA", "Stinger"])
def test_c_emitter_refuses_a_negative_vertex(name):
    """A negative id has no header below the array (the per-vertex
    reference would read the numpy array from its end)."""
    (structure,) = _make(name, True, plain=False)
    if structure._out.kernels is None:
        pytest.skip("compiled ingest kernels unavailable")
    with pytest.raises(SimulationError, match="element -1 .* lies before region"):
        structure.trace_out_traversal(np.array([0, -1]))


class _PerVertexStore:
    """A store with a per-vertex ``trace_traversal`` and no kernel."""

    kernels = None

    def __init__(self, out):
        self.out = out

    def trace_traversal(self, u, recorder):
        # u accesses for an out-traversal, one for an in-traversal.
        out = self.out
        recorder.access_range(1000 * u if out else u, u if out else 1, 8)


def test_per_vertex_only_structure_gets_array_entry_points():
    """A store's per-vertex ``trace_traversal`` is enough."""
    bare = make_structure("AS", 8)
    bare._out, bare._in = _PerVertexStore(True), _PerVertexStore(False)
    counts, addresses = bare.trace_out_traversal(np.array([2, 0, 3]))
    assert counts.tolist() == [2, 0, 3]
    assert addresses.tolist() == [2000, 2008, 3000, 3008, 3016]
    counts, addresses = bare.trace_in_traversal([5, 7])
    assert (counts.tolist(), addresses.tolist()) == ([1, 1], [5, 7])
    undirected = make_structure("AS", 8, directed=False)
    undirected._out = undirected._in = _PerVertexStore(True)
    counts, addresses = undirected.trace_in_traversal([2])
    assert addresses.tolist() == [2000, 2008]
    counts, addresses = bare.trace_out_traversal(np.empty(0, dtype=np.int64))
    assert len(counts) == len(addresses) == 0

"""Differential tests for the compiled ingest and compute kernels.

Every store operation exists three times -- in the list/dict oracle
stores of ``tests/oracle_stores.py``, in the arena stores' per-edge
methods (what kernel-less stores run), and in the C batch-ingest
kernels (``repro.sim.cingest``, what every batch of a store with a
kernel runs, traced or not) -- and the three must be indistinguishable:
identical per-row counters (hence identical task prices and makespans),
identical graph contents, identical traces (task ids, addresses, write
bits: the kernel's access log against the recorder calls of the other
two), identical simulated-memory layouts (the address space's
counters), for every structure, under inserts, deletes, duplicate
churn, empty and hostile batches, with the arenas and the access log at
their smallest so every stall/grow/resume routine is taken.
"""

from __future__ import annotations

import collections
import contextlib

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from repro.compute import ckernels
from repro.graph import EdgeBatch, ExecutionContext, ReferenceGraph, make_structure
from repro.graph import nativestore
from repro.errors import SimulationError
from repro.graph.base import GraphDataStructure
from repro.sim import cingest
from repro.sim.memory import AddressSpace, Region
from repro.sim.tasks import TaskArray
from repro.sim.trace import TraceRecorder
from tests.conftest import (
    SMALL_MACHINE,
    asan_probe,
    random_batch,
    ubsan_probe,
)
from tests import test_trace_emitters
from tests.oracle_stores import (
    IMPLEMENTATIONS,
    KERNEL,
    ORACLE,
    PER_EDGE,
    structure_over,
)

ALL = ("AS", "AC", "Stinger", "DAH", "BA")

N = 48


def _ctx(**kwargs) -> ExecutionContext:
    return ExecutionContext(machine=SMALL_MACHINE, **kwargs)


def _run_scenario(name: str, directed: bool, implementation: str,
                  nodes: int = N, extra=(), **kwargs):
    """Build a structure over ``implementation`` and run the script.

    The script covers batch inserts, duplicate churn, deletions of
    present and absent edges, empty batches, and traced batches in the
    middle and at the end (the traces pin the region layout).
    ``extra`` batches are inserted first.  Returns the structure plus a
    comparable summary and the traces.
    """
    structure = structure_over(implementation, name, nodes, directed, **kwargs)
    summary, traces = [], []

    def step(operation, batch, traced=False):
        result = operation(
            batch, _ctx(recorder=TraceRecorder() if traced else None)
        )
        summary.append(
            (result.edges_inserted, result.duplicates, result.latency_cycles)
        )
        if traced:
            traces.append(result.trace)

    first = random_batch(nodes, 260, seed=7)
    growth = random_batch(nodes, 260, seed=8)
    for batch in extra:
        step(structure.update, batch)
    step(structure.update, first)
    step(structure.update, growth)
    step(structure.update, first)  # duplicate churn
    step(structure.update, EdgeBatch.empty())
    step(structure.delete, random_batch(nodes, 120, seed=10), traced=True)
    step(structure.delete, first)
    step(structure.delete, first)  # all misses now
    step(structure.delete, EdgeBatch.empty())
    step(structure.update, first)  # reinsert after delete
    step(structure.update, random_batch(nodes, 120, seed=9), traced=True)
    return structure, summary, traces


def _same_graph(a, b, nodes=N) -> None:
    assert a.num_edges == b.num_edges
    for v in range(nodes):
        assert dict(a.out_neigh(v)) == dict(b.out_neigh(v))
        assert dict(a.in_neigh(v)) == dict(b.in_neigh(v))
        assert a.out_degree(v) == b.out_degree(v)
        assert a.in_degree(v) == b.in_degree(v)


def _space_counters(structure):
    """Everything the address space accounts, beyond the addresses."""
    space = structure.space
    return (
        space._next,
        space.region_count,
        space.allocated_bytes,
        space.live_bytes,
        {label: size for label, size in space._live_by_label.items() if size},
    )


def _assert_native_matches_plain(name, directed, nodes=N, **kwargs):
    """Per-edge arena methods and the C kernel, each against the oracle."""
    plain, plain_summary, plain_traces = _run_scenario(
        name, directed, ORACLE, nodes, **kwargs
    )
    for implementation in (PER_EDGE, KERNEL):
        native, native_summary, native_traces = _run_scenario(
            name, directed, implementation, nodes, **kwargs
        )
        assert native_summary == plain_summary, implementation
        _same_graph(native, plain, nodes)
        # Traced addresses pin down both the per-edge methods and the
        # entire simulated-memory allocation history (region bases are
        # allocation-order dependent); the counters catch an accounting
        # slip in the event replay that leaves the addresses intact.
        for native_trace, plain_trace in zip(native_traces, plain_traces):
            assert np.array_equal(native_trace.addresses, plain_trace.addresses)
            assert np.array_equal(native_trace.is_write, plain_trace.is_write)
            assert np.array_equal(native_trace.task_ids, plain_trace.task_ids)
        assert _space_counters(native) == _space_counters(plain), implementation


@pytest.fixture
def log_stalls(monkeypatch):
    """Start every access log at one row; yields the ``(structure,
    delete)`` of each batch in which the kernel stalled on the log."""
    monkeypatch.setattr(nativestore, "INITIAL_LOG", 1)
    stalled, current = set(), []
    ingest, grow = GraphDataStructure._ingest, nativestore._AccessLog.grow

    def ingesting(structure, batch, recorder, delete):
        current[:] = [(structure.name, delete)]
        return ingest(structure, batch, recorder, delete)

    def growing(log, used, need):
        stalled.add(current[0])
        grow(log, used, need)

    monkeypatch.setattr(GraphDataStructure, "_ingest", ingesting)
    monkeypatch.setattr(nativestore._AccessLog, "grow", growing)
    return stalled


@pytest.mark.parametrize("name", ALL)
@pytest.mark.parametrize("directed", [True, False])
def test_native_matches_plain(name, directed):
    if cingest.get() is None:
        pytest.skip("compiled ingest kernels unavailable")
    _assert_native_matches_plain(name, directed)


@pytest.mark.parametrize("name", ALL)
def test_native_matches_plain_after_a_star(name):
    """Vertex 0 points at 40 others first, on 100 vertices: the out and
    in stores end with different live bytes (on 48 vertices, as above,
    Stinger's happen to be equal), so an allocation replayed under the
    other store's label shows in the counters."""
    if cingest.get() is None:
        pytest.skip("compiled ingest kernels unavailable")
    star = EdgeBatch.from_edges([(0, v) for v in range(1, 41)])
    _assert_native_matches_plain(name, True, 100, extra=[star])


@pytest.mark.parametrize("pool", [1, 2, 3])
@pytest.mark.parametrize("name", ["AS", "AC", "BA"])
@pytest.mark.parametrize("directed", [True, False])
def test_native_matches_plain_when_every_batch_stalls(
    name, directed, pool, monkeypatch, log_stalls
):
    """A tiny entry pool stalls the vector kernel, whose ``grow`` enlarges
    it on both stores, and resumes it mid-log; a one-row access log
    stalls both of its operations, which resume to the oracle's trace."""
    if cingest.get() is None:
        pytest.skip("compiled ingest kernels unavailable")
    monkeypatch.setattr(nativestore, "INITIAL_POOL", pool)
    took = _count_kernel_grows(monkeypatch, nativestore._PooledVectorState)
    _assert_native_matches_plain(name, directed)
    sides = ("out", "in") if directed else ("out",)
    assert set(took) == {(f"{name}.{side}", 0) for side in sides}
    assert log_stalls == {(name, False), (name, True)}


def _count_kernel_grows(monkeypatch, store_class):
    """Count ``(label, resource)`` of every ``grow`` that enlarged an
    arena of a store with a kernel: what the kernel path stalled on."""
    took = collections.Counter()
    grow = store_class.grow

    def counting(store, resource, need):
        before = _arena_size(store)
        grow(store, resource, need)
        if store.kernels is not None and _arena_size(store) > before:
            took[store.label, resource] += 1

    monkeypatch.setattr(store_class, "grow", counting)
    return took


#: The stall/grow/resume routine of every kernel resource code, in the
#: order of the codes ``grow(resource, need)`` takes.
GROW_ROUTINES = {
    "Stinger": ("_grow_bid_pool", "_grow_block_pool"),
    "DAH": (
        "_grow_low_arena",
        "_grow_high_arena",
        "_grow_inline_pool",
        "_grow_set_arena",
        "_grow_set_meta",
    ),
}


def _arena_size(store) -> int:
    """Total length of the store's numpy arrays."""
    return sum(
        value.size for value in vars(store).values() if isinstance(value, np.ndarray)
    )


@pytest.mark.parametrize("name", sorted(GROW_ROUTINES))
@pytest.mark.parametrize("directed", [True, False])
def test_every_arena_starts_at_its_minimum(name, directed, monkeypatch, log_stalls):
    """Stinger's and DAH's seven grow routines, each taken by both paths
    (the kernel path through ``grow(resource, need)``).

    Every initial arena size is forced to 1, so the kernel stalls at
    every resource code and the per-edge methods outgrow every array;
    400 vertices in one chunk, with hubs on both sides, flush vertices
    into neighbor sets and resize the low, high and set tables.  The
    access log starts at one row beside them: the traced insert and the
    traced delete stall on it and still resume to the oracle's trace.
    """
    if cingest.get() is None:
        pytest.skip("compiled ingest kernels unavailable")
    store_class = {
        "Stinger": nativestore.NativeStingerStore,
        "DAH": nativestore.NativeDAHStore,
    }[name]
    for constant in vars(store_class):
        if constant.startswith("INITIAL_"):
            monkeypatch.setattr(store_class, constant, 1)
    grew = collections.Counter()

    def counting(routine):
        original = getattr(store_class, routine)

        def wrapper(store, *args):
            before = _arena_size(store)
            original(store, *args)
            if _arena_size(store) > before:
                grew[store.kernels is not None, store.label, routine] += 1

        return wrapper

    for routine in GROW_ROUTINES[name]:
        monkeypatch.setattr(store_class, routine, counting(routine))
    took = _count_kernel_grows(monkeypatch, store_class)
    nodes = 400
    hubs = EdgeBatch.from_edges(
        [(u, v) for u in range(30) for v in range(40, 70)]
    )
    _assert_native_matches_plain(
        name, directed, nodes, extra=[hubs, random_batch(nodes, 1500, seed=3)],
        **({"chunks": 1} if name == "DAH" else {}),
    )
    sides = ("out", "in") if directed else ("out",)
    for compiled in (False, True):
        for side in sides:
            for routine in GROW_ROUTINES[name]:
                assert grew[compiled, f"{name}.{side}", routine], (
                    f"{routine} of {name}.{side} never grew an arena "
                    f"({'kernel' if compiled else 'per-edge'} path): {dict(grew)}"
                )
    assert set(took) == {
        (f"{name}.{side}", resource)
        for side in sides
        for resource in range(len(GROW_ROUTINES[name]))
    }
    assert log_stalls == {(name, False), (name, True)}


@pytest.mark.parametrize("name", ["AS", "AC"])
@pytest.mark.parametrize("directed", [True, False])
def test_vertex_growing_repeatedly_in_one_batch(name, directed):
    """A hub gaining 40 fresh neighbours grows 4 -> 64 inside one batch:
    its region is the last one allocated and the four before are freed."""
    if cingest.get() is None:
        pytest.skip("compiled ingest kernels unavailable")
    hub = EdgeBatch.from_edges([(0, v) for v in range(1, 41)])
    probe = np.arange(N)

    def run(implementation):
        structure = structure_over(implementation, name, N, directed)
        structure.update(hub, _ctx())
        return structure, structure.trace_out_traversal(probe)

    plain, (plain_counts, plain_addresses) = run(ORACLE)
    for implementation in (PER_EDGE, KERNEL):
        native, (native_counts, native_addresses) = run(implementation)
        assert np.array_equal(native_counts, plain_counts)
        assert np.array_equal(native_addresses, plain_addresses)
        assert int(native._out._region_base[0]) == plain._out._region[0].base
        assert _space_counters(native) == _space_counters(plain)
        out_vectors = native.space.live_bytes_for(f"{name}.out.vec")
        spokes = 40 * nativestore.INITIAL_CAPACITY * nativestore.ENTRY_BYTES
        assert out_vectors == 64 * nativestore.ENTRY_BYTES + (
            0 if directed else spokes
        )


@given(
    log=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=1),
            st.integers(min_value=0, max_value=7),
            st.integers(min_value=0, max_value=5),
        ),
        max_size=40,
    ),
    shared=st.booleans(),
)
def test_growth_log_as_arrays_matches_event_by_event(log, shared):
    """One ``alloc_log`` + scatter == the per-event ``_replay_grow`` loop,
    for two stores on one address space and for one store mirroring
    itself (undirected), repeated vertices included."""
    mirror, vertex, doublings = np.asarray(log, dtype=np.int64).reshape(len(log), 3).T
    capacity = nativestore.INITIAL_CAPACITY << doublings

    def replay(method):
        space = AddressSpace()
        out = nativestore.NativeVectorStore(8, space, "AS.out", None)
        inn = out if shared else nativestore.NativeVectorStore(8, space, "AS.in", None)
        method(out, inn, mirror, vertex, capacity)
        return (
            out._region_base.tolist(),
            inn._region_base.tolist(),
            space._next,
            space.region_count,
            space.allocated_bytes,
            space.live_bytes,
            space._live_by_label,
        )

    assert replay(nativestore.NativeVectorStore._replay_growth) == replay(
        nativestore._PooledVectorState._replay_growth
    )


@pytest.mark.parametrize("name", ALL)
def test_native_matches_reference(name):
    """Every implementation agrees with ReferenceGraph over interleaved churn."""
    if cingest.get() is None:
        pytest.skip("compiled ingest kernels unavailable")
    for implementation in IMPLEMENTATIONS:
        structure = structure_over(implementation, name, N, directed=True)
        reference = ReferenceGraph(N, directed=True)
        for seed in range(3):
            batch = random_batch(N, 200, seed=seed)
            structure.update(batch, _ctx())
            reference.update(batch)
            drop = random_batch(N, 60, seed=seed + 10)
            structure.delete(drop, _ctx())
            reference.delete_collect(drop)
        assert structure.num_edges == reference.num_edges
        for v in range(N):
            assert dict(structure.out_neigh(v)) == dict(reference.out_neigh(v))
            assert dict(structure.in_neigh(v)) == dict(reference.in_neigh(v))


#: Weights a raw array can carry: zero, negative, infinite, not a number.
HOSTILE_WEIGHTS = (1.0, 0.0, -3.0, float("inf"), float("-inf"), float("nan"))


@st.composite
def _hostile_streams(draw):
    """``(max_nodes, [(delete, edges), ...])``: self-loops, in-batch
    duplicates, the last id, a one-vertex graph, empty batches, deletes
    of absent edges, and :data:`HOSTILE_WEIGHTS`."""
    max_nodes = draw(st.sampled_from([1, 2, 7, 40]))

    def decode(code):
        code, weight = divmod(code, len(HOSTILE_WEIGHTS))
        return (*divmod(code, max_nodes), HOSTILE_WEIGHTS[weight])

    # One integer per edge: cheap to draw, shrinks to the loop (0, 0, 1.0).
    codes = st.integers(0, max_nodes * max_nodes * len(HOSTILE_WEIGHTS) - 1)
    stream = []
    for delete, batch, hub in draw(
        st.lists(
            st.tuples(st.booleans(), st.lists(codes, max_size=30), st.booleans()),
            max_size=6,
        )
    ):
        edges = [decode(code) for code in batch]
        if hub and edges:
            # Every id as a neighbour crosses DAH's degree-16 flush.
            u, _, weight = edges[0]
            edges += [(u, v, weight) for v in range(max_nodes)]
        stream.append((delete, edges))
    return max_nodes, stream


def _trace_columns(trace):
    return [trace.task_ids.tolist(), trace.addresses.tolist(), trace.is_write.tolist()]


def _hostile_observation(implementation, name, directed, max_nodes, stream):
    """Everything observable of one stream, every batch traced: per batch
    the summary, the six emitted columns and the trace, then every
    neighbour list (``repr``: NaN != NaN)."""
    structure = structure_over(implementation, name, max_nodes, directed)
    observed = []
    for delete, edges in stream:
        operation = structure.delete if delete else structure.update
        result = operation(
            EdgeBatch.from_edges(edges),
            _ctx(recorder=TraceRecorder()),
        )
        tasks = result.tasks
        observed.append(
            (
                result.edges_inserted,
                result.duplicates,
                result.latency_cycles,
                [getattr(tasks, column).tolist() for column in TaskArray.__slots__],
                _trace_columns(result.trace),
            )
        )
    observed.append(
        [
            (structure.out_neigh(v), structure.in_neigh(v))
            for v in range(max_nodes)
        ]
    )
    return repr(observed)


@pytest.mark.parametrize("name", ALL)
@pytest.mark.parametrize("directed", [True, False])
@settings(max_examples=30, deadline=None)
@given(case=_hostile_streams())
def test_hostile_batches(name, directed, case):
    """Oracle, per-edge methods and C kernel agree on hostile raw arrays."""
    if cingest.get() is None:
        pytest.skip("compiled ingest kernels unavailable")
    max_nodes, stream = case
    for kind, present in {
        "one-vertex graph": max_nodes == 1,
        "empty batch": any(not edges for _, edges in stream),
        "delete batch": any(delete for delete, _ in stream),
        "self-loop": any(u == v for _, edges in stream for u, v, _ in edges),
        "in-batch duplicate": any(
            len({(u, v) for u, v, _ in edges}) < len(edges) for _, edges in stream
        ),
        "non-finite weight": any(
            not np.isfinite(w) for _, edges in stream for _, _, w in edges
        ),
        "hub past DAH's degree-16 flush": max_nodes > 17
        and any(len(edges) > 30 for _, edges in stream),
    }.items():
        if present:
            event(kind)
    oracle = _hostile_observation(ORACLE, name, directed, max_nodes, stream)
    for implementation in (PER_EDGE, KERNEL):
        assert (
            _hostile_observation(implementation, name, directed, max_nodes, stream)
            == oracle
        ), implementation


# ----------------------------------------------------------------------
# The kernel-written access log
# ----------------------------------------------------------------------

#: Vertex ids of the traced streams: one DAH chunk, so tables fill up.
M = 128

#: One batch in which a hub's vector grows 4 -> 64, and -- with one DAH
#: chunk -- the low table (> 44 keys), the high table (> 11 flushed
#: hubs) and a neighbor set (> 22 members) all resize.
RESIZE_EVERYTHING = EdgeBatch.from_edges(
    [(0, v) for v in range(1, 41)]
    + [(u, v) for u in range(1, 14) for v in range(60, 84)]
    + [(u, u + 1) for u in range(60, M - 1)]
)

#: A second batch that replaces regions standing since the first: the
#: hub's vector grows 64 -> 128 and vertex 1's neighbor set 64 -> 128
#: after scans and probes of the old ones.
GROW_AGAIN = EdgeBatch.from_edges(
    [(0, v) for v in range(41, 75)] + [(1, v) for v in range(84, 110)]
)

_traced_stream = st.lists(
    st.tuples(
        st.booleans(),
        st.lists(st.tuples(st.integers(0, M - 1), st.integers(0, M - 1)), max_size=40),
    ),
    max_size=4,
)


@contextlib.contextmanager
def _everything_at_its_minimum():
    """Every arena of every store, and the access log, start at one cell."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nativestore, "INITIAL_POOL", 1)
        patch.setattr(nativestore, "INITIAL_LOG", 1)
        for store_class in (nativestore.NativeStingerStore, nativestore.NativeDAHStore):
            for constant in vars(store_class):
                if constant.startswith("INITIAL_"):
                    patch.setattr(store_class, constant, 1)
        yield


def _traced_run(implementation, name, directed, stream):
    """Per batch the summary and the trace, then the layout counters."""
    kwargs = {"chunks": 1} if name in ("AC", "BA", "DAH") else {}
    structure = structure_over(implementation, name, M, directed, **kwargs)
    observed = []
    for delete, batch in stream:
        operation = structure.delete if delete else structure.update
        result = operation(batch, _ctx(recorder=TraceRecorder()))
        observed.append(
            (result.edges_inserted, result.latency_cycles, _trace_columns(result.trace))
        )
    return structure, observed + [_space_counters(structure)]


@pytest.mark.parametrize("name", ALL)
@pytest.mark.parametrize("directed", [True, False])
@settings(max_examples=12, deadline=None)
@given(stream=_traced_stream)
def test_traced_streams(name, directed, stream):
    """Every batch traced, every arena and the log at their minimum: the
    kernel's log equals the oracle's and the per-edge methods' trace,
    access for access, through growths, resizes, stalls and rewinds."""
    if cingest.get() is None:
        pytest.skip("compiled ingest kernels unavailable")
    stream = [(False, RESIZE_EVERYTHING), (False, GROW_AGAIN)] + [
        (delete, EdgeBatch.from_edges(edges)) for delete, edges in stream
    ]
    with _everything_at_its_minimum():
        _, oracle = _traced_run(ORACLE, name, directed, stream)
        for implementation in (PER_EDGE, KERNEL):
            structure, observed = _traced_run(implementation, name, directed, stream[:1])
            if name == "DAH":
                out = structure._out
                assert out._lcap[0] > out.LOW_INIT and out._hcap[0] > out.HIGH_INIT
                assert out._scap[: int(out._state[5])].max() > out.SET_INIT
            elif name != "Stinger":
                assert structure._out._capacity[0] == 64
            assert observed[0] == oracle[0], implementation
            _, observed = _traced_run(implementation, name, directed, stream)
            assert observed == oracle, implementation


def _store_state(structure):
    """Every array of both stores, cell for cell."""
    return {
        (store.label, attribute): value.tolist()
        for store in (structure._out, structure._in)
        if store is not None
        for attribute, value in vars(store).items()
        if isinstance(value, np.ndarray)
    }


@pytest.mark.parametrize("name", ALL)
@pytest.mark.parametrize("directed", [True, False])
def test_tracing_changes_nothing_but_the_trace(name, directed, monkeypatch):
    """A traced and an untraced run of one stream leave the same stores,
    emitted columns and address-space counters."""
    if cingest.get() is None:
        pytest.skip("compiled ingest kernels unavailable")
    # Arena cells nobody wrote would otherwise differ run to run.
    monkeypatch.setattr(np, "empty", np.zeros)

    def run(traced):
        structure = structure_over(KERNEL, name, M, directed)
        columns = []
        for delete, batch in [
            (False, RESIZE_EVERYTHING),
            (False, random_batch(M, 300, seed=1)),
            (True, random_batch(M, 200, seed=2)),
            (False, random_batch(M, 200, seed=3)),
        ]:
            operation = structure.delete if delete else structure.update
            result = operation(
                batch,
                _ctx(recorder=TraceRecorder() if traced else None),
            )
            tasks = result.tasks
            columns.append(
                [getattr(tasks, column).tolist() for column in TaskArray.__slots__]
            )
            assert (result.trace is not None and len(result.trace) > 0) == traced
        return _store_state(structure), columns, _space_counters(structure)

    assert run(traced=True) == run(traced=False)


#: Per structure, the store attribute holding the region every operation
#: reads first (``_low_regions``: a list, one region per chunk).
FIRST_REGION = {
    "AS": "_header",
    "AC": "_header",
    "BA": "_header",
    "Stinger": "_vertex_array",
    "DAH": "_high_regions",
}


@pytest.mark.parametrize("implementation", [PER_EDGE, KERNEL])
@pytest.mark.parametrize("name", ALL)
def test_access_past_its_region_raises(name, implementation):
    """A region shorter than what the store keeps in it: the per-edge
    methods raise from ``Region.element``, the kernel path from the
    same check on the resolved log."""
    if cingest.get() is None:
        pytest.skip("compiled ingest kernels unavailable")
    kwargs = {"chunks": 1} if name == "DAH" else {}
    structure = structure_over(implementation, name, N, **kwargs)
    structure.update(random_batch(N, 100, seed=4), _ctx())
    store, attribute = structure._out, FIRST_REGION[name]
    region = getattr(store, attribute)
    if name == "DAH":
        region[0] = Region(region[0].base, 16, region[0].label)
    else:
        setattr(store, attribute, Region(region.base, 16, region.label))
    batch = EdgeBatch.from_edges([(u, 0) for u in range(1, N)])
    # The untraced batch computes no address, so nothing can overrun.
    structure.delete(batch, _ctx())
    for operation in (structure.update, structure.delete):
        with pytest.raises(SimulationError, match="overruns region"):
            operation(batch, _ctx(recorder=TraceRecorder()))


@pytest.mark.parametrize("name", ALL)
@pytest.mark.parametrize("directed", [True, False])
def test_one_ingest_path_per_store(name, directed, monkeypatch):
    """A store with a kernel never runs a per-edge method, traced or not;
    a store without one runs nothing else."""
    if cingest.get() is None:
        pytest.skip("compiled ingest kernels unavailable")
    calls = collections.Counter()

    def counted(owner, attribute, key):
        original = getattr(owner, attribute)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attribute, wrapper)

    for store_class in (
        nativestore._PooledVectorState,
        nativestore.NativeStingerStore,
        nativestore.NativeDAHStore,
    ):
        counted(store_class, "insert", "per-edge")
        counted(store_class, "remove", "per-edge")
    counted(cingest.IngestKernels, "ingest", "kernel")
    batch = random_batch(N, 80, seed=5)
    rows = 2 * len(batch)
    for implementation, expected in (
        (KERNEL, {"kernel": 4}),
        (PER_EDGE, {"per-edge": 4 * rows}),
    ):
        calls.clear()
        structure = structure_over(implementation, name, N, directed)
        for traced in (False, True):
            for operation in (structure.update, structure.delete):
                operation(batch, _ctx(recorder=TraceRecorder() if traced else None))
        assert calls == expected, implementation


@pytest.mark.parametrize("name", ALL)
@pytest.mark.parametrize("directed", [True, False])
def test_both_paths_return_one_column_block(name, directed, monkeypatch):
    """``_ingest`` hands ``_price`` one C-contiguous int64 block of shape
    ``(len(columns), rows)``, equal cell for cell on the kernel and the
    per-edge path: inserts and deletes, traced and untraced, with
    undirected self-loops (no mirror row)."""
    if cingest.get() is None:
        pytest.skip("compiled ingest kernels unavailable")
    kernel = structure_over(KERNEL, name, N, directed)
    per_edge = structure_over(PER_EDGE, name, N, directed)
    handed = []
    price = type(kernel)._price

    def capture(structure, batch, columns, delete):
        handed.append(columns)
        return price(structure, batch, columns, delete)

    monkeypatch.setattr(type(kernel), "_price", capture)
    loops = [(u, u) for u in range(0, N, 7)]
    batches = []
    for seed in range(4):
        edges = random_batch(N, 100, seed=20 + seed)
        batches.append(EdgeBatch.from_edges(loops + list(zip(edges.src, edges.dst))))
    for structure in (kernel, per_edge):
        for traced, delete, batch in zip(
            (False, True, False, True), (False, False, True, True), batches
        ):
            operation = structure.delete if delete else structure.update
            operation(batch, _ctx(recorder=TraceRecorder() if traced else None))
    kernel_blocks, per_edge_blocks = handed[:4], handed[4:]
    for batch, ours, reference in zip(batches, kernel_blocks, per_edge_blocks):
        loops_in_batch = int((batch.src == batch.dst).sum())
        rows = 2 * len(batch) - (0 if directed else loops_in_batch)
        for block in (ours, reference):
            assert isinstance(block, np.ndarray) and block.dtype == np.int64
            assert block.flags.c_contiguous
            assert block.shape == (len(kernel.columns), rows)
        assert np.array_equal(ours, reference)


def test_blocked_delete_is_traced_like_a_vector_delete():
    """BA's ``remove`` emits what the vector stores' does -- header, scan,
    backfill write -- in the oracle, the per-edge method and the kernel
    log (it used to emit nothing: a traced BA delete replayed an empty
    trace)."""
    insert, drop = random_batch(N, 200, seed=6), random_batch(N, 120, seed=10)

    def traced_delete(implementation, name):
        structure = structure_over(implementation, name, N, chunks=2)
        structure.update(insert, _ctx())
        return structure.delete(drop, _ctx(recorder=TraceRecorder())).trace

    chunked = traced_delete(ORACLE, "AC")
    assert chunked.write_count > 0
    for implementation in IMPLEMENTATIONS:
        if implementation == KERNEL and cingest.get() is None:
            continue
        blocked = traced_delete(implementation, "BA")
        assert np.array_equal(blocked.task_ids, chunked.task_ids), implementation
        assert np.array_equal(blocked.is_write, chunked.is_write), implementation


# ----------------------------------------------------------------------
# The ingest library under sanitizers
# ----------------------------------------------------------------------

#: A raw call no wrapper would make: one edge, no source column.
_UBSAN_PROBE = """
import sys
import numpy as np
from repro.sim import cbuild, cingest
cbuild.CFLAGS = cbuild.CFLAGS + tuple(sys.argv[1:])
lib = cingest.get()._lib
ctl = np.zeros(10, dtype=np.int64)
store = np.zeros(32, dtype=np.int64).ctypes.data
lib.saga_ingest(0, 1, None, None, None, 1, 0, store, store, None, None, ctl.ctypes.data, None)
"""

#: In a child under ASan: the traced streams (every arena and the log
#: at one cell), the emitters (the compute-trace emitter also into
#: columns of exactly its trace's length), an mmap ``repro scale``
#: stream (the live graph's collect and CSR fold), then -- to show the
#: build would have trapped -- a batch whose column block is 200 rows
#: short, so its last column runs off the block's end (long enough to
#: come from ``malloc``, not from numpy's small-block cache).
_ASAN_CHILD = """
import os, sys, tempfile
import numpy as np
import pytest
from repro import cli
import tests.test_cingest
import tests.test_hardware_profile_units
import tests.test_trace_emitters
from repro.graph import EdgeBatch, make_structure, nativestore
from repro.sim import cbuild
os.environ.pop("LD_PRELOAD")  # this process has it; cc need not
cbuild.CFLAGS = cbuild.CFLAGS + tuple(sys.argv[1:])
print("streams exit", pytest.main([
    "-q", "-p", "no:cacheprovider", "-rs",
    tests.test_cingest.__file__ + "::test_traced_streams",
]), flush=True)
print("emitters exit", pytest.main([
    "-q", "-p", "no:cacheprovider", "-rs",
    tests.test_trace_emitters.__file__ + "::TestArrayEmittersMatchPerVertex::test_hub_resizes_and_tombstones",
    tests.test_trace_emitters.__file__ + "::TestOverrunsStillRaise",
    tests.test_hardware_profile_units.__file__ + "::TestComputeTraceEmitter",
]), flush=True)
with tempfile.TemporaryDirectory() as mmap_dir:
    print("scale exit", cli.main([
        "scale", "--scale", "16", "--edges", "200000", "--batch-size", "40000",
        "--mmap-dir", mmap_dir,
    ]), flush=True)
zeros = np.zeros
nativestore.np.zeros = lambda n, dtype=float: zeros((3, 600) if n == (3, 800) else n, dtype=dtype)
structure = make_structure("AS", 1000)
structure.update(EdgeBatch.from_edges([(u, u + 1) for u in range(400)]))
"""


@pytest.mark.usefixtures("ubsan_libraries")
class TestIngestLibraryUnderUBSan:
    """The tests above that drive the kernels hardest -- the differential
    scenario, every arena and the access log at their minimum, the traced
    streams -- and the traversal emitters' verifier of
    ``tests/test_trace_emitters.py`` run again through a
    ``-fsanitize=undefined`` build, and the streams, the emitters and an
    mmap ``repro scale`` stream once more in a child under
    AddressSanitizer."""

    def test_the_sanitizer_is_live(self, ubsan_libraries):
        """The build under test does trap: a raw call the Python side
        would never make is reported by the UBSan runtime in a child."""
        assert list(ubsan_libraries.glob("saga_native_*.so"))
        child = ubsan_probe(_UBSAN_PROBE)
        assert child.returncode != 0
        assert "runtime error: load of null pointer" in child.stderr

    @pytest.mark.parametrize("name", ALL)
    @pytest.mark.parametrize("directed", [True, False])
    def test_differential_scenario(self, name, directed):
        _assert_native_matches_plain(name, directed)

    @pytest.mark.parametrize("name", ["AS", "AC", "BA"])
    @pytest.mark.parametrize("directed", [True, False])
    def test_vector_pool_and_log_stalls(self, name, directed, monkeypatch, log_stalls):
        test_native_matches_plain_when_every_batch_stalls(
            name, directed, 1, monkeypatch, log_stalls
        )

    @pytest.mark.parametrize("name", sorted(GROW_ROUTINES))
    @pytest.mark.parametrize("directed", [True, False])
    def test_every_arena_and_the_log_at_their_minimum(
        self, name, directed, monkeypatch, log_stalls
    ):
        test_every_arena_starts_at_its_minimum(name, directed, monkeypatch, log_stalls)

    @pytest.mark.parametrize("name", ALL)
    @pytest.mark.parametrize("directed", [True, False])
    def test_traced_streams(self, name, directed):
        test_traced_streams(name, directed)

    @pytest.mark.parametrize("name", ALL)
    @pytest.mark.parametrize("directed", [True, False])
    def test_traversal_emitters(self, name, directed):
        """The C traversal emitters against the per-vertex reference: hub
        resizes and tombstones, then a churned random stream."""
        emitters = test_trace_emitters.TestArrayEmittersMatchPerVertex()
        emitters.test_hub_resizes_and_tombstones(name, directed, plain=True)
        structures = test_trace_emitters._make(name, directed, plain=True)
        for seed in range(3):
            batch = random_batch(test_trace_emitters.N - 1, 150, seed=seed)
            edges = list(zip(batch.src.tolist(), batch.dst.tolist()))
            test_trace_emitters._apply(structures, [(False, edges), (True, edges[::4])])
            test_trace_emitters._assert_matches_reference(
                structures, np.arange(test_trace_emitters.N)
            )

    def test_traversal_emitters_refuse_overruns(self):
        overruns = test_trace_emitters.TestOverrunsStillRaise()
        for name in ("AS", "AC", "BA", "Stinger"):
            overruns.test_vertex_beyond_max_nodes(name)
        for table in ("_low_regions", "_high_regions"):
            overruns.test_region_shorter_than_its_table(table)

    def test_traced_streams_under_address_sanitizer(self, tmp_path):
        """ASan sees what UBSan cannot: a log, event, arena, emitter or
        data-plane write one cell past its column.  The streams, the
        traversal emitters, the compute-trace emitter (into columns of
        exactly its trace's length, and refusing ones a cell shorter) and
        the scale stream give it nothing; an undersized output column,
        right after them in the same child, is reported."""
        child = asan_probe(_ASAN_CHILD, tmp_path)
        assert "streams exit 0" in child.stdout, child.stdout + child.stderr
        assert "emitters exit 0" in child.stdout, child.stdout + child.stderr
        assert "scale exit 0" in child.stdout, child.stdout + child.stderr
        assert "SKIPPED" not in child.stdout
        assert child.returncode != 0
        assert "heap-buffer-overflow" in child.stderr


class TestComputeThreadInvariance:
    """The compute library in a forked child (sweep workers fork)."""

    @staticmethod
    def _compute() -> bytes:
        from repro.algorithms import get_algorithm

        algorithm = get_algorithm("PR")
        reference = ReferenceGraph(1500, directed=True)
        state = algorithm.make_state(reference.max_nodes)
        batch = random_batch(1500, 6000, seed=0)
        reference.update(batch)
        affected = algorithm.affected_from_batch(batch, reference)
        algorithm.inc_run(reference, state, affected, source=0)
        return state.values.tobytes()

    @classmethod
    def _child_compute(cls, queue):
        queue.put(cls._compute())

    def test_forked_child_survives_live_pool(self):
        """A forked child with the compute library loaded computes the
        parent's bits (the library keeps process-wide sort scratch; the
        name dates from the thread pool it once carried across)."""
        if ckernels.get() is None:
            pytest.skip("compiled compute kernels unavailable")
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("platform has no fork start method")
        ctx = multiprocessing.get_context("fork")
        expected = self._compute()  # loads and runs the library here
        queue = ctx.Queue()
        child = ctx.Process(target=self._child_compute, args=(queue,))
        child.start()
        try:
            blob = queue.get(timeout=120)  # drained before the join
            child.join(timeout=10)
            assert not child.is_alive()
        finally:
            if child.is_alive():
                child.kill()
                child.join()
        assert child.exitcode == 0
        assert blob == expected

"""Unit and property tests for the cache hierarchy.

The second half is the verifier between the hierarchy's two
implementations: the ``SetAssociativeCache`` loop (the reference) and
``saga_cache_replay`` in the sim library.  Every verifier test names
the kernel mutant it was checked to kill: the mutant was seeded into
``ckernel._SOURCE``, the test run and seen to fail, the mutant removed.
"""

import unittest
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import ConfigError, SimulationError
from repro.obs import METRICS
from repro.sim import ckernel
from repro.sim.cache import CacheHierarchy, CacheStats, SetAssociativeCache
from repro.sim.machine import MachineConfig
from repro.sim.trace import MemoryTrace, TraceRecorder
from tests import test_sim_ckernel
from tests.conftest import ubsan_probe


def make_trace(addresses, writes=None):
    n = len(addresses)
    return MemoryTrace(
        task_ids=np.zeros(n, dtype=np.int64),
        addresses=np.asarray(addresses, dtype=np.int64),
        is_write=np.asarray(writes if writes is not None else [False] * n, dtype=bool),
    )


class TestSetAssociativeCache:
    def test_geometry(self):
        cache = SetAssociativeCache(size_bytes=8 * 64 * 4, ways=4, line_bytes=64)
        assert cache.sets == 8
        assert cache.ways == 4

    def test_rejects_bad_geometry(self):
        with pytest.raises(ConfigError):
            SetAssociativeCache(size_bytes=1000, ways=4, line_bytes=64)
        with pytest.raises(ConfigError):
            SetAssociativeCache(size_bytes=0, ways=4)

    def test_cold_miss_then_hit(self):
        cache = SetAssociativeCache(size_bytes=64 * 8, ways=2, line_bytes=64)
        assert cache.access(5) is False
        assert cache.access(5) is True
        assert cache.hits == 1
        assert cache.misses == 1

    def test_lru_eviction(self):
        # 1 set x 2 ways: third distinct line evicts the LRU one.
        cache = SetAssociativeCache(size_bytes=64 * 2, ways=2, line_bytes=64)
        cache.access(0)
        cache.access(1)
        cache.access(0)  # refresh 0; 1 becomes LRU
        cache.access(2)  # evicts 1
        assert cache.access(0) is True
        assert cache.access(1) is False

    def test_conflict_misses_in_one_set(self):
        # Lines mapping to the same set thrash despite spare capacity.
        cache = SetAssociativeCache(size_bytes=64 * 4 * 2, ways=2, line_bytes=64)
        sets = cache.sets
        for _ in range(3):
            for k in range(3):  # 3 lines, same set, 2 ways
                cache.access(k * sets)
        assert cache.hits == 0

    def test_reset_stats_keeps_contents(self):
        cache = SetAssociativeCache(size_bytes=64 * 8, ways=2, line_bytes=64)
        cache.access(3)
        cache.reset_stats()
        assert cache.misses == 0
        assert cache.access(3) is True


class TestCacheStats:
    def test_ratios(self):
        stats = CacheStats(l2_hits=3, l2_misses=1, llc_hits=1, llc_misses=0)
        assert stats.l2_hit_ratio == pytest.approx(0.75)
        assert stats.llc_hit_ratio == pytest.approx(1.0)

    def test_empty_ratios_are_zero(self):
        stats = CacheStats()
        assert stats.l2_hit_ratio == 0.0
        assert stats.llc_hit_ratio == 0.0

    def test_merge(self):
        a = CacheStats(accesses=10, l1_hits=5, l1_misses=5)
        b = CacheStats(accesses=2, l1_hits=1, l1_misses=1)
        merged = a.merge(b)
        assert merged.accesses == 12
        assert merged.l1_hits == 6


class TestHierarchy:
    MACHINE = MachineConfig(
        sockets=2,
        cores_per_socket=2,
        l1d_bytes=1024,
        l2_bytes=4096,
        llc_bytes_per_socket=16 * 1024,
        llc_ways=16,
    )

    def test_level_counts_are_consistent(self):
        hierarchy = CacheHierarchy(self.MACHINE)
        rng = np.random.default_rng(0)
        trace = make_trace(rng.integers(0, 1 << 20, size=500))
        stats = hierarchy.replay(trace, np.zeros(1, dtype=np.int32))
        assert stats.accesses == 500
        assert stats.l1_hits + stats.l1_misses == stats.accesses
        assert stats.l2_hits + stats.l2_misses == stats.l1_misses
        assert stats.llc_hits + stats.llc_misses == stats.l2_misses
        assert (
            stats.local_memory_accesses + stats.remote_memory_accesses
            == stats.llc_misses
        )

    def test_private_caches_are_per_core(self):
        hierarchy = CacheHierarchy(self.MACHINE)
        # Task 0 on thread 0 and task 1 on thread 1 touch the same line:
        # the second access misses its own L1/L2 but hits the shared LLC.
        trace = MemoryTrace(
            task_ids=np.array([0, 1], dtype=np.int64),
            addresses=np.array([128, 128], dtype=np.int64),
            is_write=np.array([False, False]),
        )
        stats = hierarchy.replay(trace, np.array([0, 1], dtype=np.int32))
        assert stats.l1_hits == 0
        assert stats.llc_hits == 1

    def test_sockets_have_separate_llcs(self):
        hierarchy = CacheHierarchy(self.MACHINE)
        # Threads 0 and 2 are on different sockets (2 cores per socket).
        trace = MemoryTrace(
            task_ids=np.array([0, 1], dtype=np.int64),
            addresses=np.array([128, 128], dtype=np.int64),
            is_write=np.array([False, False]),
        )
        stats = hierarchy.replay(trace, np.array([0, 2], dtype=np.int32))
        assert stats.llc_hits == 0  # remote socket's LLC is cold

    def test_persistence_across_replays(self):
        hierarchy = CacheHierarchy(self.MACHINE)
        trace = make_trace([256, 320, 384])
        first = hierarchy.replay(trace, np.zeros(1, dtype=np.int32))
        second = hierarchy.replay(trace, np.zeros(1, dtype=np.int32))
        assert first.l1_hits == 0
        assert second.l1_hits == 3  # warmed by the first replay

    def test_update_then_compute_reuse(self):
        """The Fig. 10 mechanism: compute reuses what update fetched."""
        hierarchy = CacheHierarchy(self.MACHINE)
        recorder = TraceRecorder()
        for address in range(0, 8 * 64, 64):
            recorder.access(address, write=True)
        update_trace = recorder.finalize()
        hierarchy.replay(update_trace, np.zeros(1, dtype=np.int32))
        compute = hierarchy.replay(update_trace, np.zeros(1, dtype=np.int32))
        assert compute.l1_hits + compute.l2_hits + compute.llc_hits == 8


@given(
    addresses=st.lists(st.integers(min_value=0, max_value=1 << 16), min_size=1, max_size=300)
)
@settings(max_examples=40, deadline=None)
def test_property_hit_counts_bounded(addresses):
    """Hits never exceed re-references; totals always balance."""
    cache = SetAssociativeCache(size_bytes=64 * 16, ways=2, line_bytes=64)
    for address in addresses:
        cache.access(address // 64)
    distinct = len({a // 64 for a in addresses})
    assert cache.hits + cache.misses == len(addresses)
    assert cache.misses >= distinct  # at least one cold miss per line


# ----------------------------------------------------------------------
# Reference vs native replay
# ----------------------------------------------------------------------

needs_sim_library = pytest.mark.skipif(
    ckernel.get_kernel() is None, reason="no C compiler: sim library unavailable"
)


def reference_hierarchy(machine):
    """A hierarchy on the ``SetAssociativeCache`` loop, library or not."""
    with mock.patch.object(ckernel, "get_kernel", return_value=None):
        return CacheHierarchy(machine)


@pytest.fixture(params=["native", "python"])
def make_hierarchy(request):
    """``CacheHierarchy`` on one engine; every test using it runs on both."""
    if request.param == "python":
        return reference_hierarchy
    if ckernel.get_kernel() is None:
        pytest.skip("no C compiler: sim library unavailable")
    return CacheHierarchy


def _geometry(sockets, cores_per_socket, l1, l2, llc, line=64, page_lines=64):
    """A machine from ``(sets, ways)`` per level."""
    return MachineConfig(
        sockets=sockets,
        cores_per_socket=cores_per_socket,
        line_bytes=line,
        page_bytes=page_lines * line,
        l1d_bytes=l1[0] * l1[1] * line,
        l1_ways=l1[1],
        l2_bytes=l2[0] * l2[1] * line,
        l2_ways=l2[1],
        llc_bytes_per_socket=llc[0] * llc[1] * line,
        llc_ways=llc[1],
    )


#: One set; one way; non-power-of-two set counts; 11 and 16 ways; 1 and
#: 2 sockets; 1-4 cores per socket; pages of 1, 4 and 64 lines.
GEOMETRIES = (
    _geometry(1, 1, l1=(1, 1), l2=(1, 2), llc=(3, 2), page_lines=1),
    _geometry(2, 1, l1=(1, 1), l2=(2, 1), llc=(8, 1), page_lines=1),
    _geometry(2, 2, l1=(2, 1), l2=(2, 2), llc=(1, 11), page_lines=4),
    _geometry(2, 3, l1=(1, 2), l2=(3, 4), llc=(5, 4), page_lines=64),
    _geometry(1, 4, l1=(2, 2), l2=(1, 16), llc=(6, 11), line=16, page_lines=4),
    _geometry(2, 4, l1=(1, 2), l2=(3, 2), llc=(2, 16), line=32, page_lines=1),
)

#: Lines the verifier's traces touch: a few times the largest LLC above,
#: so every level sees hits, fills and evictions.
LINES = 96


def _replay_both(machine, addresses, task_ids, task_thread, cuts):
    """Replay one trace, cut at ``cuts`` into consecutive calls, through a
    persistent hierarchy per engine: ``[(native stats, reference stats)]``."""
    native = CacheHierarchy(machine)
    reference = reference_hierarchy(machine)
    assert native._native is not None and reference._native is None
    addresses = np.asarray(addresses, dtype=np.int64)
    task_ids = np.asarray(task_ids, dtype=np.int64)
    task_thread = np.asarray(task_thread, dtype=np.int32)
    pairs = []
    bounds = [0, *sorted(cuts), len(addresses)]
    for start, stop in zip(bounds, bounds[1:]):
        piece = MemoryTrace(
            task_ids=task_ids[start:stop],
            addresses=addresses[start:stop],
            is_write=np.zeros(stop - start, dtype=bool),
        )
        pairs.append(
            (native.replay(piece, task_thread), reference.replay(piece, task_thread))
        )
    return pairs


@st.composite
def _replays(draw):
    machine = draw(st.sampled_from(GEOMETRIES))
    tasks = draw(st.integers(1, 8))
    # Thread ids up to three times the core count: they wrap.
    task_thread = draw(
        st.lists(
            st.integers(0, 3 * machine.physical_cores - 1),
            min_size=tasks,
            max_size=tasks,
        )
    )
    accesses = draw(
        st.lists(
            st.tuples(
                st.integers(0, LINES * machine.line_bytes - 1),
                st.integers(0, tasks - 1),
            ),
            max_size=250,
        )
    )
    cuts = draw(st.lists(st.integers(0, len(accesses)), max_size=3))
    return machine, accesses, task_thread, cuts


@needs_sim_library
class TestNativeReplayMatchesReference:
    @given(case=_replays())
    @settings(
        max_examples=300,
        deadline=None,
        derandomize=True,
        # The UBSan subclass below runs it a second time; derandomized,
        # so there is no example database for the two to confuse.
        suppress_health_check=[HealthCheck.differing_executors],
    )
    def test_hypothesis_traces(self, case):
        """All nine fields equal per call, on hypothesis traces x
        geometries cut into 1-4 calls.  Kills: no LRU refresh on a hit;
        evict the MRU way instead of the LRU; ``socket = core %
        sockets``; the LLC indexed by core instead of socket; home
        socket from the byte address instead of the line;
        line size fixed at 64; thread ids clamped instead of wrapped;
        state cleared between calls."""
        machine, accesses, task_thread, cuts = case
        for got, want in _replay_both(
            machine,
            [address for address, _ in accesses],
            [task for _, task in accesses],
            task_thread,
            cuts,
        ):
            assert got == want

    @pytest.mark.parametrize("split", [False, True])
    @pytest.mark.parametrize("machine", GEOMETRIES)
    def test_long_random_traces(self, machine, split):
        """4 000 accesses per geometry, in one call or (``split``) in
        four: long enough that every set of every level has been full
        for most of the trace.  Kills every mutant of
        ``test_hypothesis_traces`` (state cleared between calls: only
        when split)."""
        rng = np.random.default_rng(11)
        tasks = 40
        pairs = _replay_both(
            machine,
            # Half the accesses walk forward a line at a time, half jump.
            np.where(
                rng.random(4000) < 0.5,
                np.arange(4000) % LINES,
                rng.integers(0, LINES, size=4000),
            ) * machine.line_bytes + rng.integers(0, machine.line_bytes, size=4000),
            rng.integers(0, tasks, size=4000),
            rng.integers(0, 3 * machine.physical_cores, size=tasks),
            cuts=(1000, 2000, 3000) if split else (),
        )
        for got, want in pairs:
            assert got == want
        total = CacheStats()
        for got, _ in pairs:
            total = total.merge(got)
        assert total.l1_hits and total.l2_hits and total.llc_hits and total.llc_misses
        if machine.sockets > 1:
            assert total.local_memory_accesses and total.remote_memory_accesses

    @pytest.mark.parametrize("with_tasks", [False, True])
    def test_empty_trace(self, with_tasks):
        """No accesses, with or without tasks: zero stats from both.
        Kills: the range check's ``len()`` guard dropped (``min()`` of
        an empty column raises)."""
        machine = GEOMETRIES[2]
        task_thread = [0, 3] if with_tasks else []
        (got, want), = _replay_both(machine, [], [], task_thread, cuts=())
        assert got == want == CacheStats()

    def test_counters_equal_on_both_paths(self):
        """The ``sim_cache_*`` families read the same after the same
        replays on either engine.  Kills: state cleared between
        calls."""
        machine = GEOMETRIES[3]
        traces = [
            make_trace(np.random.default_rng(seed).integers(0, LINES, size=400) * 64)
            for seed in range(3)
        ]
        snapshots = []
        for build in (CacheHierarchy, reference_hierarchy):
            METRICS.reset()
            METRICS.enable()
            try:
                hierarchy = build(machine)
                for trace in traces:
                    hierarchy.replay(trace, np.zeros(1, dtype=np.int32))
                snapshots.append(METRICS.snapshot())
            finally:
                METRICS.disable()
                METRICS.reset()
        native, python = snapshots
        assert native == python
        assert sorted(native) == [
            "sim_cache_accesses_total",
            "sim_cache_hits_total",
            "sim_cache_misses_total",
            "sim_cache_replays_total",
        ]
        assert list(native["sim_cache_replays_total"].values()) == [3.0]


class TestReplayInputValidation:
    """Inputs the native loop cannot survive are rejected on both engines
    before any cache state changes (the negative ones used to replay
    silently: Python's ``%`` and numpy's indexing wrap them around)."""

    MACHINE = GEOMETRIES[0]  # one-set L1

    def _assert_rejected_and_untouched(self, make_hierarchy, column, trace, task_thread):
        hierarchy = make_hierarchy(self.MACHINE)
        with pytest.raises(SimulationError, match=column):
            hierarchy.replay(trace, task_thread)
        # The trace's first access was valid: had it been replayed, this
        # would hit.
        probe = hierarchy.replay(make_trace([128]), np.zeros(1, dtype=np.int32))
        assert probe.l1_misses == probe.llc_misses == 1

    def test_negative_address(self, make_hierarchy):
        """Kills: the address check dropped -- in a one-set cache address
        -64 is tag -1, which the native state reads as a hit on an empty
        way (the reference: a miss)."""
        self._assert_rejected_and_untouched(
            make_hierarchy, "addresses", make_trace([128, -64]),
            np.zeros(1, dtype=np.int32),
        )

    def test_address_whose_next_line_overflows(self, make_hierarchy):
        trace = make_trace([128, np.iinfo(np.int64).max])
        self._assert_rejected_and_untouched(
            make_hierarchy, "addresses", trace, np.zeros(1, dtype=np.int32)
        )

    @pytest.mark.parametrize("task", [-1, 2])
    def test_task_id_outside_task_thread(self, make_hierarchy, task):
        """Task id -1 used to wrap to the last task's thread."""
        trace = MemoryTrace(
            task_ids=np.array([0, task], dtype=np.int64),
            addresses=np.array([128, 128], dtype=np.int64),
            is_write=np.zeros(2, dtype=bool),
        )
        self._assert_rejected_and_untouched(
            make_hierarchy, "task_ids", trace, np.zeros(2, dtype=np.int32)
        )

    def test_negative_thread_id(self, make_hierarchy):
        """Thread -3 used to land on core ``-3 % cores``."""
        self._assert_rejected_and_untouched(
            make_hierarchy, "task_thread", make_trace([128, 128]),
            np.array([-3], dtype=np.int32),
        )


# ----------------------------------------------------------------------
# The sim library under UndefinedBehaviorSanitizer
# ----------------------------------------------------------------------

_UBSAN_PROBE = """
import sys
import numpy as np
from repro.sim import cbuild, ckernel
cbuild.CFLAGS = cbuild.CFLAGS + tuple(sys.argv[1:])
one = np.zeros(1, dtype=np.int64)
levels = [np.full(1, -1, dtype=np.int64) for _ in range(3)]
geometry = [arg for tags in levels for arg in (tags.ctypes.data, 1, 1)]
counters = np.zeros(8, dtype=np.int64)
# lines_per_page = 0: the home-socket division is undefined.
ckernel.get_cache_replay()(
    1, one.ctypes.data, one.ctypes.data, one.ctypes.data,
    64, 0, 1, 1, *geometry, counters.ctypes.data,
)
"""


@pytest.mark.usefixtures("ubsan_libraries")
class TestSimLibraryUnderUBSan(TestNativeReplayMatchesReference):
    """The replay verifier above (inherited) and the event-loop
    differential suite, run through the sanitized build."""

    def test_the_sanitizer_is_live(self, ubsan_libraries):
        """The build under test does trap: a raw call the Python side
        would have refused (a page of zero lines) is reported by the
        UBSan runtime in a child process."""
        assert list(ubsan_libraries.glob("saga_native_*.so"))
        child = ubsan_probe(_UBSAN_PROBE)
        assert child.returncode != 0
        assert "runtime error: division by zero" in child.stderr

    def test_event_loop_differential_suite(self):
        suite = unittest.defaultTestLoader.loadTestsFromTestCase(
            test_sim_ckernel.CompiledKernelDifferentialTest
        )
        result = unittest.TestResult()
        suite.run(result)
        assert result.testsRun >= 4 and not result.skipped
        assert result.wasSuccessful(), result.errors + result.failures

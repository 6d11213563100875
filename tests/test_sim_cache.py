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
from repro.sim.machine import MachineConfig, SCALED_SKYLAKE_GOLD_6142, SKYLAKE_GOLD_6142
from repro.sim.trace import MemoryTrace, TraceRecorder
from tests import test_sim_ckernel
from tests.conftest import asan_probe, ubsan_probe


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


class TestCacheStats:
    def test_ratios(self):
        stats = CacheStats(l2_hits=3, l2_misses=1, llc_hits=1, llc_misses=0)
        assert stats.l2_hit_ratio == pytest.approx(0.75)
        assert stats.llc_hit_ratio == pytest.approx(1.0)

    def test_empty_ratios_are_zero(self):
        stats = CacheStats()
        assert stats.l2_hit_ratio == 0.0
        assert stats.llc_hit_ratio == 0.0


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


#: One set; one way; 1-8 sets (``MachineConfig`` takes power-of-two set
#: counts only); 11 and 16 ways; 1 and 2 sockets; 1-4 cores per socket,
#: 3 of them not a power of two; pages of 1, 4 and 64 lines.
GEOMETRIES = (
    _geometry(1, 1, l1=(1, 1), l2=(1, 2), llc=(4, 2), page_lines=1),
    _geometry(2, 1, l1=(1, 1), l2=(2, 1), llc=(8, 1), page_lines=1),
    _geometry(2, 2, l1=(2, 1), l2=(2, 2), llc=(1, 11), page_lines=4),
    _geometry(2, 3, l1=(1, 2), l2=(4, 4), llc=(8, 4), page_lines=64),
    _geometry(1, 4, l1=(2, 2), l2=(1, 16), llc=(4, 11), line=16, page_lines=4),
    _geometry(2, 4, l1=(1, 2), l2=(4, 2), llc=(2, 16), line=32, page_lines=1),
)

#: The machines the figures run on: 8/16/11 ways (the 11-way LLC pads
#: its sets to 12 lanes) with 64/1 024/32 768 sets, and 8/16/16 ways
#: with 4/64/2 048 sets.
SHIPPED = (SKYLAKE_GOLD_6142, SCALED_SKYLAKE_GOLD_6142)


def set_counts(machine):
    """Set counts of L1, L2 and the LLC."""
    return [
        size // (ways * machine.line_bytes)
        for size, ways in (
            (machine.l1d_bytes, machine.l1_ways),
            (machine.l2_bytes, machine.l2_ways),
            (machine.llc_bytes_per_socket, machine.llc_ways),
        )
    ]


def _address_stop(machine):
    """The first address whose tag at some level does not fit int32."""
    return 2**31 * machine.line_bytes * min(set_counts(machine))


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
        def total(field):
            return sum(getattr(got, field) for got, _ in pairs)

        assert total("l1_hits") and total("l2_hits") and total("llc_hits") and total("llc_misses")
        if machine.sockets > 1:
            assert total("local_memory_accesses") and total("remote_memory_accesses")

    @pytest.mark.parametrize("split", [False, True])
    @pytest.mark.parametrize("machine", SHIPPED, ids=["full", "scaled"])
    def test_shipped_machines(self, machine, split):
        """6 000 accesses from 8 tasks on wrapping threads, over 4 x 48
        lines that share one set at every level: every level hits, fills
        and evicts, in 8-, 11- and 16-way sets of up to 32 768 sets.
        Kills every mutant of ``test_hypothesis_traces`` and a probe
        that reads the padding lanes of the 11-way LLC as ways."""
        rng = np.random.default_rng(3)
        top = max(set_counts(machine))
        lines = (rng.integers(0, top, size=4)[:, None] + top * np.arange(48)).ravel()
        walk = np.cumsum(rng.integers(-2, 3, size=6000)) % len(lines)
        picks = np.where(
            rng.random(6000) < 0.5, walk, rng.integers(0, len(lines), size=6000)
        )
        pairs = _replay_both(
            machine,
            lines[picks] * machine.line_bytes
            + rng.integers(0, machine.line_bytes, size=6000),
            (np.arange(6000) // 50) % 8,
            rng.integers(0, 3 * machine.physical_cores, size=8),
            cuts=(1500, 3000, 4500) if split else (),
        )
        for got, want in pairs:
            assert got == want
        for field in (
            "l1_hits", "l2_hits", "llc_hits", "llc_misses",
            "local_memory_accesses", "remote_memory_accesses",
        ):
            assert sum(getattr(got, field) for got, _ in pairs), field

    @pytest.mark.parametrize("machine", GEOMETRIES + SHIPPED)
    def test_largest_addresses_with_int32_tags(self, machine):
        """Lines up to the last byte below ``_address_stop``, all in the
        last set of every level: their tags at the level with the fewest
        sets are ``2**31 - 1`` and below, and replay alike on both
        engines.  Kills: tags narrowed to int16; ``_address_stop`` one
        bit too large (the top tag wraps negative, to an empty way)."""
        step = machine.line_bytes * max(set_counts(machine))
        top = _address_stop(machine) - 1
        offsets = [0, 0, 1, 0, 2, 3, 0, 1, 40, 0, 2]
        pairs = _replay_both(
            machine, [top - step * k for k in offsets] + [0], [0] * 12, [0], cuts=()
        )
        (got, want), = pairs
        assert got == want
        assert got.l1_hits or got.l2_hits

    @pytest.mark.parametrize("machine", GEOMETRIES + SHIPPED)
    def test_last_set_of_every_level(self, machine):
        """400 accesses from the last core of the last socket, over 20
        lines that all land in the last set of every level.  Under
        AddressSanitizer (``TestSimLibraryUnderUBSan``) a 16-byte load or
        store past the end of a tags array is reported."""
        rng = np.random.default_rng(7)
        top = max(set_counts(machine))
        lines = top - 1 + top * np.arange(20)
        pairs = _replay_both(
            machine,
            rng.choice(lines, size=400) * machine.line_bytes,
            np.zeros(400, dtype=np.int64),
            [machine.physical_cores - 1],
            cuts=(200,),
        )
        for got, want in pairs:
            assert got == want
        assert sum(got.l1_hits for got, _ in pairs)

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

    def _assert_rejected_and_untouched(
        self, make_hierarchy, column, trace, task_thread, machine=MACHINE
    ):
        hierarchy = make_hierarchy(machine)
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

    @pytest.mark.parametrize("machine", [MACHINE, *SHIPPED])
    def test_address_whose_tag_needs_more_than_int32(self, make_hierarchy, machine):
        """The first line past the largest int32 tag is refused, on both
        engines; ``test_largest_addresses_with_int32_tags`` replays the
        line before it."""
        self._assert_rejected_and_untouched(
            make_hierarchy, "addresses", make_trace([128, _address_stop(machine)]),
            np.zeros(1, dtype=np.int32), machine,
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
core = np.zeros(1, dtype=np.int32)
# One set of one way per level, padded to four lanes.
levels = [np.full(4, -1, dtype=np.int32) for _ in range(3)]
geometry = [arg for tags in levels for arg in (tags.ctypes.data, 0, 1)]
counters = np.zeros(8, dtype=np.int64)
# sockets = 0: the home-socket division of the LLC miss is undefined.
ckernel.get_cache_replay()(
    1, one.ctypes.data, one.ctypes.data, core.ctypes.data, core.ctypes.data,
    6, 6, 0, *geometry, counters.ctypes.data,
)
"""


_ASAN_CHILD = """
import os, sys
import numpy as np
import pytest
from repro.sim import cbuild, ckernel
os.environ.pop("LD_PRELOAD")  # this process has it; cc need not
cbuild.CFLAGS = cbuild.CFLAGS + tuple(sys.argv[1:])
import tests.test_sim_cache  # loads the library: after the flags
print("last sets exit", pytest.main([
    "-q", "-p", "no:cacheprovider", "-rs",
    tests.test_sim_cache.__file__
    + "::TestNativeReplayMatchesReference::test_last_set_of_every_level",
]), flush=True)
# An L1 of two sets in the room of one: line 1 probes the missing set.
address = np.full(1, 64, dtype=np.int64)
task = np.zeros(1, dtype=np.int64)
core = np.zeros(1, dtype=np.int32)
l1, l2, llc = (np.full(4, -1, dtype=np.int32) for _ in range(3))
counters = np.zeros(8, dtype=np.int64)
ckernel.get_cache_replay()(
    1, address.ctypes.data, task.ctypes.data, core.ctypes.data, core.ctypes.data,
    6, 6, 1, l1.ctypes.data, 1, 1, l2.ctypes.data, 0, 1, llc.ctypes.data, 0, 1,
    counters.ctypes.data,
)
"""


@pytest.mark.usefixtures("ubsan_libraries")
class TestSimLibraryUnderUBSan(TestNativeReplayMatchesReference):
    """The replay verifier above (inherited) and the event-loop
    differential suite, run through the sanitized build."""

    def test_the_sanitizer_is_live(self, ubsan_libraries):
        """The build under test does trap: a raw call the Python side
        would have refused (a machine of zero sockets) is reported by
        the UBSan runtime in a child process."""
        assert list(ubsan_libraries.glob("saga_native_*.so"))
        child = ubsan_probe(_UBSAN_PROBE)
        assert child.returncode != 0
        assert "runtime error: division by zero" in child.stderr

    def test_last_sets_under_address_sanitizer(self, tmp_path):
        """ASan sees what UBSan cannot: a set probe that loads or stores
        a lane past the end of a level's tags.  The last set of every
        level on every geometry gives it nothing; a tags array one set
        short, right after them in the same child, is reported."""
        child = asan_probe(_ASAN_CHILD, tmp_path)
        assert "last sets exit 0" in child.stdout, child.stdout + child.stderr
        assert "SKIPPED" not in child.stdout
        assert child.returncode != 0
        assert "heap-buffer-overflow" in child.stderr

    def test_event_loop_differential_suite(self):
        suite = unittest.defaultTestLoader.loadTestsFromTestCase(
            test_sim_ckernel.CompiledKernelDifferentialTest
        )
        result = unittest.TestResult()
        suite.run(result)
        assert result.testsRun >= 4 and not result.skipped
        assert result.wasSuccessful(), result.errors + result.failures

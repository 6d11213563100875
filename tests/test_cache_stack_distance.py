"""The cache replay against an independent LRU stack-distance replay.

:func:`repro.verify.cache_replay_counts` shares nothing with either
replay engine of :class:`~repro.sim.cache.CacheHierarchy`: no LRU
state, no set arrays, only per-set stack distances counted with numpy.
Here it recomputes every ``CacheStats`` field of every replay call of
whole Fig 9/10 cells -- every phase of every batch, on one persistent
hierarchy -- and each engine must agree call by call.  The native test
kills, in ``saga_cache_replay``: no LRU promotion on a hit, a wrong L2
set split (the tag as ``line >> (log2 + 1)``, or the set as ``(line >>
1) & mask``), and an L2 miss not forwarded to the LLC (each was seeded
into ``ckernel._SOURCE``, run and seen to fail).
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest

from repro import verify
from repro.analysis.hardware_profile import HardwareProfiler
from repro.sim import ckernel
from repro.sim.cache import CacheHierarchy
from repro.sim.machine import SCALED_SKYLAKE_GOLD_6142
from tests.conftest import SMALL_MACHINE
from tests.test_sim_cache import set_counts

#: name -> (machine, profiler settings, (dataset, structure, size_factor)):
#: the two pinned cells of ``tests/test_hardware_profile_units.py``, and
#: ``hwprofile-talk`` of the benchmark at a tenth of its stream and batch.
CELLS = {
    "Talk-DAH": (
        SMALL_MACHINE,
        dict(core_counts=(2, 4), batch_size=1250),
        ("Talk", "DAH", 0.125),
    ),
    "Orkut-AS": (
        SMALL_MACHINE,
        dict(core_counts=(2, 4), batch_size=1250),
        ("Orkut", "AS", 0.03),
    ),
    "Talk-DAH-scaled-tenth": (
        SCALED_SKYLAKE_GOLD_6142,
        dict(core_counts=(4, 8, 16), batch_size=125),
        ("Talk", "DAH", 0.0125),
    ),
}


def replay_calls(name):
    """Profile one cell; every ``replay`` call's inputs and statistics,
    in call order: ``[((addresses, task_ids, task_thread), stats)]``."""
    machine, settings, cell = CELLS[name]
    profiler = HardwareProfiler(
        machine=machine,
        algorithms=("BFS", "CC", "PR"),
        trace_cap=20_000,
        **settings,
    )
    calls = []
    replay = CacheHierarchy.replay

    def recorded(hierarchy, trace, task_thread):
        # Copies: the plane reuses its trace columns from call to call.
        inputs = (
            trace.addresses.copy(), trace.task_ids.copy(), np.array(task_thread)
        )
        stats = replay(hierarchy, trace, task_thread)
        calls.append((inputs, stats))
        return stats

    with mock.patch.object(CacheHierarchy, "replay", recorded):
        profiler.profile_cell(*cell)
    return machine, calls


def stack_distance_counts(machine, inputs):
    """:func:`verify.cache_replay_counts` over ``machine``'s geometry."""
    return verify.cache_replay_counts(
        inputs,
        line_bytes=machine.line_bytes,
        page_bytes=machine.page_bytes,
        sockets=machine.sockets,
        cores_per_socket=machine.cores_per_socket,
        levels=list(
            zip(set_counts(machine), (machine.l1_ways, machine.l2_ways, machine.llc_ways))
        ),
    )


def assert_matches_stack_distances(name):
    machine, calls = replay_calls(name)
    want = stack_distance_counts(machine, [inputs for inputs, _ in calls])
    # Every phase of every batch replays, and the cell reaches memory.
    assert len(calls) >= 8 and sum(counts[6] for counts in want)
    for index, ((_, stats), counts) in enumerate(zip(calls, want)):
        assert dataclasses.astuple(stats) == counts, index


@pytest.mark.skipif(
    ckernel.get_kernel() is None, reason="no C compiler: sim library unavailable"
)
class TestNativeReplayMatchesStackDistances:
    @pytest.mark.parametrize("name", sorted(CELLS))
    def test_cell(self, name):
        assert_matches_stack_distances(name)


@pytest.mark.usefixtures("ubsan_libraries")
class TestStackDistancesUnderUBSan(TestNativeReplayMatchesStackDistances):
    """The same cells through the sanitized build of the library."""


@pytest.mark.parametrize("name", sorted(CELLS))
def test_reference_replay_matches_stack_distances(name):
    """The ``SetAssociativeCache`` loop, on the same cells."""
    with mock.patch.object(ckernel, "get_cache_replay", return_value=None):
        assert_matches_stack_distances(name)


class TestStackDistances:
    def test_hand_worked_distances(self):
        """a b c b a in one group: the second b saw c (1), the second a
        saw b and c (2); first touches have none (-1)."""
        got = verify.stack_distances([0] * 5, [1, 2, 3, 2, 1])
        assert got.tolist() == [-1, -1, -1, 1, 2]

    def test_groups_do_not_see_each_other(self):
        """The same line number in two groups is two lines, and an
        access of the other group between two reuses does not count."""
        got = verify.stack_distances([0, 1, 0, 1, 0], [5, 5, 6, 7, 5])
        assert got.tolist() == [-1, -1, -1, -1, 1]

    def test_repeats_count_once(self):
        """x y y y x: one distinct line in between, however often."""
        got = verify.stack_distances([3] * 5, [9, 4, 4, 4, 9])
        assert got.tolist() == [-1, -1, 0, 0, 1]

    def test_matches_an_lru_list_on_random_streams(self):
        """Against the textbook stack: the distance is the line's depth
        in a move-to-front list of its group."""
        rng = np.random.default_rng(5)
        groups = rng.integers(0, 3, size=2000)
        lines = rng.integers(0, 40, size=2000)
        stacks = {}
        want = []
        for group, line in zip(groups.tolist(), lines.tolist()):
            stack = stacks.setdefault(group, [])
            want.append(stack.index(line) if line in stack else -1)
            if line in stack:
                stack.remove(line)
            stack.insert(0, line)
        assert verify.stack_distances(groups, lines).tolist() == want

    def test_empty_replay(self):
        counts = verify.cache_replay_counts(
            [(np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0, np.int32))],
            line_bytes=64, page_bytes=4096, sockets=2, cores_per_socket=1,
            levels=[(1, 1)] * 3,
        )
        assert counts == [(0,) * 9]

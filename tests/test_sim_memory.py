"""Unit tests for the synthetic address space."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.sim.machine import CACHE_LINE_BYTES
from repro.sim.memory import AddressSpace, Region


class TestAllocation:
    def test_alloc_returns_region(self):
        space = AddressSpace()
        region = space.alloc(100, "x")
        assert region.size == 100
        assert region.label == "x"
        assert region.end == region.base + 100

    def test_alloc_line_aligned(self):
        space = AddressSpace()
        for size in (1, 63, 64, 65, 100):
            region = space.alloc(size)
            assert region.base % CACHE_LINE_BYTES == 0

    def test_allocations_never_overlap(self):
        space = AddressSpace()
        regions = [space.alloc(s) for s in (10, 64, 128, 1, 4096)]
        for i, a in enumerate(regions):
            for b in regions[i + 1:]:
                assert a.end <= b.base or b.end <= a.base

    def test_rejects_nonpositive_size(self):
        space = AddressSpace()
        with pytest.raises(SimulationError):
            space.alloc(0)
        with pytest.raises(SimulationError):
            space.alloc(-5)

    def test_live_byte_accounting(self):
        space = AddressSpace()
        a = space.alloc(100, "a")
        b = space.alloc(50, "b")
        assert space.live_bytes == 150
        space.free(a)
        assert space.live_bytes == 50
        assert space.allocated_bytes == 150
        assert space.live_bytes_for("a") == 0
        assert space.live_bytes_for("b") == 50
        space.free(b)

    def test_double_free_detected(self):
        space = AddressSpace()
        region = space.alloc(10)
        space.free(region)
        with pytest.raises(SimulationError):
            space.free(region)
            space.free(region)


class TestRegionElement:
    def test_element_addresses(self):
        space = AddressSpace()
        region = space.alloc(80, "vec")
        assert region.element(0, 8) == region.base
        assert region.element(9, 8) == region.base + 72

    def test_element_overrun_raises(self):
        space = AddressSpace()
        region = space.alloc(80, "vec")
        with pytest.raises(SimulationError):
            region.element(10, 8)


@given(sizes=st.lists(st.integers(min_value=1, max_value=10_000), min_size=1, max_size=50))
def test_property_disjoint_and_accounted(sizes):
    """Any allocation sequence yields disjoint, fully accounted regions."""
    space = AddressSpace()
    regions = [space.alloc(size) for size in sizes]
    assert space.live_bytes == sum(sizes)
    sorted_regions = sorted(regions, key=lambda r: r.base)
    for first, second in zip(sorted_regions, sorted_regions[1:]):
        assert first.end <= second.base


# ----------------------------------------------------------------------
# Bulk allocation log vs the alloc/free loop it replaces
# ----------------------------------------------------------------------

LABELS = ("out.vec", "in.vec")


def _used_space() -> AddressSpace:
    """A space with history, so the log starts from non-zero counters."""
    space = AddressSpace()
    space.alloc(100, "headers")
    space.free(space.alloc(40, LABELS[0]))
    return space


def _counters(space: AddressSpace):
    return (
        space._next,
        space.region_count,
        space.allocated_bytes,
        space.live_bytes,
        tuple(space.live_bytes_for(label) for label in LABELS + ("headers",)),
    )


def _replay_one_by_one(space: AddressSpace, log):
    """The reference: one ``alloc`` (none for a free-only event of size
    0) and maybe one ``free`` per event; the bases allocated."""
    bases = []
    for size, label, freed in log:
        if size:
            bases.append(space.alloc(size, LABELS[label]).base)
        if freed:
            space.free(Region(0, freed, LABELS[label]))
    return bases


def _replay_as_arrays(space: AddressSpace, log):
    size, label, freed = np.asarray(log, dtype=np.int64).reshape(len(log), 3).T
    return space.alloc_log(size, freed, label, LABELS)


_label = st.integers(min_value=0, max_value=1)


@given(
    log=st.lists(
        st.one_of(
            st.tuples(
                st.integers(min_value=1, max_value=5000),
                _label,
                st.one_of(st.just(0), st.integers(min_value=0, max_value=6000)),
            ),
            # A free-only event (a released Stinger block).
            st.tuples(st.just(0), _label, st.integers(min_value=1, max_value=3000)),
        ),
        max_size=60,
    )
)
def test_alloc_log_matches_alloc_free_loop(log):
    """Same bases and counters; a log the loop rejects is rejected whole."""
    loop_space, bulk_space = _used_space(), _used_space()
    before = _counters(bulk_space)
    try:
        expected = _replay_one_by_one(loop_space, log)
    except SimulationError:
        with pytest.raises(SimulationError, match="double free"):
            _replay_as_arrays(bulk_space, log)
        assert _counters(bulk_space) == before
        return
    bases = _replay_as_arrays(bulk_space, log)
    assert bases.dtype == np.int64
    assert [base for base, (size, _, _) in zip(bases.tolist(), log) if size] == expected
    assert _counters(bulk_space) == _counters(loop_space)


class TestAllocLogEdges:
    def test_empty_log_changes_nothing(self):
        space = _used_space()
        before = _counters(space)
        assert len(_replay_as_arrays(space, [])) == 0
        assert _counters(space) == before

    @pytest.mark.parametrize("size", [0, -8])
    def test_nonpositive_size_rejected_whole(self, size):
        space = _used_space()
        before = _counters(space)
        with pytest.raises(SimulationError, match=f"must be positive, got {size}"):
            _replay_as_arrays(space, [(64, 0, 0), (size, 1, 0), (64, 0, 0)])
        assert _counters(space) == before

    def test_free_only_event_frees_without_allocating(self):
        space = _used_space()
        region_count, next_base = space.region_count, space._next
        _replay_as_arrays(space, [(64, 0, 0), (0, 0, 64)])
        assert (space.region_count, space.live_bytes_for(LABELS[0])) == (region_count + 1, 0)
        assert space._next == next_base + 64

    def test_double_free_in_the_middle_of_the_log(self):
        """Live bytes dip below zero mid-log and recover by the end."""
        log = [(8, 0, 500), (4096, 1, 0)]
        with pytest.raises(SimulationError, match="double free"):
            _replay_one_by_one(_used_space(), log)
        with pytest.raises(SimulationError, match="double free"):
            _replay_as_arrays(_used_space(), log)

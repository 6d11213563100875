"""Unit tests for vertex property arrays."""

import numpy as np
import pytest

from repro.errors import StructureError
from repro.graph.properties import VALUE_BYTES, VertexProperties
from repro.sim.memory import AddressSpace


class TestVertexProperties:
    def test_add_and_get(self):
        space = AddressSpace()
        props = VertexProperties(10, space)
        before = space.live_bytes
        assert props.add("rank") is None
        assert props.region("rank").size == 10 * VALUE_BYTES
        # The simulated region is all that is allocated.
        assert space.live_bytes - before == 10 * VALUE_BYTES

    def test_addresses_are_contiguous(self):
        props = VertexProperties(8, AddressSpace())
        props.add("depth")
        base, fifth = props.region("depth").elements(np.array([0, 5]), VALUE_BYTES)
        assert fifth == base + 5 * VALUE_BYTES

    def test_re_add_keeps_region(self):
        space = AddressSpace()
        props = VertexProperties(4, space)
        props.add("x")
        region, allocated = props.region("x"), space.live_bytes
        props.add("x")
        assert props.region("x") is region
        assert space.live_bytes == allocated

    def test_distinct_properties_distinct_regions(self):
        props = VertexProperties(4, AddressSpace())
        props.add("a")
        props.add("b")
        assert props.region("a").base != props.region("b").base

    def test_rejects_bad_size(self):
        with pytest.raises(StructureError):
            VertexProperties(0, AddressSpace())

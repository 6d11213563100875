"""Unit tests for vertex property arrays."""

import numpy as np
import pytest

from repro.errors import StructureError
from repro.graph.properties import VALUE_BYTES, VertexProperties
from repro.sim.memory import AddressSpace


class TestVertexProperties:
    def test_add_and_get(self):
        props = VertexProperties(10, AddressSpace())
        ranks = props.add("rank", initial=0.5)
        assert ranks.shape == (10,) and ranks[3] == 0.5
        assert props.region("rank").size == 10 * VALUE_BYTES

    def test_addresses_are_contiguous(self):
        props = VertexProperties(8, AddressSpace())
        props.add("depth")
        base, fifth = props.region("depth").elements(np.array([0, 5]), VALUE_BYTES)
        assert fifth == base + 5 * VALUE_BYTES

    def test_re_add_resets_but_keeps_region(self):
        props = VertexProperties(4, AddressSpace())
        props.add("x", initial=1.0)
        region = props.region("x")
        array = props.add("x", initial=2.0)
        assert array[0] == 2.0
        assert props.region("x") is region

    def test_distinct_properties_distinct_regions(self):
        props = VertexProperties(4, AddressSpace())
        props.add("a")
        props.add("b")
        assert props.region("a").base != props.region("b").base

    def test_rejects_bad_size(self):
        with pytest.raises(StructureError):
            VertexProperties(0, AddressSpace())

"""Unit and property tests for the oracle's Robin Hood and open-address tables."""

import pytest
from hypothesis import given, settings, strategies as st

from tests.oracle_hashtables import (
    MAX_LOAD_FACTOR,
    OpenAddressTable,
    RobinHoodTable,
)


@pytest.mark.parametrize("table_cls", [RobinHoodTable, OpenAddressTable])
class TestCommonBehavior:
    def test_get_missing(self, table_cls):
        table = table_cls()
        value, outcome = table.get(42)
        assert value is None
        assert not outcome.found
        assert outcome.probes >= 1

    def test_put_then_get(self, table_cls):
        table = table_cls()
        table.put(7, "seven")
        value, outcome = table.get(7)
        assert value == "seven"
        assert outcome.found

    def test_put_replaces(self, table_cls):
        table = table_cls()
        table.put(7, "a")
        outcome = table.put(7, "b")
        assert outcome.found  # key existed
        assert table.get(7)[0] == "b"
        assert len(table) == 1

    def test_zero_is_a_valid_key(self, table_cls):
        table = table_cls()
        table.put(0, "zero")
        assert table.get(0)[0] == "zero"

    def test_many_inserts_trigger_resizes(self, table_cls):
        table = table_cls(initial_capacity=4)
        for key in range(200):
            table.put(key, key * 2)
        assert len(table) == 200
        assert table.load_factor <= MAX_LOAD_FACTOR + 1e-9
        for key in range(200):
            assert table.get(key)[0] == key * 2

    def test_resize_reports_moves(self, table_cls):
        table = table_cls(initial_capacity=4)
        moves = 0
        for key in range(50):
            moves += table.put(key, key).resized_moves
        assert moves > 0

    def test_delete(self, table_cls):
        table = table_cls()
        table.put(1, "x")
        table.put(2, "y")
        outcome = table.delete(1)
        assert outcome.found
        assert table.get(1)[0] is None
        assert table.get(2)[0] == "y"
        assert len(table) == 1

    def test_delete_missing(self, table_cls):
        table = table_cls()
        assert not table.delete(9).found

    def test_items(self, table_cls):
        table = table_cls()
        for key in (3, 1, 4, 1, 5):
            table.put(key, key)
        assert dict(table.items()) == {3: 3, 1: 1, 4: 4, 5: 5}

    def test_probe_paths_are_slot_indices(self, table_cls):
        table = table_cls(initial_capacity=8)
        outcome = table.put(123, "v")
        assert all(0 <= slot < table.capacity for slot in outcome.path)
        assert outcome.probes == len(outcome.path)


class TestRobinHoodSpecifics:
    def test_displacement_bounded_after_churn(self):
        table = RobinHoodTable(initial_capacity=16)
        for key in range(300):
            table.put(key, key)
        for key in range(0, 300, 3):
            table.delete(key)
        for key in range(300, 400):
            table.put(key, key)
        # Robin Hood + backward-shift keeps displacement modest.
        assert table.max_displacement() <= 16

    def test_backward_shift_preserves_lookups(self):
        table = RobinHoodTable(initial_capacity=8)
        keys = [0, 8, 16, 24]  # likely colliding after masking
        for key in keys:
            table.put(key, key)
        table.delete(8)
        for key in (0, 16, 24):
            assert table.get(key)[0] == key

    def test_invariant_cutoff_terminates_negative_search(self):
        table = RobinHoodTable(initial_capacity=8)
        for key in range(5):
            table.put(key, key)
        _, outcome = table.get(999)
        assert not outcome.found
        assert outcome.probes <= table.capacity


class TestOpenAddressSpecifics:
    def test_tombstone_reuse(self):
        table = OpenAddressTable(initial_capacity=8)
        table.put(1, "a")
        table.delete(1)
        table.put(1, "b")
        assert table.get(1)[0] == "b"
        assert len(table) == 1

    def test_items_skip_tombstones(self):
        table = OpenAddressTable()
        table.put(1, "a")
        table.put(2, "b")
        table.delete(1)
        assert dict(table.items()) == {2: "b"}


@given(
    operations=st.lists(
        st.tuples(
            st.sampled_from(["put", "get", "delete"]),
            st.integers(min_value=0, max_value=40),
        ),
        max_size=300,
    )
)
@settings(max_examples=60, deadline=None)
@pytest.mark.parametrize("table_cls", [RobinHoodTable, OpenAddressTable])
def test_property_matches_dict_model(table_cls, operations):
    """Any op sequence behaves exactly like a Python dict."""
    table = table_cls(initial_capacity=4)
    model = {}
    for op, key in operations:
        if op == "put":
            table.put(key, key * 7)
            model[key] = key * 7
        elif op == "get":
            value, outcome = table.get(key)
            assert outcome.found == (key in model)
            assert value == model.get(key)
        else:
            outcome = table.delete(key)
            assert outcome.found == (key in model)
            model.pop(key, None)
    assert dict(table.items()) == model
    assert len(table) == len(model)

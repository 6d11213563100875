"""The oracle's hash tables: Robin Hood and open addressing over lists.

The paper's DAH (Fig. 5, after Iwabuchi et al.) keeps a *low-degree
table* using Robin Hood hashing -- displacement-balanced linear probing
-- and a *high-degree table* using plain open addressing.  These are
real hash tables, implemented from scratch: probing, displacement
stealing, backward-shift deletion, and load-factor-driven resizing all
actually happen, and every operation reports the slots it probed.

``tests/oracle_stores.py`` builds the DAH oracle on them.  Nothing here
is shared with ``repro.graph.nativestore``: keys and values sit in
Python lists, so a slip in the arena arithmetic or in the C kernel
cannot hide in both.

Keys are non-negative integers (vertex ids or packed edge keys); values
are arbitrary Python objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, List, Optional, Tuple

from repro.errors import StructureError

#: Grow when occupancy exceeds this fraction of capacity.
MAX_LOAD_FACTOR = 0.7

_EMPTY = object()


#: Fibonacci hashing multiplier and 64-bit wrap mask.
_HASH_MULT = 0x9E3779B97F4A7C15
_HASH_WRAP = 0xFFFFFFFFFFFFFFFF


def _hash_key(key: int, mask: int) -> int:
    """Fibonacci-style integer hash mapped onto ``mask + 1`` slots."""
    h = (key * _HASH_MULT) & _HASH_WRAP
    return (h >> 17) & mask


@dataclass
class ProbeOutcome:
    """Result of one table operation, with its real probe path."""

    found: bool
    probes: int
    path: List[int]  # slot indices inspected, in order
    resized_moves: int = 0  # elements re-inserted by a resize


class _OpenTableBase:
    """Shared machinery of the two open-addressing variants."""

    def __init__(self, initial_capacity: int = 8) -> None:
        if initial_capacity < 1:
            raise StructureError("initial_capacity must be >= 1")
        capacity = 1
        while capacity < initial_capacity:
            capacity *= 2
        self._keys: List[Any] = [_EMPTY] * capacity
        self._values: List[Any] = [None] * capacity
        self._size = 0
        self.generation = 0  # bumped on resize (regions must be re-allocated)

    @property
    def capacity(self) -> int:
        return len(self._keys)

    def __len__(self) -> int:
        return self._size

    @property
    def load_factor(self) -> float:
        return self._size / self.capacity

    def items(self) -> Iterator[Tuple[int, Any]]:
        for key, value in zip(self._keys, self._values):
            if key is not _EMPTY:
                yield key, value

    def _mask(self) -> int:
        return self.capacity - 1

    def _snapshot(self) -> List[Tuple[int, Any]]:
        """Live (key, value) pairs as a list (rehash-time helper)."""
        return [
            (key, value)
            for key, value in zip(self._keys, self._values)
            if key is not _EMPTY
        ]

    def _maybe_grow(self) -> int:
        """Double capacity if over the load factor; returns moved count."""
        if (self._size + 1) / len(self._keys) <= MAX_LOAD_FACTOR:
            return 0
        old_items = self._snapshot()
        self._keys = [_EMPTY] * (len(self._keys) * 2)
        self._values = [None] * len(self._keys)
        self._size = 0
        self.generation += 1
        for key, value in old_items:
            self._raw_insert(key, value)
        return len(old_items)

    def _raw_insert(self, key: int, value: Any) -> None:
        raise NotImplementedError


class RobinHoodTable(_OpenTableBase):
    """Robin Hood hashing: rich entries yield slots to poor ones.

    On insertion, if the incumbent of a probed slot is closer to its
    home slot than the incoming key is to its own, the incoming key
    steals the slot and the incumbent continues probing -- bounding the
    variance of probe distances.  Deletion uses backward shifting, so
    no tombstones exist and probe paths stay short.
    """

    def get(self, key: int) -> Tuple[Any, ProbeOutcome]:
        mask = self._mask()
        slot = _hash_key(key, mask)
        path = []
        distance = 0
        while True:
            path.append(slot)
            occupant = self._keys[slot]
            if occupant is _EMPTY:
                return None, ProbeOutcome(found=False, probes=len(path), path=path)
            if occupant == key:
                return self._values[slot], ProbeOutcome(
                    found=True, probes=len(path), path=path
                )
            # Robin Hood invariant: if the occupant is closer to home
            # than we are, the key cannot be further along the chain.
            occupant_distance = (slot - _hash_key(occupant, mask)) & mask
            if occupant_distance < distance:
                return None, ProbeOutcome(found=False, probes=len(path), path=path)
            slot = (slot + 1) & mask
            distance += 1

    def put(self, key: int, value: Any) -> ProbeOutcome:
        """Insert or replace ``key``; returns the probe outcome."""
        moved = self._maybe_grow()
        outcome = self._put_no_grow(key, value)
        outcome.resized_moves = moved
        return outcome

    def _put_no_grow(self, key: int, value: Any) -> ProbeOutcome:
        mask = self._mask()
        slot = _hash_key(key, mask)
        path = []
        distance = 0
        cur_key, cur_value, cur_distance = key, value, distance
        inserted_new = True
        while True:
            path.append(slot)
            occupant = self._keys[slot]
            if occupant is _EMPTY:
                self._keys[slot] = cur_key
                self._values[slot] = cur_value
                if inserted_new:
                    self._size += 1
                break
            if occupant == cur_key:
                self._values[slot] = cur_value
                inserted_new = False
                break
            occupant_distance = (slot - _hash_key(occupant, mask)) & mask
            if occupant_distance < cur_distance:
                # Steal the slot; the displaced entry keeps probing.
                self._keys[slot], cur_key = cur_key, self._keys[slot]
                self._values[slot], cur_value = cur_value, self._values[slot]
                cur_distance = occupant_distance
            slot = (slot + 1) & mask
            cur_distance += 1
        return ProbeOutcome(found=not inserted_new, probes=len(path), path=path)

    def _raw_insert(self, key: int, value: Any) -> None:
        # Rehash-time insert: the same probe/steal sequence as
        # _put_no_grow with no outcome to report (keys are unique during
        # a rehash, so the replace branch reduces to the _EMPTY stop).
        keys = self._keys
        values = self._values
        mask = len(keys) - 1
        slot = ((key * _HASH_MULT & _HASH_WRAP) >> 17) & mask
        cur_key, cur_value, cur_distance = key, value, 0
        while True:
            occupant = keys[slot]
            if occupant is _EMPTY:
                keys[slot] = cur_key
                values[slot] = cur_value
                self._size += 1
                return
            occupant_distance = (
                slot - (((occupant * _HASH_MULT & _HASH_WRAP) >> 17) & mask)
            ) & mask
            if occupant_distance < cur_distance:
                keys[slot], cur_key = cur_key, keys[slot]
                values[slot], cur_value = cur_value, values[slot]
                cur_distance = occupant_distance
            slot = (slot + 1) & mask
            cur_distance += 1

    def delete(self, key: int) -> ProbeOutcome:
        """Remove ``key`` with backward-shift deletion."""
        _, outcome = self.get(key)
        if not outcome.found:
            return outcome
        mask = self._mask()
        slot = outcome.path[-1]
        # Shift successors back until an empty slot or a home entry.
        while True:
            next_slot = (slot + 1) & mask
            occupant = self._keys[next_slot]
            if occupant is _EMPTY or (_hash_key(occupant, mask) == next_slot):
                break
            self._keys[slot] = occupant
            self._values[slot] = self._values[next_slot]
            slot = next_slot
        self._keys[slot] = _EMPTY
        self._values[slot] = None
        self._size -= 1
        return outcome

    def max_displacement(self) -> int:
        """Largest distance of any entry from its home slot."""
        mask = self._mask()
        worst = 0
        for slot, key in enumerate(self._keys):
            if key is not _EMPTY:
                worst = max(worst, (slot - _hash_key(key, mask)) & mask)
        return worst


class OpenAddressTable(_OpenTableBase):
    """Plain linear-probing open addressing with tombstones."""

    _TOMBSTONE = object()

    def get(self, key: int) -> Tuple[Any, ProbeOutcome]:
        mask = self._mask()
        slot = _hash_key(key, mask)
        path = []
        for _ in range(self.capacity):
            path.append(slot)
            occupant = self._keys[slot]
            if occupant is _EMPTY:
                return None, ProbeOutcome(found=False, probes=len(path), path=path)
            if occupant is not self._TOMBSTONE and occupant == key:
                return self._values[slot], ProbeOutcome(
                    found=True, probes=len(path), path=path
                )
            slot = (slot + 1) & mask
        return None, ProbeOutcome(found=False, probes=len(path), path=path)

    def put(self, key: int, value: Any) -> ProbeOutcome:
        moved = self._maybe_grow()
        outcome = self._put_no_grow(key, value)
        outcome.resized_moves = moved
        return outcome

    def _put_no_grow(self, key: int, value: Any) -> ProbeOutcome:
        mask = self._mask()
        slot = _hash_key(key, mask)
        path = []
        first_tombstone = None
        for _ in range(self.capacity + 1):
            path.append(slot)
            occupant = self._keys[slot]
            if occupant is _EMPTY:
                target = first_tombstone if first_tombstone is not None else slot
                self._keys[target] = key
                self._values[target] = value
                self._size += 1
                return ProbeOutcome(found=False, probes=len(path), path=path)
            if occupant is self._TOMBSTONE:
                if first_tombstone is None:
                    first_tombstone = slot
            elif occupant == key:
                self._values[slot] = value
                return ProbeOutcome(found=True, probes=len(path), path=path)
            slot = (slot + 1) & mask
        raise StructureError("open-address table overflow (load factor violated)")

    def _raw_insert(self, key: int, value: Any) -> None:
        # Rehash-time insert: a fresh table has no tombstones and keys
        # are unique, so linear probing stops at the first empty slot.
        keys = self._keys
        mask = len(keys) - 1
        slot = ((key * _HASH_MULT & _HASH_WRAP) >> 17) & mask
        while keys[slot] is not _EMPTY:
            slot = (slot + 1) & mask
        keys[slot] = key
        self._values[slot] = value
        self._size += 1

    def delete(self, key: int) -> ProbeOutcome:
        """Remove ``key``, leaving a tombstone."""
        _, outcome = self.get(key)
        if outcome.found:
            slot = outcome.path[-1]
            self._keys[slot] = self._TOMBSTONE
            self._values[slot] = None
            self._size -= 1
        return outcome

    def items(self) -> Iterator[Tuple[int, Any]]:
        for key, value in zip(self._keys, self._values):
            if key is not _EMPTY and key is not self._TOMBSTONE:
                yield key, value

    def _snapshot(self) -> List[Tuple[int, Any]]:
        tombstone = self._TOMBSTONE
        return [
            (key, value)
            for key, value in zip(self._keys, self._values)
            if key is not _EMPTY and key is not tombstone
        ]

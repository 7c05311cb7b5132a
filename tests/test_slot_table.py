"""Tests for TDMA slot arithmetic and the pipelined slot search."""

import pytest
from hypothesis import given, strategies as st

from repro import ConfigurationError, NoCParameters, ResourceError
from repro.noc.resources import ResourceState
from repro.noc.slot_table import (
    pipelined_free_mask,
    pipelined_link_slots,
    slots_needed,
    slots_needed_cached,
)


class ReferenceSlotTable:
    """List-based reference model of one link's slot table (the seed semantics).

    Used by the property tests below to check that the bitmask search of
    :meth:`ResourceState.can_reserve` is behaviourally identical to a
    straightforward owner-list scan.
    """

    def __init__(self, size):
        self.size = size
        self.owner = [None] * size

    def reserve(self, flow_id, slots):
        for slot in slots:
            assert self.owner[slot] is None
            self.owner[slot] = flow_id

    def find_pipelined(self, tables, needed):
        """Brute-force pipelined search over reference tables."""
        size = tables[0].size
        if needed > size:
            return None
        admissible = [
            start
            for start in range(size)
            if all(
                table.owner[(start + hop) % size] is None
                for hop, table in enumerate(tables)
            )
        ]
        if len(admissible) < needed:
            return None
        return tuple(admissible[:needed])


def _state(size):
    """A pristine group state with ``size``-slot tables."""
    return ResourceState(NoCParameters(slot_table_size=size))


def _block(state, hop, slot, tag):
    """Take ``slot`` on link ``(hop, hop + 1)`` with a one-slot reservation."""
    state.reserve(f"src-{tag}", f"dst-{tag}", (hop, hop + 1), 1.0, (slot,))


def _search(state, hops, needed):
    """The starting slots ``can_reserve`` finds along the path 0 -> hops."""
    return state.can_reserve("a", "b", tuple(range(hops + 1)), 1.0, needed)


# --------------------------------------------------------------------------- #
# slots_needed
# --------------------------------------------------------------------------- #
def test_slots_needed_basic():
    # 2 GB/s link, 16 slots -> 125 MB/s per slot.
    assert slots_needed(125e6, 2e9, 16) == 1
    assert slots_needed(126e6, 2e9, 16) == 2
    assert slots_needed(2e9, 2e9, 16) == 16


def test_slots_needed_minimum_one_slot():
    assert slots_needed(1.0, 2e9, 16) == 1


def test_slots_needed_can_exceed_table_size():
    assert slots_needed(4e9, 2e9, 16) == 32


def test_slots_needed_rejects_bad_inputs():
    with pytest.raises(ResourceError):
        slots_needed(0, 2e9, 16)
    with pytest.raises(ResourceError):
        slots_needed(1e6, 0, 16)
    with pytest.raises(ConfigurationError):
        slots_needed(1e6, 2e9, 0)


@given(
    bandwidth=st.floats(min_value=1.0, max_value=4e9),
    slots=st.integers(min_value=1, max_value=256),
)
def test_slots_needed_provides_enough_bandwidth(bandwidth, slots):
    capacity = 2e9
    needed = slots_needed(bandwidth, capacity, slots)
    # The reserved slots always provide at least the requested bandwidth
    # (up to the table size; beyond that the link simply cannot carry it).
    if needed <= slots:
        assert needed * (capacity / slots) >= bandwidth - 1e-6
    assert needed >= 1


# --------------------------------------------------------------------------- #
# slot tables as free masks
# --------------------------------------------------------------------------- #
def test_slot_table_initially_free():
    state = _state(8)
    assert state.full_mask == 0b11111111
    assert state.free_masks == {}
    # every slot of an untouched link is free
    assert state.can_reserve("a", "b", (0, 1), 1.0, 8) == tuple(range(8))


def test_slot_table_rejects_zero_size():
    with pytest.raises(ConfigurationError):
        NoCParameters(slot_table_size=0)


def test_slot_table_free_mask_tracks_reservations():
    state = _state(8)
    state.reserve("a", "b", (0, 1, 2), 1.0, (0, 3))
    assert state.free_masks[(0, 1)] == 0b11110110
    # the second hop carries every slot one position later
    assert state.free_masks[(1, 2)] == 0b11101101
    state.reserve("a", "b", (1, 2), 1.0, (7,))
    assert state.free_masks[(1, 2)] == 0b01101101


def test_pipelined_link_slots_rotate_per_hop():
    assert pipelined_link_slots((0, 1, 2), (2, 3), 4) == {(0, 1): (2, 3), (1, 2): (0, 3)}
    assert pipelined_link_slots((0, 1, 2), (), 4) == {}  # best effort
    assert pipelined_link_slots((5,), (0,), 4) == {}     # same switch


# --------------------------------------------------------------------------- #
# pipelined path search
# --------------------------------------------------------------------------- #
def test_find_pipelined_slots_on_empty_tables():
    assert _search(_state(8), 3, 2) == (0, 1)


def test_find_pipelined_slots_respects_rotation():
    state = _state(4)
    # Slot s on the first link implies slot (s+1) mod 4 on the second.
    _block(state, 1, 1, "other")  # blocks start slot 0
    starts = _search(state, 2, 1)
    assert starts is not None
    assert starts[0] != 0


def test_find_pipelined_slots_exhausted():
    state = _state(2)
    _block(state, 0, 0, "a")
    _block(state, 1, 0, "b")  # blocks start 1 (1+1 mod 2 == 0)
    assert _search(state, 2, 1) is None


def test_find_pipelined_slots_demand_exceeding_size():
    assert _search(_state(4), 1, 5) is None


def test_pipelined_free_mask_matches_rotation_rule():
    # the second hop's slot 1 is taken, which blocks start 0
    mask = pipelined_free_mask([0b1111, 0b1101], 4)
    assert mask == 0b1110


def test_slots_needed_cached_matches_uncached():
    assert slots_needed_cached(126e6, 2e9, 16) == slots_needed(126e6, 2e9, 16)
    with pytest.raises(ResourceError):
        slots_needed_cached(0, 2e9, 16)


# --------------------------------------------------------------------------- #
# property tests: bitmask search == list-based reference model
# --------------------------------------------------------------------------- #
def _blocked_tables(size, hops, blocked):
    """A state and reference tables with the same slots taken per link."""
    state = _state(size)
    references = [ReferenceSlotTable(size) for _ in range(hops)]
    for index, slot in enumerate(blocked):
        slot = slot % size
        hop = index % hops
        if references[hop].owner[slot] is None:
            references[hop].reserve(f"blk{index}", [slot])
            _block(state, hop, slot, index)
    return state, references


@given(
    size=st.integers(min_value=2, max_value=32),
    hops=st.integers(min_value=1, max_value=6),
    needed=st.integers(min_value=1, max_value=8),
    blocked=st.lists(st.integers(min_value=0, max_value=31), max_size=12),
)
def test_find_pipelined_slots_matches_reference_search(size, hops, needed, blocked):
    state, references = _blocked_tables(size, hops, blocked)
    expected = references[0].find_pipelined(references, needed)
    assert _search(state, hops, needed) == expected


@given(
    size=st.integers(min_value=2, max_value=32),
    hops=st.integers(min_value=1, max_value=6),
    needed=st.integers(min_value=1, max_value=8),
    blocked=st.lists(st.integers(min_value=0, max_value=31), max_size=10),
)
def test_find_pipelined_slots_results_are_actually_free(size, hops, needed, blocked):
    state, references = _blocked_tables(size, hops, blocked)
    starts = _search(state, hops, needed)
    if starts is None:
        return
    assert len(starts) == needed
    for start in starts:
        for hop, reference in enumerate(references):
            assert reference.owner[(start + hop) % size] is None

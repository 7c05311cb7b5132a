"""TDMA slot tables with Æthereal-style pipelined reservations.

Every directed link of the NoC owns a slot table of ``S`` slots.  Time is
divided into recurring frames of ``S`` slots; a guaranteed-throughput (GT)
flow that owns ``k`` slots on a link gets ``k/S`` of that link's raw
bandwidth, contention-free.

Reservations are *pipelined*: when a flow is granted slot ``s`` on the first
link of its path it implicitly uses slot ``(s + 1) mod S`` on the second
link, ``(s + 2) mod S`` on the third, and so on — data moves exactly one hop
per slot.  Finding a reservation for a path therefore means finding ``k``
starting slot indices that are simultaneously free on every link of the path
(after per-hop rotation).  This module implements the per-link table;
path-level searches live in :class:`repro.noc.resources.ResourceState`.

The free set of a table is held as a single Python int (``free_mask``, bit
``s`` set when slot ``s`` is free), so the pipelined path search reduces to
rotating each hop's mask into the start-slot frame and AND-ing them — a
handful of big-int operations instead of an O(S × hops) Python scan.  An
owner list is kept alongside the mask purely for reservation bookkeeping
(release validation and diagnostics).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError, ResourceError

__all__ = [
    "SlotTable",
    "SlotReservation",
    "slots_needed",
    "slots_needed_cached",
    "find_pipelined_slots",
    "pipelined_free_mask",
    "lowest_set_bits",
    "rotated_start_slots",
]


def slots_needed(bandwidth: float, link_capacity: float, num_slots: int) -> int:
    """Number of TDMA slots a flow of ``bandwidth`` needs on one link.

    Each of the ``num_slots`` slots carries ``link_capacity / num_slots``
    bytes/s, so the flow needs ``ceil(bandwidth / slot_bandwidth)`` slots.
    The result is at least 1 (a GT flow always owns at least one slot) and
    may exceed ``num_slots``, in which case the link simply cannot carry the
    flow — callers treat that as an infeasible path.
    """
    if bandwidth <= 0:
        raise ResourceError(f"flow bandwidth must be positive, got {bandwidth}")
    if link_capacity <= 0:
        raise ResourceError(f"link capacity must be positive, got {link_capacity}")
    if num_slots <= 0:
        raise ConfigurationError(f"slot table size must be positive, got {num_slots}")
    slot_bandwidth = link_capacity / num_slots
    return max(1, math.ceil(bandwidth / slot_bandwidth - 1e-12))


#: Memoised variant of :func:`slots_needed` for the mapper's hot path, where
#: the same (bandwidth, capacity, table size) triples recur constantly across
#: resource states, groups and topology attempts.
slots_needed_cached = lru_cache(maxsize=1 << 16)(slots_needed)


@dataclass(frozen=True)
class SlotReservation:
    """The slots a single flow owns on a single link."""

    flow_id: str
    slots: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.slots:
            raise ResourceError("a slot reservation must contain at least one slot")
        if len(set(self.slots)) != len(self.slots):
            raise ResourceError(f"duplicate slots in reservation: {self.slots}")


class SlotTable:
    """The TDMA slot table of one directed link.

    Slots are identified by their index ``0 .. size-1``.  Each slot is either
    free or owned by exactly one flow (identified by an opaque string id).
    The free set is a bitmask (bit ``s`` set when slot ``s`` is free); the
    owner list exists only for bookkeeping and release validation.
    """

    __slots__ = (
        "_size",
        "_full_mask",
        "_free_mask",
        "_owner",
        "_generation",
        "_free_slots_memo",
        "_owned_memo",
    )

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise ConfigurationError(f"slot table size must be positive, got {size}")
        self._size = size
        self._full_mask = (1 << size) - 1
        self._free_mask = self._full_mask
        self._owner: List[Optional[str]] = [None] * size
        # Mutation counter; the tuple views below memoise against it so the
        # refiner/screening loops can call them repeatedly without
        # re-materialising identical tuples (see free_slots/slots_owned_by).
        self._generation = 0
        self._free_slots_memo: Optional[Tuple[int, Tuple[int, ...]]] = None
        self._owned_memo: Dict[str, Tuple[int, Tuple[int, ...]]] = {}

    @property
    def size(self) -> int:
        """Total number of slots in the table."""
        return self._size

    @property
    def free_mask(self) -> int:
        """Bitmask of the free set: bit ``s`` is set when slot ``s`` is free."""
        return self._free_mask

    @property
    def generation(self) -> int:
        """Counter bumped by every mutation; keys the memoised tuple views."""
        return self._generation

    @property
    def free_count(self) -> int:
        """Number of currently unreserved slots."""
        return self._free_mask.bit_count()

    @property
    def used_count(self) -> int:
        """Number of currently reserved slots."""
        return self._size - self._free_mask.bit_count()

    @property
    def utilization(self) -> float:
        """Fraction of slots reserved (0.0 — 1.0)."""
        return self.used_count / self._size

    def is_free(self, slot: int) -> bool:
        """Whether the given slot index is unreserved."""
        self._check_index(slot)
        return bool(self._free_mask >> slot & 1)

    def owner_of(self, slot: int) -> Optional[str]:
        """The flow id owning the slot, or ``None`` when it is free."""
        self._check_index(slot)
        return self._owner[slot]

    def free_slots(self) -> Tuple[int, ...]:
        """Indices of all free slots, ascending.

        Memoised against the mutation generation: repeated calls between
        mutations return the same tuple object instead of rebuilding it —
        the refiner loops interrogate unchanged tables constantly.
        """
        memo = self._free_slots_memo
        if memo is not None and memo[0] == self._generation:
            return memo[1]
        slots = _mask_to_slots(self._free_mask)
        self._free_slots_memo = (self._generation, slots)
        return slots

    def slots_owned_by(self, flow_id: str) -> Tuple[int, ...]:
        """Indices of all slots owned by the given flow, ascending.

        Memoised per flow against the mutation generation (stale entries are
        refreshed lazily on the next lookup after a mutation).
        """
        memo = self._owned_memo.get(flow_id)
        if memo is not None and memo[0] == self._generation:
            return memo[1]
        slots = tuple(idx for idx, owner in enumerate(self._owner) if owner == flow_id)
        if len(self._owned_memo) >= 4 * self._size:
            self._owned_memo.clear()
        self._owned_memo[flow_id] = (self._generation, slots)
        return slots

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def reserve(self, flow_id: str, slots: Iterable[int]) -> SlotReservation:
        """Reserve the given slots for a flow.

        The operation is atomic: if any requested slot is taken, nothing is
        reserved and :class:`ResourceError` is raised.
        """
        requested = tuple(slots)
        reservation = SlotReservation(flow_id=flow_id, slots=requested)
        mask = 0
        for slot in requested:
            self._check_index(slot)
            mask |= 1 << slot
        conflict = mask & ~self._free_mask
        if conflict:
            slot = (conflict & -conflict).bit_length() - 1
            raise ResourceError(
                f"slot {slot} is already owned by {self._owner[slot]!r}; "
                f"cannot reserve it for {flow_id!r}"
            )
        self._free_mask &= ~mask
        for slot in requested:
            self._owner[slot] = flow_id
        self._generation += 1
        return reservation

    def _grant(self, flow_id: str, slots: Sequence[int]) -> None:
        """Reserve pre-validated slots without re-checking availability.

        Internal fast path for :class:`repro.noc.resources.ResourceState`,
        which only calls it with an assignment just planned against this
        table's current free mask.
        """
        mask = 0
        owner = self._owner
        for slot in slots:
            mask |= 1 << slot
            owner[slot] = flow_id
        self._free_mask &= ~mask
        self._generation += 1

    def release(self, reservation: SlotReservation) -> None:
        """Release a previously granted reservation.

        Raises :class:`ResourceError` if any slot of the reservation is not
        currently owned by the reservation's flow (double release, or release
        of someone else's slots).
        """
        mask = 0
        for slot in reservation.slots:
            self._check_index(slot)
            if self._owner[slot] != reservation.flow_id:
                raise ResourceError(
                    f"slot {slot} is owned by {self._owner[slot]!r}, not by "
                    f"{reservation.flow_id!r}; refusing to release"
                )
            mask |= 1 << slot
        self._free_mask |= mask
        for slot in reservation.slots:
            self._owner[slot] = None
        self._generation += 1

    def release_flow(self, flow_id: str) -> int:
        """Release every slot owned by the flow; returns how many were freed."""
        freed = 0
        for idx, owner in enumerate(self._owner):
            if owner == flow_id:
                self._owner[idx] = None
                self._free_mask |= 1 << idx
                freed += 1
        if freed:
            self._generation += 1
        return freed

    def clear(self) -> None:
        """Release every slot."""
        self._owner = [None] * self._size
        self._free_mask = self._full_mask
        self._generation += 1
        self._owned_memo.clear()

    def copy(self) -> "SlotTable":
        """An independent deep copy of the table."""
        duplicate = SlotTable(self._size)
        duplicate._owner = list(self._owner)
        duplicate._free_mask = self._free_mask
        return duplicate

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def occupancy(self) -> Dict[int, str]:
        """Mapping of reserved slot index to owning flow id."""
        return {idx: owner for idx, owner in enumerate(self._owner) if owner is not None}

    def _check_index(self, slot: int) -> None:
        if not isinstance(slot, int) or slot < 0 or slot >= self._size:
            raise ResourceError(
                f"slot index {slot!r} out of range for a table of size {self._size}"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SlotTable):
            return NotImplemented
        return self._size == other._size and self._owner == other._owner

    __hash__ = None  # mutable; equality is by content

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SlotTable(size={self._size}, used={self.used_count})"


def _mask_to_slots(mask: int) -> Tuple[int, ...]:
    """Set bit positions of ``mask``, ascending."""
    slots: List[int] = []
    while mask:
        low = mask & -mask
        slots.append(low.bit_length() - 1)
        mask ^= low
    return tuple(slots)


def pipelined_free_mask(masks: Sequence[int], size: int) -> int:
    """Bitmask of admissible *starting* slots along a path of free masks.

    ``masks[i]`` is the free mask of the ``i``-th link.  A starting slot
    ``s`` is admissible when slot ``(s + i) mod S`` is free on link ``i``
    for every hop ``i``; rotating each hop's mask right by ``i`` brings that
    condition into the start-slot frame, so the admissible set is simply the
    AND of the rotated masks.
    """
    full = (1 << size) - 1
    admissible = full
    for hop, mask in enumerate(masks):
        rotation = hop % size
        if rotation:
            mask = ((mask >> rotation) | (mask << (size - rotation))) & full
        admissible &= mask
        if not admissible:
            break
    return admissible


def rotated_start_slots(starts: Tuple[int, ...], shift: int, size: int) -> Tuple[int, ...]:
    """The hop-``shift`` slot set of an ascending starting-slot tuple.

    The Æthereal pipeline advances every reservation one slot per hop, so
    hop ``i`` carries ``(start + i) mod S`` for each starting slot.  With
    ``starts`` ascending the rotated set stays sorted except at the wrap
    point: everything that wrapped (now ``< shift``) goes before everything
    that did not — the same tuples a per-hop sort would produce, without
    sorting.  ``shift == 0`` returns ``starts`` itself.  This is the single
    definition of the per-hop assignment shape, shared by the reservation
    planner (:meth:`repro.noc.resources.ResourceState._plan`) and the
    engine-state store's evaluation import
    (:mod:`repro.core.engine`), whose bit-identity contract depends on both
    producing identical tuples.
    """
    if shift == 0:
        return starts
    wrapped: List[int] = []
    straight: List[int] = []
    for start in starts:
        value = start + shift
        if value >= size:
            wrapped.append(value - size)
        else:
            straight.append(value)
    return tuple(wrapped + straight)


def lowest_set_bits(mask: int, count: int) -> Optional[Tuple[int, ...]]:
    """The ``count`` lowest set bit positions of ``mask``, ascending.

    Returns ``None`` when the mask has fewer than ``count`` set bits.  This
    is the slot-picking rule of the pipelined search (lowest admissible
    starting slots win), shared by :func:`find_pipelined_slots` and
    :meth:`repro.noc.resources.ResourceState._plan`.
    """
    if mask.bit_count() < count:
        return None
    bits: List[int] = []
    while len(bits) < count:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return tuple(bits)


def find_pipelined_slots(
    tables: Sequence[SlotTable],
    needed: int,
) -> Optional[Tuple[int, ...]]:
    """Find ``needed`` starting slots free along a whole path of slot tables.

    ``tables[i]`` is the slot table of the ``i``-th link of the path.  A
    starting slot ``s`` is admissible when slot ``(s + i) mod S`` is free in
    ``tables[i]`` for every link ``i`` (the Æthereal pipelining rule).
    Returns the lowest admissible starting slots, or ``None`` when fewer than
    ``needed`` admissible starts exist.  All tables must share the same size.
    """
    if not tables:
        raise ResourceError("cannot search for slots along an empty path")
    size = tables[0].size
    for table in tables:
        if table.size != size:
            raise ConfigurationError(
                "all slot tables along a path must have the same size "
                f"(got {table.size} and {size})"
            )
    if needed <= 0:
        raise ResourceError(f"slot demand must be positive, got {needed}")
    if needed > size:
        return None
    admissible = pipelined_free_mask([table._free_mask for table in tables], size)
    return lowest_set_bits(admissible, needed)

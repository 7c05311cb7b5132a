"""TDMA slot arithmetic for Æthereal-style pipelined reservations.

Every directed link of the NoC owns a slot table of ``S`` slots.  Time is
divided into recurring frames of ``S`` slots; a guaranteed-throughput (GT)
flow that owns ``k`` slots on a link gets ``k/S`` of that link's raw
bandwidth, contention-free.

Reservations are *pipelined*: when a flow is granted slot ``s`` on the first
link of its path it implicitly uses slot ``(s + 1) mod S`` on the second
link, ``(s + 2) mod S`` on the third, and so on — data moves exactly one hop
per slot.  Finding a reservation for a path therefore means finding ``k``
starting slot indices that are simultaneously free on every link of the path
(after per-hop rotation).

A link's slot table is held as a single Python int, its *free mask* (bit
``s`` set when slot ``s`` is free; see
:attr:`repro.noc.resources.ResourceState.free_masks`), so the pipelined
path search reduces to rotating each hop's mask into the start-slot frame
and AND-ing them — a handful of big-int operations instead of an
O(S × hops) Python scan.  This module holds that arithmetic: the slot
demand of a flow, the admissible-start mask of a path, the pick of the
lowest starts and the per-link slots a set of starts occupies.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError, ResourceError

__all__ = [
    "slots_needed",
    "slots_needed_cached",
    "pipelined_free_mask",
    "lowest_set_bits",
    "rotated_start_slots",
    "pipelined_link_slots",
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
    sorting.  ``shift == 0`` returns ``starts`` itself.
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


def pipelined_link_slots(
    path: Tuple[int, ...], starts: Tuple[int, ...], size: int
) -> Dict[Tuple[int, int], Tuple[int, ...]]:
    """The slots a reservation with these starting slots holds on each link.

    Hop ``i`` of ``path`` carries the starts rotated by ``i mod size``
    (:func:`rotated_start_slots`); a reservation without starts (best
    effort) or without links (same switch) holds none.  This is the single
    definition of the per-link slot assignment: the constructive mapper's
    allocations and the engine's cached and store-imported evaluations are
    all built from ``(path, starts)`` through it, so they are bit-identical.
    """
    if not starts or len(path) < 2:
        return {}
    assignment: Dict[Tuple[int, int], Tuple[int, ...]] = {}
    for hop in range(len(path) - 1):
        link = (path[hop], path[hop + 1])
        assignment[link] = rotated_start_slots(starts, hop % size, size)
    return assignment


def lowest_set_bits(mask: int, count: int) -> Optional[Tuple[int, ...]]:
    """The ``count`` lowest set bit positions of ``mask``, ascending.

    Returns ``None`` when the mask has fewer than ``count`` set bits.  This
    is the slot-picking rule of the pipelined search (lowest admissible
    starting slots win) of :meth:`repro.noc.resources.ResourceState.can_reserve`.
    """
    if mask.bit_count() < count:
        return None
    bits: List[int] = []
    while len(bits) < count:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return tuple(bits)

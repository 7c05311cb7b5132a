"""Per-use-case NoC resource state: residual bandwidth and TDMA slots.

The heart of the paper's improvement over the worst-case baseline is that
*each use-case maintains separate data structures that represent the
available bandwidth and TDMA slots in the NoC for that use-case*.  This
module provides exactly that data structure.

A :class:`ResourceState` tracks, for one use-case (or one smooth-switching
group, which shares a single configuration):

* the residual bandwidth and the TDMA slot table of every directed
  inter-switch link, and
* the residual bandwidth of every core's NI access links (core → switch and
  switch → core), which bound how much traffic a single core can source or
  sink regardless of how large the mesh grows.

Link state is stored only for the links a reservation touched or whose slot
table :meth:`ResourceState.slot_table` handed out; every other link reads as
pristine — residual at link capacity, every slot free.  A fresh state
therefore holds no per-link data at all, and :meth:`ResourceState.copy`
costs O(touched links) instead of O(all links × slot-table size), which is
what lets Algorithm 2 give every group of every topology attempt its own
state on a 16x16 mesh.  This is the same lazily-defaulted representation the
fixed-placement kernel (``UnifiedMapper.evaluate_group_fixed``) keeps in
plain dicts.

Reservations are returned as :class:`PathReservation` records so they can be
released again (needed by the refinement passes that rip up and re-route
flows).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.exceptions import ResourceError, TopologyError
from repro.noc.slot_table import (
    SlotReservation,
    SlotTable,
    lowest_set_bits,
    pipelined_free_mask,
    rotated_start_slots,
    slots_needed_cached,
)
from repro.noc.topology import Link, Topology
from repro.params import MapperConfig, NoCParameters

__all__ = ["PathReservation", "ResourceState"]

#: Cost value returned for paths that cannot possibly carry a flow.
INFEASIBLE_COST = float("inf")


@dataclass(frozen=True)
class PathReservation:
    """Record of the resources one flow holds in one resource state.

    Attributes
    ----------
    flow_id:
        Globally unique identifier of the (use-case, flow) pair.
    source_core, destination_core:
        Names of the communicating cores.
    switch_path:
        Sequence of switch indices from the source core's switch to the
        destination core's switch (a single element when both cores attach
        to the same switch).
    bandwidth:
        Reserved bandwidth in bytes/s (charged on every link of the path and
        on both access links).
    link_slots:
        Mapping from directed inter-switch link to the slot indices reserved
        on it (empty for best-effort flows and same-switch paths).
    guaranteed:
        True for GT flows (slot-table reservations were made).
    """

    flow_id: str
    source_core: str
    destination_core: str
    switch_path: Tuple[int, ...]
    bandwidth: float
    link_slots: Dict[Link, Tuple[int, ...]] = field(default_factory=dict)
    guaranteed: bool = True

    @property
    def hop_count(self) -> int:
        """Number of inter-switch links traversed."""
        return max(0, len(self.switch_path) - 1)

    @property
    def slots_per_link(self) -> int:
        """Number of slots reserved on each link (0 when none were needed)."""
        if not self.link_slots:
            return 0
        return len(next(iter(self.link_slots.values())))


class ResourceState:
    """Residual bandwidth and slot-table state of the NoC for one use-case."""

    def __init__(
        self,
        topology: Topology,
        params: NoCParameters,
        name: str = "state",
    ) -> None:
        self.topology = topology
        self.params = params
        self.name = name
        #: link capacity, cached because the params property recomputes it
        self._capacity = params.link_capacity
        #: the free mask of an untouched link's slot table
        self._full_mask = (1 << params.slot_table_size) - 1
        #: the topology's links (pure function of the topology, so copies
        #: share the same set); an unknown or failed link is not in it
        self._links: FrozenSet[Link] = frozenset(topology.links)
        #: residual bandwidth of the links a reservation touched; any other
        #: link of ``_links`` has its full capacity
        self._link_residual: Dict[Link, float] = {}
        #: slot tables of the links a reservation touched or ``slot_table``
        #: handed out; any other link of ``_links`` has every slot free
        self._slot_tables: Dict[Link, SlotTable] = {}
        #: core name -> switch index (shared mapping, mirrored in every state)
        self._core_switch: Dict[str, int] = {}
        #: switch index -> number of attached cores (incremental counter, so
        #: attach_core never rescans the whole core mapping)
        self._switch_core_count: Dict[int, int] = {}
        #: residual bandwidth of the core -> switch access link
        self._ingress_residual: Dict[str, float] = {}
        #: residual bandwidth of the switch -> core access link
        self._egress_residual: Dict[str, float] = {}
        #: reservations keyed by object identity (insertion-ordered), so
        #: release is O(1) instead of a linear list scan + remove — rip-up /
        #: re-route workloads release constantly
        self._reservations: Dict[int, PathReservation] = {}
        #: switch path -> link tuple memo (pure function of the topology, so
        #: copies share the same dict object)
        self._links_memo: Dict[Tuple[int, ...], Tuple[Link, ...]] = {}
        #: monotonically bumped on every mutation; stamps the one-entry plan
        #: cache below so ``reserve`` can reuse the (links, assignment) plan
        #: computed by an immediately preceding ``can_reserve`` on an
        #: unchanged state
        self._version = 0
        self._last_plan: Optional[
            Tuple[int, Tuple, Tuple[Tuple[Link, ...], Dict[Link, Tuple[int, ...]]]]
        ] = None

    # ------------------------------------------------------------------ #
    # core attachment
    # ------------------------------------------------------------------ #
    def attach_core(self, core_name: str, switch_index: int) -> None:
        """Attach a core (its NI) to a switch.

        Every use-case state of a design shares the same core-to-switch
        mapping, so the mapper calls this on each state when it places a
        core.  Attaching the same core to the same switch twice is a no-op;
        attaching it elsewhere is an error (the paper requires one mapping).
        """
        self.topology.switch(switch_index)
        if self.topology.is_switch_down(switch_index):
            raise ResourceError(
                f"switch {switch_index} is failed on {self.topology.name!r}; "
                f"cannot attach core {core_name!r}"
            )
        existing = self._core_switch.get(core_name)
        if existing is not None:
            if existing != switch_index:
                raise ResourceError(
                    f"core {core_name!r} is already attached to switch {existing}; "
                    f"cannot re-attach it to switch {switch_index}"
                )
            return
        limit = self.params.max_cores_per_switch
        occupied = self._switch_core_count.get(switch_index, 0)
        if limit is not None and occupied >= limit:
            raise ResourceError(
                f"switch {switch_index} already hosts {limit} cores "
                f"(max_cores_per_switch={limit})"
            )
        self._core_switch[core_name] = switch_index
        self._switch_core_count[switch_index] = occupied + 1
        self._version += 1
        capacity = self._capacity
        self._ingress_residual[core_name] = capacity
        self._egress_residual[core_name] = capacity

    def switch_of(self, core_name: str) -> Optional[int]:
        """The switch a core is attached to, or ``None`` if unmapped."""
        return self._core_switch.get(core_name)

    def cores_on_switch(self, switch_index: int) -> int:
        """Number of cores currently attached to a switch."""
        return self._switch_core_count.get(switch_index, 0)

    @property
    def core_mapping(self) -> Dict[str, int]:
        """A copy of the current core-to-switch mapping."""
        return dict(self._core_switch)

    # ------------------------------------------------------------------ #
    # residual queries
    # ------------------------------------------------------------------ #
    def _check_link(self, link: Link) -> None:
        if link not in self._links:
            raise TopologyError(f"no link {link} in topology {self.topology.name!r}")

    def link_residual(self, link: Link) -> float:
        """Residual bandwidth (bytes/s) of a directed inter-switch link."""
        self._check_link(link)
        return self._link_residual.get(link, self._capacity)

    def slot_table(self, link: Link) -> SlotTable:
        """The live TDMA slot table of a directed inter-switch link.

        An untouched link gets its (empty) table materialised here, so
        mutations made through the returned table are the state's own.
        """
        self._check_link(link)
        table = self._slot_tables.get(link)
        if table is None:
            table = self._slot_tables[link] = SlotTable(self.params.slot_table_size)
        return table

    def ingress_residual(self, core_name: str) -> float:
        """Residual bandwidth of the core's NI injection (core → switch) link."""
        try:
            return self._ingress_residual[core_name]
        except KeyError:
            raise ResourceError(f"core {core_name!r} is not attached to any switch") from None

    def egress_residual(self, core_name: str) -> float:
        """Residual bandwidth of the core's NI ejection (switch → core) link."""
        try:
            return self._egress_residual[core_name]
        except KeyError:
            raise ResourceError(f"core {core_name!r} is not attached to any switch") from None

    @property
    def reservations(self) -> Tuple[PathReservation, ...]:
        """All currently held path reservations (in reservation order)."""
        return tuple(self._reservations.values())

    def _residuals(self) -> List[Tuple[Link, float]]:
        """Every link's residual bandwidth, in topology link order."""
        capacity = self._capacity
        residual = self._link_residual
        return [(link, residual.get(link, capacity)) for link in self.topology.links]

    def max_link_utilization(self) -> float:
        """Highest bandwidth utilisation over all inter-switch links (0–1)."""
        capacity = self._capacity
        residuals = self._residuals()
        if not residuals:
            return 0.0
        return max((capacity - residual) / capacity for _link, residual in residuals)

    def total_reserved_bandwidth(self) -> float:
        """Total bandwidth-hops reserved on inter-switch links (bytes/s)."""
        capacity = self._capacity
        return sum(capacity - residual for _link, residual in self._residuals())

    def link_loads(self) -> Dict[Link, float]:
        """Reserved bandwidth (bytes/s) per directed inter-switch link."""
        capacity = self._capacity
        return {link: capacity - residual for link, residual in self._residuals()}

    # ------------------------------------------------------------------ #
    # feasibility, cost, reservation
    # ------------------------------------------------------------------ #
    def _path_links(self, switch_path: Sequence[int]) -> Tuple[Link, ...]:
        key = tuple(switch_path)
        cached = self._links_memo.get(key)
        if cached is not None:
            return cached
        links: List[Link] = []
        for source, destination in zip(key, key[1:]):
            link = (source, destination)
            if link not in self._links:
                raise TopologyError(
                    f"path {tuple(switch_path)} uses non-existent link {link}"
                )
            links.append(link)
        result = tuple(links)
        self._links_memo[key] = result
        return result

    def slots_for_bandwidth(self, bandwidth: float) -> int:
        """Slots a flow of the given bandwidth needs on each link of its path."""
        return slots_needed_cached(bandwidth, self._capacity, self.params.slot_table_size)

    def can_reserve(
        self,
        source_core: str,
        destination_core: str,
        switch_path: Sequence[int],
        bandwidth: float,
        guaranteed: bool = True,
        required_slots: Optional[Tuple[int, ...]] = None,
    ) -> bool:
        """Whether a reservation along the path would succeed right now."""
        plan = self._plan(
            source_core,
            destination_core,
            switch_path,
            bandwidth,
            guaranteed,
            required_slots,
        )
        if plan is not None:
            key = (
                source_core, destination_core, tuple(switch_path),
                bandwidth, guaranteed, required_slots,
            )
            self._last_plan = (self._version, key, plan)
        return plan is not None

    def _plan(
        self,
        source_core: str,
        destination_core: str,
        switch_path: Sequence[int],
        bandwidth: float,
        guaranteed: bool,
        required_slots: Optional[Tuple[int, ...]],
    ) -> Optional[Tuple[Tuple[Link, ...], Dict[Link, Tuple[int, ...]]]]:
        """Compute a reservation's (path links, slot assignment), or ``None``.

        Returns the path's link tuple and a (possibly empty) slot mapping
        when the reservation is feasible — bandwidth fits on the access
        links and every path link, and (for GT flows) a pipelined slot
        assignment exists.  ``required_slots`` forces a specific set of
        *starting* slots (used to replicate a group-shared configuration
        into each member use-case's state).
        """
        if bandwidth <= 0:
            raise ResourceError(f"bandwidth must be positive, got {bandwidth}")
        if not switch_path:
            raise ResourceError("switch path must contain at least one switch")
        core_switch = self._core_switch
        if core_switch.get(source_core) != switch_path[0]:
            return None
        if core_switch.get(destination_core) != switch_path[-1]:
            return None
        threshold = bandwidth - 1e-9
        if self._ingress_residual.get(source_core, 0.0) < threshold:
            return None
        if self._egress_residual.get(destination_core, 0.0) < threshold:
            return None
        links = self._path_links(switch_path)
        link_residual = self._link_residual
        capacity = self._capacity
        for link in links:
            if link_residual.get(link, capacity) < threshold:
                return None
        if not guaranteed or not links:
            return links, {}
        needed = self.slots_for_bandwidth(bandwidth)
        size = self.params.slot_table_size
        if needed > size:
            return None
        # Rotate each hop's free mask into the start-slot frame and AND them:
        # the admissible-start set of the whole path in a few int ops.
        slot_tables = self._slot_tables
        full = self._full_mask
        masks = []
        for link in links:
            table = slot_tables.get(link)
            masks.append(full if table is None else table._free_mask)
        admissible = pipelined_free_mask(masks, size)
        if required_slots is not None:
            if len(required_slots) < needed:
                return None
            for start in required_slots:
                if not admissible >> (start % size) & 1:
                    return None
            assignment: Dict[Link, Tuple[int, ...]] = {}
            for hop, link in enumerate(links):
                assignment[link] = tuple(
                    sorted((start + hop) % size for start in required_slots)
                )
            return links, assignment
        starts = lowest_set_bits(admissible, needed)
        if starts is None:
            return None
        # ``starts`` is ascending, so each hop's rotated slot set is the
        # shared sort-free rotation (see rotated_start_slots) — the same
        # tuples the historical per-hop sort produced.
        assignment = {}
        for hop, link in enumerate(links):
            assignment[link] = rotated_start_slots(starts, hop % size, size)
        return links, assignment

    def _assignment_still_free(self, assignment: Dict[Link, Tuple[int, ...]]) -> bool:
        """Whether every slot of a cached plan is still free right now.

        The version stamp cannot see mutations made directly through the
        live tables handed out by :meth:`slot_table`, so a cache hit is
        re-validated with one mask test per link before the unchecked grant.
        """
        slot_tables = self._slot_tables
        for link, slots in assignment.items():
            table = slot_tables.get(link)
            if table is None:
                continue
            mask = 0
            for slot in slots:
                mask |= 1 << slot
            if mask & ~table._free_mask:
                return False
        return True

    def path_cost(
        self,
        switch_path: Sequence[int],
        bandwidth: float,
        config: MapperConfig,
        guaranteed: bool = True,
    ) -> float:
        """Cost of routing a flow of ``bandwidth`` along ``switch_path``.

        The cost combines hop delay with residual-bandwidth and residual-slot
        pressure (paper §5 / ref [20]): longer paths and paths through
        already-loaded links cost more.  Paths that cannot carry the flow at
        all return :data:`INFEASIBLE_COST`.
        """
        if not switch_path:
            return INFEASIBLE_COST
        links = self._path_links(switch_path)
        hops = len(links)
        cost = config.hop_weight * hops
        needed = self.slots_for_bandwidth(bandwidth) if guaranteed else 0
        link_residual = self._link_residual
        slot_tables = self._slot_tables
        capacity = self._capacity
        size = self.params.slot_table_size
        bandwidth_weight = config.bandwidth_weight
        slot_weight = config.slot_weight
        threshold = bandwidth - 1e-9
        for link in links:
            residual = link_residual.get(link, capacity)
            if residual < threshold:
                return INFEASIBLE_COST
            cost += bandwidth_weight * (bandwidth / (residual if residual > 1e-9 else 1e-9))
            if guaranteed:
                table = slot_tables.get(link)
                free = size if table is None else table._free_mask.bit_count()
                if free < needed:
                    return INFEASIBLE_COST
                # ``free >= needed >= 1`` here, so no clamping is required.
                cost += slot_weight * (needed / free)
        return cost

    def reserve(
        self,
        flow_id: str,
        source_core: str,
        destination_core: str,
        switch_path: Sequence[int],
        bandwidth: float,
        guaranteed: bool = True,
        required_slots: Optional[Tuple[int, ...]] = None,
    ) -> PathReservation:
        """Atomically reserve bandwidth (and slots for GT flows) along a path.

        Raises :class:`ResourceError` when the reservation cannot be
        satisfied; the state is unchanged in that case.
        """
        plan: Optional[Tuple[Tuple[Link, ...], Dict[Link, Tuple[int, ...]]]] = None
        cached = self._last_plan
        if cached is not None and cached[0] == self._version:
            key = (
                source_core, destination_core, tuple(switch_path),
                bandwidth, guaranteed, required_slots,
            )
            if cached[1] == key and self._assignment_still_free(cached[2][1]):
                # Reuse the plan computed by the immediately preceding
                # can_reserve on this (unchanged) state — the common
                # path-selection sequence — instead of re-deriving it.
                plan = cached[2]
        if plan is None:
            plan = self._plan(
                source_core, destination_core, switch_path, bandwidth, guaranteed,
                required_slots,
            )
        if plan is None:
            raise ResourceError(
                f"cannot reserve {bandwidth:.3g} B/s for {flow_id!r} along "
                f"{tuple(switch_path)} in state {self.name!r}"
            )
        links, assignment = plan
        self._commit(flow_id, source_core, destination_core, bandwidth, links, assignment)
        reservation = PathReservation(
            flow_id=flow_id,
            source_core=source_core,
            destination_core=destination_core,
            switch_path=tuple(switch_path),
            bandwidth=bandwidth,
            link_slots=assignment,
            guaranteed=guaranteed,
        )
        self._reservations[id(reservation)] = reservation
        return reservation

    def _commit(
        self,
        flow_id: str,
        source_core: str,
        destination_core: str,
        bandwidth: float,
        links: Tuple[Link, ...],
        assignment: Dict[Link, Tuple[int, ...]],
    ) -> None:
        """Apply a validated plan to the residual and slot tables."""
        self._version += 1
        self._last_plan = None
        self._ingress_residual[source_core] -= bandwidth
        self._egress_residual[destination_core] -= bandwidth
        link_residual = self._link_residual
        capacity = self._capacity
        for link in links:
            link_residual[link] = link_residual.get(link, capacity) - bandwidth
        slot_tables = self._slot_tables
        size = self.params.slot_table_size
        for link, slots in assignment.items():
            table = slot_tables.get(link)
            if table is None:
                table = slot_tables[link] = SlotTable(size)
            # The assignment was planned against the current table state, so
            # the unchecked grant path is safe.
            table._grant(flow_id, slots)

    def release(self, reservation: PathReservation) -> None:
        """Return a reservation's bandwidth and slots to the free pool.

        Frees exactly the reservation's own slots, so another reservation of
        the same flow id keeps its slots.  Raises :class:`ResourceError`,
        leaving the state unchanged, when the reservation is not held or a
        slot of it is no longer owned by its flow (e.g. released through a
        live :meth:`slot_table`).

        O(1) for reservations returned by :meth:`reserve` on this state (or
        carried into a :meth:`copy`); an equal-but-distinct record falls
        back to a linear scan so historical equality semantics still hold.
        """
        key = id(reservation)
        held = self._reservations.get(key)
        if held is None:
            for key, candidate in self._reservations.items():
                if candidate == reservation:
                    held = candidate
                    break
        if held is None:
            raise ResourceError(
                f"reservation for {reservation.flow_id!r} is not held by state {self.name!r}"
            )
        # Validate every link before mutating anything.
        flow_id = held.flow_id
        slot_releases = []
        for link, slots in held.link_slots.items():
            table = self._slot_tables.get(link)
            if table is None or any(table.owner_of(slot) != flow_id for slot in slots):
                raise ResourceError(
                    f"slots {slots} on link {link} are not all owned by {flow_id!r} "
                    f"in state {self.name!r}; refusing to release"
                )
            slot_releases.append((table, SlotReservation(flow_id, slots)))
        del self._reservations[key]
        self._version += 1
        self._last_plan = None
        links = self._path_links(held.switch_path)
        self._ingress_residual[held.source_core] += held.bandwidth
        self._egress_residual[held.destination_core] += held.bandwidth
        for link in links:
            self._link_residual[link] += held.bandwidth
        for table, slot_reservation in slot_releases:
            table.release(slot_reservation)

    def copy(self, name: Optional[str] = None) -> "ResourceState":
        """An independent deep copy (same topology/params objects).

        Only the touched links' residuals and slot tables are copied, so a
        pristine state copies in O(1) of the topology size.
        """
        duplicate = ResourceState.__new__(ResourceState)
        duplicate.topology = self.topology
        duplicate.params = self.params
        duplicate.name = name or self.name
        duplicate._capacity = self._capacity
        duplicate._full_mask = self._full_mask
        duplicate._links = self._links
        duplicate._link_residual = dict(self._link_residual)
        duplicate._slot_tables = {
            link: table.copy() for link, table in self._slot_tables.items()
        }
        duplicate._core_switch = dict(self._core_switch)
        duplicate._switch_core_count = dict(self._switch_core_count)
        duplicate._ingress_residual = dict(self._ingress_residual)
        duplicate._egress_residual = dict(self._egress_residual)
        duplicate._reservations = dict(self._reservations)
        duplicate._version = 0
        duplicate._last_plan = None
        # A pure cache (function of the topology only), safe to share.
        duplicate._links_memo = self._links_memo
        return duplicate

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ResourceState(name={self.name!r}, topology={self.topology.name!r}, "
            f"reservations={len(self._reservations)})"
        )

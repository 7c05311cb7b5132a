"""Per-group NoC resource state: residual bandwidth and TDMA slots.

The heart of the paper's improvement over the worst-case baseline is that
*each use-case maintains separate data structures that represent the
available bandwidth and TDMA slots in the NoC for that use-case*.  A
:class:`ResourceState` is that data structure for one smooth-switching group
(a single use case, or several that share one configuration), and its three
methods are steps 4–5 of Algorithm 2 for one core pair:

* :meth:`ResourceState.path_cost` prices a candidate path,
* :meth:`ResourceState.can_reserve` finds the pipelined starting slots a
  reservation along it would get, or ``None``, and
* :meth:`ResourceState.reserve` commits them.

:meth:`ResourceState.cost_per_hop_floor` bounds the first from below, which
lets the constructive mapper skip switch pairs that cannot beat the best
path it has priced.

:meth:`repro.noc.routing.PathSelector.select_least_cost` ranks a pair's
candidate paths with the first and tries them with the second; the
constructive mapper and the fixed-placement evaluator both place every pair
through it and :meth:`~ResourceState.reserve`.

The state is four dicts, each defaulting to pristine: ``link_residual`` and
``free_masks`` per directed inter-switch link (a link not in them has its
full capacity and every slot free), and ``ingress`` / ``egress`` per core
for its NI access links (a core not in them has its full NI capacity).  A
link's free mask is its slot table as one int, bit ``s`` set when slot ``s``
is free.  A fresh state holds nothing, so :meth:`ResourceState.copy` costs
O(touched links and cores), which is what lets Algorithm 2 give every group
of every topology attempt its own state on a 16x16 mesh.  The state knows no
topology: paths come from the path selector, which enumerates only links
that exist and have not failed.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.noc.slot_table import lowest_set_bits, pipelined_free_mask
from repro.noc.topology import Link
from repro.params import MapperConfig, NoCParameters

__all__ = ["INFEASIBLE_COST", "PRUNE_MARGIN", "ResourceState"]

#: Cost value returned for paths that cannot possibly carry a flow.
INFEASIBLE_COST = float("inf")

#: relative pruning margin guaranteeing float-accumulation noise can never
#: misclassify the true winner (costs are bandwidth-scale, noise is ~ulp):
#: a candidate is skipped only when its cost lower bound exceeds the best
#: cost found by more than this fraction of it
PRUNE_MARGIN = 1e-9


class ResourceState:
    """Residual bandwidth and slot-table state of the NoC for one group.

    Per-pair methods take ``needed``, the slots the flow needs on each link
    (:func:`~repro.noc.slot_table.slots_needed_cached` of its bandwidth at
    :attr:`capacity` and :attr:`size`), or ``0`` for a best-effort flow,
    which reserves bandwidth but no slots.
    """

    __slots__ = ("capacity", "size", "full_mask", "link_residual", "free_masks",
                 "ingress", "egress")

    def __init__(self, params: NoCParameters) -> None:
        #: capacity of every link and NI access link (bytes/s)
        self.capacity = params.link_capacity
        #: slots per link slot table
        self.size = params.slot_table_size
        #: the free mask of an untouched link
        self.full_mask = (1 << self.size) - 1
        self.link_residual: Dict[Link, float] = {}
        self.free_masks: Dict[Link, int] = {}
        self.ingress: Dict[str, float] = {}
        self.egress: Dict[str, float] = {}

    def copy(self) -> "ResourceState":
        """An independent copy; only the touched entries are copied."""
        duplicate = ResourceState.__new__(ResourceState)
        duplicate.capacity = self.capacity
        duplicate.size = self.size
        duplicate.full_mask = self.full_mask
        duplicate.link_residual = dict(self.link_residual)
        duplicate.free_masks = dict(self.free_masks)
        duplicate.ingress = dict(self.ingress)
        duplicate.egress = dict(self.egress)
        return duplicate

    def path_cost(
        self,
        switch_path: Sequence[int],
        bandwidth: float,
        needed: int,
        config: MapperConfig,
    ) -> float:
        """Cost of routing a flow of ``bandwidth`` along ``switch_path``.

        The cost combines hop delay with residual-bandwidth and residual-slot
        pressure (paper §5 / ref [20]): longer paths and paths through
        already-loaded links cost more.  Paths whose links cannot carry the
        flow (too little residual bandwidth, or fewer than ``needed`` free
        slots on some link) return :data:`INFEASIBLE_COST`.
        """
        cost = config.hop_weight * (len(switch_path) - 1)
        link_residual = self.link_residual
        free_masks = self.free_masks
        capacity = self.capacity
        full = self.full_mask
        bandwidth_weight = config.bandwidth_weight
        slot_weight = config.slot_weight
        threshold = bandwidth - 1e-9
        for link in zip(switch_path, switch_path[1:]):
            residual = link_residual.get(link, capacity)
            if residual < threshold:
                return INFEASIBLE_COST
            cost += bandwidth_weight * (bandwidth / (residual if residual > 1e-9 else 1e-9))
            if needed:
                free = free_masks.get(link, full).bit_count()
                if free < needed:
                    return INFEASIBLE_COST
                # ``free >= needed >= 1`` here, so no clamping is required.
                cost += slot_weight * (needed / free)
        return cost

    def cost_per_hop_floor(
        self, bandwidth: float, needed: int, config: MapperConfig
    ) -> float:
        """The least :meth:`path_cost` charges per link, in any state.

        Each link of a path adds ``hop_weight``, ``bandwidth_weight ×
        bandwidth / residual`` and, for a guaranteed flow, ``slot_weight ×
        needed / free``.  A residual never exceeds :attr:`capacity`, a link
        never has more than :attr:`size` free slots and the weights are
        non-negative, so a path of ``h`` links costs at least ``h`` times
        this.  The float sum can undercut the product by a few ulps, which
        :data:`PRUNE_MARGIN` absorbs.
        """
        floor = config.hop_weight + config.bandwidth_weight * (bandwidth / self.capacity)
        if needed:
            floor += config.slot_weight * (needed / self.size)
        return floor

    def can_reserve(
        self,
        source_core: str,
        destination_core: str,
        switch_path: Sequence[int],
        bandwidth: float,
        needed: int,
    ) -> Optional[Tuple[int, ...]]:
        """The starting slots a reservation along the path gets, or ``None``.

        The reservation is feasible when the bandwidth fits on the source
        core's NI injection link, the destination core's NI ejection link
        and every link of the path, and ``needed`` pipelined slots are free:
        slot ``s + i`` (mod :attr:`size`) on the path's ``i``-th link for
        each starting slot ``s``.  The lowest admissible starts win.  A
        best-effort flow (``needed == 0``) and a same-switch path get ``()``.
        """
        threshold = bandwidth - 1e-9
        capacity = self.capacity
        if (
            self.ingress.get(source_core, capacity) < threshold
            or self.egress.get(destination_core, capacity) < threshold
        ):
            return None
        links = tuple(zip(switch_path, switch_path[1:]))
        link_residual = self.link_residual
        for link in links:
            if link_residual.get(link, capacity) < threshold:
                return None
        if not needed or not links:
            return ()
        free_masks = self.free_masks
        full = self.full_mask
        return lowest_set_bits(
            pipelined_free_mask([free_masks.get(link, full) for link in links], self.size),
            needed,
        )

    def reserve(
        self,
        source_core: str,
        destination_core: str,
        switch_path: Sequence[int],
        bandwidth: float,
        starts: Tuple[int, ...],
    ) -> None:
        """Commit a reservation :meth:`can_reserve` found feasible.

        Charges ``bandwidth`` on both NI access links and on every link of
        the path, and takes the starting slots on the first link, each
        advanced one slot per further hop.  Nothing is re-checked.
        """
        capacity = self.capacity
        self.ingress[source_core] = self.ingress.get(source_core, capacity) - bandwidth
        self.egress[destination_core] = self.egress.get(destination_core, capacity) - bandwidth
        links = tuple(zip(switch_path, switch_path[1:]))
        link_residual = self.link_residual
        for link in links:
            link_residual[link] = link_residual.get(link, capacity) - bandwidth
        if starts:
            size = self.size
            full = self.full_mask
            free_masks = self.free_masks
            taken = 0
            for start in starts:
                taken |= 1 << start
            for link in links:
                free_masks[link] = free_masks.get(link, full) & ~taken
                # the next hop carries every slot one position later
                taken = ((taken << 1) | (taken >> (size - 1))) & full

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ResourceState(links={len(self.link_residual)}, "
            f"cores={len(self.ingress)})"
        )

"""Unified multi-use-case mapping, path selection and slot reservation.

This module implements Algorithm 2 of the paper — the primary contribution:

1. Start from the smallest topology (a single switch) and grow it until a
   valid mapping exists (outer loop).
2. Sort the traffic flows of *all* use-cases together in non-increasing
   bandwidth order.
3. Repeatedly pick the largest remaining flow — preferring flows whose
   source or destination core is already mapped — and
4. choose a least-cost path for it; if its endpoints are unmapped, map them
   onto the switches at the ends of the chosen path.  Reserve bandwidth and
   TDMA slots for the flow.
5. For every *other* use-case that has a flow between the same pair of
   cores, select a least-cost path in **that use-case's own resource state**
   and reserve its resources there.  Use-cases inside the same
   smooth-switching group share one configuration, so their reservation is
   made once, in the group's shared state, sized for the largest bandwidth
   requirement among the group members.
6. Repeat until every flow of every use-case is mapped; if some flow cannot
   be placed, grow the topology and start over.

The key departure from the worst-case baseline (ref [25]) is step 5: each
use-case (or each smooth-switching group) owns an independent
:class:`~repro.noc.resources.ResourceState`, so traffic of use-cases that
never run simultaneously does not compete for the same bandwidth and slots.

Steps 4–5 for one core pair are written once:
:meth:`~repro.noc.routing.PathSelector.select_least_cost` ranks the pair's
candidate paths in the group's state and finds pipelined slots, and
:meth:`ResourceState.reserve <repro.noc.resources.ResourceState.reserve>`
commits them.  The constructive outer loop (:meth:`UnifiedMapper._attempt`)
and the fixed-placement evaluator the engine and the refiners use
(:meth:`UnifiedMapper.evaluate_group_fixed`) both place every pair through
those two calls.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.result import FlowAllocation, MappingResult, UseCaseConfiguration
from repro.core.switching import SwitchingGraph
from repro.core.usecase import Flow, TrafficClass, UseCase, UseCaseSet
from repro.exceptions import ConfigurationError, MappingError, SpecificationError
from repro.noc.resources import INFEASIBLE_COST, PRUNE_MARGIN, ResourceState
from repro.noc.routing import PathSelector
from repro.noc.slot_table import pipelined_link_slots, slots_needed_cached
from repro.noc.topology import Topology, mesh_growth_schedule
from repro.params import MapperConfig, NoCParameters
from repro.perf.latency import latency_hop_budget

__all__ = ["UnifiedMapper", "map_use_cases", "GroupRequirement"]

GroupSpec = Optional[Sequence[Iterable[str]]]


class _PairRequirement:
    """Aggregated requirement of one core pair within one configuration group.

    A plain ``__slots__`` value object (identity hash): the mapper creates
    one per (group, pair) per ``map`` call and compares them by identity, so
    dataclass equality machinery would only slow construction down.  ``pair``
    is read millions of times in the inner loop and is materialised once.
    """

    __slots__ = ("group_id", "source", "destination", "bandwidth", "latency",
                 "guaranteed", "pair")

    def __init__(
        self,
        group_id: int,
        source: str,
        destination: str,
        bandwidth: float,
        latency: float,
        guaranteed: bool,
    ) -> None:
        self.group_id = group_id
        self.source = source
        self.destination = destination
        self.bandwidth = bandwidth
        self.latency = latency
        self.guaranteed = guaranteed
        self.pair = (source, destination)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"_PairRequirement(group_id={self.group_id}, pair={self.pair}, "
            f"bandwidth={self.bandwidth:.3g}, latency={self.latency:.3g}, "
            f"guaranteed={self.guaranteed})"
        )


class GroupRequirement:
    """Per-pair aggregated traffic requirements of one smooth-switching group.

    Use-cases inside a group share one NoC configuration, so the group's slot
    tables must accommodate — for every core pair used by any member — the
    *largest* bandwidth and the *tightest* latency any member requires for
    that pair (the same rule the paper applies in step 6 of Algorithm 2).
    """

    def __init__(self, group_id: int, members: Sequence[UseCase]) -> None:
        self.group_id = group_id
        self.members: Tuple[UseCase, ...] = tuple(members)
        self.member_names: Tuple[str, ...] = tuple(uc.name for uc in members)
        # Accumulate per-pair maxima/minima in plain lists and build the
        # (immutable) requirement objects once per pair at the end, instead of
        # constructing a fresh dataclass instance on every merged flow.
        accumulated: Dict[Tuple[str, str], List] = {}
        for use_case in members:
            for flow in use_case.flows:
                guaranteed = flow.traffic_class == TrafficClass.GUARANTEED
                entry = accumulated.get(flow.pair)
                if entry is None:
                    accumulated[flow.pair] = [flow.bandwidth, flow.latency, guaranteed]
                else:
                    if flow.bandwidth > entry[0]:
                        entry[0] = flow.bandwidth
                    if flow.latency < entry[1]:
                        entry[1] = flow.latency
                    entry[2] = entry[2] or guaranteed
        self._pairs = self._build_pairs(group_id, accumulated.items())

    @staticmethod
    def _build_pairs(group_id, items) -> Dict[Tuple[str, str], _PairRequirement]:
        return {
            pair: _PairRequirement(
                group_id=group_id,
                source=pair[0],
                destination=pair[1],
                bandwidth=bandwidth,
                latency=latency,
                guaranteed=guaranteed,
            )
            for pair, (bandwidth, latency, guaranteed) in items
        }

    @classmethod
    def from_compiled(cls, group) -> "GroupRequirement":
        """Build a requirement from a :class:`~repro.core.spec.CompiledGroup`.

        The compiled group already aggregated its pair table (in the exact
        order this constructor would have), so no flow scan happens here —
        this is what lets the engine build requirements once per spec hash.
        """
        requirement = cls.__new__(cls)
        requirement.group_id = group.group_id
        requirement.members = group.members
        requirement.member_names = group.member_names
        requirement._pairs = cls._build_pairs(group.group_id, group.pair_table.items())
        return requirement

    @property
    def pair_requirements(self) -> Tuple[_PairRequirement, ...]:
        """All aggregated pair requirements of this group."""
        return tuple(self._pairs.values())

    def requirement_for(self, pair: Tuple[str, str]) -> Optional[_PairRequirement]:
        """The aggregated requirement of one core pair, or ``None``."""
        return self._pairs.get(pair)

    def core_loads(self) -> Tuple[Dict[str, float], Dict[str, float]]:
        """(egress, ingress) aggregated bandwidth per core for this group."""
        egress: Dict[str, float] = {}
        ingress: Dict[str, float] = {}
        for req in self._pairs.values():
            egress[req.source] = egress.get(req.source, 0.0) + req.bandwidth
            ingress[req.destination] = ingress.get(req.destination, 0.0) + req.bandwidth
        return egress, ingress


class _Worklist:
    """Bandwidth-sorted pair requirements plus pure indexes over them.

    Step 2 of Algorithm 2 sorts the aggregated pair requirements of all
    groups once; the sort and the derived lookup tables depend only on the
    requirements, so they are built once per ``map`` call and shared by
    every topology attempt of the outer loop.
    """

    def __init__(self, requirements: Sequence[GroupRequirement]) -> None:
        items: List[_PairRequirement] = [
            req for requirement in requirements for req in requirement.pair_requirements
        ]
        items.sort(key=lambda req: (-req.bandwidth, req.source, req.destination, req.group_id))
        self.items: Tuple[_PairRequirement, ...] = tuple(items)
        self.by_pair: Dict[Tuple[str, str], List[_PairRequirement]] = {}
        self.by_endpoint: Dict[str, List[int]] = {}
        self.position_of: Dict[_PairRequirement, int] = {}
        for position, req in enumerate(items):
            self.by_pair.setdefault(req.pair, []).append(req)
            self.position_of[req] = position
            self.by_endpoint.setdefault(req.source, []).append(position)
            if req.destination != req.source:
                self.by_endpoint.setdefault(req.destination, []).append(position)
        self._placement_sequence: Optional[Tuple[_PairRequirement, ...]] = None

    def placement_sequence(self) -> Tuple[_PairRequirement, ...]:
        """The order pairs are placed in when every core is already mapped.

        With a complete initial placement the "prefer mapped endpoints"
        tie-break never fires, so the main loop's processing order is a pure
        function of the worklist: repeatedly take the first live item and
        then every other live requirement of the same core pair.  The
        engine's fixed-placement evaluator replays this exact order without
        the per-candidate ``done``/head bookkeeping.
        """
        if self._placement_sequence is not None:
            return self._placement_sequence
        done = [False] * len(self.items)
        order: List[_PairRequirement] = []
        head = 0
        remaining = len(self.items)
        while remaining:
            while done[head]:
                head += 1
            chosen = self.items[head]
            for req in self.by_pair[chosen.pair]:
                position = self.position_of[req]
                if done[position]:
                    continue
                done[position] = True
                order.append(req)
                remaining -= 1
        self._placement_sequence = tuple(order)
        return self._placement_sequence


class _AttemptAccounting:
    """Live bookkeeping for one topology attempt of Algorithm 2.

    Replaces the per-query rescans of the seed implementation with data kept
    current on every core attachment:

    * ``occupancy`` — cores per switch (was rebuilt from the whole core
      mapping inside every ``_placement_candidates`` call);
    * ``nearest_core`` — per switch, the hop distance to the closest placed
      core (was an O(switches × placed-cores) scan per call);
    * ``preferred`` — a min-heap of bandwidth-order positions of pending
      pair requirements whose endpoint just became mapped, giving the
      paper's "prefer flows with mapped endpoints" tie-break in O(log n)
      instead of a linear scan over the pending list.
    """

    def __init__(self, topology: Topology, worklist: _Worklist) -> None:
        self.topology = topology
        switches = topology.switches
        # Occupancy keys double as the placement-candidate universe, so a
        # degraded topology's failed switches are excluded here: free
        # placement never even considers them.
        self.occupancy: Dict[int, int] = {
            sw.index: 0 for sw in switches if not topology.is_switch_down(sw.index)
        }
        self._positions = {sw.index: sw.position for sw in switches}
        #: per-switch distance to the nearest placed core; None until the
        #: first core is attached (the spacing term is constant then).
        self.nearest_core: Optional[Dict[int, int]] = None
        #: heap of item positions whose source/destination is mapped
        self.preferred: List[int] = []
        self._by_endpoint = worklist.by_endpoint

    def _distance(self, first: int, second: int) -> int:
        """Grid distance between two switches, for the placement heuristic.

        Manhattan distance wherever both switches have a grid position,
        which ignores a torus's wraparound links; the shortest hop count
        only where a position is missing (decided per pair).  It ranks
        placement candidates and sets the core spacing, and that behaviour
        is kept as it is.  It is not a hop count, so the placement scan's
        cost bound must not use it: that bound takes
        :meth:`Topology.hop_lower_bound <repro.noc.topology.Topology.hop_lower_bound>`.
        """
        a = self._positions[first]
        b = self._positions[second]
        if a is not None and b is not None:
            return abs(a[0] - b[0]) + abs(a[1] - b[1])
        return self.topology.shortest_hop_count(first, second)

    def on_attach(self, core: str, switch: int) -> None:
        """Fold one core attachment into the live tables."""
        self.occupancy[switch] += 1
        if self.nearest_core is None:
            self.nearest_core = {
                index: self._distance(index, switch) for index in self.occupancy
            }
        else:
            nearest = self.nearest_core
            for index in nearest:
                distance = self._distance(index, switch)
                if distance < nearest[index]:
                    nearest[index] = distance
        for position in self._by_endpoint.get(core, ()):
            heapq.heappush(self.preferred, position)


class UnifiedMapper:
    """The paper's unified mapping / path-selection / slot-reservation engine."""

    def __init__(
        self,
        params: NoCParameters | None = None,
        config: MapperConfig | None = None,
    ) -> None:
        self.params = params or NoCParameters()
        self.config = config or MapperConfig()
        #: small identity-keyed LRU of PathSelectors: the refinement passes
        #: evaluate hundreds of placements on one topology and reuse its
        #: candidate-path cache through this, while the bound keeps the
        #: outer loop's discarded topologies from accumulating.
        self._selector_cache: "OrderedDict[int, Tuple[Topology, PathSelector]]" = (
            OrderedDict()
        )
        #: the empty group state every attempt and every fixed-placement
        #: evaluation copies once per group (a state knows no topology)
        self._pristine = ResourceState(self.params)
        #: live accounting of the attempt currently in flight (None outside)
        self._acct: Optional[_AttemptAccounting] = None
        #: (latency, slots owned) -> hop budget memo: the only inputs of
        #: latency_hop_budget besides params, so it stays as small as the
        #: number of distinct keys however much the traffic varies
        self._hop_budget_cache: Dict[Tuple[float, int], int] = {}
        #: id(plan) -> (plan, per-entry hop budgets) for engine evaluation
        #: plans; the entry pins the plan list so its id cannot be recycled
        #: while the entry exists, and the identity check guards against a
        #: key surviving its plan (bounded LRU)
        self._plan_budget_cache: "OrderedDict[int, Tuple[object, Tuple[Optional[int], ...]]]" = (
            OrderedDict()
        )

    #: number of (topology, PathSelector) pairs kept alive per mapper
    _SELECTOR_CACHE_SIZE = 4

    def _selector_for(self, topology: Topology) -> PathSelector:
        # Keyed by object identity; the cached entry keeps the topology
        # alive, so its id cannot be reused while the entry exists (the
        # ``is`` check is defence in depth).
        key = id(topology)
        entry = self._selector_cache.get(key)
        if entry is not None and entry[0] is topology:
            self._selector_cache.move_to_end(key)
            return entry[1]
        selector = PathSelector(topology, self.config)
        self._selector_cache[key] = (topology, selector)
        if len(self._selector_cache) > self._SELECTOR_CACHE_SIZE:
            self._selector_cache.popitem(last=False)
        return selector

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def map(
        self,
        use_cases: UseCaseSet,
        groups: GroupSpec = None,
        switching_graph: Optional[SwitchingGraph] = None,
        method_name: str = "unified",
    ) -> MappingResult:
        """Map a multi-use-case design onto the smallest feasible topology.

        Parameters
        ----------
        use_cases:
            The (already compound-expanded) use-case set.
        groups:
            Explicit smooth-switching groups as collections of use-case
            names.  When omitted, ``switching_graph`` is consulted; when
            that is also omitted every use-case forms its own group (fully
            re-configurable NoC).
        switching_graph:
            A :class:`SwitchingGraph` whose connected components define the
            groups (Algorithm 1).
        method_name:
            Recorded in the result (the worst-case baseline re-uses this
            engine with a different name).

        Returns
        -------
        MappingResult
            The smallest topology, shared core mapping and per-use-case
            configurations.

        Raises
        ------
        MappingError
            When no topology up to ``config.max_switches`` switches can
            satisfy every use-case's constraints.
        """
        use_cases.validate()
        resolved_groups = self._resolve_groups(use_cases, groups, switching_graph)
        requirements = [
            GroupRequirement(group_id, [use_cases[name] for name in sorted(group)])
            for group_id, group in enumerate(resolved_groups)
        ]
        return self.map_requirements(
            list(use_cases.all_core_names()),
            requirements,
            _Worklist(requirements),
            resolved_groups,
            method_name,
        )

    def map_requirements(
        self,
        all_core_names: Sequence[str],
        requirements: Sequence[GroupRequirement],
        worklist: _Worklist,
        resolved_groups: Tuple[FrozenSet[str], ...],
        method_name: str = "unified",
    ) -> MappingResult:
        """Run the outer topology-growth loop over prebuilt requirements.

        This is the engine-facing entry point: :class:`MappingEngine` caches
        ``requirements`` and ``worklist`` per spec hash and grouping, so
        repeated mappings of the same specification skip the aggregation and
        sorting phases entirely.  Semantics are identical to :meth:`map`.
        """
        if self.config.enable_quick_infeasibility_check:
            self._quick_infeasibility_check(requirements)
        attempted: List[str] = []
        for topology in self._topology_schedule(len(all_core_names)):
            attempted.append(topology.name)
            outcome = self._attempt(topology, all_core_names, requirements, worklist)
            if outcome is not None:
                core_mapping, configurations = outcome
                return MappingResult(
                    method=method_name,
                    topology=topology,
                    params=self.params,
                    config=self.config,
                    core_mapping=core_mapping,
                    groups=resolved_groups,
                    configurations=configurations,
                    attempted_topologies=attempted,
                )
        use_case_count = sum(len(req.member_names) for req in requirements)
        raise MappingError(
            f"no topology with up to {self.config.max_switches} switches satisfies "
            f"the constraints of {use_case_count} use-case(s)",
            largest_topology=attempted[-1] if attempted else None,
        )

    # ------------------------------------------------------------------ #
    # group resolution and feasibility pre-checks
    # ------------------------------------------------------------------ #
    def _resolve_groups(
        self,
        use_cases: UseCaseSet,
        groups: GroupSpec,
        switching_graph: Optional[SwitchingGraph],
    ) -> Tuple[FrozenSet[str], ...]:
        if groups is not None and switching_graph is not None:
            raise ConfigurationError("pass either explicit groups or a switching graph, not both")
        if groups is None and switching_graph is None:
            return tuple(frozenset({name}) for name in use_cases.names)
        if switching_graph is not None:
            resolved = [frozenset(group) for group in switching_graph.groups()]
        else:
            resolved = [frozenset(group) for group in groups or ()]
        covered: Set[str] = set()
        for group in resolved:
            for name in group:
                if name not in use_cases:
                    raise SpecificationError(f"group references unknown use-case {name!r}")
                if name in covered:
                    raise SpecificationError(f"use-case {name!r} appears in more than one group")
                covered.add(name)
        missing = [name for name in use_cases.names if name not in covered]
        resolved.extend(frozenset({name}) for name in missing)
        return tuple(resolved)

    def _quick_infeasibility_check(self, requirements: Sequence[GroupRequirement]) -> None:
        """Fail fast when no topology of any size could carry the traffic.

        Every flow must cross its source core's NI injection link and its
        destination core's NI ejection link, whose capacity equals one link
        capacity regardless of topology size.  If any group requires more
        than that from a single core, growing the mesh cannot help — this is
        what makes the worst-case baseline fail outright on the 40-use-case
        benchmarks in the paper.
        """
        capacity = self.params.link_capacity
        for requirement in requirements:
            for req in requirement.pair_requirements:
                if req.bandwidth > capacity + 1e-9:
                    raise MappingError(
                        f"flow {req.source}->{req.destination} needs "
                        f"{req.bandwidth:.3g} B/s which exceeds the link capacity "
                        f"{capacity:.3g} B/s at {self.params.frequency_hz / 1e6:.0f} MHz",
                        largest_topology=None,
                    )
            egress, ingress = requirement.core_loads()
            for core, load in egress.items():
                if load > capacity + 1e-9:
                    raise MappingError(
                        f"core {core!r} must source {load:.3g} B/s in group "
                        f"{requirement.group_id}, exceeding its NI injection capacity "
                        f"{capacity:.3g} B/s; no topology size can fix this",
                        largest_topology=None,
                    )
            for core, load in ingress.items():
                if load > capacity + 1e-9:
                    raise MappingError(
                        f"core {core!r} must sink {load:.3g} B/s in group "
                        f"{requirement.group_id}, exceeding its NI ejection capacity "
                        f"{capacity:.3g} B/s; no topology size can fix this",
                        largest_topology=None,
                    )

    def _topology_schedule(self, core_count: int) -> Iterable[Topology]:
        """The outer-loop topology growth schedule of Algorithm 2."""
        limit = self.params.max_cores_per_switch
        kind = self.params.topology_kind
        if kind == "ring":
            sizes = range(max(1, self.config.min_switches), self.config.max_switches + 1)
            for count in sizes:
                if limit is not None and count * limit < core_count:
                    continue
                yield Topology.ring(count)
            return
        builder = Topology.mesh if kind == "mesh" else Topology.torus
        for rows, cols in mesh_growth_schedule(self.config.max_switches):
            count = rows * cols
            if count < self.config.min_switches:
                continue
            if limit is not None and count * limit < core_count:
                continue
            yield builder(rows, cols)

    # ------------------------------------------------------------------ #
    # one topology attempt
    # ------------------------------------------------------------------ #
    def map_with_placement(
        self,
        use_cases: UseCaseSet,
        topology: Topology,
        placement: Mapping[str, int],
        groups: GroupSpec = None,
        switching_graph: Optional[SwitchingGraph] = None,
        method_name: str = "unified-fixed-placement",
        validate: bool = True,
    ) -> MappingResult:
        """Map a design onto a *fixed* topology and core placement.

        Used by the refinement passes (:mod:`repro.optimize`), which explore
        alternative placements by swapping cores: path selection and slot
        reservation are re-run from scratch for the given placement.  Such
        callers validate the design once up front and pass
        ``validate=False`` to skip re-validation on every candidate.

        Raises :class:`MappingError` when the placement cannot satisfy every
        use-case's constraints on this topology.
        """
        if validate:
            use_cases.validate()
        resolved_groups = self._resolve_groups(use_cases, groups, switching_graph)
        requirements = [
            GroupRequirement(group_id, [use_cases[name] for name in sorted(group)])
            for group_id, group in enumerate(resolved_groups)
        ]
        outcome = self._attempt(
            topology, list(use_cases.all_core_names()), requirements,
            _Worklist(requirements), initial_placement=placement,
        )
        if outcome is None:
            raise MappingError(
                f"placement is infeasible on topology {topology.name!r}",
                largest_topology=topology.name,
            )
        core_mapping, configurations = outcome
        return MappingResult(
            method=method_name,
            topology=topology,
            params=self.params,
            config=self.config,
            core_mapping=core_mapping,
            groups=resolved_groups,
            configurations=configurations,
            attempted_topologies=(topology.name,),
        )

    def evaluate_group_fixed(
        self,
        topology: Topology,
        plan: Sequence[Tuple[_PairRequirement, Tuple[Tuple[str, Flow], ...]]],
        placement: Mapping[str, int],
    ) -> Optional[List[Tuple[Tuple[int, ...], Tuple[int, ...]]]]:
        """Evaluate one configuration group under a complete core placement.

        ``plan`` is the group's slice of the worklist's placement sequence,
        each entry pairing the aggregated requirement with the (member name,
        member flow) records to emit for it.  Returns one ``(switch path,
        starting slots)`` decision per plan entry, in plan order (no starts
        for best-effort flows and same-switch paths), or ``None`` when the
        group cannot be mapped — exactly the decisions :meth:`_attempt`
        makes for this group when every endpoint is pre-placed.  With a
        complete placement the group's resource state evolves independently
        of every other group, so evaluating it alone on a pristine state,
        through the same :meth:`PathSelector.select_least_cost` and
        :meth:`ResourceState.reserve` calls, is exact (this is what makes
        per-group caching in the engine sound).
        """
        select = self._selector_for(topology).select_least_cost
        state = self._pristine.copy()
        decisions: List[Tuple[Tuple[int, ...], Tuple[int, ...]]] = []
        for (req, _members), max_hops in zip(plan, self._budgets_for(plan)):
            if max_hops is not None and max_hops < 0:
                return None
            source = req.source
            destination = req.destination
            selection = select(
                state, source, destination, placement[source], placement[destination],
                req.bandwidth, req.guaranteed, max_hops,
            )
            if selection is None:
                return None
            path, starts = selection
            state.reserve(source, destination, path, req.bandwidth, starts)
            decisions.append(selection)
        return decisions

    def _attempt(
        self,
        topology: Topology,
        all_cores: Sequence[str],
        requirements: Sequence[GroupRequirement],
        worklist: _Worklist,
        initial_placement: Optional[Mapping[str, int]] = None,
    ) -> Optional[Tuple[Dict[str, int], Dict[str, UseCaseConfiguration]]]:
        """Try to map every flow onto one fixed topology.

        Returns ``None`` when some flow cannot be placed (the caller then
        grows the topology); otherwise returns the core mapping and the
        per-use-case configurations.  ``initial_placement`` pre-attaches
        cores to switches (used by :meth:`map_with_placement`).
        """
        selector = self._selector_for(topology)
        states: Dict[int, ResourceState] = {
            requirement.group_id: self._pristine.copy() for requirement in requirements
        }
        configurations: Dict[str, UseCaseConfiguration] = {}
        for requirement in requirements:
            for name in requirement.member_names:
                configurations[name] = UseCaseConfiguration(name, requirement.group_id)

        # Step 2 (bandwidth-sorted items plus lookup indexes) was computed
        # once by the caller and is shared across topology attempts.
        items = worklist.items
        by_pair = worklist.by_pair
        position_of = worklist.position_of

        core_mapping: Dict[str, int] = {}
        # Used by the placement heuristic to derive the target core spacing.
        self._core_count_hint = len(all_cores)
        acct = _AttemptAccounting(topology, worklist)
        self._acct = acct
        try:
            if initial_placement is not None:
                if self.placement_fault(topology, initial_placement) is not None:
                    return None
                for core, switch in initial_placement.items():
                    self._attach(core, switch, core_mapping)

            # The pending set is the bandwidth-sorted ``items`` list with lazy
            # deletion: ``done`` flags placed requirements, ``head`` tracks the
            # first live entry and the accounting heap yields the first live
            # requirement with a mapped endpoint — both O(log n) per step
            # where the seed rebuilt an O(n) list per placed pair.
            done = [False] * len(items)
            remaining = len(items)
            head = 0
            prefer_configured = self.config.prefer_mapped_endpoints
            core_count = len(all_cores)
            preferred = acct.preferred
            while remaining:
                # Step 3: choose the largest remaining flow, preferring flows
                # with already-mapped endpoints while unmapped cores remain.
                chosen: Optional[_PairRequirement] = None
                if prefer_configured and core_mapping and len(core_mapping) < core_count:
                    while preferred:
                        position = heapq.heappop(preferred)
                        if not done[position]:
                            chosen = items[position]
                            break
                if chosen is None:
                    while done[head]:
                        head += 1
                    chosen = items[head]
                # Steps 4-6: place this pair in the chosen group first, then in
                # every other group that communicates between the same cores.
                ordered = by_pair[chosen.pair]
                rest = [req for req in ordered if req is not chosen]
                for req in [chosen] + rest:
                    position = position_of[req]
                    if done[position]:
                        continue
                    success = self._place_pair(
                        req, states[req.group_id], selector, core_mapping,
                        requirements, configurations,
                    )
                    if not success:
                        return None
                    done[position] = True
                    remaining -= 1

            # Attach cores that have no traffic at all so the mapping is complete.
            for core in all_cores:
                if core not in core_mapping:
                    switch = self._switch_with_room(topology, core_mapping)
                    if switch is None:
                        return None
                    self._attach(core, switch, core_mapping)
            return core_mapping, configurations
        finally:
            self._acct = None

    # ------------------------------------------------------------------ #
    # placing a single pair requirement
    # ------------------------------------------------------------------ #
    def _place_pair(
        self,
        req: _PairRequirement,
        state: ResourceState,
        selector: PathSelector,
        core_mapping: Dict[str, int],
        requirements: Sequence[GroupRequirement],
        configurations: Dict[str, UseCaseConfiguration],
    ) -> bool:
        max_hops = self._hop_budget(req)
        if max_hops is not None and max_hops < 0:
            return False
        source = req.source
        destination = req.destination
        bandwidth = req.bandwidth
        source_switch = core_mapping.get(source)
        destination_switch = core_mapping.get(destination)

        if source_switch is None or destination_switch is None:
            needed = (
                slots_needed_cached(bandwidth, state.capacity, state.size)
                if req.guaranteed else 0
            )
            placement = self._choose_placement(
                req, state, selector, core_mapping, max_hops, needed
            )
            if placement is None:
                return False
            source_switch, destination_switch, path = placement
            if source not in core_mapping:
                self._attach(source, source_switch, core_mapping)
            if destination not in core_mapping:
                self._attach(destination, destination_switch, core_mapping)
            starts = state.can_reserve(source, destination, path, bandwidth, needed)
            if starts is None:
                return False
        else:
            selection = selector.select_least_cost(
                state, source, destination, source_switch, destination_switch,
                bandwidth, req.guaranteed, max_hops,
            )
            if selection is None:
                return False
            path, starts = selection
        state.reserve(source, destination, path, bandwidth, starts)

        # Record the allocation for every member use-case that has this flow,
        # carrying the member's own bandwidth/latency (the shared path and
        # slot assignment come from the group configuration).
        link_slots = pipelined_link_slots(path, starts, state.size)
        for use_case in requirements[req.group_id].members:
            flow = use_case.flow_between(source, destination)
            if flow is None:
                continue
            configurations[use_case.name].add(
                FlowAllocation(
                    use_case=use_case.name,
                    flow=flow,
                    switch_path=path,
                    link_slots=dict(link_slots),
                )
            )
        return True

    #: number of evaluation plans whose hop budgets are kept per mapper
    _BUDGET_CACHE_SIZE = 64

    def _budgets_for(self, plan) -> Tuple[Optional[int], ...]:
        """Per-entry hop budgets of one evaluation plan, computed once."""
        key = id(plan)
        entry = self._plan_budget_cache.get(key)
        if entry is not None and entry[0] is plan:
            self._plan_budget_cache.move_to_end(key)
            return entry[1]
        budgets = tuple(self._hop_budget(req) for req, _members in plan)
        self._plan_budget_cache[key] = (plan, budgets)
        if len(self._plan_budget_cache) > self._BUDGET_CACHE_SIZE:
            self._plan_budget_cache.popitem(last=False)
        return budgets

    def _hop_budget(self, req: _PairRequirement) -> Optional[int]:
        """Maximum hop count allowed by the pair's latency constraint."""
        if not self.config.check_latency or not req.guaranteed:
            return None
        owned = slots_needed_cached(
            req.bandwidth, self.params.link_capacity, self.params.slot_table_size
        )
        key = (req.latency, owned)
        cache = self._hop_budget_cache
        budget = cache.get(key)
        if budget is None:
            budget = cache[key] = latency_hop_budget(req.latency, owned, self.params)
        return budget

    def _choose_placement(
        self,
        req: _PairRequirement,
        state: ResourceState,
        selector: PathSelector,
        core_mapping: Mapping[str, int],
        max_hops: Optional[int],
        needed: int,
    ) -> Optional[Tuple[int, int, Tuple[int, ...]]]:
        """Pick switches for unmapped endpoints and the path between them.

        Implements the paper's "map them onto the NIs on the ends of the
        chosen path": every admissible (source switch, destination switch)
        combination is scored by the cheapest candidate path between the two
        switches in the group's resource state, and the overall cheapest
        combination wins.  ``needed`` is the pair's slot demand per link.

        Combinations are priced in ascending order of a lower bound on any
        of their paths' costs, the topology's
        :meth:`~repro.noc.topology.Topology.hop_lower_bound` times the
        state's :meth:`~repro.noc.resources.ResourceState.cost_per_hop_floor`,
        and the scan stops at the first bound above the best cost plus its
        :data:`~repro.noc.resources.PRUNE_MARGIN`.  A skipped combination
        cannot win, and the winner is the least ``(cost, source switch,
        destination switch, path)``, so the scan order never changes it.  A
        combination with no admissible path (a failure cut the switches
        apart) cannot host the flow and is skipped.
        """
        topology = selector.topology
        source_fixed = core_mapping.get(req.source)
        destination_fixed = core_mapping.get(req.destination)
        # Anchor the candidate pools near the already-placed counterpart (or
        # near the centroid of everything placed so far) so the pool offers
        # spatially compact, routing-diverse options instead of degenerating
        # into one row of a large mesh.
        anchor = source_fixed if source_fixed is not None else destination_fixed
        if anchor is None:
            anchor = self._centroid_switch(topology, core_mapping)
        source_candidates = (
            [source_fixed]
            if source_fixed is not None
            else self._placement_candidates(topology, core_mapping, anchor)
        )
        destination_candidates = (
            [destination_fixed]
            if destination_fixed is not None
            else self._placement_candidates(topology, core_mapping, anchor)
        )
        if not source_candidates or not destination_candidates:
            return None

        hop_bound = topology.hop_lower_bound
        by_hops: Dict[int, List[Tuple[int, int]]] = {}
        for source_switch in source_candidates:
            for destination_switch in destination_candidates:
                if (
                    source_switch == destination_switch
                    and req.source != req.destination
                    and source_fixed is None
                    and destination_fixed is None
                ):
                    # Both cores on one switch: allowed only if the switch has
                    # room for two more cores.
                    limit = self.params.max_cores_per_switch
                    occupied = self._acct.occupancy[source_switch]
                    if limit is not None and occupied + 2 > limit:
                        continue
                hops = hop_bound(source_switch, destination_switch)
                by_hops.setdefault(hops, []).append((source_switch, destination_switch))

        floor = state.cost_per_hop_floor(req.bandwidth, needed, self.config)
        best: Optional[Tuple[float, int, int, Tuple[int, ...]]] = None
        for hops in sorted(by_hops):
            if max_hops is not None and hops > max_hops:
                break
            if best is not None and hops * floor > best[0] + PRUNE_MARGIN * abs(best[0]):
                break
            for source_switch, destination_switch in by_hops[hops]:
                for path in selector.admissible_paths(source_switch, destination_switch):
                    if max_hops is not None and len(path) - 1 > max_hops:
                        continue
                    cost = state.path_cost(path, req.bandwidth, needed, self.config)
                    if cost == INFEASIBLE_COST:
                        continue
                    key = (cost, source_switch, destination_switch, path)
                    if best is None or key < best:
                        best = key
        if best is None:
            return None
        _, source_switch, destination_switch, path = best
        return source_switch, destination_switch, path

    def _placement_candidates(
        self,
        topology: Topology,
        core_mapping: Mapping[str, int],
        anchor: Optional[int] = None,
    ) -> List[int]:
        """Switches that can still accept a core, closest to the anchor first.

        The anchor is the switch of the already-mapped flow endpoint (or the
        centroid of all placed cores); ordering candidates by distance from
        it keeps the placement spatially compact and, crucially, keeps path
        diversity available on large meshes — a pool of the N least-occupied
        switches alone would line the cores up along the lowest switch
        indices and starve colinear pairs of alternative minimal paths.
        """
        limit = self.params.max_cores_per_switch
        acct = self._acct
        assert acct is not None and acct.topology is topology, (
            "placement accounting not initialised for this topology"
        )
        occupancy = acct.occupancy
        candidates = [
            index
            for index, count in occupancy.items()
            if limit is None or count < limit
        ]
        if anchor is None:
            anchor = self._centroid_switch(topology, core_mapping)
        distances = {index: acct._distance(anchor, index) for index in candidates}
        # Larger topologies are only useful if the cores actually spread out
        # over them (that is what adds link capacity between the cores), so
        # aim for an inter-core spacing proportional to the available area.
        spacing = self._target_spacing(topology, core_mapping)
        nearest_core = (
            acct.nearest_core
            if acct.nearest_core is not None
            else {index: spacing for index in candidates}
        )
        # Least-occupied first so cores spread over distinct switches, then
        # prefer switches whose distance to the nearest placed core matches
        # the target spacing, then stay close to the anchor.
        candidates.sort(
            key=lambda index: (
                occupancy[index],
                abs(nearest_core[index] - spacing),
                distances[index],
                index,
            )
        )
        return candidates[: self.config.placement_candidates]

    def _target_spacing(self, topology: Topology, core_mapping: Mapping[str, int]) -> int:
        """Desired distance between neighbouring cores on this topology.

        Roughly ``sqrt(switches / cores)``: on a mesh just big enough to host
        the cores this is 1 (adjacent placement); on the large meshes the
        worst-case baseline is forced to, cores spread out so the links
        between them actually add capacity.
        """
        cores_total = max(1, len(core_mapping) + 1)
        # Estimate with the full core count once known; fall back to the
        # number already placed plus one during the first placements.
        estimated = max(cores_total, getattr(self, "_core_count_hint", cores_total))
        ratio = topology.switch_count / estimated
        return max(1, int(round(ratio ** 0.5)))

    @staticmethod
    def _centroid_switch(topology: Topology, core_mapping: Mapping[str, int]) -> int:
        """The switch nearest the centroid of all placed cores (mesh centre when empty)."""
        switches = topology.switches
        positioned = all(sw.position is not None for sw in switches)
        if not positioned:
            return switches[len(switches) // 2].index
        if core_mapping:
            rows = [topology.switch(sw).row for sw in core_mapping.values()]
            cols = [topology.switch(sw).col for sw in core_mapping.values()]
            target = (sum(rows) / len(rows), sum(cols) / len(cols))
        else:
            rows = [sw.row for sw in switches]
            cols = [sw.col for sw in switches]
            target = (sum(rows) / len(rows), sum(cols) / len(cols))
        best = min(
            switches,
            key=lambda sw: (abs(sw.row - target[0]) + abs(sw.col - target[1]), sw.index),
        )
        return best.index

    def _switch_with_room(
        self, topology: Topology, core_mapping: Mapping[str, int]
    ) -> Optional[int]:
        candidates = self._placement_candidates(topology, core_mapping)
        return candidates[0] if candidates else None

    def placement_fault(
        self, topology: Topology, placement: Mapping[str, int]
    ) -> Optional[str]:
        """Why a placement is invalid on a topology, or ``None`` if it is valid.

        The one placement-validity check: switch indices exist (an unknown
        index raises through ``topology.switch``), switches are alive, and
        the per-switch core limit holds.  :meth:`_attempt` applies it to an
        initial placement; the engine and the candidate screen apply it
        before evaluating any group.
        """
        limit = self.params.max_cores_per_switch
        occupancy: Dict[int, int] = {}
        for core, switch in placement.items():
            topology.switch(switch)
            if topology.is_switch_down(switch):
                return (
                    f"placement puts core {core!r} on failed switch {switch} "
                    f"of {topology.name!r}"
                )
            occupancy[switch] = occupancy.get(switch, 0) + 1
            if limit is not None and occupancy[switch] > limit:
                return f"placement is infeasible on topology {topology.name!r}"
        return None

    def _attach(self, core: str, switch: int, core_mapping: Dict[str, int]) -> None:
        """Attach a core to a switch in the shared mapping and the accounting."""
        core_mapping[core] = switch
        self._acct.on_attach(core, switch)


def map_use_cases(
    use_cases: UseCaseSet,
    params: NoCParameters | None = None,
    config: MapperConfig | None = None,
    groups: GroupSpec = None,
    switching_graph: Optional[SwitchingGraph] = None,
) -> MappingResult:
    """Convenience wrapper around :class:`UnifiedMapper` for one-shot mapping."""
    mapper = UnifiedMapper(params=params, config=config)
    return mapper.map(use_cases, groups=groups, switching_graph=switching_graph)

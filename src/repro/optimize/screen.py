"""Batched candidate screening for the refinement hot loop.

The refiners evaluate hundreds of neighbour placements per run, and almost
all of that budget is spent re-deriving per-group mapping decisions the
engine has not cached yet.  This module provides a
:class:`CandidateScreen` bound to one (engine, spec, grouping, topology)
refinement context that answers candidate costs in two tiers, cheapest
first:

1. **Run-local memo** — a (group, endpoint projection) that was already
   screened this run returns its per-use-case cost sums immediately
   (``screen_hits`` in :meth:`MappingEngine.cache_info`).
2. **Engine recall or compute** — the engine's recall-or-compute path
   (:meth:`MappingEngine._group_outcome`) consults the evaluation cache and
   the attached :class:`~repro.jobs.store.EngineStateStore` with the exact
   counters the unscreened path reports (``evaluation_hits`` /
   ``imported_evaluations``), and otherwise computes the group with
   :meth:`UnifiedMapper.evaluate_group_fixed`, the one fixed-placement
   evaluator (``screen_misses`` counts those computations; they are also
   ``evaluation_misses``).

Bit-identity is the contract everything else hangs off: costs come from the
same cached decisions the unscreened path uses, every float accumulation
keeps its operation order, and only provably-losing candidates may be
skipped by callers (see :meth:`CandidateScreen.screen`'s lower bounds).
``tests/test_screen.py`` pins this against the unscreened walk.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.exceptions import MappingError
from repro.noc.resources import PRUNE_MARGIN

__all__ = ["CandidateScreen", "ScreenedCandidate"]


class ScreenedCandidate:
    """Batch-screening verdict for one candidate placement.

    ``admissible`` is ``False`` only when the scalar path would provably
    reject the candidate (placement validation failed, or a group's
    endpoint projection is a memoised infeasibility) — skipping such a
    candidate is decision-identical to evaluating it.  ``cost`` is the
    exact communication cost when every group projection was already
    memoised this run, else ``None``.  ``lower_bound`` never exceeds the
    exact cost of a feasible candidate by more than float-accumulation
    noise: unknown groups contribute Σ bandwidth × shortest-hop-distance
    (chosen paths can only be longer), known groups contribute their exact
    sums.  Callers may therefore skip candidates whose lower bound exceeds
    a strictly better cost plus a relative margin.
    """

    __slots__ = ("admissible", "cost", "lower_bound")

    def __init__(self, admissible: bool, cost: Optional[float], lower_bound: float) -> None:
        self.admissible = admissible
        self.cost = cost
        self.lower_bound = lower_bound

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ScreenedCandidate(admissible={self.admissible}, "
            f"cost={self.cost}, lower_bound={self.lower_bound})"
        )


class CandidateScreen:
    """Batched admissibility / cost screening for one refinement context.

    Built by :meth:`MappingEngine.screener`; holds the compiled bundle and
    topology the refiners loop over.  :meth:`cost` is the exact drop-in for
    :meth:`MappingEngine.placement_cost` (returning ``None`` where the
    engine raises :class:`MappingError`); :meth:`screen` batches the cheap
    admissibility and lower-bound pass over a whole neighbour set.
    """

    def __init__(self, engine, spec, resolved, bundle, topology) -> None:
        self._engine = engine
        self._spec = spec
        self._resolved = resolved
        self._bundle = bundle
        self._topology = topology
        #: (group_id, projection) -> name-sums tuple | None (infeasibility)
        self._memo: Dict[Tuple[int, Tuple[int, ...]], Optional[Tuple[float, ...]]] = {}
        #: (switch, switch) -> shortest hop count (lower-bound distances)
        self._distance_memo: Dict[Tuple[int, int], int] = {}
        core_names = bundle.spec_core_names
        self._core_names = core_names
        #: per group: (source position, destination position, bandwidth) per
        #: member flow, positions indexing the group's endpoint projection —
        #: the ingredients of the distance lower bound
        self._lb_terms: Dict[int, List[Tuple[int, int, float]]] = {}
        for requirement in bundle.requirements:
            group_id = requirement.group_id
            position_of = {
                core_names[core_index]: position
                for position, core_index in enumerate(bundle.group_endpoints[group_id])
            }
            terms: List[Tuple[int, int, float]] = []
            for req, members in bundle.group_plans[group_id]:
                source = position_of[req.source]
                destination = position_of[req.destination]
                for _name, flow in members:
                    terms.append((source, destination, flow.bandwidth))
            self._lb_terms[group_id] = terms

    # ------------------------------------------------------------------ #
    # batched screening
    # ------------------------------------------------------------------ #
    def screen(self, placements: Sequence[Mapping[str, int]]) -> List[ScreenedCandidate]:
        """Admissibility and cost lower bound for a whole neighbour set.

        One :class:`ScreenedCandidate` per placement, in order.  Verdicts
        only use information that is exact (placement validation, the
        run-local memo) or a true lower bound (shortest-hop distances), so
        pruning on them never changes which candidate the scalar reference
        walk would select.
        """
        return [self._screen_one(placement) for placement in placements]

    def _screen_one(self, placement: Mapping[str, int]) -> ScreenedCandidate:
        bundle = self._bundle
        core_names = self._core_names
        if any(name not in placement for name in core_names):
            return ScreenedCandidate(True, None, 0.0)
        if self._engine.mapper.placement_fault(self._topology, placement) is not None:
            return ScreenedCandidate(False, None, math.inf)
        memo = self._memo
        distance = self._distance
        group_endpoints = bundle.group_endpoints
        terms: List[float] = []
        all_known = True
        for requirement in bundle.requirements:
            group_id = requirement.group_id
            projection = tuple(
                placement[core_names[index]] for index in group_endpoints[group_id]
            )
            key = (group_id, projection)
            if key in memo:
                sums = memo[key]
                if sums is None:
                    return ScreenedCandidate(False, None, math.inf)
                terms.extend(sums)
            else:
                all_known = False
                for source, dest, bandwidth in self._lb_terms[group_id]:
                    terms.append(
                        bandwidth * distance(projection[source], projection[dest])
                    )
        if all_known:
            # Exact: reproduce placement_cost's reduction order precisely.
            cost = sum(terms)
            return ScreenedCandidate(True, cost, cost)
        # fsum is exactly rounded, so repeat runs produce the identical
        # lower bound regardless of term order.
        return ScreenedCandidate(True, None, math.fsum(terms))

    # ------------------------------------------------------------------ #
    # exact evaluation
    # ------------------------------------------------------------------ #
    def cost(self, placement: Mapping[str, int]) -> Optional[float]:
        """Exact communication cost of a placement, ``None`` if infeasible.

        Bit-identical to :meth:`MappingEngine.placement_cost` (which raises
        :class:`MappingError` where this returns ``None``): identical
        per-group decisions, identical float accumulation order.
        """
        bundle = self._bundle
        core_names = self._core_names
        if any(name not in placement for name in core_names):
            # Incomplete placements take the engine's general fallback.
            try:
                return self._engine.placement_cost(
                    self._spec,
                    self._topology,
                    placement,
                    groups=[list(group) for group in self._resolved],
                )
            except MappingError:
                return None
        if self._engine.mapper.placement_fault(self._topology, placement) is not None:
            return None
        group_endpoints = bundle.group_endpoints
        values: List[float] = []
        for requirement in bundle.requirements:
            group_id = requirement.group_id
            projection = tuple(
                placement[core_names[index]] for index in group_endpoints[group_id]
            )
            sums = self._group_sums(
                group_id, projection, placement, requirement.member_names
            )
            if sums is None:
                return None
            values.extend(sums)
        return sum(values)

    def _group_sums(
        self,
        group_id: int,
        projection: Tuple[int, ...],
        placement: Mapping[str, int],
        member_names: Sequence[str],
    ) -> Optional[Tuple[float, ...]]:
        """Per-use-case cost sums for one group, ``None`` if infeasible."""
        key = (group_id, projection)
        memo = self._memo
        engine = self._engine
        if key in memo:
            engine._counters["screen_hits"] += 1
            return memo[key]
        outcome, computed = engine._group_outcome(
            self._bundle, self._topology, group_id, projection, placement
        )
        if computed:
            engine._counters["screen_misses"] += 1
        sums = None if outcome is None else outcome.name_sums(member_names)
        memo[key] = sums
        return sums

    # ------------------------------------------------------------------ #
    # lower-bound distances
    # ------------------------------------------------------------------ #
    def _distance(self, source: int, destination: int) -> int:
        """Shortest hop count between two switches (true path-length bound)."""
        if source == destination:
            return 0
        key = (source, destination)
        memo = self._distance_memo
        distance = memo.get(key)
        if distance is None:
            distance = self._topology.shortest_hop_count(source, destination)
            memo[key] = distance
        return distance

"""Incremental repair of a mapping after link/switch failures.

The failure-aware counterpart of a full remap: given a baseline
:class:`~repro.core.result.MappingResult` and a
:class:`~repro.noc.failures.FailureSet`, :func:`repair_mapping`

1. derives the degraded topology (:meth:`Topology.with_failures`),
2. identifies only the smooth-switching groups whose placements or paths
   touch failed resources (everything else keeps its baseline allocations
   verbatim — they used only surviving resources, so they are still valid),
3. relocates cores displaced from failed switches with a greedy
   least-cost search scored by the engine's memoised fixed-placement group
   evaluations, and
4. re-evaluates just the affected groups through the engine's cached /
   store-backed evaluation path.

Because step 4 goes through :class:`MappingEngine`'s evaluation cache, a
repair warm-started from an :class:`~repro.jobs.store.EngineStateStore` that
a previous (cold) repair populated performs **zero** evaluation misses — and
the degraded topology's content hash keys that state, so warm state is never
reused across different failure sets.

Unrepairable designs degrade gracefully: the outcome lists the use cases
whose groups cannot be mapped on the degraded topology instead of raising.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.core.engine import MappingEngine
from repro.core.result import (
    MappingResult,
    UseCaseConfiguration,
    total_communication_cost,
)
from repro.core.validate import validate_mapping
from repro.exceptions import MappingError, RoutingError, SpecificationError

#: evaluation failures that mean "infeasible on this degraded topology",
#: not "bug" — a failure set that partitions the mesh surfaces as
#: RoutingError (no path between switches), not MappingError
_INFEASIBLE = (MappingError, RoutingError)
from repro.noc.failures import FailureSet
from repro.noc.topology import Topology

__all__ = [
    "RepairOutcome",
    "check_baseline",
    "repair_mapping",
    "total_communication_cost",
]


def check_baseline(baseline: MappingResult, use_cases) -> None:
    """Reject a supplied baseline that does not map ``use_cases``.

    :func:`repair_mapping` splices a baseline's untouched groups into the
    repair verbatim, so a baseline computed for another design, or for
    other bandwidths, comes out as a wrong repaired mapping.  Callers check
    a baseline that enters from outside (a file, a job document) against
    the design *before* traffic overrides.  Requires the same use-case
    names; exactly one allocation per flow, with equal endpoints and
    traffic class, and bandwidth and latency equal within 1e-9 relative
    (the Mbps / µs file format is not bit-exact); and a clean
    :func:`~repro.core.validate.validate_mapping`.  Raises
    :class:`SpecificationError` naming the first difference.
    """
    expected = sorted(use_case.name for use_case in use_cases)
    mapped = sorted(baseline.configurations)
    if mapped != expected:
        raise SpecificationError(
            f"baseline maps use cases {mapped}, the design has {expected}"
        )
    for use_case in use_cases:
        configuration = baseline.configurations[use_case.name]
        if len(configuration) != len(use_case.flows):
            raise SpecificationError(
                f"baseline allocates {len(configuration)} flow(s) of use case "
                f"{use_case.name!r}, the design has {len(use_case.flows)}"
            )
        for flow in use_case.flows:
            where = (
                f"flow {flow.source}->{flow.destination} of use case {use_case.name!r}"
            )
            allocation = configuration.allocation_for(flow.source, flow.destination)
            if allocation is None:
                raise SpecificationError(f"baseline has no allocation for {where}")
            allocated = allocation.flow
            if allocated.traffic_class != flow.traffic_class:
                raise SpecificationError(
                    f"baseline allocates {where} as {allocated.traffic_class}, "
                    f"the design has {flow.traffic_class}"
                )
            for quantity in ("bandwidth", "latency"):
                wanted = getattr(flow, quantity)
                found = getattr(allocated, quantity)
                if not math.isclose(found, wanted, rel_tol=1e-9, abs_tol=0.0):
                    raise SpecificationError(
                        f"baseline allocates {where} for {quantity} {found!r}, "
                        f"the design has {wanted!r}"
                    )
    report = validate_mapping(baseline)
    if not report.ok:
        raise SpecificationError(
            f"baseline fails validation with {len(report.issues)} issue(s), "
            f"first: {report.issues[0]}"
        )


@dataclass
class RepairOutcome:
    """Everything a failure repair produced, including the failure cases.

    ``repaired`` is ``None`` when the design cannot be mapped on the
    degraded topology; ``unrepairable`` then names the use cases whose
    groups are infeasible (graceful degradation — callers decide whether to
    shed those use cases, fall back to a full remap at another operating
    point, or escalate).
    """

    failures: FailureSet
    degraded_topology: Topology
    baseline_cost: float
    affected_group_ids: Tuple[int, ...] = ()
    changed_use_cases: Tuple[str, ...] = ()
    displaced_cores: Tuple[str, ...] = ()
    repaired: Optional[MappingResult] = None
    repaired_cost: Optional[float] = None
    unrepairable: Tuple[str, ...] = ()
    groups_total: int = 0
    evaluations: Dict[str, int] = field(default_factory=dict)
    elapsed_s: float = 0.0
    full_remap: Optional[MappingResult] = None
    full_remap_cost: Optional[float] = None
    full_remap_elapsed_s: Optional[float] = None

    def metrics(self) -> Dict:
        """JSON-ready recovery metrics (the RepairJob payload core)."""
        delta = (
            None if self.repaired_cost is None
            else self.repaired_cost - self.baseline_cost
        )
        document = {
            "failures": self.failures.describe(),
            "degraded_topology": self.degraded_topology.name,
            "repaired": self.repaired is not None,
            "groups_total": self.groups_total,
            "groups_remapped": len(self.affected_group_ids),
            "affected_group_ids": list(self.affected_group_ids),
            "displaced_cores": list(self.displaced_cores),
            "unrepairable": list(self.unrepairable),
            "baseline_cost": self.baseline_cost,
            "repaired_cost": self.repaired_cost,
            "cost_delta": delta,
            "evaluations": dict(self.evaluations),
            "elapsed_s": round(self.elapsed_s, 6),
        }
        # Omitted when empty so pure-failure repair payloads (and their
        # content hashes — the persistent cache keys) are unchanged.
        if self.changed_use_cases:
            document["changed_use_cases"] = list(self.changed_use_cases)
        if self.full_remap_cost is not None or self.full_remap_elapsed_s is not None:
            document["full_remap_cost"] = self.full_remap_cost
            document["full_remap_elapsed_s"] = (
                None if self.full_remap_elapsed_s is None
                else round(self.full_remap_elapsed_s, 6)
            )
            if self.repaired_cost is not None and self.full_remap_cost is not None:
                document["cost_delta_vs_full_remap"] = (
                    self.repaired_cost - self.full_remap_cost
                )
        return document


def _endpoint_cores(bundle, group_id: int) -> FrozenSet[str]:
    names = bundle.spec_core_names
    return frozenset(names[index] for index in bundle.group_endpoints[group_id])


def _affected_groups(bundle, baseline: MappingResult, failures: FailureSet,
                     displaced: Set[str],
                     changed_use_cases: FrozenSet[str] = frozenset()) -> Set[int]:
    """Group ids whose endpoint placement or allocation paths touch failures.

    ``changed_use_cases`` extends the failure criterion with traffic deltas:
    a group containing a re-characterised use case carries baseline
    allocations computed for the *old* bandwidths, so it must be re-evaluated
    against the new spec even if none of its paths touch a failed resource.
    """
    affected: Set[int] = set()
    for requirement in bundle.requirements:
        group_id = requirement.group_id
        if displaced & _endpoint_cores(bundle, group_id):
            affected.add(group_id)
            continue
        if changed_use_cases & set(requirement.member_names):
            affected.add(group_id)
            continue
        for name in requirement.member_names:
            configuration = baseline.configurations.get(name)
            if configuration is None:
                continue
            if any(failures.affects_path(allocation.switch_path)
                   for allocation in configuration):
                affected.add(group_id)
                break
    return affected


def _alive_candidates(degraded: Topology, placement: Dict[str, int],
                      limit: Optional[int]) -> List[int]:
    """Alive switches with room for one more core, sorted by index."""
    occupancy: Dict[int, int] = {}
    for switch in placement.values():
        occupancy[switch] = occupancy.get(switch, 0) + 1
    return [
        switch.index for switch in degraded.alive_switches
        if limit is None or occupancy.get(switch.index, 0) < limit
    ]


def _probe_unrepairable(engine: MappingEngine, bundle, degraded: Topology,
                        placement: Dict[str, int],
                        subset: FrozenSet[int]) -> Tuple[str, ...]:
    """Which use cases belong to groups infeasible under ``placement``.

    Probes each affected group independently through the mapper's
    fixed-placement evaluator; a group that cannot route around the failures
    contributes its member use cases.  Never raises.
    """
    unrepairable: List[str] = []
    for requirement in bundle.requirements:
        group_id = requirement.group_id
        if group_id not in subset:
            continue
        try:
            outcome = engine.mapper.evaluate_group_fixed(
                degraded, bundle.group_plans[group_id], placement
            )
        except Exception:  # noqa: BLE001 - a probe must never raise
            outcome = None
        if outcome is None:
            unrepairable.extend(requirement.member_names)
    return tuple(sorted(unrepairable))


def repair_mapping(
    engine: MappingEngine,
    use_cases,
    baseline: MappingResult,
    failures: FailureSet,
    groups=None,
    compare_full_remap: bool = False,
    changed_use_cases: Sequence[str] = (),
) -> RepairOutcome:
    """Repair a baseline mapping after a failure set, remapping only what broke.

    Parameters
    ----------
    engine:
        The :class:`MappingEngine` to evaluate with.  Attach a store to
        warm-start the repair from previously computed degraded-topology
        evaluations.
    use_cases:
        The design the baseline maps (a :class:`UseCaseSet` or compiled spec).
    baseline:
        The pre-failure mapping (its topology is the pristine substrate).
    failures:
        The failure set to repair around; validated against the baseline
        topology (unknown or overlapping ids raise
        :class:`~repro.exceptions.TopologyError`).
    groups:
        Explicit smooth-switching groups; defaults to the baseline's.
    compare_full_remap:
        Also run a from-scratch remap on the degraded topology (free
        placement, same fixed topology) and report its cost and wall time.
    changed_use_cases:
        Names of use cases whose traffic was re-characterised since the
        baseline was computed.  ``use_cases`` must already carry the *new*
        bandwidths; every group containing one of these use cases joins the
        affected set and is re-evaluated (the traffic-delta splice path of
        :class:`repro.ops.monitor.Monitor`), while untouched groups keep
        their baseline allocations verbatim as usual.
    """
    started = time.perf_counter()
    failures = failures.copy()
    failures.validate_for(baseline.topology)
    degraded = baseline.topology.with_failures(failures)

    spec = engine.compile(use_cases)
    if groups is None:
        groups = [sorted(group) for group in baseline.groups]
    resolved = engine.resolve_groups(spec, groups)
    bundle = engine.requirements_for(spec, resolved)
    baseline_cost = total_communication_cost(baseline)

    counter_keys = ("evaluation_hits", "evaluation_misses", "imported_evaluations")
    before = {key: engine.cache_info()[key] for key in counter_keys}

    def finish(outcome: RepairOutcome) -> RepairOutcome:
        after = engine.cache_info()
        outcome.evaluations = {key: after[key] - before[key] for key in counter_keys}
        outcome.elapsed_s = time.perf_counter() - started
        if compare_full_remap:
            # Direct on purpose, not engine.map(topology=): this times a
            # from-scratch remap and nothing reuses the result, so a cache
            # or store read would only distort the timing and the counters.
            remap_started = time.perf_counter()
            try:
                full = engine.mapper.map_with_placement(
                    spec.use_case_set, degraded, {}, groups=resolved,
                    method_name="unified-full-remap", validate=False,
                )
            except _INFEASIBLE:
                full = None
            outcome.full_remap_elapsed_s = time.perf_counter() - remap_started
            outcome.full_remap = full
            outcome.full_remap_cost = (
                None if full is None else total_communication_cost(full)
            )
        return outcome

    # ------------------------------------------------------------------ #
    # 1. what broke: displaced cores and affected groups
    # ------------------------------------------------------------------ #
    displaced = sorted(
        core for core, switch in baseline.core_mapping.items()
        if failures.affects_switch(switch)
    )
    changed = frozenset(changed_use_cases)
    affected = frozenset(
        sorted(_affected_groups(bundle, baseline, failures, set(displaced), changed))
    )
    outcome = RepairOutcome(
        failures=failures,
        degraded_topology=degraded,
        baseline_cost=baseline_cost,
        affected_group_ids=tuple(sorted(affected)),
        changed_use_cases=tuple(sorted(changed)),
        displaced_cores=tuple(displaced),
        groups_total=len(bundle.requirements),
    )
    if not affected and not displaced:
        # Nothing the design uses failed: the baseline, re-homed onto the
        # degraded topology, is already the repair.
        placement = dict(baseline.core_mapping)
        configurations = {
            name: baseline.configurations[name]
            for requirement in bundle.requirements
            for name in requirement.member_names
            if name in baseline.configurations
        }
        outcome.repaired = _assemble(engine, degraded, placement, resolved,
                                     configurations, baseline_cost)
        outcome.repaired_cost = baseline_cost
        return finish(outcome)

    # ------------------------------------------------------------------ #
    # 2. relocate displaced cores (greedy least-cost, deterministic)
    # ------------------------------------------------------------------ #
    placement = dict(baseline.core_mapping)
    limit = engine.params.max_cores_per_switch
    stuck: List[str] = []
    # Provisional pass: every displaced core needs *some* alive home before
    # any candidate placement validates (a trial with another core still on
    # a dead switch would be rejected wholesale).
    for core in displaced:
        candidates = _alive_candidates(degraded, placement, limit)
        candidates = [index for index in candidates if index != placement[core]]
        if not candidates:
            stuck.append(core)
            continue
        placement[core] = candidates[0]
    if stuck:
        unrepairable = sorted({
            name
            for requirement in bundle.requirements
            for name in requirement.member_names
            if set(stuck) & _endpoint_cores(bundle, requirement.group_id)
        }) or sorted(name for req in bundle.requirements for name in req.member_names)
        outcome.unrepairable = tuple(unrepairable)
        return finish(outcome)

    def subset_cost(trial: Dict[str, int]) -> float:
        outcomes = engine._evaluate_groups(bundle, degraded, trial, only=affected)
        total = 0.0
        for requirement in bundle.requirements:
            if requirement.group_id in affected:
                total += sum(
                    outcomes[requirement.group_id].name_sums(requirement.member_names)
                )
        return total

    # Improvement pass: move each displaced core to its least-cost feasible
    # home, scored on the affected groups only (untouched groups are
    # placement-invariant here, so their cost is a constant offset).
    for core in displaced:
        best: Optional[Tuple[float, int]] = None
        for candidate in _alive_candidates(degraded, {
            name: switch for name, switch in placement.items() if name != core
        }, limit):
            trial = dict(placement)
            trial[core] = candidate
            try:
                cost = subset_cost(trial)
            except _INFEASIBLE:
                continue
            if best is None or (cost, candidate) < best:
                best = (cost, candidate)
        if best is not None:
            placement[core] = best[1]

    # ------------------------------------------------------------------ #
    # 3. final evaluation of the affected groups, splice, assemble
    # ------------------------------------------------------------------ #
    try:
        outcomes = engine._evaluate_groups(bundle, degraded, placement, only=affected)
    except _INFEASIBLE:
        outcome.unrepairable = _probe_unrepairable(
            engine, bundle, degraded, placement, affected
        )
        return finish(outcome)

    repaired_configs, cost_sums = engine._walk_outcomes(bundle, outcomes)
    configurations: Dict[str, UseCaseConfiguration] = {}
    total_cost = 0.0
    for requirement in bundle.requirements:
        for name in requirement.member_names:
            if requirement.group_id in affected:
                configurations[name] = repaired_configs[name]
                total_cost += cost_sums[name]
            elif name in baseline.configurations:
                configurations[name] = baseline.configurations[name]
                total_cost += baseline.configurations[name].total_bandwidth_hops()

    outcome.repaired = _assemble(engine, degraded, placement, resolved,
                                 configurations, total_cost)
    outcome.repaired_cost = total_cost
    return finish(outcome)


def _assemble(engine, degraded, placement, resolved, configurations, total_cost):
    result = MappingResult(
        method="unified-repair",
        topology=degraded,
        params=engine.params,
        config=engine.config,
        core_mapping=dict(placement),
        groups=resolved,
        configurations=configurations,
        attempted_topologies=(degraded.name,),
    )
    result.cached_communication_cost = total_cost
    return result

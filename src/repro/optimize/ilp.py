"""Exact mapping backend: optimal core-to-switch assignment for small specs.

The unified mapper is a heuristic; this module answers *how far from
optimal* it sits.  :func:`exact_mapping` searches the same topology growth
schedule as Algorithm 2 and, on each candidate topology, finds the
communication-cost-optimal feasible core-to-switch assignment — returning
the first (smallest) topology that admits one, exactly like the heuristic's
outer loop.  The decoded :class:`~repro.core.result.MappingResult` is
produced by the engine's fixed-placement evaluator, so it flows through the
store, fingerprint and report machinery unchanged and is judged by the same
referee (:func:`repro.core.validate.validate_mapping`) as every heuristic
result.

The per-topology optimisation is a best-first branch-and-bound over
core-to-switch assignments.  Its bound is the objective of the classic
linearised quadratic-assignment ILP (binary ``x[core, switch]``,
per-switch occupancy ceilings, ``sum(w_ab * hops(s, t) * z)`` with
``z >= x[a,s] + x[b,t] - 1``) over the already-decided core pairs:
bandwidth times shortest hop count never exceeds the true communication
cost, because chosen paths can only detour around slot conflicts.
Slot-table and bandwidth feasibility is decided at the leaves, where each
complete assignment is re-costed exactly by
:meth:`~repro.core.engine.MappingEngine.placement_cost`; the search ends
when the cheapest open node cannot beat the incumbent.  The test suite
pins it against exhaustive enumeration.

``solver`` is ``"auto"`` (the default) or ``"native"``; both name the
branch-and-bound.  Every search bumps a module-level invocation counter
(:func:`solver_invocations`), which is how the warm-cache tests prove a
cached :class:`~repro.jobs.GapJob` re-run performs zero solves.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.engine import MappingEngine
from repro.core.result import MappingResult
from repro.exceptions import ConfigurationError, MappingError, TopologyError
from repro.noc.topology import Topology
from repro.params import MapperConfig, NoCParameters

__all__ = [
    "EXACT_METHOD_NAME",
    "exact_mapping",
    "solver_invocations",
]

#: ``MappingResult.method`` of exact-backend results (and the cache slot the
#: engine stores them under, separate from the heuristic ``"unified"`` runs)
EXACT_METHOD_NAME = "ilp"

#: cumulative solver searches performed in this process (never reset by the
#: library; the warm-cache tests read it before and after a cached re-run)
_SOLVER_INVOCATIONS = 0


def solver_invocations() -> int:
    """Number of exact-solver searches this process has performed."""
    return _SOLVER_INVOCATIONS


def _count_invocation() -> None:
    global _SOLVER_INVOCATIONS
    _SOLVER_INVOCATIONS += 1


# --------------------------------------------------------------------------- #
# shared pre-computation
# --------------------------------------------------------------------------- #
def _pair_weights(use_case_set) -> Dict[Tuple[str, str], float]:
    """Total bandwidth between each unordered core pair, over all use-cases.

    The communication cost is ``sum(bandwidth * hops)`` over every flow of
    every use-case; hop counts depend only on the endpoint switches, so the
    cost of an assignment is bounded from below by these aggregate weights
    times the shortest inter-switch hop counts.
    """
    weights: Dict[Tuple[str, str], float] = {}
    for use_case in use_case_set:
        for flow in use_case.flows:
            pair = tuple(sorted((flow.source, flow.destination)))
            weights[pair] = weights.get(pair, 0.0) + flow.bandwidth
    return weights


def _hop_table(
    topology: Topology, alive: Sequence[int]
) -> Dict[Tuple[int, int], Optional[int]]:
    """Shortest hop counts between alive switches; ``None`` when unreachable."""
    hops: Dict[Tuple[int, int], Optional[int]] = {}
    for source in alive:
        for destination in alive:
            if destination < source:
                hops[(source, destination)] = hops[(destination, source)]
                continue
            try:
                hops[(source, destination)] = topology.shortest_hop_count(
                    source, destination
                )
            except TopologyError:
                hops[(source, destination)] = None
    return hops


def _ordered_cores(
    core_names: Sequence[str], weights: Mapping[Tuple[str, str], float]
) -> List[str]:
    """Cores by descending total incident bandwidth (name-tie-broken).

    Assigning the heaviest communicators first makes the partial lower
    bound grow quickly, which is what lets branch-and-bound prune.
    """
    incident: Dict[str, float] = {name: 0.0 for name in core_names}
    for (a, b), weight in weights.items():
        incident[a] = incident.get(a, 0.0) + weight
        incident[b] = incident.get(b, 0.0) + weight
    return sorted(core_names, key=lambda name: (-incident.get(name, 0.0), name))


# --------------------------------------------------------------------------- #
# the branch-and-bound solver
# --------------------------------------------------------------------------- #
def _native_optimum(
    engine: MappingEngine,
    spec,
    resolved,
    topology: Topology,
    cores: Sequence[str],
    weights: Mapping[Tuple[str, str], float],
    hops: Mapping[Tuple[int, int], Optional[int]],
    alive: Sequence[int],
    limit: Optional[int],
    node_limit: Optional[int],
):
    """Best-first search over assignments; exact, no dependencies.

    Nodes are partial assignments of the (weight-ordered) core prefix,
    keyed by the admissible lower bound ``sum(w * shortest_hops)`` over the
    already-decided pairs.  Complete assignments are re-costed exactly by
    the engine (which also decides slot/bandwidth feasibility); the search
    ends when the cheapest open node cannot beat the incumbent.
    """
    _count_invocation()
    count = len(cores)
    # pair weight matrix aligned with the search order
    matrix = [[0.0] * count for _ in range(count)]
    index_of = {name: index for index, name in enumerate(cores)}
    for (a, b), weight in weights.items():
        if a in index_of and b in index_of:
            matrix[index_of[a]][index_of[b]] = weight
            matrix[index_of[b]][index_of[a]] = weight

    best_cost: Optional[float] = None
    best_placement: Optional[Dict[str, int]] = None
    heap: List[Tuple[float, Tuple[int, ...]]] = [(0.0, ())]
    nodes = 0
    while heap:
        bound, assigned = heapq.heappop(heap)
        if best_cost is not None and bound >= best_cost:
            break
        nodes += 1
        if node_limit is not None and nodes > node_limit:
            raise MappingError(
                f"exact search exceeded its node budget of {node_limit} on "
                f"{topology.name}; shrink the spec or raise node_limit"
            )
        depth = len(assigned)
        if depth == count:
            placement = dict(zip(cores, assigned))
            try:
                actual = engine.placement_cost(
                    spec, topology, placement, groups=resolved
                )
            except MappingError:
                continue
            if best_cost is None or actual < best_cost:
                best_cost = actual
                best_placement = placement
            continue
        occupancy: Dict[int, int] = {}
        for switch_index in assigned:
            occupancy[switch_index] = occupancy.get(switch_index, 0) + 1
        row = matrix[depth]
        for switch_index in alive:
            if limit is not None and occupancy.get(switch_index, 0) >= limit:
                continue
            extra = 0.0
            reachable = True
            for other in range(depth):
                weight = row[other]
                if not weight:
                    continue
                hop = hops[(switch_index, assigned[other])]
                if hop is None:
                    reachable = False
                    break
                extra += weight * hop
            if not reachable:
                continue
            child_bound = bound + extra
            if best_cost is not None and child_bound >= best_cost:
                continue
            heapq.heappush(heap, (child_bound, assigned + (switch_index,)))
    if best_cost is None:
        return None
    return best_cost, best_placement


def _optimal_on_topology(engine, spec, resolved, topology, cores, weights, node_limit):
    """(cost, placement) of the optimal feasible assignment, or ``None``."""
    alive = [switch.index for switch in topology.alive_switches]
    if not alive:
        return None
    limit = engine.params.max_cores_per_switch
    if limit is not None and len(alive) * limit < len(cores):
        return None
    hops = _hop_table(topology, alive)
    return _native_optimum(
        engine, spec, resolved, topology, cores, weights, hops, alive,
        limit, node_limit,
    )


# --------------------------------------------------------------------------- #
# the public entry point
# --------------------------------------------------------------------------- #
def exact_mapping(
    use_cases,
    params: Optional[NoCParameters] = None,
    config: Optional[MapperConfig] = None,
    groups=None,
    switching_graph=None,
    engine: Optional[MappingEngine] = None,
    solver: str = "auto",
    node_limit: Optional[int] = None,
) -> MappingResult:
    """Map a design optimally onto the smallest feasible topology.

    Drop-in exact counterpart of :meth:`MappingEngine.map`: it walks the
    same topology growth schedule, stops at the first topology admitting a
    feasible assignment, and returns the *communication-cost-optimal*
    mapping on it, decoded through the engine's fixed-placement evaluator
    (so fingerprints, stores and reports treat it like any other result).

    Parameters
    ----------
    use_cases, groups, switching_graph:
        The design, exactly as :meth:`MappingEngine.map` takes it.
    params, config, engine:
        Either an existing engine (shares its caches and attached store) or
        the params/config to build a fresh one from.
    solver:
        ``"auto"`` or ``"native"``; both run the branch-and-bound.  Any
        other value raises :class:`~repro.exceptions.ConfigurationError`.
    node_limit:
        Optional budget on search nodes; exceeding it raises
        :class:`~repro.exceptions.MappingError`.  ``None`` (the default)
        means unlimited — exact search is meant for small/medium specs.

    Raises
    ------
    MappingError
        No topology in the growth schedule admits a feasible assignment.
    """
    if engine is None:
        engine = MappingEngine(
            params=params or NoCParameters(), config=config or MapperConfig()
        )
    if solver not in ("auto", "native"):
        raise ConfigurationError(
            f"unknown exact solver {solver!r}; expected 'auto' or 'native'"
        )
    spec = engine.compile(use_cases)
    resolved = engine.resolve_groups(spec, groups, switching_graph)
    if engine.config.enable_quick_infeasibility_check:
        bundle = engine.requirements_for(spec, resolved)
        engine.mapper._quick_infeasibility_check(bundle.requirements)
    weights = _pair_weights(spec.use_case_set)
    cores = _ordered_cores(spec.core_names, weights)
    attempted: List[str] = []
    for topology in engine.mapper._topology_schedule(len(cores)):
        attempted.append(topology.name)
        outcome = _optimal_on_topology(
            engine, spec, resolved, topology, cores, weights, node_limit
        )
        if outcome is None:
            continue
        _, placement = outcome
        result = engine.evaluate_placement(
            spec, topology, placement, groups=resolved,
            method_name=EXACT_METHOD_NAME,
        )
        result.attempted_topologies = tuple(attempted)
        return result
    raise MappingError(
        f"no topology with up to {engine.config.max_switches} switches admits "
        f"a feasible exact assignment",
        largest_topology=attempted[-1] if attempted else None,
    )

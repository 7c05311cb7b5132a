"""Algorithm 2's placement scan: the pruned switch-pair scoring.

``UnifiedMapper._choose_placement`` prices (source switch, destination
switch) combinations in ascending order of a hop-count lower bound and stops
once no remaining combination can beat the best cost found.  These tests
hold it to an exhaustive reference written here (every combination priced,
in pool order), and pin the work the pruning saves on one forced 16x16 op.
"""

from __future__ import annotations

import random

import pytest

from repro import MapperConfig, NoCParameters, UnifiedMapper
from repro.core.mapping import _AttemptAccounting, _PairRequirement, _Worklist
from repro.exceptions import RoutingError
from repro.gen import generate_benchmark
from repro.io.serialization import mapping_fingerprint
from repro.noc.failures import FailureSet
from repro.noc.resources import INFEASIBLE_COST, ResourceState
from repro.noc.routing import PathSelector
from repro.noc.slot_table import slots_needed_cached
from repro.noc.topology import Topology


def _cut_off(topology: Topology, switch: int) -> FailureSet:
    failures = FailureSet()
    for neighbour in topology.neighbors(switch):
        failures.mark_link_down(switch, neighbour)
    return failures


def _degraded_mesh() -> Topology:
    mesh = Topology.mesh(4, 4)
    # switch 5 is alive but cut off; link 10<->14 is down as well
    return mesh.with_failures(_cut_off(mesh, 5).mark_link_down(10, 14))


TOPOLOGIES = {
    "mesh-4x4": lambda: Topology.mesh(4, 4),
    "degraded-mesh-4x4": _degraded_mesh,
    "torus-4x5": lambda: Topology.torus(4, 5),
    "ring-9": lambda: Topology.ring(9),
}

#: Left out, because they are configuration errors whatever the scan does:
#: a ring has no grid positions for the XY and west-first turn models, and
#: the west-first turn model rejects a torus's wraparound hops.
UNSUPPORTED = {("ring-9", "xy"), ("ring-9", "west_first"), ("torus-4x5", "west_first")}

CASES = [
    (name, policy)
    for name in TOPOLOGIES
    for policy in ("minimal", "west_first", "xy", "k_shortest")
    if (name, policy) not in UNSUPPORTED
]


def _exhaustive_placement(mapper, req, state, selector, core_mapping, max_hops, needed):
    """The reference: price every pool combination, keep the least key."""
    topology = selector.topology
    source_fixed = core_mapping.get(req.source)
    destination_fixed = core_mapping.get(req.destination)
    anchor = source_fixed if source_fixed is not None else destination_fixed
    if anchor is None:
        anchor = mapper._centroid_switch(topology, core_mapping)
    sources = (
        [source_fixed] if source_fixed is not None
        else mapper._placement_candidates(topology, core_mapping, anchor)
    )
    destinations = (
        [destination_fixed] if destination_fixed is not None
        else mapper._placement_candidates(topology, core_mapping, anchor)
    )
    limit = mapper.params.max_cores_per_switch
    best = None
    for source_switch in sources:
        for destination_switch in destinations:
            if (
                source_switch == destination_switch
                and req.source != req.destination
                and source_fixed is None
                and destination_fixed is None
                and limit is not None
                and mapper._acct.occupancy[source_switch] + 2 > limit
            ):
                continue
            for path in selector.admissible_paths(source_switch, destination_switch):
                if max_hops is not None and len(path) - 1 > max_hops:
                    continue
                cost = state.path_cost(path, req.bandwidth, needed, mapper.config)
                if cost == INFEASIBLE_COST:
                    continue
                key = (cost, source_switch, destination_switch, path)
                if best is None or key < best:
                    best = key
    return None if best is None else best[1:]


def _random_state(rng: random.Random, params: NoCParameters, topology: Topology) -> ResourceState:
    state = ResourceState(params)
    capacity = params.link_capacity
    load = rng.random()  # how busy this group's links are
    for link in topology.links:
        if rng.random() < load:
            state.link_residual[link] = rng.uniform(0.0, capacity)
        if rng.random() < load:
            state.free_masks[link] = rng.getrandbits(params.slot_table_size)
    return state


def _random_case(rng, mapper, topology):
    """Attach some cores, then draw a pair with zero or one mapped endpoint."""
    params = mapper.params
    mapper._acct = _AttemptAccounting(topology, _Worklist([]))
    mapper._core_count_hint = 12
    alive = [sw.index for sw in topology.alive_switches]
    limit = params.max_cores_per_switch
    core_mapping = {}
    for index in range(rng.randrange(0, 8)):
        roomy = [s for s in alive if limit is None or mapper._acct.occupancy[s] < limit]
        mapper._attach(f"placed{index}", rng.choice(roomy), core_mapping)
    source, destination = "a", "b"
    endpoint = rng.random()
    if endpoint < 0.35:
        mapper._attach(source, rng.choice(alive), core_mapping)
    elif endpoint < 0.7:
        mapper._attach(destination, rng.choice(alive), core_mapping)
    guaranteed = rng.random() < 0.7
    bandwidth = params.link_capacity * rng.uniform(0.01, 0.9)
    req = _PairRequirement(0, source, destination, bandwidth, 1.0, guaranteed)
    needed = (
        slots_needed_cached(bandwidth, params.link_capacity, params.slot_table_size)
        if guaranteed else 0
    )
    max_hops = rng.choice((None, None, 1, 2, 3, 5))
    return req, core_mapping, max_hops, needed


class _CountingSelector(PathSelector):
    """A path selector that counts the switch pairs it is asked to price."""

    priced = 0

    def admissible_paths(self, source, destination):
        self.priced += 1
        return super().admissible_paths(source, destination)


@pytest.mark.parametrize("name,policy", CASES)
def test_pruned_placement_matches_the_exhaustive_reference(name, policy):
    topology = TOPOLOGIES[name]()
    params = NoCParameters(max_cores_per_switch=2)
    mapper = UnifiedMapper(params=params, config=MapperConfig(routing_policy=policy))
    pruned_selector = _CountingSelector(topology, mapper.config)
    reference_selector = _CountingSelector(topology, mapper.config)
    rng = random.Random(f"{name}:{policy}")
    outcomes = []
    for _ in range(80):
        req, core_mapping, max_hops, needed = _random_case(rng, mapper, topology)
        state = _random_state(rng, params, topology)
        expected = _exhaustive_placement(
            mapper, req, state, reference_selector, core_mapping, max_hops, needed
        )
        pruned = mapper._choose_placement(
            req, state, pruned_selector, core_mapping, max_hops, needed
        )
        assert pruned == expected
        outcomes.append(pruned)
    mapper._acct = None
    # the draws find winners, and the scan priced fewer pairs than the pools hold
    assert sum(outcome is not None for outcome in outcomes) >= 40
    assert pruned_selector.priced < reference_selector.priced


@pytest.mark.parametrize("policy", ["xy", "west_first"])
def test_turn_model_on_a_ring_still_raises_routing_error(policy):
    # A policy that needs grid positions is a configuration error, not an
    # unreachable pair: the placement scan must not swallow it.
    mapper = UnifiedMapper(
        params=NoCParameters(topology_kind="ring"),
        config=MapperConfig(routing_policy=policy),
    )
    with pytest.raises(RoutingError, match="grid positions"):
        mapper.map(generate_benchmark("spread", 4, seed=3))


def test_mesh16x16_placement_work_is_pinned(monkeypatch):
    """The seed-12345 16x16 shape: same mapping, pinned placement work.

    Counted by wrappers here: ``enumerated`` collects the distinct switch
    pairs whose candidate paths were enumerated (3,698 before the scan was
    pruned), and ``path_cost`` counts every path pricing of the op (22,424
    before).
    """
    counts = {"path_cost": 0}
    enumerated = set()
    admissible_paths = PathSelector.admissible_paths
    path_cost = ResourceState.path_cost

    def counting_admissible_paths(self, source, destination):
        enumerated.add((source, destination))
        return admissible_paths(self, source, destination)

    def counting_path_cost(self, *args):
        counts["path_cost"] += 1
        return path_cost(self, *args)

    monkeypatch.setattr(PathSelector, "admissible_paths", counting_admissible_paths)
    monkeypatch.setattr(ResourceState, "path_cost", counting_path_cost)
    design = generate_benchmark(
        "spread", 200, core_count=160, seed=12345, flows_per_use_case=(6, 10)
    )
    result = UnifiedMapper().map_with_placement(design, Topology.mesh(16, 16), {})
    assert mapping_fingerprint(result) == (
        "c1139b59d1cf327a1bc28244ea071c000da68fd774f5263451f2118605a4d7a8"
    )
    assert len(enumerated) == 1680
    assert counts["path_cost"] == 9331

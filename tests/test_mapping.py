"""Tests for the unified multi-use-case mapper (Algorithm 2) and the WC baseline."""

import pytest

from repro import (
    Flow,
    MapperConfig,
    MappingError,
    NoCParameters,
    SpecificationError,
    UnifiedMapper,
    UseCase,
    UseCaseSet,
    WorstCaseMapper,
    build_worst_case_use_case,
    map_use_cases,
)
from repro.core.mapping import GroupRequirement
from repro.core.switching import SwitchingGraph
from repro.units import mbps, mhz, us


# --------------------------------------------------------------------------- #
# GroupRequirement aggregation
# --------------------------------------------------------------------------- #
def test_group_requirement_takes_max_bandwidth_min_latency():
    uc1 = UseCase("u1", flows=[Flow("a", "b", mbps(10), latency=us(100))])
    uc2 = UseCase("u2", flows=[Flow("a", "b", mbps(40), latency=us(10)),
                               Flow("b", "c", mbps(5))])
    requirement = GroupRequirement(0, [uc1, uc2])
    req = requirement.requirement_for(("a", "b"))
    assert req.bandwidth == pytest.approx(mbps(40))
    assert req.latency == pytest.approx(us(10))
    assert requirement.requirement_for(("b", "c")) is not None
    assert requirement.requirement_for(("c", "a")) is None
    egress, ingress = requirement.core_loads()
    assert egress["a"] == pytest.approx(mbps(40))
    assert ingress["c"] == pytest.approx(mbps(5))


# --------------------------------------------------------------------------- #
# basic mapping behaviour
# --------------------------------------------------------------------------- #
def test_figure5_example_maps_and_covers_every_flow(figure5_mapping, figure5_use_cases):
    result = figure5_mapping
    assert result.method == "unified"
    assert result.switch_count >= 1
    assert set(result.core_mapping) == {"C1", "C2", "C3", "C4"}
    for use_case in figure5_use_cases:
        configuration = result.configuration(use_case.name)
        assert len(configuration) == len(use_case)
        for flow in use_case:
            allocation = configuration.allocation_for(flow.source, flow.destination)
            assert allocation is not None
            assert allocation.switch_path[0] == result.switch_of(flow.source)
            assert allocation.switch_path[-1] == result.switch_of(flow.destination)


def test_same_core_mapping_shared_across_use_cases(figure5_mapping):
    """The paper requires a single core-to-NoC mapping for all use-cases."""
    result = figure5_mapping
    for configuration in result.configurations.values():
        for allocation in configuration:
            assert result.switch_of(allocation.flow.source) == allocation.switch_path[0]
            assert result.switch_of(allocation.flow.destination) == allocation.switch_path[-1]


def test_mapping_grows_topology_when_switch_limit_is_tight(figure5_use_cases):
    params = NoCParameters(max_cores_per_switch=1)
    result = UnifiedMapper(params=params).map(figure5_use_cases)
    assert result.switch_count >= 4
    occupancy = {}
    for switch in result.core_mapping.values():
        occupancy[switch] = occupancy.get(switch, 0) + 1
    assert max(occupancy.values()) == 1


def test_attempted_topologies_recorded(figure5_use_cases):
    params = NoCParameters(max_cores_per_switch=2)
    result = UnifiedMapper(params=params).map(figure5_use_cases)
    assert result.attempted_topologies[-1] == result.topology.name
    assert len(result.attempted_topologies) >= 1


def test_isolated_cores_are_still_placed():
    uc = UseCase("u1", flows=[Flow("a", "b", mbps(10))])
    uc.add_core(__import__("repro").Core("idle"))
    result = map_use_cases(UseCaseSet([uc]))
    assert "idle" in result.core_mapping


def test_mapping_fails_when_single_flow_exceeds_link_capacity():
    uc = UseCase("u1", flows=[Flow("a", "b", mbps(3000))])  # > 2 GB/s link
    with pytest.raises(MappingError):
        map_use_cases(UseCaseSet([uc]))


def test_mapping_fails_when_core_oversubscribed_regardless_of_topology():
    flows = [Flow(f"s{i}", "hub", mbps(400)) for i in range(6)]  # 2.4 GB/s into hub
    with pytest.raises(MappingError) as error:
        map_use_cases(UseCaseSet([UseCase("u1", flows=flows)]))
    assert "hub" in str(error.value)


def test_quick_infeasibility_check_can_be_disabled():
    flows = [Flow(f"s{i}", "hub", mbps(400)) for i in range(6)]
    config = MapperConfig(enable_quick_infeasibility_check=False, max_switches=9)
    with pytest.raises(MappingError) as error:
        map_use_cases(UseCaseSet([UseCase("u1", flows=flows)]), config=config)
    # Without the quick check the mapper exhausts the topology schedule.
    assert error.value.largest_topology is not None


def test_latency_constraint_forces_short_paths():
    params = NoCParameters(max_cores_per_switch=1)
    tight = us(0.05)  # 25 cycles at 500 MHz: only a few hops are affordable
    uc = UseCase(
        "u1",
        flows=[
            Flow("a", "b", mbps(500), latency=tight),
            Flow("b", "c", mbps(400)),
            Flow("c", "d", mbps(300)),
        ],
    )
    result = map_use_cases(UseCaseSet([uc]), params=params)
    allocation = result.configuration("u1").allocation_for("a", "b")
    from repro.perf.latency import worst_case_latency

    bound = worst_case_latency(allocation.hop_count, max(allocation.slots_per_link, 1),
                               result.params)
    assert bound <= tight


def test_unsatisfiable_latency_raises():
    params = NoCParameters(frequency_hz=mhz(100))
    uc = UseCase("u1", flows=[Flow("a", "b", mbps(100), latency=1e-9)])
    with pytest.raises(MappingError):
        map_use_cases(UseCaseSet([uc]), params=params)


def test_groups_share_paths_and_slots(figure5_use_cases):
    graph = SwitchingGraph.from_use_case_set(figure5_use_cases)
    graph.require_smooth_switching("uc1", "uc2")
    result = UnifiedMapper().map(figure5_use_cases, switching_graph=graph)
    assert len(result.groups) == 1
    alloc1 = result.configuration("uc1").allocation_for("C3", "C4")
    alloc2 = result.configuration("uc2").allocation_for("C3", "C4")
    assert alloc1.switch_path == alloc2.switch_path
    assert dict(alloc1.link_slots) == dict(alloc2.link_slots)


def test_separate_groups_may_use_different_paths(figure5_use_cases):
    result = UnifiedMapper(params=NoCParameters(max_cores_per_switch=1)).map(
        figure5_use_cases
    )
    assert len(result.groups) == 2
    # Paths may differ between groups (no requirement that they do, but the
    # slot tables are accounted independently: no cross-group conflict check).
    assert result.reconfigurable_pairs() == 1


def test_explicit_groups_validated(figure5_use_cases):
    with pytest.raises(SpecificationError):
        UnifiedMapper().map(figure5_use_cases, groups=[["uc1", "nope"]])
    with pytest.raises(SpecificationError):
        UnifiedMapper().map(figure5_use_cases, groups=[["uc1"], ["uc1", "uc2"]])


def test_groups_and_switching_graph_are_mutually_exclusive(figure5_use_cases):
    graph = SwitchingGraph.from_use_case_set(figure5_use_cases)
    with pytest.raises(Exception):
        UnifiedMapper().map(figure5_use_cases, groups=[["uc1"]], switching_graph=graph)


def test_missing_use_cases_get_singleton_groups(figure5_use_cases):
    result = UnifiedMapper().map(figure5_use_cases, groups=[["uc1"]])
    assert frozenset({"uc2"}) in result.groups


def test_ring_topology_kind(figure5_use_cases):
    params = NoCParameters(topology_kind="ring", max_cores_per_switch=1)
    result = UnifiedMapper(params=params).map(figure5_use_cases)
    assert result.topology.kind == "ring"
    assert result.switch_count >= 4


def test_map_with_placement_roundtrip(figure5_use_cases, figure5_mapping):
    mapper = UnifiedMapper(params=figure5_mapping.params, config=figure5_mapping.config)
    replay = mapper.map_with_placement(
        figure5_use_cases,
        figure5_mapping.topology,
        figure5_mapping.core_mapping,
        groups=[list(group) for group in figure5_mapping.groups],
    )
    assert replay.core_mapping == figure5_mapping.core_mapping
    assert replay.switch_count == figure5_mapping.switch_count


def test_map_with_placement_rejects_infeasible_placement(figure5_use_cases):
    params = NoCParameters(max_cores_per_switch=1)
    mapper = UnifiedMapper(params=params)
    from repro.noc.topology import Topology

    topology = Topology.mesh(2, 2)
    placement = {"C1": 0, "C2": 0, "C3": 1, "C4": 2}  # violates the NI limit
    with pytest.raises(MappingError):
        mapper.map_with_placement(figure5_use_cases, topology, placement)


def test_mapping_is_deterministic(figure5_use_cases):
    first = UnifiedMapper().map(figure5_use_cases)
    second = UnifiedMapper().map(figure5_use_cases)
    assert first.core_mapping == second.core_mapping
    assert first.switch_count == second.switch_count


# --------------------------------------------------------------------------- #
# worst-case baseline
# --------------------------------------------------------------------------- #
def test_worst_case_use_case_takes_per_pair_maximum(figure5_use_cases):
    worst = build_worst_case_use_case(figure5_use_cases)
    assert len(worst) == 3
    assert worst.flow_between("C3", "C4").bandwidth == pytest.approx(mbps(100))
    assert worst.flow_between("C1", "C2").bandwidth == pytest.approx(mbps(42))
    assert worst.flow_between("C2", "C3").bandwidth == pytest.approx(mbps(75))


def test_worst_case_use_case_takes_min_latency():
    uc1 = UseCase("u1", flows=[Flow("a", "b", mbps(10), latency=us(100))])
    uc2 = UseCase("u2", flows=[Flow("a", "b", mbps(5), latency=us(10))])
    worst = build_worst_case_use_case(UseCaseSet([uc1, uc2]))
    assert worst.flow_between("a", "b").latency == pytest.approx(us(10))


def test_worst_case_mapper_never_beats_unified(figure5_use_cases):
    unified = UnifiedMapper().map(figure5_use_cases)
    worst = WorstCaseMapper().map(figure5_use_cases)
    assert worst.method == "worst_case"
    assert unified.switch_count <= worst.switch_count


def test_worst_case_fails_when_aggregate_exceeds_core_capacity():
    use_cases = UseCaseSet(
        [
            UseCase(f"u{i}", flows=[Flow(f"s{i}{j}", "hub", mbps(350)) for j in range(4)])
            for i in range(4)
        ]
    )
    # Each use-case alone needs 1.4 GB/s into the hub (feasible); the
    # worst-case union needs 5.6 GB/s (infeasible at any topology size).
    UnifiedMapper().map(use_cases)
    with pytest.raises(MappingError):
        WorstCaseMapper().map(use_cases)


def test_hop_budget_memo_holds_one_entry_per_latency_and_slot_count():
    # A hop budget is a pure function of (latency, slots owned), so a
    # traffic sweep that re-characterises bandwidths on a long-lived mapper
    # must leave the memo at the number of distinct keys, not grow it with
    # every new bandwidth.
    from repro.core.usecase import TrafficClass
    from repro.gen import generate_benchmark
    from repro.noc.slot_table import slots_needed
    from repro.ops.events import apply_traffic

    base = generate_benchmark("spread", 6, seed=3)
    mapper = UnifiedMapper()
    params = mapper.params
    keys = set()
    for scale in (1.0, 0.97, 0.93, 0.9, 0.85, 0.8):
        use_cases, _changed = apply_traffic(base, {
            (use_case.name, flow.source, flow.destination): flow.bandwidth * scale
            for use_case in base for flow in use_case.flows
        })
        mapper.map(use_cases)
        keys.update(
            (flow.latency, slots_needed(flow.bandwidth, params.link_capacity,
                                        params.slot_table_size))
            for use_case in use_cases for flow in use_case.flows
            if flow.traffic_class == TrafficClass.GUARANTEED
        )
    assert len(mapper._hop_budget_cache) == len(keys)

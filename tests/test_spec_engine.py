"""Tests for the compiled-spec layer and the MappingEngine session caches."""

import hashlib
import json
import math
from dataclasses import replace

import pytest

from repro import (
    Core,
    Flow,
    MappingEngine,
    MappingError,
    SpecificationError,
    UnifiedMapper,
    UseCase,
    UseCaseSet,
    compile_spec,
)
from repro.core.spec import CompiledSpec
from repro.core.validate import validate_mapping
from repro.gen import generate_benchmark
from repro.noc.slot_table import slots_needed
from repro.perf.latency import NI_OVERHEAD_CYCLES
from repro.units import mbps, us

from test_mapping_regression import mapping_fingerprint


def _flows():
    return [
        Flow("a", "b", mbps(10), latency=us(100)),
        Flow("b", "c", mbps(75)),
        Flow("c", "d", mbps(100), traffic_class="BE"),
    ]


# --------------------------------------------------------------------------- #
# content hashes
# --------------------------------------------------------------------------- #
def test_use_case_hash_stable_across_flow_order():
    flows = _flows()
    forward = UseCase("u", flows=flows)
    backward = UseCase("u", flows=list(reversed(flows)))
    assert forward.content_hash() == backward.content_hash()


def test_use_case_hash_stable_across_core_order():
    cores = [Core("x", "memory"), Core("y", "processor")]
    one = UseCase("u", flows=_flows(), cores=cores)
    other = UseCase("u", flows=_flows(), cores=list(reversed(cores)))
    assert one.content_hash() == other.content_hash()


def test_use_case_hash_changes_with_content():
    base = UseCase("u", flows=_flows())
    renamed = UseCase("v", flows=_flows())
    heavier = UseCase("u", flows=[Flow("a", "b", mbps(11))])
    assert base.content_hash() != renamed.content_hash()
    assert base.content_hash() != heavier.content_hash()


def test_use_case_hash_tracks_mutation_until_frozen():
    uc = UseCase("u", flows=[Flow("a", "b", mbps(10))])
    before = uc.content_hash()
    uc.add_flow(Flow("b", "c", mbps(5)))
    assert uc.content_hash() != before


def test_use_case_set_hash_stable_across_insertion_order():
    def build(order):
        u1 = UseCase("u1", flows=[Flow("a", "b", mbps(10))])
        u2 = UseCase("u2", flows=[Flow("b", "c", mbps(20))])
        members = [u1, u2] if order else [u2, u1]
        return UseCaseSet(members, name="design")

    assert build(True).content_hash() == build(False).content_hash()


# --------------------------------------------------------------------------- #
# immutability enforcement
# --------------------------------------------------------------------------- #
def test_frozen_use_case_rejects_mutation():
    uc = UseCase("u", flows=[Flow("a", "b", mbps(10))])
    uc.freeze()
    assert uc.frozen
    with pytest.raises(SpecificationError):
        uc.add_flow(Flow("b", "c", mbps(5)))
    with pytest.raises(SpecificationError):
        uc.add_core(Core("z"))
    uc.freeze()  # idempotent


def test_frozen_set_rejects_add_and_freezes_members():
    uc = UseCase("u", flows=[Flow("a", "b", mbps(10))])
    design = UseCaseSet([uc], name="d")
    design.freeze()
    assert design.frozen and uc.frozen
    with pytest.raises(SpecificationError):
        design.add(UseCase("v", flows=[Flow("a", "c", mbps(1))]))
    with pytest.raises(SpecificationError):
        uc.add_flow(Flow("x", "y", mbps(1)))


def test_compile_freezes_and_interns_cores():
    design = UseCaseSet([UseCase("u", flows=_flows())], name="d")
    spec = compile_spec(design)
    assert design.frozen
    assert isinstance(spec, CompiledSpec)
    assert spec.core_names == ("a", "b", "c", "d")
    compiled_uc = spec["u"]
    flow = compiled_uc.flows[0]
    assert spec.core_names[flow.source_index] == flow.source
    assert spec.core_names[flow.destination_index] == flow.destination
    # BE flows compile with guaranteed=False.
    assert [f.guaranteed for f in compiled_uc.flows] == [True, True, False]
    # Original Flow objects are preserved for result records.
    assert compiled_uc.flow_between("a", "b").bandwidth == pytest.approx(mbps(10))


def test_new_sets_may_be_built_from_frozen_use_cases():
    uc = UseCase("u", flows=[Flow("a", "b", mbps(10))]).freeze()
    rebuilt = UseCaseSet([uc], name="again")  # must not raise
    assert "u" in rebuilt


# --------------------------------------------------------------------------- #
# engine caches
# --------------------------------------------------------------------------- #
def test_engine_compile_caches_by_identity_and_content():
    engine = MappingEngine()
    design = UseCaseSet([UseCase("u", flows=_flows())], name="d")
    twin = UseCaseSet([UseCase("u", flows=_flows())], name="d")
    spec = engine.compile(design)
    assert engine.compile(design) is spec  # identity fast path
    assert engine.compile(twin) is spec  # same ordered content -> shared spec
    assert engine.compile(spec) is spec  # specs pass through
    # The hash-deduped set is pinned by its id-map entry, so repeated calls
    # take the identity fast path instead of recompiling.
    entry = engine._specs_by_id[id(twin)]
    assert entry[0] is twin and entry[1] is spec
    import repro.core.engine as engine_module

    calls = []
    original = engine_module.compile_spec
    engine_module.compile_spec = lambda s: calls.append(s) or original(s)
    try:
        assert engine.compile(twin) is spec
    finally:
        engine_module.compile_spec = original
    assert calls == []  # no recompilation


def test_engine_compile_distinguishes_changed_specs():
    engine = MappingEngine()
    design = UseCaseSet([UseCase("u", flows=_flows())], name="d")
    changed = UseCaseSet(
        [UseCase("u", flows=_flows() + [Flow("d", "a", mbps(1))])], name="d"
    )
    assert engine.compile(design) is not engine.compile(changed)
    assert engine.compile(design).spec_hash != engine.compile(changed).spec_hash


def test_engine_requirement_bundle_cached_per_grouping(figure5_use_cases):
    engine = MappingEngine()
    spec = engine.compile(figure5_use_cases)
    singleton = engine.resolve_groups(spec)
    shared = engine.resolve_groups(spec, groups=[["uc1", "uc2"]])
    bundle = engine.requirements_for(spec, singleton)
    assert engine.requirements_for(spec, singleton) is bundle  # hit
    assert engine.requirements_for(spec, shared) is not bundle  # other grouping
    assert len(bundle.requirements) == 2
    assert len(engine.requirements_for(spec, shared).requirements) == 1


def test_cold_map_builds_no_fixed_placement_plan(figure5_use_cases):
    engine = MappingEngine()
    result = engine.map(figure5_use_cases)
    spec = engine.compile(figure5_use_cases)
    bundle = engine.requirements_for(spec, engine.resolve_groups(spec))
    # a cold map reads only the requirements and the worklist
    assert bundle._group_plans is None and bundle._group_endpoints is None
    engine.placement_cost(figure5_use_cases, result.topology, result.core_mapping)
    # the first fixed-placement evaluation built the plan, once
    plans = bundle.group_plans
    assert plans is bundle.group_plans and bundle._group_endpoints is not None
    assert [req for plan in plans.values() for req, _members in plan] == sorted(
        bundle.order, key=lambda req: req.group_id
    )


def test_engine_map_matches_direct_mapper_and_caches(figure5_use_cases):
    direct = UnifiedMapper().map(figure5_use_cases)
    engine = MappingEngine()
    first = engine.map(figure5_use_cases)
    assert mapping_fingerprint(first) == mapping_fingerprint(direct)
    assert engine.map(figure5_use_cases) is first  # result cache


def test_engine_with_params_shares_spec_cache(figure5_use_cases):
    engine = MappingEngine()
    spec = engine.compile(figure5_use_cases)
    from repro import NoCParameters
    from repro.units import mhz

    sibling = engine.with_params(params=NoCParameters(frequency_hz=mhz(1000)))
    assert sibling.compile(figure5_use_cases) is spec
    # Different operating point, independent results.
    assert sibling.map(figure5_use_cases).params.frequency_hz == mhz(1000)


def test_engine_worst_case_matches_legacy_construction(figure5_use_cases):
    from repro import build_worst_case_use_case

    engine = MappingEngine()
    via_engine = engine.worst_case(figure5_use_cases)
    worst = build_worst_case_use_case(figure5_use_cases)
    legacy = UnifiedMapper().map(
        UseCaseSet([worst], name="legacy-wc"), method_name="worst_case"
    )
    assert via_engine.method == "worst_case"
    assert mapping_fingerprint(via_engine) == mapping_fingerprint(legacy)
    assert engine.worst_case(figure5_use_cases) is via_engine  # cached


# --------------------------------------------------------------------------- #
# forced-topology mapping
# --------------------------------------------------------------------------- #
#: the sparse 16-core design the repair and monitor paths run on a 4x4 mesh
SPARSE16 = dict(use_case_count=10, core_count=16, seed=3, flows_per_use_case=(8, 14))


def _forced_topology_cases():
    from repro.noc.failures import FailureSet
    from repro.noc.topology import Topology

    sparse = generate_benchmark("spread", **SPARSE16)
    large = generate_benchmark(
        "spread", 40, core_count=48, seed=3, flows_per_use_case=(8, 14)
    )
    degraded = Topology.mesh(4, 4).with_failures(FailureSet().mark_link_down(5, 6))
    return {
        "sparse-4x4": (sparse, Topology.mesh(4, 4)),
        "48core-8x8": (large, Topology.mesh(8, 8)),
        "sparse-degraded-4x4": (sparse, degraded),
    }


@pytest.mark.parametrize("case", ["sparse-4x4", "48core-8x8", "sparse-degraded-4x4"])
def test_engine_map_onto_topology_matches_fixed_placement_mapper(case):
    from repro.io.serialization import mapping_result_to_dict

    design, topology = _forced_topology_cases()[case]
    engine = MappingEngine()
    forced = engine.map(design, topology=topology)
    direct = engine.mapper.map_with_placement(design, topology, {}, validate=False)
    assert forced.method == "unified-fixed-placement"
    assert forced.topology is topology
    assert mapping_fingerprint(forced) == mapping_fingerprint(direct)
    assert mapping_result_to_dict(forced) == mapping_result_to_dict(direct)
    assert engine.cache_info()["result_misses"] == 1

    # a second call is a result-cache hit, and the minimal-topology mapping
    # of the same design is a different entry
    assert engine.map(design, topology=topology) is forced
    info = engine.cache_info()
    assert (info["result_hits"], info["result_misses"]) == (1, 1)
    if case == "sparse-4x4":
        assert engine.map(design) is not forced
        assert engine.cache_info()["result_misses"] == 2


# --------------------------------------------------------------------------- #
# fixed-placement evaluation
# --------------------------------------------------------------------------- #
def _matches_general_path(mapper, engine, use_cases, spec, topology, placement, groups):
    """Fast path against the constructive path on one complete placement.

    Asserts identical fingerprints and costs and a ``validate_mapping``
    report free of non-deadlock issues where the constructive path succeeds, and ``MappingError`` from both
    where it fails; returns the fingerprint, or ``None`` when the placement
    is infeasible.
    """
    try:
        reference = mapper.map_with_placement(
            use_cases, topology, placement, groups=groups, validate=False
        )
    except MappingError:
        with pytest.raises(MappingError):
            engine.evaluate_placement(spec, topology, placement, groups=groups)
        with pytest.raises(MappingError):
            engine.placement_cost(spec, topology, placement, groups=groups)
        return None
    fast = engine.evaluate_placement(spec, topology, placement, groups=groups)
    fingerprint = mapping_fingerprint(fast)
    assert fingerprint == mapping_fingerprint(reference)
    # Best-effort flows on minimal adaptive paths can form a cyclic channel
    # dependency graph, which the referee reports as "deadlock"; the mapper
    # does not route around it, so every other check must pass.
    issues = [
        issue for issue in validate_mapping(fast, use_cases).issues
        if issue.kind != "deadlock"
    ]
    assert not issues, issues
    flat_cost = sum(
        cfg.total_bandwidth_hops() for cfg in reference.configurations.values()
    )
    assert engine.placement_cost(spec, topology, placement, groups=groups) == flat_cost
    assert fast.cached_communication_cost == flat_cost
    return fingerprint


def _latency_bound(design, hops, params):
    """``design`` with every flow's latency constraint half a slot above the
    worst-case bound of a ``hops``-hop path at the flow's own slot count,
    so the mapper's hop budget is ``hops`` for every single-flow pair."""
    use_cases = []
    for use_case in (design[name] for name in design.names):
        flows = []
        for flow in use_case.flows:
            owned = slots_needed(flow.bandwidth, params.link_capacity, params.slot_table_size)
            cycles = (
                math.ceil(params.slot_table_size / owned) + hops + NI_OVERHEAD_CYCLES + 0.5
            )
            flows.append(replace(flow, latency=cycles * params.slot_duration))
        use_cases.append(UseCase(use_case.name, flows=flows))
    return UseCaseSet(use_cases, name=f"{design.name}-latency-{hops}")


#: SHA-256 over the JSON list of fingerprints (``null`` when infeasible) of
#: every placement the differential test below evaluates, in order,
#: recorded from the constructive path when it still had its own per-pair
#: implementation.  It keeps the test independent of the shared kernel
#: that both sides now call.
_DIFFERENTIAL_DIGEST = (
    "4310a817d43895b02f270e336561b99f364680067e9f37dcbb4bb11db5a86e64"
)


def test_evaluate_placement_bit_identical_to_general_path():
    import random

    from repro import MapperConfig
    from repro.core.usecase import TrafficClass
    from repro.noc.failures import FailureSet
    from repro.noc.topology import Topology

    fingerprints = []
    use_cases = generate_benchmark("spread", 5, seed=3)
    mapper = UnifiedMapper()
    result = mapper.map(use_cases)
    engine = MappingEngine(params=result.params, config=result.config)
    spec = engine.compile(use_cases)
    groups = [list(g) for g in result.groups]
    rng = random.Random(5)
    cores = sorted(result.core_mapping)
    placement = dict(result.core_mapping)
    for _ in range(8):
        first, second = rng.sample(cores, 2)
        placement[first], placement[second] = placement[second], placement[first]
        fingerprints.append(_matches_general_path(
            mapper, engine, use_cases, spec, result.topology, placement, groups
        ))
    assert all(fingerprints)

    # A degraded fabric: spread-10 provisioned on mesh-3x3, then link 1<->4
    # and switch 8 fail; random neighbours of the provisioned placement.
    # The second design makes every other use case best-effort, so both
    # traffic classes go through the evaluator.  The third is a 12-core
    # spread-4 whose latency constraints allow 3 hops, mapped with 2-hop
    # detours allowed, so the hop budget drops some candidate paths of a
    # pair (the 4-hop detours of 2-hop pairs) and every candidate of others.
    spread10 = generate_benchmark("spread", 10, seed=3)
    mixed = UseCaseSet(
        [
            UseCase(use_case.name, flows=[
                replace(flow, traffic_class=TrafficClass.BEST_EFFORT) if index % 2
                else flow
                for flow in use_case.flows
            ])
            for index, use_case in enumerate(spread10[name] for name in spread10.names)
        ],
        name="spread10-mixed",
    )
    detour_mapper = UnifiedMapper(
        config=MapperConfig(routing_policy="k_shortest", max_detour_hops=2)
    )
    latency_bound = _latency_bound(
        generate_benchmark("spread", 4, core_count=12, seed=3), 3, detour_mapper.params
    )
    mesh = Topology.mesh(3, 3)
    degraded = mesh.with_failures(FailureSet().mark_link_down(1, 4).mark_switch_down(8))
    for constructive, use_cases, topology in (
        (mapper, spread10, degraded), (mapper, mixed, degraded),
        (detour_mapper, latency_bound, mesh),
    ):
        provisioned = constructive.map_with_placement(use_cases, mesh, {}, validate=False)
        engine = MappingEngine(params=provisioned.params, config=provisioned.config)
        spec = engine.compile(use_cases)
        groups = [list(g) for g in provisioned.groups]
        cores = sorted(provisioned.core_mapping)
        switches = [switch.index for switch in topology.switches]
        outcomes = []
        for _ in range(40):
            placement = dict(provisioned.core_mapping)
            if rng.random() < 0.5:
                first, second = rng.sample(cores, 2)
                placement[first], placement[second] = placement[second], placement[first]
            else:
                placement[rng.choice(cores)] = rng.choice(switches)
            outcomes.append(_matches_general_path(
                constructive, engine, use_cases, spec, topology, placement, groups
            ))
        assert any(outcomes) and not all(outcomes)  # both branches exercised
        fingerprints.extend(outcomes)
    digest = hashlib.sha256(json.dumps(fingerprints).encode()).hexdigest()
    assert digest == _DIFFERENTIAL_DIGEST


def test_evaluate_placement_uses_group_cache(figure5_use_cases):
    result = UnifiedMapper().map(figure5_use_cases)
    engine = MappingEngine(params=result.params, config=result.config)
    spec = engine.compile(figure5_use_cases)
    placement = dict(result.core_mapping)
    engine.evaluate_placement(spec, result.topology, placement)
    cached = len(engine._group_evals)
    engine.evaluate_placement(spec, result.topology, placement)
    assert len(engine._group_evals) == cached  # second call was all hits


def test_evaluate_placement_rejects_overfull_switch(figure5_use_cases):
    from repro import NoCParameters, TopologyError
    from repro.noc.topology import Topology

    params = NoCParameters(max_cores_per_switch=1)
    engine = MappingEngine(params=params)
    spec = engine.compile(figure5_use_cases)
    topology = Topology.mesh(2, 2)
    placement = {"C1": 0, "C2": 0, "C3": 1, "C4": 2}  # violates the NI limit
    with pytest.raises(MappingError):
        engine.evaluate_placement(spec, topology, placement)
    with pytest.raises(MappingError):
        engine.placement_cost(spec, topology, placement)
    # the constructive path applies the same placement check
    with pytest.raises(MappingError):
        engine.mapper.map_with_placement(figure5_use_cases, topology, placement)
    unknown = {"C1": 0, "C2": 7, "C3": 1, "C4": 2}  # no switch 7 on a 2x2 mesh
    with pytest.raises(TopologyError):
        engine.evaluate_placement(spec, topology, unknown)
    with pytest.raises(TopologyError):
        engine.mapper.map_with_placement(figure5_use_cases, topology, unknown)


def test_evaluate_placement_falls_back_on_partial_placement(figure5_use_cases):
    result = UnifiedMapper().map(figure5_use_cases)
    engine = MappingEngine(params=result.params, config=result.config)
    spec = engine.compile(figure5_use_cases)
    partial = dict(result.core_mapping)
    partial.pop("C4")
    outcome = engine.evaluate_placement(spec, result.topology, partial)
    assert "C4" in outcome.core_mapping  # general path placed the rest


# --------------------------------------------------------------------------- #
# refiners and the design flow ride the engine
# --------------------------------------------------------------------------- #
def test_refiners_accept_shared_engine(figure5_use_cases):
    from repro import AnnealingRefiner, NoCParameters, TabuRefiner

    params = NoCParameters(max_cores_per_switch=1)
    initial = UnifiedMapper(params=params).map(figure5_use_cases)
    engine = MappingEngine(params=initial.params, config=initial.config)
    annealed = AnnealingRefiner(iterations=10, seed=1).refine(
        initial, figure5_use_cases, engine=engine
    )
    tabooed = TabuRefiner(iterations=3, neighbours_per_iteration=4).refine(
        initial, figure5_use_cases, engine=engine
    )
    assert annealed.refined_cost <= annealed.initial_cost
    assert tabooed.refined_cost <= tabooed.initial_cost
    assert len(engine._group_evals) > 0  # both refiners fed the shared cache


def test_design_flow_exposes_engine(figure5_use_cases):
    from repro import DesignFlow

    flow = DesignFlow()
    outcome = flow.run(figure5_use_cases)
    assert isinstance(flow.engine, MappingEngine)
    # The flow's mapping is served (and cached) by its engine session.
    assert flow.engine.map(outcome.use_cases,
                           switching_graph=outcome.switching_graph) is outcome.mapping

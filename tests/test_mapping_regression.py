"""Regression tests pinning the mapper's results to the seed implementation.

The bitmask slot tables, incremental resource accounting and worklist/heap
scheduling are pure performance work: they must not change *any* observable
mapping decision.  These tests fingerprint the full mapping result (topology,
core mapping, per-flow switch paths and slot assignments) of the seed
benchmark designs and compare against hashes recorded from the seed
implementation, so any semantic drift in the hot path fails loudly.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro import MappingEngine, NoCParameters, UnifiedMapper
from repro.gen import generate_benchmark, set_top_box_design
from repro.noc.topology import Topology


def mapping_fingerprint(result) -> str:
    """Stable SHA-256 over every observable decision of a mapping result."""
    slots = {}
    for name, configuration in sorted(result.configurations.items()):
        for allocation in configuration:
            key = f"{name}:{allocation.flow.source}->{allocation.flow.destination}"
            slots[key] = [
                list(allocation.switch_path),
                sorted((str(link), list(indices)) for link, indices in allocation.link_slots.items()),
            ]
    blob = json.dumps(
        [result.topology.name, sorted(result.core_mapping.items()), slots],
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


#: (design builder, expected topology, expected switch count, seed fingerprint)
SEED_EXPECTATIONS = {
    "set_top_box_4uc": (
        lambda: set_top_box_design(use_case_count=4).use_cases,
        "mesh-2x2",
        4,
        "51558260176cd00824e83600f3c23c0c54bc17eceece42685930fc4f5034f2af",
    ),
    "spread_10uc": (
        lambda: generate_benchmark("spread", 10, seed=3),
        "mesh-2x2",
        4,
        "fe6d93388377d6e6d578733f2efe5de71e885b8b2f4280ddd634f13a74994a29",
    ),
    "spread_40uc": (
        lambda: generate_benchmark("spread", 40, seed=3),
        "mesh-2x2",
        4,
        "ce32a52f2cc8b7bd778e48de74aae4259eeeb3446d27bf3af69fba18a01ba6c4",
    ),
}


@pytest.mark.parametrize("name", sorted(SEED_EXPECTATIONS))
def test_mapping_results_identical_to_seed(name):
    build, topology_name, switch_count, fingerprint = SEED_EXPECTATIONS[name]
    result = UnifiedMapper().map(build())
    assert result.topology.name == topology_name
    assert result.switch_count == switch_count
    assert mapping_fingerprint(result) == fingerprint


def test_mapping_fingerprint_stable_across_mapper_reuse():
    use_cases = generate_benchmark("spread", 10, seed=3)
    mapper = UnifiedMapper()
    first = mapping_fingerprint(mapper.map(use_cases))
    second = mapping_fingerprint(mapper.map(use_cases))
    assert first == second


def test_map_with_placement_round_trips_the_mapping():
    use_cases = generate_benchmark("spread", 10, seed=3)
    mapper = UnifiedMapper()
    result = mapper.map(use_cases)
    groups = [list(group) for group in result.groups]
    use_cases.validate()
    replayed = mapper.map_with_placement(
        use_cases, result.topology, result.core_mapping, groups=groups,
        validate=False,
    )
    assert replayed.core_mapping == result.core_mapping
    assert mapping_fingerprint(replayed) == mapping_fingerprint(result)


def test_topology_growth_fingerprint_pinned():
    # Six topology attempts (mesh-2x2 -> mesh-4x5): every failed attempt
    # copies and discards a full set of group states.
    result = UnifiedMapper().map(generate_benchmark("bottleneck", 24, seed=779096883))
    assert result.attempted_topologies == (
        "mesh-2x2", "mesh-2x3", "mesh-3x3", "mesh-3x4", "mesh-4x4", "mesh-4x5",
    )
    assert mapping_fingerprint(result) == (
        "05f4e7090fbb3478fb3d3c96ae2635fe217da1f430ee7588156d7bbd2f51db5a"
    )


def test_mesh8x8_free_placement_fingerprint_pinned():
    # 60 use cases of 48 cores placed from scratch on mesh-8x8: sixty group
    # states, each touching a small part of the 224 links.
    use_cases = generate_benchmark(
        "spread", 60, core_count=48, seed=3, flows_per_use_case=(8, 14)
    )
    result = UnifiedMapper().map_with_placement(use_cases, Topology.mesh(8, 8), {})
    assert mapping_fingerprint(result) == (
        "c43c4c552be3be714db9a8039cfe4739ee6b3d4ffccc7de512e20b5aec61bb11"
    )


#: forced free placements on tori: (kind, use cases, seed, rows) -> fingerprint,
#: each 48 cores with 8-14 flows per use case
TORUS_PLACEMENTS = {
    ("spread", 40, 1, 6): "e258913a4ef9f41d3e3c8e8d836f47f13812cae36c5aa2de84a064497fc44405",
    ("bottleneck", 40, 2, 6): "4b3a5a8440c7800b9c6b13f69cf48c3ba771fbefc4655a07aebd58d2f43e4221",
    ("spread", 60, 3, 6): "deaab6c8de7363e2f0829b7f7d953558e0d670f75b32687d7b007035802879a6",
    ("spread", 40, 1, 8): "e01e22af9dadb2f7d5595b193142a3fe6d91d9019a9ced42a71e4a68c89d2b0b",
    ("bottleneck", 40, 2, 8): "f23a4420af90b79be468670d9fd37dca0ad6a3901df2c015353353ab1136b531",
    ("spread", 60, 3, 8): "31f15de17895fd12716b4f3fc79cfbad2a1d39307a555714b91171b874058799",
}


@pytest.mark.parametrize("key", sorted(TORUS_PLACEMENTS))
def test_torus_free_placement_fingerprint_pinned(key):
    # The wraparound links make a torus's hop counts differ from the grid
    # (Manhattan) distance the placement heuristic ranks candidates by.
    kind, count, seed, rows = key
    use_cases = generate_benchmark(
        kind, count, core_count=48, seed=seed, flows_per_use_case=(8, 14)
    )
    result = UnifiedMapper().map_with_placement(use_cases, Topology.torus(rows, rows), {})
    assert mapping_fingerprint(result) == TORUS_PLACEMENTS[key]


#: topology growth on tori and rings: (topology kind, benchmark kind, use
#: cases, seed, cores) -> (final topology, fingerprint)
KIND_GROWTH = {
    ("torus", "bottleneck", 24, 779096883, 20): (
        "torus-2x3", "46a4d05ab37a8bcd4d7193e8aed267f4cca3de96cb02424a34debe1c087da95d",
    ),
    ("torus", "spread", 10, 3, 20): (
        "torus-2x2", "f60ff3c26dcc0158e1ca400eb1d28b121e7afaadba830ad6b886a90bd090e69b",
    ),
    ("ring", "bottleneck", 12, 5, 12): (
        "ring-3", "fd7da98ac6156fb7f98863ba819e766b7924ae94ae37323125559d7da04defc0",
    ),
    ("ring", "spread", 20, 7, 20): (
        "ring-4", "f1603feef7808508b42f3ad83298b3c25c65798e255f4543275b67329ac1f981",
    ),
    ("ring", "spread", 30, 4, 20): (
        "ring-4", "4f0d301f916223864072ae6cca8a6b7b5ba4ab8f496efd2f96e5982b57b8f10d",
    ),
}


@pytest.mark.parametrize("key", sorted(KIND_GROWTH))
def test_torus_and_ring_growth_fingerprint_pinned(key):
    topology_kind, kind, count, seed, cores = key
    use_cases = generate_benchmark(kind, count, seed=seed, core_count=cores)
    result = MappingEngine(NoCParameters(topology_kind=topology_kind)).map(use_cases)
    topology_name, fingerprint = KIND_GROWTH[key]
    assert result.topology.name == topology_name
    assert mapping_fingerprint(result) == fingerprint

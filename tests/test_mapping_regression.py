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

from repro import UnifiedMapper
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

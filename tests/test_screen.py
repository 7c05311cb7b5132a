"""Tests for the candidate screen (repro.optimize.screen).

Pins the contract: screening is a pure *speed* change.  A screened
refinement run makes the same decisions as the retired unscreened walk
through ``MappingEngine.placement_cost`` (same refined cost, same accepted
moves, same mapping fingerprint, pinned below as that walk recorded them),
and ``CandidateScreen.cost`` agrees with ``MappingEngine.placement_cost``
candidate for candidate — returning ``None`` exactly where the engine
raises ``MappingError``.  Its batch verdicts are exact or true lower
bounds.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.engine import MappingEngine
from repro.exceptions import MappingError
from repro.gen import generate_benchmark
from repro.io.serialization import mapping_fingerprint
from repro.noc import Topology
from repro.optimize import AnnealingRefiner, TabuRefiner


def spread10():
    return generate_benchmark("spread", 10, seed=3)


# --------------------------------------------------------------------------- #
# refinement decisions (the contract everything hangs off)
# --------------------------------------------------------------------------- #
def _spread10_mapped():
    use_cases = spread10()
    return use_cases, MappingEngine().map(use_cases)


def _spread100_on_mesh8x8():
    # 100 use cases of 48 cores forced onto mesh-8x8: thousands of minimal
    # paths over 224 links, the big-mesh regime the screen exists for
    use_cases = generate_benchmark(
        "spread", 100, core_count=48, seed=3, flows_per_use_case=(8, 14)
    )
    return use_cases, MappingEngine().map(use_cases, topology=Topology.mesh(8, 8))


#: (refiner, knobs, design), then the refined cost, accepted moves and
#: refined fingerprint of the deleted unscreened ``placement_cost`` walk,
#: then the SHA-256 of the screened walk's ``export_evaluations()`` — all
#: recorded on the last commit that had both walks.  Screening prunes tabu
#: candidates that cannot win and may evaluate annealing candidates in
#: another order, so only "annealing-25" exports exactly what the
#: unscreened walk exported.
WALKS = {
    "annealing": (
        AnnealingRefiner, dict(iterations=40, seed=1), _spread10_mapped,
        32815200873.850708, 30,
        "fe6d93388377d6e6d578733f2efe5de71e885b8b2f4280ddd634f13a74994a29",
        "66d02b84b84cc9819f8c02c390d93a5bb0937f423a46a35e84eaee8285a9562b",
    ),
    "tabu": (
        TabuRefiner, dict(iterations=8, seed=1), _spread10_mapped,
        28671312062.759502, 8,
        "f78120e69aa4bb0454c9a4fa6a51c07c782f549e6de7ac2a0401562498373655",
        "c0cb559a6ff49a1bfe5317f62069e5885a199ef86a8b8d1d9e759543fe795435",
    ),
    "annealing-25": (
        AnnealingRefiner, dict(iterations=25, seed=1), _spread10_mapped,
        32815200873.850708, 21,
        "fe6d93388377d6e6d578733f2efe5de71e885b8b2f4280ddd634f13a74994a29",
        "0e1784b70b7b47707ddf425bdccffd2bf15896e8fb445b9ed689e186efb036ac",
    ),
    # the 60-iteration seed-0 anneal of spread-10 on mesh-2x2
    "annealing-60": (
        AnnealingRefiner, dict(iterations=60, seed=0), _spread10_mapped,
        31254044270.59212, 33,
        "7f3d6548477951dd68d8f8d114a92281f8a00c0213692112d898840103af2cef",
        "c52e256695ee872221114f73ad5fe4b1b7713e41ddceee58b0374f353b1e8aa6",
    ),
    "tabu-mesh8x8": (
        TabuRefiner, dict(iterations=2, neighbours_per_iteration=6, seed=0),
        _spread100_on_mesh8x8,
        217042876065.28738, 2,
        "7f03c88d589a8ac716b203db7cff1679737e9f05b433a05940bbfd028b4c6cd2",
        "1b013c22800334c51c13e2ff16a530d82deaad2085674c0383421ad142403992",
    ),
}


def _run_pinned_walk(case):
    refiner_cls, knobs, design, cost, accepted, fingerprint, exports = WALKS[case]
    use_cases, result = design()
    engine = MappingEngine()
    outcome = refiner_cls(**knobs).refine(result, use_cases, engine=engine)
    assert outcome.refined_cost == cost
    assert outcome.accepted_moves == accepted
    assert mapping_fingerprint(outcome.refined) == fingerprint
    digest = hashlib.sha256(
        json.dumps(engine.export_evaluations(), sort_keys=True).encode()
    ).hexdigest()
    assert digest == exports
    return engine


@pytest.mark.parametrize(
    "case", ["annealing", "tabu", "annealing-60", "tabu-mesh8x8"]
)
def test_screened_refinement_is_bit_identical_to_scalar(case):
    info = _run_pinned_walk(case).cache_info()
    assert info["screen_misses"] > 0
    # a screen computation *is* a computed evaluation
    assert info["evaluation_misses"] >= info["screen_misses"]


def test_screened_exports_match_scalar_exports():
    _run_pinned_walk("annealing-25")


# --------------------------------------------------------------------------- #
# cost / screen parity with the engine
# --------------------------------------------------------------------------- #
def _screen_context():
    use_cases = spread10()
    engine = MappingEngine()
    result = engine.map(use_cases)
    spec = engine.compile(use_cases)
    groups = [list(group) for group in result.groups]
    screen = engine.screener(spec, result.topology, groups=groups)
    return engine, spec, result, groups, screen


def _random_neighbours(result, rng, count):
    cores = sorted(result.core_mapping)
    switches = [switch.index for switch in result.topology.switches]
    neighbours = []
    for _ in range(count):
        placement = dict(result.core_mapping)
        if rng.random() < 0.5:
            first, second = rng.sample(cores, 2)
            placement[first], placement[second] = placement[second], placement[first]
        else:
            placement[rng.choice(cores)] = rng.choice(switches)
        neighbours.append(placement)
    return neighbours


def test_cost_matches_placement_cost_on_random_neighbours():
    engine, spec, result, groups, screen = _screen_context()
    rng = random.Random(7)
    feasible = infeasible = 0
    for placement in _random_neighbours(result, rng, 120):
        try:
            expected = engine.placement_cost(
                spec, result.topology, placement, groups=groups
            )
        except MappingError:
            expected = None
        actual = screen.cost(placement)
        assert actual == expected
        if expected is None:
            infeasible += 1
        else:
            feasible += 1
    assert feasible and infeasible  # both branches exercised


def test_screen_lower_bounds_never_exceed_feasible_costs():
    _engine, _spec, result, _groups, screen = _screen_context()
    rng = random.Random(11)
    neighbours = _random_neighbours(result, rng, 60)
    reports = screen.screen(neighbours)
    assert len(reports) == len(neighbours)
    checked = 0
    for placement, report in zip(neighbours, reports):
        cost = screen.cost(placement)
        if not report.admissible:
            # inadmissible verdicts are decision-identical to evaluation
            assert cost is None
            continue
        if cost is not None:
            assert report.lower_bound <= cost * (1 + 1e-9)
            checked += 1
    assert checked


def test_screen_returns_exact_cost_once_memoised():
    _engine, _spec, result, _groups, screen = _screen_context()
    placement = dict(result.core_mapping)
    exact = screen.cost(placement)
    report = screen.screen([placement])[0]
    assert report.admissible
    assert report.cost == exact
    assert report.lower_bound == exact


def test_screen_counters_surface_in_cache_info():
    engine, _spec, result, _groups, screen = _screen_context()
    placement = dict(result.core_mapping)
    before = engine.cache_info()
    screen.cost(placement)
    mid = engine.cache_info()
    assert mid["screen_misses"] + mid["evaluation_hits"] > (
        before["screen_misses"] + before["evaluation_hits"]
    )
    screen.cost(placement)  # second look: answered by the run-local memo
    after = engine.cache_info()
    assert after["screen_hits"] > mid["screen_hits"]
    assert after["screen_misses"] == mid["screen_misses"]


def test_screener_rejects_nothing_it_should_not():
    # incomplete placements fall back to the engine's general path
    engine, _spec, result, _groups, screen = _screen_context()
    partial = dict(result.core_mapping)
    partial.pop(sorted(partial)[0])
    report = screen.screen([partial])[0]
    assert report.admissible and report.cost is None and report.lower_bound == 0.0


# --------------------------------------------------------------------------- #
# start-up cost
# --------------------------------------------------------------------------- #
def test_import_repro_loads_no_numpy():
    # Nothing in the library needs numpy; importing it would cost every
    # process its start-up time and resident memory.
    source_root = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (source_root, env.get("PYTHONPATH")) if part
    )
    completed = subprocess.run(
        [sys.executable, "-c", "import sys, repro; print('numpy' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert completed.stdout.strip() == "False"

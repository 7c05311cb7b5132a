"""Tests for the candidate screen (repro.optimize.screen).

Pins the contract: screening is a pure *speed* change.  A screened
refinement run is bit-identical to the unscreened walk through
``MappingEngine.placement_cost`` (same refined cost, same accepted moves,
same mapping fingerprint, same exported evaluations), and
``CandidateScreen.cost`` agrees with ``MappingEngine.placement_cost``
candidate for candidate — returning ``None`` exactly where the engine
raises ``MappingError``.  Its batch verdicts are exact or true lower
bounds.
"""

from __future__ import annotations

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
from repro.optimize import AnnealingRefiner, TabuRefiner


def spread10():
    return generate_benchmark("spread", 10, seed=3)


# --------------------------------------------------------------------------- #
# refinement bit-identity (the contract everything hangs off)
# --------------------------------------------------------------------------- #
def _refine(refiner_cls, use_cases, result, **kwargs):
    engine = MappingEngine()
    outcome = refiner_cls(seed=1, **kwargs).refine(result, use_cases, engine=engine)
    return outcome, engine


@pytest.mark.parametrize(
    "refiner_cls,kwargs",
    [
        (AnnealingRefiner, {"iterations": 40}),
        (TabuRefiner, {"iterations": 8}),
    ],
    ids=["annealing", "tabu"],
)
def test_screened_refinement_is_bit_identical_to_scalar(refiner_cls, kwargs):
    use_cases = spread10()
    result = MappingEngine().map(use_cases)
    scalar, scalar_engine = _refine(
        refiner_cls, use_cases, result, screen=False, **kwargs
    )
    assert scalar_engine.cache_info()["screen_misses"] == 0

    outcome, engine = _refine(refiner_cls, use_cases, result, **kwargs)
    assert outcome.refined_cost == scalar.refined_cost
    assert outcome.accepted_moves == scalar.accepted_moves
    assert outcome.refined.core_mapping == scalar.refined.core_mapping
    assert mapping_fingerprint(outcome.refined) == mapping_fingerprint(scalar.refined)
    info = engine.cache_info()
    assert info["screen_misses"] > 0
    # a screen computation *is* a computed evaluation
    assert info["evaluation_misses"] >= info["screen_misses"]


def test_screened_exports_match_scalar_exports():
    use_cases = spread10()
    result = MappingEngine().map(use_cases)
    _, scalar_engine = _refine(
        AnnealingRefiner, use_cases, result, screen=False, iterations=25
    )
    _, screened_engine = _refine(AnnealingRefiner, use_cases, result, iterations=25)
    assert screened_engine.export_evaluations() == scalar_engine.export_evaluations()


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

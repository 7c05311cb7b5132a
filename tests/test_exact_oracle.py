"""Differential suite for the exact mapping backend (`repro.optimize.ilp`).

A brute-force oracle exhaustively enumerates every core-to-switch
assignment over the engine's own topology growth schedule for tiny specs
(<= 4 cores, <= 3 use-cases) and the exact backend must reproduce it
bit-for-bit: same first-feasible topology, same optimal cost under
``MappingEngine.placement_cost``.  The heuristic, in turn, may never beat
the oracle.  The paper's spread-10 design (reduced to 8 cores so exact
search stays tractable) pins golden gap values.
"""

from __future__ import annotations

import itertools
from collections import Counter

import pytest

from repro import MapperConfig, MappingEngine, NoCParameters, generate_benchmark
from repro.core.validate import validate_mapping
from repro.exceptions import ConfigurationError, MappingError
from repro.optimize.ilp import EXACT_METHOD_NAME, exact_mapping, solver_invocations

#: golden optimality-gap numbers for the paper's spread-10 design reduced to
#: 8 cores (the full 20-core instance is out of exact reach by construction)
SPREAD10_8CORE = dict(core_count=8, seed=3, flows_per_use_case=(12, 24))
SPREAD10_HEURISTIC_COST = 2142526052.3144546
SPREAD10_EXACT_COST = 1341447659.4337642
SPREAD10_GAP_RELATIVE = 0.597175  # round((h - e) / e, 6)


def tiny_spec(seed: int, use_case_count: int = 3):
    """A 4-core spec small enough to enumerate exhaustively."""
    return generate_benchmark(
        "spread", use_case_count, core_count=4, seed=seed,
        flows_per_use_case=(3, 6),
    )


def tight_engine() -> MappingEngine:
    """Two cores per switch, so optimal placement actually matters."""
    return MappingEngine(params=NoCParameters(max_cores_per_switch=2))


def brute_force_optimum(engine: MappingEngine, use_cases):
    """(topology name, optimal cost) by exhaustive enumeration.

    Walks the same growth schedule as the mapper and the exact backend;
    the first topology with any feasible assignment wins, and its cost is
    the minimum of ``placement_cost`` over all occupancy-respecting
    assignments — the definition the backend must match bit-for-bit.
    """
    spec = engine.compile(use_cases)
    resolved = engine.resolve_groups(spec, None, None)
    cores = sorted(spec.core_names)
    limit = engine.params.max_cores_per_switch
    for topology in engine.mapper._topology_schedule(len(cores)):
        alive = [switch.index for switch in topology.alive_switches]
        best = None
        for assignment in itertools.product(alive, repeat=len(cores)):
            if limit is not None and any(
                count > limit for count in Counter(assignment).values()
            ):
                continue
            placement = dict(zip(cores, assignment))
            try:
                cost = engine.placement_cost(
                    spec, topology, placement, groups=resolved
                )
            except MappingError:
                continue
            if best is None or cost < best:
                best = cost
        if best is not None:
            return topology.name, best
    raise AssertionError("oracle: no feasible topology in the schedule")


def exact_cost_of(engine: MappingEngine, use_cases, result) -> float:
    """The result's cost under the same objective the oracle minimised."""
    spec = engine.compile(use_cases)
    resolved = engine.resolve_groups(spec, None, None)
    return engine.placement_cost(
        spec, result.topology, dict(result.core_mapping), groups=resolved
    )


# --------------------------------------------------------------------------- #
# the differential oracle
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", range(6))
def test_exact_matches_brute_force_bit_for_bit(seed):
    engine = tight_engine()
    use_cases = tiny_spec(seed)
    oracle_topology, oracle_cost = brute_force_optimum(engine, use_cases)

    result = exact_mapping(use_cases, engine=engine, solver="native")
    assert result.method == EXACT_METHOD_NAME
    assert result.topology.name == oracle_topology
    assert exact_cost_of(engine, use_cases, result) == oracle_cost


def test_exact_matches_brute_force_on_figure5(figure5_use_cases):
    engine = tight_engine()
    oracle_topology, oracle_cost = brute_force_optimum(engine, figure5_use_cases)
    result = exact_mapping(figure5_use_cases, engine=engine, solver="native")
    assert result.topology.name == oracle_topology
    assert exact_cost_of(engine, figure5_use_cases, result) == oracle_cost
    assert validate_mapping(result, figure5_use_cases).ok


@pytest.mark.parametrize("seed", range(6))
def test_heuristic_never_beats_the_oracle(seed):
    engine = tight_engine()
    use_cases = tiny_spec(seed)
    exact = exact_mapping(use_cases, engine=engine, solver="native")
    heuristic = engine.map(use_cases)
    # same growth schedule: the heuristic can stop no earlier than exact
    assert heuristic.switch_count >= exact.switch_count
    if heuristic.topology.name == exact.topology.name:
        assert (
            exact_cost_of(engine, use_cases, heuristic)
            >= exact_cost_of(engine, use_cases, exact)
        )


def test_exact_results_validate_clean():
    engine = tight_engine()
    use_cases = tiny_spec(1)
    result = exact_mapping(use_cases, engine=engine, solver="native")
    report = validate_mapping(result, use_cases)
    assert report.ok, report.issues


# --------------------------------------------------------------------------- #
# golden gap values for the paper's spread-10 design (8-core reduction)
# --------------------------------------------------------------------------- #
def test_spread10_golden_gap():
    use_cases = generate_benchmark("spread", 10, **SPREAD10_8CORE)
    engine = MappingEngine()
    exact = exact_mapping(use_cases, engine=engine, solver="native")
    heuristic = engine.map(use_cases)
    exact_cost = exact_cost_of(engine, use_cases, exact)
    heuristic_cost = exact_cost_of(engine, use_cases, heuristic)
    assert exact_cost == pytest.approx(SPREAD10_EXACT_COST, rel=1e-12)
    assert heuristic_cost == pytest.approx(SPREAD10_HEURISTIC_COST, rel=1e-12)
    assert round((heuristic_cost - exact_cost) / exact_cost, 6) == (
        SPREAD10_GAP_RELATIVE
    )


# --------------------------------------------------------------------------- #
# engine dispatch and solver plumbing
# --------------------------------------------------------------------------- #
def test_engine_dispatches_ilp_backend():
    use_cases = tiny_spec(2)
    exact_engine = MappingEngine(
        params=NoCParameters(max_cores_per_switch=2),
        config=MapperConfig(backend="ilp"),
    )
    via_backend = exact_engine.map(use_cases)
    assert via_backend.method == EXACT_METHOD_NAME
    direct = exact_mapping(
        use_cases, engine=tight_engine(), solver="native"
    )
    assert via_backend.topology.name == direct.topology.name
    assert dict(via_backend.core_mapping) == dict(direct.core_mapping)
    # the second map() call is a pure cache hit: no new solver searches
    before = solver_invocations()
    again = exact_engine.map(use_cases)
    assert solver_invocations() == before
    assert again is via_backend


def test_unknown_backend_and_solver_are_rejected():
    with pytest.raises(ConfigurationError, match="backend"):
        MapperConfig(backend="quantum")
    # the branch-and-bound is the only exact solver; "pulp" is not one
    for solver in ("simplex", "pulp"):
        with pytest.raises(ConfigurationError, match="unknown exact solver"):
            exact_mapping(tiny_spec(0), solver=solver)


def test_node_limit_bounds_the_search():
    engine = tight_engine()
    with pytest.raises(MappingError, match="node budget"):
        exact_mapping(tiny_spec(0), engine=engine, solver="native", node_limit=1)


def test_infeasible_spec_raises_mapping_error():
    use_cases = tiny_spec(0)
    engine = MappingEngine(
        params=NoCParameters(max_cores_per_switch=1),
        config=MapperConfig(max_switches=1),
    )
    with pytest.raises(MappingError):
        exact_mapping(use_cases, engine=engine, solver="native")

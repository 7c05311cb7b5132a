"""Tests for portfolio refinement (repro.optimize.portfolio + the job kind).

Pins the portfolio contracts the ISSUE demands:

* the chain derivation is deterministic (seeds increment, chain 0 keeps
  the refiner defaults, tabu chains carry no temperature);
* ``reduce_best`` picks the lowest refined cost with index tie-breaks;
* a portfolio run is deterministic — same spec, same payload — and a
  1-chain portfolio is bit-identical to the plain ``RefineJob``;
* chain traffic is aggregated into the outer engine's counters
  (screening included) and the pool path matches the serial path.
"""

from __future__ import annotations

import json

import pytest

from repro.core.engine import MappingEngine
from repro.exceptions import SpecificationError
from repro.gen import generate_benchmark
from repro.jobs import (
    PortfolioRefineJob,
    RefineJob,
    UseCaseSource,
    job_from_dict,
    job_hash,
    job_to_dict,
)
from repro.jobs.cli import main as cli_main
from repro.jobs.runner import execute_job
from repro.optimize import AnnealingRefiner, TabuRefiner
from repro.optimize.annealing import DEFAULT_INITIAL_TEMPERATURE
from repro.optimize.portfolio import (
    CHAIN_TEMPERATURE_FACTOR,
    chain_initial_temperature,
    chain_refine_jobs,
    reduce_best,
)

SPREAD10 = UseCaseSource(generator={"kind": "spread", "use_case_count": 10, "seed": 3})


def run_job(job):
    return execute_job(job, job_hash(job))


# --------------------------------------------------------------------------- #
# chain derivation
# --------------------------------------------------------------------------- #
def test_chain_refine_jobs_diversify_seeds_and_temperatures():
    job = PortfolioRefineJob(use_cases=SPREAD10, iterations=12, seed=5, chains=3)
    chains = chain_refine_jobs(job)
    assert [chain.seed for chain in chains] == [5, 6, 7]
    assert chains[0].initial_temperature is None  # the bit-identity anchor
    assert chains[1].initial_temperature == pytest.approx(
        DEFAULT_INITIAL_TEMPERATURE * CHAIN_TEMPERATURE_FACTOR
    )
    assert chains[2].initial_temperature == pytest.approx(
        DEFAULT_INITIAL_TEMPERATURE * CHAIN_TEMPERATURE_FACTOR**2
    )
    assert all(chain.iterations == 12 for chain in chains)
    assert all(chain.use_cases == SPREAD10 for chain in chains)


def test_tabu_chains_have_no_temperature():
    job = PortfolioRefineJob(
        use_cases=SPREAD10, method="tabu", iterations=4, chains=3
    )
    assert [c.initial_temperature for c in chain_refine_jobs(job)] == [None] * 3
    assert chain_initial_temperature("tabu", 2) is None


def test_reduce_best_breaks_ties_by_chain_index():
    payloads = [
        {"mapped": True, "refined_cost": 5.0},
        {"mapped": True, "refined_cost": 3.0},
        {"mapped": True, "refined_cost": 3.0},  # tie goes to the earlier chain
        {"mapped": False},
    ]
    assert reduce_best(payloads) == 1
    assert reduce_best([{"mapped": False}, {"mapped": False}]) == 0
    assert reduce_best([{"mapped": False}, {"mapped": True, "refined_cost": 1.0}]) == 1


# --------------------------------------------------------------------------- #
# spec validation and serialisation
# --------------------------------------------------------------------------- #
def test_portfolio_job_round_trips():
    job = PortfolioRefineJob(
        use_cases=SPREAD10, method="tabu", iterations=7, seed=4,
        chains=3, temperature_factor=2.0, workers=2,
    )
    document = job_to_dict(job)
    assert document["kind"] == "portfolio_refine"
    assert job_from_dict(json.loads(json.dumps(document))) == job


def test_refine_job_temperature_round_trips_and_defaults_stay_hash_stable():
    warmed = RefineJob(use_cases=SPREAD10, iterations=9, initial_temperature=0.25)
    assert job_from_dict(job_to_dict(warmed)) == warmed
    plain = RefineJob(use_cases=SPREAD10, iterations=9)
    # the default must be *omitted*: historical refine documents (and the
    # persistent cache keys hashed from them) must not change
    assert "initial_temperature" not in job_to_dict(plain)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"chains": 0},
        {"workers": -1},
        {"temperature_factor": 0.0},
        {"method": "gradient-descent"},
    ],
)
def test_portfolio_job_validation(kwargs):
    with pytest.raises(SpecificationError):
        PortfolioRefineJob(use_cases=SPREAD10, **kwargs)


def test_refine_job_rejects_bad_temperatures():
    with pytest.raises(SpecificationError):
        RefineJob(use_cases=SPREAD10, initial_temperature=0.0)
    with pytest.raises(SpecificationError):
        RefineJob(use_cases=SPREAD10, method="tabu", initial_temperature=0.1)


# --------------------------------------------------------------------------- #
# execution
# --------------------------------------------------------------------------- #
def test_portfolio_execution_is_deterministic():
    job = PortfolioRefineJob(use_cases=SPREAD10, iterations=18, chains=3, seed=0)
    first = run_job(job)
    second = run_job(job)
    assert first.payload == second.payload
    portfolio = first.payload["portfolio"]
    assert portfolio["chains"] == 3
    assert len(portfolio["chain_results"]) == 3
    best = portfolio["best_chain"]
    mapped = [c for c in portfolio["chain_results"] if c["mapped"]]
    assert mapped
    assert portfolio["chain_results"][best]["refined_cost"] == min(
        c["refined_cost"] for c in mapped
    )
    assert first.payload["refined_cost"] == (
        portfolio["chain_results"][best]["refined_cost"]
    )
    # chain traffic (screening included) is folded into the outer engine
    engine_stats = first.stats["engine"]
    assert engine_stats["screen_misses"] > 0
    assert engine_stats["evaluation_misses"] > 0


def test_tabu_chains_sharing_an_engine_beat_annealing_on_spread40():
    # The paper's largest synthetic sweep point: 30 annealing iterations
    # find no better placement, while three 4-iteration tabu chains with
    # distinct seeds on one engine (each recalls the others' evaluations)
    # do.
    use_cases = generate_benchmark("spread", 40, seed=3)
    annealing_engine = MappingEngine()
    annealed = AnnealingRefiner(iterations=30, seed=0).refine(
        annealing_engine.map(use_cases), use_cases, engine=annealing_engine
    )
    annealing_improvement = annealed.initial_cost - annealed.refined_cost

    engine = MappingEngine()
    initial = engine.map(use_cases)
    best = min(
        (
            TabuRefiner(iterations=4, seed=seed).refine(
                initial, use_cases, engine=engine
            )
            for seed in range(3)
        ),
        key=lambda outcome: outcome.refined_cost,
    )
    improvement = best.initial_cost - best.refined_cost
    assert annealing_improvement == 0.0
    assert improvement == 12440212398.182098
    assert improvement > 0 and improvement >= 2.0 * annealing_improvement
    assert engine.cache_info()["screen_misses"] > 0


def test_single_chain_portfolio_matches_plain_refine_job():
    portfolio = PortfolioRefineJob(use_cases=SPREAD10, iterations=18, chains=1, seed=0)
    plain = RefineJob(use_cases=SPREAD10, iterations=18, seed=0)
    portfolio_payload = run_job(portfolio).payload
    plain_payload = run_job(plain).payload
    stripped = {k: v for k, v in portfolio_payload.items() if k != "portfolio"}
    assert stripped == plain_payload


def test_forced_mesh_portfolio_maps_its_initial_mapping_once(monkeypatch):
    import hashlib

    from repro.core.mapping import UnifiedMapper

    calls = []
    original = UnifiedMapper.map_with_placement

    def counting(mapper, *args, **kwargs):
        calls.append(args[1].name)
        return original(mapper, *args, **kwargs)

    monkeypatch.setattr(UnifiedMapper, "map_with_placement", counting)
    sparse = UseCaseSource(generator={
        "kind": "spread", "use_case_count": 8, "core_count": 16, "seed": 5,
        "flows_per_use_case": [6, 10],
    })
    job = PortfolioRefineJob(use_cases=sparse, iterations=8, seed=2, chains=3,
                             mesh=(4, 4))
    result = run_job(job)
    # the enveloping engine maps it; all three chains read it from the store
    assert calls == ["mesh-4x4"]
    assert result.stats["engine"]["imported_results"] == 3
    # the payload recorded when every chain re-mapped its initial mapping
    digest = hashlib.sha256(
        json.dumps(result.payload, sort_keys=True).encode()
    ).hexdigest()
    assert digest == "8d0fd52afd879b9cbde47c6e0c210d1005178edf2ae046b15c16024b2e77eb68"


def test_pool_portfolio_matches_serial_payload():
    serial = PortfolioRefineJob(use_cases=SPREAD10, iterations=12, chains=2, seed=0)
    pooled = PortfolioRefineJob(
        use_cases=SPREAD10, iterations=12, chains=2, seed=0, workers=2
    )
    assert run_job(serial).payload == run_job(pooled).payload


def test_cli_refine_portfolio(capsys):
    assert cli_main([
        "refine", "--spread", "6", "--iterations", "6", "--chains", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert "portfolio: best of 2 chain(s)" in out


def test_cli_refine_requires_exactly_one_design_source(capsys):
    assert cli_main(["refine"]) == 1
    assert cli_main(["refine", "design.json", "--spread", "4"]) == 1

"""Randomized round-trip suite for the declarative job specs.

Seeded generators produce ~200 random job specs — every kind, every
``UseCaseSource`` variant, randomised params/config and knobs — and pin the
serialisation contracts the service layer leans on:

* ``job_from_dict(job_to_dict(job)) == job`` through a real JSON transport;
* serialising the rebuilt job reproduces the document exactly (the
  dictionary form is canonical);
* ``job_hash`` is stable across calls and across the round trip, two specs
  share a hash only when their *resolved* content is identical, and the
  hashing scheme itself is pinned against drift (golden hash);
* malformed documents — unknown kind, missing fields, wrong types — raise
  clear :class:`SerializationError`/:class:`SpecificationError` messages,
  never raw ``KeyError``/``TypeError`` tracebacks.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.core.compound import CompoundModeSpec
from repro.exceptions import ReproError, SerializationError, SpecificationError
from repro.gen import generate_benchmark
from repro.io.serialization import save_use_case_set, use_case_set_to_dict
from repro.jobs import (
    DesignFlowJob,
    FrequencyJob,
    GapJob,
    RefineJob,
    SweepJob,
    UseCaseSource,
    WorstCaseJob,
    job_from_dict,
    job_hash,
    job_to_dict,
)
from repro.jobs.spec import resolve_job
from repro.params import MapperConfig, NoCParameters

SEED = 20260728
PER_KIND = 40  # x 6 kinds = 240 random specs

#: golden content hash of one canonical job — fails if the hashing scheme
#: (canonical JSON over the resolved document) ever drifts, which would
#: silently invalidate every persisted cache entry
SPREAD10_WORST_CASE_JOB_HASH = (
    "8c09d7e86974896b311be378babe3e4ae0e57dad47e755a7e127198ca7cafc22"
)

#: a small use-case-set document for inline sources (JSON-canonical)
INLINE_DESIGN = json.loads(
    json.dumps(use_case_set_to_dict(generate_benchmark("spread", 3, core_count=12, seed=1)))
)

_STUDIES_WITHOUT_DESIGN = (
    "normalized_switch_count", "use_case_count", "headline", "parallel_use_cases",
)
_STUDIES_WITH_DESIGN = (
    "ablation_flow_ordering", "ablation_routing_policy",
    "ablation_slot_table_size", "ablation_grouping",
)


@pytest.fixture(scope="module")
def design_file(tmp_path_factory):
    """A real design file so ``path`` sources resolve and hash."""
    directory = tmp_path_factory.mktemp("designs")
    return save_use_case_set(
        generate_benchmark("spread", 3, core_count=12, seed=1),
        directory / "design.json",
    )


# --------------------------------------------------------------------------- #
# random builders
# --------------------------------------------------------------------------- #
def random_source(rng: random.Random, design_file) -> UseCaseSource:
    roll = rng.random()
    if roll < 0.5:
        return UseCaseSource(generator={
            "kind": rng.choice(["spread", "bottleneck"]),
            "use_case_count": rng.randint(2, 8),
            "seed": rng.randint(0, 99),
        })
    if roll < 0.75:
        return UseCaseSource(path=str(design_file))
    return UseCaseSource(inline=INLINE_DESIGN)


def random_params(rng: random.Random) -> NoCParameters:
    return NoCParameters(
        frequency_hz=rng.choice([1e8, 2.5e8, 5e8, 7.77e8, 1e9]),
        link_width_bits=rng.choice([16, 32, 64]),
        slot_table_size=rng.choice([8, 16, 32, 64]),
        max_cores_per_switch=rng.choice([None, 4, 6, 8]),
        topology_kind=rng.choice(["mesh", "torus", "ring"]),
    )


def random_config(rng: random.Random) -> MapperConfig:
    return MapperConfig(
        max_switches=rng.choice([16, 64, 100, 400]),
        routing_policy=rng.choice(["xy", "minimal", "west_first", "k_shortest"]),
        max_detour_hops=rng.randint(0, 2),
        max_paths_per_pair=rng.randint(1, 8),
        placement_candidates=rng.randint(4, 16),
        prefer_mapped_endpoints=rng.choice([True, False]),
        bandwidth_weight=rng.choice([0.5, 1.0, 2.0]),
        hop_weight=rng.choice([0.5, 1.0]),
        slot_weight=rng.choice([0.0, 0.5, 1.0]),
        check_latency=rng.choice([True, False]),
        refinement=rng.choice([None, "annealing", "tabu"]),
        refinement_iterations=rng.randint(1, 500),
        seed=rng.randint(0, 99),
    )


def _names(rng: random.Random, count: int):
    picked = rng.sample(range(1, 21), count)
    return tuple(f"spread-{index}" for index in picked)


def random_groups(rng: random.Random):
    if rng.random() < 0.5:
        return None
    return tuple(_names(rng, rng.randint(2, 3)) for _ in range(rng.randint(1, 2)))


def random_design_flow(rng, design_file):
    modes = tuple(
        CompoundModeSpec(_names(rng, rng.randint(2, 3)))
        for _ in range(rng.randint(0, 2))
    )
    switching = tuple(
        (pair[0], pair[1]) for pair in (_names(rng, 2) for _ in range(rng.randint(0, 2)))
    )
    return DesignFlowJob(
        use_cases=random_source(rng, design_file),
        params=random_params(rng),
        config=random_config(rng),
        parallel_modes=modes,
        smooth_switching=switching,
        verify=rng.choice([True, False]),
    )


def random_worst_case(rng, design_file):
    return WorstCaseJob(
        use_cases=random_source(rng, design_file),
        params=random_params(rng),
        config=random_config(rng),
    )


def random_refine(rng, design_file):
    return RefineJob(
        use_cases=random_source(rng, design_file),
        params=random_params(rng),
        config=random_config(rng),
        method=rng.choice(["annealing", "tabu"]),
        iterations=rng.randint(1, 1000),
        seed=rng.randint(0, 999),
        groups=random_groups(rng),
    )


def random_frequency(rng, design_file):
    grid = None
    if rng.random() < 0.7:
        grid = tuple(sorted(rng.sample([100.0, 250.0, 333.25, 500.0, 750.0, 1000.0],
                                       rng.randint(1, 4))))
    return FrequencyJob(
        use_cases=random_source(rng, design_file),
        params=random_params(rng),
        config=random_config(rng),
        max_switches=rng.choice([None, 4, 9, 16]),
        frequencies_mhz=grid,
        groups=random_groups(rng),
    )


def random_sweep(rng, design_file):
    if rng.random() < 0.5:
        study = rng.choice(_STUDIES_WITH_DESIGN)
        source = random_source(rng, design_file)
    else:
        study = rng.choice(_STUDIES_WITHOUT_DESIGN)
        source = random_source(rng, design_file) if rng.random() < 0.3 else None
    return SweepJob(
        study=study,
        use_cases=source,
        params=random_params(rng),
        config=random_config(rng),
        benchmark=rng.choice(["spread", "bottleneck"]),
        use_case_counts=tuple(sorted(rng.sample(range(2, 30), rng.randint(1, 5)))),
        use_case_count=rng.randint(2, 20),
        core_count=rng.choice([12, 16, 20, 24]),
        seed=rng.randint(0, 99),
        parallelism_levels=tuple(range(1, rng.randint(2, 5))),
        slot_table_sizes=tuple(sorted(rng.sample([8, 16, 32, 64, 128], rng.randint(1, 3)))),
        max_switches=rng.choice([None, 9, 25]),
    )


def random_gap(rng, design_file):
    return GapJob(
        use_cases=random_source(rng, design_file),
        params=random_params(rng),
        config=random_config(rng),
        solver=rng.choice(["auto", "native"]),
        groups=random_groups(rng),
        refine_iterations=rng.choice([0, 0, 50, 200]),
        seed=rng.randint(0, 999),
        node_limit=rng.choice([None, 1000, 100000]),
    )


BUILDERS = (random_design_flow, random_worst_case, random_refine,
            random_frequency, random_sweep, random_gap)


# --------------------------------------------------------------------------- #
# the randomized round-trip sweep
# --------------------------------------------------------------------------- #
def test_random_specs_round_trip_and_hash_stably(design_file):
    rng = random.Random(SEED)
    #: hash -> canonical resolved document; equal hashes must mean equal
    #: resolved content (a path source legitimately collides with the
    #: inline source of the same design — that is the cache-key design)
    seen = {}
    total = 0
    for builder in BUILDERS:
        for _ in range(PER_KIND):
            job = builder(rng, design_file)
            total += 1

            document = job_to_dict(job)
            assert document["kind"] == job.KIND
            transported = json.loads(json.dumps(document))
            rebuilt = job_from_dict(transported)
            assert rebuilt == job
            assert job_to_dict(rebuilt) == document

            first = job_hash(job)
            assert job_hash(job) == first, "job_hash must be deterministic"
            assert job_hash(rebuilt) == first, "hash must survive the round trip"
            resolved = json.dumps(
                job_to_dict(resolve_job(job)), sort_keys=True
            )
            if first in seen:
                assert seen[first] == resolved, (
                    "two specs with different resolved content share a hash"
                )
            seen[first] = resolved
    assert total == 6 * PER_KIND
    # the sweep actually exercised distinct content, not 200 copies
    assert len(seen) > total // 2


def test_job_hash_scheme_is_pinned():
    job = WorstCaseJob(
        use_cases=UseCaseSource(
            generator={"kind": "spread", "use_case_count": 10, "seed": 3}
        )
    )
    assert job_hash(job) == SPREAD10_WORST_CASE_JOB_HASH


def test_path_and_inline_sources_of_same_design_hash_identically(design_file):
    by_path = WorstCaseJob(use_cases=UseCaseSource(path=str(design_file)))
    by_inline = WorstCaseJob(use_cases=UseCaseSource(inline=INLINE_DESIGN))
    assert job_hash(by_path) == job_hash(by_inline)


# --------------------------------------------------------------------------- #
# malformed documents
# --------------------------------------------------------------------------- #
GENERATOR_SOURCE = {"generator": {"kind": "spread", "use_case_count": 3}}

MALFORMED = [
    pytest.param(42, "must be a mapping", id="not-a-dict"),
    pytest.param({}, "unknown job kind None", id="missing-kind"),
    pytest.param({"kind": "no_such_kind"}, "unknown job kind", id="unknown-kind"),
    pytest.param({"kind": "worst_case"}, "missing its 'use_cases'", id="missing-source"),
    pytest.param({"kind": "design_flow"}, "missing its 'use_cases'",
                 id="design-flow-missing-source"),
    pytest.param({"kind": "refine", "use_cases": GENERATOR_SOURCE,
                  "iterations": "many"}, "malformed 'refine'", id="wrong-type-int"),
    pytest.param({"kind": "refine", "use_cases": GENERATOR_SOURCE,
                  "method": "gradient_descent"}, "unknown refinement method",
                 id="bad-refine-method"),
    pytest.param({"kind": "frequency", "use_cases": GENERATOR_SOURCE,
                  "frequencies_mhz": ["fast"]}, "malformed 'frequency'",
                 id="wrong-type-float"),
    pytest.param({"kind": "design_flow", "use_cases": GENERATOR_SOURCE,
                  "parallel_modes": [{"name": "broken"}]}, "malformed 'design_flow'",
                 id="mode-missing-members"),
    pytest.param({"kind": "refine", "use_cases": GENERATOR_SOURCE, "groups": 5},
                 "malformed 'refine'", id="groups-not-a-list"),
    pytest.param({"kind": "sweep"}, "missing its 'study'", id="sweep-missing-study"),
    pytest.param({"kind": "sweep", "study": "no_such_study"}, "unknown sweep study",
                 id="sweep-unknown-study"),
    pytest.param({"kind": "sweep", "study": "ablation_grouping"},
                 "needs a 'use_cases' source", id="ablation-missing-design"),
    pytest.param({"kind": "worst_case", "use_cases": {}},
                 "cannot interpret use-case source", id="empty-source"),
    pytest.param({"kind": "worst_case", "use_cases": {"path": None}},
                 "exactly one of", id="all-fields-null-source"),
    pytest.param({"kind": "worst_case",
                  "use_cases": {"path": "x.json", "generator": {"kind": "spread"}}},
                 "exactly one of", id="over-populated-source"),
    pytest.param({"kind": "worst_case", "use_cases": {"bogus": 1}},
                 "cannot interpret use-case source", id="unrecognised-source"),
    pytest.param({"kind": "gap"}, "missing its 'use_cases'",
                 id="gap-missing-source"),
    pytest.param({"kind": "gap", "use_cases": GENERATOR_SOURCE,
                  "solver": "simplex"}, "unknown exact solver",
                 id="gap-unknown-solver"),
    pytest.param({"kind": "gap", "use_cases": GENERATOR_SOURCE,
                  "refine_iterations": "lots"}, "malformed 'gap'",
                 id="gap-wrong-type-int"),
    pytest.param({"kind": "gap", "use_cases": GENERATOR_SOURCE,
                  "node_limit": -5}, "node_limit", id="gap-negative-node-limit"),
]


@pytest.mark.parametrize("document,match", MALFORMED)
def test_malformed_documents_raise_clear_errors(document, match):
    with pytest.raises((SerializationError, SpecificationError), match=match):
        job_from_dict(document)


def test_malformed_documents_never_leak_builtin_exceptions():
    """Fuzz job_from_dict with randomly corrupted documents.

    Whatever the corruption — dropped fields, wrong types, mangled nested
    blocks — the outcome must be a library error (the CLI's one-line
    diagnostic contract), never a raw KeyError/TypeError/ValueError.
    """
    rng = random.Random(SEED + 1)
    base_documents = [
        job_to_dict(WorstCaseJob(use_cases=UseCaseSource(generator=dict(
            kind="spread", use_case_count=3)))),
        job_to_dict(RefineJob(use_cases=UseCaseSource(inline=INLINE_DESIGN))),
        job_to_dict(SweepJob(study="headline")),
        job_to_dict(FrequencyJob(use_cases=UseCaseSource(generator=dict(
            kind="bottleneck", use_case_count=2)), frequencies_mhz=(100.0,))),
        job_to_dict(GapJob(use_cases=UseCaseSource(generator=dict(
            kind="spread", use_case_count=3)), solver="native")),
    ]
    junk = [None, 5, "x", [], [1], {"oops": 1}, True, 3.5]
    for _ in range(120):
        document = json.loads(json.dumps(rng.choice(base_documents)))
        for _ in range(rng.randint(1, 3)):
            key = rng.choice(sorted(document))
            if rng.random() < 0.4:
                document.pop(key)
            else:
                document[key] = rng.choice(junk)
        try:
            job_from_dict(document)
        except ReproError:
            pass  # the contract: library errors only


def test_generator_build_rejects_bad_recipes():
    source = UseCaseSource(generator={"kind": "spread", "use_case_count": 2,
                                      "bogus_knob": 1})
    with pytest.raises(SerializationError, match="invalid generator recipe"):
        source.build()
    with pytest.raises(SerializationError, match="needs a 'kind'"):
        UseCaseSource(generator={"use_case_count": 2}).build()

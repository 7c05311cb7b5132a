"""Failure-aware mapping: fault model, degraded routing, RepairJob, sweeps.

Pins the contracts the ISSUE demands:

* :class:`FailureSet` round-trips through JSON, content-hashes stably, and
  rejects unknown / overlapping failure ids against a topology;
* a degraded topology keeps its identity-changing fingerprint and routing
  finds (non-minimal) detours around failures;
* a single-link :class:`RepairJob` remaps **only** the affected
  smooth-switching groups (pinned count on the sparse demo design) and
  warm-started repair performs **zero** group evaluations while staying
  bit-identical to the cold run;
* unrepairable use cases degrade gracefully (``mapped: False`` plus the
  list of broken use cases — never an exception);
* the ``python -m repro failures`` CLI sweeps failures and reports every
  authoring mistake as a one-line diagnostic with a nonzero exit.
"""

from __future__ import annotations

import json

import pytest

from repro import MappingEngine
from repro.analysis import failure_sweep, single_link_failures, single_switch_failures
from repro.analysis.failures import traffic_sweep
from repro.core.repair import repair_mapping
from repro.core.validate import validate_mapping
from repro.exceptions import MappingError, RoutingError, SpecificationError, TopologyError
from repro.gen import generate_benchmark
from repro.io.serialization import (
    mapping_fingerprint,
    mapping_result_to_dict,
    save_mapping_result,
    save_use_case_set,
    topology_to_dict,
)
from repro.jobs import (
    JobDirectoryService,
    RepairJob,
    UseCaseSource,
    execute_job,
    job_hash,
    save_job,
)
from repro.jobs.cli import main as cli_main
from repro.jobs.store import EngineStateStore
from repro.noc import FailureSet, PathSelector, Topology
from repro.ops.events import apply_traffic

# The sparse demo design: 8 light use cases on 16 cores map onto mesh-3x3
# with plenty of slack, so single-link failures split the groups into
# affected / untouched — the partial-splice scenario repair exists for.
SPARSE8 = dict(kind="spread", use_case_count=8, core_count=16, seed=5,
               flows_per_use_case=[6, 10])


def _sparse_use_cases():
    return generate_benchmark(**SPARSE8)


def _provisioned_baseline(engine, use_cases):
    return engine.mapper.map_with_placement(
        use_cases, Topology.mesh(3, 3), {}, validate=False
    )


# --------------------------------------------------------------------- #
# FailureSet model
# --------------------------------------------------------------------- #
def test_failure_set_roundtrip_and_content_hash():
    failures = FailureSet().mark_link_down(1, 4).mark_switch_down(8)
    assert failures.links == ((1, 4), (4, 1))  # bidirectional by default
    assert failures.switches == (8,)
    assert not failures.is_empty

    document = failures.to_dict()
    assert FailureSet.from_dict(json.loads(json.dumps(document))) == failures
    assert FailureSet.from_dict(document).content_hash == failures.content_hash

    # mutation events change the hash; repairing restores it
    pristine_hash = FailureSet().content_hash
    assert failures.content_hash != pristine_hash
    failures.mark_link_up(1, 4).mark_switch_up(8)
    assert failures.is_empty
    assert failures.content_hash == pristine_hash


def test_failure_set_queries():
    failures = FailureSet().mark_link_down(0, 1, bidirectional=False)
    failures.mark_switch_down(5)
    assert failures.affects_link(0, 1)
    assert not failures.affects_link(1, 0)  # single-direction fault
    assert failures.affects_link(5, 2) and failures.affects_link(2, 5)
    assert failures.affects_path((3, 0, 1))
    assert not failures.affects_path((1, 0, 3))
    assert failures.describe() == "link 0->1, switch 5"


def test_failure_set_validation_rejects_bad_ids():
    mesh = Topology.mesh(2, 2)
    with pytest.raises(TopologyError):
        FailureSet().mark_switch_down(9).validate_for(mesh)
    with pytest.raises(TopologyError, match="does not exist"):
        FailureSet().mark_link_down(0, 3).validate_for(mesh)  # diagonal
    with pytest.raises(TopologyError, match="overlapping"):
        FailureSet().mark_link_down(0, 1).mark_switch_down(0).validate_for(mesh)
    with pytest.raises(TopologyError, match="malformed"):
        FailureSet.from_dict({"links": [[0]]})


# --------------------------------------------------------------------- #
# degraded topologies and routing
# --------------------------------------------------------------------- #
def test_with_failures_filters_links_and_changes_identity():
    mesh = Topology.mesh(3, 3)
    degraded = mesh.with_failures(FailureSet().mark_link_down(1, 4))
    assert mesh.has_link(1, 4) and mesh.has_link(4, 1)
    assert not degraded.has_link(1, 4) and not degraded.has_link(4, 1)
    assert degraded.has_failures and not mesh.has_failures
    assert degraded.name.startswith("mesh-3x3+f")
    # the pristine serialised document stays byte-stable: no failures key
    assert "failures" not in topology_to_dict(mesh)
    assert topology_to_dict(degraded)["failures"]["links"]


def test_degraded_switch_failure_removes_all_its_links():
    degraded = Topology.mesh(2, 2).with_failures(FailureSet().mark_switch_down(0))
    assert degraded.is_switch_down(0)
    assert [sw.index for sw in degraded.alive_switches] == [1, 2, 3]
    assert not degraded.has_link(0, 1) and not degraded.has_link(2, 0)


def test_degraded_mesh_routing_finds_detour():
    config = MappingEngine().config
    degraded = Topology.mesh(2, 2).with_failures(FailureSet().mark_link_down(0, 1))
    paths = PathSelector(degraded, config).candidate_paths(0, 1)
    # every minimal path is broken; the generic fall-through finds the
    # two-hop detour around the failed channel
    assert paths == ((0, 2, 3, 1),)
    # a switch failure that disconnects the pair reports no path
    islanded = Topology.mesh(2, 2).with_failures(
        FailureSet().mark_switch_down(1).mark_switch_down(2)
    )
    with pytest.raises(RoutingError, match="no path"):
        PathSelector(islanded, config).candidate_paths(0, 3)
    # the placement scan's lookup reports the cut-apart pair as pathless
    assert PathSelector(islanded, config).admissible_paths(0, 3) == ()


#: free placement of spread-6 designs (seeds 0-7) on a mesh whose link
#: failures cut one live switch off: (rows, cols, switch) -> {seed:
#: fingerprint}; every other seed raises MappingError
CUT_OFF_PLACEMENTS = {
    (3, 3, 0): {},
    (4, 4, 5): {
        1: "5742803b4572d554a6c078e97c8cdba5ac8b46b12f5386a5151cb9260f224dc0",
        3: "3b339de2729816e2402bef1bbbcefba9fd3d316870dcd174d7706539f3fd9fd4",
        4: "7360c4b81818f2682c9012cfe701d308d407bfcfcae94ee5ba26f1d493a5fcb9",
    },
    (4, 4, 15): {
        0: "1c1be364263b76505561f29ed17f68c139ccb2fceeadbffd02a4104f9ed39ef2",
        1: "f72cbba1e3c68fd01b24b079720bd5063af33b3013fa03cc25aa0385b9345a5b",
        2: "c07f2ba948472638264697d7518d4fcd9e6b84526aea6e8624adc3be0d3120fd",
        3: "82d90532634c8106f0d50d4f96a04e99d4a635c4c5e68ff172630abdaa14d29a",
        4: "8efd9213194293763f36a9e434b9512c15ad38cde523df5904bc8a1faf082929",
        5: "430a5c07abc392e29d223e3809e2d85dad73187ae70cbca74abe91ee11104aca",
        6: "0fc103ceb7fe254f8326f19d045dc6bc034d57724f04ce8d5f3fdd6fc1d8aba1",
    },
}


@pytest.mark.parametrize("shape", sorted(CUT_OFF_PLACEMENTS))
def test_free_placement_skips_a_cut_off_switch(shape):
    # The cut-off switch is alive, so it stays in the placement pool; a pool
    # pair it cannot reach must read "cannot host this flow", never escape
    # as RoutingError.
    rows, cols, switch = shape
    mesh = Topology.mesh(rows, cols)
    failures = FailureSet()
    for neighbour in mesh.neighbors(switch):
        failures.mark_link_down(switch, neighbour)
    degraded = mesh.with_failures(failures)
    expected = CUT_OFF_PLACEMENTS[shape]
    for seed in range(8):
        use_cases = generate_benchmark("spread", 6, seed=seed)
        mapper = MappingEngine().mapper
        if seed not in expected:
            with pytest.raises(MappingError, match="infeasible"):
                mapper.map_with_placement(use_cases, degraded, {})
            continue
        result = mapper.map_with_placement(use_cases, degraded, {})
        assert mapping_fingerprint(result) == expected[seed]
        assert validate_mapping(result, use_cases).ok
        assert switch not in result.core_mapping.values()


# --------------------------------------------------------------------- #
# repair_mapping: splice semantics
# --------------------------------------------------------------------- #
def test_repair_remaps_only_affected_groups():
    engine = MappingEngine()
    use_cases = _sparse_use_cases()
    baseline = _provisioned_baseline(engine, use_cases)

    outcome = repair_mapping(
        engine, use_cases, baseline, FailureSet().mark_link_down(1, 4)
    )
    assert outcome.repaired is not None and not outcome.unrepairable
    assert outcome.groups_total == 8
    # pinned: exactly the 4 groups routing over link 1<->4 are re-evaluated
    assert len(outcome.affected_group_ids) == 4
    assert outcome.evaluations["evaluation_misses"] == 4
    # untouched groups keep their baseline configurations verbatim
    repaired = outcome.repaired
    assert repaired.topology.has_failures
    assert repaired.method == "unified-repair"
    affected = set(outcome.affected_group_ids)
    for gid, group in enumerate(baseline.groups):
        if gid in affected:
            continue
        for name in group:
            assert repaired.configurations[name] is baseline.configurations[name]


def test_repair_zero_affected_is_pure_splice():
    engine = MappingEngine()
    use_cases = _sparse_use_cases()
    baseline = _provisioned_baseline(engine, use_cases)

    outcome = repair_mapping(
        engine, use_cases, baseline, FailureSet().mark_link_down(7, 8)
    )
    assert outcome.repaired is not None
    assert outcome.affected_group_ids == ()
    assert outcome.evaluations["evaluation_misses"] == 0
    assert outcome.repaired_cost == pytest.approx(outcome.baseline_cost)
    assert outcome.metrics()["cost_delta"] == pytest.approx(0.0)


def test_warm_single_link_repair_of_sparse_spread10_is_pinned(tmp_path):
    # Sparse spread-10 provisioned on mesh-4x4: link 1<->5 carries 7 of the
    # 10 groups, and a fresh engine warmed from the store repairs them
    # without computing a single evaluation.
    use_cases = generate_benchmark(
        "spread", 10, core_count=16, seed=3, flows_per_use_case=(6, 10)
    )
    failures = FailureSet().mark_link_down(1, 5)
    store = EngineStateStore(tmp_path / "store")
    engine = MappingEngine()
    engine.attach_store(store)
    baseline = engine.map(use_cases, topology=Topology.mesh(4, 4))
    repair_mapping(engine, use_cases, baseline, failures)
    store.ingest(engine.export_results(), engine.export_evaluations())

    warm = MappingEngine()
    warm.attach_store(EngineStateStore(tmp_path / "store"))
    outcome = repair_mapping(warm, use_cases, baseline, failures)
    assert (len(outcome.affected_group_ids), outcome.groups_total) == (7, 10)
    assert warm.cache_info()["evaluation_misses"] == 0
    assert outcome.repaired.topology.name == "mesh-4x4+fb3a87e3c"
    assert mapping_fingerprint(outcome.repaired) == (
        "623f02d407b15cb84e2b2d58ee80c52646b520bfb9d9ab20566a98495d747281"
    )


def test_repair_reports_unrepairable_gracefully():
    engine = MappingEngine()
    use_cases = generate_benchmark("spread", 3, core_count=12, seed=1)
    baseline = engine.map(use_cases)
    assert baseline.topology.name == "mesh-2x2"  # minimal mesh: zero slack

    outcome = repair_mapping(
        engine, use_cases, baseline, FailureSet().mark_link_down(0, 1),
        compare_full_remap=True,
    )
    assert outcome.repaired is None
    assert outcome.unrepairable == ("uc01",)
    assert outcome.full_remap is None  # even a full remap cannot absorb it


# --------------------------------------------------------------------- #
# RepairJob: warm/cold equivalence (satellite c)
# --------------------------------------------------------------------- #
def test_repair_job_warm_cold_equivalence(tmp_path):
    job = RepairJob(
        use_cases=UseCaseSource(generator=dict(SPARSE8)),
        failures=FailureSet().mark_link_down(1, 4).to_dict(),
        provision=(3, 3),
    )
    store = tmp_path / "store"
    cold = execute_job(job, store_path=store)
    warm = execute_job(job, store_path=store)

    assert cold.payload["mapped"] is True
    assert cold.payload["repair"]["groups_remapped"] == 4
    assert cold.stats["engine"]["evaluation_misses"] > 0
    # warm repair answers every affected-group evaluation from the store
    assert warm.stats["engine"]["evaluation_misses"] == 0
    # and stays bit-identical to the cold run
    assert warm.payload == cold.payload
    assert warm.payload["fingerprint"] == cold.payload["fingerprint"]


def test_repair_job_hash_depends_on_failures():
    base = RepairJob(
        use_cases=UseCaseSource(generator=dict(SPARSE8)), provision=(3, 3),
        failures=FailureSet().mark_link_down(1, 4).to_dict(),
    )
    other = RepairJob(
        use_cases=UseCaseSource(generator=dict(SPARSE8)), provision=(3, 3),
        failures=FailureSet().mark_link_down(3, 4).to_dict(),
    )
    assert job_hash(base) != job_hash(other)
    assert job_hash(base) == job_hash(RepairJob.from_dict(base.to_dict()))


def test_repair_job_rejects_nonfinite_traffic_at_construction():
    source = UseCaseSource(generator=dict(SPARSE8))
    for bandwidth in (float("nan"), float("inf"), 0.0, -1.0):
        with pytest.raises(SpecificationError, match="traffic"):
            RepairJob(use_cases=source,
                      traffic=(("uc00", "core08", "core11", bandwidth),))
    # JSON NaN / Infinity parse, so a job document must not smuggle them in
    for literal in ("NaN", "Infinity"):
        document = RepairJob(use_cases=source).to_dict()
        document["traffic"] = [["uc00", "core08", "core11", json.loads(literal)]]
        with pytest.raises(SpecificationError, match="traffic"):
            RepairJob.from_dict(document)


def test_repair_job_rejects_bad_provision_at_construction():
    source = UseCaseSource(generator=dict(SPARSE8))
    for provision in ((0, 4), (3, -1), (3,), (3, 3, 3), (2.5, 3)):
        with pytest.raises(SpecificationError, match="provision"):
            RepairJob(use_cases=source, provision=provision)
    document = dict(RepairJob(use_cases=source).to_dict(), provision=[0, 4])
    with pytest.raises(SpecificationError, match="provision"):
        RepairJob.from_dict(document)


def test_valid_repair_job_keeps_its_hash():
    job = RepairJob(
        use_cases=UseCaseSource(generator=dict(SPARSE8)),
        failures=FailureSet().mark_link_down(1, 4).to_dict(),
        provision=(3, 3),
        traffic=(("uc00", "core08", "core11", 3498661.4288853733 * 1.5),),
    )
    # recorded before construction-time validation existed
    assert job_hash(job) == (
        "9994a12753a1025e2eadb86ad5f5a614c3a4b5c22300714f08acbad67f462489"
    )


# --------------------------------------------------------------------- #
# supplied baselines must map the design
# --------------------------------------------------------------------- #
SPREAD3 = dict(kind="spread", use_case_count=3, core_count=12, seed=1)


def _mesh3x3_baseline(design):
    return MappingEngine().mapper.map_with_placement(
        design, Topology.mesh(3, 3), {}, validate=False
    )


def _assert_baseline_rejected(design, baseline, tmp_path, match):
    """Every entry point that takes a supplied baseline refuses this one."""
    inline = RepairJob(use_cases=UseCaseSource.from_value(design), failures={},
                       baseline={"inline": mapping_result_to_dict(baseline)})
    with pytest.raises(SpecificationError, match=match):
        execute_job(inline)
    path = save_mapping_result(baseline, tmp_path / "baseline.json")
    by_path = RepairJob(use_cases=UseCaseSource.from_value(design), failures={},
                        baseline={"path": str(path)})
    with pytest.raises(SpecificationError, match=match):
        execute_job(by_path)
    with pytest.raises(SpecificationError, match=match):
        failure_sweep(design, baseline=baseline, include_switches=False)
    with pytest.raises(SpecificationError, match=match):
        traffic_sweep(design, scales=(1.0,), baseline=baseline)
    # the service fails such a job on its first attempt
    inbox = tmp_path / "inbox"
    inbox.mkdir()
    save_job(inline, inbox / "repair.json")
    record, = JobDirectoryService(inbox, max_attempts=3, retry_backoff_s=0.0).run_once()
    assert record["status"] == "failed" and record["attempts"] == 1


def test_baseline_of_another_design_is_rejected(tmp_path):
    design = generate_benchmark(**SPREAD3)
    other = _mesh3x3_baseline(generate_benchmark(**dict(SPREAD3, seed=2)))
    _assert_baseline_rejected(design, other, tmp_path, "baseline allocates")

    # the design's own baseline passes, also through the lossy file format
    own = _mesh3x3_baseline(design)
    path = save_mapping_result(own, tmp_path / "own.json")
    payload = execute_job(RepairJob(
        use_cases=UseCaseSource.from_value(design), failures={},
        baseline={"path": str(path)},
    )).payload
    assert payload["mapped"] is True
    assert payload["baseline_fingerprint"] == payload["fingerprint"]


def test_baseline_computed_for_other_bandwidths_is_rejected(tmp_path):
    design = generate_benchmark(**SPREAD3)
    use_case = list(design)[0]
    flow = use_case.flows[0]
    tripled, _ = apply_traffic(
        design, {(use_case.name, flow.source, flow.destination): flow.bandwidth * 3}
    )
    # endpoints match, so the referee's coverage check alone would pass it
    _assert_baseline_rejected(tripled, _mesh3x3_baseline(design), tmp_path,
                              "for bandwidth")


# --------------------------------------------------------------------- #
# failure sweeps
# --------------------------------------------------------------------- #
def test_failure_sweep_sparse_design_all_links_repairable():
    engine = MappingEngine()
    use_cases = _sparse_use_cases()
    rows = failure_sweep(
        use_cases, engine=engine, provision=(3, 3), include_switches=False
    )
    assert len(rows) == len(single_link_failures(Topology.mesh(3, 3))) == 12
    assert all(row.kind == "link" for row in rows)
    assert all(row.schedulable and row.repaired for row in rows)
    by_failure = {row.failure: row for row in rows}
    assert by_failure["link 1<->4"].affected_groups == 4
    assert by_failure["link 7<->8"].affected_groups == 0
    document = rows[0].as_dict()
    assert set(document) >= {"failure", "kind", "schedulable", "repaired",
                             "affected_groups", "groups_total"}


def test_failure_sweep_minimal_mesh_finds_the_breaking_failures():
    engine = MappingEngine()
    use_cases = generate_benchmark("spread", 3, core_count=12, seed=1)
    baseline = engine.map(use_cases)
    rows = failure_sweep(use_cases, baseline=baseline, engine=engine)
    expected = len(single_link_failures(baseline.topology)) + len(
        single_switch_failures(baseline.topology)
    )
    assert len(rows) == expected == 8
    # the minimal mesh has little slack: the sweep pins exactly which
    # failures break schedulability (even under a full remap) and which
    # the spare capacity absorbs
    broken = {row.failure for row in rows if not row.schedulable}
    assert broken == {"link 0<->1", "link 0<->2",
                      "switch 0", "switch 1", "switch 2"}
    assert all(row.unrepairable for row in rows if not row.schedulable)
    assert all(row.repaired for row in rows if row.schedulable)


# --------------------------------------------------------------------- #
# CLI: python -m repro failures (satellite a)
# --------------------------------------------------------------------- #
@pytest.fixture()
def sparse_design_file(tmp_path):
    path = tmp_path / "design.json"
    save_use_case_set(_sparse_use_cases(), path)
    return path


def test_cli_failures_sweep(sparse_design_file, tmp_path, capsys):
    out = tmp_path / "rows.json"
    code = cli_main([
        "failures", str(sparse_design_file), "--provision", "3x3",
        "--links-only", "--out", str(out),
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert "12 failure(s) swept, 0 break schedulability" in captured.out
    rows = json.loads(out.read_text())
    assert len(rows) == 12 and all(row["repaired"] for row in rows)


def test_cli_failures_repair_job(sparse_design_file, capsys):
    code = cli_main([
        "failures", str(sparse_design_file), "--provision", "3x3",
        "--fail-link", "1,4",
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert "remapped 4/8 group(s)" in captured.out


def test_cli_failures_unknown_link_is_one_line_error(sparse_design_file, capsys):
    code = cli_main([
        "failures", str(sparse_design_file), "--provision", "3x3",
        "--fail-link", "0,99",
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:")
    assert len(captured.err.strip().splitlines()) == 1


def test_cli_failures_overlapping_failure_is_rejected(sparse_design_file, capsys):
    code = cli_main([
        "failures", str(sparse_design_file), "--provision", "3x3",
        "--fail-link", "0,1", "--fail-switch", "0",
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert "overlapping failure" in captured.err


def test_cli_failures_missing_baseline_is_one_line_error(
        sparse_design_file, capsys, tmp_path):
    code = cli_main([
        "failures", str(sparse_design_file),
        "--baseline", str(tmp_path / "nope.json"), "--fail-link", "0,1",
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert "cannot read repair baseline" in captured.err


def test_cli_failures_corrupt_baseline_is_one_line_error(
        sparse_design_file, capsys, tmp_path):
    corrupt = tmp_path / "baseline.json"
    corrupt.write_text("{not json")
    code = cli_main([
        "failures", str(sparse_design_file),
        "--baseline", str(corrupt), "--fail-link", "0,1",
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:")


def test_cli_failures_bad_provision_is_rejected(sparse_design_file, capsys):
    code = cli_main([
        "failures", str(sparse_design_file), "--provision", "banana",
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert "--provision expects" in captured.err

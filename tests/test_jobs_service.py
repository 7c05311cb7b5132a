"""Tests for the job-directory service and store-warmed engines.

Pins these contracts:

* the ``inbox/ -> running/ -> done/|failed/`` lifecycle with per-file
  result envelopes and a rolling ``manifest.jsonl``;
* crash-safe resume — files stranded in ``running/`` are re-queued;
* warm/cold equivalence — a ``--once`` serve run over a warm cache is
  bit-identical to the cold run (pinned fingerprints) with zero executions;
* warm starts through the cache's engine-state store, the only warm-start
  path: a refine or frequency job whose initial mapping an earlier
  design-flow job computed performs **zero** mapping re-evaluations
  (asserted on the engine's ``cache_info()`` counters);
* lean envelopes — compact JSON with no engine exports — and a cache that
  treats anything but the key's own envelope as a miss;
* one encoding per envelope — a fresh result's results entry is its cache
  entry, a hit publishes the bytes it read with ``cached`` flipped, and
  both are byte-identical to ``json.dumps`` of the envelopes' dicts.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import MappingEngine
from repro.gen import generate_benchmark
from repro.io.serialization import mapping_fingerprint
from repro.jobs import (
    DesignFlowJob,
    EngineStateStore,
    FaultInjector,
    FrequencyJob,
    JobCache,
    JobDirectoryService,
    JobResult,
    JobRunner,
    RefineJob,
    UseCaseSource,
    WorstCaseJob,
    job_to_dict,
    save_job,
)
from repro.jobs.cli import main as cli_main

SPREAD10 = UseCaseSource(generator={"kind": "spread", "use_case_count": 10, "seed": 3})
SPREAD3 = UseCaseSource(
    generator={"kind": "spread", "use_case_count": 3, "core_count": 12, "seed": 1}
)

#: the seed fingerprint of the spread-10 unified mapping (see
#: tests/test_mapping_regression.py) — serve runs must reproduce it
SPREAD10_FINGERPRINT = "fe6d93388377d6e6d578733f2efe5de71e885b8b2f4280ddd634f13a74994a29"


def read_manifest(service):
    return [json.loads(line) for line in
            service.manifest_path.read_text().splitlines()]


def read_results(service, record):
    return json.loads((service.inbox / record["results"]).read_text())


def write_jobs(path, jobs):
    """Submit several jobs as one spec file (a JSON list of job documents)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps([job_to_dict(job) for job in jobs]))


def dict_encoding(text):
    """The reference bytes of a results file: ``json.dumps`` of the list of
    its envelopes' ``JobResult.to_dict()``s."""
    return json.dumps([JobResult.from_dict(entry).to_dict() for entry in json.loads(text)])


# --------------------------------------------------------------------------- #
# directory lifecycle
# --------------------------------------------------------------------------- #
def test_service_directory_lifecycle(tmp_path):
    inbox = tmp_path / "inbox"
    service = JobDirectoryService(inbox)
    save_job(WorstCaseJob(use_cases=SPREAD3), inbox / "a_worst.json")
    save_job(DesignFlowJob(use_cases=SPREAD3), inbox / "b_flow.json")

    records = service.run_once()

    assert [record["file"] for record in records] == ["a_worst.json", "b_flow.json"]
    assert all(record["status"] == "done" for record in records)
    assert service.pending() == []
    assert not list(service.running_dir.glob("*.json"))
    assert sorted(entry.name for entry in service.done_dir.glob("*.json")) == [
        "a_worst.json", "b_flow.json",
    ]
    assert read_manifest(service) == records
    for record in records:
        envelopes = read_results(service, record)
        assert [env["spec_hash"] for env in envelopes] == record["spec_hashes"]
        assert all(env["payload"]["mapped"] for env in envelopes)
    # draining an empty inbox is a no-op
    assert service.run_once() == []


def test_service_moves_bad_specs_to_failed_and_keeps_serving(tmp_path):
    inbox = tmp_path / "inbox"
    service = JobDirectoryService(inbox)
    (inbox / "a_bad.json").parent.mkdir(parents=True, exist_ok=True)
    (inbox / "a_bad.json").write_text('{"kind": "no_such_kind"}')
    (inbox / "b_broken.json").write_text("not json {{{")
    save_job(WorstCaseJob(use_cases=SPREAD3), inbox / "c_good.json")

    records = service.run_once()

    by_file = {record["file"]: record for record in records}
    assert by_file["a_bad.json"]["status"] == "failed"
    assert "unknown job kind" in by_file["a_bad.json"]["error"]
    assert by_file["b_broken.json"]["status"] == "failed"
    assert by_file["c_good.json"]["status"] == "done"
    assert sorted(entry.name for entry in service.failed_dir.glob("*.json")) == [
        "a_bad.json", "b_broken.json",
    ]
    assert [entry.name for entry in service.done_dir.glob("*.json")] == ["c_good.json"]
    # failed files produce no results file, only the manifest record
    assert [entry.stem for entry in service.results_dir.glob("*.json")] == ["c_good"]


def test_save_job_that_fails_halfway_publishes_no_spec(tmp_path, monkeypatch):
    # A save into a live inbox that dies mid-write (disk full, killed
    # writer) must not leave a partial *.json for the next drain to claim
    # and fail: the monitor has logged that enqueue, so its repair would
    # never run.
    inbox = tmp_path / "inbox"
    service = JobDirectoryService(inbox)
    write_text, write_bytes = Path.write_text, Path.write_bytes

    def torn(self, data, *args, **kwargs):
        write = write_text if isinstance(data, str) else write_bytes
        write(self, data[: len(data) // 2], *args, **kwargs)
        raise OSError("No space left on device")

    monkeypatch.setattr(Path, "write_text", torn)
    monkeypatch.setattr(Path, "write_bytes", torn)
    with pytest.raises(OSError):
        save_job(WorstCaseJob(use_cases=SPREAD3), inbox / "monitor-000001-0.json")
    monkeypatch.undo()

    assert not list(inbox.glob("*.json"))
    assert not [entry for entry in inbox.iterdir() if entry.is_file()]
    assert service.run_once() == []
    assert not list(service.failed_dir.glob("*.json"))


def test_service_recovers_files_stranded_in_running(tmp_path):
    inbox = tmp_path / "inbox"
    # a previous instance crashed mid-execution: its claimed spec is still
    # in running/ when the next instance starts
    crashed = JobDirectoryService(inbox)
    save_job(WorstCaseJob(use_cases=SPREAD3), inbox / "stranded.json")
    os.rename(inbox / "stranded.json", crashed.running_dir / "stranded.json")

    service = JobDirectoryService(inbox)
    records = service.run_once()

    assert [record["file"] for record in records] == ["stranded.json"]
    assert records[0]["status"] == "done"
    assert not list(service.running_dir.glob("*.json"))
    assert (service.done_dir / "stranded.json").exists()


def test_resubmitted_file_names_do_not_clobber_history(tmp_path):
    inbox = tmp_path / "inbox"
    cache = tmp_path / "cache"
    service = JobDirectoryService(inbox, cache_dir=cache)
    save_job(WorstCaseJob(use_cases=SPREAD3), inbox / "job.json")
    first = service.run_once()
    save_job(WorstCaseJob(use_cases=SPREAD3), inbox / "job.json")
    second = service.run_once()

    assert first[0]["file"] == "job.json"
    assert second[0]["file"] == "job-2.json"
    assert second[0]["cached"] == 1 and second[0]["executed"] == 0
    assert sorted(entry.name for entry in service.done_dir.glob("*.json")) == [
        "job-2.json", "job.json",
    ]
    assert read_results(service, first[0])[0]["payload"] == \
        read_results(service, second[0])[0]["payload"]


def test_serve_forever_honours_max_polls_and_stop(tmp_path, fake_clock):
    service = JobDirectoryService(tmp_path / "inbox", clock=fake_clock)
    # a realistic poll interval, but on the fake clock: the loop really
    # sleeps between polls (not after the last one) without stalling the test
    assert service.serve_forever(poll_interval=1.5, max_polls=3) == 0
    assert fake_clock.sleeps == [1.5, 1.5]
    service.stop()
    assert service.serve_forever(poll_interval=1.5) == 0
    assert fake_clock.sleeps == [1.5, 1.5]  # stopped loop never slept again


# --------------------------------------------------------------------------- #
# warm/cold equivalence over a persistent cache
# --------------------------------------------------------------------------- #
def _submit_workload(inbox):
    inbox.mkdir(parents=True, exist_ok=True)
    save_job(DesignFlowJob(use_cases=SPREAD10), inbox / "a_flow.json")
    save_job(RefineJob(use_cases=SPREAD10, iterations=8, seed=0),
             inbox / "b_refine.json")


def _fingerprints(service, records):
    prints = {}
    for record in records:
        for envelope in read_results(service, record):
            prints[envelope["spec_hash"]] = envelope["payload"].get("fingerprint")
    return prints


def test_warm_serve_run_is_bit_identical_with_zero_executions(tmp_path):
    cache = tmp_path / "cache"

    cold_service = JobDirectoryService(tmp_path / "inbox-cold", cache_dir=cache)
    _submit_workload(cold_service.inbox)
    cold = cold_service.run_once()
    assert cold_service.runner.executed_jobs == 2

    warm_service = JobDirectoryService(tmp_path / "inbox-warm", cache_dir=cache)
    _submit_workload(warm_service.inbox)
    warm = warm_service.run_once()

    # zero executions: every job answered from the JobCache hit path
    assert warm_service.runner.executed_jobs == 0
    assert all(record["cached"] == record["jobs"] for record in warm)
    # bit-identical results, pinned to the seed mapping fingerprint
    cold_prints = _fingerprints(cold_service, cold)
    warm_prints = _fingerprints(warm_service, warm)
    assert warm_prints == cold_prints
    assert SPREAD10_FINGERPRINT in warm_prints.values()
    cold_payloads = {record["file"]: [env["payload"] for env in
                                      read_results(cold_service, record)]
                     for record in cold}
    warm_payloads = {record["file"]: [env["payload"] for env in
                                      read_results(warm_service, record)]
                     for record in warm}
    assert warm_payloads == cold_payloads


# --------------------------------------------------------------------------- #
# warm starts through the cache's engine-state store
# --------------------------------------------------------------------------- #
def test_refine_job_is_served_from_seeded_engine_without_recomputation(tmp_path):
    cache = tmp_path / "cache"

    # an earlier serve pass computed the design-flow mapping of spread-10
    first = JobDirectoryService(tmp_path / "inbox1", cache_dir=cache)
    save_job(DesignFlowJob(use_cases=SPREAD10), first.inbox / "flow.json")
    assert first.run_once()[0]["status"] == "done"

    # a later pass submits a refine job of the same design: it is NOT in the
    # JobCache (different spec hash), but its initial unified mapping is in
    # the engine-state store — the fresh engine reads it and performs zero
    # mapping re-evaluations
    second = JobDirectoryService(tmp_path / "inbox2", cache_dir=cache)
    save_job(RefineJob(use_cases=SPREAD10, iterations=8, seed=0),
             second.inbox / "refine.json")
    record = second.run_once()[0]
    assert record["status"] == "done"
    assert record["executed"] == 1 and record["cached"] == 0

    envelope = read_results(second, record)[0]
    engine_stats = envelope["stats"]["engine"]
    assert engine_stats["result_misses"] == 0
    assert engine_stats["result_hits"] >= 1
    assert engine_stats["imported_results"] >= 1
    assert envelope["payload"]["initial_fingerprint"] == SPREAD10_FINGERPRINT

    # warm starts are transparent: bit-identical to a cold, storeless run
    cold = JobRunner().run(RefineJob(use_cases=SPREAD10, iterations=8, seed=0))
    assert cold.stats["engine"]["result_misses"] == 1
    assert envelope["payload"] == cold.payload


def test_frequency_probe_is_served_from_seeded_engine(tmp_path):
    cache = tmp_path / "cache"
    runner = JobRunner(cache_dir=cache)
    runner.run(DesignFlowJob(use_cases=SPREAD10))

    # the probe at the design-flow operating point (the default 500 MHz) is
    # answered by a with_params sibling of the store-attached engine
    warm = JobRunner(cache_dir=cache)
    result = warm.run(FrequencyJob(use_cases=SPREAD10, frequencies_mhz=(500.0,)))
    assert result.payload["required_frequency_mhz"] == 500.0
    assert result.stats["engine"]["result_misses"] == 0
    assert result.stats["engine"]["result_hits"] >= 1


def test_store_serves_a_contained_mapping_to_a_fresh_engine(tmp_path):
    cache_dir = tmp_path / "cache"
    # a plain cached runner ingests what its executions computed
    JobRunner(cache_dir=cache_dir).run(DesignFlowJob(use_cases=SPREAD10))

    cache = JobCache(cache_dir)
    assert cache.store.stats()["results"] >= 1
    engine = MappingEngine()
    engine.attach_store(cache.store)

    design = generate_benchmark("spread", 10, seed=3)
    result = engine.map(design)
    info = engine.cache_info()
    assert (info["result_hits"], info["result_misses"]) == (1, 0)
    assert info["imported_results"] == 1
    assert mapping_fingerprint(result) == SPREAD10_FINGERPRINT
    # a second map is an in-memory hit, not a second store read
    engine.map(design)
    assert engine.cache_info()["imported_results"] == 1


def test_store_results_skip_other_operating_points_until_sibling_matches(tmp_path):
    base = MappingEngine()
    design = generate_benchmark("spread", 5, seed=3)
    computed = base.map(design)
    store = EngineStateStore(tmp_path / "store")
    assert store.ingest(base.export_results())["results"] == 1

    other = MappingEngine(params=base.params.with_frequency(1e9))
    other.attach_store(store)
    other.map(design)  # wrong operating point: the store cannot answer it
    assert other.cache_info()["result_misses"] == 1
    assert other.cache_info()["imported_results"] == 0
    # ...but a with_params sibling at the matching point inherits the store
    # and reads the entry lazily the moment a map() call asks for it
    sibling = other.with_params(params=base.params)
    assert mapping_fingerprint(sibling.map(design)) == mapping_fingerprint(computed)
    # (counters are shared with the sibling: only the import was added)
    assert sibling.cache_info()["imported_results"] == 1
    assert sibling.cache_info()["result_misses"] == 1

    # malformed entries are skipped silently
    assert store.ingest([{"junk": True}, 7, {"spec_hash": "x"}])["results"] == 0


def test_seeded_envelopes_do_not_reexport_the_seed_corpus(tmp_path):
    """A store-warmed engine exports only what it computed, so the store
    stays proportional to distinct mappings, not O(jobs^2)."""
    cache_dir = tmp_path / "cache"
    JobRunner(cache_dir=cache_dir).run(DesignFlowJob(use_cases=SPREAD10))
    store = JobCache(cache_dir).store
    assert store.stats()["results"] == 1

    warm = JobRunner(cache_dir=cache_dir)
    refine = warm.run(RefineJob(use_cases=SPREAD10, iterations=8, seed=0))
    assert refine.stats["engine"]["imported_results"] >= 1
    # the imported initial mapping is not ingested again...
    assert store.stats()["results"] == 1
    # ...and envelopes carry no engine state at all
    assert "engine_results" not in refine.to_dict()


def test_envelopes_without_a_cache_skip_engine_exports():
    result = JobRunner().run(WorstCaseJob(use_cases=SPREAD3))
    assert "engine_results" not in result.to_dict()
    assert result.payload["mapped"] is True


# --------------------------------------------------------------------------- #
# lean envelopes and what the cache accepts as one
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("job_timeout_s", [None, 60.0], ids=["in-process", "isolated"])
def test_envelopes_and_results_files_are_lean_compact_json(tmp_path, job_timeout_s):
    inbox = tmp_path / "inbox"
    service = JobDirectoryService(inbox, cache_dir=tmp_path / "cache",
                                  job_timeout_s=job_timeout_s)
    save_job(WorstCaseJob(use_cases=SPREAD3), inbox / "a_cold.json")
    save_job(WorstCaseJob(use_cases=SPREAD3), inbox / "b_hit.json")
    cold, hit = service.run_once()
    assert (cold["cached"], hit["cached"]) == (0, 1)

    stored = service.runner.cache.path_for(cold["spec_hashes"][0]).read_text()
    assert "\n" not in stored  # compact: written without indentation
    envelope = json.loads(stored)
    assert "engine_results" not in envelope
    for record in (cold, hit):
        text = (inbox / record["results"]).read_text()
        assert "\n" not in text
        assert all("engine_results" not in entry for entry in json.loads(text))
    # default separators keep the marker greppable in a hit's results file
    assert '"cached": true' in (inbox / hit["results"]).read_text()

    # an envelope written before the store was the only warm-start path
    # still carries its engine exports; it loads all the same
    legacy = dict(envelope, engine_results=[{"spec_hash": "x", "result": {}}])
    assert JobResult.from_dict(legacy).to_dict() == envelope


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda envelope: [],
        lambda envelope: "text",
        lambda envelope: {"payload": {}},
        lambda envelope: dict(envelope, spec_hash="0" * 64),
    ],
    ids=["list", "string", "no-kind", "another-key"],
)
def test_cache_entry_that_is_not_the_keys_envelope_is_a_miss(
    tmp_path, fake_clock, corrupt
):
    inbox = tmp_path / "inbox"
    service = JobDirectoryService(inbox, cache_dir=tmp_path / "cache",
                                  clock=fake_clock)
    save_job(WorstCaseJob(use_cases=SPREAD3), inbox / "first.json")
    key = service.run_once()[0]["spec_hashes"][0]
    cache = service.runner.cache
    entry = cache.path_for(key)
    entry.write_text(json.dumps(corrupt(json.loads(entry.read_text()))))

    save_job(WorstCaseJob(use_cases=SPREAD3), inbox / "again.json")
    record = service.run_once()[0]
    # recomputed on the first attempt, never retried into quarantine
    assert record["status"] == "done" and record["attempts"] == 1
    assert (record["executed"], record["cached"]) == (1, 0)
    assert (cache.hits, cache.misses) == (0, 2)
    # ...and the entry was overwritten with the key's own envelope
    assert cache.get(key).spec_hash == key


# --------------------------------------------------------------------------- #
# one encoding per envelope
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("job_timeout_s", [None, 60.0], ids=["in-process", "isolated"])
def test_fresh_entry_is_published_as_stored_and_a_hit_flips_only_its_flag(
    tmp_path, job_timeout_s
):
    inbox = tmp_path / "inbox"
    service = JobDirectoryService(inbox, cache_dir=tmp_path / "cache",
                                  job_timeout_s=job_timeout_s)
    save_job(WorstCaseJob(use_cases=SPREAD3), inbox / "a_fresh.json")
    save_job(WorstCaseJob(use_cases=SPREAD3), inbox / "b_hit.json")
    fresh, hit = service.run_once()
    assert (fresh["cached"], hit["cached"]) == (0, 1)

    entry = service.runner.cache.path_for(fresh["spec_hashes"][0]).read_text()
    assert entry == json.dumps(JobResult.from_dict(json.loads(entry)).to_dict())
    # the fresh result's results entry is its cache entry, byte for byte
    assert (inbox / fresh["results"]).read_text() == "[" + entry + "]"

    published = (inbox / hit["results"]).read_text()
    assert published == dict_encoding(published)
    (envelope,) = json.loads(published)
    assert envelope["cached"] is True
    assert envelope["payload"] == json.loads(entry)["payload"]
    # ...and the hit's is the bytes the cache read, with only the flag flipped
    assert entry.count('"cached": false') == 1
    assert published == "[" + entry.replace('"cached": false', '"cached": true') + "]"


def _stats_before_payload(envelope):
    order = ("kind", "spec_hash", "params", "config", "stats", "payload",
             "elapsed_s", "cached")
    return json.dumps({key: envelope[key] for key in order})


@pytest.mark.parametrize(
    "relayout",
    [
        lambda envelope: json.dumps(envelope, indent=2),
        _stats_before_payload,
        lambda envelope: json.dumps(dict(envelope, cached=True)),
    ],
    ids=["indent-2", "stats-before-payload", "stored-cached"],
)
def test_cache_entry_in_another_layout_hits_and_publishes_its_document(
    tmp_path, relayout
):
    inbox = tmp_path / "inbox"
    service = JobDirectoryService(inbox, cache_dir=tmp_path / "cache")
    save_job(WorstCaseJob(use_cases=SPREAD3), inbox / "first.json")
    key = service.run_once()[0]["spec_hashes"][0]
    cache = service.runner.cache
    entry = cache.path_for(key)
    entry.write_text(relayout(json.loads(entry.read_text())))
    # not the layout put writes: the hit is encoded from its document
    assert cache.get(key).text is None

    save_job(WorstCaseJob(use_cases=SPREAD3), inbox / "again.json")
    record = service.run_once()[0]
    assert (record["cached"], record["executed"]) == (1, 0)
    published = (inbox / record["results"]).read_text()
    stored = JobResult.from_dict(json.loads(entry.read_text()))
    stored.cached = True
    assert json.loads(published) == json.loads(json.dumps([stored.to_dict()]))


@pytest.mark.parametrize("job_timeout_s", [None, 60.0], ids=["in-process", "isolated"])
def test_file_mixing_a_hit_a_miss_and_a_duplicate_hit(tmp_path, job_timeout_s):
    inbox = tmp_path / "inbox"
    service = JobDirectoryService(inbox, cache_dir=tmp_path / "cache",
                                  job_timeout_s=job_timeout_s)
    hit, miss = WorstCaseJob(use_cases=SPREAD3), DesignFlowJob(use_cases=SPREAD3)
    save_job(hit, inbox / "a_warm.json")
    service.run_once()

    write_jobs(inbox / "b_mixed.json", [hit, miss, hit])
    (record,) = service.run_once()
    assert (record["jobs"], record["cached"], record["executed"]) == (3, 2, 1)
    published = (inbox / record["results"]).read_text()
    assert [envelope["cached"] for envelope in json.loads(published)] == [
        True, False, True,
    ]
    assert published == dict_encoding(published)


@pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "cache"])
def test_duplicated_spec_counts_one_execution_in_both_modes(tmp_path, cached):
    counts = {}
    for mode, job_timeout_s in (("in-process", None), ("isolated", 60.0)):
        inbox = tmp_path / mode
        service = JobDirectoryService(
            inbox, cache_dir=tmp_path / f"cache-{mode}" if cached else None,
            job_timeout_s=job_timeout_s,
        )
        drains = []
        for name in ("cold.json", "warm.json"):
            write_jobs(inbox / name, [WorstCaseJob(use_cases=SPREAD3)] * 2)
            (record,) = service.run_once()
            drains.append((record["jobs"], record["cached"], record["executed"]))
        counts[mode] = drains
    warm = (2, 2, 0) if cached else (2, 0, 1)
    assert counts == {"in-process": [(2, 0, 1), warm], "isolated": [(2, 0, 1), warm]}


def test_injected_corruption_of_a_hit_only_file_still_quarantines(tmp_path):
    inbox = tmp_path / "inbox"
    cache = tmp_path / "cache"
    warm = JobDirectoryService(inbox, cache_dir=cache)
    save_job(WorstCaseJob(use_cases=SPREAD3), inbox / "a_warm.json")
    warm.run_once()

    service = JobDirectoryService(
        inbox, cache_dir=cache, max_attempts=3, retry_backoff_s=0.0,
        fault_injector=FaultInjector(corrupt_rate=1.0),
    )
    save_job(WorstCaseJob(use_cases=SPREAD3), inbox / "b_hit.json")
    (record,) = service.run_once()
    assert record["status"] == "failed" and record["quarantined"] is True
    assert record["attempts"] == 3
    assert all("results payload is corrupt" in error
               for error in record["attempt_errors"])
    # every attempt was a hit whose published bytes were validated first
    assert service.runner.cache.hits == 3
    assert not (service.results_dir / "b_hit.json").exists()
    assert (service.failed_dir / "b_hit.json").exists()


_TRICKY = ', "cached": false, "stats": {}}'
_JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text() | st.sampled_from([0.1, 1e-300, "naïve ✓ 图", _TRICKY])
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
_JSON_OBJECTS = st.dictionaries(st.text(max_size=8), _JSON_VALUES, max_size=4)


@given(
    kind=st.text(min_size=1, max_size=12),
    params=_JSON_OBJECTS,
    config=_JSON_OBJECTS,
    payload=_JSON_OBJECTS,
    elapsed_s=st.floats(allow_nan=False) | st.sampled_from([0.1, 1e-300]),
    stats=_JSON_OBJECTS,
)
@example(kind="worst_case", params={}, config={}, payload={"note": _TRICKY},
         elapsed_s=1e-300, stats={})
@example(kind="dësign ✓", params={"f": 0.1}, config={"ü": [1e-300]},
         payload={"text": _TRICKY, "nested": {"cached": False}}, elapsed_s=0.1,
         stats={"engine": {"hits": 1, "nested": {"deeper": [0.1, {}]}}})
@settings(max_examples=60, deadline=None)
def test_put_then_get_needs_no_encoding_for_any_envelope(
    kind, params, config, payload, elapsed_s, stats
):
    key = "e" * 64
    result = JobResult(kind, key, params, config, payload, elapsed_s, stats=stats)
    with tempfile.TemporaryDirectory() as directory:
        cache = JobCache(directory)
        cache.put(key, result)
        assert cache.path_for(key).read_text() == json.dumps(result.to_dict())
        hit = cache.get(key)
    assert hit.text is not None  # the stored bytes with the flag flipped
    assert hit.to_json() == json.dumps(hit.to_dict())
    assert hit == dataclasses.replace(result, cached=True)
    assert repr(hit) == repr(dataclasses.replace(hit, text=None))


# --------------------------------------------------------------------------- #
# legacy envelope folding
# --------------------------------------------------------------------------- #
def _spy_reads(monkeypatch, cache):
    """Record the file name of every envelope read ``cache`` makes."""
    reads = []

    def spy(path):
        reads.append(path.name)
        return JobCache._read(path)

    monkeypatch.setattr(cache, "_read", spy)
    return reads


def test_later_drains_do_not_reread_the_runners_own_envelopes(tmp_path, monkeypatch):
    cache_dir = tmp_path / "cache"
    runner = JobRunner(cache_dir=cache_dir)
    worst = runner.run(WorstCaseJob(use_cases=SPREAD3))
    reads = _spy_reads(monkeypatch, runner.cache)

    # two more drains with pending work, so sync_store runs on each
    flow = runner.run(DesignFlowJob(use_cases=SPREAD3))
    refine = runner.run(RefineJob(use_cases=SPREAD3, iterations=2, seed=0))
    # each drain only probed its own (missing) key: the envelopes this
    # runner put were never parsed again
    assert reads == [f"{flow.spec_hash}.json", f"{refine.spec_hash}.json"]

    # a second runner sees them as a foreign writer's and folds each once
    other = JobRunner(cache_dir=cache_dir)
    other_reads = _spy_reads(monkeypatch, other.cache)
    other.run(WorstCaseJob(use_cases=SPREAD10))
    own = {f"{result.spec_hash}.json" for result in (worst, flow, refine)}
    assert own <= set(other_reads)


def test_recovery_runs_once_per_instance_not_every_drain(tmp_path):
    inbox = tmp_path / "inbox"
    service = JobDirectoryService(inbox)
    assert service.run_once() == []  # first drain consumes the recovery
    # a file appearing in running/ afterwards belongs to a live peer: the
    # established instance must not steal it on later drains
    save_job(WorstCaseJob(use_cases=SPREAD3), service.running_dir / "peer.json")
    assert service.run_once() == []
    assert (service.running_dir / "peer.json").exists()
    # a *new* instance (a restart) does recover it
    restarted = JobDirectoryService(inbox)
    assert [record["file"] for record in restarted.run_once()] == ["peer.json"]


def test_process_file_survives_a_peer_reclaiming_the_spec(tmp_path):
    inbox = tmp_path / "inbox"
    service = JobDirectoryService(inbox)

    # reclaimed *before* the file was even loaded: the claim is simply lost
    save_job(WorstCaseJob(use_cases=SPREAD3), inbox / "early.json")
    claimed = service._claim(inbox / "early.json")
    os.rename(claimed, inbox / "early.json")
    assert service.process_file(claimed) is None
    assert not service.manifest_path.exists()
    assert (inbox / "early.json").exists()

    # reclaimed *mid-execution*: the completed work is still recorded
    save_job(WorstCaseJob(use_cases=SPREAD3), inbox / "late.json")
    claimed = service._claim(inbox / "late.json")
    original = service.runner.run_many

    def steal_then_run(jobs):
        os.rename(claimed, inbox / "late.json")
        return original(jobs)

    service.runner.run_many = steal_then_run
    record = service.process_file(claimed)
    assert record["status"] == "done"
    assert read_results(service, record)[0]["payload"]["mapped"] is True


# --------------------------------------------------------------------------- #
# the serve CLI
# --------------------------------------------------------------------------- #
def test_cli_serve_once_end_to_end(tmp_path, capsys):
    inbox = tmp_path / "inbox"
    cache = tmp_path / "cache"
    inbox.mkdir()
    save_job(DesignFlowJob(use_cases=SPREAD3), inbox / "flow.json")

    assert cli_main(["serve", str(inbox), "--once",
                     "--cache-dir", str(cache)]) == 0
    out = capsys.readouterr().out
    assert "[done] flow.json" in out
    assert "processed 1 file(s), 0 failed" in out
    assert (inbox / "done" / "flow.json").exists()
    assert (inbox / "manifest.jsonl").exists()

    # a failed submission flips the --once exit status to 1
    (inbox / "bad.json").write_text('{"kind": "no_such_kind"}')
    assert cli_main(["serve", str(inbox), "--once",
                     "--cache-dir", str(cache)]) == 1
    assert "[failed] bad.json" in capsys.readouterr().out


def test_cli_serve_once_warm_inbox_reports_cache_hits(tmp_path, capsys):
    cache = tmp_path / "cache"
    for name in ("inbox1", "inbox2"):
        inbox = tmp_path / name
        inbox.mkdir()
        save_job(WorstCaseJob(use_cases=SPREAD3), inbox / "job.json")
        assert cli_main(["serve", str(inbox), "--once",
                        "--cache-dir", str(cache)]) == 0
    assert "1 cached  0 executed" in capsys.readouterr().out


# --------------------------------------------------------------------------- #
# the fleet view: serve --status over several inboxes
# --------------------------------------------------------------------------- #
def test_fleet_status_aggregates_inboxes_read_only(tmp_path):
    from repro.jobs import fleet_status

    cache = tmp_path / "cache"
    busy = tmp_path / "busy"
    busy.mkdir()
    save_job(WorstCaseJob(use_cases=SPREAD3), busy / "job.json")
    JobDirectoryService(busy, cache_dir=cache).run_once()
    idle = tmp_path / "idle"
    idle.mkdir()
    save_job(WorstCaseJob(use_cases=SPREAD3), idle / "waiting.json")

    fleet = fleet_status([busy, idle], cache_dir=cache)
    assert fleet["totals"]["inboxes"] == 2
    assert fleet["totals"]["files"]["done"] == 1
    assert fleet["totals"]["files"]["pending"] == 1
    assert fleet["totals"]["manifest"]["jobs"] == 1
    assert [status["inbox"] for status in fleet["inboxes"]] == [
        str(busy), str(idle),
    ]
    # the cache's engine-state store is reported without being created...
    assert fleet["store"]["directory"] == str(cache / "engine-state")
    assert fleet["store"]["results"] >= 1
    # ...and a cache that does not exist yet stays uncreated (read-only)
    absent = tmp_path / "no-cache"
    assert fleet_status([busy], cache_dir=absent)["store"] is None
    assert not absent.exists()


def test_fleet_status_rejects_missing_inboxes(tmp_path):
    from repro.exceptions import ReproError
    from repro.jobs import fleet_status

    inbox = tmp_path / "inbox"
    inbox.mkdir()
    with pytest.raises(ReproError):
        fleet_status([inbox, tmp_path / "missing"])
    assert not (tmp_path / "missing").exists()


def test_cli_serve_status_fleet_view(tmp_path, capsys):
    cache = tmp_path / "cache"
    inboxes = []
    for name in ("north", "south"):
        inbox = tmp_path / name
        inbox.mkdir()
        save_job(WorstCaseJob(use_cases=SPREAD3), inbox / "job.json")
        inboxes.append(str(inbox))
    assert cli_main(["serve", inboxes[0], "--once", "--cache-dir", str(cache)]) == 0
    capsys.readouterr()

    assert cli_main(["serve", *inboxes, "--status", "--cache-dir", str(cache)]) == 0
    out = capsys.readouterr().out
    assert "fleet: 2 inboxes, 1 pending" in out
    assert "1 done" in out
    assert "engine-state store" in out

    # several inboxes are only meaningful with --status
    assert cli_main(["serve", *inboxes, "--once"]) == 1
    assert capsys.readouterr().err.startswith("error:")

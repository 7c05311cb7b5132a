"""Live-operations loop: monitor, event log, probe sources, virtual time.

Pins the tentpole contracts of the ops layer:

* :meth:`FailureSet.diff` produces the exact :class:`FailureDelta` between
  two observations, and :func:`apply_traffic` rebuilds (and re-freezes)
  only the use cases whose bandwidth actually changed;
* the :class:`Monitor` loop — on a :class:`FakeClock`, with **zero real
  sleeping** — appends deltas to ``events.jsonl``, enqueues warm
  :class:`RepairJob` files into a serve inbox, and stays silent on
  steady-state polls;
* the event log is crash-replayable: :func:`replay_events` reconstructs
  monitor state **byte-identically** (property-tested over randomized
  fail/heal/traffic-change sequences), a restarted monitor resumes its
  sequence numbers from its own log, a torn final line is forgiven, and a
  sequence gap or foreign schema is rejected;
* a monitor-driven repair is bit-identical to a directly-constructed
  :class:`RepairJob` for the same failure set and executes with
  ``evaluation_misses == 0`` against the monitor-populated store;
* a poll's work does not grow with the history behind it: the store
  ingests only what the poll computed, the monitor's own engine caches
  stay at their post-baseline sizes, and ``state.json`` keeps the last
  enqueue rather than every enqueue;
* traffic re-characterisation events re-evaluate only the groups
  containing a re-characterised use case (the splice contract), and the
  final spliced mapping validates clean on the degraded topology.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.core.engine import MappingEngine
from repro.core.repair import repair_mapping
from repro.core.validate import validate_mapping
from repro.exceptions import SerializationError, SpecificationError
from repro.gen.synthetic import generate_benchmark
from repro.jobs import execute_job, inbox_status
from repro.jobs.spec import RepairJob, UseCaseSource, job_hash, load_jobs
from repro.noc.failures import FailureDelta, FailureSet
from repro.noc.topology import Topology
from repro.ops import (
    CallbackProbeSource,
    EventLog,
    FakeClock,
    Monitor,
    Observation,
    ScriptProbeSource,
    TrafficEvent,
    apply_traffic,
    canonical_state_bytes,
    replay_events,
)

#: the repairable workload test_failures pins: 8 use cases on a 3x3 mesh
SPARSE8 = dict(kind="spread", use_case_count=8, core_count=16, seed=5,
               flows_per_use_case=[6, 10])


def _design():
    return generate_benchmark(**SPARSE8)


def _write_script(path, steps):
    path.write_text(json.dumps(
        {"schema": "repro/probe-script@1", "steps": steps}
    ))
    return path


def _monitor(tmp_path, steps, clock, **kwargs):
    script = _write_script(tmp_path / "probe.json", steps)
    kwargs.setdefault("provision", (3, 3))
    kwargs.setdefault("period_s", 2.0)
    return Monitor(
        tmp_path / "inbox", ScriptProbeSource(script),
        UseCaseSource(generator=dict(SPARSE8)), clock=clock, **kwargs,
    )


# --------------------------------------------------------------------- #
# FailureSet.diff
# --------------------------------------------------------------------- #
def test_failure_diff_reports_directed_deltas():
    before = FailureSet().mark_link_down(1, 4).mark_switch_down(2)
    after = FailureSet().mark_link_down(3, 4).mark_switch_down(6)

    delta = before.diff(after)
    assert delta.failed_links == ((3, 4), (4, 3))
    assert delta.healed_links == ((1, 4), (4, 1))
    assert delta.failed_switches == (6,)
    assert delta.healed_switches == (2,)
    assert not delta.is_empty
    described = delta.describe()
    assert "down" in described and "up" in described

    # folding the delta into `before` reproduces `after` exactly
    folded = before.copy()
    for source, destination in delta.failed_links:
        folded.mark_link_down(source, destination, bidirectional=False)
    for source, destination in delta.healed_links:
        folded.mark_link_up(source, destination, bidirectional=False)
    for index in delta.failed_switches:
        folded.mark_switch_down(index)
    for index in delta.healed_switches:
        folded.mark_switch_up(index)
    assert folded.content_hash == after.content_hash


def test_failure_diff_of_identical_sets_is_empty():
    failures = FailureSet().mark_link_down(0, 1)
    delta = failures.diff(failures.copy())
    assert delta.is_empty
    assert delta == FailureDelta()
    assert delta.describe() == "no change"


# --------------------------------------------------------------------- #
# apply_traffic: re-characterisation
# --------------------------------------------------------------------- #
def test_apply_traffic_rebuilds_only_changed_use_cases():
    design = _design()
    target = list(design)[0]
    flow = target.flows[0]

    updated, changed = apply_traffic(
        design,
        {(target.name, flow.source, flow.destination): flow.bandwidth * 2},
    )
    assert changed == (target.name,)
    assert updated[target.name].flow_between(
        flow.source, flow.destination
    ).bandwidth == pytest.approx(flow.bandwidth * 2)
    # the rebuilt use case has a new identity...
    assert updated[target.name].content_hash() != target.content_hash()
    # ...while every untouched use case is the *same object*
    for use_case in design:
        if use_case.name != target.name:
            assert updated[use_case.name] is use_case
    # other flows of the rebuilt use case keep their design values
    other = target.flows[1]
    assert updated[target.name].flow_between(
        other.source, other.destination
    ).bandwidth == pytest.approx(other.bandwidth)


def test_apply_traffic_noop_override_changes_nothing():
    design = _design()
    target = list(design)[0]
    flow = target.flows[0]
    updated, changed = apply_traffic(
        design, {(target.name, flow.source, flow.destination): flow.bandwidth}
    )
    assert changed == ()
    assert updated[target.name] is target


def test_apply_traffic_rejects_unknown_names():
    design = _design()
    target = list(design)[0]
    with pytest.raises(SpecificationError, match="unknown use case"):
        apply_traffic(design, {("nope", "a", "b"): 1.0})
    with pytest.raises(SpecificationError, match="unknown flow"):
        apply_traffic(design, {(target.name, "ghost", "spook"): 1.0})


# --------------------------------------------------------------------- #
# probe sources
# --------------------------------------------------------------------- #
def test_script_probe_steps_and_clamping(tmp_path):
    script = _write_script(tmp_path / "p.json", [
        {"failures": {"links": [[1, 4], [4, 1]], "switches": []}},
        {},
    ])
    probe = ScriptProbeSource(script)
    assert len(probe) == 2 and not probe.exhausted
    first = probe.observe(0.0)
    assert first.failures.links == ((1, 4), (4, 1))
    assert probe.observe(1.0).failures.is_empty
    assert probe.exhausted
    # polls past the end keep observing the final step
    assert probe.observe(2.0).failures.is_empty


def test_script_probe_rejects_malformed_scripts(tmp_path):
    bad_schema = tmp_path / "bad.json"
    bad_schema.write_text(json.dumps({"schema": "other@1", "steps": [{}]}))
    with pytest.raises(SerializationError, match="probe script"):
        ScriptProbeSource(bad_schema)
    with pytest.raises(SerializationError, match="steps"):
        ScriptProbeSource(_write_script(tmp_path / "empty.json", []))
    with pytest.raises(SerializationError, match="traffic rows"):
        ScriptProbeSource(_write_script(
            tmp_path / "rows.json", [{"traffic": [["uc", "a", "b"]]}]
        ))
    with pytest.raises(SerializationError, match="absolute bandwidths"):
        ScriptProbeSource(_write_script(
            tmp_path / "null.json", [{"traffic": [["uc", "a", "b", None]]}]
        ))


def test_callback_probe_coerces_step_dicts():
    probe = CallbackProbeSource(
        lambda now: {"failures": {"links": [], "switches": [int(now)]}}
    )
    observed = probe.observe(6.0)
    assert isinstance(observed, Observation)
    assert observed.failures.switches == (6,)
    direct = Observation(failures=FailureSet())
    assert CallbackProbeSource(lambda now: direct).observe(0.0) is direct


# --------------------------------------------------------------------- #
# the monitor loop (virtual time; no real sleeping anywhere)
# --------------------------------------------------------------------- #
def test_monitor_fail_heal_cycle_enqueues_warm_repairs(tmp_path, fake_clock):
    design = _design()
    target = list(design)[0]
    flow = target.flows[0]
    monitor = _monitor(tmp_path, [
        {},  # steady: nothing logged, nothing enqueued
        {"failures": {"links": [[1, 4], [4, 1]], "switches": []}},
        {"failures": {"links": [[1, 4], [4, 1]], "switches": []},
         "traffic": [[target.name, flow.source, flow.destination,
                      flow.bandwidth * 1.5]]},
        {},  # healed and reverted
    ], clock=fake_clock)
    records = monitor.run(max_polls=4)

    assert monitor.polls == 4
    assert len(records) == 3  # the steady first poll produced no record
    assert fake_clock.sleeps == [2.0, 2.0, 2.0]

    fail, traffic, heal = records
    assert fail["action"] == "repair" and "down" in fail["delta"]
    assert traffic["traffic_changes"] == 1 and traffic["delta"] == "no change"
    assert heal["traffic_changes"] == 1 and "up" in heal["delta"]

    # one enqueued job file per change, named by enqueue-event sequence
    names = sorted(path.name for path in monitor.inbox.glob("*.json"))
    assert names == [record["file"] for record in records]
    # the traffic-step job carries the override; fail/heal jobs do not
    traffic_job, = load_jobs(monitor.inbox / traffic["file"])
    assert traffic_job.traffic == (
        (target.name, flow.source, flow.destination, flow.bandwidth * 1.5),
    )
    fail_job, = load_jobs(monitor.inbox / fail["file"])
    assert fail_job.traffic == ()
    assert fail_job.failures == FailureSet().mark_link_down(1, 4).to_dict()

    # state.json is exactly the replay of events.jsonl
    assert monitor.state_path.read_bytes() == canonical_state_bytes(
        replay_events(monitor.events_path)
    )
    assert monitor.state.failures.is_empty and not monitor.state.traffic


def test_monitor_restart_replays_its_own_log(tmp_path, fake_clock):
    steps = [{"failures": {"links": [[1, 4], [4, 1]], "switches": []}}]
    first = _monitor(tmp_path, steps, clock=fake_clock)
    first.run(max_polls=1)
    seq_before = first.state.seq
    assert seq_before > 0

    # a new monitor over the same state dir starts where the log ends —
    # the crash-recovery path is the ordinary startup path
    second = _monitor(tmp_path, [{}], clock=FakeClock(start=100.0))
    assert second.state.seq == seq_before
    assert second.state.failures.links == ((1, 4), (4, 1))
    record = second.poll_once()  # observes the heal
    assert record is not None and "up" in record["delta"]
    assert record["seq"] > seq_before
    assert second.state_path.read_bytes() == canonical_state_bytes(
        replay_events(second.events_path)
    )


def test_monitor_validates_observations_before_logging(tmp_path, fake_clock):
    monitor = _monitor(
        tmp_path, [{"traffic": [["ghost", "a", "b", 1.0]]}], clock=fake_clock
    )
    with pytest.raises(SpecificationError, match="unknown use case"):
        monitor.poll_once()
    # nothing reached the log or the inbox
    assert not monitor.events_path.exists()
    assert list(monitor.inbox.glob("*.json")) == []


def test_monitor_recovers_enqueue_lost_in_crash_window(tmp_path, fake_clock):
    steps = [{"failures": {"links": [[1, 4], [4, 1]], "switches": []}}] * 2
    crashed = _monitor(tmp_path, steps, clock=fake_clock)

    # crash (or any exception) between logging the delta events and
    # logging the enqueue: the failure is durable, the repair is not
    def boom(now, delta, traffic_changes):
        raise RuntimeError("crashed before enqueue")

    crashed._enqueue_repair = boom
    with pytest.raises(RuntimeError):
        crashed.poll_once()
    assert crashed.state.last_type == "link_down"
    assert list(crashed.inbox.glob("monitor-*.json")) == []

    # a restarted monitor replays the log, sees it does not end on an
    # enqueue, and enqueues the owed repair before its first probe — even
    # though re-observing the known failure produces no delta
    restarted = _monitor(tmp_path, steps, clock=FakeClock(start=50.0))
    record = restarted.poll_once()
    assert record is not None
    assert record["delta"] == "recovered" and record["action"] == "repair"
    assert restarted.state.last_type == "enqueue"
    job, = load_jobs(restarted.inbox / record["file"])
    assert job.failures == FailureSet().mark_link_down(1, 4).to_dict()
    # the log (enqueue included) still replays byte-identically
    assert restarted.state_path.read_bytes() == canonical_state_bytes(
        replay_events(restarted.events_path)
    )
    # a complete log has nothing to recover
    assert restarted.recover() is None


def test_monitor_rejects_nonpositive_or_nonfinite_bandwidth(
    tmp_path, fake_clock
):
    design = _design()
    target = list(design)[0]
    flow = target.flows[0]
    for bad in (0.0, -1.0, float("inf"), float("nan")):
        observation = Observation(
            failures=FailureSet(),
            traffic=(TrafficEvent(
                target.name, flow.source, flow.destination, bad
            ),),
        )
        monitor = Monitor(
            tmp_path / f"inbox-{bad}", CallbackProbeSource(lambda now: observation),
            UseCaseSource(generator=dict(SPARSE8)),
            provision=(3, 3), clock=fake_clock,
        )
        with pytest.raises(SpecificationError, match="non-positive or "
                                                     "non-finite"):
            monitor.poll_once()
        # the bad reading never reached the log or the inbox
        assert not monitor.events_path.exists()
        assert list(monitor.inbox.glob("monitor-*.json")) == []


def test_probe_script_rejects_nonpositive_or_nonfinite_bandwidth(tmp_path):
    for index, bad in enumerate((0.0, -2.0, float("inf"), float("nan"))):
        with pytest.raises(SerializationError, match="positive and finite"):
            ScriptProbeSource(_write_script(
                tmp_path / f"bad-{index}.json",
                [{"traffic": [["uc", "a", "b", bad]]}],
            ))
    with pytest.raises(SerializationError, match="must be a number"):
        ScriptProbeSource(_write_script(
            tmp_path / "nonnumeric.json",
            [{"traffic": [["uc", "a", "b", "fast"]]}],
        ))


def test_monitor_treats_design_bandwidth_reading_as_no_override(
    tmp_path, fake_clock
):
    design = _design()
    target = list(design)[0]
    flow = target.flows[0]
    at_design = [target.name, flow.source, flow.destination, flow.bandwidth]
    scaled = [target.name, flow.source, flow.destination, flow.bandwidth * 1.5]
    monitor = _monitor(tmp_path, [
        {"traffic": [at_design]},  # at the design value: not an override
        {"traffic": [scaled]},     # a real re-characterisation
        {"traffic": [at_design]},  # back at the design value: revert
    ], clock=fake_clock)

    # a reading equal to the design bandwidth is a steady-state poll:
    # nothing logged, nothing stored, nothing enqueued
    assert monitor.poll_once() is None
    assert not monitor.events_path.exists()
    assert monitor.state.traffic == {}

    record = monitor.poll_once()
    assert record["traffic_changes"] == 1
    assert monitor.state.traffic == {
        (target.name, flow.source, flow.destination): flow.bandwidth * 1.5
    }

    # returning to the design value clears the override (a null-revert
    # traffic event), rather than storing a no-op override forever
    record = monitor.poll_once()
    assert record["traffic_changes"] == 1
    assert monitor.state.traffic == {}
    job, = load_jobs(monitor.inbox / record["file"])
    assert job.traffic == ()


def test_monitor_escalates_unrepairable_to_full_remap(tmp_path, fake_clock):
    # on the minimal 2x2 mesh a failed link is unsurvivable by
    # construction (pinned by test_failures); the monitor must escalate
    script = _write_script(tmp_path / "p.json", [
        {"failures": {"links": [[0, 1], [1, 0]], "switches": []}},
    ])
    monitor = Monitor(
        tmp_path / "inbox", ScriptProbeSource(script),
        UseCaseSource(generator={
            "kind": "spread", "use_case_count": 3, "core_count": 12, "seed": 1,
        }),
        store_path=tmp_path / "store",
        clock=fake_clock,  # no provision: minimal mesh
    )
    record = monitor.poll_once()
    assert record["action"] == "remap"
    assert record["unrepairable"] == ["uc01"]
    job, = load_jobs(monitor.inbox / record["file"])
    assert job.compare_full_remap is True
    assert monitor.state.last_enqueued["action"] == "remap"
    # the monitor stored its engine.map baseline, so the serve side reads
    # it instead of mapping the design again
    served = execute_job(job, store_path=tmp_path / "store")
    assert served.stats["engine"]["result_misses"] == 0


# --------------------------------------------------------------------- #
# event log robustness
# --------------------------------------------------------------------- #
def test_event_log_forgives_torn_tail_and_rejects_corruption(tmp_path):
    path = tmp_path / "events.jsonl"
    log = EventLog(path)
    log.append("link_down", 1.0, {"source": 0, "destination": 1})
    log.append("link_down", 1.0, {"source": 1, "destination": 0})

    # a torn final line — the crashed-writer signature — is skipped
    intact = path.read_text()
    path.write_text(intact + '{"schema": "repro/events@1", "seq": 3, "t"')
    assert replay_events(path).seq == 2

    # mid-file corruption is an error, not a silent half-replay
    lines = intact.splitlines()
    path.write_text("garbage\n" + lines[1] + "\n")
    with pytest.raises(SerializationError, match="undecodable"):
        list(replay_events(path))

    # a sequence gap means lost events: refuse to pretend otherwise
    gapped = json.loads(lines[1])
    assert gapped["seq"] == 2
    path.write_text(json.dumps(gapped, sort_keys=True) + "\n")
    with pytest.raises(SerializationError, match="expected seq 1"):
        list(replay_events(path))

    # a foreign schema is rejected
    foreign = dict(json.loads(lines[0]), schema="other@9")
    path.write_text(json.dumps(foreign, sort_keys=True) + "\n")
    with pytest.raises(SerializationError, match="repro/events@1"):
        list(replay_events(path))

    # a missing file is an empty history
    assert replay_events(tmp_path / "absent.jsonl").seq == 0


def test_event_log_rejects_unknown_event_type(tmp_path):
    log = EventLog(tmp_path / "events.jsonl")
    with pytest.raises(SerializationError, match="unknown monitor event"):
        log.append("explode", 0.0, {})


def test_event_log_mends_torn_tail_before_appending(tmp_path):
    path = tmp_path / "events.jsonl"
    log = EventLog(path)
    log.append("link_down", 1.0, {"source": 0, "destination": 1})
    log.append("link_down", 1.0, {"source": 1, "destination": 0})
    intact = path.read_text()

    # a torn final line must be truncated on open, not appended onto —
    # otherwise the next event concatenates into one undecodable mid-file
    # line and every future replay raises
    path.write_text(intact + '{"schema": "repro/events@1", "seq": 3, "t"')
    reopened = EventLog(path)
    assert reopened.state.seq == 2
    assert path.read_text() == intact
    reopened.append("link_up", 2.0, {"source": 0, "destination": 1})
    reopened.append("link_up", 2.0, {"source": 1, "destination": 0})
    replayed = replay_events(path)
    assert replayed.seq == 4
    assert replayed.failures.is_empty
    assert canonical_state_bytes(replayed) == \
        canonical_state_bytes(reopened.state)


def test_event_log_terminates_valid_unterminated_tail(tmp_path):
    path = tmp_path / "events.jsonl"
    log = EventLog(path)
    log.append("link_down", 1.0, {"source": 0, "destination": 1})
    log.append("link_down", 1.0, {"source": 1, "destination": 0})
    intact = path.read_text()

    # the final event is complete JSON but lost its newline: it *was*
    # replayed, so it must be kept — terminated, not truncated
    path.write_text(intact.rstrip("\n"))
    reopened = EventLog(path)
    assert reopened.state.seq == 2
    assert path.read_text() == intact
    reopened.append("switch_down", 2.0, {"index": 5})
    assert replay_events(path).seq == 3


# --------------------------------------------------------------------- #
# traffic deltas splice only the affected groups
# --------------------------------------------------------------------- #
def test_traffic_delta_splices_only_groups_with_changed_use_cases():
    engine = MappingEngine()
    design = _design()
    baseline = engine.mapper.map_with_placement(
        design, Topology.mesh(3, 3), {}, validate=False
    )
    target = list(design)[0]
    flow = target.flows[0]
    updated, changed = apply_traffic(
        design,
        {(target.name, flow.source, flow.destination): flow.bandwidth * 1.5},
    )

    outcome = repair_mapping(
        engine, updated, baseline, FailureSet(), changed_use_cases=changed,
    )
    assert outcome.repaired is not None
    assert outcome.changed_use_cases == (target.name,)
    assert outcome.metrics()["changed_use_cases"] == [target.name]
    # exactly the groups containing the re-characterised use case re-ran
    affected = set(outcome.affected_group_ids)
    for gid, group in enumerate(baseline.groups):
        assert (target.name in group) == (gid in affected)
        if gid in affected:
            continue
        # everything else is spliced through verbatim
        for name in group:
            assert outcome.repaired.configurations[name] \
                is baseline.configurations[name]
    # and the spliced mapping validates clean against the *new* bandwidths
    assert validate_mapping(outcome.repaired, updated).ok


def test_repair_metrics_omit_changed_use_cases_when_empty():
    engine = MappingEngine()
    design = _design()
    baseline = engine.mapper.map_with_placement(
        design, Topology.mesh(3, 3), {}, validate=False
    )
    outcome = repair_mapping(
        engine, design, baseline, FailureSet().mark_link_down(1, 4)
    )
    # hash-stability: traffic-free repairs keep their historical metric shape
    assert "changed_use_cases" not in outcome.metrics()


# --------------------------------------------------------------------- #
# monitor-driven repair == directly-constructed RepairJob (satellite c)
# --------------------------------------------------------------------- #
def test_monitor_job_is_bit_identical_to_direct_repair_job(tmp_path, fake_clock):
    store = tmp_path / "store"
    monitor = _monitor(
        tmp_path,
        [{"failures": {"links": [[1, 4], [4, 1]], "switches": []}}],
        clock=fake_clock, store_path=store,
    )
    record = monitor.poll_once()
    enqueued, = load_jobs(monitor.inbox / record["file"])

    direct = RepairJob(
        use_cases=UseCaseSource(generator=dict(SPARSE8)),
        failures=FailureSet().mark_link_down(1, 4).to_dict(),
        provision=(3, 3),
    )
    # same dataclass, same serialized document, same content hash
    assert enqueued == direct
    assert enqueued.to_dict() == direct.to_dict()
    assert job_hash(enqueued) == job_hash(direct)
    assert monitor.state.last_enqueued["job_hash"] == job_hash(direct)

    # the monitor's local repairability probe populated the store, so the
    # serve-side execution of its job is fully warm...
    warm = execute_job(enqueued, store_path=store)
    assert warm.payload["mapped"] is True
    assert warm.stats["engine"]["evaluation_misses"] == 0
    # ...and bit-identical to a cold run of the directly-constructed job
    cold = execute_job(direct)
    assert warm.payload == cold.payload


def test_provisioned_baseline_is_read_from_the_store(
    tmp_path, fake_clock, monkeypatch
):
    from repro.core.mapping import UnifiedMapper

    store = tmp_path / "store"
    fail = {"failures": {"links": [[1, 4], [4, 1]], "switches": []}}
    monitor = _monitor(tmp_path, [fail], clock=fake_clock, store_path=store)
    record = monitor.poll_once()
    job, = load_jobs(monitor.inbox / record["file"])

    calls = []
    original = UnifiedMapper.map_with_placement

    def counting(mapper, *args, **kwargs):
        calls.append(args[1].name)
        return original(mapper, *args, **kwargs)

    monkeypatch.setattr(UnifiedMapper, "map_with_placement", counting)
    # the serve side reads the provisioned baseline the monitor stored...
    served = execute_job(job, store_path=store)
    assert served.payload["mapped"] is True
    assert calls == []
    assert served.stats["engine"]["imported_results"] == 1
    assert served.stats["engine"]["result_misses"] == 0

    # ...and so does a restarted monitor over the same store
    restarted = _monitor(tmp_path, [fail], clock=FakeClock(start=100.0),
                         store_path=store)
    assert restarted.poll_once() is None  # the known failure: no delta
    assert calls == []
    assert restarted.engine.cache_info()["imported_results"] == 1


# --------------------------------------------------------------------- #
# a poll's cost does not grow with the history behind it
# --------------------------------------------------------------------- #
def test_monitor_poll_work_does_not_grow_with_history(
    tmp_path, fake_clock, monkeypatch
):
    from repro.jobs.store import EngineStateStore

    ingested = []
    ingest = EngineStateStore.ingest

    def counting_ingest(store, results=(), evaluations=()):
        evaluations = list(evaluations)
        ingested.append(sum(len(document["entries"]) for document in evaluations))
        return ingest(store, results, evaluations)

    monkeypatch.setattr(EngineStateStore, "ingest", counting_ingest)
    design = _design()
    target = list(design)[0]
    flow = target.flows[0]
    observation = {}
    monitor = Monitor(
        tmp_path / "inbox", CallbackProbeSource(lambda now: observation),
        UseCaseSource(generator=dict(SPARSE8)), provision=(3, 3),
        store_path=tmp_path / "store", clock=fake_clock,
    )
    assert monitor.poll_once() is None  # steady: computes the baseline
    baseline_info = monitor.engine.cache_info()
    evaluated = baseline_info["evaluation_hits"] + baseline_info["evaluation_misses"]

    links = []
    records = []
    for index in range(32):
        if index % 2:
            links = [] if links else [[1, 4], [4, 1]]
        else:
            # a fresh override every other poll, cycling so states repeat
            scale = 1.1 + 0.02 * (index // 2 % 4)
            observation = dict(observation, traffic=[
                [target.name, flow.source, flow.destination, flow.bandwidth * scale]
            ])
        observation = dict(observation, failures={"links": links})
        before = monitor.engine.cache_info()
        ingested.clear()
        fake_clock.advance(1.0)
        record = monitor.poll_once()
        assert record is not None
        records.append(record)
        info = monitor.engine.cache_info()

        # the store is handed only what this poll computed
        misses = info["evaluation_misses"] - before["evaluation_misses"]
        assert sum(ingested) <= misses, (index, ingested, misses)
        # the baseline engine's caches stay put while its counters keep
        # counting every poll's work
        for cache in ("evaluations", "specs", "bundles"):
            assert info[cache] == baseline_info[cache], (index, cache)
        now_evaluated = info["evaluation_hits"] + info["evaluation_misses"]
        assert now_evaluated > evaluated, index
        evaluated = now_evaluated

    # state.json is constant-size: a count and the last enqueue, no history
    text = monitor.state_path.read_text()
    document = json.loads(text)
    assert document["schema"] == "repro/monitor-state@2"
    assert "enqueued" not in document
    assert document["events"]["enqueue"] == len(records)
    assert document["last_enqueued"]["file"] == records[-1]["file"]
    assert not any(record["file"] in text for record in records[:-1])


# --------------------------------------------------------------------- #
# property: randomized sequences replay exactly and end schedulable
# --------------------------------------------------------------------- #
#: candidate failures chosen not to overlap (a downed switch's links are
#: implicitly unusable; keeping the pools disjoint keeps every random
#: combination a valid FailureSet for the 3x3 baseline)
_LINK_POOL = [(0, 1), (1, 4), (3, 4), (7, 8)]
_SWITCH_POOL = [2, 6]


def _random_steps(rng, design, polls):
    """Complete-state probe steps for a random fail/heal/traffic walk."""
    flows = [
        (use_case.name, flow.source, flow.destination, flow.bandwidth)
        for use_case in design for flow in use_case.flows
    ]
    steps = []
    for _ in range(polls):
        links = [pair for pair in _LINK_POOL if rng.random() < 0.4]
        switches = [index for index in _SWITCH_POOL if rng.random() < 0.25]
        overrides = [
            [name, source, destination, bandwidth * rng.uniform(1.05, 1.25)]
            for name, source, destination, bandwidth in rng.sample(flows, 2)
            if rng.random() < 0.6
        ]
        steps.append({
            "failures": {
                "links": [[a, b] for a, b in links]
                         + [[b, a] for a, b in links],
                "switches": switches,
            },
            "traffic": overrides,
        })
    # end on a known-repairable state so the final splice must validate
    steps.append({
        "failures": {"links": [[1, 4], [4, 1]], "switches": []},
        "traffic": steps[-1]["traffic"],
    })
    return steps


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_sequences_replay_byte_identically_and_validate(
    tmp_path, fake_clock, seed
):
    rng = random.Random(seed)
    design = _design()
    steps = _random_steps(rng, design, polls=5)
    monitor = _monitor(tmp_path, steps, clock=fake_clock)
    monitor.run(max_polls=len(steps))

    # replaying the log reconstructs the live monitor's state byte-for-byte
    replayed = replay_events(monitor.events_path)
    assert canonical_state_bytes(replayed) == canonical_state_bytes(monitor.state)
    assert canonical_state_bytes(replayed) == monitor.state_path.read_bytes()
    # and the replayed state matches the final scripted observation
    final = Observation.from_dict(steps[-1])
    assert replayed.failures.content_hash == final.failures.content_hash
    assert replayed.traffic == final.traffic_map()

    # the final spliced mapping fits the final degraded topology cleanly
    engine = MappingEngine()
    baseline = engine.mapper.map_with_placement(
        design, Topology.mesh(3, 3), {}, validate=False
    )
    current, changed = apply_traffic(design, replayed.traffic)
    outcome = repair_mapping(
        engine, current, baseline, replayed.failures,
        changed_use_cases=changed,
    )
    assert outcome.repaired is not None
    report = validate_mapping(outcome.repaired, current)
    assert report.ok, report.issues


# --------------------------------------------------------------------- #
# status surfaces and analysis sweep
# --------------------------------------------------------------------- #
def test_inbox_status_surfaces_monitor_section(tmp_path, fake_clock):
    fail = {"failures": {"links": [[1, 4], [4, 1]], "switches": []}}
    monitor = _monitor(tmp_path, [fail, {}, fail], clock=fake_clock)
    records = monitor.run(max_polls=3)
    assert len(records) == 3

    status = inbox_status(monitor.inbox)
    section = status["monitor"]
    assert section["events"] == monitor.state.seq
    # the count and the last enqueue, after more than one enqueue
    assert section["enqueued"] == 3
    assert section["last_enqueued"]["file"] == records[-1]["file"]
    assert section["last_enqueued"]["action"] == "repair"
    assert section["failures"] == FailureSet().mark_link_down(1, 4).describe()

    # a corrupt log degrades to an error string, not a crashed status call
    monitor.events_path.write_text("garbage\ngarbage\n")
    assert "undecodable" in inbox_status(monitor.inbox)["monitor"]["error"]

    # an inbox without a monitor directory has no section at all
    other = tmp_path / "plain-inbox"
    other.mkdir()
    assert "monitor" not in inbox_status(other)


def test_traffic_sweep_reports_headroom():
    from repro.analysis.failures import traffic_sweep

    design = _design()
    rows = traffic_sweep(design, scales=(1.0, 1.2), provision=(3, 3))
    control, scaled = rows
    assert control.scale == 1.0
    assert control.schedulable and control.repaired
    assert control.changed_use_cases == 0 and control.affected_groups == 0
    assert control.cost_delta == pytest.approx(0.0)
    # scaling every flow re-characterises every use case
    assert scaled.changed_use_cases == len(list(design))
    assert scaled.affected_groups == scaled.groups_total
    assert scaled.schedulable
    assert scaled.as_dict()["scale"] == 1.2

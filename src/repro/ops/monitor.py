"""The live-operations loop: probe, diff, log, enqueue warm repairs.

:class:`Monitor` closes the probe → detect → splice-repair loop around the
failure machinery: on a configurable period it asks its
:class:`~repro.ops.probe.ProbeSource` for the network's current state,
diffs the observed :class:`~repro.noc.failures.FailureSet` and traffic
overrides against the last known state, appends the deltas to the
append-only event log (:mod:`repro.ops.events` — the source of truth, so a
crashed monitor restarts by replaying its own log), and reacts by
enqueuing a warm :class:`~repro.jobs.spec.RepairJob` into a ``repro
serve`` inbox.  When the local splice check reports unrepairable use
cases, the enqueued job additionally carries the full remap
(``compare_full_remap=True``) so the serve farm computes the fallback
mapping in the same envelope.

Everything the monitor computes locally (the baseline, the repairability
probe) flows through engines attached to the shared
:class:`~repro.jobs.store.EngineStateStore`, so the enqueued job's
execution warm-starts from it — a monitor-driven repair performs **zero**
evaluation misses on the serve side and is bit-identical to a
directly-constructed repair job for the same failure set.  Each poll's
probe runs on a fresh store-attached engine, the discipline
:func:`~repro.jobs.runner.execute_job` follows, and the store ingests only
what that poll computed, so a poll costs the same after a thousand events
as after one.

Time comes exclusively from the injectable :class:`~repro.ops.clock.Clock`
(the loop never touches :func:`time.sleep`), which is what lets the whole
subsystem run under virtual time in tests.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.engine import MappingEngine
from repro.core.repair import repair_mapping
from repro.exceptions import SpecificationError
from repro.io.serialization import atomic_write
from repro.jobs.spec import RepairJob, UseCaseSource, job_hash, save_job
from repro.noc.topology import Topology
from repro.ops.clock import Clock, SystemClock
from repro.ops.events import EventLog, apply_traffic, canonical_state_bytes
from repro.ops.probe import Observation, ProbeSource
from repro.params import MapperConfig, NoCParameters

__all__ = ["Monitor"]


class Monitor:
    """Periodic probing loop feeding live events into a serve inbox.

    Parameters
    ----------
    inbox:
        The ``repro serve`` inbox directory repair jobs are enqueued into
        (created if missing).
    probe_source:
        Where observations come from (scripted for tests/CI, a process
        callback for real deployments).
    use_cases:
        The deployed design — anything
        :meth:`~repro.jobs.spec.UseCaseSource.from_value` accepts.  The
        *original* (design-time) bandwidths; live re-characterisations ride
        as overrides on top, never mutate the source.
    params, config:
        The operating point and mapper configuration the enqueued jobs run
        under (defaults match the job-spec defaults, so a monitor-enqueued
        job hashes identically to a hand-written one).
    provision:
        ``(rows, cols)`` mesh the baseline is computed on.  Fault tolerance
        needs headroom — on the minimal mesh most failures are
        unsurvivable by construction — so a real deployment should always
        provision.
    period_s:
        Seconds between polls in :meth:`run`.
    state_dir:
        Where ``events.jsonl`` and ``state.json`` live; defaults to
        ``INBOX/monitor/`` so ``repro serve --status`` finds them.
    store_path:
        Directory of the shared :class:`~repro.jobs.store.EngineStateStore`
        — point it at the serve cache's store so monitor-side probing
        warm-starts the farm's executions.
    clock:
        The time source (default: the real :class:`SystemClock`).
    """

    def __init__(
        self,
        inbox: Union[str, Path],
        probe_source: ProbeSource,
        use_cases,
        params: Optional[NoCParameters] = None,
        config: Optional[MapperConfig] = None,
        provision: Optional[Tuple[int, int]] = None,
        groups: Optional[Sequence[Sequence[str]]] = None,
        period_s: float = 5.0,
        state_dir: Union[str, Path, None] = None,
        store_path: Union[str, Path, None] = None,
        clock: Optional[Clock] = None,
    ) -> None:
        self.inbox = Path(inbox)
        self.inbox.mkdir(parents=True, exist_ok=True)
        self.probe_source = probe_source
        self.source = UseCaseSource.from_value(use_cases)
        self.params = params or NoCParameters()
        self.config = config or MapperConfig()
        self.provision = provision
        self.groups = (
            None if groups is None else tuple(tuple(group) for group in groups)
        )
        self.period_s = float(period_s)
        self.clock = clock or SystemClock()
        self.state_dir = Path(state_dir) if state_dir else self.inbox / "monitor"
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.events_path = self.state_dir / "events.jsonl"
        self.state_path = self.state_dir / "state.json"
        #: crash-replay: reconstruct everything we knew from the log
        self.log = EventLog(self.events_path)
        #: holds the baseline only; every poll's repair runs on a fresh
        #: engine that reports its hits and misses into this one's counters
        self.engine = MappingEngine(params=self.params, config=self.config)
        if store_path is not None:
            from repro.jobs.store import EngineStateStore

            self._store = EngineStateStore(store_path)
            self.engine.attach_store(self._store)
        else:
            self._store = None
        self._design = None
        self._baseline = None
        self._stop = False
        #: polls performed over this monitor's lifetime (not replayed)
        self.polls = 0

    # ------------------------------------------------------------------ #
    # lazy design/baseline
    # ------------------------------------------------------------------ #
    @property
    def state(self):
        """The folded event-log state (see :class:`MonitorState`)."""
        return self.log.state

    def _ensure_design(self):
        if self._design is None:
            self._design = self.source.build()
        return self._design

    def _ensure_baseline(self):
        """The pre-failure mapping repairs splice against (computed once)."""
        if self._baseline is not None:
            return self._baseline
        groups = None if self.groups is None else [list(g) for g in self.groups]
        mesh = None if self.provision is None else Topology.mesh(*self.provision)
        self._baseline = self.engine.map(
            self._ensure_design(), groups=groups, topology=mesh
        )
        if self._store is not None:
            # the serve-side job maps the same baseline: store it once
            self._store.ingest(self.engine.export_results())
        return self._baseline

    def _validate_observation(self, observation: Observation) -> None:
        """Reject garbage before it reaches the log.

        Failure ids are checked against the baseline topology and traffic
        readings against the design's flows — an observation that does not
        validate raises and nothing is appended, so the log only ever holds
        events that replay cleanly.
        """
        observation.failures.validate_for(self._ensure_baseline().topology)
        design = self._ensure_design()
        for (name, source, destination), bandwidth in \
                observation.traffic_map().items():
            if name not in design:
                raise SpecificationError(
                    f"probe reports traffic for unknown use case {name!r}"
                )
            if design[name].flow_between(source, destination) is None:
                raise SpecificationError(
                    f"probe reports traffic for unknown flow "
                    f"{source!r}->{destination!r} in use case {name!r}"
                )
            # NaN fails both comparisons, so this also rejects it
            if not 0 < bandwidth < math.inf:
                raise SpecificationError(
                    f"probe reports non-positive or non-finite bandwidth "
                    f"{bandwidth!r} for flow {source!r}->{destination!r} "
                    f"in use case {name!r}"
                )

    # ------------------------------------------------------------------ #
    # the loop
    # ------------------------------------------------------------------ #
    def recover(self) -> Optional[Dict]:
        """Finish a poll interrupted between logging deltas and enqueuing.

        Delta events are durable the moment they are appended, but the
        repair they call for is only durable once the matching ``enqueue``
        event follows.  A log whose last event is not an ``enqueue`` is the
        signature of a crash (or an exception) in that window: the failure
        is already folded into replayed state, so the next observation
        would produce no delta and the repair would be silently lost.
        This re-runs the enqueue for the replayed state; :meth:`poll_once`
        calls it before every probe, so the ordinary restart path heals
        itself.  Returns the enqueue record, or ``None`` if the log is
        complete.
        """
        state = self.log.state
        if state.seq == 0 or state.last_type == "enqueue":
            return None
        record = self._enqueue_repair(self.clock.now(), None, 0)
        self._write_state()
        return record

    def poll_once(self) -> Optional[Dict]:
        """One probe → diff → log → enqueue cycle.

        Returns ``None`` when the observation matches the last known state
        (nothing is logged, nothing is enqueued — a steady network costs
        one probe per period and nothing else), otherwise a record of what
        changed and what was enqueued.
        """
        recovery = self.recover()
        self.polls += 1
        now = self.clock.now()
        observation = self.probe_source.observe(now)
        self._validate_observation(observation)

        state = self.log.state
        delta = state.failures.diff(observation.failures)
        design = self._ensure_design()
        # a reading at a flow's design bandwidth is not an override — treat
        # it as absent so it never logs a no-op event (and clears any prior
        # override for the flow, via the ordinary null-revert path)
        observed_traffic = {
            key: bandwidth
            for key, bandwidth in observation.traffic_map().items()
            if design[key[0]].flow_between(key[1], key[2]).bandwidth
            != bandwidth
        }
        traffic_keys = sorted(set(state.traffic) | set(observed_traffic))
        traffic_changes = [
            (key, observed_traffic.get(key))
            for key in traffic_keys
            if state.traffic.get(key) != observed_traffic.get(key)
        ]
        if delta.is_empty and not traffic_changes:
            return recovery

        for source, destination in delta.failed_links:
            self.log.append("link_down", now,
                            {"source": source, "destination": destination})
        for source, destination in delta.healed_links:
            self.log.append("link_up", now,
                            {"source": source, "destination": destination})
        for index in delta.failed_switches:
            self.log.append("switch_down", now, {"index": index})
        for index in delta.healed_switches:
            self.log.append("switch_up", now, {"index": index})
        for (name, source, destination), bandwidth in traffic_changes:
            self.log.append("traffic", now, {
                "use_case": name, "source": source,
                "destination": destination, "bandwidth": bandwidth,
            })

        record = self._enqueue_repair(now, delta, len(traffic_changes))
        self._write_state()
        return record

    def _enqueue_repair(self, now: float, delta, traffic_changes: int) -> Dict:
        """Probe repairability locally, enqueue the job, log the enqueue.

        The local :func:`repair_mapping` run decides ``action``: a clean
        splice enqueues a plain repair; unrepairable use cases escalate to
        a full-remap job (``compare_full_remap=True``).  It runs on a fresh
        engine attached to the shared store, whose exports — exactly what
        this poll computed — the store then ingests; that is what makes
        the serve-side execution of the enqueued job warm.  ``delta`` is
        ``None`` on the :meth:`recover` path, where the deltas are already
        in the log and only the enqueue is owed.
        """
        state = self.log.state
        baseline = self._ensure_baseline()
        design = self._ensure_design()
        if state.traffic:
            current, changed = apply_traffic(design, state.traffic)
        else:
            current, changed = design, ()
        groups = None if self.groups is None else [list(g) for g in self.groups]
        engine = MappingEngine(params=self.params, config=self.config)
        engine._counters = self.engine._counters
        if self._store is not None:
            engine.attach_store(self._store)
        outcome = repair_mapping(
            engine, current, baseline, state.failures,
            groups=groups, changed_use_cases=changed,
        )
        unrepairable = outcome.repaired is None
        if self._store is not None:
            # Persist what the probe computed so the serve-side execution
            # of the job below starts warm (zero evaluation misses).
            self._store.ingest(engine.export_results(), engine.export_evaluations())

        job = RepairJob(
            use_cases=self.source,
            failures=state.failures.to_dict(),
            params=self.params,
            config=self.config,
            provision=self.provision,
            groups=self.groups,
            traffic=tuple(
                (name, source, destination, state.traffic[(name, source, destination)])
                for name, source, destination in sorted(state.traffic)
            ),
            compare_full_remap=unrepairable,
        )
        action = "remap" if unrepairable else "repair"
        # the hash suffix keeps an orphan file from a crash between
        # save_job and the enqueue event from being silently overwritten
        # by a *different* job that later lands on the same sequence number
        digest = job_hash(job)
        file_name = f"monitor-{state.seq + 1:06d}-{digest[:8]}.json"
        save_job(job, self.inbox / file_name)
        self.log.append("enqueue", now, {
            "file": file_name,
            "job_hash": digest,
            "kind": job.KIND,
            "action": action,
            "unrepairable": list(outcome.unrepairable),
        })
        return {
            "seq": state.seq,
            "delta": "recovered" if delta is None else delta.describe(),
            "traffic_changes": traffic_changes,
            "file": file_name,
            "action": action,
            "unrepairable": list(outcome.unrepairable),
        }

    def _write_state(self) -> None:
        """Publish the canonical derived state atomically.

        ``state.json`` is a convenience projection — the log is the source
        of truth — but it must never be torn.
        """
        atomic_write(self.state_path, canonical_state_bytes(self.log.state))

    def run(self, max_polls: Optional[int] = None) -> List[Dict]:
        """Poll repeatedly, sleeping ``period_s`` between polls.

        Runs until :meth:`stop` is called or ``max_polls`` polls have
        happened; returns the records of the polls that observed changes.
        """
        records: List[Dict] = []
        polls = 0
        while not self._stop:
            record = self.poll_once()
            if record is not None:
                records.append(record)
            polls += 1
            if max_polls is not None and polls >= max_polls:
                break
            if not self._stop:
                self.clock.sleep(self.period_s)
        return records

    def stop(self) -> None:
        """Ask :meth:`run` to exit after the poll currently in flight."""
        self._stop = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Monitor({str(self.inbox)!r}, seq={self.log.state.seq}, "
            f"polls={self.polls})"
        )

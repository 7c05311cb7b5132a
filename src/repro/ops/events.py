"""The append-only, crash-replayable monitor event log (``repro/events@1``).

The event log is the monitor's *source of truth*.  Every observation the
:class:`~repro.ops.monitor.Monitor` reacts to — a link or switch failing or
healing, a flow's bandwidth being re-characterised, a repair job being
enqueued — is appended to ``events.jsonl`` as one JSON object per line
**before** any derived state is written, and the derived ``state.json`` is
a pure fold over the log: :func:`replay_events` from an empty
:class:`MonitorState` reconstructs it byte-identically
(:func:`canonical_state_bytes`).  A monitor that crashes mid-operation
restarts by replaying its own log; nothing else needs to be durable.

Event lines share four envelope fields — ``schema`` (``repro/events@1``),
``seq`` (1-based, strictly increasing), ``t`` (the injectable clock's
monotonic seconds) and ``type`` — plus a per-type payload:

==============  ==========================================================
type            payload
==============  ==========================================================
``link_down``   ``source``, ``destination`` (one *directed* link)
``link_up``     ``source``, ``destination``
``switch_down``  ``index``
``switch_up``   ``index``
``traffic``     ``use_case``, ``source``, ``destination``, ``bandwidth``
                (bytes/s; ``null`` reverts the flow to its design value)
``enqueue``     ``file``, ``job_hash``, ``kind``, ``action``
                (``"repair"`` | ``"remap"``), ``unrepairable`` (names)
==============  ==========================================================

Directed links keep replay exact: a probe that sees only one direction of
a channel fail produces exactly that single-direction event.

:class:`TrafficEvent` / :func:`apply_traffic` are the re-characterisation
half: overrides rebuild and re-freeze only the affected
:class:`~repro.core.usecase.UseCase`\\ s (frozen use cases are immutable, so
a changed bandwidth means a *new* use case with a new content hash — which
is what keys engine state correctly per traffic state).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Tuple, Union

from repro.core.usecase import Flow, UseCase, UseCaseSet
from repro.exceptions import SerializationError, SpecificationError
from repro.noc.failures import FailureSet

__all__ = [
    "EVENTS_SCHEMA",
    "MONITOR_STATE_SCHEMA",
    "TrafficEvent",
    "apply_traffic",
    "MonitorState",
    "EventLog",
    "read_events",
    "replay_events",
    "canonical_state_bytes",
]

EVENTS_SCHEMA = "repro/events@1"
MONITOR_STATE_SCHEMA = "repro/monitor-state@2"

#: (use_case, source, destination) — the identity of one overridable flow
_FlowKey = Tuple[str, str, str]


# --------------------------------------------------------------------------- #
# traffic re-characterisation
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class TrafficEvent:
    """One flow's bandwidth re-characterised by a live measurement.

    ``bandwidth`` is the newly observed requirement in bytes/s; ``None``
    reverts the flow to its design value (the override is dropped).
    """

    use_case: str
    source: str
    destination: str
    bandwidth: Optional[float]

    @property
    def key(self) -> _FlowKey:
        return (self.use_case, self.source, self.destination)


def apply_traffic(
    use_cases: UseCaseSet,
    overrides: Mapping[_FlowKey, float],
) -> Tuple[UseCaseSet, Tuple[str, ...]]:
    """Re-characterise a design: a new frozen set with overridden bandwidths.

    Returns ``(recharacterised_set, changed_names)``.  Only use cases whose
    bandwidth actually changes are rebuilt (and re-frozen, giving them new
    content hashes); untouched use cases are the *same objects*, so engine
    state keyed on their hashes stays valid.  An override naming an unknown
    use case or flow raises :class:`SpecificationError` — the monitor
    validates observations before logging them.
    """
    by_use_case: Dict[str, Dict[Tuple[str, str], float]] = {}
    for (name, source, destination), bandwidth in overrides.items():
        if name not in use_cases:
            raise SpecificationError(
                f"traffic override names unknown use case {name!r}"
            )
        if use_cases[name].flow_between(source, destination) is None:
            raise SpecificationError(
                f"traffic override names unknown flow "
                f"{source!r}->{destination!r} in use case {name!r}"
            )
        by_use_case.setdefault(name, {})[(source, destination)] = float(bandwidth)

    changed: List[str] = []
    rebuilt: List[UseCase] = []
    for use_case in use_cases:
        pairs = by_use_case.get(use_case.name)
        if pairs is None or all(
            use_case.flow_between(*pair).bandwidth == bandwidth
            for pair, bandwidth in pairs.items()
        ):
            rebuilt.append(use_case)
            continue
        changed.append(use_case.name)
        flows = [
            flow if flow.pair not in pairs else Flow(
                source=flow.source,
                destination=flow.destination,
                bandwidth=pairs[flow.pair],
                latency=flow.latency,
                traffic_class=flow.traffic_class,
                name=flow.name,
            )
            for flow in use_case.flows
        ]
        rebuilt.append(
            UseCase(use_case.name, flows=flows, cores=use_case.cores,
                    parents=use_case.parents).freeze()
        )
    return (
        UseCaseSet(rebuilt, name=use_cases.name).freeze(),
        tuple(sorted(changed)),
    )


# --------------------------------------------------------------------------- #
# replayable state
# --------------------------------------------------------------------------- #
class MonitorState:
    """The fold of an event log: everything the monitor knows.

    Mutated exclusively through :meth:`apply` — the live monitor and the
    replayer go through the same method with the same event documents,
    which is what makes replay byte-identical *by construction* rather
    than by careful bookkeeping.
    """

    def __init__(self) -> None:
        self.seq = 0
        self.time = 0.0
        self.failures = FailureSet()
        #: active overrides: (use_case, source, destination) -> bytes/s
        self.traffic: Dict[_FlowKey, float] = {}
        self.counts: Dict[str, int] = {}
        #: the most recent ``enqueue`` event's record; ``counts["enqueue"]``
        #: holds how many there were, so state stays constant-size
        self.last_enqueued: Optional[Dict] = None
        #: type of the most recent event; a log whose last event is not an
        #: ``enqueue`` was interrupted between logging deltas and enqueuing
        #: the repair (not part of :meth:`to_dict` — it is derivable)
        self.last_type: Optional[str] = None

    def apply(self, event: Dict) -> None:
        """Fold one event document into the state."""
        kind = event["type"]
        self.seq = int(event["seq"])
        self.time = float(event["t"])
        self.counts[kind] = self.counts.get(kind, 0) + 1
        self.last_type = kind
        if kind == "link_down":
            self.failures.mark_link_down(
                event["source"], event["destination"], bidirectional=False
            )
        elif kind == "link_up":
            self.failures.mark_link_up(
                event["source"], event["destination"], bidirectional=False
            )
        elif kind == "switch_down":
            self.failures.mark_switch_down(event["index"])
        elif kind == "switch_up":
            self.failures.mark_switch_up(event["index"])
        elif kind == "traffic":
            key = (event["use_case"], event["source"], event["destination"])
            if event["bandwidth"] is None:
                self.traffic.pop(key, None)
            else:
                self.traffic[key] = float(event["bandwidth"])
        elif kind == "enqueue":
            self.last_enqueued = {
                "file": event["file"],
                "job_hash": event["job_hash"],
                "kind": event["kind"],
                "action": event["action"],
                "unrepairable": list(event.get("unrepairable", ())),
            }
        else:
            raise SerializationError(f"unknown monitor event type {kind!r}")

    def traffic_rows(self) -> List[List]:
        """Active overrides as sorted ``[use_case, source, destination, bw]``."""
        return [
            [name, source, destination, self.traffic[(name, source, destination)]]
            for name, source, destination in sorted(self.traffic)
        ]

    def to_dict(self) -> Dict:
        """Canonical JSON-ready state (the ``state.json`` document)."""
        return {
            "schema": MONITOR_STATE_SCHEMA,
            "seq": self.seq,
            "time": self.time,
            "failures": self.failures.to_dict(),
            "traffic": self.traffic_rows(),
            "events": dict(sorted(self.counts.items())),
            "last_enqueued": self.last_enqueued,
        }


def canonical_state_bytes(state: Union[MonitorState, Dict]) -> bytes:
    """The exact bytes ``state.json`` holds for a state (sorted, newline-terminated)."""
    document = state.to_dict() if isinstance(state, MonitorState) else state
    return (json.dumps(document, sort_keys=True, indent=2) + "\n").encode()


def read_events(path: Union[str, Path]) -> Iterator[Dict]:
    """Iterate the event documents of a log file, oldest first.

    A missing file yields nothing (a monitor that never observed anything
    has an empty history).  A torn final line — the signature of a crashed
    writer — is skipped; anything else malformed (bad JSON mid-file, a
    foreign schema, a sequence gap) raises :class:`SerializationError`,
    because silently replaying half a log would *look* like a consistent
    state while lying about it.
    """
    source = Path(path)
    try:
        raw = source.read_text()
    except FileNotFoundError:
        return
    lines = raw.splitlines()
    expected_seq = 1
    for index, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError:
            if index == len(lines) - 1:
                return  # torn tail from a crashed writer: the log ends here
            raise SerializationError(
                f"{source}:{index + 1}: undecodable event line"
            ) from None
        if not isinstance(event, dict) or event.get("schema") != EVENTS_SCHEMA:
            raise SerializationError(
                f"{source}:{index + 1}: not a {EVENTS_SCHEMA} event"
            )
        if int(event.get("seq", -1)) != expected_seq:
            raise SerializationError(
                f"{source}:{index + 1}: expected seq {expected_seq}, "
                f"got {event.get('seq')!r}"
            )
        expected_seq += 1
        yield event


def replay_events(path: Union[str, Path]) -> MonitorState:
    """Reconstruct monitor state purely from an event log.

    Replay performs no probing and no mapping work — ``enqueue`` events
    carry everything the state needs — so it is cheap and side-effect-free.
    """
    state = MonitorState()
    for event in read_events(path):
        state.apply(event)
    return state


class EventLog:
    """Appender half of the log: write an event, fold it, one durable line.

    The live monitor owns one of these.  :meth:`append` assigns the next
    sequence number, applies the event to the in-memory state *through the
    same* :meth:`MonitorState.apply` the replayer uses, then appends the
    line — so the in-memory state can never drift from what a replay of
    the file would produce (modulo the final line during a crash, which
    replay then simply does not know about either).
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.state = MonitorState()
        for event in read_events(self.path):
            self.state.apply(event)
        self._mend_tail()

    def _mend_tail(self) -> None:
        """Make the file end exactly where the replayed history ends.

        :func:`read_events` forgives a torn final line (the signature of a
        crashed writer) — but an *appender* must not leave it in place, or
        the next event would concatenate onto the fragment and the merged
        line would poison every future replay.  A torn tail is truncated
        away; a valid final event missing only its newline (the event *was*
        replayed) gets the newline appended.  Either way every append
        starts on a fresh line.
        """
        try:
            raw = self.path.read_bytes()
        except FileNotFoundError:
            return
        if not raw:
            return
        tail = raw.splitlines(keepends=True)[-1]
        body = tail.strip()
        if body:
            try:
                json.loads(body)
            except ValueError:
                # the torn tail replay forgave: drop it
                with self.path.open("r+b") as log:
                    log.truncate(len(raw) - len(tail))
                return
        if not raw.endswith(b"\n"):
            with self.path.open("ab") as log:
                log.write(b"\n")

    def append(self, kind: str, t: float, payload: Dict) -> Dict:
        """Append one event; returns the full document written."""
        event = {"schema": EVENTS_SCHEMA, "seq": self.state.seq + 1,
                 "t": float(t), "type": kind}
        event.update(payload)
        self.state.apply(event)
        with self.path.open("a") as log:
            log.write(json.dumps(event, sort_keys=True) + "\n")
        return event

"""The benchmark's four workloads: seeded inputs, one timed operation, one gate.

Every workload is a closed loop with one caller.  Its inputs come in
*rounds*: round ``r`` of seed ``s`` is a fixed mix of operation classes
whose random content (design seeds, chain seeds, job schedule, probe walk)
is drawn from ``random.Random(f"{s}:{name}:{r}")``, so the class shares are
the same in every run and only the content varies with the seed.  A
workload object offers four calls:

``setup()``
    everything before the first timed operation (inputs of round 0, cache
    priming, warm-up);
``round_ops(r)``
    the operations of round ``r`` (generated untimed, between rounds);
``run(op)``
    the timed operation itself;
``check(op, raw)``
    the correctness gate, run untimed: it re-checks every emitted mapping
    with :func:`repro.core.validate.validate_mapping` and the workload's
    invariants, and returns a :class:`Checked`.

The library only ever sees the generated inputs.
"""

from __future__ import annotations

import json
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core.engine import MappingEngine
from repro.core.repair import total_communication_cost
from repro.core.validate import validate_mapping
from repro.gen import generate_benchmark
from repro.io.serialization import mapping_result_from_dict
from repro.jobs.service import JobDirectoryService
from repro.jobs.spec import DesignFlowJob, RefineJob, RepairJob, UseCaseSource, job_to_dict
from repro.noc import Topology
from repro.ops import CallbackProbeSource, FakeClock, Monitor
from repro.ops.events import apply_traffic, canonical_state_bytes, replay_events
from repro.optimize import AnnealingRefiner, TabuRefiner

#: engine counters summed per operation (see MappingEngine.cache_info)
ENGINE_COUNTERS = (
    "result_hits", "result_misses", "evaluation_hits", "evaluation_misses",
    "imported_evaluations", "screen_hits", "screen_misses",
)

#: the sparse 16-core design the repair and monitor operations run on,
#: provisioned on a 4x4 mesh (fixed; the seed drives the schedule around it)
SPARSE_DESIGN = {"kind": "spread", "use_case_count": 10, "core_count": 16,
                 "seed": 3, "flows_per_use_case": (8, 14)}
SPARSE_MESH = (4, 4)
#: interior links of the 4x4 mesh; every single failure and every pair of
#: them is repairable for SPARSE_DESIGN
WALK_LINKS = ((1, 2), (1, 5), (2, 6), (5, 6), (5, 9), (6, 10), (9, 10), (10, 14))


@dataclass
class Op:
    """One operation: its class within the workload and its inputs."""

    kind: str
    data: Dict


@dataclass
class Checked:
    """What the gate found for one operation."""

    #: every mapping the operation emitted, already validated or not
    mappings: List = field(default_factory=list)
    #: switch counts that enter the workload's ``switch_count``
    switch_counts: List[int] = field(default_factory=list)
    #: gate failures; an operation with any is counted as failed
    problems: List[str] = field(default_factory=list)
    #: engine counter deltas of the operation
    engine: Dict[str, int] = field(default_factory=dict)
    #: workload-specific counters (job cache traffic, remaps, ...)
    counters: Dict[str, float] = field(default_factory=dict)


def _rng(seed: int, name: str, index) -> random.Random:
    return random.Random(f"{seed}:{name}:{index}")


def _stratified(rng: random.Random, low: int, high: int, count: int) -> List[int]:
    """``count`` sizes in ``[low, high)``, one from each equal slice of it.

    One jittered draw per slice keeps every run's size distribution smooth
    and the same, so percentiles do not jump between a few fixed sizes.
    """
    width = (high - low) / count
    return [low + int((index + rng.random()) * width) for index in range(count)]


def _engine_counters(info: Dict) -> Dict[str, int]:
    return {name: int(info.get(name, 0)) for name in ENGINE_COUNTERS}


def _validate(checked: Checked, result, use_cases, label: str) -> None:
    """Record ``result`` and any referee issue against ``use_cases``."""
    checked.mappings.append(result)
    report = validate_mapping(result, use_cases)
    if not report.ok:
        checked.problems.append(
            f"{label}: {len(report.issues)} validation issue(s), first: {report.issues[0]}"
        )


def sparse_design():
    recipe = dict(SPARSE_DESIGN)
    return generate_benchmark(recipe.pop("kind"), **recipe)


class _Workload:
    """Defaults for the workloads that keep nothing on disk."""

    name = ""
    #: rounds the traced run executes (fixed work, so counts repeat)
    trace_rounds = 1

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed

    def setup(self) -> None:
        """Set-up work beyond generating round 0 (none by default)."""

    def cache_counts(self) -> Tuple[int, int]:
        """Job-cache (hits, misses) so far."""
        return 0, 0

    def disk_bytes(self) -> Optional[int]:
        """Bytes under the workload's inbox and cache, ``None`` if it has none."""
        return None


# --------------------------------------------------------------------------- #
# map_cold
# --------------------------------------------------------------------------- #
class MapCold(_Workload):
    """Cold constructive mapping of distinct designs, one fresh engine each.

    A round is 25 designs: 20 paper-scale (20 cores, 4-40 use cases, half
    spread and half bottleneck) mapped through ``engine.map``'s topology
    growth, four 48-core designs with 40-100 use cases forced onto an 8x8
    mesh, and one ``mesh16x16_spread200``-shaped design forced onto 16x16.
    """

    name = "map_cold"

    def setup(self) -> None:
        # warm-up: lazy imports and the 2x2 routing tables
        MappingEngine().map(generate_benchmark("spread", 4, seed=self.seed))

    def round_ops(self, index: int) -> List[Op]:
        rng = _rng(self.seed, self.name, index)
        ops = []
        for kind in ("spread", "bottleneck"):
            for count in _stratified(rng, 4, 41, 10):
                design = generate_benchmark(kind, count, seed=rng.randrange(1 << 30))
                ops.append(Op("paper", {"use_cases": design, "mesh": None}))
        for index, count in enumerate(_stratified(rng, 40, 101, 4)):
            design = generate_benchmark(
                ("spread", "bottleneck")[index % 2], count, core_count=48,
                seed=rng.randrange(1 << 30), flows_per_use_case=(8, 14),
            )
            ops.append(Op("mesh8x8", {"use_cases": design, "mesh": (8, 8)}))
        design = generate_benchmark(
            "spread", 200, core_count=160, seed=rng.randrange(1 << 30),
            flows_per_use_case=(6, 10),
        )
        ops.append(Op("mesh16x16", {"use_cases": design, "mesh": (16, 16)}))
        rng.shuffle(ops)
        return ops

    def run(self, op: Op):
        engine = MappingEngine()
        mesh = op.data["mesh"]
        if mesh is None:
            return engine, engine.map(op.data["use_cases"])
        return engine, engine.mapper.map_with_placement(
            op.data["use_cases"], Topology.mesh(*mesh), {}, validate=False
        )

    def check(self, op: Op, raw) -> Checked:
        engine, result = raw
        checked = Checked(engine=_engine_counters(engine.cache_info()))
        _validate(checked, result, op.data["use_cases"], op.kind)
        if op.data["mesh"] is None:
            checked.switch_counts.append(result.switch_count)
        return checked


# --------------------------------------------------------------------------- #
# refine
# --------------------------------------------------------------------------- #
class Refine(_Workload):
    """Fixed-budget refinement chains on fresh engines.

    Every round draws four fresh designs and computes their initial
    mappings untimed: bottleneck-10 and spread-20 on their minimal mesh,
    and 60-use-case 48-core spread and bottleneck designs on an 8x8 mesh.
    The round runs every design with two annealing chains (10 iterations)
    and two tabu chains (1 iteration, 8 neighbours), each with a seeded
    chain seed.
    """

    name = "refine"
    trace_rounds = 2
    CHAINS_PER_METHOD = 2
    #: (label, generate_benchmark kind, use cases, knobs, forced mesh)
    DESIGNS = (
        ("bottleneck10", "bottleneck", 10, {}, None),
        ("spread20", "spread", 20, {}, None),
        ("spread60-8x8", "spread", 60, {"core_count": 48, "flows_per_use_case": (8, 14)}, (8, 8)),
        ("bottleneck60-8x8", "bottleneck", 60,
         {"core_count": 48, "flows_per_use_case": (8, 14)}, (8, 8)),
    )

    def round_ops(self, index: int) -> List[Op]:
        rng = _rng(self.seed, self.name, index)
        ops = []
        for label, kind, count, knobs, mesh in self.DESIGNS:
            design = generate_benchmark(kind, count, seed=rng.randrange(1 << 30), **knobs)
            engine = MappingEngine()
            if mesh is None:
                initial = engine.map(design)
            else:
                initial = engine.mapper.map_with_placement(
                    design, Topology.mesh(*mesh), {}, validate=False
                )
            for method in ("annealing", "tabu"):
                for _chain in range(self.CHAINS_PER_METHOD):
                    ops.append(Op(f"{method}:{label}", {
                        "design": design, "initial": initial, "method": method,
                        "chain_seed": rng.randrange(1 << 30),
                    }))
        rng.shuffle(ops)
        return ops

    def run(self, op: Op):
        if op.data["method"] == "annealing":
            refiner = AnnealingRefiner(iterations=10, seed=op.data["chain_seed"])
        else:
            refiner = TabuRefiner(iterations=1, neighbours_per_iteration=8,
                                  seed=op.data["chain_seed"])
        engine = MappingEngine()
        return engine, refiner.refine(op.data["initial"], op.data["design"], engine=engine)

    def check(self, op: Op, raw) -> Checked:
        engine, refinement = raw
        checked = Checked(engine=_engine_counters(engine.cache_info()))
        _validate(checked, refinement.refined, op.data["design"], op.kind)
        checked.switch_counts.append(refinement.refined.switch_count)
        if not refinement.refined_cost <= refinement.initial_cost:
            checked.problems.append(
                f"{op.kind}: refined cost {refinement.refined_cost} exceeds "
                f"initial cost {refinement.initial_cost}"
            )
        if total_communication_cost(refinement.refined) != refinement.refined_cost:
            checked.problems.append(f"{op.kind}: refined cost does not match its mapping")
        return checked


# --------------------------------------------------------------------------- #
# shared by the two directory-service workloads
# --------------------------------------------------------------------------- #
def _tree_bytes(*roots: Path) -> int:
    return sum(
        entry.stat().st_size
        for root in roots if root.exists()
        for entry in root.rglob("*") if entry.is_file()
    )


class _ServiceWorkload(_Workload):
    """An in-process ``repro serve`` inbox with a result cache, serial."""

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(seed, work_dir)
        self.root = Path(work_dir) / self.name
        if self.root.exists():
            shutil.rmtree(self.root)
        self.inbox = self.root / "inbox"
        self.cache_dir = self.root / "cache"
        self.service = JobDirectoryService(self.inbox, cache_dir=self.cache_dir,
                                           clock=FakeClock())
        self._files = 0

    def _submit(self, text: str):
        """Write one job file and drain the inbox (see :meth:`_drain`)."""
        self._files += 1
        (self.inbox / f"op-{self._files:06d}.json").write_text(text)
        return self._drain()

    def _drain(self):
        """Drain the inbox; returns (manifest records, parsed envelopes)."""
        records = self.service.run_once()
        envelopes: List[Dict] = []
        for record in records:
            if record.get("status") == "done":
                envelopes.extend(json.loads((self.inbox / record["results"]).read_text()))
        return records, envelopes

    def _check_envelope(self, checked: Checked, records, envelopes, label: str):
        """Common service checks; returns the single envelope or ``None``."""
        checked.counters["files"] = len(records)
        checked.counters["attempts"] = sum(record.get("attempts", 1) for record in records)
        if len(records) != 1 or records[0].get("status") != "done" or len(envelopes) != 1:
            checked.problems.append(
                f"{label}: service settled {[r.get('status') for r in records]} "
                f"with {len(envelopes)} envelope(s)"
            )
            return None
        envelope = envelopes[0]
        checked.counters["cached"] = 1 if envelope.get("cached") else 0
        if not envelope.get("cached"):
            checked.engine = _engine_counters(envelope.get("stats", {}).get("engine", {}))
            stored = self.service.runner.cache.path_for(envelope["spec_hash"])
            checked.counters["puts"] = 1
            checked.counters["put_bytes"] = stored.stat().st_size
        return envelope

    def _mapping_of(self, checked: Checked, envelope: Dict, use_cases, label: str):
        payload = envelope["payload"]
        if not payload.get("mapped"):
            reason = payload.get("error") or payload.get("unrepairable")
            checked.problems.append(f"{label}: no mapping emitted ({reason})")
            return None
        result = mapping_result_from_dict(payload["mapping"])
        _validate(checked, result, use_cases, label)
        checked.switch_counts.append(result.switch_count)
        return result

    def cache_counts(self) -> Tuple[int, int]:
        cache = self.service.runner.cache
        return cache.hits, cache.misses

    def disk_bytes(self) -> Optional[int]:
        return _tree_bytes(self.inbox, self.cache_dir)


# --------------------------------------------------------------------------- #
# serve_mix
# --------------------------------------------------------------------------- #
class ServeMix(_ServiceWorkload):
    """A job mix through the directory service and its result cache.

    Setup primes the cache with 12 design-flow jobs of small designs.  A
    round submits 20 job files: 12 resubmissions of primed jobs (cache
    hits), 3 refine siblings of primed designs with a fresh iteration count
    and chain seed (initial mapping warm from the engine-state store), 3
    design flows of new designs, and 2 repair jobs on the provisioned 4x4
    sparse design with fresh link failures.
    """

    name = "serve_mix"
    trace_rounds = 2
    #: operations of each class per round; every primed job is hit once
    MIX = {"hit": 12, "refine": 3, "cold": 3, "repair": 2}
    PRIMED = MIX["hit"]

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(seed, work_dir)
        #: (job text, design, payload, validated mapping) per primed job
        self.primed: List[Tuple[str, object, Dict, object]] = []
        self._fresh = 0
        self._repairs = 0
        rng = _rng(seed, self.name, "failures")
        singles = [[link] for link in WALK_LINKS]
        pairs = [[a, b] for i, a in enumerate(WALK_LINKS) for b in WALK_LINKS[i + 1:]]
        self._failures = singles + pairs
        rng.shuffle(self._failures)

    @staticmethod
    def _small_designs(rng: random.Random, count: int) -> List:
        """``count`` designs, half spread and half bottleneck, 4-12 use cases."""
        sizes = _stratified(rng, 4, 13, count)
        return [
            generate_benchmark(("spread", "bottleneck")[index % 2], size,
                               seed=rng.randrange(1 << 30))
            for index, size in enumerate(sizes)
        ]

    def setup(self) -> None:
        rng = _rng(self.seed, self.name, "primed")
        self.sparse = sparse_design()
        self.sparse_source = UseCaseSource.from_value(self.sparse)
        for design in self._small_designs(rng, self.PRIMED):
            text = json.dumps(job_to_dict(DesignFlowJob(use_cases=UseCaseSource.from_value(design))))
            records, envelopes = self._submit(text)
            checked = Checked()
            envelope = self._check_envelope(checked, records, envelopes, "priming")
            result = None if envelope is None else self._mapping_of(
                checked, envelope, design, "priming")
            if checked.problems:
                raise RuntimeError(f"priming job failed: {checked.problems}")
            self.primed.append((text, design, envelope["payload"], result))

    def round_ops(self, index: int) -> List[Op]:
        rng = _rng(self.seed, self.name, index)
        mix = self.MIX
        # every primed job is hit once per round; siblings rotate over them
        ops = [Op("hit", {"primed": primed}) for primed in range(self.PRIMED)]
        for design in self._small_designs(rng, mix["cold"]):
            job = DesignFlowJob(use_cases=UseCaseSource.from_value(design))
            ops.append(Op("cold", {"text": json.dumps(job_to_dict(job)), "design": design}))
        for _ in range(mix["refine"]):
            self._fresh += 1
            design = self.primed[self._fresh % len(self.primed)][1]
            job = RefineJob(use_cases=UseCaseSource.from_value(design),
                            iterations=3 + self._fresh % 4, seed=self._fresh)
            ops.append(Op("refine", {"text": json.dumps(job_to_dict(job)), "design": design}))
        for _ in range(mix["repair"]):
            # every failure combination once; later laps add a distinct
            # small traffic change so each job stays fresh
            lap, position = divmod(self._repairs, len(self._failures))
            self._repairs += 1
            failures = {"links": [list(end) for a, b in self._failures[position]
                                  for end in ((a, b), (b, a))]}
            traffic = ()
            if lap:
                flow = min((flow.bandwidth, use_case.name, flow.source, flow.destination)
                           for use_case in self.sparse for flow in use_case.flows)
                traffic = ((flow[1], flow[2], flow[3], flow[0] * (1 + 0.01 * lap)),)
            job = RepairJob(use_cases=self.sparse_source, failures=failures,
                            provision=SPARSE_MESH, traffic=traffic)
            design = apply_traffic(self.sparse, {row[:3]: row[3] for row in traffic})[0]
            ops.append(Op("repair", {"text": json.dumps(job_to_dict(job)), "design": design}))
        rng.shuffle(ops)
        return ops

    def run(self, op: Op):
        text = self.primed[op.data["primed"]][0] if op.kind == "hit" else op.data["text"]
        return self._submit(text)

    def check(self, op: Op, raw) -> Checked:
        records, envelopes = raw
        checked = Checked()
        envelope = self._check_envelope(checked, records, envelopes, op.kind)
        if envelope is None:
            return checked
        if op.kind == "hit":
            # the payload must equal the primed one, whose mapping the
            # referee already passed during setup
            _text, _design, payload, result = self.primed[op.data["primed"]]
            if not envelope.get("cached") or envelope["payload"] != payload:
                checked.problems.append("hit: resubmitted job did not return the cached payload")
            checked.mappings.append(result)
            checked.switch_counts.append(result.switch_count)
            return checked
        if envelope.get("cached"):
            checked.problems.append(f"{op.kind}: a fresh job came back cached")
        result = self._mapping_of(checked, envelope, op.data["design"], op.kind)
        payload = envelope["payload"]
        if op.kind == "refine":
            if checked.engine.get("result_misses", 0) != 0:
                checked.problems.append("refine: sibling recomputed its initial mapping")
            if result is not None and not payload["refined_cost"] <= payload["initial_cost"]:
                checked.problems.append("refine: refined cost exceeds initial cost")
        elif op.kind == "cold" and payload.get("verification_passed") is not True:
            checked.problems.append("cold: design flow verification did not pass")
        return checked


# --------------------------------------------------------------------------- #
# monitor_events
# --------------------------------------------------------------------------- #
class MonitorEvents(_ServiceWorkload):
    """Live events through ``Monitor.poll_once`` and the serve inbox.

    The sparse 16-core design runs provisioned on a 4x4 mesh.  Every step
    of a seeded walk changes the observation: it toggles one of eight
    interior links (the number down cycles 0, 1, 2, 1, 0) or sets or
    reverts one of six small flows' bandwidth at +10-20%; half the steps
    are each.  An operation polls once (observe, diff, log, local repair,
    store ingest, enqueue) and drains the inbox; it ends when the repaired
    envelope is parsed.
    """

    name = "monitor_events"
    trace_rounds = 2
    STEPS = 20

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(seed, work_dir)
        self.clock = FakeClock()
        self._observation: Dict = {}
        self._down: List[Tuple[int, int]] = []
        self._healing = False
        self._traffic: Dict[Tuple[str, str, str], float] = {}

    def setup(self) -> None:
        self.design = sparse_design()
        flows = sorted(
            (flow.bandwidth, use_case.name, flow.source, flow.destination)
            for use_case in self.design for flow in use_case.flows
        )
        rng = _rng(self.seed, self.name, "flows")
        lower_half = flows[: len(flows) // 2]
        self.flows = [lower_half[rank][1:] + (lower_half[rank][0],)
                      for rank in _stratified(rng, 0, len(lower_half), 6)]
        self.monitor = Monitor(
            self.inbox, CallbackProbeSource(lambda now: self._observation),
            self.design, provision=SPARSE_MESH,
            store_path=self.service.runner.cache.store.directory, clock=self.clock,
        )
        # warm-up: a steady first poll computes the provisioned baseline
        if self.monitor.poll_once() is not None:
            raise RuntimeError("the initial steady observation logged an event")
        self._engine_seen = _engine_counters(self.monitor.engine.cache_info())

    def round_ops(self, index: int) -> List[Op]:
        rng = _rng(self.seed, self.name, index)
        kinds = ["link", "traffic"] * (self.STEPS // 2)
        rng.shuffle(kinds)
        ops = []
        for kind in kinds:
            if kind == "link":
                # the number of links down cycles 0, 1, 2, 1, 0, ... so every
                # run spends the same share of steps at each failure depth
                if self._healing:
                    self._down.remove(rng.choice(self._down))
                else:
                    self._down.append(rng.choice(
                        [link for link in WALK_LINKS if link not in self._down]))
                self._healing = len(self._down) == 2 or (self._healing and bool(self._down))
            else:
                name, source, destination, bandwidth = rng.choice(self.flows)
                key = (name, source, destination)
                if key in self._traffic:
                    del self._traffic[key]
                else:
                    self._traffic[key] = bandwidth * rng.uniform(1.10, 1.20)
            ops.append(Op(kind, {"observation": {
                "failures": {"links": [list(end) for a, b in sorted(self._down)
                                       for end in ((a, b), (b, a))]},
                "traffic": [list(key) + [value] for key, value in sorted(self._traffic.items())],
            }}))
        return ops

    def run(self, op: Op):
        self._observation = op.data["observation"]
        self.clock.advance(1.0)
        record = self.monitor.poll_once()
        return (record,) + self._drain()

    def check(self, op: Op, raw) -> Checked:
        record, records, envelopes = raw
        checked = Checked()
        seen = _engine_counters(self.monitor.engine.cache_info())
        local = {name: seen[name] - self._engine_seen[name] for name in seen}
        self._engine_seen = seen
        if record is None:
            checked.problems.append(f"{op.kind}: a changed observation logged nothing")
            return checked
        envelope = self._check_envelope(checked, records, envelopes, op.kind)
        checked.counters["polls"] = 1
        checked.counters["remaps"] = 1 if record["action"] == "remap" else 0
        checked.engine = {name: local[name] + checked.engine.get(name, 0) for name in local}
        if envelope is None:
            return checked
        state = self.monitor.state
        current = apply_traffic(self.design, state.traffic)[0] if state.traffic else self.design
        self._mapping_of(checked, envelope, current, op.kind)
        misses = envelope.get("stats", {}).get("engine", {}).get("evaluation_misses")
        if misses != 0:
            checked.problems.append(f"{op.kind}: serve-side repair made {misses} evaluation misses")
        if canonical_state_bytes(replay_events(self.monitor.events_path)) != \
                self.monitor.state_path.read_bytes():
            checked.problems.append(f"{op.kind}: replaying the event log does not give state.json")
        return checked


WORKLOADS = {cls.name: cls for cls in (MapCold, Refine, ServeMix, MonitorEvents)}

"""One workload in one fresh process: set up, then measure or trace.

``run.py`` starts this file once per measurement, with ``PYTHONHASHSEED``
pinned and the library on ``PYTHONPATH``; it writes one JSON document to
``--out``.  Modes:

``setup``
    set the workload up and report the set-up time only;
``measure``
    set up, then run whole rounds untraced until ``--seconds`` of operation
    time and :data:`MIN_OPS` operations are done;
``trace``
    run the first ``trace_rounds`` rounds twice, each time on a fresh
    set-up: untraced, then with every listed function wrapped; report the
    per-layer metrics and the tracing overhead between the two.

Set-up time runs from ``--spawned`` (the parent's ``time.monotonic()``
just before it started this process) to the first timed operation, so it
includes interpreter start and imports.

Every time is *reference-normalised*: the host's speed drifts by tens of
percent over seconds, so a fixed pure-Python loop (:func:`reference_s`) is
timed right before and right after each operation, and the operation's
wall time is scaled by ``REFERENCE_NOMINAL_S / (mean of the two)``.  A time
therefore reads as it would on a host running the loop in exactly
``REFERENCE_NOMINAL_S``.  Raw wall times are reported alongside.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

#: what :func:`reference_s` takes on the host the benchmark was written on
REFERENCE_NOMINAL_S = 0.003


def reference_s() -> float:
    """Wall time of a fixed pure-Python loop: the host's current speed."""
    started = time.perf_counter()
    total, table = 0, {}
    for index in range(20000):
        table[index & 255] = total
        total += index * index % 7
    return time.perf_counter() - started


#: host speed as this process started, before the library is imported
START_REFERENCE_S = statistics.median(reference_s() for _ in range(3))

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

from repro.core.repair import total_communication_cost  # noqa: E402
from repro.io.serialization import mapping_fingerprint  # noqa: E402

#: operations every measured run completes at least, so that the 90th
#: percentile has ten samples beyond it
MIN_OPS = 100
#: hard stop for the timed phase, whatever the round or op count
WALL_LIMIT_S = 110.0


def percentile(values: List[float], fraction: float) -> float:
    """Linear-interpolated percentile (``statistics.quantiles``' inclusive rule)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


class Phase:
    """The per-operation records of one timed phase, reduced to metrics."""

    def __init__(self, workload) -> None:
        self.workload = workload
        #: reference-normalised and raw seconds of each passed operation
        self.latencies: List[float] = []
        self.raw_latencies: List[float] = []
        self.failed = 0
        self.problems: List[str] = []
        self.fingerprints: List[str] = []
        self.log_costs: List[float] = []
        self.switch_counts: List[int] = []
        self.engine: Dict[str, int] = {name: 0 for name in workloads.ENGINE_COUNTERS}
        self.counters: Dict[str, float] = {}
        self.attempts_per_map: List[int] = []
        self.rounds = 0
        self.prefix_digest: Optional[str] = None

    @property
    def attempted(self) -> int:
        return len(self.latencies) + self.failed

    def run_op(self, op, tracer: Optional[Tracer] = None) -> bool:
        """Time one operation, gate it untimed, record it; True if it passed."""
        try:
            before = reference_s()
            if tracer is None:
                started = time.perf_counter()
                raw = self.workload.run(op)
                elapsed = time.perf_counter() - started
            else:
                with tracer.op(self.attempted):
                    started = time.perf_counter()
                    raw = self.workload.run(op)
                    elapsed = time.perf_counter() - started
            speed = 2 * REFERENCE_NOMINAL_S / (before + reference_s())
            checked = self.workload.check(op, raw)
        except Exception:  # noqa: BLE001 - an op that raises is a failed op
            checked = workloads.Checked(
                problems=[f"{op.kind}: raised {traceback.format_exc(limit=4)}"]
            )
        return self.record(elapsed if not checked.problems else None, checked,
                           speed if not checked.problems else 1.0)

    def record(self, elapsed: Optional[float], checked, speed: float = 1.0) -> bool:
        """Count one gated operation; ``elapsed`` is ``None`` when it failed.

        ``speed`` scales the raw ``elapsed`` to the reference host speed.
        """
        if elapsed is None or checked.problems:
            self.failed += 1
            self.problems.extend(checked.problems[:3] or ["failed without a reason"])
            return False
        self.raw_latencies.append(elapsed)
        self.latencies.append(elapsed * speed)
        for result in checked.mappings:
            self.fingerprints.append(mapping_fingerprint(result))
            self.log_costs.append(math.log(total_communication_cost(result)))
            self.attempts_per_map.append(len(result.attempted_topologies))
        self.switch_counts.extend(checked.switch_counts)
        for name, value in checked.engine.items():
            self.engine[name] += value
        for name, value in checked.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        return True

    def run_rounds(self, first_ops, keep_going, tracer: Optional[Tracer] = None,
                   smoke: bool = False) -> None:
        """Run whole rounds (round 0's ops given) while ``keep_going(self)``."""
        ops = first_ops
        while True:
            for op in (_one_per_kind(ops) if smoke else ops):
                self.run_op(op, tracer)
            self.rounds += 1
            if self.rounds == self.workload.trace_rounds:
                self.prefix_digest = self.digest()
            if not keep_going(self):
                return
            ops = self.workload.round_ops(self.rounds)

    def digest(self) -> str:
        """sha256 over every emitted mapping's fingerprint, in op order."""
        return hashlib.sha256("\n".join(self.fingerprints).encode()).hexdigest()

    @property
    def speed(self) -> float:
        """Total reference-normalised over total raw operation time."""
        raw = sum(self.raw_latencies)
        return sum(self.latencies) / raw if raw else 1.0

    def end_to_end(self) -> Dict[str, float]:
        busy = sum(self.latencies)
        return {
            "ops_per_s": len(self.latencies) / busy if busy else 0.0,
            "latency_p50_ms": percentile(self.latencies, 0.5) * 1e3,
            "latency_p90_ms": percentile(self.latencies, 0.9) * 1e3,
            "error_rate": self.failed / self.attempted if self.attempted else 0.0,
            "mapping_cost": math.exp(statistics.fmean(self.log_costs)) if self.log_costs else 0.0,
            "switch_count": statistics.fmean(self.switch_counts) if self.switch_counts else 0.0,
        }

    def raw(self) -> Dict[str, float]:
        """Un-normalised wall-time figures, for the report."""
        busy = sum(self.raw_latencies)
        return {
            "ops_per_s": len(self.raw_latencies) / busy if busy else 0.0,
            "latency_p50_ms": percentile(self.raw_latencies, 0.5) * 1e3,
            "latency_p90_ms": percentile(self.raw_latencies, 0.9) * 1e3,
            "speed": self.speed,
        }


def _one_per_kind(ops):
    """The smoke subset: the first op of every operation class."""
    seen, picked = set(), []
    for op in ops:
        kind = op.kind.split(":")[0]
        if kind not in seen:
            seen.add(kind)
            picked.append(op)
    return picked


def provenance(seed: int) -> Dict:
    root = Path(__file__).resolve().parent.parent
    commit = ""
    # only a checkout's own repository: git would otherwise search parents
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10,
                cwd=root,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "seed": seed,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_commit": commit or "unknown",
        "hash_seed": os.environ.get("PYTHONHASHSEED", "random"),
    }


def set_up(args, work_dir: Path):
    """Build and set up the workload and generate round 0.

    Returns ``(workload, round-0 ops, set-up seconds since spawn, raw
    seconds)``; the first is normalised by the reference loop's mean of
    process start and set-up end.
    """
    workload = workloads.WORKLOADS[args.workload](args.seed, work_dir)
    workload.setup()
    ops = workload.round_ops(0)
    raw = time.monotonic() - args.spawned
    reference = (START_REFERENCE_S + statistics.median(reference_s() for _ in range(3))) / 2
    return workload, ops, raw * REFERENCE_NOMINAL_S / reference, raw


def measure(args) -> Dict:
    workload, ops, setup_s, raw_setup_s = set_up(args, args.work_dir)
    phase = Phase(workload)
    started = time.monotonic()
    disk_before = workload.disk_bytes()

    def keep_going(current: Phase) -> bool:
        if args.smoke or time.monotonic() - started >= WALL_LIMIT_S:
            return False
        return sum(current.latencies) < args.seconds or current.attempted < MIN_OPS

    phase.run_rounds(ops, keep_going, smoke=args.smoke)
    metrics = phase.end_to_end()
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if disk_before is not None:
        metrics["disk_kb_per_op"] = (
            (workload.disk_bytes() - disk_before) / 1024 / max(1, phase.attempted)
        )
    raw = phase.raw()
    raw["setup_s"] = raw_setup_s
    return {
        "attempted": phase.attempted,
        "failed": phase.failed,
        "problems": phase.problems[:20],
        "rounds": phase.rounds,
        "metrics": metrics,
        "raw": raw,
        "digest": phase.digest(),
        "prefix_digest": phase.prefix_digest,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def derived_metrics(tracer: Tracer, phase: Phase, cache_counts) -> Dict[str, float]:
    """The per-layer ratios, from engine counters, the job cache and spans."""
    engine, counters = phase.engine, phase.counters
    _screens, screened = tracer.batch_items(
        "optimize.screen.CandidateScreen.screen", "optimize.tabu.TabuRefiner.refine")
    costed, _ = tracer.batch_items(
        "optimize.screen.CandidateScreen.cost", "optimize.tabu.TabuRefiner.refine")
    hits, misses = cache_counts
    ops = max(1, len(phase.latencies))
    return {
        "core.engine.result_hit_ratio": _ratio(
            engine["result_hits"], engine["result_hits"] + engine["result_misses"]),
        "core.engine.evaluation_hit_ratio": _ratio(
            engine["evaluation_hits"], engine["evaluation_hits"] + engine["evaluation_misses"]),
        "core.engine.imported_evaluations": engine["imported_evaluations"] / ops,
        "core.mapping.topology_attempts_per_map": (
            statistics.fmean(phase.attempts_per_map) if phase.attempts_per_map else 0.0),
        "optimize.screen.screen_hit_ratio": _ratio(
            engine["screen_hits"], engine["screen_hits"] + engine["screen_misses"]),
        "optimize.screen.pruned_ratio": 1.0 - _ratio(costed, screened) if screened else 0.0,
        "jobs.cache.hit_ratio": _ratio(hits, hits + misses),
        "jobs.cache.put_kb": _ratio(counters.get("put_bytes", 0) / 1024, counters.get("puts", 0)),
        "jobs.service.attempts_per_file": _ratio(
            counters.get("attempts", 0), counters.get("files", 0)),
        "ops.monitor.remap_ratio": _ratio(counters.get("remaps", 0), counters.get("polls", 0)),
    }


def trace(args) -> Dict:
    rounds = 1 if args.smoke else workloads.WORKLOADS[args.workload].trace_rounds
    tracer = Tracer()
    tracer.calibrate()
    phases, cache_counts = {}, {}
    for mode in ("untraced", "traced"):
        workload, ops = set_up(args, args.work_dir / mode)[:2]
        phase = Phase(workload)
        before = workload.cache_counts()
        if mode == "traced":
            tracer.install()
        try:
            phase.run_rounds(ops, lambda current: current.rounds < rounds,
                             tracer=tracer if mode == "traced" else None, smoke=args.smoke)
        finally:
            tracer.uninstall()
        after = workload.cache_counts()
        cache_counts[mode] = (after[0] - before[0], after[1] - before[1])
        phases[mode] = phase
    untraced, traced = phases["untraced"], phases["traced"]
    problems = untraced.problems + traced.problems
    if untraced.digest() != traced.digest():
        problems.append("tracing changed the emitted mappings (fingerprint digests differ)")
    leftovers = Tracer.leftovers()
    if leftovers:
        problems.append(f"wrappers left installed at {leftovers[:5]}")

    per_layer: Dict[str, float] = {}
    for name, (calls, self_s) in tracer.summary().items():
        per_layer[f"{name}.calls"] = calls
        per_layer[f"{name}.self_s"] = self_s * traced.speed
    per_layer.update(derived_metrics(tracer, traced, cache_counts["traced"]))
    plain, wrapped = untraced.end_to_end(), traced.end_to_end()
    per_layer["trace.overhead.ops_per_s"] = wrapped["ops_per_s"] - plain["ops_per_s"]
    per_layer["trace.overhead.latency_p50_ms"] = (
        wrapped["latency_p50_ms"] - plain["latency_p50_ms"])
    per_layer["trace.child_cost_us"] = tracer.child_cost_s * 1e6 * traced.speed
    return {
        "attempted": untraced.attempted + traced.attempted,
        "failed": untraced.failed + traced.failed,
        "problems": problems[:20],
        "rounds": traced.rounds,
        "per_layer": per_layer,
        "untraced": plain,
        "traced": wrapped,
        "raw": {"untraced": untraced.raw(), "traced": traced.raw()},
        "spans": len(tracer.span_start),
        "digest": traced.digest(),
        "prefix_digest": traced.prefix_digest,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    args.work_dir.mkdir(parents=True, exist_ok=True)
    if args.mode == "setup":
        _workload, _ops, setup_s, raw_setup_s = set_up(args, args.work_dir)
        document = {"setup_s": setup_s, "raw_setup_s": raw_setup_s}
    elif args.mode == "measure":
        document = measure(args)
    else:
        document = trace(args)
    document.update({"workload": args.workload, "mode": args.mode,
                     "provenance": provenance(args.seed)})
    args.out.write_text(json.dumps(document, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload map_cold --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload refine --seed 1 --trace 1
    python3 perfbench/run.py --seed 1              # every workload in turn

Each workload runs in fresh processes (``perfbench/worker.py``) with
``PYTHONHASHSEED`` pinned, one thread, and the library from ``src/`` on
``PYTHONPATH``.  ``--trace 0`` measures the end-to-end metrics: one process
sets up and runs the timed phase, two more only set up, and ``setup_s`` is
the median of the three set-ups.  ``--trace 1`` runs the traced process,
which prints the per-layer metrics and the tracing overhead.

The report goes to standard output; its last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record,
with provenance, is kept in ``.bench_out/``.  The command exits 1 when any
operation failed its correctness gate or a worker did not finish, and 2
when the library is not there to measure.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from tracing import TRACED_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("map_cold", "refine", "serve_mix", "monitor_events")
#: the pinned hash seed of every worker process
HASH_SEED = "0"
#: set-up-only processes per measured run (plus the measuring one)
SETUP_PROBES = 2
#: a whole run, all its processes included, ends within this many seconds
DEADLINE_S = 170.0

END_TO_END = {
    "ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "mapping_cost": "B/s.hop",
    "switch_count": "switches",
}
#: printed in the report where they apply, not part of the JSON line
REPORTED = {"error_rate": "fraction", "disk_kb_per_op": "KiB/op"}


def _per_layer_units() -> Dict[str, str]:
    units: Dict[str, str] = {}
    for name in TRACED_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({
        "core.engine.result_hit_ratio": "ratio",
        "core.engine.evaluation_hit_ratio": "ratio",
        "core.engine.imported_evaluations": "count/op",
        "core.mapping.topology_attempts_per_map": "attempts/map",
        "optimize.screen.screen_hit_ratio": "ratio",
        "optimize.screen.pruned_ratio": "ratio",
        "jobs.cache.hit_ratio": "ratio",
        "jobs.cache.put_kb": "KiB",
        "jobs.service.attempts_per_file": "attempts/file",
        "ops.monitor.remap_ratio": "ratio",
        "trace.overhead.ops_per_s": "ops/s",
        "trace.overhead.latency_p50_ms": "ms",
        "trace.child_cost_us": "us",
    })
    return units


PER_LAYER = _per_layer_units()


class WorkerFailed(RuntimeError):
    """A worker process crashed, timed out or wrote no result."""


def spawn(workload: str, seed: int, mode: str, seconds: float, smoke: bool,
          work_dir: Path, deadline: float) -> Dict:
    """Run one worker process to completion and return its JSON document."""
    out = work_dir / f"{mode}-{time.monotonic_ns()}.json"
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED, PYTHONPATH=str(ROOT / "src"),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    command = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--mode", mode, "--seconds", str(seconds),
               "--work-dir", str(work_dir / mode),
               "--out", str(out)]
    if smoke:
        command.append("--smoke")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerFailed(f"{workload}/{mode}: no time left before the deadline")
    try:
        completed = subprocess.run(
            command + ["--spawned", repr(time.monotonic())], env=env, cwd=ROOT,
            stdout=subprocess.DEVNULL, timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{workload}/{mode}: killed at the {DEADLINE_S:.0f} s deadline") from None
    if completed.returncode != 0 or not out.exists():
        raise WorkerFailed(f"{workload}/{mode}: worker exited with {completed.returncode}")
    return json.loads(out.read_text())


def run_workload(workload: str, seed: int, seconds: float, traced: bool, smoke: bool,
                 deadline: float) -> Dict:
    """Measure (or trace) one workload; returns the combined record."""
    work_dir = OUT / "work" / f"{workload}-{seed}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        if traced:
            return spawn(workload, seed, "trace", seconds, smoke, work_dir, deadline)
        record = spawn(workload, seed, "measure", seconds, smoke, work_dir, deadline)
        setups = [record["metrics"]["setup_s"]]
        for _ in range(0 if smoke else SETUP_PROBES):
            setups.append(spawn(workload, seed, "setup", seconds, smoke, work_dir,
                                deadline)["setup_s"])
        record["metrics"]["setup_s"] = statistics.median(setups)
        record["setup_samples"] = setups
        return record
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def report(record: Dict, traced: bool) -> List[str]:
    """Human-readable lines of one workload's record."""
    samples = record["attempted"] - record["failed"]
    lines = [f"== {record['workload']}  seed {record['provenance']['seed']}  "
             f"{'traced' if traced else 'untraced'}  ops {samples}/{record['attempted']} "
             f"completed/attempted  rounds {record['rounds']}"]
    if traced:
        for name, unit in PER_LAYER.items():
            lines.append(f"  {name:<58} {record['per_layer'][name]:>14.6g} {unit}")
        for side in ("untraced", "traced"):
            values, raw = record[side], record["raw"][side]
            lines.append(f"  {side:<9} ops_per_s {values['ops_per_s']:.4g}  "
                         f"latency_p50_ms {values['latency_p50_ms']:.4g}  (raw wall: "
                         f"{raw['ops_per_s']:.4g} ops/s, {raw['latency_p50_ms']:.4g} ms)")
        lines.append(f"  spans recorded {record['spans']}")
    else:
        units = dict(END_TO_END, **REPORTED)
        for name, value in record["metrics"].items():
            count = len(record["setup_samples"]) if name == "setup_s" else samples
            lines.append(f"  {name:<16} {value:>14.6g} {units[name]:<9} n={count}")
        raw = record["raw"]
        lines.append(f"  raw wall times: ops_per_s {raw['ops_per_s']:.4g}  latency_p50_ms "
                     f"{raw['latency_p50_ms']:.4g}  latency_p90_ms {raw['latency_p90_ms']:.4g}  "
                     f"setup_s {raw['setup_s']:.4g}  (normalised/raw time {raw['speed']:.3f})")
    lines.append(f"  fingerprint digest {record['digest'][:16]}  "
                 f"trace-length prefix {str(record['prefix_digest'])[:16]}")
    lines.append("  " + "  ".join(f"{key}={value}" for key, value in record["provenance"].items()))
    for problem in record["problems"]:
        lines.append(f"  FAILED: {problem}")
    return lines


def result_line(records: List[Dict], traced: bool, prefix: bool) -> Dict:
    """The final JSON object over one or more workload records."""
    metrics: Dict[str, Dict] = {}
    for record in records:
        label = f"{record['workload']}." if prefix else ""
        if traced:
            values, units = record["per_layer"], PER_LAYER
        else:
            values, units = record["metrics"], END_TO_END
        for name, unit in units.items():
            metrics[label + name] = {"value": values[name], "unit": unit}
    return {
        "correct": all(record["failed"] == 0 and not record["problems"] for record in records),
        "attempted": sum(record["attempted"] for record in records),
        "failed": sum(record["failed"] for record in records),
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="operation time each measured run covers (at least "
                             "100 operations are run regardless)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one operation of each class, no set-up repeats (tests)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no library to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        deadline = time.monotonic() + DEADLINE_S
        try:
            record = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                  args.smoke, deadline)
        except WorkerFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        OUT.mkdir(exist_ok=True)
        (OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1, sort_keys=True))
        print("\n".join(report(record, bool(args.trace))), flush=True)
        records.append(record)
    line = result_line(records, bool(args.trace), prefix=len(records) > 1)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

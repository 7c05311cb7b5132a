"""The benchmark's own tests (smoke mode, tracer restore, gate, config).

Run from the repository root with ``python3 -m pytest perfbench/checks.py``.
The file name keeps them out of the tier-1 suite's default collection: the
smoke runs start worker processes and take about a minute and a half.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from tracing import TRACED_NAMES, Tracer  # noqa: E402

#: listed functions each workload's smoke subset must call at least once
EXERCISES = {
    "map_cold": (
        "noc.routing.mesh_minimal_paths", "noc.routing.PathSelector.select_least_cost",
        "noc.resources.ResourceState.copy", "noc.resources.ResourceState.can_reserve",
        "noc.resources.ResourceState.reserve", "core.spec.compile_spec",
        "core.engine.MappingEngine.map", "core.mapping.UnifiedMapper.map_requirements",
        "core.mapping.UnifiedMapper.map_with_placement",
    ),
    "refine": (
        "core.spec.compile_spec", "core.engine.MappingEngine.evaluate_placement",
        "optimize.annealing.AnnealingRefiner.refine", "optimize.tabu.TabuRefiner.refine",
        "optimize.screen.CandidateScreen.screen", "optimize.screen.CandidateScreen.cost",
    ),
    "serve_mix": (
        "core.engine.MappingEngine.map", "core.repair.repair_mapping",
        "core.design_flow.DesignFlow.run", "optimize.annealing.AnnealingRefiner.refine",
        "perf.verification.verify_mapping", "io.serialization.mapping_result_to_dict",
        "io.serialization.use_case_set_from_dict", "io.serialization.mapping_fingerprint",
        "jobs.spec.job_hash", "jobs.spec.load_jobs", "jobs.spec.UseCaseSource.build",
        "jobs.runner.execute_job", "jobs.runner.JobResult.to_dict",
        "jobs.runner.JobResult.from_dict", "jobs.cache.JobCache.get", "jobs.cache.JobCache.put",
        "jobs.cache.JobCache.sync_store", "jobs.store.EngineStateStore.get_result",
        "jobs.store.EngineStateStore.ingest", "jobs.service.JobDirectoryService.process_file",
    ),
    "monitor_events": (
        "core.repair.repair_mapping", "core.mapping.UnifiedMapper.evaluate_group_fixed",
        "jobs.store.EngineStateStore.load_evaluations", "jobs.store.EngineStateStore.ingest",
        "jobs.service.JobDirectoryService.process_file", "ops.monitor.Monitor.poll_once",
        "ops.events.EventLog.append", "ops.events.apply_traffic",
    ),
}


def _run(*arguments, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *arguments], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def smoke_runs():
    """One untraced and one traced smoke run of every workload."""
    runs = {}
    for traced in ("0", "1"):
        completed = _run("--seed", "7", "--smoke", "--trace", traced)
        assert completed.returncode == 0, completed.stderr
        runs[traced] = completed.stdout
    return runs


def test_every_end_to_end_metric_prints_with_its_unit(smoke_runs):
    lines = smoke_runs["0"].strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for name in run.WORKLOADS:
        for metric, unit in run.END_TO_END.items():
            entry = result["metrics"][f"{name}.{metric}"]
            assert entry["unit"] == unit and entry["value"] > 0
    report = "\n".join(lines[:-1])
    for metric, unit in run.END_TO_END.items():
        assert report.count(f"{metric} ") >= len(run.WORKLOADS)
        assert f" {unit} " in report


def test_traced_run_counts_every_exercised_function(smoke_runs):
    result = json.loads(smoke_runs["1"].strip().splitlines()[-1])
    assert result["correct"]
    for name, functions in EXERCISES.items():
        for function in functions:
            assert result["metrics"][f"{name}.{function}.calls"]["value"] > 0, (name, function)
    for name in run.WORKLOADS:
        # the gate's own validate_mapping calls run outside spans
        assert result["metrics"][f"{name}.core.validate.validate_mapping.calls"]["value"] == 0
        assert f"{name}.trace.overhead.ops_per_s" in result["metrics"]


def test_same_seed_gives_the_same_fingerprint_digest():
    digests = []
    for _ in range(2):
        completed = _run("--workload", "refine", "--seed", "3", "--smoke")
        assert completed.returncode == 0, completed.stderr
        record = json.loads((ROOT / ".bench_out" / "refine-seed3-trace0.json").read_text())
        digests.append(record["digest"])
    assert digests[0] == digests[1]


def test_tracer_restores_every_original():
    import repro.jobs.runner
    import repro.jobs.spec
    import repro.noc.resources
    import repro.ops.monitor

    originals = (
        repro.jobs.spec.job_hash, repro.jobs.runner.job_hash, repro.ops.monitor.job_hash,
        repro.noc.resources.ResourceState.__dict__["copy"],
    )
    tracer = Tracer()
    tracer.install()
    try:
        assert repro.ops.monitor.job_hash is not originals[2]
        assert len(tracer.leftovers()) >= len(TRACED_NAMES)
    finally:
        tracer.uninstall()
    assert (
        repro.jobs.spec.job_hash, repro.jobs.runner.job_hash, repro.ops.monitor.job_hash,
        repro.noc.resources.ResourceState.__dict__["copy"],
    ) == originals
    assert tracer.leftovers() == []


def test_corrupted_mapping_counts_as_a_failed_op(tmp_path):
    workload = workloads.MapCold(seed=1, work_dir=tmp_path)
    op = next(op for op in workload.round_ops(0) if op.kind == "paper")
    honest_run = workload.run

    def corrupted(op):
        engine, result = honest_run(op)
        core = next(iter(result.core_mapping))
        result.core_mapping[core] = result.topology.switch_count + 5
        return engine, result

    phase = worker.Phase(workload)
    assert phase.run_op(op)
    workload.run = corrupted
    assert not phase.run_op(op)
    assert (phase.attempted, phase.failed) == (2, 1)
    assert "validation issue" in phase.problems[0]


def test_benchmark_json_matches_the_command():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [entry["name"] for entry in config["workloads"]] == list(run.WORKLOADS)
    assert {entry["name"]: entry["unit"] for entry in config["end_to_end"]} == run.END_TO_END
    assert {entry["name"]: entry["unit"] for entry in config["per_layer"]} == run.PER_LAYER
    assert all(entry["bound"] <= 0.25 for entry in config["end_to_end"])


def test_without_the_library_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    completed = _run("--workload", "map_cold", "--seed", "1", "--seconds", "8",
                     "--trace", "0", cwd=tmp_path)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout

"""GapJob execution, caching and the `repro gap` CLI.

Pins the gap machinery's operational contracts: the golden job hash (cache
keys must never drift), warm-cache re-runs performing *zero* exact-solver
searches, byte-identical ``gap_report.json`` across runs, the exact-vs-
itself smoke (``backend="ilp"`` heuristic == exact, gap 0), and the
one-line ``error:`` CLI diagnostics beside the other commands'.
"""

from __future__ import annotations

import json

import pytest

from repro import MapperConfig, generate_benchmark
from repro.io.serialization import save_use_case_set
from repro.jobs import GapJob, JobRunner, UseCaseSource, job_hash
from repro.jobs.cli import main as cli_main
from repro.optimize.ilp import solver_invocations

#: golden content hash of one canonical gap job — fails if the hashing
#: scheme or the GapJob document shape drifts, which would invalidate
#: every persisted gap cache entry
SPREAD10_GAP_JOB_HASH = (
    "fae99a924cf4ba8f27ef6b88c6701285961b33c482c308443304d4281872e3eb"
)

TINY_RECIPE = {
    "kind": "spread", "use_case_count": 3, "core_count": 6,
    "seed": 11, "flows_per_use_case": [8, 16],
}


def tiny_gap_job(**overrides) -> GapJob:
    defaults = dict(
        use_cases=UseCaseSource(generator=dict(TINY_RECIPE)),
        solver="native",
        refine_iterations=40,
    )
    defaults.update(overrides)
    return GapJob(**defaults)


def test_gap_job_hash_scheme_is_pinned():
    job = GapJob(
        use_cases=UseCaseSource(
            generator={"kind": "spread", "use_case_count": 10, "seed": 3}
        ),
        solver="native",
    )
    assert job_hash(job) == SPREAD10_GAP_JOB_HASH


def test_gap_payload_shape():
    result = JobRunner().run(tiny_gap_job())
    payload = result.payload
    assert payload["mapped"] is True
    gap = payload["gap"]
    assert gap["solver"] == "native"
    assert gap["validated"] is True
    exact = gap["exact"]
    assert set(exact) == {"cost", "switch_count", "topology", "fingerprint"}
    heuristic = gap["heuristic"]
    assert heuristic["cost"] >= exact["cost"]
    assert heuristic["gap_absolute"] == round(
        heuristic["cost"] - exact["cost"], 6
    )
    refined = gap["refined"]
    assert refined["cost"] <= heuristic["cost"]
    # the payload's mapping/summary block is the exact result's
    assert payload["summary"]["switch_count"] == exact["switch_count"]


def test_warm_cache_rerun_performs_zero_solver_searches(tmp_path):
    job = tiny_gap_job()
    cache_dir = tmp_path / "cache"
    cold = JobRunner(cache_dir=cache_dir).run(job)
    assert not cold.cached
    before = solver_invocations()
    warm = JobRunner(cache_dir=cache_dir).run(job)
    assert warm.cached
    assert solver_invocations() == before, (
        "a cached gap job must not re-invoke the exact solver"
    )
    assert warm.payload == cold.payload


def test_exact_vs_itself_gap_is_zero():
    """With backend="ilp" the "heuristic" leg IS the exact backend."""
    job = tiny_gap_job(config=MapperConfig(backend="ilp"), refine_iterations=0)
    payload = JobRunner().run(job).payload
    gap = payload["gap"]
    assert gap["heuristic"]["cost"] == gap["exact"]["cost"]
    assert gap["heuristic"]["gap_absolute"] == 0.0
    assert gap["heuristic"]["gap_relative"] == 0.0


def test_gap_payload_is_deterministic_across_processes_worth_of_runs():
    first = JobRunner().run(tiny_gap_job()).payload
    second = JobRunner().run(tiny_gap_job()).payload
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


# --------------------------------------------------------------------------- #
# the CLI
# --------------------------------------------------------------------------- #
GAP_ARGV = ["gap", "--spread", "3", "--core-count", "6", "--flows", "8,16",
            "--design-seed", "11", "--solver", "native",
            "--refine-iterations", "40"]


def test_cli_gap_reports_are_byte_identical_across_runs(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    for run_dir in ("r1", "r2"):
        assert cli_main(GAP_ARGV + ["--cache-dir", cache,
                                    "--report-dir", str(tmp_path / run_dir)]) == 0
    capsys.readouterr()
    first = (tmp_path / "r1" / "gap_report.json").read_bytes()
    second = (tmp_path / "r2" / "gap_report.json").read_bytes()
    assert first == second
    assert (tmp_path / "r1" / "gap_report.md").read_bytes() == (
        tmp_path / "r2" / "gap_report.md"
    ).read_bytes()
    document = json.loads(first)
    assert document["schema"] == "repro/gap-report@1"
    (cell,) = document["cells"]
    assert cell["design"].startswith("spread-3")
    assert cell["gap"]["validated"] is True
    digest = (tmp_path / "r1" / "gap_report.md").read_text()
    assert digest.splitlines()[0] == "# Optimality gap report"
    assert "native" in digest


def test_cli_gap_runs_on_a_design_file(tmp_path, capsys):
    design = save_use_case_set(
        generate_benchmark("spread", 3, core_count=6, seed=11,
                           flows_per_use_case=(8, 16)),
        tmp_path / "design.json",
    )
    assert cli_main(["gap", str(design), "--solver", "native"]) == 0
    out = capsys.readouterr().out
    assert "exact (native):" in out
    assert "heuristic:" in out


@pytest.mark.parametrize("argv,needle", [
    (["gap"], "DESIGN.json file or --spread"),
    (["gap", "x.json", "--spread", "3"], "not both"),
    (["gap", "--spread", "3", "--flows", "nope"], "--flows expects MIN,MAX"),
])
def test_cli_gap_error_paths_are_one_line(argv, needle, capsys):
    assert cli_main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert needle in captured.err
    assert len(captured.err.strip().splitlines()) == 1


def test_cli_gap_infeasible_spec_is_a_one_line_error(tmp_path, capsys):
    design = save_use_case_set(
        generate_benchmark("spread", 3, core_count=6, seed=11,
                           flows_per_use_case=(8, 16)),
        tmp_path / "design.json",
    )
    # a one-node search budget: every topology's exact search aborts, so
    # no feasible assignment is ever found
    assert cli_main(["gap", str(design), "--solver", "native",
                     "--node-limit", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert len(captured.err.strip().splitlines()) == 1

"""Campaign execution: fan the matrix out, settle cells, reduce, resume.

The :class:`CampaignRunner` owns one *campaign directory* and drives a
:class:`~repro.campaign.spec.CampaignSpec` to a ranked report through the
existing job fabric::

    OUT/cells/<job_hash>.json   one settled record per completed cell
    OUT/cache/                  the JobRunner's JobCache + EngineStateStore
                                (unless an external cache_dir is given)
    OUT/report.json             deterministic ranked report (byte-stable)
    OUT/report.md               markdown digest (wall-clock included)
    OUT/trajectory.jsonl        append-only history, one line per run

Resumability is content-addressed twice over.  A cell's record file is
named by its :func:`~repro.jobs.spec.job_hash`, so a re-run (after a crash,
a ``--max-cells`` slice, or a farm drain) loads settled cells from disk and
executes **zero** of them again; and the cells that do execute run through
the :class:`~repro.jobs.runner.JobRunner` with a persistent cache, so even
a cell whose *record* was lost is answered from the job cache without
recomputing.  Records are written cell by cell, immediately after each
batch settles — a crash loses at most the batch in flight.

Farm execution splits the same flow in two: :meth:`submit` drops every
unsettled cell's job spec into a ``repro serve`` inbox (one file per cell,
named after the campaign and cell hashes), and :meth:`collect` folds the
service's result envelopes back into cell records.  ``run`` afterwards
executes whatever the farm has not answered and reduces as usual.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.campaign.report import (
    append_trajectory,
    build_report,
    cell_outcome,
    dump_report,
    render_digest,
)
from repro.campaign.spec import CampaignCell, CampaignSpec, campaign_hash
from repro.exceptions import ReproError
from repro.io.serialization import atomic_write
from repro.jobs.runner import JobRunner
from repro.jobs.spec import job_hash, job_to_dict, save_job

__all__ = ["CampaignRunner"]


class CampaignRunner:
    """Executes campaigns against one campaign directory, resumably.

    Parameters
    ----------
    out_dir:
        The campaign directory (created if missing).  Everything the run
        produces — cell records, the default cache, the report artifacts,
        the trajectory — lives under it.
    workers:
        Process-pool width for cell execution; cells are independent jobs,
        so batches of up to ``workers`` cells run concurrently.
    cache_dir:
        Result cache handed to the :class:`JobRunner`; defaults to
        ``out_dir / "cache"``.  Sharing one cache directory across
        campaigns lets overlapping matrices answer each other's cells, and
        executions warm-start from its engine-state store (campaigns are
        exactly the sibling-heavy traffic the store exists for).
    trajectory_path:
        Where the per-run history line is appended; defaults to
        ``out_dir / "trajectory.jsonl"``.  Point several campaigns at one
        file to maintain a single tracked trajectory.
    """

    def __init__(
        self,
        out_dir: Union[str, Path],
        workers: int = 1,
        cache_dir: Union[str, Path, None] = None,
        trajectory_path: Union[str, Path, None] = None,
    ) -> None:
        self.out_dir = Path(out_dir)
        self.cells_dir = self.out_dir / "cells"
        self.cells_dir.mkdir(parents=True, exist_ok=True)
        self.cache_dir = Path(cache_dir) if cache_dir else self.out_dir / "cache"
        self.workers = max(1, int(workers))
        self.trajectory_path = (
            Path(trajectory_path) if trajectory_path
            else self.out_dir / "trajectory.jsonl"
        )
        self.report_path = self.out_dir / "report.json"
        self.digest_path = self.out_dir / "report.md"

    # ------------------------------------------------------------------ #
    # cell settlement
    # ------------------------------------------------------------------ #
    def _record_path(self, spec_hash: str) -> Path:
        return self.cells_dir / f"{spec_hash}.json"

    def _load_record(self, spec_hash: str) -> Optional[Dict]:
        try:
            record = json.loads(self._record_path(spec_hash).read_text())
        except (OSError, json.JSONDecodeError):
            return None
        return record if isinstance(record, dict) else None

    def _settle(self, cell: CampaignCell, spec_hash: str, result) -> Dict:
        """Write one cell's settled record (atomic publish via temp+rename)."""
        record = {
            "cell_id": cell.cell_id,
            "workload": cell.workload,
            "method": cell.method,
            "parameter_set": cell.parameter_set,
            "seed": cell.seed,
            "kind": cell.job.KIND,
            "job_hash": spec_hash,
            "outcome": cell_outcome(cell.job.KIND, result.payload),
            # volatile diagnostics (digest/trajectory only, never report.json)
            "elapsed_s": round(result.elapsed_s, 6),
            "cached": bool(result.cached),
        }
        atomic_write(
            self._record_path(spec_hash), json.dumps(record, indent=2, sort_keys=True)
        )
        return record

    def _expanded(self, spec: CampaignSpec) -> List[Tuple[CampaignCell, str]]:
        cells = spec.expand()
        return [(cell, job_hash(cell.job)) for cell in cells]

    # ------------------------------------------------------------------ #
    # local execution
    # ------------------------------------------------------------------ #
    def run(
        self,
        spec: CampaignSpec,
        max_cells: Optional[int] = None,
    ) -> Dict:
        """Execute (or resume) a campaign and reduce it into the report.

        ``max_cells`` bounds the number of cells *executed* this call (the
        smoke/CI knob); settled cells never count against it.  Returns a
        summary dictionary with the executed/resumed split and the report
        paths; ``report.json`` is only written when every cell is settled,
        so a partial run never publishes a partial report as final.
        """
        work = self._expanded(spec)
        chash = campaign_hash(spec)
        records: Dict[str, Dict] = {}
        pending: List[Tuple[CampaignCell, str]] = []
        for cell, spec_hash in work:
            record = self._load_record(spec_hash)
            if record is not None:
                records[spec_hash] = record
            else:
                pending.append((cell, spec_hash))

        resumed = len(records)
        budget = len(pending) if max_cells is None else min(max_cells, len(pending))
        executed = 0
        runner = JobRunner(workers=self.workers, cache_dir=self.cache_dir)
        # Batches of `workers` cells: wide enough to use the pool, narrow
        # enough that a crash between batches loses almost nothing.
        while executed < budget:
            batch = pending[executed:min(budget, executed + self.workers)]
            results = runner.run_many([cell.job for cell, _ in batch])
            for (cell, spec_hash), result in zip(batch, results):
                records[spec_hash] = self._settle(cell, spec_hash, result)
            executed += len(batch)

        summary = {
            "campaign": spec.name,
            "campaign_hash": chash,
            "cells": len(work),
            "executed": executed,
            "resumed": resumed,
            "pending": len(work) - len(records),
            "out_dir": str(self.out_dir),
        }
        if not summary["pending"]:
            summary.update(self.reduce(spec, executed=executed, resumed=resumed))
        return summary

    # ------------------------------------------------------------------ #
    # reduction
    # ------------------------------------------------------------------ #
    def reduce(
        self,
        spec: CampaignSpec,
        executed: int = 0,
        resumed: int = 0,
        write_trajectory: bool = True,
    ) -> Dict:
        """Build and publish the report artifacts from the settled records.

        Tolerates missing cells (they are listed in the report's
        ``missing_cells``), so ``campaign report`` can render progress
        while a farm is still executing; the trajectory line is only
        appended for complete campaigns — history should track finished
        runs, not partial drains.
        """
        work = self._expanded(spec)
        records, missing = [], []
        for cell, spec_hash in work:
            record = self._load_record(spec_hash)
            if record is None:
                missing.append(cell.cell_id)
            else:
                records.append(record)
        header = {
            "name": spec.name,
            "hash": campaign_hash(spec),
            "workloads": [workload.label for workload in spec.workloads],
            "methods": [method.label for method in spec.methods],
            "parameter_sets": [pset.label for pset in spec.parameter_sets],
            "seeds": list(spec.seeds),
        }
        report = build_report(header, records, missing)
        self.report_path.write_text(dump_report(report))
        self.digest_path.write_text(render_digest(report, records))
        outcome = {
            "report": str(self.report_path),
            "digest": str(self.digest_path),
            "missing": len(missing),
        }
        if write_trajectory and not missing:
            entry = append_trajectory(
                self.trajectory_path, report, records, executed, resumed
            )
            outcome["trajectory"] = str(self.trajectory_path)
            outcome["trajectory_entry"] = entry
        return outcome

    # ------------------------------------------------------------------ #
    # status
    # ------------------------------------------------------------------ #
    def status(self, spec: CampaignSpec) -> Dict:
        """Read-only progress view: which cells are settled, which are not."""
        work = self._expanded(spec)
        done, pending = [], []
        for cell, spec_hash in work:
            (done if self._load_record(spec_hash) is not None else pending).append(
                cell.cell_id
            )
        by_method: Dict[str, Dict[str, int]] = {}
        for cell, spec_hash in work:
            slot = by_method.setdefault(cell.method, {"done": 0, "pending": 0})
            slot["done" if self._load_record(spec_hash) is not None else "pending"] += 1
        return {
            "campaign": spec.name,
            "campaign_hash": campaign_hash(spec),
            "cells": len(work),
            "done": len(done),
            "pending": len(pending),
            "pending_cells": pending,
            "by_method": by_method,
            "report_written": self.report_path.exists(),
        }

    # ------------------------------------------------------------------ #
    # farm integration (repro serve)
    # ------------------------------------------------------------------ #
    def submit(self, spec: CampaignSpec, inbox: Union[str, Path]) -> List[Path]:
        """Drop every unsettled cell's job spec into a service inbox.

        One file per cell, named ``campaign-<chash8>-<index>-<jhash8>.json``
        so a drained inbox remains traceable back to its campaign, and
        resubmitting an unchanged campaign re-creates files a previous
        submit already named (the service's cache answers those for free).
        Returns the paths written.
        """
        target = Path(inbox)
        target.mkdir(parents=True, exist_ok=True)
        chash = campaign_hash(spec)[:8]
        submitted: List[Path] = []
        for index, (cell, spec_hash) in enumerate(self._expanded(spec)):
            if self._load_record(spec_hash) is not None:
                continue
            path = target / f"campaign-{chash}-{index:04d}-{spec_hash[:8]}.json"
            save_job(cell.job, path)
            submitted.append(path)
        return submitted

    def collect(self, spec: CampaignSpec, inbox: Union[str, Path]) -> Dict:
        """Fold a service inbox's result envelopes into settled cell records.

        Scans ``INBOX/results/*.json`` for envelopes whose ``spec_hash``
        matches an unsettled cell and settles those cells from the stored
        envelope — the farm half of resumability.  Returns
        ``{"collected": n, "pending": m}``.
        """
        from repro.jobs.runner import JobResult

        results_dir = Path(inbox) / "results"
        if not results_dir.is_dir():
            raise ReproError(f"{inbox} has no results/ directory — not a serve inbox")
        wanted: Dict[str, CampaignCell] = {}
        for cell, spec_hash in self._expanded(spec):
            if self._load_record(spec_hash) is None:
                wanted[spec_hash] = cell
        collected = 0
        for path in sorted(results_dir.glob("*.json")):
            if not wanted:
                break
            try:
                envelopes = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError):
                continue
            if not isinstance(envelopes, list):
                continue
            for document in envelopes:
                if not isinstance(document, dict):
                    continue
                spec_hash = document.get("spec_hash")
                cell = wanted.pop(spec_hash, None)
                if cell is None:
                    continue
                self._settle(cell, spec_hash, JobResult.from_dict(document))
                collected += 1
        return {"collected": collected, "pending": len(wanted)}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CampaignRunner({str(self.out_dir)!r})"


# job_to_dict is re-exported through the campaign CLI's --show path
_ = job_to_dict

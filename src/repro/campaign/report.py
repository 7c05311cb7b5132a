"""Campaign reduction: ranked ``report.json``, markdown digest, trajectory.

The reduction consumes the per-cell records the
:class:`~repro.campaign.runner.CampaignRunner` settled on disk and produces
three artifacts with deliberately different determinism contracts:

* ``report.json`` (:func:`build_report`) — **byte-deterministic**: every
  field is a pure function of the campaign spec and the cell *payloads*
  (which are themselves pure functions of the cell jobs), serialised with
  sorted keys.  Two runs of the same campaign — on different machines, in
  different directories, with or without a warm cache — produce identical
  bytes.  Wall-clock therefore lives elsewhere.
* the markdown digest (:func:`render_digest`) — the human front door:
  ranked tables plus the volatile wall-clock/cache columns the JSON
  deliberately excludes.
* ``trajectory.jsonl`` (:func:`append_trajectory`) — the tracked history:
  one appended line per campaign run, carrying the campaign hash, a
  timestamp, executed/resumed counts, total wall-clock and the best-known
  costs, so successive runs of a campaign become a quality trajectory.

The comparison metric is ``cost``: the bandwidth-weighted hop count of the
final mapping (sum over every flow of ``bandwidth_mbps * (path_length - 1)``,
use cases in sorted order), recomputed here from the serialized mapping so
*every* mapped cell — design flow, worst case, refinement, repair — is
ranked on the same scale.  Refinement cells additionally carry their
refiner-internal ``refined_cost`` for reference.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

__all__ = [
    "cell_outcome",
    "mapping_cost",
    "build_report",
    "render_digest",
    "append_trajectory",
    "dump_report",
]

#: per-cell record fields that vary run to run and are excluded from
#: ``report.json`` (they appear in the digest and the trajectory instead)
VOLATILE_FIELDS = ("elapsed_s", "cached")


def mapping_cost(mapping: Dict) -> float:
    """Bandwidth-weighted hop count of a serialized mapping result.

    Deterministic for a fixed mapping document: use cases are visited in
    sorted-name order and flows in their stored order, so float summation
    order never varies.
    """
    total = 0.0
    for name in sorted(mapping.get("use_cases", {})):
        for flow in mapping["use_cases"][name]:
            hops = max(0, len(flow.get("path", ())) - 1)
            total += flow.get("bandwidth_mbps", 0.0) * hops
    return round(total, 6)


def cell_outcome(kind: str, payload: Dict) -> Dict:
    """The deterministic, rankable extract of one cell's job payload."""
    outcome: Dict = {"mapped": bool(payload.get("mapped"))}
    if not outcome["mapped"]:
        outcome["error"] = payload.get("error")
        if "unrepairable" in payload:
            outcome["unrepairable"] = payload["unrepairable"]
        return outcome
    summary = payload.get("summary", {})
    outcome.update({
        "topology": summary.get("topology"),
        "switch_count": summary.get("switch_count"),
        "groups": summary.get("groups"),
        "max_utilization": summary.get("max_utilization"),
        "fingerprint": payload.get("fingerprint"),
        "cost": mapping_cost(payload.get("mapping", {})),
    })
    if "refined_cost" in payload:
        outcome["refined_cost"] = payload["refined_cost"]
        outcome["improvement"] = payload.get("improvement")
    if "portfolio" in payload:
        outcome["best_chain"] = payload["portfolio"].get("best_chain")
    if "repair" in payload:
        repair = payload["repair"]
        outcome["groups_remapped"] = repair.get("groups_remapped")
        outcome["repaired"] = repair.get("repaired")
    if "gap" in payload:
        # ilp cells: the ranked mapping/cost above are the exact optimum;
        # surface how far the heuristic (and optional refinement) fell short.
        gap = payload["gap"]
        outcome["solver"] = gap.get("solver")
        for label in ("heuristic", "refined"):
            entry = gap.get(label) or {}
            if "gap_relative" in entry:
                outcome[f"{label}_gap"] = entry["gap_relative"]
    return outcome


def _rank_key(record: Dict):
    """Sort key of one cell inside a ranking: schedulable first, then cost."""
    outcome = record["outcome"]
    if not outcome.get("mapped"):
        return (1, 0.0, record["method"])
    return (0, outcome.get("cost", 0.0), record["method"])


def build_report(
    campaign: Dict,
    records: Sequence[Dict],
    missing: Sequence[str] = (),
) -> Dict:
    """The deterministic ranked report of a campaign's cell records.

    ``campaign`` is the ``{"name": ..., "hash": ..., "spec": ...}`` header
    the runner assembles; ``records`` are completed cell records (any
    order — they are re-sorted by ``cell_id`` here); ``missing`` names
    cells that have no record yet (a partial ``campaign report`` while the
    farm is still chewing).  Volatile fields are stripped from every
    record, so the result is byte-stable across reruns.
    """
    cells = []
    for record in sorted(records, key=lambda entry: entry["cell_id"]):
        cells.append({
            key: value for key, value in record.items()
            if key not in VOLATILE_FIELDS
        })

    # Rankings: within each (workload, parameter_set) coordinate, methods
    # ordered best-first on the shared cost scale.
    rankings: Dict[str, List[Dict]] = {}
    groups: Dict[str, List[Dict]] = {}
    for record in cells:
        coordinate = f"{record['workload']}|{record['parameter_set']}"
        if record.get("seed") is not None:
            coordinate = f"{record['workload']}@s{record['seed']}|{record['parameter_set']}"
        groups.setdefault(coordinate, []).append(record)
    for coordinate in sorted(groups):
        ranked = sorted(groups[coordinate], key=_rank_key)
        rankings[coordinate] = [
            {
                "rank": position + 1,
                "method": record["method"],
                "mapped": record["outcome"].get("mapped", False),
                "cost": record["outcome"].get("cost"),
            }
            for position, record in enumerate(ranked)
        ]

    # Method-vs-method win matrix: a strict cost win per shared coordinate.
    methods = sorted({record["method"] for record in cells})
    win_matrix: Dict[str, Dict[str, int]] = {
        method: {other: 0 for other in methods if other != method}
        for method in methods
    }
    for ranked in groups.values():
        for record in ranked:
            for other in ranked:
                if record["method"] == other["method"]:
                    continue
                mine = record["outcome"]
                theirs = other["outcome"]
                if not mine.get("mapped"):
                    continue
                if not theirs.get("mapped") or mine["cost"] < theirs["cost"]:
                    win_matrix[record["method"]][other["method"]] += 1

    # Best-known cost per workload coordinate (across methods and psets).
    best_known: Dict[str, Dict] = {}
    for record in cells:
        outcome = record["outcome"]
        if not outcome.get("mapped"):
            continue
        workload = record["workload"]
        if record.get("seed") is not None:
            workload = f"{workload}@s{record['seed']}"
        best = best_known.get(workload)
        if best is None or outcome["cost"] < best["cost"]:
            best_known[workload] = {
                "cost": outcome["cost"],
                "method": record["method"],
                "parameter_set": record["parameter_set"],
                "topology": outcome.get("topology"),
                "fingerprint": outcome.get("fingerprint"),
            }

    schedulable = sum(1 for r in cells if r["outcome"].get("mapped"))
    return {
        "campaign": campaign,
        "cells": cells,
        "totals": {
            "cells": len(cells) + len(missing),
            "completed": len(cells),
            "missing": len(missing),
            "schedulable": schedulable,
            "unschedulable": len(cells) - schedulable,
        },
        "missing_cells": sorted(missing),
        "rankings": rankings,
        "win_matrix": win_matrix,
        "best_known": dict(sorted(best_known.items())),
    }


def dump_report(report: Dict) -> str:
    """The canonical byte form of a report (what ``report.json`` holds)."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


# --------------------------------------------------------------------------- #
# the markdown digest
# --------------------------------------------------------------------------- #
def _format_cost(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:,.0f}"


def render_digest(report: Dict, records: Sequence[Dict]) -> str:
    """Human-readable markdown digest, wall-clock columns included."""
    campaign = report["campaign"]
    totals = report["totals"]
    elapsed = {record["cell_id"]: record.get("elapsed_s") for record in records}
    cached = {record["cell_id"]: record.get("cached") for record in records}
    lines = [
        f"# Campaign digest: {campaign['name']}",
        "",
        f"- campaign hash: `{campaign['hash'][:16]}`",
        f"- cells: {totals['completed']}/{totals['cells']} completed, "
        f"{totals['schedulable']} schedulable, "
        f"{totals['unschedulable']} unschedulable"
        + (f", {totals['missing']} missing" if totals["missing"] else ""),
        "",
        "## Rankings (cost = bandwidth-weighted hops; lower is better)",
        "",
        "| workload | parameter set | rank | method | cost | wallclock | cached |",
        "|---|---|---|---|---|---|---|",
    ]
    for coordinate, ranked in report["rankings"].items():
        workload, _, pset = coordinate.rpartition("|")
        for entry in ranked:
            cell_id = f"{workload}|{entry['method']}|{pset}"
            seconds = elapsed.get(cell_id)
            lines.append(
                f"| {workload} | {pset} | {entry['rank']} | {entry['method']} | "
                f"{_format_cost(entry['cost']) if entry['mapped'] else 'UNSCHEDULABLE'} | "
                f"{'-' if seconds is None else f'{seconds:.2f}s'} | "
                f"{'yes' if cached.get(cell_id) else 'no'} |"
            )
    lines += ["", "## Method-vs-method wins (row beats column)", ""]
    methods = sorted(report["win_matrix"])
    lines.append("| | " + " | ".join(methods) + " |")
    lines.append("|---|" + "---|" * len(methods))
    for method in methods:
        row = [
            "-" if other == method else str(report["win_matrix"][method][other])
            for other in methods
        ]
        lines.append(f"| **{method}** | " + " | ".join(row) + " |")
    lines += ["", "## Best known cost per workload", ""]
    lines.append("| workload | cost | method | parameter set | topology |")
    lines.append("|---|---|---|---|---|")
    for workload, best in report["best_known"].items():
        lines.append(
            f"| {workload} | {_format_cost(best['cost'])} | {best['method']} | "
            f"{best['parameter_set']} | {best['topology']} |"
        )
    if report["missing_cells"]:
        lines += ["", "## Missing cells", ""]
        lines += [f"- `{cell}`" for cell in report["missing_cells"]]
    lines.append("")
    return "\n".join(lines)


# --------------------------------------------------------------------------- #
# the trajectory
# --------------------------------------------------------------------------- #
def append_trajectory(
    path: Union[str, Path],
    report: Dict,
    records: Sequence[Dict],
    executed: int,
    resumed: int,
) -> Dict:
    """Append one campaign-run entry to the append-only trajectory log.

    Returns the entry written.  The trajectory is *history*, not a report:
    entries carry timestamps and wall-clock and are never rewritten, so
    diffing successive lines shows how the tracked workloads' best-known
    costs and campaign wall-times move over time.
    """
    entry = {
        "unix_time": round(time.time(), 3),
        "campaign": report["campaign"]["name"],
        "campaign_hash": report["campaign"]["hash"],
        "cells": report["totals"]["cells"],
        "executed": executed,
        "resumed": resumed,
        "schedulable": report["totals"]["schedulable"],
        "wallclock_s": round(
            sum(record.get("elapsed_s") or 0.0 for record in records), 6
        ),
        "best_known": {
            workload: {"cost": best["cost"], "method": best["method"]}
            for workload, best in report["best_known"].items()
        },
    }
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("a") as trajectory:
        trajectory.write(json.dumps(entry, sort_keys=True) + "\n")
    return entry

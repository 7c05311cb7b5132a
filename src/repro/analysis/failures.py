"""Failure-sweep analysis: which single failures break schedulability.

Enumerates every single link (undirected — both directions fail together)
and every single switch failure of a baseline mapping's topology, repairs
the baseline around each (:func:`repro.core.repair.repair_mapping`), and
reports per failure whether the design stays schedulable, how many groups
had to be remapped, and at what cost.  Optionally the sweep is repeated at
several operating points (NoC clock frequencies), reproducing the paper's
frequency-axis analyses for the degraded topologies.

``python -m repro failures`` is the CLI front end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.engine import MappingEngine
from repro.core.repair import check_baseline, repair_mapping
from repro.core.result import MappingResult
from repro.noc.failures import FailureSet
from repro.noc.topology import Topology

__all__ = [
    "FailureSweepRow",
    "TrafficSweepRow",
    "single_link_failures",
    "single_switch_failures",
    "failure_sweep",
    "traffic_sweep",
]


def single_link_failures(topology: Topology) -> List[FailureSet]:
    """One failure set per undirected link (both directions down together)."""
    seen = set()
    failures: List[FailureSet] = []
    for source, destination in topology.links:
        key = (min(source, destination), max(source, destination))
        if key in seen:
            continue
        seen.add(key)
        failures.append(FailureSet().mark_link_down(*key))
    return failures


def single_switch_failures(topology: Topology) -> List[FailureSet]:
    """One failure set per switch."""
    return [
        FailureSet().mark_switch_down(switch.index) for switch in topology.switches
    ]


@dataclass
class FailureSweepRow:
    """Outcome of repairing the baseline around one failure."""

    failure: str
    kind: str  # "link" | "switch"
    schedulable: bool
    repaired: bool
    affected_groups: int
    groups_total: int
    displaced_cores: int
    cost_delta: Optional[float]
    unrepairable: Tuple[str, ...]
    frequency_mhz: Optional[float] = None

    def as_dict(self) -> Dict:
        document = {
            "failure": self.failure,
            "kind": self.kind,
            "schedulable": self.schedulable,
            "repaired": self.repaired,
            "affected_groups": self.affected_groups,
            "groups_total": self.groups_total,
            "displaced_cores": self.displaced_cores,
            "cost_delta": self.cost_delta,
            "unrepairable": list(self.unrepairable),
        }
        if self.frequency_mhz is not None:
            document["frequency_mhz"] = self.frequency_mhz
        return document


def _sweep_baseline(
    engine: MappingEngine,
    use_cases,
    baseline: Optional[MappingResult],
    provision: Optional[Tuple[int, int]],
    groups,
) -> MappingResult:
    """The caller's baseline, checked against the design, or a computed one.

    A computed baseline is the engine's mapping on the ``provision`` mesh,
    or on the minimal feasible topology without one.
    """
    if baseline is not None:
        check_baseline(baseline, use_cases)
        return baseline
    mesh = None if provision is None else Topology.mesh(*provision)
    return engine.map(use_cases, groups=groups, topology=mesh)


def _sweep_one_engine(
    engine: MappingEngine,
    use_cases,
    baseline: MappingResult,
    candidates: Sequence[Tuple[str, FailureSet]],
    groups,
    frequency_mhz: Optional[float],
) -> List[FailureSweepRow]:
    rows: List[FailureSweepRow] = []
    for kind, failures in candidates:
        outcome = repair_mapping(
            engine, use_cases, baseline, failures,
            groups=groups, compare_full_remap=True,
        )
        repaired = outcome.repaired is not None
        # A failure "breaks schedulability" only when neither the
        # incremental repair nor a from-scratch remap of the degraded
        # topology fits the design.
        schedulable = repaired or outcome.full_remap is not None
        delta = (
            None if outcome.repaired_cost is None
            else outcome.repaired_cost - outcome.baseline_cost
        )
        rows.append(
            FailureSweepRow(
                failure=failures.describe(),
                kind=kind,
                schedulable=schedulable,
                repaired=repaired,
                affected_groups=len(outcome.affected_group_ids),
                groups_total=outcome.groups_total,
                displaced_cores=len(outcome.displaced_cores),
                cost_delta=delta,
                unrepairable=outcome.unrepairable,
                frequency_mhz=frequency_mhz,
            )
        )
    return rows


def failure_sweep(
    use_cases,
    baseline: Optional[MappingResult] = None,
    engine: Optional[MappingEngine] = None,
    provision: Optional[Tuple[int, int]] = None,
    groups=None,
    include_links: bool = True,
    include_switches: bool = True,
    frequencies_mhz: Optional[Sequence[float]] = None,
) -> List[FailureSweepRow]:
    """Repair the baseline around every single link/switch failure.

    Without ``baseline``, one is computed first — on a ``provision``
    ``(rows, cols)`` mesh when given (fault tolerance needs spare capacity;
    on the minimal mesh most failures are unsurvivable by construction), or
    on the engine's minimal feasible topology otherwise.  A supplied
    ``baseline`` must map ``use_cases``
    (:func:`~repro.core.repair.check_baseline` raises otherwise).  With
    ``frequencies_mhz``, the whole sweep repeats at each operating point via
    sibling engines (:meth:`MappingEngine.with_params`).
    """
    engine = engine or MappingEngine()
    groups_arg = None if groups is None else [list(group) for group in groups]
    baseline = _sweep_baseline(engine, use_cases, baseline, provision, groups_arg)

    candidates: List[Tuple[str, FailureSet]] = []
    if include_links:
        candidates.extend(
            ("link", failures)
            for failures in single_link_failures(baseline.topology)
        )
    if include_switches:
        candidates.extend(
            ("switch", failures)
            for failures in single_switch_failures(baseline.topology)
        )

    if not frequencies_mhz:
        return _sweep_one_engine(
            engine, use_cases, baseline, candidates, groups_arg, None
        )
    rows: List[FailureSweepRow] = []
    for frequency in frequencies_mhz:
        sibling = engine.with_params(
            engine.params.with_frequency(frequency * 1e6)
        )
        rows.extend(
            _sweep_one_engine(
                sibling, use_cases, baseline, candidates, groups_arg, frequency
            )
        )
    return rows


@dataclass
class TrafficSweepRow:
    """Outcome of splice-repairing the baseline at one traffic scale."""

    scale: float
    schedulable: bool
    repaired: bool
    changed_use_cases: int
    affected_groups: int
    groups_total: int
    cost_delta: Optional[float]
    unrepairable: Tuple[str, ...]

    def as_dict(self) -> Dict:
        return {
            "scale": self.scale,
            "schedulable": self.schedulable,
            "repaired": self.repaired,
            "changed_use_cases": self.changed_use_cases,
            "affected_groups": self.affected_groups,
            "groups_total": self.groups_total,
            "cost_delta": self.cost_delta,
            "unrepairable": list(self.unrepairable),
        }


def traffic_sweep(
    use_cases,
    scales: Sequence[float] = (1.0, 1.25, 1.5, 2.0),
    baseline: Optional[MappingResult] = None,
    engine: Optional[MappingEngine] = None,
    provision: Optional[Tuple[int, int]] = None,
    groups=None,
) -> List[TrafficSweepRow]:
    """Bandwidth-headroom analysis: how much traffic growth a mapping absorbs.

    For each scale factor, every flow's bandwidth is re-characterised to
    ``scale ×`` its design value (:func:`repro.ops.events.apply_traffic`)
    and the baseline is splice-repaired around the change — only groups
    containing a re-characterised use case are re-evaluated, exactly the
    path a live :class:`~repro.ops.monitor.Monitor` traffic event takes.
    A row is schedulable when either the splice or a from-scratch remap of
    the (unchanged) topology still fits; the first unschedulable scale is
    the deployment's traffic headroom limit.  Scale ``1.0`` is the no-op
    control row: zero changed use cases, zero affected groups.  The
    baseline is supplied or computed as in :func:`failure_sweep`.
    """
    from repro.ops.events import apply_traffic

    engine = engine or MappingEngine()
    groups_arg = None if groups is None else [list(group) for group in groups]
    baseline = _sweep_baseline(engine, use_cases, baseline, provision, groups_arg)

    rows: List[TrafficSweepRow] = []
    for scale in scales:
        overrides = {
            (use_case.name, flow.source, flow.destination):
                flow.bandwidth * float(scale)
            for use_case in use_cases
            for flow in use_case.flows
        }
        recharacterised, changed = apply_traffic(use_cases, overrides)
        outcome = repair_mapping(
            engine, recharacterised, baseline, FailureSet(),
            groups=groups_arg, compare_full_remap=True,
            changed_use_cases=changed,
        )
        repaired = outcome.repaired is not None
        delta = (
            None if outcome.repaired_cost is None
            else outcome.repaired_cost - outcome.baseline_cost
        )
        rows.append(
            TrafficSweepRow(
                scale=float(scale),
                schedulable=repaired or outcome.full_remap is not None,
                repaired=repaired,
                changed_use_cases=len(outcome.changed_use_cases),
                affected_groups=len(outcome.affected_group_ids),
                groups_total=outcome.groups_total,
                cost_delta=delta,
                unrepairable=outcome.unrepairable,
            )
        )
    return rows

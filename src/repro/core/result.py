"""Result objects produced by the mapping algorithms.

A :class:`MappingResult` captures everything the later phases of the design
flow need: the topology that was finally large enough, the shared
core-to-switch mapping, the configuration groups and — per use-case — the
paths and TDMA slots of every flow (:class:`FlowAllocation`), bundled into a
:class:`UseCaseConfiguration`.

These objects are plain data holders plus read-only convenience queries;
they never mutate the resource states they were derived from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.core.usecase import Flow, UseCase, UseCaseSet
from repro.exceptions import SpecificationError
from repro.noc.topology import Link, Topology
from repro.params import MapperConfig, NoCParameters

__all__ = [
    "FlowAllocation",
    "UseCaseConfiguration",
    "MappingResult",
    "total_communication_cost",
]


@dataclass(frozen=True)
class FlowAllocation:
    """The path and slot-table entries one flow owns in one use-case.

    Attributes
    ----------
    use_case:
        Name of the use-case the allocation belongs to.
    flow:
        The flow being served (with the use-case's own bandwidth/latency).
    switch_path:
        Switch indices from the source core's switch to the destination
        core's switch; a single element when both attach to the same switch.
    link_slots:
        TDMA slot indices reserved per directed inter-switch link (empty for
        best-effort flows and same-switch paths).
    """

    use_case: str
    flow: Flow
    switch_path: Tuple[int, ...]
    link_slots: Mapping[Link, Tuple[int, ...]] = field(default_factory=dict)

    @property
    def hop_count(self) -> int:
        """Number of inter-switch links traversed."""
        return max(0, len(self.switch_path) - 1)

    @property
    def slots_per_link(self) -> int:
        """Slots reserved on each traversed link (0 when none)."""
        if not self.link_slots:
            return 0
        return len(next(iter(self.link_slots.values())))

    @property
    def links(self) -> Tuple[Link, ...]:
        """The directed inter-switch links of the path, in order."""
        return tuple(zip(self.switch_path, self.switch_path[1:]))


class UseCaseConfiguration:
    """The NoC configuration (paths + slots) used while one use-case runs."""

    def __init__(self, use_case: str, group_id: int) -> None:
        self.use_case = use_case
        self.group_id = group_id
        self._allocations: Dict[Tuple[str, str], FlowAllocation] = {}

    def add(self, allocation: FlowAllocation) -> None:
        """Register the allocation of one flow (one per core pair)."""
        pair = allocation.flow.pair
        if pair in self._allocations:
            raise SpecificationError(
                f"use-case {self.use_case!r} already has an allocation for pair {pair}"
            )
        self._allocations[pair] = allocation

    @property
    def allocations(self) -> Tuple[FlowAllocation, ...]:
        """All flow allocations of the use-case."""
        return tuple(self._allocations.values())

    def allocation_for(self, source: str, destination: str) -> Optional[FlowAllocation]:
        """The allocation for a core pair, or ``None``."""
        return self._allocations.get((source, destination))

    def link_loads(self) -> Dict[Link, float]:
        """Bandwidth (bytes/s) carried by every inter-switch link in this use-case."""
        loads: Dict[Link, float] = {}
        for allocation in self._allocations.values():
            for link in allocation.links:
                loads[link] = loads.get(link, 0.0) + allocation.flow.bandwidth
        return loads

    def core_loads(self) -> Tuple[Dict[str, float], Dict[str, float]]:
        """(egress, ingress) bandwidth per core in this use-case (bytes/s)."""
        egress: Dict[str, float] = {}
        ingress: Dict[str, float] = {}
        for allocation in self._allocations.values():
            flow = allocation.flow
            egress[flow.source] = egress.get(flow.source, 0.0) + flow.bandwidth
            ingress[flow.destination] = ingress.get(flow.destination, 0.0) + flow.bandwidth
        return egress, ingress

    def max_link_load(self) -> float:
        """Largest per-link bandwidth in this use-case (bytes/s), 0 if none."""
        loads = self.link_loads()
        return max(loads.values(), default=0.0)

    def max_access_load(self) -> float:
        """Largest per-core ingress or egress bandwidth (bytes/s), 0 if none."""
        egress, ingress = self.core_loads()
        values = list(egress.values()) + list(ingress.values())
        return max(values, default=0.0)

    def total_traffic(self) -> float:
        """Sum of flow bandwidths in this use-case (bytes/s)."""
        return sum(alloc.flow.bandwidth for alloc in self._allocations.values())

    def total_bandwidth_hops(self) -> float:
        """Sum over flows of bandwidth × hop count — the power-model workload."""
        return sum(
            alloc.flow.bandwidth * alloc.hop_count for alloc in self._allocations.values()
        )

    def __len__(self) -> int:
        return len(self._allocations)

    def __iter__(self) -> Iterator[FlowAllocation]:
        return iter(self._allocations.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"UseCaseConfiguration(use_case={self.use_case!r}, group={self.group_id}, "
            f"flows={len(self._allocations)})"
        )


class MappingResult:
    """Complete output of a mapping run.

    Attributes
    ----------
    method:
        ``"unified"`` for the paper's methodology, ``"worst_case"`` for the
        baseline.
    topology:
        The smallest topology on which the mapping succeeded.
    params, config:
        The operating point and algorithm configuration used.
    core_mapping:
        The shared core-to-switch assignment (identical for all use-cases).
    groups:
        The smooth-switching configuration groups (sets of use-case names).
    configurations:
        One :class:`UseCaseConfiguration` per use-case.
    attempted_topologies:
        Names of the topologies the outer loop tried before succeeding.
    """

    def __init__(
        self,
        method: str,
        topology: Topology,
        params: NoCParameters,
        config: MapperConfig,
        core_mapping: Mapping[str, int],
        groups: Sequence[FrozenSet[str]],
        configurations: Mapping[str, UseCaseConfiguration],
        attempted_topologies: Sequence[str] = (),
    ) -> None:
        self.method = method
        self.topology = topology
        self.params = params
        self.config = config
        self.core_mapping: Dict[str, int] = dict(core_mapping)
        self.groups: Tuple[FrozenSet[str], ...] = tuple(groups)
        self.configurations: Dict[str, UseCaseConfiguration] = dict(configurations)
        self.attempted_topologies: Tuple[str, ...] = tuple(attempted_topologies)
        #: total bandwidth-hops, precomputed by producers that already walk
        #: every allocation (the engine's fixed-placement evaluator);
        #: :func:`total_communication_cost` uses it instead of re-summing
        self.cached_communication_cost: Optional[float] = None

    # ------------------------------------------------------------------ #
    # headline metrics
    # ------------------------------------------------------------------ #
    @property
    def switch_count(self) -> int:
        """Number of switches in the final NoC — the paper's primary metric."""
        return self.topology.switch_count

    @property
    def mesh_dimensions(self) -> Optional[Tuple[int, int]]:
        """(rows, cols) of the final mesh, or ``None`` for irregular topologies."""
        return self.topology.dimensions

    @property
    def use_case_names(self) -> Tuple[str, ...]:
        """All use-case names covered by this result."""
        return tuple(self.configurations.keys())

    def configuration(self, use_case: str) -> UseCaseConfiguration:
        """The configuration of one use-case."""
        try:
            return self.configurations[use_case]
        except KeyError:
            raise SpecificationError(
                f"result has no configuration for use-case {use_case!r}"
            ) from None

    def group_of(self, use_case: str) -> FrozenSet[str]:
        """The smooth-switching group containing a use-case."""
        for group in self.groups:
            if use_case in group:
                return group
        raise SpecificationError(f"use-case {use_case!r} belongs to no group")

    def switch_of(self, core: str) -> int:
        """The switch a core is mapped to."""
        try:
            return self.core_mapping[core]
        except KeyError:
            raise SpecificationError(f"core {core!r} is not mapped") from None

    def cores_on_switch(self, switch_index: int) -> Tuple[str, ...]:
        """All cores attached to the given switch."""
        return tuple(
            sorted(core for core, sw in self.core_mapping.items() if sw == switch_index)
        )

    def max_link_load(self, use_case: Optional[str] = None) -> float:
        """Largest per-link bandwidth over one use-case or over all of them."""
        if use_case is not None:
            return self.configuration(use_case).max_link_load()
        return max(
            (cfg.max_link_load() for cfg in self.configurations.values()), default=0.0
        )

    def max_utilization(self, use_case: Optional[str] = None) -> float:
        """Largest link or access-link utilisation relative to link capacity."""
        capacity = self.params.link_capacity
        names = [use_case] if use_case is not None else list(self.configurations)
        worst = 0.0
        for name in names:
            cfg = self.configuration(name)
            worst = max(worst, cfg.max_link_load() / capacity, cfg.max_access_load() / capacity)
        return worst

    def reconfigurable_pairs(self) -> int:
        """Number of use-case pairs between which the NoC may be re-configured.

        Pairs inside one smooth-switching group share a configuration; every
        cross-group pair is a re-configuration opportunity (path / slot-table
        reload and DVS/DFS re-scaling).
        """
        total = len(self.configurations)
        all_pairs = total * (total - 1) // 2
        same_group = sum(len(group) * (len(group) - 1) // 2 for group in self.groups)
        return all_pairs - same_group

    def summary(self) -> Dict[str, object]:
        """A plain-dict summary used by the reports and the benchmark harness."""
        return {
            "method": self.method,
            "topology": self.topology.name,
            "switch_count": self.switch_count,
            "mesh_dimensions": self.mesh_dimensions,
            "use_cases": len(self.configurations),
            "groups": len(self.groups),
            "cores": len(self.core_mapping),
            "frequency_hz": self.params.frequency_hz,
            "link_width_bits": self.params.link_width_bits,
            "max_utilization": round(self.max_utilization(), 4),
            "attempted_topologies": list(self.attempted_topologies),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MappingResult(method={self.method!r}, topology={self.topology.name!r}, "
            f"use_cases={len(self.configurations)})"
        )


def total_communication_cost(result: MappingResult) -> float:
    """Σ bandwidth × hops over every configuration of a mapping result.

    The refiners' objective, the exact backend's, and the cost every report
    shows; the first-order proxy for NoC power.
    """
    if result.cached_communication_cost is not None:
        return result.cached_communication_cost
    return sum(
        configuration.total_bandwidth_hops()
        for configuration in result.configurations.values()
    )

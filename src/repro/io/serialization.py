"""JSON serialisation of use-case sets and mapping results.

The on-disk format is deliberately plain JSON so specifications can be
written by hand, produced by other tools, or diffed in version control:

.. code-block:: json

    {
      "name": "my-design",
      "use_cases": [
        {
          "name": "video",
          "cores": [{"name": "cpu", "kind": "processor"}],
          "flows": [
            {"source": "cpu", "destination": "mem",
             "bandwidth_mbps": 200.0, "latency_us": 100.0,
             "traffic_class": "GT"}
          ]
        }
      ]
    }

Bandwidths are stored in MB/s and latencies in microseconds (the paper's
units) and converted to the library's internal base units on load.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, Union

from repro.core.result import MappingResult, UseCaseConfiguration, FlowAllocation
from repro.core.usecase import Core, Flow, UseCase, UseCaseSet
from repro.exceptions import SerializationError
from repro.noc.topology import Switch, Topology
from repro.params import MapperConfig, NoCParameters
from repro.units import mbps, to_mbps, us

__all__ = [
    "atomic_write",
    "use_case_set_to_dict",
    "use_case_set_from_dict",
    "save_use_case_set",
    "load_use_case_set",
    "document_fingerprint",
    "topology_to_dict",
    "topology_fingerprint",
    "mapping_result_to_dict",
    "mapping_result_from_dict",
    "save_mapping_result",
    "load_mapping_result",
    "mapping_fingerprint",
]

_MICROSECOND = 1e-6


def atomic_write(path: Union[str, Path], data: Union[str, bytes]) -> Path:
    """Publish ``data`` at ``path`` whole or not at all; returns the path.

    The data goes to ``.NAME.PID.tmp`` in the same directory — a name no
    ``*.json``/``*.jsonl`` glob matches, so an inbox drain or store scan
    never sees it — and is then renamed over ``path`` with ``os.replace``.
    A write that fails part-way leaves ``path`` as it was.  There is no
    fsync: this survives a killed process, not a lost page cache.
    """
    target = Path(path)
    scratch = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        if isinstance(data, str):
            scratch.write_text(data)
        else:
            scratch.write_bytes(data)
        os.replace(scratch, target)
    except BaseException:
        scratch.unlink(missing_ok=True)
        raise
    return target


def use_case_set_to_dict(use_cases: UseCaseSet) -> Dict:
    """Convert a use-case set to its JSON-ready dictionary form."""
    return {
        "name": use_cases.name,
        "use_cases": [
            {
                "name": use_case.name,
                "parents": list(use_case.parents),
                "cores": [
                    {"name": core.name, "kind": core.kind} for core in use_case.cores
                ],
                "flows": [
                    {
                        "source": flow.source,
                        "destination": flow.destination,
                        "bandwidth_mbps": to_mbps(flow.bandwidth),
                        "latency_us": flow.latency / _MICROSECOND,
                        "traffic_class": flow.traffic_class,
                    }
                    for flow in use_case.flows
                ],
            }
            for use_case in use_cases
        ],
    }


def use_case_set_from_dict(document: Dict) -> UseCaseSet:
    """Reconstruct a use-case set from its dictionary form."""
    try:
        name = document["name"]
        entries = document["use_cases"]
    except (KeyError, TypeError) as exc:
        raise SerializationError(f"malformed use-case document: missing {exc}") from None
    use_cases = []
    for entry in entries:
        try:
            cores = [Core(core["name"], core.get("kind", "core")) for core in entry.get("cores", [])]
            flows = [
                Flow(
                    source=flow["source"],
                    destination=flow["destination"],
                    bandwidth=mbps(flow["bandwidth_mbps"]),
                    latency=us(flow.get("latency_us", 1e3)),
                    traffic_class=flow.get("traffic_class", "GT"),
                )
                for flow in entry.get("flows", [])
            ]
            use_cases.append(
                UseCase(
                    entry["name"],
                    flows=flows,
                    cores=cores,
                    parents=tuple(entry.get("parents", ())),
                )
            )
        except (KeyError, TypeError) as exc:
            raise SerializationError(
                f"malformed use-case entry {entry.get('name', '?')!r}: {exc}"
            ) from None
    return UseCaseSet(use_cases, name=name)


def save_use_case_set(use_cases: UseCaseSet, path: Union[str, Path]) -> Path:
    """Write a use-case set to a JSON file; returns the path written."""
    target = Path(path)
    target.write_text(json.dumps(use_case_set_to_dict(use_cases), indent=2))
    return target


def load_use_case_set(path: Union[str, Path]) -> UseCaseSet:
    """Load a use-case set from a JSON file."""
    source = Path(path)
    try:
        document = json.loads(source.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SerializationError(f"cannot read use-case set from {source}: {exc}") from exc
    return use_case_set_from_dict(document)


def topology_to_dict(topology: Topology) -> Dict:
    """Convert a topology to its JSON-ready dictionary form.

    The canonical topology document: everything :func:`_topology_from_dict`
    needs to rebuild an equivalent :class:`Topology` (name, kind, switch
    count, grid dimensions, per-switch positions and the directed link
    list).  Shared by :func:`mapping_result_to_dict` and the engine-state
    store's evaluation keys (:func:`topology_fingerprint`).
    """
    document = {
        "name": topology.name,
        "kind": topology.kind,
        "switch_count": topology.switch_count,
        "dimensions": None
        if topology.dimensions is None
        else list(topology.dimensions),
        "positions": [
            None if switch.position is None else list(switch.position)
            for switch in topology.switches
        ],
        "links": [list(link) for link in topology.links],
    }
    if topology.has_failures:
        # Emitted only for degraded topologies so the canonical document —
        # and every fingerprint derived from it — of a pristine topology is
        # byte-identical to what it was before failures existed.
        document["failures"] = topology.failures.to_dict()
    return document


def document_fingerprint(document) -> str:
    """Stable SHA-256 over a JSON-ready document's canonical form.

    THE content-key primitive of the code base: every store key and
    topology fingerprint is this exact ``sort_keys`` JSON + SHA-256
    recipe, so writers and readers that derive keys independently — the
    engine-state store, the engines' seed indexes — always agree
    byte-for-byte.
    """
    blob = json.dumps(document, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def topology_fingerprint(topology: Topology) -> str:
    """Stable SHA-256 over a topology's canonical dictionary form.

    Two topologies with equal fingerprints are structurally identical
    (same switches, positions and links), so content-keyed caches — the
    :class:`~repro.jobs.store.EngineStateStore` evaluation contexts — can
    use the fingerprint where an object identity would not survive
    serialisation.
    """
    return document_fingerprint(topology_to_dict(topology))


def mapping_result_to_dict(result: MappingResult) -> Dict:
    """Convert a mapping result to a JSON-ready dictionary.

    The dictionary contains everything needed to configure a NoC instance —
    topology, core placement, groups and, per use-case, every flow's path
    and TDMA slots — plus the full operating point and mapper configuration,
    so :func:`mapping_result_from_dict` can rebuild an equivalent
    :class:`MappingResult` (the persistent job cache relies on this round
    trip).
    """
    return {
        "method": result.method,
        "topology": topology_to_dict(result.topology),
        "parameters": {
            "frequency_mhz": result.params.frequency_hz / 1e6,
            "link_width_bits": result.params.link_width_bits,
            "slot_table_size": result.params.slot_table_size,
        },
        "params": result.params.to_dict(),
        "config": result.config.to_dict(),
        "attempted_topologies": list(result.attempted_topologies),
        "core_mapping": dict(result.core_mapping),
        "groups": [sorted(group) for group in result.groups],
        "use_cases": {
            name: [
                {
                    "source": allocation.flow.source,
                    "destination": allocation.flow.destination,
                    "bandwidth_mbps": to_mbps(allocation.flow.bandwidth),
                    "latency_us": allocation.flow.latency / _MICROSECOND,
                    "traffic_class": allocation.flow.traffic_class,
                    "path": list(allocation.switch_path),
                    "slots": {
                        f"{link[0]}->{link[1]}": list(slots)
                        for link, slots in allocation.link_slots.items()
                    },
                }
                for allocation in configuration
            ]
            for name, configuration in result.configurations.items()
        },
    }


def _topology_from_dict(document: Dict) -> Topology:
    """Rebuild a topology from its dictionary form."""
    dimensions = document.get("dimensions")
    if dimensions is not None:
        dimensions = tuple(dimensions)
    positions = document.get("positions")
    count = int(document["switch_count"])
    switches = []
    for index in range(count):
        if positions is not None:
            stored = positions[index]
            position = None if stored is None else tuple(stored)
        elif dimensions is not None:
            # Older documents lack positions; meshes/tori number switches
            # row-major, so the grid coordinate is recoverable.
            position = (index // dimensions[1], index % dimensions[1])
        else:
            position = None
        switches.append(Switch(index=index, position=position))
    failures = document.get("failures")
    if failures is not None:
        from repro.noc.failures import FailureSet

        failures = FailureSet.from_dict(failures)
    return Topology(
        name=document["name"],
        switches=switches,
        links=[tuple(link) for link in document.get("links", [])],
        kind=document.get("kind", "custom"),
        dimensions=dimensions,
        failures=failures,
    )


def mapping_result_from_dict(document: Dict) -> MappingResult:
    """Reconstruct a :class:`MappingResult` from its dictionary form.

    The inverse of :func:`mapping_result_to_dict`: topology, placement,
    groups and every flow allocation (paths and TDMA slots) come back as
    live objects.  Documents written before the round trip existed (without
    ``params``/``config`` blocks) load with defaults for the missing fields.
    """
    try:
        topology = _topology_from_dict(document["topology"])
        groups = tuple(frozenset(group) for group in document["groups"])
        core_mapping = dict(document["core_mapping"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed mapping-result document: {exc}") from None

    if "params" in document:
        params = NoCParameters.from_dict(document["params"])
    else:
        legacy = document.get("parameters", {})
        params = NoCParameters.from_dict(
            {key: legacy[key] for key in ("frequency_mhz", "link_width_bits",
                                          "slot_table_size") if key in legacy}
        )
    config = MapperConfig.from_dict(document.get("config", {}))

    def group_id_of(use_case: str) -> int:
        for index, group in enumerate(groups):
            if use_case in group:
                return index
        raise SerializationError(
            f"use-case {use_case!r} appears in no configuration group"
        )

    configurations: Dict[str, UseCaseConfiguration] = {}
    try:
        for name, entries in document.get("use_cases", {}).items():
            configuration = UseCaseConfiguration(name, group_id_of(name))
            for entry in entries:
                flow = Flow(
                    source=entry["source"],
                    destination=entry["destination"],
                    bandwidth=mbps(entry["bandwidth_mbps"]),
                    latency=us(entry.get("latency_us", 1e3)),
                    traffic_class=entry.get("traffic_class", "GT"),
                )
                link_slots = {}
                for key, slots in entry.get("slots", {}).items():
                    source_switch, _, destination_switch = key.partition("->")
                    link_slots[(int(source_switch), int(destination_switch))] = tuple(slots)
                configuration.add(
                    FlowAllocation(
                        use_case=name,
                        flow=flow,
                        switch_path=tuple(entry["path"]),
                        link_slots=link_slots,
                    )
                )
            configurations[name] = configuration
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed flow allocation in document: {exc}") from None

    return MappingResult(
        method=document.get("method", "unified"),
        topology=topology,
        params=params,
        config=config,
        core_mapping=core_mapping,
        groups=groups,
        configurations=configurations,
        attempted_topologies=tuple(document.get("attempted_topologies", ())),
    )


def save_mapping_result(result: MappingResult, path: Union[str, Path]) -> Path:
    """Write a mapping result to a JSON file; returns the path written."""
    target = Path(path)
    target.write_text(json.dumps(mapping_result_to_dict(result), indent=2))
    return target


def load_mapping_result(path: Union[str, Path]) -> MappingResult:
    """Load a mapping result back from a JSON file."""
    source = Path(path)
    try:
        document = json.loads(source.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SerializationError(f"cannot read mapping result from {source}: {exc}") from exc
    return mapping_result_from_dict(document)


def mapping_fingerprint(result: MappingResult) -> str:
    """Stable SHA-256 over every observable decision of a mapping result.

    Covers the final topology, the core placement and, per use-case, every
    flow's switch path and TDMA slot assignment — exactly the quantities the
    regression suite pins against the seed implementation.  Two results with
    equal fingerprints configure identical NoCs, which is how the job runner
    proves parallel execution bit-identical to serial.
    """
    slots: Dict[str, list] = {}
    for name, configuration in sorted(result.configurations.items()):
        for allocation in configuration:
            key = f"{name}:{allocation.flow.source}->{allocation.flow.destination}"
            slots[key] = [
                list(allocation.switch_path),
                sorted(
                    (str(link), list(indices))
                    for link, indices in allocation.link_slots.items()
                ),
            ]
    blob = json.dumps(
        [result.topology.name, sorted(result.core_mapping.items()), slots],
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()

"""NoC substrate: topologies, TDMA slot tables, routing and resource state.

This package models the Æthereal-style network the methodology maps onto:

* :mod:`repro.noc.topology` — switches, inter-switch links and the standard
  topology constructors (mesh, torus, ring, custom).
* :mod:`repro.noc.slot_table` — TDMA slot arithmetic for the pipelined
  (slot advances one position per hop) reservation scheme.
* :mod:`repro.noc.routing` — candidate-path enumeration and least-cost path
  selection under bandwidth / slot / latency constraints.
* :mod:`repro.noc.deadlock` — turn-model helpers and channel-dependency-graph
  cycle checks (relevant for best-effort traffic).
* :mod:`repro.noc.resources` — per-group residual bandwidth and slot
  state, the "separate data structures" at the heart of the methodology,
  with the per-pair cost, slot search and commit of Algorithm 2.
"""

from repro.noc.topology import Link, Switch, Topology
from repro.noc.failures import FailureDelta, FailureSet
from repro.noc.resources import ResourceState
from repro.noc.routing import PathSelector, RoutingPolicy
from repro.noc.deadlock import (
    channel_dependency_graph,
    is_deadlock_free,
    is_xy_path,
    is_west_first_path,
)

__all__ = [
    "Link",
    "Switch",
    "Topology",
    "FailureDelta",
    "FailureSet",
    "ResourceState",
    "PathSelector",
    "RoutingPolicy",
    "channel_dependency_graph",
    "is_deadlock_free",
    "is_xy_path",
    "is_west_first_path",
]

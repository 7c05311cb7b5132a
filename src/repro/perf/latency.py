"""Analytical worst-case latency bounds for guaranteed-throughput flows.

Æthereal GT connections are scheduled on TDMA slot tables, so their
worst-case latency is fully analytical (no simulation required, which is why
the paper can "verify the NoC performance for the GT connections
analytically"):

* a packet that arrives just after the flow's reserved slot has passed waits
  at most one full revolution of the slot table before its next slot comes
  around; when the flow owns ``k`` (roughly evenly spaced) slots out of
  ``S`` the worst-case wait shrinks to ``ceil(S / k)`` slots;
* once injected, the packet advances exactly one hop per slot (pipelined
  reservations), taking ``hops`` further slots to reach the destination
  switch; and
* NI packetisation/depacketisation adds a small constant overhead at each
  end.

All bounds are expressed in seconds for the given operating point.
"""

from __future__ import annotations

import math

from repro.exceptions import ConfigurationError
from repro.params import NoCParameters

__all__ = ["worst_case_latency", "latency_hop_budget", "NI_OVERHEAD_CYCLES"]

#: Cycles charged for network-interface packetisation at the source plus
#: depacketisation at the destination.
NI_OVERHEAD_CYCLES = 4


def worst_case_latency(
    hops: int,
    slots_owned: int,
    params: NoCParameters,
) -> float:
    """Worst-case packet latency (seconds) of a GT flow.

    Parameters
    ----------
    hops:
        Number of inter-switch links the flow traverses (0 when source and
        destination cores attach to the same switch).
    slots_owned:
        Number of TDMA slots the flow owns on each link of its path.  Must
        be at least 1 for flows that traverse links; same-switch flows may
        pass 0.
    params:
        The NoC operating point (frequency and slot-table size).
    """
    if hops < 0:
        raise ConfigurationError(f"hop count must be non-negative, got {hops}")
    if hops == 0:
        return NI_OVERHEAD_CYCLES * params.cycle_time
    if slots_owned <= 0:
        raise ConfigurationError(
            f"a GT flow crossing {hops} links must own at least one slot"
        )
    slot_wait = math.ceil(params.slot_table_size / slots_owned)
    total_cycles = slot_wait + hops + NI_OVERHEAD_CYCLES
    return total_cycles * params.slot_duration


def latency_hop_budget(
    latency_constraint: float,
    slots_owned: int,
    params: NoCParameters,
) -> int:
    """Largest hop count whose worst-case latency still meets a constraint.

    This is the inverse of :func:`worst_case_latency`; the mapper uses it to
    prune candidate paths that are too long for a latency-critical flow
    before evaluating their cost.  Returns ``-1`` when even a same-switch
    placement cannot meet the constraint (the constraint is tighter than the
    NI overhead alone), which the mapper treats as infeasible.
    """
    if latency_constraint <= 0:
        raise ConfigurationError(
            f"latency constraint must be positive, got {latency_constraint}"
        )
    if slots_owned <= 0:
        raise ConfigurationError(f"slots_owned must be positive, got {slots_owned}")
    slot_wait = math.ceil(params.slot_table_size / slots_owned)
    budget_cycles = latency_constraint / params.slot_duration
    # The quotient can land just under an integer when the constraint equals
    # a path's bound exactly, so the floor is only an estimate (off by at
    # most one): step it to the exact inverse of worst_case_latency, which
    # is increasing in the hop count.  A same-switch placement (0 hops)
    # only pays the NI overhead.
    hops = max(0, math.floor(budget_cycles - slot_wait - NI_OVERHEAD_CYCLES))
    while worst_case_latency(hops + 1, slots_owned, params) <= latency_constraint:
        hops += 1
    while hops >= 0 and worst_case_latency(hops, slots_owned, params) > latency_constraint:
        hops -= 1
    return hops

"""Simulated-annealing refinement of the core placement.

The neighbourhood is the classic one for quadratic-assignment-style mapping
problems: swap the switches of two cores, or move one core to a switch that
still has a free NI port.  Every candidate placement is re-mapped (path
selection and slot reservation re-run) on the *same* topology, so a
candidate is only accepted if it still satisfies every use-case's
constraints; among feasible placements the total communication cost
(Σ bandwidth × hops over all use-cases) is minimised.

Candidate evaluation goes through a
:class:`~repro.core.engine.MappingEngine`: the specification is compiled
once, the ``GroupRequirement``/worklist derivation is cached for the whole
run, and group evaluations are memoised on the placement of their endpoint
cores, so revisited placements (swap/swap-back is common at low
temperature) cost a cache lookup instead of a re-map.  Decisions are
bit-identical to re-mapping from scratch.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.engine import MappingEngine
from repro.core.result import MappingResult, total_communication_cost
from repro.core.usecase import UseCaseSet
from repro.exceptions import ConfigurationError

__all__ = [
    "RefinementResult",
    "AnnealingRefiner",
    "refine_mapping",
    "DEFAULT_INITIAL_TEMPERATURE",
]

#: the annealing schedule's default starting temperature; portfolio chains
#: scale this by a per-chain factor to diversify their acceptance behaviour
DEFAULT_INITIAL_TEMPERATURE = 0.08


@dataclass
class RefinementResult:
    """Outcome of a refinement pass."""

    initial: MappingResult
    refined: MappingResult
    initial_cost: float
    refined_cost: float
    iterations: int
    accepted_moves: int

    @property
    def improvement(self) -> float:
        """Fractional cost reduction achieved by the refinement (>= 0)."""
        if self.initial_cost <= 0:
            return 0.0
        return max(0.0, 1.0 - self.refined_cost / self.initial_cost)


class AnnealingRefiner:
    """Simulated annealing over core swaps and moves."""

    def __init__(
        self,
        iterations: int = 200,
        initial_temperature: float = DEFAULT_INITIAL_TEMPERATURE,
        cooling: float = 0.97,
        seed: int = 0,
    ) -> None:
        if iterations < 0:
            raise ConfigurationError("iterations must be non-negative")
        if initial_temperature <= 0 or not 0 < cooling < 1:
            raise ConfigurationError("invalid annealing schedule")
        self.iterations = iterations
        self.initial_temperature = initial_temperature
        self.cooling = cooling
        self.seed = seed

    def refine(
        self,
        result: MappingResult,
        use_cases: UseCaseSet,
        groups=None,
        engine: MappingEngine | None = None,
    ) -> RefinementResult:
        """Refine the core placement of an existing mapping result."""
        rng = random.Random(self.seed)
        engine = engine or MappingEngine(params=result.params, config=result.config)
        group_spec = groups if groups is not None else [list(g) for g in result.groups]
        # Compiling validates (and freezes) the specification once; every
        # candidate below re-evaluates the same compiled spec on the same
        # topology through the engine's requirement and evaluation caches.
        spec = engine.compile(use_cases)
        # Cost-only candidate evaluation: the walk tracks placements and
        # costs alone, and only the single best placement is materialised
        # into a full result after the loop (the evaluation cache makes
        # that final call assembly-only).  Results are pure functions of
        # the placement, so this is decision-for-decision identical to
        # materialising every accepted move.  The candidate screen answers
        # the costs through the engine's cache hierarchy, returning None
        # exactly where placement_cost raises MappingError.
        candidate_screen = engine.screener(spec, result.topology, groups=group_spec)
        current_placement = result.core_mapping
        current_cost = total_communication_cost(result)
        best_placement: Optional[Dict[str, int]] = None  # None = the initial
        best_cost = current_cost
        temperature = self.initial_temperature
        accepted = 0

        cores = sorted(result.core_mapping)
        for _ in range(self.iterations):
            placement = self._neighbour(current_placement, cores, result, rng)
            if placement is None:
                temperature *= self.cooling
                continue
            candidate_cost = candidate_screen.cost(placement)
            if candidate_cost is None:
                temperature *= self.cooling
                continue
            delta = (candidate_cost - current_cost) / max(current_cost, 1e-9)
            if delta <= 0 or rng.random() < math.exp(-delta / max(temperature, 1e-9)):
                current_placement, current_cost = placement, candidate_cost
                accepted += 1
                if candidate_cost < best_cost:
                    best_placement, best_cost = placement, candidate_cost
            temperature *= self.cooling
        if best_placement is None:
            best = result
        else:
            best = engine.evaluate_placement(
                spec, result.topology, best_placement, groups=group_spec,
                method_name=result.method,
            )
        return RefinementResult(
            initial=result,
            refined=best,
            initial_cost=total_communication_cost(result),
            refined_cost=best_cost,
            iterations=self.iterations,
            accepted_moves=accepted,
        )

    def _neighbour(
        self,
        placement: Dict[str, int],
        cores,
        result: MappingResult,
        rng: random.Random,
    ) -> Optional[Dict[str, int]]:
        """A random swap of two cores or move of one core to a free switch."""
        if len(cores) < 2:
            return None
        candidate = dict(placement)
        if rng.random() < 0.5:
            first, second = rng.sample(cores, 2)
            candidate[first], candidate[second] = candidate[second], candidate[first]
            return candidate
        core = rng.choice(cores)
        limit = result.params.max_cores_per_switch
        occupancy: Dict[int, int] = {}
        for switch in candidate.values():
            occupancy[switch] = occupancy.get(switch, 0) + 1
        options = [
            switch.index
            for switch in result.topology.switches
            if switch.index != candidate[core]
            and (limit is None or occupancy.get(switch.index, 0) < limit)
        ]
        if not options:
            return None
        candidate[core] = rng.choice(options)
        return candidate


def refine_mapping(
    result: MappingResult,
    use_cases: UseCaseSet,
    iterations: int = 200,
    seed: int = 0,
) -> RefinementResult:
    """Convenience wrapper around :class:`AnnealingRefiner`."""
    refiner = AnnealingRefiner(iterations=iterations, seed=seed)
    return refiner.refine(result, use_cases)

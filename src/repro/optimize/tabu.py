"""Tabu-search refinement of the core placement.

Same neighbourhood and objective as the annealing refiner
(:mod:`repro.optimize.annealing`): swap the switches of two cores, keep the
topology fixed, minimise Σ bandwidth × hops subject to every use-case's
constraints.  Instead of probabilistic acceptance, the search evaluates a
sample of neighbours per iteration, moves to the best non-tabu one (even if
it is worse — that is how tabu search escapes local minima) and remembers
recently swapped core pairs in a tabu list so they are not immediately
undone.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.core.engine import MappingEngine
from repro.core.result import MappingResult, total_communication_cost
from repro.core.usecase import UseCaseSet
from repro.exceptions import ConfigurationError
from repro.noc.resources import PRUNE_MARGIN
from repro.optimize.annealing import RefinementResult

__all__ = ["TabuRefiner"]


class TabuRefiner:
    """Tabu search over core-swap moves."""

    def __init__(
        self,
        iterations: int = 50,
        neighbours_per_iteration: int = 8,
        tabu_tenure: int = 10,
        seed: int = 0,
    ) -> None:
        if iterations < 0 or neighbours_per_iteration <= 0 or tabu_tenure < 0:
            raise ConfigurationError("invalid tabu search configuration")
        self.iterations = iterations
        self.neighbours_per_iteration = neighbours_per_iteration
        self.tabu_tenure = tabu_tenure
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
        # Compiling validates (and freezes) the specification once; candidate
        # evaluations share the engine's requirement and evaluation caches.
        spec = engine.compile(use_cases)
        # Cost-only evaluation per sampled neighbour; the search walks
        # placements and costs alone, and only the single best placement is
        # materialised into a full result after the loop (assembly-only
        # thanks to the evaluation cache; results are pure functions of the
        # placement, so decisions are unchanged).  Each iteration's whole
        # sample is screened at once, and candidates whose cost lower bound
        # already exceeds the iteration's running winner are skipped
        # without an exact evaluation.
        candidate_screen = engine.screener(spec, result.topology, groups=group_spec)
        cores = sorted(result.core_mapping)

        current_placement = result.core_mapping
        current_cost = total_communication_cost(result)
        best_placement: Optional[Dict[str, int]] = None  # None = the initial
        best_cost = current_cost
        tabu: Deque[Tuple[str, str]] = deque(maxlen=self.tabu_tenure or None)
        accepted = 0

        for _ in range(self.iterations):
            if len(cores) < 2:
                break
            winner = self._screened_iteration(
                candidate_screen, current_placement, cores, tabu, rng
            )
            if winner is None:
                continue
            cost, placement, move = winner
            current_placement, current_cost = placement, cost
            tabu.append(move)
            accepted += 1
            if cost < best_cost:
                best_placement, best_cost = placement, cost
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

    def _screened_iteration(
        self,
        candidate_screen,
        current_placement: Dict[str, int],
        cores: List[str],
        tabu,
        rng: random.Random,
    ) -> Optional[Tuple[float, Dict[str, int], Tuple[str, str]]]:
        """One tabu iteration through the batched candidate screen.

        Samples the iteration's neighbours first (the tabu check precedes
        any evaluation), batch-screens them, then evaluates in sample order
        keeping a running strict-``<`` minimum — the same winner a stable
        sort of the sample by exact cost selects.  A candidate is skipped without exact
        evaluation only when screening proves it cannot win: its projection
        is a known infeasibility, or its cost lower bound exceeds the
        running winner beyond any float-accumulation noise (the relative
        ``PRUNE_MARGIN``; a feasible candidate's exact cost is never below
        its lower bound by more than that).  Returns the winning
        ``(cost, placement, move)``, or ``None`` when every sampled move
        was tabu or infeasible.
        """
        sampled: List[Tuple[Dict[str, int], Tuple[str, str]]] = []
        for _ in range(self.neighbours_per_iteration):
            first, second = rng.sample(cores, 2)
            move = tuple(sorted((first, second)))
            if move in tabu:
                continue
            placement = dict(current_placement)
            placement[first], placement[second] = (
                placement[second], placement[first],
            )
            sampled.append((placement, move))
        reports = candidate_screen.screen(
            [placement for placement, _move in sampled]
        )
        winner: Optional[Tuple[float, Dict[str, int], Tuple[str, str]]] = None
        for (placement, move), report in zip(sampled, reports):
            if not report.admissible:
                continue
            if (
                winner is not None
                and report.lower_bound > winner[0] + PRUNE_MARGIN * abs(winner[0])
            ):
                continue  # provably cannot beat the running winner
            cost = report.cost
            if cost is None:
                cost = candidate_screen.cost(placement)
                if cost is None:
                    continue
            if winner is None or cost < winner[0]:
                winner = (cost, placement, move)
        return winner

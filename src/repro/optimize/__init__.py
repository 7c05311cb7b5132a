"""Post-mapping refinement of the core placement.

The paper notes (§5) that "once the initial mapping step is performed, the
solution space can be explored further by considering swapping of vertices
using simulated annealing or tabu search".  This package provides both:

* :mod:`repro.optimize.annealing` — simulated annealing over core swaps/moves.
* :mod:`repro.optimize.tabu` — tabu search over the same neighbourhood.

Both keep the topology fixed (the mapper already found the smallest feasible
one) and minimise the total communication cost — the sum over all use-cases
and flows of bandwidth × hop count — which is the first-order proxy for NoC
power.

Two layers scale the search up without changing any decision it makes:

* :mod:`repro.optimize.screen` — batched candidate screening: both
  refiners evaluate neighbour placements through a
  :class:`~repro.optimize.screen.CandidateScreen`, which memoises per-group
  cost sums for the run and prunes neighbours on exact lower bounds, with
  the engine's fixed-placement evaluator underneath.
* :mod:`repro.optimize.portfolio` — a portfolio of refinement chains with
  distinct seeds/temperatures sharing one engine-state store, reduced to
  a deterministic best-of.

A separate entry point sidesteps the heuristic+refinement pipeline
entirely: :mod:`repro.optimize.ilp` solves the core-to-switch assignment
*exactly* with a pure-Python branch-and-bound — exponential in the core
count, but the ground truth the heuristics are measured against
(``python -m repro gap``).
"""

from repro.optimize.annealing import AnnealingRefiner, RefinementResult, refine_mapping
from repro.optimize.ilp import EXACT_METHOD_NAME, exact_mapping, solver_invocations
from repro.optimize.screen import CandidateScreen, ScreenedCandidate
from repro.optimize.tabu import TabuRefiner

__all__ = [
    "AnnealingRefiner",
    "TabuRefiner",
    "RefinementResult",
    "refine_mapping",
    "CandidateScreen",
    "ScreenedCandidate",
    "EXACT_METHOD_NAME",
    "exact_mapping",
    "solver_invocations",
]

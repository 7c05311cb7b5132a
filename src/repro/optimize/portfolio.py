"""Portfolio refinement: N diversified chains, one deterministic best-of.

A portfolio runs several annealing/tabu refinement chains over the *same*
design, each with a distinct seed (and, for annealing, a distinct starting
temperature), and keeps the best result.  Diversity is the whole point:
one chain's random walk gets stuck in a local minimum that another chain's
hotter schedule escapes, so at a fixed wall-clock budget the best-of-N
frontier dominates a single serial chain of the same total iteration
count.

The chains are expressed as plain :class:`~repro.jobs.spec.RefineJob`
siblings (:func:`chain_refine_jobs`) so the existing jobs machinery runs
them — serially in-process, or over the runner's ``ProcessPoolExecutor`` —
and so every chain warm-starts from the shared
:class:`~repro.jobs.store.EngineStateStore` the executions are attached
to: the initial mapping — minimal, or forced onto the portfolio's
``mesh`` — is computed once and every chain reads it from the store, and
candidate evaluations one chain performed are recalled (not recomputed) by
every other chain that visits the same group projection.  Chain 0 uses the refiner defaults
exactly, which is what makes a 1-chain portfolio bit-identical to the
plain refine job.

Everything here is a pure function of the portfolio spec:
:func:`reduce_best` breaks cost ties by chain index, so a fixed
(seed, chains) pair reproduces the identical winner no matter how the
chains were scheduled.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.optimize.annealing import DEFAULT_INITIAL_TEMPERATURE

__all__ = [
    "CHAIN_TEMPERATURE_FACTOR",
    "chain_refine_jobs",
    "chain_initial_temperature",
    "reduce_best",
    "chain_summary",
]

#: per-chain geometric scaling of the annealing starting temperature:
#: chain i anneals from DEFAULT × FACTOR^i, so later chains accept worse
#: intermediate moves and explore further from the initial placement
CHAIN_TEMPERATURE_FACTOR = 1.6


def chain_initial_temperature(method: str, chain_index: int) -> Optional[float]:
    """The starting temperature of one chain (``None`` = refiner default).

    Chain 0 always uses the default — that is the bit-identity anchor to
    the plain refine job — and tabu chains have no temperature at all
    (they diversify through their seeds alone).
    """
    if method != "annealing" or chain_index == 0:
        return None
    return DEFAULT_INITIAL_TEMPERATURE * CHAIN_TEMPERATURE_FACTOR ** chain_index


def chain_refine_jobs(job) -> List:
    """The portfolio's chains as plain :class:`RefineJob` siblings.

    Chain ``i`` refines with ``seed + i`` and
    :func:`chain_initial_temperature`; everything else (design, operating
    point, method, iteration budget, grouping) is shared.  Each chain is a
    self-contained job the runner can execute anywhere — in this process
    or a pool worker — and its payload is a pure function of this derived
    spec.
    """
    from repro.jobs.spec import RefineJob

    return [
        RefineJob(
            use_cases=job.use_cases,
            params=job.params,
            config=job.config,
            method=job.method,
            iterations=job.iterations,
            seed=job.seed + index,
            groups=job.groups,
            initial_temperature=chain_initial_temperature(job.method, index),
            mesh=getattr(job, "mesh", None),
        )
        for index in range(job.chains)
    ]


def reduce_best(payloads: Sequence[Dict]) -> int:
    """Index of the winning chain: lowest refined cost, ties to the lowest index.

    Chains that failed to map are skipped; if every chain failed, chain 0
    stands for the portfolio (its failure payload is the outcome).  The
    (cost, index) ordering makes the reduction deterministic for a fixed
    chain list regardless of execution order or parallelism.
    """
    best_index: Optional[int] = None
    best_cost: Optional[float] = None
    for index, payload in enumerate(payloads):
        if not payload.get("mapped"):
            continue
        cost = payload["refined_cost"]
        if best_cost is None or cost < best_cost:
            best_index, best_cost = index, cost
    return 0 if best_index is None else best_index


def chain_summary(chain_job, payload: Dict) -> Dict:
    """The deterministic per-chain record the portfolio payload carries."""
    summary = {
        "seed": chain_job.seed,
        "initial_temperature": chain_job.initial_temperature,
        "mapped": bool(payload.get("mapped")),
    }
    if summary["mapped"]:
        summary.update(
            {
                "refined_cost": payload["refined_cost"],
                "improvement": payload["improvement"],
                "accepted_moves": payload["accepted_moves"],
                "fingerprint": payload["fingerprint"],
            }
        )
    else:
        summary["error"] = payload.get("error")
    return summary

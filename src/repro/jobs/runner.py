"""Job execution: uniform result envelopes, a process pool, and caching.

:class:`JobRunner` is the execution half of the jobs API.  It owns three
responsibilities and nothing else:

* **dispatch** — every job kind maps to one executor function that drives
  the engine-backed consumer which already existed (``DesignFlow``, the
  worst-case baseline, the refiners, the frequency search, the analysis
  sweeps).  Executors are module-level functions of the job spec alone, so
  the same code runs in-process and inside pool workers, and a job's payload
  is a pure function of its spec — which is what makes parallel execution
  bit-identical to serial and results safe to cache.
* **parallelism** — :meth:`JobRunner.run_many` farms jobs out over a
  ``ProcessPoolExecutor`` (``workers >= 2``); results come back in
  submission order and duplicate specs are computed once.
* **persistence** — with a ``cache_dir``, results are stored on disk keyed
  by :func:`repro.jobs.spec.job_hash` (design content + params + config +
  kind + knobs) and later runs — in this process or any other — skip
  execution entirely.  The cache's :class:`~repro.jobs.store.EngineStateStore`
  additionally warm-starts the *inside* of executions: fresh engines read
  previously computed mappings and fixed-placement evaluations straight
  from disk, so even a job whose hash was never cached skips the work a
  sibling already did.

Every execution returns a :class:`JobResult` envelope: the job kind, the
spec hash, the params/config the job ran under, the deterministic
``payload`` dictionary, and diagnostics (wall time, engine cache sizes)
that are deliberately *outside* the payload so payloads can be compared
across serial, parallel and cached runs.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.design_flow import DesignFlow
from repro.core.engine import MappingEngine
from repro.core.result import total_communication_cost
from repro.exceptions import MappingError, SpecificationError
from repro.io.serialization import mapping_fingerprint, mapping_result_to_dict
from repro.jobs.cache import JobCache
from repro.jobs.spec import (
    DesignFlowJob,
    FrequencyJob,
    GapJob,
    JobSpec,
    PortfolioRefineJob,
    RefineJob,
    RepairJob,
    SweepJob,
    WorstCaseJob,
    job_hash,
    job_to_dict,
    resolve_job,
)
from repro.noc.topology import Topology

__all__ = ["JobResult", "JobRunner", "execute_job"]

#: the keys of :meth:`JobResult.to_dict`, in its order
_ENVELOPE_KEYS = [
    "kind", "spec_hash", "params", "config", "payload", "elapsed_s", "cached", "stats",
]


@dataclass
class JobResult:
    """Uniform envelope every job execution returns.

    ``payload`` is the deterministic outcome (bit-identical across serial,
    parallel and cached execution); ``elapsed_s``, ``stats`` and ``cached``
    are diagnostics and vary run to run.

    ``text`` is the envelope's JSON, which :meth:`to_json` returns.  A
    cache hit arrives with it set to the stored bytes (``cached`` flipped
    to ``true``); otherwise the first :meth:`to_json` call encodes it.  It
    is not part of the envelope: :meth:`to_dict`, equality and ``repr``
    leave it out, and it is not updated if a field changes afterwards.
    """

    kind: str
    spec_hash: str
    params: Dict
    config: Dict
    payload: Dict
    elapsed_s: float = 0.0
    cached: bool = False
    stats: Dict = field(default_factory=dict)
    text: Optional[str] = field(default=None, compare=False, repr=False)

    def to_json(self) -> str:
        """The envelope as compact JSON, encoded at most once.

        Equal to ``json.dumps(self.to_dict())``.  The text is kept, so a
        fresh result's cache entry and its results-file entry are one
        string, and a cache hit publishes the bytes it read.
        """
        if self.text is None:
            self.text = json.dumps(self.to_dict())
        return self.text

    def to_dict(self) -> Dict:
        """JSON-ready dictionary form (what :meth:`to_json` encodes)."""
        return {
            "kind": self.kind,
            "spec_hash": self.spec_hash,
            "params": self.params,
            "config": self.config,
            "payload": self.payload,
            "elapsed_s": self.elapsed_s,
            "cached": self.cached,
            "stats": self.stats,
        }

    @classmethod
    def from_dict(cls, document: Dict) -> "JobResult":
        """Rebuild an envelope from its dictionary form.

        Unknown keys are ignored — e.g. the ``engine_results`` that
        envelopes written before the store was the only warm-start path
        still carry.
        """
        return cls(
            kind=document["kind"],
            spec_hash=document["spec_hash"],
            params=document.get("params", {}),
            config=document.get("config", {}),
            payload=document.get("payload", {}),
            elapsed_s=float(document.get("elapsed_s", 0.0)),
            cached=bool(document.get("cached", False)),
            stats=document.get("stats", {}),
        )

    @classmethod
    def from_cache_entry(cls, text: str, document: Dict) -> "JobResult":
        """The cache hit a stored entry answers; ``document`` is ``text`` parsed.

        An entry :class:`~repro.jobs.cache.JobCache` stored is
        :meth:`to_json`, so it ends with ``, "cached": false, "stats":
        <stats>}``.  When ``document`` has exactly :meth:`to_dict`'s keys
        in that order, its ``cached`` is false and ``text`` ends with
        exactly that suffix re-encoded from the parsed ``stats``, the hit's
        :attr:`text` is ``text`` with the suffix swapped for its ``true``
        form: the bytes ``json.dumps`` would write for the hit.  Any other
        layout leaves :attr:`text` unset, to be encoded from the document.
        """
        hit = cls.from_dict(document)
        hit.cached = True
        if list(document) == _ENVELOPE_KEYS and document["cached"] is False:
            stats = json.dumps(document["stats"])
            stored = f', "cached": false, "stats": {stats}}}'
            if text.endswith(stored):
                hit.text = f'{text[:-len(stored)]}, "cached": true, "stats": {stats}}}'
        return hit


# --------------------------------------------------------------------------- #
# per-kind executors
# --------------------------------------------------------------------------- #
def _mapping_payload(result) -> Dict:
    """The common payload of one mapping: summary, full dict, fingerprint."""
    return {
        "mapped": True,
        "summary": result.summary(),
        "mapping": mapping_result_to_dict(result),
        "fingerprint": mapping_fingerprint(result),
    }


def _failure_payload(error: MappingError) -> Dict:
    """Payload of an expected mapping failure (the paper reports these too)."""
    payload = {"mapped": False, "error": str(error)}
    largest = getattr(error, "largest_topology", None)
    if largest is not None:
        payload["largest_topology"] = largest
    return payload


def _execute_design_flow(job: DesignFlowJob, engine: MappingEngine) -> Dict:
    flow = DesignFlow(engine=engine, verify=job.verify)
    try:
        outcome = flow.run(
            job.use_cases.build(),
            parallel_modes=job.parallel_modes,
            smooth_switching=job.smooth_switching,
        )
    except MappingError as exc:
        return _failure_payload(exc)
    payload = _mapping_payload(outcome.mapping)
    payload["flow"] = outcome.summary()
    payload["verification_passed"] = (
        None if outcome.verification is None else outcome.verification.passed
    )
    return payload


def _execute_worst_case(job: WorstCaseJob, engine: MappingEngine) -> Dict:
    try:
        result = engine.worst_case(job.use_cases.build())
    except MappingError as exc:
        return _failure_payload(exc)
    return _mapping_payload(result)


def _initial_mapping(job, use_cases, groups, engine: MappingEngine):
    """The mapping a refinement starts from: minimal or a forced mesh.

    With ``mesh`` set the design is placed onto that exact mesh (the
    big-mesh campaign regime — the unified flow would otherwise select the
    smallest feasible topology, which for the paper-scale designs is a
    2x2); without it, the engine's minimal-topology mapping.  Either way
    the engine caches it and reads it from an attached store.
    """
    mesh = None if job.mesh is None else Topology.mesh(*job.mesh)
    return engine.map(use_cases, groups=groups, topology=mesh)


def _execute_refine(job: RefineJob, engine: MappingEngine) -> Dict:
    from repro.optimize import AnnealingRefiner, TabuRefiner

    use_cases = job.use_cases.build()
    groups = None if job.groups is None else [list(group) for group in job.groups]
    try:
        initial = _initial_mapping(job, use_cases, groups, engine)
    except MappingError as exc:
        return _failure_payload(exc)
    if job.method == "tabu":
        refiner = TabuRefiner(iterations=job.iterations, seed=job.seed)
    elif job.initial_temperature is not None:
        refiner = AnnealingRefiner(
            iterations=job.iterations, seed=job.seed,
            initial_temperature=job.initial_temperature,
        )
    else:
        refiner = AnnealingRefiner(iterations=job.iterations, seed=job.seed)
    refinement = refiner.refine(initial, use_cases, groups=groups, engine=engine)
    payload = _mapping_payload(refinement.refined)
    payload.update(
        {
            "initial_fingerprint": mapping_fingerprint(refinement.initial),
            "initial_cost": refinement.initial_cost,
            "refined_cost": refinement.refined_cost,
            "improvement": refinement.improvement,
            "iterations": refinement.iterations,
            "accepted_moves": refinement.accepted_moves,
        }
    )
    return payload


def _execute_portfolio(job: "PortfolioRefineJob", engine: MappingEngine) -> Dict:
    """Run a portfolio of refinement chains and reduce to the best.

    The initial mapping (minimal, or on the forced ``mesh``) is computed
    once on the enveloping engine and ingested into the shared engine-state
    store (the runner-attached store when there is one, a throwaway
    directory otherwise); every chain — expressed as a plain
    :class:`RefineJob` and executed by the runner's own serial-or-pool
    dispatch (:meth:`JobRunner._execute_pending`) — reads it (and each
    other's candidate evaluations) from there instead of recomputing.
    Chain payloads are pure functions of their derived specs, so the
    best-of reduction is reproducible for a fixed (seed, chains) pair no
    matter how the chains were scheduled.  The chains' engine counters are
    folded into the enveloping engine's, so the envelope's
    ``stats["engine"]`` accounts for the whole portfolio's traffic.
    """
    import tempfile

    from repro.optimize.portfolio import chain_refine_jobs, chain_summary, reduce_best

    use_cases = job.use_cases.build()
    groups = None if job.groups is None else [list(group) for group in job.groups]
    try:
        _initial_mapping(job, use_cases, groups, engine)
    except MappingError as exc:
        return _failure_payload(exc)
    chains = chain_refine_jobs(job)
    scratch = None
    if engine._store is not None:
        store = engine._store
    else:
        from repro.jobs.store import EngineStateStore

        scratch = tempfile.TemporaryDirectory(prefix="repro-portfolio-")
        store = EngineStateStore(scratch.name)
    try:
        # Seed the shared store with the initial mapping (and anything else
        # this engine already computed) before any chain starts.
        store.ingest(engine.export_results(), engine.export_evaluations())
        chain_results = JobRunner._execute_pending(
            [(chain, job_hash(chain)) for chain in chains],
            job.workers,
            str(store.directory),
        )
    finally:
        if scratch is not None:
            scratch.cleanup()
    for result in chain_results:
        chain_counters = result.stats.get("engine", {})
        for counter in engine._counters:
            engine._counters[counter] += int(chain_counters.get(counter, 0))
    payloads = [result.payload for result in chain_results]
    best_index = reduce_best(payloads)
    payload = dict(payloads[best_index])
    payload["portfolio"] = {
        "chains": job.chains,
        "method": job.method,
        "best_chain": best_index,
        "chain_results": [
            chain_summary(chain, chain_payload)
            for chain, chain_payload in zip(chains, payloads)
        ],
    }
    return payload


def _execute_frequency(job: FrequencyJob, engine: MappingEngine) -> Dict:
    from repro.analysis.frequency import minimum_design_frequency
    from repro.units import mhz

    grid = (
        None
        if job.frequencies_mhz is None
        else [mhz(value) for value in job.frequencies_mhz]
    )
    groups = None if job.groups is None else [list(group) for group in job.groups]
    frequency = minimum_design_frequency(
        job.use_cases.build(),
        frequencies=grid,
        groups=groups,
        max_switches=job.max_switches,
        engine=engine,
    )
    return {
        "mapped": frequency is not None,
        "required_frequency_mhz": None if frequency is None else frequency / 1e6,
    }


def _execute_sweep(job: SweepJob, engine: MappingEngine) -> Dict:
    from repro.analysis import sweeps

    if job.study == "normalized_switch_count":
        rows = sweeps.normalized_switch_count_study(engine=engine)
    elif job.study == "use_case_count":
        rows = sweeps.use_case_count_sweep(
            job.benchmark,
            use_case_counts=job.use_case_counts,
            core_count=job.core_count,
            seed=job.seed,
            engine=engine,
        )
    elif job.study == "headline":
        return {"headline": sweeps.headline_summary(engine=engine)}
    elif job.study == "parallel_use_cases":
        rows = sweeps.parallel_use_case_study(
            parallelism_levels=job.parallelism_levels,
            use_case_count=job.use_case_count,
            core_count=job.core_count,
            seed=job.seed,
            max_switches=job.max_switches,
            engine=engine,
        )
    else:
        use_cases = job.use_cases.build()
        if job.study == "ablation_flow_ordering":
            rows = sweeps.ablation_flow_ordering(use_cases, engine=engine)
        elif job.study == "ablation_routing_policy":
            rows = sweeps.ablation_routing_policy(use_cases, engine=engine)
        elif job.study == "ablation_slot_table_size":
            rows = sweeps.ablation_slot_table_size(
                use_cases, sizes=job.slot_table_sizes, engine=engine
            )
        else:  # ablation_grouping — SweepJob validated the study name already
            rows = sweeps.ablation_grouping(use_cases, engine=engine)
    return {"rows": [row.as_dict() for row in rows]}


def _repair_baseline(job: RepairJob, use_cases, engine: MappingEngine):
    """Materialise the baseline mapping a repair job starts from.

    A supplied baseline must map the job's design
    (:func:`~repro.core.repair.check_baseline` raises otherwise); a
    computed one is the engine's mapping, minimal or on the provisioned
    mesh, read from the attached store when a sibling already stored it.
    """
    groups = None if job.groups is None else [list(group) for group in job.groups]
    if job.baseline is not None:
        from repro.core.repair import check_baseline
        from repro.io.serialization import load_mapping_result, mapping_result_from_dict

        if job.baseline.get("inline") is not None:
            baseline = mapping_result_from_dict(job.baseline["inline"])
        else:
            baseline = load_mapping_result(job.baseline["path"])
        check_baseline(baseline, use_cases)
        return baseline
    mesh = None if job.provision is None else Topology.mesh(*job.provision)
    return engine.map(use_cases, groups=groups, topology=mesh)


def _execute_repair(job: RepairJob, engine: MappingEngine) -> Dict:
    from repro.core.repair import repair_mapping
    from repro.noc.failures import FailureSet

    use_cases = job.use_cases.build()
    failures = FailureSet.from_dict(job.failures)
    groups = None if job.groups is None else [list(group) for group in job.groups]
    try:
        # The baseline is always the design-bandwidth mapping: live traffic
        # re-characterisations splice *against* it, they don't move it.
        baseline = _repair_baseline(job, use_cases, engine)
    except MappingError as exc:
        return _failure_payload(exc)
    changed_use_cases: Tuple[str, ...] = ()
    if job.traffic:
        from repro.ops.events import apply_traffic

        overrides = {
            (name, source, destination): bandwidth
            for name, source, destination, bandwidth in job.traffic
        }
        use_cases, changed_use_cases = apply_traffic(use_cases, overrides)
    outcome = repair_mapping(
        engine, use_cases, baseline, failures,
        groups=groups, compare_full_remap=job.compare_full_remap,
        changed_use_cases=changed_use_cases,
    )
    if outcome.repaired is None:
        payload: Dict = {"mapped": False, "unrepairable": list(outcome.unrepairable)}
    else:
        payload = _mapping_payload(outcome.repaired)
    payload["baseline_fingerprint"] = mapping_fingerprint(baseline)
    metrics = outcome.metrics()
    # Wall times and cache-counter deltas vary run to run (warm vs cold);
    # payloads must stay bit-identical across serial/parallel/cached
    # execution, so those live in the envelope's stats, not here.
    for volatile in ("elapsed_s", "full_remap_elapsed_s", "evaluations"):
        metrics.pop(volatile, None)
    payload["repair"] = metrics
    if job.compare_full_remap and outcome.full_remap is not None:
        payload["full_remap_fingerprint"] = mapping_fingerprint(outcome.full_remap)
    return payload


def _gap_entry(result) -> Dict:
    """One method's row in a gap payload: cost, size and identity."""
    return {
        "cost": round(total_communication_cost(result), 6),
        "switch_count": result.switch_count,
        "topology": result.topology.name,
        "fingerprint": mapping_fingerprint(result),
    }


def _gap_metrics(cost: float, exact_cost: float) -> Dict:
    absolute = round(cost - exact_cost, 6)
    relative = 0.0 if exact_cost == 0 else round((cost - exact_cost) / exact_cost, 6)
    return {"gap_absolute": absolute, "gap_relative": relative}


def _execute_gap(job: GapJob, engine: MappingEngine) -> Dict:
    """Exact + heuristic (+ optionally refined) mapping, reduced to gaps.

    The exact result is the payload's primary mapping; every method row
    carries its cost, topology and fingerprint plus its gap against the
    optimum.  ``validate_mapping`` — the referee shared with the heuristics
    and the test suite — re-judges the exact result, and its verdict rides
    in the payload.  Solver wall time lives in the envelope stats like all
    volatile diagnostics, so the payload is byte-deterministic.
    """
    from repro.core.validate import validate_mapping
    from repro.optimize.ilp import exact_mapping

    use_cases = job.use_cases.build()
    groups = None if job.groups is None else [list(group) for group in job.groups]
    try:
        exact = exact_mapping(
            use_cases, groups=groups, engine=engine,
            solver=job.solver, node_limit=job.node_limit,
        )
    except MappingError as exc:
        return _failure_payload(exc)
    validation = validate_mapping(exact, use_cases)
    exact_entry = _gap_entry(exact)
    gap: Dict = {
        "solver": job.solver,
        "exact": exact_entry,
        "validated": validation.ok,
    }
    if not validation.ok:  # pragma: no cover - the exact backend is validated
        gap["validation_issues"] = [str(issue) for issue in validation.issues]
    try:
        heuristic = engine.map(use_cases, groups=groups)
    except MappingError as exc:
        gap["heuristic"] = {"mapped": False, "error": str(exc)}
    else:
        entry = _gap_entry(heuristic)
        entry.update(_gap_metrics(entry["cost"], exact_entry["cost"]))
        gap["heuristic"] = entry
        if job.refine_iterations:
            from repro.optimize import AnnealingRefiner

            refinement = AnnealingRefiner(
                iterations=job.refine_iterations, seed=job.seed
            ).refine(heuristic, use_cases, groups=groups, engine=engine)
            entry = _gap_entry(refinement.refined)
            entry.update(_gap_metrics(entry["cost"], exact_entry["cost"]))
            gap["refined"] = entry
    payload = _mapping_payload(exact)
    payload["gap"] = gap
    return payload


_EXECUTORS: Dict[str, Callable[[JobSpec, MappingEngine], Dict]] = {
    DesignFlowJob.KIND: _execute_design_flow,
    WorstCaseJob.KIND: _execute_worst_case,
    RefineJob.KIND: _execute_refine,
    PortfolioRefineJob.KIND: _execute_portfolio,
    FrequencyJob.KIND: _execute_frequency,
    SweepJob.KIND: _execute_sweep,
    RepairJob.KIND: _execute_repair,
    GapJob.KIND: _execute_gap,
}


def execute_job(
    job: JobSpec,
    spec_hash: Optional[str] = None,
    store_path: Union[str, Path, None] = None,
) -> JobResult:
    """Execute one (resolved) job in this process and envelope the outcome.

    Every execution gets a fresh :class:`MappingEngine`, so the payload
    depends on the job spec alone — never on what ran before it in the same
    process — which is the invariant behind serial/parallel/cached parity.

    ``store_path`` names an on-disk
    :class:`~repro.jobs.store.EngineStateStore`: the fresh engine reads
    previously exported mapping results and fixed-placement evaluations
    directly from it on cache misses (only the keys it needs — nothing is
    shipped up front), and what the execution newly computed is ingested
    back afterwards.  This preserves the purity invariant because store
    reads only short-circuit deterministic recomputation — a warm payload
    is bit-identical to a cold one.
    """
    try:
        executor = _EXECUTORS[job.KIND]
    except (KeyError, AttributeError):
        raise SpecificationError(f"no executor for job {job!r}") from None
    engine = MappingEngine(params=job.params, config=job.config)
    store = None
    if store_path is not None:
        from repro.jobs.store import EngineStateStore

        store = EngineStateStore(store_path)
        engine.attach_store(store)
    started = time.perf_counter()
    payload = executor(job, engine)
    elapsed = time.perf_counter() - started
    if store is not None:
        # Persist what this execution newly computed (exports exclude
        # store-read state, and the store skips keys it already holds, so
        # the corpus stays proportional to distinct computations).
        store.ingest(engine.export_results(), engine.export_evaluations())
    return JobResult(
        kind=job.KIND,
        spec_hash=spec_hash or job_hash(job),
        params=job.params.to_dict(),
        config=job.config.to_dict(),
        # Canonicalise through JSON so in-process results are
        # indistinguishable from pool-transported or cache-loaded ones
        # (tuples become lists etc.).
        payload=json.loads(json.dumps(payload)),
        elapsed_s=elapsed,
        stats={"engine": engine.cache_info()},
    )


#: per-pool-worker engine-state store, installed once by the pool
#: initializer; the store *path* is the whole warm-start transport — each
#: worker reads only the keys it misses straight from disk
_WORKER_STORE_PATH: Optional[str] = None


def _init_worker(store_path: Optional[str]) -> None:
    global _WORKER_STORE_PATH
    _WORKER_STORE_PATH = store_path


def _execute_document(document: Dict, spec_hash: str) -> Dict:
    """Pool-worker entry point: job dict in, result dict out (both picklable)."""
    from repro.jobs.spec import job_from_dict

    return execute_job(
        job_from_dict(document), spec_hash, store_path=_WORKER_STORE_PATH
    ).to_dict()


# --------------------------------------------------------------------------- #
# the runner
# --------------------------------------------------------------------------- #
class JobRunner:
    """Executes job specs — serially, over a process pool, and via the cache.

    Parameters
    ----------
    workers:
        Default worker count for :meth:`run_many`; ``None``/``0``/``1`` run
        serially in-process.
    cache_dir:
        Optional directory of the persistent result cache.  When set,
        results are stored after execution and later runs (any process)
        return them without re-computing; :attr:`executed_jobs` counts the
        executions that actually happened.  Every execution's fresh engine
        is also attached to the cache's on-disk
        :class:`~repro.jobs.store.EngineStateStore` and ingests what it
        computed back into it, so a job that merely *contains*
        already-computed engine state — a refine job whose initial mapping
        a cached design-flow job produced, a warm refinement whose
        candidate evaluations a sibling run performed — reads it from the
        store instead of recomputing.  Workers receive the store *path*
        (never a pickled corpus) and fetch only the keys they miss.
        Payloads are unaffected: store reads only short-circuit
        deterministic recomputation.
    base_dir:
        Directory that relative ``path`` use-case sources resolve against
        (the CLI passes the job file's directory).
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        cache_dir: Union[str, Path, None] = None,
        base_dir: Union[str, Path, None] = None,
    ) -> None:
        self.workers = workers
        self.cache = None if cache_dir is None else JobCache(cache_dir)
        self.base_dir = base_dir
        #: number of jobs this runner actually executed (cache misses)
        self.executed_jobs = 0
        #: envelope file names sync_store need not read again: ones already
        #: folded, and ones this runner put itself (their engine state went
        #: straight into the store); later drains only read what appeared
        #: since
        self._seed_files: set = set()

    def run(self, job: JobSpec) -> JobResult:
        """Execute one job in-process (honouring the cache)."""
        return self.run_many([job], workers=1)[0]

    def run_many(
        self,
        jobs: Sequence[JobSpec],
        workers: Optional[int] = None,
    ) -> List[JobResult]:
        """Execute many jobs, returning results in the order given.

        Payloads are bit-identical to running each job serially: every
        execution is a pure function of its (resolved) spec.  Duplicate
        specs are executed once; cached specs are not executed at all.
        """
        workers = self.workers if workers is None else workers
        resolved = [resolve_job(job, self.base_dir) for job in jobs]
        hashes = [job_hash(job) for job in resolved]

        results: List[Optional[JobResult]] = [None] * len(jobs)
        pending: Dict[str, int] = {}  # spec hash -> first index needing it
        loaded: Dict[str, JobResult] = {}  # cache hits, read from disk once
        for index, spec_hash in enumerate(hashes):
            if spec_hash in pending:
                continue
            if spec_hash in loaded:
                results[index] = loaded[spec_hash]
                continue
            if self.cache is not None:
                hit = self.cache.get(spec_hash)
                if hit is not None:
                    loaded[spec_hash] = hit
                    results[index] = hit
                    continue
            pending[spec_hash] = index

        if pending:
            store_path = None
            if self.cache is not None:
                # Fold engine exports carried by envelopes written before
                # the store was the only warm-start path into the store,
                # then hand executions the store *path* — workers read only
                # the keys they miss; nothing is pickled to the pool.
                self.cache.sync_store(seen=self._seed_files)
                store_path = str(self.cache.store.directory)
            fresh = self._execute_pending(
                [(resolved[index], hashes[index]) for index in pending.values()],
                workers,
                store_path,
            )
            self.executed_jobs += len(fresh)
            for result in fresh:
                results[pending[result.spec_hash]] = result
                if self.cache is not None:
                    stored = self.cache.put(result.spec_hash, result)
                    self._seed_files.add(stored.name)

        # Fan results out to duplicate and cache-hit positions.
        by_hash = {
            result.spec_hash: result for result in results if result is not None
        }
        for index, spec_hash in enumerate(hashes):
            if results[index] is None:
                results[index] = by_hash[spec_hash]
        return list(results)  # type: ignore[arg-type]

    @staticmethod
    def _execute_pending(
        work: List,
        workers: Optional[int],
        store_path: Optional[str] = None,
    ) -> List[JobResult]:
        """Run (job, hash) pairs serially or over a process pool.

        ``workers >= 2`` always goes through the pool — even for a single
        job — so the transport path (pickling, worker imports) is exercised
        whenever the caller asked for it.  The store travels as its *path*
        via the pool initializer; each worker opens the store itself and
        reads only the keys its jobs miss.
        """
        if not workers or workers <= 1:
            return [
                execute_job(job, spec_hash, store_path=store_path)
                for job, spec_hash in work
            ]
        documents = [(job_to_dict(job), spec_hash) for job, spec_hash in work]
        with ProcessPoolExecutor(
            max_workers=min(workers, len(work)),
            initializer=_init_worker,
            initargs=(store_path,),
        ) as pool:
            futures = [
                pool.submit(_execute_document, document, spec_hash)
                for document, spec_hash in documents
            ]
            return [JobResult.from_dict(future.result()) for future in futures]

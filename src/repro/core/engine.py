"""The mapping session object: compiled specs plus caches shared across runs.

A :class:`MappingEngine` owns one :class:`~repro.core.mapping.UnifiedMapper`
(one operating point + algorithm configuration) and the caches that let the
rest of the system evaluate the same specification many times without
re-deriving anything:

* **spec cache** — ``UseCaseSet`` → :class:`~repro.core.spec.CompiledSpec`
  (compiling freezes the set, so a hit can never be stale);
* **requirement cache** — (spec hash, resolved grouping) →
  ``GroupRequirement``/``_Worklist`` bundle, shared by every refinement
  candidate, worst-case mesh attempt and sweep point;
* **evaluation cache** — (group, endpoint-placement projection) → the
  group's flow allocations, which makes repeated fixed-placement
  evaluations (the annealing/tabu inner loop) hit instead of re-mapping;
* **result cache** — (spec hash, grouping, method[, topology fingerprint])
  → ``MappingResult`` for full mapping runs — minimal-topology or forced
  onto one topology — shared by sweeps that revisit a design.

Engines are cheap to create; use :meth:`with_params` to derive a sibling at
a different operating point that *shares* the params-independent spec and
requirement caches (the frequency searches lean on this).

The result and evaluation caches are also *portable*:
:meth:`export_results` and :meth:`export_evaluations` serialise what an
engine computed, and :meth:`attach_store` points an engine at an on-disk
:class:`~repro.jobs.store.EngineStateStore` it reads keyed on cache misses
— the jobs layer ingests the exports into that store and uses it to
warm-start every execution from what sibling runs already computed
(:meth:`cache_info` documents the counters that prove it).

Everything the engine returns is bit-identical to driving
:class:`UnifiedMapper` directly — caches (including store-read state) only
ever short-circuit deterministic recomputation.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple, Union

from repro.core.mapping import GroupRequirement, GroupSpec, UnifiedMapper, _Worklist
from repro.core.result import (
    FlowAllocation,
    MappingResult,
    UseCaseConfiguration,
    total_communication_cost,
)
from repro.core.spec import CompiledSpec, compile_spec
from repro.core.switching import SwitchingGraph
from repro.core.usecase import UseCaseSet
from repro.exceptions import MappingError, ReproError
from repro.noc.slot_table import pipelined_link_slots
from repro.noc.topology import Topology
from repro.params import MapperConfig, NoCParameters

__all__ = ["MappingEngine"]

SpecLike = Union[UseCaseSet, CompiledSpec]

#: sentinel distinguishing "nothing stored" from a stored infeasibility (None)
_MISSING = object()


class _RequirementBundle:
    """Everything derived from (spec, grouping) that mapping runs share.

    A cold :meth:`MappingEngine.map` reads only ``requirements`` and
    ``worklist``.  The fixed-placement plan that evaluation, screening and
    repair read (``order``, ``group_plans``, ``group_endpoints``) is built
    on first use.
    """

    __slots__ = (
        "requirements",
        "worklist",
        "spec_core_names",
        "spec_hash",
        "groups_key",
        "_compiled_groups",
        "_core_index",
        "_group_plans",
        "_group_endpoints",
    )

    def __init__(self, spec: CompiledSpec, resolved: Tuple[FrozenSet[str], ...]) -> None:
        self.spec_core_names = spec.core_names
        #: content identity of this bundle, for serialisable evaluation keys
        #: (the in-memory caches key on object identity instead)
        self.spec_hash = spec.spec_hash
        self.groups_key: Tuple[Tuple[str, ...], ...] = tuple(
            tuple(sorted(group)) for group in resolved
        )
        self._compiled_groups = spec.groups_for(resolved)
        self._core_index = spec.core_index
        self.requirements: Tuple[GroupRequirement, ...] = tuple(
            GroupRequirement.from_compiled(group) for group in self._compiled_groups
        )
        self.worklist = _Worklist(self.requirements)
        self._group_plans: Optional[Dict[int, List]] = None
        self._group_endpoints: Optional[Dict[int, Tuple[int, ...]]] = None

    @property
    def order(self) -> Tuple:
        """The global fixed-placement processing order (see :class:`_Worklist`)."""
        return self.worklist.placement_sequence()

    @property
    def group_plans(self) -> Dict[int, List]:
        """Per group, its slice of ``order`` with the records to emit.

        Each requirement is paired with the (member name, member flow)
        records of the members that have a flow between its cores.
        """
        if self._group_plans is None:
            group_plans: Dict[int, List] = {req.group_id: [] for req in self.requirements}
            by_group = {req.group_id: req for req in self.requirements}
            for pair_req in self.order:
                requirement = by_group[pair_req.group_id]
                members = tuple(
                    (member.name, flow)
                    for member in requirement.members
                    for flow in (member.flow_between(pair_req.source, pair_req.destination),)
                    if flow is not None
                )
                group_plans[pair_req.group_id].append((pair_req, members))
            self._group_plans = group_plans
        return self._group_plans

    @property
    def group_endpoints(self) -> Dict[int, Tuple[int, ...]]:
        """Per group, the cores whose placement its evaluation depends on.

        Indices into the spec's interned core table (compact cache keys).
        """
        if self._group_endpoints is None:
            core_index = self._core_index
            self._group_endpoints = {
                group.group_id: tuple(core_index[name] for name in group.endpoints)
                for group in self._compiled_groups
            }
        return self._group_endpoints


def _outcome_to_doc(
    pairs: Optional[List[Tuple[Tuple[int, ...], Tuple[int, ...]]]]
) -> Optional[str]:
    """Serialise one cached group evaluation (``None`` = cached infeasibility).

    Only the mapper's irreducible *decisions* are stored — the switch path
    and the starting TDMA slots of each aggregated pair, exactly what
    :meth:`UnifiedMapper.evaluate_group_fixed` returns.  Everything else is
    derivable: there is one pair per plan item, in plan order, so the import
    side reattaches members from the live bundle, and recomputes cost terms
    (``bandwidth × hops``) and per-link slots (the per-hop rotation of the
    starting slots) bit-identically instead of round-tripping them.

    The whole outcome packs into **one string** — ``;``-separated pair
    segments of ``path:starts`` dot-separated ints (e.g.
    ``"0.1.2:5.6;3.4:0"``) — so a stored evaluation context deserialises as
    a few hundred JSON strings instead of hundreds of thousands of number
    tokens; :func:`_parse_outcome_doc` unpacks it with C-speed splits.
    """
    if pairs is None:
        return None
    return ";".join(
        ".".join(map(str, path)) + ":" + ".".join(map(str, starts))
        for path, starts in pairs
    )


def _parse_outcome_doc(
    document: str, expected_pairs: int
) -> Optional[List[Tuple[Tuple[int, ...], Tuple[int, ...]]]]:
    """Unpack a packed outcome string into (path, starts) tuples, or ``None``.

    Returns ``None`` for anything that does not parse cleanly into
    ``expected_pairs`` non-empty integer paths — a foreign or corrupt entry
    degrades to a recomputation, never an error.
    """
    if not isinstance(document, str):
        return None
    pairs: List[Tuple[Tuple[int, ...], Tuple[int, ...]]] = []
    try:
        for segment in document.split(";"):
            path_part, _, starts_part = segment.partition(":")
            path = tuple(map(int, path_part.split(".")))
            starts = tuple(map(int, starts_part.split("."))) if starts_part else ()
            pairs.append((path, starts))
    except ValueError:
        return None
    if len(pairs) != expected_pairs:
        return None
    return pairs


class _GroupOutcome:
    """One group's feasible fixed-placement evaluation, as kernel decisions.

    Holds the ``(switch path, starting slots)`` pairs that
    :meth:`UnifiedMapper.evaluate_group_fixed` returns and the store keeps,
    plus the bundle plan they answer; everything else is derived from the
    plan on demand.  The refiners *screen* hundreds of candidates through
    :meth:`MappingEngine.placement_cost`, which only needs the per-use-case
    cost sums of :meth:`name_sums`, and *materialise* only accepted moves
    (:meth:`allocations`).  Both are memoised per outcome, so revisited
    candidates skip the work entirely.
    """

    __slots__ = ("pairs", "_plan", "_size", "_sums", "_allocations")

    def __init__(self, pairs, plan, size) -> None:
        self.pairs = pairs
        self._plan = plan
        self._size = size
        self._sums = None
        self._allocations = None

    def name_sums(self, member_names) -> Tuple[float, ...]:
        """Per-member-use-case cost sums, in ``member_names`` order.

        Replicates the historical global walk's accumulation exactly: each
        name starts at integer ``0`` and adds its ``bandwidth × hops`` terms
        in plan order (every use case belongs to exactly one group, so the
        interleaved global walk performed precisely these additions for it).
        """
        cached = self._sums
        if cached is None:
            sums: Dict[str, float] = {name: 0 for name in member_names}
            for (path, _starts), (_pair_req, members) in zip(self.pairs, self._plan):
                hops = len(path) - 1
                for name, flow in members:
                    sums[name] = sums[name] + flow.bandwidth * hops
            cached = tuple(sums[name] for name in member_names)
            self._sums = cached
        return cached

    def allocations(self) -> List[Tuple[Tuple[str, FlowAllocation, float], ...]]:
        """Per plan item: its (member name, allocation, cost term) records.

        Built on first use and memoised.  Members are the plan's own flow
        records, per-link slots are
        :func:`~repro.noc.slot_table.pipelined_link_slots` of the starts,
        and each cost term is ``bandwidth × hops`` — the floats
        :meth:`name_sums` adds.
        """
        cached = self._allocations
        if cached is None:
            size = self._size
            cached = []
            for (path, starts), (_pair_req, members) in zip(self.pairs, self._plan):
                hops = len(path) - 1
                link_slots = pipelined_link_slots(path, starts, size)
                cached.append(tuple(
                    (
                        name,
                        FlowAllocation(
                            use_case=name,
                            flow=flow,
                            switch_path=path,
                            link_slots=dict(link_slots),
                        ),
                        flow.bandwidth * hops,
                    )
                    for name, flow in members
                ))
            self._allocations = cached
        return cached


class MappingEngine:
    """Session object owning compiled specs and cross-run mapping caches."""

    #: bound on cached fixed-placement group evaluations (LRU)
    _EVAL_CACHE_SIZE = 8192
    #: bound on cached full mapping results (LRU)
    _RESULT_CACHE_SIZE = 128
    #: bound on cached compiled specs and set-identity fast-path entries (LRU)
    _SPEC_CACHE_SIZE = 256
    #: bound on cached requirement bundles (LRU)
    _BUNDLE_CACHE_SIZE = 64

    def __init__(
        self,
        params: NoCParameters | None = None,
        config: MapperConfig | None = None,
    ) -> None:
        self.params = params or NoCParameters()
        self.config = config or MapperConfig()
        self.mapper = UnifiedMapper(params=self.params, config=self.config)
        #: spec hash -> CompiledSpec (authoritative, params-independent)
        self._specs: "OrderedDict[str, CompiledSpec]" = OrderedDict()
        #: id(UseCaseSet) -> (set, CompiledSpec) fast path; the entry pins
        #: the keyed set so its id cannot be recycled while it exists, and
        #: the identity check guards a key surviving its set
        self._specs_by_id: "OrderedDict[int, Tuple[UseCaseSet, CompiledSpec]]" = (
            OrderedDict()
        )
        #: (spec hash, resolved grouping) -> _RequirementBundle
        self._bundles: "OrderedDict[Tuple[str, Tuple[FrozenSet[str], ...]], _RequirementBundle]" = (
            OrderedDict()
        )
        #: (id(bundle), id(topology), group id, endpoint projection) ->
        #: (bundle, topology, group evaluation | None); the bundle and
        #: topology references pin their ids against recycling
        self._group_evals: "OrderedDict" = OrderedDict()
        #: (spec hash, resolved grouping, method name, topology fingerprint
        #: or None) -> MappingResult
        self._results: "OrderedDict" = OrderedDict()
        #: spec hash -> compiled worst-case spec (see worst_case)
        self._worst_specs: "OrderedDict[str, CompiledSpec]" = OrderedDict()
        #: result-cache keys that were read from the attached store rather
        #: than computed here; export_results skips them so a store-warmed
        #: engine never re-exports (and thereby snowballs) what it was fed
        self._imported_keys: set = set()
        #: serialisable evaluation key -> raw outcome document, for stored
        #: entries of the contexts loaded from the attached store at this
        #: engine's operating point; consulted (and drained) on
        #: evaluation-cache misses
        self._store_index: Dict = {}
        #: evaluation keys that were materialised from the store; skipped by
        #: export_evaluations (never-re-export, like ``_imported_keys``)
        self._imported_eval_keys: set = set()
        #: optional EngineStateStore consulted directly on result and
        #: evaluation misses (duck-typed; attach_store documents the API)
        self._store = None
        #: evaluation contexts already fetched from the attached store
        self._store_contexts: set = set()
        #: id(topology) -> (topology, canonical doc, fingerprint); the
        #: topology reference pins its id, params-independent and shared
        #: with siblings
        self._topology_docs: "OrderedDict" = OrderedDict()
        #: lazily computed params/config documents (store key components)
        self._own_docs: Optional[Tuple[Dict, Dict]] = None
        #: cumulative hit/miss/import telemetry, shared with siblings so a
        #: frequency search's probes report into the owning job's stats;
        #: the field meanings are documented in :meth:`cache_info`
        self._counters: Dict[str, int] = {
            "result_hits": 0,
            "result_misses": 0,
            "evaluation_hits": 0,
            "evaluation_misses": 0,
            "imported_results": 0,
            "imported_evaluations": 0,
            "screen_hits": 0,
            "screen_misses": 0,
        }

    # ------------------------------------------------------------------ #
    # compilation and derived-state caches
    # ------------------------------------------------------------------ #
    def compile(self, use_cases: SpecLike) -> CompiledSpec:
        """Compile (and freeze) a use-case set, reusing any cached spec."""
        if isinstance(use_cases, CompiledSpec):
            return use_cases
        entry = self._specs_by_id.get(id(use_cases))
        if entry is not None and entry[0] is use_cases:
            self._specs_by_id.move_to_end(id(use_cases))
            return entry[1]
        spec = compile_spec(use_cases)
        existing = self._specs.get(spec.spec_hash)
        if existing is not None:
            self._specs.move_to_end(spec.spec_hash)
            spec = existing
        else:
            self._specs[spec.spec_hash] = spec
            if len(self._specs) > self._SPEC_CACHE_SIZE:
                self._specs.popitem(last=False)
        self._specs_by_id[id(use_cases)] = (use_cases, spec)
        if len(self._specs_by_id) > self._SPEC_CACHE_SIZE:
            self._specs_by_id.popitem(last=False)
        return spec

    def resolve_groups(
        self,
        spec: CompiledSpec,
        groups: GroupSpec = None,
        switching_graph: Optional[SwitchingGraph] = None,
    ) -> Tuple[FrozenSet[str], ...]:
        """Resolve and validate the smooth-switching grouping for a spec."""
        return self.mapper._resolve_groups(spec, groups, switching_graph)

    def requirements_for(
        self,
        spec: CompiledSpec,
        resolved_groups: Tuple[FrozenSet[str], ...],
    ) -> _RequirementBundle:
        """The cached requirement/worklist bundle of one (spec, grouping)."""
        key = (spec.spec_hash, resolved_groups)
        bundle = self._bundles.get(key)
        if bundle is None:
            bundle = _RequirementBundle(spec, resolved_groups)
            self._bundles[key] = bundle
            if len(self._bundles) > self._BUNDLE_CACHE_SIZE:
                self._bundles.popitem(last=False)
        else:
            self._bundles.move_to_end(key)
        return bundle

    def with_params(
        self,
        params: NoCParameters | None = None,
        config: MapperConfig | None = None,
    ) -> "MappingEngine":
        """A sibling engine at another operating point, sharing spec caches.

        Compiled specs, requirement bundles and worst-case specs are pure
        functions of the specification and are shared by reference; mapping
        results and evaluations (which depend on params/config) are not.
        """
        sibling = MappingEngine(params or self.params, config or self.config)
        sibling._specs = self._specs
        sibling._specs_by_id = self._specs_by_id
        sibling._bundles = self._bundles
        sibling._worst_specs = self._worst_specs
        sibling._counters = self._counters
        sibling._store = self._store
        sibling._topology_docs = self._topology_docs
        return sibling

    # ------------------------------------------------------------------ #
    # full mapping runs
    # ------------------------------------------------------------------ #
    def map(
        self,
        use_cases: SpecLike,
        groups: GroupSpec = None,
        switching_graph: Optional[SwitchingGraph] = None,
        method_name: Optional[str] = None,
        topology: Optional[Topology] = None,
    ) -> MappingResult:
        """Map a design onto the smallest feasible topology (cached).

        Semantically identical to :meth:`UnifiedMapper.map`; repeated calls
        for the same specification, grouping and method return the cached
        result object.  With ``topology`` the design is mapped onto exactly
        that topology instead (a provisioned or degraded mesh), as
        :meth:`UnifiedMapper.map_with_placement` with an empty placement
        does; the result is cached and stored under the topology's content
        fingerprint as well.  ``method_name`` defaults to ``"unified"``, or
        to ``"unified-fixed-placement"`` with a ``topology``.
        """
        spec = self.compile(use_cases)
        resolved = self.resolve_groups(spec, groups, switching_graph)
        if method_name is None:
            method_name = "unified" if topology is None else "unified-fixed-placement"
        fingerprint = None if topology is None else self._topology_doc(topology)[1]
        key = (spec.spec_hash, resolved, method_name, fingerprint)
        cached = self._results.get(key)
        if cached is not None:
            self._results.move_to_end(key)
            self._counters["result_hits"] += 1
            return cached
        stored = self._materialise_store_result(key)
        if stored is not None:
            self._counters["result_hits"] += 1
            return stored
        self._counters["result_misses"] += 1
        if topology is not None:
            result = self.mapper.map_with_placement(
                spec.use_case_set, topology, {}, groups=resolved,
                method_name=method_name, validate=False,
            )
        elif self.config.backend == "ilp":
            # The exact backend uses this engine's fixed-placement evaluator
            # (never map()), so there is no recursion; its result lands in
            # the same per-engine cache slot a heuristic run would.
            from repro.optimize.ilp import exact_mapping

            result = exact_mapping(spec, groups=resolved, engine=self)
        else:
            bundle = self.requirements_for(spec, resolved)
            result = self.mapper.map_requirements(
                spec.core_names, bundle.requirements, bundle.worklist, resolved,
                method_name,
            )
        self._results[key] = result
        if len(self._results) > self._RESULT_CACHE_SIZE:
            self._results.popitem(last=False)
        return result

    def map_batch(
        self,
        designs: Iterable[SpecLike],
        groups: GroupSpec = None,
        switching_graph: Optional[SwitchingGraph] = None,
        method_name: str = "unified",
    ) -> List[Optional[MappingResult]]:
        """Map several designs in one pass, sharing every engine cache.

        The batch entry point for sweeps: each design is compiled at most
        once for the whole batch (and across batches on the same engine).
        Designs that cannot be mapped yield ``None`` instead of raising, so
        a sweep row can record the failure the way the paper's figures do.
        """
        results: List[Optional[MappingResult]] = []
        for design in designs:
            try:
                results.append(
                    self.map(design, groups=groups, switching_graph=switching_graph,
                             method_name=method_name)
                )
            except MappingError:
                results.append(None)
        return results

    def worst_case(self, use_cases: SpecLike) -> MappingResult:
        """Map a design with the worst-case baseline method (cached).

        The synthetic worst-case use-case is itself derived (and compiled)
        once per spec hash, so growing-mesh attempts and repeated calls —
        the frequency searches probe many operating points — share one
        compilation.
        """
        from repro.core.worstcase import WORST_CASE_NAME, build_worst_case_use_case

        spec = self.compile(use_cases)
        worst_spec = self._worst_specs.get(spec.spec_hash)
        if worst_spec is None:
            worst = build_worst_case_use_case(spec.use_case_set, name=WORST_CASE_NAME)
            singleton = UseCaseSet([worst], name=f"{spec.name}-worst-case")
            worst_spec = self.compile(singleton)
            self._worst_specs[spec.spec_hash] = worst_spec
            if len(self._worst_specs) > self._SPEC_CACHE_SIZE:
                self._worst_specs.popitem(last=False)
        else:
            self._worst_specs.move_to_end(spec.spec_hash)
        return self.map(worst_spec, method_name="worst_case")

    # ------------------------------------------------------------------ #
    # fixed-placement evaluation (the refinement hot path)
    # ------------------------------------------------------------------ #
    def _group_outcome(
        self,
        bundle: _RequirementBundle,
        topology: Topology,
        group_id: int,
        projection: Tuple[int, ...],
        placement: Mapping[str, int],
    ) -> Tuple[Optional[_GroupOutcome], bool]:
        """Recall or compute one group's evaluation under a complete placement.

        Tries the in-memory evaluation cache, then the attached store, then
        :meth:`UnifiedMapper.evaluate_group_fixed`, and caches the answer
        under the group's endpoint ``projection`` (``None`` is a cached
        infeasibility).  Returns the outcome and whether it was computed.
        """
        key = (id(bundle), id(topology), group_id, projection)
        evals = self._group_evals
        entry = evals.get(key)
        if entry is not None and entry[0] is bundle and entry[1] is topology:
            evals.move_to_end(key)
            self._counters["evaluation_hits"] += 1
            return entry[2], False
        plan = bundle.group_plans[group_id]
        pairs = self._stored_pairs(bundle, topology, group_id, projection)
        computed = pairs is _MISSING
        if computed:
            self._counters["evaluation_misses"] += 1
            pairs = self.mapper.evaluate_group_fixed(topology, plan, placement)
        else:
            self._counters["evaluation_hits"] += 1
            self._counters["imported_evaluations"] += 1
        outcome = None if pairs is None else _GroupOutcome(
            pairs, plan, self.params.slot_table_size
        )
        evals[key] = (bundle, topology, outcome)
        if len(evals) > self._EVAL_CACHE_SIZE:
            evals.popitem(last=False)
        return outcome, computed

    def _evaluate_groups(
        self,
        bundle: _RequirementBundle,
        topology: Topology,
        placement: Mapping[str, int],
        only: Optional[FrozenSet[int]] = None,
    ) -> Dict[int, _GroupOutcome]:
        """Evaluate (or recall) every group under a complete placement.

        Validates the placement globally
        (:meth:`UnifiedMapper.placement_fault`), then
        recalls or computes each group through :meth:`_group_outcome`.
        ``only`` restricts evaluation to a subset of group ids — the repair
        path evaluates just the failure-affected groups and splices the
        untouched groups' baseline allocations back in.  Raises
        :class:`MappingError` when the placement or any evaluated group is
        infeasible.
        """
        fault = self.mapper.placement_fault(topology, placement)
        if fault is not None:
            raise MappingError(fault, largest_topology=topology.name)
        core_names = bundle.spec_core_names
        group_endpoints = bundle.group_endpoints
        outcomes: Dict[int, _GroupOutcome] = {}
        for requirement in bundle.requirements:
            group_id = requirement.group_id
            if only is not None and group_id not in only:
                continue
            projection = tuple(
                placement[core_names[index]] for index in group_endpoints[group_id]
            )
            outcome, _computed = self._group_outcome(
                bundle, topology, group_id, projection, placement
            )
            if outcome is None:
                raise MappingError(
                    f"placement is infeasible on topology {topology.name!r}",
                    largest_topology=topology.name,
                )
            outcomes[group_id] = outcome
        return outcomes

    def placement_cost(
        self,
        use_cases: SpecLike,
        topology: Topology,
        placement: Mapping[str, int],
        groups: GroupSpec = None,
        switching_graph: Optional[SwitchingGraph] = None,
    ) -> float:
        """Communication cost (Σ bandwidth × hops) of a complete placement.

        The cost-only twin of :meth:`evaluate_placement`: it runs (or
        recalls) the same per-group evaluations but skips materialising the
        ``MappingResult``, which the refiners only need for *accepted*
        candidates — a subsequent :meth:`evaluate_placement` for the same
        placement hits the evaluation cache and only pays for assembly.
        The float is bit-identical to summing the assembled result.

        Raises :class:`MappingError` when the placement is infeasible.
        """
        spec = self.compile(use_cases)
        resolved = self.resolve_groups(spec, groups, switching_graph)
        if any(name not in placement for name in spec.core_names):
            return total_communication_cost(self.mapper.map_with_placement(
                spec.use_case_set, topology, placement, groups=resolved,
                validate=False,
            ))
        bundle = self.requirements_for(spec, resolved)
        outcomes = self._evaluate_groups(bundle, topology, placement)
        # Sum the per-group memoised per-use-case sums in the exact order
        # the historical global walk summed them: every use case belongs to
        # one group, so its additions were purely intra-group, and the final
        # reduction visited names in requirement/member order.
        values: List[float] = []
        for requirement in bundle.requirements:
            values.extend(
                outcomes[requirement.group_id].name_sums(requirement.member_names)
            )
        return sum(values)

    def screener(
        self,
        use_cases: SpecLike,
        topology: Topology,
        groups: GroupSpec = None,
        switching_graph: Optional[SwitchingGraph] = None,
    ):
        """A :class:`~repro.optimize.screen.CandidateScreen` for one context.

        The batch entry point of the refinement hot path: the returned
        screen is bound to this engine plus the compiled (spec, grouping)
        bundle and topology, answers exact candidate costs through the same
        recall-or-compute path as :meth:`placement_cost`
        (:meth:`_group_outcome`, so exports, warm starts and the final
        :meth:`evaluate_placement` are unchanged), and batches
        admissibility/lower-bound screening over whole neighbour sets.
        ``screen_hits`` / ``screen_misses`` in :meth:`cache_info` account
        for its traffic.
        """
        from repro.optimize.screen import CandidateScreen

        spec = self.compile(use_cases)
        resolved = self.resolve_groups(spec, groups, switching_graph)
        bundle = self.requirements_for(spec, resolved)
        return CandidateScreen(self, spec, resolved, bundle, topology)

    @staticmethod
    def _walk_outcomes(
        bundle: _RequirementBundle,
        outcomes: Mapping[int, _GroupOutcome],
    ) -> Tuple[Dict[str, UseCaseConfiguration], Dict[str, float]]:
        """Materialise the groups in ``outcomes`` in the global allocation order.

        The assembly loop behind :meth:`evaluate_placement` and the repair
        splice: allocations are recorded, and per-use-case cost sums build
        up, in the order the general path records allocations (float
        addition order is part of the bit-identical contract).  Groups
        absent from ``outcomes`` are skipped.  Returns the configurations and
        the cost sums of the walked groups' use cases — only *accepted*
        candidates ever reach this walk.
        """
        configurations: Dict[str, UseCaseConfiguration] = {}
        cost_sums: Dict[str, float] = {}
        for requirement in bundle.requirements:
            if requirement.group_id in outcomes:
                for name in requirement.member_names:
                    cost_sums[name] = 0
                    configurations[name] = UseCaseConfiguration(
                        name, requirement.group_id
                    )
        records = {gid: outcome.allocations() for gid, outcome in outcomes.items()}
        cursor = dict.fromkeys(outcomes, 0)
        for pair_req in bundle.order:
            group_id = pair_req.group_id
            group_records = records.get(group_id)
            if group_records is None:
                continue
            index = cursor[group_id]
            cursor[group_id] = index + 1
            for name, allocation, term in group_records[index]:
                configurations[name].add(allocation)
                cost_sums[name] = cost_sums[name] + term
        return configurations, cost_sums

    def evaluate_placement(
        self,
        use_cases: SpecLike,
        topology: Topology,
        placement: Mapping[str, int],
        groups: GroupSpec = None,
        switching_graph: Optional[SwitchingGraph] = None,
        method_name: str = "unified-fixed-placement",
    ) -> MappingResult:
        """Map a design onto a fixed topology and complete core placement.

        Drop-in equivalent of :meth:`UnifiedMapper.map_with_placement` for
        placements that cover every core of the design (the refinement
        passes always do): each configuration group is evaluated
        independently against its cached requirement sequence, and the
        evaluation is memoised on the placement of the group's endpoint
        cores — unchanged groups and revisited placements are free.
        Placements that leave cores unmapped fall back to the general path.

        Raises :class:`MappingError` when the placement is infeasible.
        """
        spec = self.compile(use_cases)
        resolved = self.resolve_groups(spec, groups, switching_graph)
        if any(name not in placement for name in spec.core_names):
            return self.mapper.map_with_placement(
                spec.use_case_set, topology, placement, groups=resolved,
                method_name=method_name, validate=False,
            )
        bundle = self.requirements_for(spec, resolved)
        outcomes = self._evaluate_groups(bundle, topology, placement)

        # Reassemble the per-use-case configurations in the exact global
        # order the general path records allocations in (float accumulations
        # downstream observe insertion order).
        configurations, cost_sums = self._walk_outcomes(bundle, outcomes)
        result = MappingResult(
            method=method_name,
            topology=topology,
            params=self.params,
            config=self.config,
            core_mapping=dict(placement),
            groups=resolved,
            configurations=configurations,
            attempted_topologies=(topology.name,),
        )
        result.cached_communication_cost = sum(cost_sums.values())
        return result

    # ------------------------------------------------------------------ #
    # cache export hooks (the jobs layer persists results across processes)
    # ------------------------------------------------------------------ #
    def cache_info(self) -> Dict[str, int]:
        """Current cache sizes plus hit/miss counters, for job-level telemetry.

        The jobs layer attaches this to each :class:`~repro.jobs.JobResult`
        (under ``stats["engine"]``) so a sweep farm can see how much work
        the engine short-circuited.  This docstring is the canonical
        reference for the counter fields:

        ``specs`` / ``bundles`` / ``evaluations`` / ``results`` /
        ``worst_specs``
            Current sizes of the five in-memory caches (see the class
            docstring); sizes, not cumulative counts.
        ``result_hits`` / ``result_misses``
            Full mapping runs (:meth:`map`, minimal-topology or forced onto
            a ``topology``) answered from cache / actually performed.  A
            hit includes results read from an attached store; a job served
            entirely without recomputation reports ``result_misses == 0``,
            which is how the warm-start tests prove nothing was
            recomputed.
        ``evaluation_hits`` / ``evaluation_misses``
            Fixed-placement group evaluations (the refinement hot path,
            :meth:`placement_cost` / :meth:`evaluate_placement`) answered
            from the in-memory cache or the attached store / actually
            computed.  A warm refinement whose
            candidates were all previously evaluated reports
            ``evaluation_misses == 0``.
        ``imported_results`` / ``imported_evaluations``
            How many of the hits above were materialised from *imported*
            state (an attached :class:`~repro.jobs.store.EngineStateStore`)
            rather than computed earlier in this process.
        ``screen_hits`` / ``screen_misses``
            Traffic of the batched candidate screen (:meth:`screener`):
            group projections answered from a screen's run-local memo /
            computed by :meth:`UnifiedMapper.evaluate_group_fixed` on its
            behalf.  Every ``screen_miss`` is also counted as an
            ``evaluation_miss`` (it is the same computation, cached alike);
            projections a screen recalls from the caches above count as
            ``evaluation_hits`` like any other recall.  A refinement run
            that used screening at all reports ``screen_hits +
            screen_misses > 0``.

        Counters are cumulative since engine construction and shared with
        :meth:`with_params` siblings, so a frequency search's probes report
        into the owning job's stats.
        """
        info = {
            "specs": len(self._specs),
            "bundles": len(self._bundles),
            "evaluations": len(self._group_evals),
            "results": len(self._results),
            "worst_specs": len(self._worst_specs),
        }
        info.update(self._counters)
        return info

    def attach_store(self, store) -> None:
        """Consult an on-disk engine-state store directly on cache misses.

        ``store`` is duck-typed to the
        :class:`~repro.jobs.store.EngineStateStore` read API
        (``result_key`` / ``get_result`` / ``evaluation_context`` /
        ``load_evaluations``).  Once attached, a :meth:`map` miss looks the
        result up by content key, and the first evaluation miss against a
        (spec, grouping, topology) context loads that context's stored
        entries into a lazy index — the engine reads *only the keys it
        misses*, so a large store costs nothing to attach.  Attachment is
        inherited by :meth:`with_params` siblings (each computes keys at its
        own operating point).  The engine never writes to the store; the
        jobs runner ingests :meth:`export_results` /
        :meth:`export_evaluations` after an execution finishes.
        """
        self._store = store

    def _materialise_store_result(self, key) -> Optional[MappingResult]:
        """Look one :meth:`map` miss up in the attached engine-state store."""
        if self._store is None:
            return None
        from repro.io.serialization import mapping_result_from_dict

        spec_hash, resolved, method_name, topology_fp = key
        params_document, config_document = self._own_documents()
        store_key = self._store.result_key(
            spec_hash,
            [sorted(group) for group in resolved],
            method_name,
            params_document,
            config_document,
            topology_fp,
        )
        entry = self._store.get_result(store_key)
        if not isinstance(entry, dict) or not isinstance(entry.get("result"), dict):
            return None
        try:
            result = mapping_result_from_dict(entry["result"])
        except ReproError:
            return None  # corrupt entry: fall through to recomputation
        self._results[key] = result
        self._imported_keys.add(key)
        if len(self._results) > self._RESULT_CACHE_SIZE:
            self._results.popitem(last=False)
        self._counters["imported_results"] += 1
        return result

    def _own_documents(self) -> Tuple[Dict, Dict]:
        """This engine's params/config documents (store key components)."""
        if self._own_docs is None:
            self._own_docs = (self.params.to_dict(), self.config.to_dict())
        return self._own_docs

    def _topology_doc(self, topology: Topology) -> Tuple[Dict, str]:
        """Canonical document + fingerprint of a topology (identity-memoised)."""
        entry = self._topology_docs.get(id(topology))
        if entry is not None and entry[0] is topology:
            self._topology_docs.move_to_end(id(topology))
            return entry[1], entry[2]
        from repro.io.serialization import document_fingerprint, topology_to_dict

        document = topology_to_dict(topology)
        fingerprint = document_fingerprint(document)
        self._topology_docs[id(topology)] = (topology, document, fingerprint)
        if len(self._topology_docs) > self._SPEC_CACHE_SIZE:
            self._topology_docs.popitem(last=False)
        return document, fingerprint

    # ------------------------------------------------------------------ #
    # fixed-placement evaluations: store reads and export
    # ------------------------------------------------------------------ #
    def _stored_pairs(
        self,
        bundle: _RequirementBundle,
        topology: Topology,
        group_id: int,
        projection: Tuple[int, ...],
    ):
        """Serve one evaluation miss from the attached store.

        Returns the parsed ``(path, starts)`` pair list — ``None`` for a
        stored infeasibility — or ``_MISSING`` when the store holds nothing
        usable for the key.  The first miss against a (spec, grouping,
        topology) context loads that context's entries into the lazy index
        once; later candidates of the same run are answered from memory.
        Parsing happens here, so a corrupt entry degrades to recomputation
        instead of failing mid-assembly.
        """
        if self._store is None:
            return _MISSING
        topology_document, topology_fp = self._topology_doc(topology)
        content_key = (
            bundle.spec_hash, bundle.groups_key, topology_fp, group_id, projection,
        )
        index = self._store_index
        outcome_document = index.pop(content_key, _MISSING)
        if outcome_document is _MISSING:
            params_document, config_document = self._own_documents()
            context = self._store.evaluation_context(
                bundle.spec_hash, bundle.groups_key, topology_document,
                params_document, config_document,
            )
            if context in self._store_contexts:
                return _MISSING
            self._store_contexts.add(context)
            for (gid, proj), entry in self._store.load_evaluations(context).items():
                key = (bundle.spec_hash, bundle.groups_key, topology_fp, gid, proj)
                if key not in index and key not in self._imported_eval_keys:
                    index[key] = entry.get("outcome")
            outcome_document = index.pop(content_key, _MISSING)
            if outcome_document is _MISSING:
                return _MISSING
        pairs = None
        if outcome_document is not None:
            pairs = _parse_outcome_doc(
                outcome_document, len(bundle.group_plans[group_id])
            )
            if pairs is None:
                return _MISSING  # corrupt entry: fall through to recomputation
        self._imported_eval_keys.add(content_key)
        return pairs

    def export_evaluations(self) -> List[Dict]:
        """Serialise the fixed-placement evaluations *this engine computed*.

        The evaluation twin of :meth:`export_results`: entries materialised
        from the attached store are excluded, so the corpus
        stays proportional to distinct evaluations.  The export covers
        everything computed since construction (still in the evaluation
        cache), not since the last export, so export each engine once —
        a long-lived engine exported after every task re-serialises its
        whole history each time.  Entries are grouped
        into one document per (spec, grouping, topology) context — the unit
        :class:`~repro.jobs.store.EngineStateStore` shards by — each
        carrying the serialisable key components (``spec_hash``,
        ``groups``, the canonical ``topology`` document, ``params``,
        ``config``) plus the per-key ``entries``
        (``group_id`` / ``projection`` / ``outcome``, where a ``null``
        outcome records a cached infeasibility).
        """
        params_document, config_document = self._own_documents()
        grouped: "OrderedDict[Tuple, Dict]" = OrderedDict()
        for (_, _, group_id, projection), (bundle, topology, outcome) in (
            self._group_evals.items()
        ):
            _, topology_fp = self._topology_doc(topology)
            content_key = (
                bundle.spec_hash, bundle.groups_key, topology_fp, group_id, projection,
            )
            if content_key in self._imported_eval_keys:
                continue
            context = (bundle.spec_hash, bundle.groups_key, topology_fp)
            document = grouped.get(context)
            if document is None:
                document = {
                    "spec_hash": bundle.spec_hash,
                    "groups": [list(group) for group in bundle.groups_key],
                    "topology": self._topology_doc(topology)[0],
                    "params": params_document,
                    "config": config_document,
                    "entries": [],
                }
                grouped[context] = document
            document["entries"].append(
                {
                    "group_id": group_id,
                    "projection": list(projection),
                    "outcome": _outcome_to_doc(
                        None if outcome is None else outcome.pairs
                    ),
                }
            )
        return list(grouped.values())

    def export_results(self) -> List[Dict]:
        """Serialise the full-mapping results *this engine computed*.

        Results that were read from the attached store are excluded — the
        store already holds them, and re-exporting would snowball it with
        the whole prior corpus.  Like :meth:`export_evaluations`, the export
        covers everything computed since construction, so export each
        engine once.

        Each entry carries the cache key components (``spec_hash``,
        ``groups``, ``method`` and, for a forced-topology :meth:`map`, the
        ``topology`` fingerprint) plus the :func:`mapping_result_to_dict`
        payload — the shape :meth:`EngineStateStore.ingest
        <repro.jobs.store.EngineStateStore.ingest>` consumes.  The jobs
        layer ingests these after every execution, so a later job that
        *contains* an already-computed mapping reads it from the store
        instead of recomputing it.
        """
        from repro.io.serialization import mapping_result_to_dict

        exported: List[Dict] = []
        for key, result in self._results.items():
            if key in self._imported_keys:
                continue
            spec_hash, resolved, method_name, topology_fp = key
            entry = {
                "spec_hash": spec_hash,
                "groups": [sorted(group) for group in resolved],
                "method": method_name,
                "result": mapping_result_to_dict(result),
            }
            if topology_fp is not None:
                entry["topology"] = topology_fp
            exported.append(entry)
        return exported

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MappingEngine(specs={len(self._specs)}, bundles={len(self._bundles)}, "
            f"evaluations={len(self._group_evals)}, results={len(self._results)})"
        )

"""Declarative, JSON-serializable job specifications.

A *job* is the unit of work of the public API: one frozen dataclass that
bundles everything needed to reproduce a computation — the use-case set (by
value, by file path or by synthetic-generator recipe), the NoC operating
point, the mapper configuration and the job-specific knobs.  Jobs

* round-trip losslessly through plain dictionaries and JSON
  (:func:`job_to_dict` / :func:`job_from_dict` / :func:`save_job` /
  :func:`load_jobs`), so they can be written by hand, produced by other
  tools, queued, or diffed in version control;
* hash stably (:func:`job_hash`) over their *content* — a job referencing a
  design by path hashes the file's contents, not its name — which is the key
  of the persistent result cache; and
* know nothing about execution: :class:`repro.jobs.runner.JobRunner`
  dispatches each kind to the engine-backed consumer that already existed
  (``DesignFlow``, the worst-case baseline, the refiners, the frequency
  search, the analysis sweeps).

The eight kinds cover the paper's evaluation surface plus failure recovery
and the optimality-gap oracle:

========================  ====================================================
kind                      computation
========================  ====================================================
``design_flow``           phases 1-4 of the methodology on one design
``worst_case``            the WC baseline mapping of one design
``refine``                unified mapping + annealing/tabu refinement
``portfolio_refine``      N diversified refinement chains sharing one
                          engine-state store, reduced to a deterministic
                          best-of (:mod:`repro.optimize.portfolio`)
``frequency``             minimum-frequency search over the grid
``sweep``                 one of the figure/ablation studies in
                          :mod:`repro.analysis.sweeps`
``repair``                failure-aware incremental remap of a baseline
                          mapping (:func:`repro.core.repair.repair_mapping`)
``gap``                   exact mapping (:mod:`repro.optimize.ilp`) plus the
                          heuristic (and optionally refined) mapping of the
                          same design, reduced to optimality-gap metrics
========================  ====================================================
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.core.compound import CompoundModeSpec
from repro.core.usecase import UseCaseSet
from repro.exceptions import SerializationError, SpecificationError
from repro.io.serialization import (
    atomic_write,
    load_use_case_set,
    use_case_set_from_dict,
    use_case_set_to_dict,
)
from repro.params import MapperConfig, NoCParameters

__all__ = [
    "UseCaseSource",
    "DesignFlowJob",
    "WorstCaseJob",
    "RefineJob",
    "PortfolioRefineJob",
    "FrequencyJob",
    "SweepJob",
    "RepairJob",
    "GapJob",
    "JobSpec",
    "JOB_KINDS",
    "SWEEP_STUDIES",
    "job_to_dict",
    "job_from_dict",
    "job_hash",
    "save_job",
    "load_jobs",
]


# --------------------------------------------------------------------------- #
# use-case sources
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class UseCaseSource:
    """Where a job's use-case set comes from: inline, a file, or a generator.

    Exactly one of the three fields is set:

    * ``inline`` — the use-case-set document itself (the
      :func:`repro.io.serialization.use_case_set_to_dict` shape);
    * ``path`` — a JSON file in the same shape (resolved relative to the job
      file by the CLI);
    * ``generator`` — a recipe for :func:`repro.gen.synthetic.generate_benchmark`,
      e.g. ``{"kind": "spread", "use_case_count": 10, "seed": 3}``.
    """

    inline: Optional[Dict] = None
    path: Optional[str] = None
    generator: Optional[Dict] = None

    def __post_init__(self) -> None:
        populated = sum(value is not None for value in (self.inline, self.path, self.generator))
        if populated != 1:
            raise SpecificationError(
                "a use-case source needs exactly one of 'inline', 'path' or "
                f"'generator', got {populated}"
            )

    @classmethod
    def from_value(cls, value: "UseCaseSourceLike") -> "UseCaseSource":
        """Coerce the natural Python spellings into a source.

        Accepts an existing source, a :class:`UseCaseSet` (stored inline), a
        path, a source dictionary (``{"path": ...}`` etc.) or a raw
        use-case-set document (recognised by its ``use_cases`` list).
        """
        if isinstance(value, cls):
            return value
        if isinstance(value, UseCaseSet):
            return cls(inline=use_case_set_to_dict(value))
        if isinstance(value, (str, Path)):
            return cls(path=str(value))
        if isinstance(value, dict):
            if set(value) & {"inline", "path", "generator"}:
                return cls(
                    inline=value.get("inline"),
                    path=value.get("path"),
                    generator=value.get("generator"),
                )
            if "use_cases" in value:
                return cls(inline=value)
        raise SerializationError(f"cannot interpret use-case source {value!r}")

    def to_dict(self) -> Dict:
        """JSON-ready dictionary form."""
        if self.inline is not None:
            return {"inline": self.inline}
        if self.path is not None:
            return {"path": self.path}
        return {"generator": self.generator}

    def resolve(self, base_dir: Union[str, Path, None] = None) -> "UseCaseSource":
        """A path-free equivalent source (file contents pulled inline).

        Resolving before hashing/dispatching makes cache keys depend on the
        *content* of a referenced design file and spares worker processes
        from re-reading (and possibly racing on) the file.
        """
        if self.path is None:
            return self
        target = Path(self.path)
        if base_dir is not None and not target.is_absolute():
            target = Path(base_dir) / target
        return UseCaseSource(inline=use_case_set_to_dict(load_use_case_set(target)))

    def build(self, base_dir: Union[str, Path, None] = None) -> UseCaseSet:
        """Materialise the use-case set this source describes."""
        if self.inline is not None:
            return use_case_set_from_dict(self.inline)
        if self.path is not None:
            return self.resolve(base_dir).build()
        from repro.gen.synthetic import generate_benchmark

        recipe = dict(self.generator or {})
        try:
            kind = recipe.pop("kind")
        except KeyError:
            raise SerializationError(
                "generator source needs a 'kind' (e.g. 'spread' or 'bottleneck')"
            ) from None
        if "flows_per_use_case" in recipe:
            recipe["flows_per_use_case"] = tuple(recipe["flows_per_use_case"])
        try:
            return generate_benchmark(kind, **recipe)
        except TypeError as exc:
            # An unknown or mistyped recipe knob is a document error, not a
            # programming error: surface it through the CLI's one-line
            # diagnostic contract instead of a traceback.
            raise SerializationError(
                f"invalid generator recipe for benchmark kind {kind!r}: {exc}"
            ) from exc


UseCaseSourceLike = Union[UseCaseSource, UseCaseSet, str, Path, Dict]


# --------------------------------------------------------------------------- #
# shared (de)serialisation helpers
# --------------------------------------------------------------------------- #
def _parse_params(document: Dict) -> NoCParameters:
    return NoCParameters.from_dict(document.get("params", {}))


def _parse_config(document: Dict) -> MapperConfig:
    return MapperConfig.from_dict(document.get("config", {}))


def _parse_source(document: Dict, *, required: bool = True) -> Optional[UseCaseSource]:
    value = document.get("use_cases")
    if value is None:
        if required:
            raise SerializationError("job document is missing its 'use_cases' source")
        return None
    return UseCaseSource.from_value(value)


def _parse_groups(value) -> Optional[Tuple[Tuple[str, ...], ...]]:
    if value is None:
        return None
    return tuple(tuple(group) for group in value)


def _parse_modes(value) -> Tuple[CompoundModeSpec, ...]:
    modes: List[CompoundModeSpec] = []
    for entry in value or ():
        if isinstance(entry, CompoundModeSpec):
            modes.append(entry)
        elif isinstance(entry, dict):
            modes.append(CompoundModeSpec(entry["members"], entry.get("name", "")))
        else:
            modes.append(CompoundModeSpec(entry))
    return tuple(modes)


def _modes_to_dicts(modes: Tuple[CompoundModeSpec, ...]) -> List[Dict]:
    return [{"members": list(mode.members), "name": mode.name} for mode in modes]


def _validate_mesh(mesh: Optional[Tuple[int, int]], what: str = "mesh") -> None:
    if mesh is None:
        return
    if (
        len(mesh) != 2
        or not all(isinstance(side, int) and side >= 1 for side in mesh)
    ):
        raise SpecificationError(
            f"{what} must be (rows, cols) with positive sides, got {mesh!r}"
        )


def _parse_mesh(value) -> Optional[Tuple[int, int]]:
    if value is None:
        return None
    try:
        rows, cols = value
        return (int(rows), int(cols))
    except (TypeError, ValueError):
        raise SerializationError(
            f"mesh must be a [rows, cols] pair, got {value!r}"
        ) from None


# --------------------------------------------------------------------------- #
# the job kinds
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class DesignFlowJob:
    """Run phases 1-4 of the methodology (``DesignFlow.run``) on one design."""

    KIND = "design_flow"

    use_cases: UseCaseSource
    params: NoCParameters = field(default_factory=NoCParameters)
    config: MapperConfig = field(default_factory=MapperConfig)
    #: the ``PUC`` input: sets of use-case names that may run in parallel
    parallel_modes: Tuple[CompoundModeSpec, ...] = ()
    #: the ``SUC`` input: pairs of use-case names that must switch smoothly
    smooth_switching: Tuple[Tuple[str, str], ...] = ()
    verify: bool = True

    def to_dict(self) -> Dict:
        return {
            "kind": self.KIND,
            "use_cases": self.use_cases.to_dict(),
            "params": self.params.to_dict(),
            "config": self.config.to_dict(),
            "parallel_modes": _modes_to_dicts(self.parallel_modes),
            "smooth_switching": [list(pair) for pair in self.smooth_switching],
            "verify": self.verify,
        }

    @classmethod
    def from_dict(cls, document: Dict) -> "DesignFlowJob":
        return cls(
            use_cases=_parse_source(document),
            params=_parse_params(document),
            config=_parse_config(document),
            parallel_modes=_parse_modes(document.get("parallel_modes")),
            smooth_switching=tuple(
                (pair[0], pair[1]) for pair in document.get("smooth_switching", ())
            ),
            verify=bool(document.get("verify", True)),
        )


@dataclass(frozen=True)
class WorstCaseJob:
    """Map one design with the worst-case baseline method (ref. [25])."""

    KIND = "worst_case"

    use_cases: UseCaseSource
    params: NoCParameters = field(default_factory=NoCParameters)
    config: MapperConfig = field(default_factory=MapperConfig)

    def to_dict(self) -> Dict:
        return {
            "kind": self.KIND,
            "use_cases": self.use_cases.to_dict(),
            "params": self.params.to_dict(),
            "config": self.config.to_dict(),
        }

    @classmethod
    def from_dict(cls, document: Dict) -> "WorstCaseJob":
        return cls(
            use_cases=_parse_source(document),
            params=_parse_params(document),
            config=_parse_config(document),
        )


@dataclass(frozen=True)
class RefineJob:
    """Unified mapping followed by an annealing or tabu refinement pass."""

    KIND = "refine"

    use_cases: UseCaseSource
    params: NoCParameters = field(default_factory=NoCParameters)
    config: MapperConfig = field(default_factory=MapperConfig)
    method: str = "annealing"
    iterations: int = 200
    seed: int = 0
    groups: Optional[Tuple[Tuple[str, ...], ...]] = None
    #: override the annealing schedule's starting temperature (``None`` =
    #: the refiner default); portfolio chains use this to diversify
    initial_temperature: Optional[float] = None
    #: force the initial mapping onto a ``(rows, cols)`` mesh instead of the
    #: smallest feasible topology — the big-mesh campaign regime
    mesh: Optional[Tuple[int, int]] = None

    def __post_init__(self) -> None:
        if self.method not in ("annealing", "tabu"):
            raise SpecificationError(
                f"unknown refinement method {self.method!r}; expected 'annealing' or 'tabu'"
            )
        if self.initial_temperature is not None:
            if self.method != "annealing":
                raise SpecificationError(
                    "initial_temperature only applies to the 'annealing' method"
                )
            if self.initial_temperature <= 0:
                raise SpecificationError("initial_temperature must be positive")
        _validate_mesh(self.mesh)

    def to_dict(self) -> Dict:
        document = {
            "kind": self.KIND,
            "use_cases": self.use_cases.to_dict(),
            "params": self.params.to_dict(),
            "config": self.config.to_dict(),
            "method": self.method,
            "iterations": self.iterations,
            "seed": self.seed,
            "groups": None if self.groups is None else [list(g) for g in self.groups],
        }
        # Omitted when unset so pre-existing refine documents (and their
        # content hashes — the persistent cache keys) are unchanged.
        if self.initial_temperature is not None:
            document["initial_temperature"] = self.initial_temperature
        if self.mesh is not None:
            document["mesh"] = list(self.mesh)
        return document

    @classmethod
    def from_dict(cls, document: Dict) -> "RefineJob":
        temperature = document.get("initial_temperature")
        return cls(
            use_cases=_parse_source(document),
            params=_parse_params(document),
            config=_parse_config(document),
            method=document.get("method", "annealing"),
            iterations=int(document.get("iterations", 200)),
            seed=int(document.get("seed", 0)),
            groups=_parse_groups(document.get("groups")),
            initial_temperature=None if temperature is None else float(temperature),
            mesh=_parse_mesh(document.get("mesh")),
        )


@dataclass(frozen=True)
class PortfolioRefineJob:
    """Unified mapping + a portfolio of diversified refinement chains.

    Runs ``chains`` refinement chains over the same design — chain ``i``
    refines with ``seed + i`` and, for annealing, a starting temperature
    scaled by ``temperature_factor^i`` (chain 0 keeps the refiner
    defaults) — and keeps the deterministic best-of
    (:mod:`repro.optimize.portfolio`).  All chains share one engine-state
    store, so the initial mapping is computed once and candidate
    evaluations flow between chains.  ``workers >= 2`` fans the chains
    out over a process pool; the payload is identical either way, and a
    1-chain portfolio is bit-identical to the equivalent
    :class:`RefineJob`.
    """

    KIND = "portfolio_refine"

    use_cases: UseCaseSource
    params: NoCParameters = field(default_factory=NoCParameters)
    config: MapperConfig = field(default_factory=MapperConfig)
    method: str = "annealing"
    iterations: int = 200
    seed: int = 0
    chains: int = 4
    temperature_factor: float = 1.6
    #: process-pool workers for the chains (0/1 = run them serially)
    workers: int = 0
    groups: Optional[Tuple[Tuple[str, ...], ...]] = None
    #: force the shared initial mapping onto a ``(rows, cols)`` mesh
    mesh: Optional[Tuple[int, int]] = None

    def __post_init__(self) -> None:
        if self.method not in ("annealing", "tabu"):
            raise SpecificationError(
                f"unknown refinement method {self.method!r}; expected 'annealing' or 'tabu'"
            )
        if self.chains < 1:
            raise SpecificationError("a portfolio needs at least one chain")
        if self.temperature_factor <= 0:
            raise SpecificationError("temperature_factor must be positive")
        if self.workers < 0:
            raise SpecificationError("workers must be non-negative")
        _validate_mesh(self.mesh)

    def to_dict(self) -> Dict:
        document = {
            "kind": self.KIND,
            "use_cases": self.use_cases.to_dict(),
            "params": self.params.to_dict(),
            "config": self.config.to_dict(),
            "method": self.method,
            "iterations": self.iterations,
            "seed": self.seed,
            "chains": self.chains,
            "temperature_factor": self.temperature_factor,
            "workers": self.workers,
            "groups": None if self.groups is None else [list(g) for g in self.groups],
        }
        # Omitted when unset so pre-existing portfolio documents (and their
        # content hashes — the persistent cache keys) are unchanged.
        if self.mesh is not None:
            document["mesh"] = list(self.mesh)
        return document

    @classmethod
    def from_dict(cls, document: Dict) -> "PortfolioRefineJob":
        return cls(
            use_cases=_parse_source(document),
            params=_parse_params(document),
            config=_parse_config(document),
            method=document.get("method", "annealing"),
            iterations=int(document.get("iterations", 200)),
            seed=int(document.get("seed", 0)),
            chains=int(document.get("chains", 4)),
            temperature_factor=float(document.get("temperature_factor", 1.6)),
            workers=int(document.get("workers", 0)),
            groups=_parse_groups(document.get("groups")),
            mesh=_parse_mesh(document.get("mesh")),
        )


@dataclass(frozen=True)
class FrequencyJob:
    """Find the lowest NoC clock at which a design still maps (Figure 7c)."""

    KIND = "frequency"

    use_cases: UseCaseSource
    params: NoCParameters = field(default_factory=NoCParameters)
    config: MapperConfig = field(default_factory=MapperConfig)
    max_switches: Optional[int] = None
    #: candidate grid in MHz; ``None`` uses the default 100 MHz - 2 GHz grid
    frequencies_mhz: Optional[Tuple[float, ...]] = None
    groups: Optional[Tuple[Tuple[str, ...], ...]] = None

    def to_dict(self) -> Dict:
        return {
            "kind": self.KIND,
            "use_cases": self.use_cases.to_dict(),
            "params": self.params.to_dict(),
            "config": self.config.to_dict(),
            "max_switches": self.max_switches,
            "frequencies_mhz": None
            if self.frequencies_mhz is None
            else list(self.frequencies_mhz),
            "groups": None if self.groups is None else [list(g) for g in self.groups],
        }

    @classmethod
    def from_dict(cls, document: Dict) -> "FrequencyJob":
        grid = document.get("frequencies_mhz")
        return cls(
            use_cases=_parse_source(document),
            params=_parse_params(document),
            config=_parse_config(document),
            max_switches=document.get("max_switches"),
            frequencies_mhz=None if grid is None else tuple(float(f) for f in grid),
            groups=_parse_groups(document.get("groups")),
        )


#: sweep studies that need a designer-supplied use-case set
_STUDIES_NEEDING_DESIGN = frozenset(
    {"ablation_flow_ordering", "ablation_routing_policy",
     "ablation_slot_table_size", "ablation_grouping"}
)
#: every study a SweepJob may name, mapped in the runner to
#: :mod:`repro.analysis.sweeps`
SWEEP_STUDIES = frozenset(
    {"normalized_switch_count", "use_case_count", "headline", "parallel_use_cases"}
) | _STUDIES_NEEDING_DESIGN


@dataclass(frozen=True)
class SweepJob:
    """One figure/ablation study from :mod:`repro.analysis.sweeps`.

    ``study`` selects the driver; the remaining knobs parameterise it (each
    study reads only the knobs it understands, mirroring the driver
    signatures).  The ablation studies additionally require ``use_cases``.
    """

    KIND = "sweep"

    study: str
    params: NoCParameters = field(default_factory=NoCParameters)
    config: MapperConfig = field(default_factory=MapperConfig)
    use_cases: Optional[UseCaseSource] = None
    benchmark: str = "spread"
    use_case_counts: Tuple[int, ...] = (2, 5, 10, 15, 20)
    use_case_count: int = 10
    core_count: int = 20
    seed: int = 3
    parallelism_levels: Tuple[int, ...] = (1, 2, 3, 4)
    slot_table_sizes: Tuple[int, ...] = (8, 16, 32, 64)
    max_switches: Optional[int] = None

    def __post_init__(self) -> None:
        if self.study not in SWEEP_STUDIES:
            raise SpecificationError(
                f"unknown sweep study {self.study!r}; expected one of "
                f"{sorted(SWEEP_STUDIES)}"
            )
        if self.study in _STUDIES_NEEDING_DESIGN and self.use_cases is None:
            raise SpecificationError(
                f"sweep study {self.study!r} needs a 'use_cases' source"
            )

    def to_dict(self) -> Dict:
        return {
            "kind": self.KIND,
            "study": self.study,
            "use_cases": None if self.use_cases is None else self.use_cases.to_dict(),
            "params": self.params.to_dict(),
            "config": self.config.to_dict(),
            "benchmark": self.benchmark,
            "use_case_counts": list(self.use_case_counts),
            "use_case_count": self.use_case_count,
            "core_count": self.core_count,
            "seed": self.seed,
            "parallelism_levels": list(self.parallelism_levels),
            "slot_table_sizes": list(self.slot_table_sizes),
            "max_switches": self.max_switches,
        }

    @classmethod
    def from_dict(cls, document: Dict) -> "SweepJob":
        try:
            study = document["study"]
        except KeyError:
            raise SerializationError("sweep job document is missing its 'study'") from None
        return cls(
            study=study,
            use_cases=_parse_source(document, required=False),
            params=_parse_params(document),
            config=_parse_config(document),
            benchmark=document.get("benchmark", "spread"),
            use_case_counts=tuple(int(c) for c in document.get("use_case_counts", (2, 5, 10, 15, 20))),
            use_case_count=int(document.get("use_case_count", 10)),
            core_count=int(document.get("core_count", 20)),
            seed=int(document.get("seed", 3)),
            parallelism_levels=tuple(int(l) for l in document.get("parallelism_levels", (1, 2, 3, 4))),
            slot_table_sizes=tuple(int(s) for s in document.get("slot_table_sizes", (8, 16, 32, 64))),
            max_switches=document.get("max_switches"),
        )


@dataclass(frozen=True)
class RepairJob:
    """Repair a baseline mapping after link/switch failures.

    ``failures`` is the :meth:`repro.noc.failures.FailureSet.to_dict` shape
    (``{"links": [[a, b], ...], "switches": [...]}``).  The baseline comes
    from one of three places, tried in order:

    * ``baseline`` — a mapping-result document, inline
      (``{"inline": {...}}``) or by file path (``{"path": "result.json"}``,
      resolved relative to the job file and pulled inline before hashing);
    * ``provision`` — ``[rows, cols]`` mesh dimensions to compute a
      spare-capacity baseline on (fault tolerance needs headroom — the
      minimal mesh has none, so every failure on it breaks schedulability);
    * neither — the engine's minimal-topology mapping of the design.

    ``traffic`` carries live bandwidth re-characterisations as
    ``(use_case, source, destination, bytes_per_s)`` rows: the baseline is
    still computed from the *design* bandwidths, then the overrides are
    applied (:func:`repro.ops.events.apply_traffic`) and the affected use
    cases join the splice set.  Serialized only when non-empty so
    traffic-free repair jobs keep their historical hashes.
    """

    KIND = "repair"

    use_cases: UseCaseSource
    failures: Dict = field(default_factory=dict)
    params: NoCParameters = field(default_factory=NoCParameters)
    config: MapperConfig = field(default_factory=MapperConfig)
    baseline: Optional[Dict] = None
    provision: Optional[Tuple[int, int]] = None
    groups: Optional[Tuple[Tuple[str, ...], ...]] = None
    traffic: Tuple[Tuple[str, str, str, float], ...] = ()
    compare_full_remap: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.failures, dict):
            raise SpecificationError(
                f"repair job 'failures' must be a mapping, got "
                f"{type(self.failures).__name__}"
            )
        if self.baseline is not None and not (
            isinstance(self.baseline, dict)
            and (set(self.baseline) & {"inline", "path"})
        ):
            raise SpecificationError(
                "repair job 'baseline' must be {'inline': {...}} or {'path': ...}"
            )
        for row in self.traffic:
            # NaN fails both comparisons, so this also rejects it
            if len(row) != 4 or row[3] is None or not 0 < float(row[3]) < math.inf:
                raise SpecificationError(
                    "repair job 'traffic' rows must be [use_case, source, "
                    f"destination, 0 < bytes_per_s < inf], got {row!r}"
                )
        _validate_mesh(self.provision, "repair job 'provision'")

    def to_dict(self) -> Dict:
        document = {
            "kind": self.KIND,
            "use_cases": self.use_cases.to_dict(),
            "failures": self.failures,
            "params": self.params.to_dict(),
            "config": self.config.to_dict(),
            "baseline": self.baseline,
            "provision": None if self.provision is None else list(self.provision),
            "groups": None if self.groups is None else [list(g) for g in self.groups],
            "compare_full_remap": self.compare_full_remap,
        }
        if self.traffic:
            document["traffic"] = [list(row) for row in self.traffic]
        return document

    @classmethod
    def from_dict(cls, document: Dict) -> "RepairJob":
        provision = document.get("provision")
        return cls(
            use_cases=_parse_source(document),
            failures=document.get("failures", {}),
            params=_parse_params(document),
            config=_parse_config(document),
            baseline=document.get("baseline"),
            provision=None if provision is None else (int(provision[0]), int(provision[1])),
            groups=_parse_groups(document.get("groups")),
            traffic=tuple(
                (str(row[0]), str(row[1]), str(row[2]), float(row[3]))
                for row in document.get("traffic") or ()
            ),
            compare_full_remap=bool(document.get("compare_full_remap", False)),
        )


@dataclass(frozen=True)
class GapJob:
    """Measure the heuristic-vs-optimal cost gap on one design.

    Runs the exact backend (:func:`repro.optimize.ilp.exact_mapping`) and
    the engine's ordinary mapping of the same design, and reduces them to
    optimality-gap metrics; ``refine_iterations > 0`` additionally runs an
    annealing refinement of the heuristic result so the payload ranks all
    three.  ``solver`` is ``"auto"`` or ``"native"``; both run the exact
    backend's branch-and-bound, and the field stays because it is part of
    every gap job's hash.  ``node_limit`` bounds the exact search (``None``
    = unlimited).
    """

    KIND = "gap"

    use_cases: UseCaseSource
    params: NoCParameters = field(default_factory=NoCParameters)
    config: MapperConfig = field(default_factory=MapperConfig)
    solver: str = "auto"
    groups: Optional[Tuple[Tuple[str, ...], ...]] = None
    refine_iterations: int = 0
    seed: int = 0
    node_limit: Optional[int] = None

    def __post_init__(self) -> None:
        if self.solver not in ("auto", "native"):
            raise SpecificationError(
                f"unknown exact solver {self.solver!r}; expected 'auto' or "
                "'native'"
            )
        if self.refine_iterations < 0:
            raise SpecificationError("refine_iterations must be non-negative")
        if self.node_limit is not None and self.node_limit <= 0:
            raise SpecificationError("node_limit must be positive or None")

    def to_dict(self) -> Dict:
        return {
            "kind": self.KIND,
            "use_cases": self.use_cases.to_dict(),
            "params": self.params.to_dict(),
            "config": self.config.to_dict(),
            "solver": self.solver,
            "groups": None if self.groups is None else [list(g) for g in self.groups],
            "refine_iterations": self.refine_iterations,
            "seed": self.seed,
            "node_limit": self.node_limit,
        }

    @classmethod
    def from_dict(cls, document: Dict) -> "GapJob":
        node_limit = document.get("node_limit")
        return cls(
            use_cases=_parse_source(document),
            params=_parse_params(document),
            config=_parse_config(document),
            solver=document.get("solver", "auto"),
            groups=_parse_groups(document.get("groups")),
            refine_iterations=int(document.get("refine_iterations", 0)),
            seed=int(document.get("seed", 0)),
            node_limit=None if node_limit is None else int(node_limit),
        )


JobSpec = Union[
    DesignFlowJob, WorstCaseJob, RefineJob, PortfolioRefineJob,
    FrequencyJob, SweepJob, RepairJob, GapJob,
]

#: kind string -> job class (the registry :func:`job_from_dict` dispatches on)
JOB_KINDS: Dict[str, type] = {
    cls.KIND: cls
    for cls in (
        DesignFlowJob, WorstCaseJob, RefineJob, PortfolioRefineJob,
        FrequencyJob, SweepJob, RepairJob, GapJob,
    )
}


# --------------------------------------------------------------------------- #
# registry-level helpers
# --------------------------------------------------------------------------- #
def job_to_dict(job: JobSpec) -> Dict:
    """Convert any job spec to its JSON-ready dictionary form."""
    return job.to_dict()


def job_from_dict(document: Dict) -> JobSpec:
    """Reconstruct a job spec of any kind from its dictionary form."""
    if not isinstance(document, dict):
        raise SerializationError(
            f"job document must be a mapping, got {type(document).__name__}"
        )
    kind = document.get("kind")
    try:
        cls = JOB_KINDS[kind]
    except (KeyError, TypeError):  # TypeError: unhashable junk as the kind
        raise SerializationError(
            f"unknown job kind {kind!r}; expected one of {sorted(JOB_KINDS)}"
        ) from None
    try:
        return cls.from_dict(document)
    except (KeyError, TypeError, ValueError) as exc:
        # Malformed hand-written documents surface as clean serialization
        # errors (the CLI's error contract), not raw builtin tracebacks.
        raise SerializationError(
            f"malformed {kind!r} job document: {exc!r}"
        ) from exc


def _resolve_baseline(baseline: Optional[Dict], base_dir) -> Optional[Dict]:
    """Pull a ``{"path": ...}`` repair baseline inline (content-hash it)."""
    if baseline is None or baseline.get("path") is None:
        return baseline
    target = Path(baseline["path"])
    if base_dir is not None and not target.is_absolute():
        target = Path(base_dir) / target
    try:
        document = json.loads(target.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SerializationError(
            f"cannot read repair baseline from {target}: {exc}"
        ) from exc
    return {"inline": document}


def resolve_job(job: JobSpec, base_dir: Union[str, Path, None] = None) -> JobSpec:
    """A copy of the job with path references pulled inline.

    Covers the ``use_cases`` source of every kind and the ``baseline``
    mapping-result reference of repair jobs; a missing or unreadable
    baseline file surfaces as a :class:`SerializationError` (the CLI's
    one-line diagnostic contract), not a traceback.
    """
    replacements: Dict[str, object] = {}
    source = getattr(job, "use_cases", None)
    if source is not None and source.path is not None:
        replacements["use_cases"] = source.resolve(base_dir)
    baseline = getattr(job, "baseline", None)
    if baseline is not None:
        resolved = _resolve_baseline(baseline, base_dir)
        if resolved is not baseline:
            replacements["baseline"] = resolved
    if not replacements:
        return job
    return dataclasses.replace(job, **replacements)


def job_hash(job: JobSpec, base_dir: Union[str, Path, None] = None) -> str:
    """Content hash of a job: the persistent cache key.

    Stable SHA-256 over the canonical JSON of the *resolved* job (path
    sources replaced by the referenced file's contents), so two jobs that
    describe the same computation hash identically regardless of how the
    design was supplied, and editing a referenced design file changes the
    key.
    """
    document = job_to_dict(resolve_job(job, base_dir))
    blob = json.dumps(document, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def save_job(job: JobSpec, path: Union[str, Path]) -> Path:
    """Write one job spec to a compact JSON file; returns the path written.

    The write is atomic, so a ``repro serve`` drain of the target's
    directory never claims a partial spec.
    """
    return atomic_write(path, json.dumps(job_to_dict(job)))


def load_jobs(path: Union[str, Path]) -> List[JobSpec]:
    """Load job specs from a JSON file.

    The file may contain a single job object, a list of job objects, or a
    ``{"jobs": [...]}`` wrapper; relative ``path`` use-case sources are
    resolved against the job file's directory immediately, so the loaded
    jobs are location-independent.
    """
    source = Path(path)
    try:
        document = json.loads(source.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SerializationError(f"cannot read jobs from {source}: {exc}") from exc
    if isinstance(document, dict) and "jobs" in document:
        entries = document["jobs"]
    elif isinstance(document, list):
        entries = document
    else:
        entries = [document]
    return [resolve_job(job_from_dict(entry), source.parent) for entry in entries]

"""repro — multi-use-case mapping of cores onto Networks-on-Chip.

Reproduction of S. Murali, M. Coenen, A. Radulescu, K. Goossens and
G. De Micheli, "A Methodology for Mapping Multiple Use-Cases onto Networks
on Chips", DATE 2006.

The most common entry points are re-exported at the package root:

>>> from repro import UseCase, UseCaseSet, Flow, DesignFlow, NoCParameters
>>> from repro.units import mbps
>>> uc = UseCase("video", flows=[Flow("cpu", "mem", mbps(200))])
>>> result = DesignFlow().run(UseCaseSet([uc]))
>>> result.switch_count >= 1
True
"""

from repro.core import (
    CompiledFlow,
    CompiledGroup,
    CompiledSpec,
    CompiledUseCase,
    CompoundModeSpec,
    Core,
    DesignFlow,
    DesignFlowResult,
    Flow,
    FlowAllocation,
    MapperConfig,
    MappingEngine,
    MappingResult,
    NoCParameters,
    SwitchingGraph,
    UnifiedMapper,
    UseCase,
    UseCaseConfiguration,
    UseCaseSet,
    WorstCaseMapper,
    build_worst_case_use_case,
    compile_spec,
    generate_compound_modes,
    group_use_cases,
    map_use_cases,
)
from repro.core.validate import ValidationIssue, ValidationReport, validate_mapping
from repro.exceptions import (
    ConfigurationError,
    MappingError,
    ReproError,
    ResourceError,
    RoutingError,
    SerializationError,
    SpecificationError,
    TopologyError,
    VerificationError,
)
from repro.noc import Topology
from repro.perf import TdmaSimulator, verify_mapping
from repro.params import MapperConfig as MapperConfig  # noqa: F401  (canonical home)
from repro.analysis import compare_methods
from repro.gen import (
    BottleneckBenchmark,
    SpreadBenchmark,
    generate_benchmark,
    set_top_box_design,
    standard_designs,
    tv_processor_design,
)
from repro.power import AreaModel, PowerModel, analyze_dvfs, area_frequency_tradeoff, noc_area
from repro.io import export_design, load_use_case_set, save_use_case_set
from repro.jobs import (
    DesignFlowJob,
    FrequencyJob,
    GapJob,
    JobCache,
    JobDirectoryService,
    JobResult,
    JobRunner,
    PortfolioRefineJob,
    RefineJob,
    SweepJob,
    UseCaseSource,
    WorstCaseJob,
    job_from_dict,
    job_hash,
    job_to_dict,
    load_jobs,
    save_job,
)
from repro.optimize import AnnealingRefiner, TabuRefiner, exact_mapping, refine_mapping

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # data model
    "Core",
    "Flow",
    "UseCase",
    "UseCaseSet",
    # compiled specifications and the engine session
    "CompiledFlow",
    "CompiledGroup",
    "CompiledSpec",
    "CompiledUseCase",
    "compile_spec",
    "MappingEngine",
    # methodology
    "CompoundModeSpec",
    "generate_compound_modes",
    "SwitchingGraph",
    "group_use_cases",
    "UnifiedMapper",
    "map_use_cases",
    "WorstCaseMapper",
    "build_worst_case_use_case",
    "DesignFlow",
    "DesignFlowResult",
    # results
    "MappingResult",
    "UseCaseConfiguration",
    "FlowAllocation",
    # configuration
    "NoCParameters",
    "MapperConfig",
    # substrate / analysis
    "Topology",
    "TdmaSimulator",
    "verify_mapping",
    "validate_mapping",
    "ValidationIssue",
    "ValidationReport",
    "compare_methods",
    # workload generators
    "SpreadBenchmark",
    "BottleneckBenchmark",
    "generate_benchmark",
    "set_top_box_design",
    "tv_processor_design",
    "standard_designs",
    # power / area
    "AreaModel",
    "PowerModel",
    "analyze_dvfs",
    "area_frequency_tradeoff",
    "noc_area",
    # io
    "export_design",
    "save_use_case_set",
    "load_use_case_set",
    # jobs API (the declarative front door; see repro.jobs)
    "UseCaseSource",
    "DesignFlowJob",
    "WorstCaseJob",
    "RefineJob",
    "PortfolioRefineJob",
    "FrequencyJob",
    "SweepJob",
    "GapJob",
    "JobRunner",
    "JobResult",
    "JobCache",
    "JobDirectoryService",
    "job_to_dict",
    "job_from_dict",
    "job_hash",
    "save_job",
    "load_jobs",
    # refinement / exact backend
    "AnnealingRefiner",
    "TabuRefiner",
    "refine_mapping",
    "exact_mapping",
    # exceptions
    "ReproError",
    "SpecificationError",
    "TopologyError",
    "RoutingError",
    "ResourceError",
    "MappingError",
    "ConfigurationError",
    "VerificationError",
    "SerializationError",
]

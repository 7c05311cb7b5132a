"""Comparison metrics between the proposed method and the worst-case baseline.

The paper's primary quality metric is the number of switches of the smallest
mesh that satisfies every use-case (Figure 6 reports the proposed method's
switch count normalised to the WC method's).  Secondary metrics derived from
it are the total switch area and the NoC power, which feed the headline
"80 % smaller, 54 % less power" claims.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.engine import MappingEngine
from repro.core.result import MappingResult, total_communication_cost
from repro.core.switching import SwitchingGraph
from repro.core.usecase import UseCaseSet
from repro.exceptions import MappingError
from repro.params import MapperConfig, NoCParameters
from repro.power.area import AreaModel
from repro.power.dvfs import DvfsAnalysis
from repro.power.energy import PowerModel

__all__ = ["MethodComparison", "compare_methods"]


@dataclass
class MethodComparison:
    """Side-by-side result of the proposed method and the WC baseline."""

    design: str
    unified: Optional[MappingResult]
    worst_case: Optional[MappingResult]
    unified_area_mm2: float = float("nan")
    worst_case_area_mm2: float = float("nan")
    #: optimal mapping from the exact backend; only populated when
    #: :func:`compare_methods` is called with ``exact=True``
    exact: Optional[MappingResult] = None

    @property
    def unified_switches(self) -> Optional[int]:
        """Switch count of the proposed method (None when it failed)."""
        return None if self.unified is None else self.unified.switch_count

    @property
    def worst_case_switches(self) -> Optional[int]:
        """Switch count of the WC baseline (None when it failed)."""
        return None if self.worst_case is None else self.worst_case.switch_count

    @property
    def normalized_switch_count(self) -> Optional[float]:
        """Proposed-method switches / WC switches (Figure 6's y-axis).

        ``None`` when either method failed to produce a mapping — the paper
        likewise omits the points where the WC method fails.
        """
        if self.unified is None or self.worst_case is None:
            return None
        return self.unified.switch_count / self.worst_case.switch_count

    @property
    def area_reduction(self) -> Optional[float]:
        """Fractional switch-area reduction of the proposed method vs. WC."""
        if self.unified is None or self.worst_case is None:
            return None
        if self.worst_case_area_mm2 <= 0:
            return None
        return 1.0 - self.unified_area_mm2 / self.worst_case_area_mm2

    @property
    def exact_switches(self) -> Optional[int]:
        """Switch count of the exact backend (None when not run / failed)."""
        return None if self.exact is None else self.exact.switch_count

    @property
    def optimality_gap(self) -> Optional[float]:
        """Relative communication-cost gap of the proposed method vs. exact.

        ``(unified_cost - exact_cost) / exact_cost``; 0.0 when the heuristic
        matched the optimum (or both costs are zero).  ``None`` unless
        :func:`compare_methods` ran with ``exact=True`` and both mapped.
        """
        if self.unified is None or self.exact is None:
            return None
        exact_cost = total_communication_cost(self.exact)
        if exact_cost == 0:
            return 0.0 if total_communication_cost(self.unified) == 0 else None
        return (total_communication_cost(self.unified) - exact_cost) / exact_cost

    def as_row(self) -> dict:
        """Plain-dict row for reports and the benchmark harness.

        The exact-backend columns appear only when the comparison was run
        with ``exact=True``, so rows from ordinary comparisons are unchanged.
        """
        row = {
            "design": self.design,
            "unified_switches": self.unified_switches,
            "worst_case_switches": self.worst_case_switches,
            "normalized_switch_count": self.normalized_switch_count,
            "unified_area_mm2": round(self.unified_area_mm2, 3)
            if self.unified is not None
            else None,
            "worst_case_area_mm2": round(self.worst_case_area_mm2, 3)
            if self.worst_case is not None
            else None,
            "area_reduction": self.area_reduction,
        }
        if self.exact is not None:
            gap = self.optimality_gap
            row["exact_switches"] = self.exact_switches
            row["optimality_gap"] = None if gap is None else round(gap, 6)
        return row


def compare_methods(
    use_cases: UseCaseSet,
    params: NoCParameters | None = None,
    config: MapperConfig | None = None,
    switching_graph: Optional[SwitchingGraph] = None,
    area_model: AreaModel | None = None,
    design_name: Optional[str] = None,
    engine: MappingEngine | None = None,
    exact: bool = False,
    exact_solver: str = "auto",
) -> MethodComparison:
    """Run both mapping methods on one design and compare them.

    A method that cannot produce a valid mapping within the configured
    topology limit is recorded as ``None`` (this happens to the WC baseline
    on the large synthetic benchmarks, as in the paper).

    With ``exact=True`` the exact backend (:mod:`repro.optimize.ilp`) also
    runs, populating :attr:`MethodComparison.exact` and the derived
    :attr:`~MethodComparison.optimality_gap`.  Exact search is exponential
    in the core count — reserve it for small/medium designs.

    Both methods run on one :class:`MappingEngine` session, so the design is
    compiled once and shared; pass a long-lived ``engine`` (its
    params/config then apply) to share compilation and results across many
    comparisons, as the sweep drivers do.
    """
    engine = engine or MappingEngine(params=params, config=config)
    model = area_model or AreaModel()
    name = design_name or use_cases.name

    try:
        unified = engine.map(use_cases, switching_graph=switching_graph)
    except MappingError:
        unified = None
    try:
        worst_case = engine.worst_case(use_cases)
    except MappingError:
        worst_case = None

    comparison = MethodComparison(design=name, unified=unified, worst_case=worst_case)
    if unified is not None:
        comparison.unified_area_mm2 = model.mapping_area(unified)
    if worst_case is not None:
        comparison.worst_case_area_mm2 = model.mapping_area(worst_case)
    if exact:
        from repro.optimize.ilp import exact_mapping

        try:
            comparison.exact = exact_mapping(
                use_cases, engine=engine, switching_graph=switching_graph,
                solver=exact_solver,
            )
        except MappingError:
            comparison.exact = None
    return comparison

"""Tests for serialisation, export, reports, refinement and parameter objects."""

import json

import pytest

from repro import (
    ConfigurationError,
    DesignFlow,
    CompoundModeSpec,
    MapperConfig,
    NoCParameters,
    SerializationError,
    UnifiedMapper,
    load_use_case_set,
    save_use_case_set,
)
from repro.core.result import total_communication_cost
from repro.io import (
    design_to_dict,
    export_design,
    format_rows,
    format_summary,
    mapping_result_to_dict,
    save_mapping_result,
    use_case_set_from_dict,
    use_case_set_to_dict,
)
from repro.optimize import AnnealingRefiner, TabuRefiner, refine_mapping
from repro.units import mbps, mhz


# --------------------------------------------------------------------------- #
# parameter objects
# --------------------------------------------------------------------------- #
def test_noc_parameters_derived_quantities(params):
    assert params.link_capacity == pytest.approx(2e9)
    assert params.slot_bandwidth == pytest.approx(2e9 / params.slot_table_size)
    assert params.cycle_time == pytest.approx(2e-9)
    faster = params.with_frequency(mhz(1000))
    assert faster.link_capacity == pytest.approx(4e9)
    assert params.frequency_hz == mhz(500)  # original unchanged


@pytest.mark.parametrize(
    "kwargs",
    [
        {"frequency_hz": 0},
        {"link_width_bits": 0},
        {"slot_table_size": 0},
        {"max_cores_per_switch": 0},
        {"topology_kind": "hypercube"},
    ],
)
def test_noc_parameters_validation(kwargs):
    with pytest.raises(ConfigurationError):
        NoCParameters(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_switches": 0},
        {"min_switches": 0},
        {"max_switches": 1, "min_switches": 2},
        {"routing_policy": "random"},
        {"max_detour_hops": -1},
        {"max_paths_per_pair": 0},
        {"placement_candidates": 0},
        {"bandwidth_weight": -1},
        {"refinement": "genetic"},
        {"refinement_iterations": -1},
    ],
)
def test_mapper_config_validation(kwargs):
    with pytest.raises(ConfigurationError):
        MapperConfig(**kwargs)


# --------------------------------------------------------------------------- #
# serialisation round-trips
# --------------------------------------------------------------------------- #
def test_use_case_set_roundtrip(figure5_use_cases, tmp_path):
    path = save_use_case_set(figure5_use_cases, tmp_path / "design.json")
    loaded = load_use_case_set(path)
    assert loaded.name == figure5_use_cases.name
    assert set(loaded.names) == set(figure5_use_cases.names)
    for name in loaded.names:
        original = figure5_use_cases[name]
        restored = loaded[name]
        assert len(restored) == len(original)
        for flow in original:
            match = restored.flow_between(flow.source, flow.destination)
            assert match is not None
            assert match.bandwidth == pytest.approx(flow.bandwidth)
            assert match.latency == pytest.approx(flow.latency)


def test_use_case_dict_roundtrip_preserves_parents_and_kinds(video_use_cases):
    document = use_case_set_to_dict(video_use_cases)
    text = json.dumps(document)  # must be JSON-serialisable
    restored = use_case_set_from_dict(json.loads(text))
    assert set(restored.all_core_names()) == set(video_use_cases.all_core_names())


def test_use_case_set_from_dict_rejects_malformed_documents():
    with pytest.raises(SerializationError):
        use_case_set_from_dict({"nope": 1})
    with pytest.raises(SerializationError):
        use_case_set_from_dict({"name": "x", "use_cases": [{"flows": []}]})


def test_load_use_case_set_missing_file(tmp_path):
    with pytest.raises(SerializationError):
        load_use_case_set(tmp_path / "missing.json")


def test_mapping_result_serialisation(figure5_mapping, tmp_path):
    document = mapping_result_to_dict(figure5_mapping)
    assert document["method"] == "unified"
    assert document["topology"]["switch_count"] == figure5_mapping.switch_count
    assert set(document["core_mapping"]) == set(figure5_mapping.core_mapping)
    assert set(document["use_cases"]) == set(figure5_mapping.use_case_names)
    path = save_mapping_result(figure5_mapping, tmp_path / "result.json")
    parsed = json.loads(path.read_text())
    assert parsed["parameters"]["frequency_mhz"] == pytest.approx(500.0)


# --------------------------------------------------------------------------- #
# export and reports
# --------------------------------------------------------------------------- #
def test_design_to_dict_structure(figure5_mapping):
    description = design_to_dict(figure5_mapping)
    assert len(description["switches"]) == figure5_mapping.switch_count
    assert len(description["network_interfaces"]) == len(figure5_mapping.core_mapping)
    assert set(description["configurations"]) == set(figure5_mapping.use_case_names)


def test_export_design_text_and_file(figure5_mapping, tmp_path):
    target = tmp_path / "design.netlist"
    text = export_design(figure5_mapping, target)
    assert target.read_text() == text
    assert "switch switch_0" in text
    assert "configuration uc1:" in text
    for core in figure5_mapping.core_mapping:
        assert f"ni ni_{core}" in text


def test_format_rows_renders_table():
    rows = [{"label": "a", "value": 1.5}, {"label": "b", "value": None}]
    text = format_rows(rows, title="demo")
    assert "demo" in text
    assert "n/a" in text
    assert "1.500" in text
    assert format_rows([], title="empty").startswith("empty")


def test_format_summary_renders_nested_dicts():
    text = format_summary({"top": 1, "nested": {"inner": {"x": 2}, "flat": 3.0}},
                          title="headline")
    assert "headline" in text
    assert "x=2" in text
    assert "flat: 3.000" in text


# --------------------------------------------------------------------------- #
# refinement
# --------------------------------------------------------------------------- #
def test_refinement_preserves_feasibility_and_never_worsens(figure5_use_cases):
    params = NoCParameters(max_cores_per_switch=1)
    initial = UnifiedMapper(params=params).map(figure5_use_cases)
    outcome = refine_mapping(initial, figure5_use_cases, iterations=20, seed=1)
    assert outcome.refined_cost <= outcome.initial_cost
    assert outcome.improvement >= 0.0
    assert outcome.refined.switch_count == initial.switch_count
    # The refined mapping still satisfies every constraint.
    from repro import verify_mapping

    assert verify_mapping(outcome.refined, figure5_use_cases).passed


def test_annealing_zero_iterations_is_identity(figure5_mapping, figure5_use_cases):
    outcome = AnnealingRefiner(iterations=0).refine(figure5_mapping, figure5_use_cases)
    assert outcome.refined_cost == outcome.initial_cost
    assert outcome.accepted_moves == 0


def test_tabu_refiner_improves_or_keeps_cost(figure5_use_cases):
    params = NoCParameters(max_cores_per_switch=1)
    initial = UnifiedMapper(params=params).map(figure5_use_cases)
    outcome = TabuRefiner(iterations=5, neighbours_per_iteration=4).refine(
        initial, figure5_use_cases
    )
    assert outcome.refined_cost <= total_communication_cost(initial)


def test_refiner_configuration_validation():
    with pytest.raises(ConfigurationError):
        AnnealingRefiner(iterations=-1)
    with pytest.raises(ConfigurationError):
        AnnealingRefiner(initial_temperature=0)
    with pytest.raises(ConfigurationError):
        TabuRefiner(neighbours_per_iteration=0)


# --------------------------------------------------------------------------- #
# end-to-end design flow
# --------------------------------------------------------------------------- #
def test_design_flow_end_to_end(figure5_use_cases):
    flow = DesignFlow()
    outcome = flow.run(
        figure5_use_cases,
        parallel_modes=[CompoundModeSpec(["uc1", "uc2"], name="uc1+uc2")],
        smooth_switching=[],
    )
    assert "uc1+uc2" in outcome.use_cases
    assert outcome.generated_compound_modes[0].name == "uc1+uc2"
    # Compound membership forces a shared configuration group.
    assert frozenset({"uc1", "uc2", "uc1+uc2"}) in outcome.groups
    assert outcome.verification is not None and outcome.verification.passed
    summary = outcome.summary()
    assert summary["compound_modes"] == ["uc1+uc2"]
    assert summary["verified"] is True
    # The compound mode's merged flow got an allocation too.
    compound_cfg = outcome.mapping.configuration("uc1+uc2")
    merged = compound_cfg.allocation_for("C3", "C4")
    assert merged is not None
    assert merged.flow.bandwidth == pytest.approx(mbps(152))


def test_design_flow_without_verification(figure5_use_cases):
    outcome = DesignFlow(verify=False).run(figure5_use_cases)
    assert outcome.verification is None
    assert outcome.switch_count >= 1

"""Tests for per-use-case resource state, routing and deadlock helpers."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import MapperConfig, NoCParameters
from repro.noc.deadlock import (
    channel_dependency_graph,
    is_deadlock_free,
    is_west_first_path,
    is_xy_path,
)
from repro.noc.failures import FailureSet
from repro.noc.resources import INFEASIBLE_COST, ResourceState
from repro.noc.routing import PathSelector, mesh_minimal_paths, xy_path
from repro.noc.slot_table import slots_needed
from repro.noc.topology import Topology
from repro.units import mbps


@pytest.fixture
def state(params):
    return ResourceState(params)


def _needed(bandwidth, params):
    return slots_needed(bandwidth, params.link_capacity, params.slot_table_size)


def _reserve(state, source, destination, path, bandwidth, params, guaranteed=True):
    """Find slots with ``can_reserve`` and commit them; returns the starts."""
    needed = _needed(bandwidth, params) if guaranteed else 0
    starts = state.can_reserve(source, destination, path, bandwidth, needed)
    assert starts is not None
    state.reserve(source, destination, path, bandwidth, starts)
    return starts


# --------------------------------------------------------------------------- #
# ResourceState
# --------------------------------------------------------------------------- #
def test_initial_residuals_equal_capacity(state, params):
    assert (state.link_residual, state.free_masks) == ({}, {})
    assert (state.ingress, state.egress) == ({}, {})
    # Untouched links and NI access links carry a whole link's bandwidth in
    # every slot.
    size = params.slot_table_size
    starts = state.can_reserve("a", "b", (0, 1, 3), params.link_capacity, size)
    assert starts == tuple(range(size))
    assert state.path_cost((0, 1, 3), params.link_capacity, size, MapperConfig()) != (
        INFEASIBLE_COST
    )


def test_reserve_updates_residuals_and_slots(state, params):
    path = (0, 1, 3)
    starts = _reserve(state, "a", "b", path, mbps(250), params)
    assert state.link_residual[(0, 1)] == pytest.approx(params.link_capacity - mbps(250))
    assert state.ingress["a"] == pytest.approx(params.link_capacity - mbps(250))
    assert state.egress["b"] == pytest.approx(params.link_capacity - mbps(250))
    assert len(starts) == _needed(mbps(250), params)
    size = params.slot_table_size
    assert size - state.free_masks[(0, 1)].bit_count() == len(starts)
    # Pipelined: the second link's slots are the first's shifted by one.
    first = {slot for slot in range(size) if not state.free_masks[(0, 1)] >> slot & 1}
    second = {slot for slot in range(size) if not state.free_masks[(1, 3)] >> slot & 1}
    assert first == set(starts)
    assert {(slot + 1) % size for slot in first} == second


def test_same_switch_reservation_uses_no_links(state, params):
    assert _reserve(state, "a", "d", (0,), mbps(100), params) == ()
    assert (state.link_residual, state.free_masks) == ({}, {})
    assert state.ingress["a"] == pytest.approx(params.link_capacity - mbps(100))


def test_reserve_rejects_overcommitted_bandwidth(state, params):
    _reserve(state, "a", "b", (0, 1, 3), params.link_capacity * 0.9, params)
    bandwidth = params.link_capacity * 0.2
    needed = _needed(bandwidth, params)
    # the path's links and both cores' NI links are short of bandwidth
    assert state.can_reserve("a", "b", (0, 1, 3), bandwidth, needed) is None
    assert state.can_reserve("c", "b", (1, 3), bandwidth, needed) is None
    assert state.can_reserve("a", "c", (0, 2, 3, 1), bandwidth, needed) is None
    assert state.can_reserve("c", "d", (1, 0, 2), bandwidth, needed) is not None


def test_reserve_best_effort_skips_slot_tables(state, params):
    assert _reserve(state, "a", "b", (0, 1, 3), mbps(300), params, guaranteed=False) == ()
    assert state.free_masks == {}
    # Bandwidth is still accounted for.
    assert state.link_residual[(0, 1)] < params.link_capacity


def test_path_cost_prefers_short_and_unloaded_paths(state, config, params):
    needed = _needed(mbps(100), params)
    short = state.path_cost((0, 1, 3), mbps(100), needed, config)
    long = state.path_cost((0, 2, 3), mbps(100), needed, config)
    assert short == pytest.approx(long)  # both 2 hops, both empty
    _reserve(state, "a", "b", (0, 1, 3), mbps(900), params)
    assert state.path_cost((0, 1, 3), mbps(100), needed, config) > state.path_cost(
        (0, 2, 3), mbps(100), needed, config
    )


def test_path_cost_infeasible_when_bandwidth_missing(state, config, params):
    _reserve(state, "a", "b", (0, 1, 3), params.link_capacity, params)
    needed = _needed(mbps(10), params)
    assert state.path_cost((0, 1, 3), mbps(10), needed, config) == INFEASIBLE_COST


def test_copy_is_independent(state, params):
    duplicate = state.copy()
    _reserve(state, "a", "b", (0, 1, 3), mbps(100), params)
    assert duplicate.free_masks == {}
    assert (duplicate.link_residual, duplicate.ingress, duplicate.egress) == ({}, {}, {})


def test_copying_a_pristine_state_builds_no_slot_table(params):
    # A group state holds only the links it reserved: copying the pristine
    # state builds nothing, and a reservation touches only its own links.
    duplicate = ResourceState(params).copy()
    assert (duplicate.link_residual, duplicate.free_masks) == ({}, {})
    _reserve(duplicate, "a", "b", (0, 1, 2), mbps(100), params)
    assert sorted(duplicate.free_masks) == sorted(duplicate.link_residual) == [(0, 1), (1, 2)]


#: core -> switch on a 2x2 mesh; the model test reserves between these pairs
_MODEL_CORES = {"a": 0, "b": 3, "c": 1}
_MODEL_PAIRS = (("a", "b"), ("b", "a"), ("a", "c"), ("c", "b"), ("c", "a"), ("a", "a"))
_MODEL_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("reserve"),
            st.integers(0, len(_MODEL_PAIRS) - 1),  # core pair
            st.integers(0, 3),                       # candidate path
            st.integers(1, 8),                       # bandwidth in slots
            st.booleans(),                           # guaranteed
        ),
        st.tuples(st.just("copy")),
    ),
    min_size=10,
    max_size=40,
)


def _model_view(state, links, cores):
    """(link residuals, free masks, NI residuals) read through the defaults."""
    capacity = state.capacity
    full = state.full_mask
    residuals = {link: state.link_residual.get(link, capacity) for link in links}
    masks = {link: state.free_masks.get(link, full) for link in links}
    ni = {
        core: (state.ingress.get(core, capacity), state.egress.get(core, capacity))
        for core in cores
    }
    return residuals, masks, ni


def _model_expectation(held, cores, links, capacity, size):
    """What the held ``(source, destination, path, bandwidth, starts)``
    reservations imply, rebuilt from scratch link by link."""
    full = (1 << size) - 1
    residuals = {link: capacity for link in links}
    masks = dict.fromkeys(links, full)
    ni = {core: [capacity, capacity] for core in cores}
    for source, destination, path, bandwidth, starts in held:
        for hop, link in enumerate(_model_links(path)):
            residuals[link] -= bandwidth
            for start in starts:
                masks[link] &= ~(1 << (start + hop) % size)
        ni[source][0] -= bandwidth
        ni[destination][1] -= bandwidth
    return residuals, masks, {core: tuple(pair) for core, pair in ni.items()}


def _model_plan(held, cores, all_links, path, bandwidth, guaranteed, capacity, size):
    """Independent feasibility model: the starting slots a reservation gets,
    ``()`` when it needs none, or ``None`` when it must fail."""
    source, destination, switches = path
    residuals, masks, ni = _model_expectation(held, cores, all_links, capacity, size)
    if ni[source][0] < bandwidth or ni[destination][1] < bandwidth:
        return None
    links = _model_links(switches)
    if any(residuals[link] < bandwidth for link in links):
        return None
    if not guaranteed or not links:
        return ()
    needed = round(bandwidth / (capacity / size))
    starts = [
        start for start in range(size)
        if all(masks[link] >> ((start + hop) % size) & 1 for hop, link in enumerate(links))
    ]
    return tuple(starts[:needed]) if len(starts) >= needed else None


def _model_links(switches):
    return list(zip(switches, switches[1:]))


@pytest.mark.parametrize("failed", [False, True], ids=["pristine", "failed-link"])
@settings(max_examples=60, deadline=None)
@given(ops=_MODEL_OPS)
def test_resource_state_matches_reservation_model(failed, ops):
    # can_reserve must find exactly the model's starts (or refuse exactly
    # when it does), and after every reserve the residuals and free masks
    # must equal what the held reservations imply, on every link; copies
    # are frozen snapshots.  Paths are the candidates a PathSelector offers
    # on the mesh, so the failed-link mesh never offers its failed link.
    # Bandwidths are whole slots, so every residual is an exact float.
    params = NoCParameters()
    capacity = params.link_capacity
    size = params.slot_table_size
    topology = Topology.mesh(2, 2)
    if failed:
        topology = topology.with_failures(FailureSet().mark_link_down(1, 3))
    links = topology.links
    selector = PathSelector(topology, MapperConfig())
    state = ResourceState(params)
    cores = sorted(_MODEL_CORES)
    held = []
    snapshots = []
    for op in ops:
        if op[0] == "reserve":
            _kind, pair, choice, slots, guaranteed = op
            source, destination = _MODEL_PAIRS[pair]
            candidates = selector.candidate_paths(
                _MODEL_CORES[source], _MODEL_CORES[destination]
            )
            path = candidates[choice % len(candidates)]
            assert all(topology.has_link(*link) for link in _model_links(path))
            bandwidth = slots * (capacity / size)
            expected = _model_plan(held, _MODEL_CORES, links, (source, destination, path),
                                   bandwidth, guaranteed, capacity, size)
            needed = slots if guaranteed else 0
            assert state.can_reserve(source, destination, path, bandwidth, needed) == expected
            if expected is not None:
                state.reserve(source, destination, path, bandwidth, expected)
                held.append((source, destination, path, bandwidth, expected))
        else:
            snapshots.append((state.copy(), _model_view(state, links, cores)))
        assert _model_view(state, links, cores) == _model_expectation(
            held, cores, links, capacity, size
        )
        for duplicate, view in snapshots:
            assert _model_view(duplicate, links, cores) == view


# --------------------------------------------------------------------------- #
# routing
# --------------------------------------------------------------------------- #
def test_xy_path_is_dimension_ordered():
    mesh = Topology.mesh(3, 3)
    path = xy_path(mesh, 0, 8)
    assert path == (0, 1, 2, 5, 8)
    assert is_xy_path(mesh, path)


def test_xy_path_same_switch():
    mesh = Topology.mesh(3, 3)
    assert xy_path(mesh, 4, 4) == (4,)


def test_mesh_minimal_paths_count_and_length():
    mesh = Topology.mesh(3, 3)
    paths = mesh_minimal_paths(mesh, 0, 8, limit=16)
    assert len(paths) == 6  # C(4,2) monotone staircase paths
    assert all(len(path) - 1 == 4 for path in paths)
    assert all(path[0] == 0 and path[-1] == 8 for path in paths)


def test_mesh_minimal_paths_respects_limit():
    mesh = Topology.mesh(4, 4)
    assert len(mesh_minimal_paths(mesh, 0, 15, limit=3)) == 3


def _reference_mesh_minimal_paths(topology, source, destination, limit):
    """The seed's recursive enumeration, kept as the order reference."""
    src = topology.switch(source)
    dst = topology.switch(destination)
    _, cols = topology.dimensions
    row_step = 1 if dst.row >= src.row else -1
    col_step = 1 if dst.col >= src.col else -1
    paths = []

    def extend(row, col, acc):
        if len(paths) >= limit:
            return
        if row == dst.row and col == dst.col:
            paths.append(tuple(acc))
            return
        if col != dst.col:
            extend(row, col + col_step, acc + [row * cols + (col + col_step)])
        if row != dst.row:
            extend(row + row_step, col, acc + [(row + row_step) * cols + col])

    extend(src.row, src.col, [source])
    return paths


def test_mesh_minimal_paths_match_recursive_reference_in_order():
    # The iterative walk (plus relative-offset cache) must reproduce the
    # historical recursion exactly, including enumeration order — the
    # ``limit`` cap truncates by that order.
    mesh = Topology.mesh(5, 6)
    for source in (0, 7, 17, 29):
        for destination in (0, 5, 12, 24, 29):
            if source == destination:
                continue
            for limit in (1, 3, 8, 100):
                assert mesh_minimal_paths(mesh, source, destination, limit) == (
                    _reference_mesh_minimal_paths(mesh, source, destination, limit)
                )


def test_mesh_minimal_paths_deep_on_large_mesh():
    # 20x20 corner-to-corner would recurse ~40 deep with huge branching in
    # the old implementation; the iterative walk handles it with any limit.
    mesh = Topology.mesh(20, 20)
    paths = mesh_minimal_paths(mesh, 0, 399, limit=8)
    assert len(paths) == 8
    assert all(len(path) - 1 == 38 for path in paths)
    assert all(path[0] == 0 and path[-1] == 399 for path in paths)


def test_path_selector_candidates_cached_and_valid(config):
    mesh = Topology.mesh(3, 3)
    selector = PathSelector(mesh, config)
    first = selector.candidate_paths(0, 8)
    second = selector.candidate_paths(0, 8)
    assert first is second  # cached
    for path in first:
        for here, there in zip(path, path[1:]):
            assert mesh.has_link(here, there)


def test_path_selector_same_switch(config):
    mesh = Topology.mesh(2, 2)
    selector = PathSelector(mesh, config)
    assert selector.candidate_paths(1, 1) == ((1,),)


def test_path_selector_xy_policy_single_path():
    mesh = Topology.mesh(3, 3)
    selector = PathSelector(mesh, MapperConfig(routing_policy="xy"))
    assert selector.candidate_paths(0, 8) == (xy_path(mesh, 0, 8),)


def test_path_selector_west_first_policy_filters():
    mesh = Topology.mesh(3, 3)
    selector = PathSelector(mesh, MapperConfig(routing_policy="west_first"))
    for path in selector.candidate_paths(2, 6):  # destination is to the west
        assert is_west_first_path(mesh, path)


def test_path_selector_k_shortest_allows_detours():
    mesh = Topology.mesh(3, 3)
    selector = PathSelector(
        mesh, MapperConfig(routing_policy="k_shortest", max_detour_hops=2,
                           max_paths_per_pair=32)
    )
    lengths = {len(path) - 1 for path in selector.candidate_paths(0, 1)}
    assert 1 in lengths
    assert any(length > 1 for length in lengths)


def test_select_least_cost_avoids_congested_path(state, config, params):
    selector = PathSelector(Topology.mesh(2, 2), config)
    # Congest the (1, 3) link with traffic from core c (on switch 1) to b.
    _reserve(state, "c", "b", (1, 3), params.link_capacity * 0.55, params)
    selection = selector.select_least_cost(state, "a", "b", 0, 3, mbps(200))
    assert selection is not None
    path, starts = selection
    assert path == (0, 2, 3)
    assert starts == state.can_reserve("a", "b", path, mbps(200), _needed(mbps(200), params))


def test_select_least_cost_respects_max_hops(state, config):
    selector = PathSelector(Topology.mesh(2, 2), config)
    assert selector.select_least_cost(state, "a", "b", 0, 3, mbps(10), max_hops=1) is None
    assert selector.select_least_cost(state, "a", "c", 0, 1, mbps(10), max_hops=1) is not None


# --------------------------------------------------------------------------- #
# deadlock helpers
# --------------------------------------------------------------------------- #
def test_is_xy_path_detects_violations():
    mesh = Topology.mesh(3, 3)
    assert is_xy_path(mesh, (0, 1, 4))       # X then Y
    assert not is_xy_path(mesh, (0, 3, 4))   # Y then X


def test_west_first_forbids_turning_into_west():
    mesh = Topology.mesh(3, 3)
    assert is_west_first_path(mesh, (2, 1, 0, 3))   # west first, then south
    assert not is_west_first_path(mesh, (5, 8, 7))  # south then west


def test_channel_dependency_graph_cycle_detection():
    square = [(0, 1, 2), (2, 3, 0)]       # no cycle
    assert is_deadlock_free(square)
    cycle = [(0, 1, 2), (1, 2, 3), (2, 3, 0), (3, 0, 1)]
    assert not is_deadlock_free(cycle)
    cdg = channel_dependency_graph(cycle)
    # Four distinct channels: (0,1), (1,2), (2,3) and (3,0).
    assert cdg.number_of_nodes() == 4
    assert cdg.number_of_edges() == 4


def test_xy_paths_on_mesh_are_deadlock_free(config):
    mesh = Topology.mesh(3, 3)
    paths = [xy_path(mesh, src, dst) for src in range(9) for dst in range(9) if src != dst]
    assert is_deadlock_free(paths)

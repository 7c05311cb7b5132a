"""Tests for per-use-case resource state, routing and deadlock helpers."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import MapperConfig, NoCParameters, ResourceError, RoutingError, TopologyError
from repro.noc.deadlock import (
    channel_dependency_graph,
    is_deadlock_free,
    is_west_first_path,
    is_xy_path,
)
from repro.noc.failures import FailureSet
from repro.noc.resources import INFEASIBLE_COST, ResourceState
from repro.noc.routing import PathSelector, mesh_minimal_paths, xy_path
from repro.noc.slot_table import SlotTable
from repro.noc.topology import Topology
from repro.units import mbps


@pytest.fixture
def mesh():
    return Topology.mesh(2, 2)


@pytest.fixture
def state(mesh, params):
    state = ResourceState(mesh, params, name="uc")
    state.attach_core("a", 0)
    state.attach_core("b", 3)
    state.attach_core("c", 1)
    return state


# --------------------------------------------------------------------------- #
# ResourceState
# --------------------------------------------------------------------------- #
def test_initial_residuals_equal_capacity(state, params):
    for link in state.topology.links:
        assert state.link_residual(link) == pytest.approx(params.link_capacity)
    assert state.ingress_residual("a") == pytest.approx(params.link_capacity)
    assert state.max_link_utilization() == 0.0


def test_attach_core_idempotent_and_conflicting(state):
    state.attach_core("a", 0)  # same switch: fine
    with pytest.raises(ResourceError):
        state.attach_core("a", 1)


def test_attach_core_respects_switch_limit(mesh):
    params = NoCParameters(max_cores_per_switch=1)
    state = ResourceState(mesh, params)
    state.attach_core("a", 0)
    with pytest.raises(ResourceError):
        state.attach_core("b", 0)


def test_attach_core_unknown_switch(state):
    with pytest.raises(TopologyError):
        state.attach_core("z", 99)


def test_reserve_replans_when_tables_mutated_after_can_reserve(state, params):
    # The can_reserve -> reserve plan cache must not hand out a stale
    # assignment when the live table was mutated in between through the
    # public slot_table() accessor.
    path = (0, 1, 3)
    bandwidth = params.link_capacity / params.slot_table_size * 2  # 2 slots
    assert state.can_reserve("a", "b", path, bandwidth)
    external = state.slot_table((0, 1)).reserve("ext", [0, 1])
    reservation = state.reserve("f1", "a", "b", path, bandwidth)
    # The external reservation survives untouched and f1 got different slots.
    assert state.slot_table((0, 1)).slots_owned_by("ext") == (0, 1)
    assert not set(reservation.link_slots[(0, 1)]) & {0, 1}
    state.slot_table((0, 1)).release(external)


def test_reserve_updates_residuals_and_slots(state, params):
    path = (0, 1, 3)
    reservation = state.reserve("f1", "a", "b", path, mbps(250))
    assert state.link_residual((0, 1)) == pytest.approx(params.link_capacity - mbps(250))
    assert state.ingress_residual("a") == pytest.approx(params.link_capacity - mbps(250))
    assert state.egress_residual("b") == pytest.approx(params.link_capacity - mbps(250))
    expected_slots = state.slots_for_bandwidth(mbps(250))
    assert reservation.slots_per_link == expected_slots
    assert state.slot_table((0, 1)).used_count == expected_slots
    # Pipelined: the second link's slots are the first's shifted by one.
    size = params.slot_table_size
    first = reservation.link_slots[(0, 1)]
    second = reservation.link_slots[(1, 3)]
    assert sorted((slot + 1) % size for slot in first) == sorted(second)


def test_release_restores_everything(state, params):
    reservation = state.reserve("f1", "a", "b", (0, 1, 3), mbps(500))
    state.release(reservation)
    assert state.link_residual((0, 1)) == pytest.approx(params.link_capacity)
    assert state.slot_table((0, 1)).free_count == params.slot_table_size
    assert state.ingress_residual("a") == pytest.approx(params.link_capacity)
    with pytest.raises(ResourceError):
        state.release(reservation)


def test_release_accepts_copied_and_equal_reservations(state, params):
    # O(1) identity release must keep the historical equality semantics: a
    # reservation carried into a copy (same object) and an equal-but-distinct
    # record both release fine; a never-held one still raises.
    reservation = state.reserve("f1", "a", "b", (0, 1, 3), mbps(500))
    duplicate = state.copy("dup")
    duplicate.release(reservation)  # same object held by the copy
    assert duplicate.link_residual((0, 1)) == pytest.approx(params.link_capacity)

    from repro.noc.resources import PathReservation

    equal = PathReservation(
        flow_id=reservation.flow_id,
        source_core=reservation.source_core,
        destination_core=reservation.destination_core,
        switch_path=reservation.switch_path,
        bandwidth=reservation.bandwidth,
        link_slots=dict(reservation.link_slots),
        guaranteed=reservation.guaranteed,
    )
    state.release(equal)  # equality fallback
    assert state.link_residual((0, 1)) == pytest.approx(params.link_capacity)
    with pytest.raises(ResourceError):
        state.release(equal)


def test_release_is_constant_time_under_many_reservations(state):
    # Smoke-check the dict-backed bookkeeping: release from the middle of a
    # large reservation population and confirm exact accounting.
    held = [
        state.reserve(f"f{i}", "a", "b", (0, 1, 3), mbps(1), guaranteed=False)
        for i in range(200)
    ]
    for reservation in held[50:150]:
        state.release(reservation)
    assert len(state.reservations) == 100


def test_same_switch_reservation_uses_no_links(state):
    state.attach_core("d", 0)
    reservation = state.reserve("f1", "a", "d", (0,), mbps(100))
    assert reservation.hop_count == 0
    assert reservation.link_slots == {}
    assert state.max_link_utilization() == 0.0


def test_reserve_rejects_overcommitted_bandwidth(state, params):
    state.reserve("f1", "a", "b", (0, 1, 3), params.link_capacity * 0.9)
    assert not state.can_reserve("a", "b", (0, 1, 3), params.link_capacity * 0.2)
    with pytest.raises(ResourceError):
        state.reserve("f2", "a", "b", (0, 1, 3), params.link_capacity * 0.2)


def test_reserve_checks_endpoint_switches(state):
    # Path must start/end at the cores' switches.
    assert not state.can_reserve("a", "b", (1, 3), mbps(10))
    assert not state.can_reserve("a", "b", (0, 2), mbps(10))


def test_reserve_best_effort_skips_slot_tables(state):
    reservation = state.reserve("f1", "a", "b", (0, 1, 3), mbps(300), guaranteed=False)
    assert reservation.link_slots == {}
    assert state.slot_table((0, 1)).used_count == 0
    # Bandwidth is still accounted for.
    assert state.link_residual((0, 1)) < state.params.link_capacity


def test_path_cost_prefers_short_and_unloaded_paths(state, config):
    short = state.path_cost((0, 1, 3), mbps(100), config)
    long = state.path_cost((0, 2, 3), mbps(100), config)
    assert short == pytest.approx(long)  # both 2 hops, both empty
    state.reserve("f1", "a", "b", (0, 1, 3), mbps(900))
    assert state.path_cost((0, 1, 3), mbps(100), config) > state.path_cost(
        (0, 2, 3), mbps(100), config
    )


def test_path_cost_infeasible_when_bandwidth_missing(state, config, params):
    state.reserve("f1", "a", "b", (0, 1, 3), params.link_capacity)
    assert state.path_cost((0, 1, 3), mbps(10), config) == INFEASIBLE_COST


def test_required_slots_reservation(state, params):
    # Force specific starting slots (group-shared configuration replay).
    # 50 MB/s fits in a single 62.5 MB/s slot at the reference operating point.
    reservation = state.reserve("f1", "a", "b", (0, 1, 3), mbps(50), required_slots=(5,))
    assert reservation.link_slots[(0, 1)] == (5,)
    assert reservation.link_slots[(1, 3)] == ((5 + 1) % params.slot_table_size,)


def test_copy_is_independent(state):
    duplicate = state.copy("copy")
    state.reserve("f1", "a", "b", (0, 1, 3), mbps(100))
    assert duplicate.slot_table((0, 1)).used_count == 0
    assert len(duplicate.reservations) == 0


def test_link_loads_and_total_reserved(state):
    state.reserve("f1", "a", "b", (0, 1, 3), mbps(100))
    loads = state.link_loads()
    assert loads[(0, 1)] == pytest.approx(mbps(100))
    assert state.total_reserved_bandwidth() == pytest.approx(mbps(200))  # two links


def test_release_frees_only_the_released_reservations_slots(state, params):
    # Two reservations of one flow id on the same links: releasing one must
    # leave the other's slots reserved, matching the residual still charged.
    first = state.reserve("f", "a", "b", (0, 1, 3), mbps(100))
    second = state.reserve("f", "a", "b", (0, 1, 3), mbps(100))
    assert state.slot_table((0, 1)).used_count == 4
    state.release(first)
    table = state.slot_table((0, 1))
    assert table.used_count == 2
    assert table.slots_owned_by("f") == second.link_slots[(0, 1)]
    assert state.link_residual((0, 1)) == params.link_capacity - mbps(100)
    state.release(second)
    assert table.used_count == 0


def test_failed_release_leaves_the_state_unchanged(state, params):
    reservation = state.reserve("f", "a", "b", (0, 1, 3), mbps(100))
    # Free the second hop's slots behind the state's back.
    state.slot_table((1, 3)).release_flow("f")
    with pytest.raises(ResourceError):
        state.release(reservation)
    assert state.reservations == (reservation,)
    assert state.link_residual((0, 1)) == params.link_capacity - mbps(100)
    assert state.slot_table((0, 1)).slots_owned_by("f") == reservation.link_slots[(0, 1)]
    assert state.ingress_residual("a") == params.link_capacity - mbps(100)


def test_unknown_and_failed_links_raise_topology_error(params):
    pristine = Topology.mesh(2, 2)
    degraded = pristine.with_failures(FailureSet().mark_link_down(0, 1))
    cases = (
        (pristine, (0, 3)),   # the diagonal: both switches exist, no link
        (pristine, (4, 5)),   # no such switches
        (degraded, (0, 1)),   # failed
    )
    for topology, link in cases:
        state = ResourceState(topology, params)
        with pytest.raises(TopologyError):
            state.link_residual(link)
        with pytest.raises(TopologyError):
            state.slot_table(link)
        if link[1] < topology.switch_count:
            state.attach_core("a", link[0])
            state.attach_core("b", link[1])
            with pytest.raises(TopologyError):
                state.reserve("f", "a", "b", link, mbps(10))
            assert state.reservations == ()


def test_copying_a_pristine_state_builds_no_slot_table(monkeypatch, params):
    # A group state holds only the links it reserved: neither building nor
    # copying the pristine template of a 16x16 mesh may build its 960 tables.
    built = []
    original = SlotTable.__init__

    def counting_init(self, size):
        built.append(size)
        original(self, size)

    monkeypatch.setattr(SlotTable, "__init__", counting_init)
    topology = Topology.mesh(16, 16)
    duplicate = ResourceState(topology, params, name="pristine").copy("group-0")
    assert built == []
    assert duplicate.link_residual((0, 1)) == params.link_capacity
    assert duplicate.max_link_utilization() == 0.0
    assert len(duplicate.link_loads()) == topology.link_count == 960


#: core -> switch on a 2x2 mesh, and the paths the model test reserves along
_MODEL_CORES = {"a": 0, "b": 3, "c": 1}
_MODEL_PATHS = (
    ("a", "b", (0, 1, 3)), ("a", "b", (0, 2, 3)), ("b", "a", (3, 1, 0)),
    ("b", "a", (3, 2, 0)), ("a", "c", (0, 1)), ("c", "b", (1, 3)),
    ("c", "a", (1, 0)), ("a", "a", (0,)),
)
_MODEL_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("attach"), st.sampled_from(sorted(_MODEL_CORES))),
        st.tuples(
            st.just("reserve"),
            st.integers(0, len(_MODEL_PATHS) - 1),  # path
            st.integers(1, 8),                       # bandwidth in slots
            st.booleans(),                           # guaranteed
            st.sampled_from(["f", "g"]),             # flow id (reused on purpose)
            st.booleans(),                           # probe can_reserve first
        ),
        st.tuples(st.just("release"), st.integers(0, 7)),
        st.tuples(st.just("copy")),
        st.tuples(st.just("touch"), st.integers(0, 7)),
    ),
    min_size=10,
    max_size=40,
)


def _model_view(state, links):
    """(link residuals, free masks, NI residuals) read through the public API.

    Slot tables are read from a throwaway copy, so the check itself never
    materialises a table in the state under test.
    """
    probe = state.copy("probe")
    residuals = {link: state.link_residual(link) for link in links}
    masks = {link: probe.slot_table(link).free_mask for link in links}
    ni = {
        core: (state.ingress_residual(core), state.egress_residual(core))
        for core in state.core_mapping
    }
    return residuals, masks, ni


def _model_expectation(held, cores, links, capacity, size):
    full = (1 << size) - 1
    residuals = {link: capacity for link in links}
    masks = dict.fromkeys(links, full)
    ni = {core: [capacity, capacity] for core in cores}
    for reservation in held:
        path = reservation.switch_path
        for link in zip(path, path[1:]):
            residuals[link] -= reservation.bandwidth
        for link, slots in reservation.link_slots.items():
            for slot in slots:
                masks[link] &= ~(1 << slot)
        ni[reservation.source_core][0] -= reservation.bandwidth
        ni[reservation.destination_core][1] -= reservation.bandwidth
    return residuals, masks, {core: tuple(pair) for core, pair in ni.items()}


def _model_plan(held, cores, all_links, path, bandwidth, guaranteed, capacity, size):
    """Independent feasibility model: the starting slots a reservation gets,
    ``()`` when it needs none, or ``None`` when it must fail."""
    source, destination, switches = path
    if cores.get(source) != switches[0] or cores.get(destination) != switches[-1]:
        return None
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
@given(attached=st.lists(st.sampled_from(sorted(_MODEL_CORES)), max_size=4), ops=_MODEL_OPS)
def test_resource_state_matches_reservation_model(failed, attached, ops):
    # Residuals and free masks must equal what the held reservations imply,
    # on every link, after every step; copies are frozen snapshots.  Most
    # sequences start with some cores attached, so that reservations (often
    # several of one flow id on shared links) succeed and get released.
    # Bandwidths are whole slots, so every residual is an exact float.
    params = NoCParameters()
    capacity = params.link_capacity
    size = params.slot_table_size
    topology = Topology.mesh(2, 2)
    if failed:
        topology = topology.with_failures(FailureSet().mark_link_down(1, 3))
    links = topology.links
    state = ResourceState(topology, params, name="model")
    cores = {}
    held = []
    snapshots = []
    for op in [("attach", core) for core in attached] + ops:
        kind = op[0]
        if kind == "attach":
            state.attach_core(op[1], _MODEL_CORES[op[1]])
            cores[op[1]] = _MODEL_CORES[op[1]]
        elif kind == "reserve":
            _kind, index, slots, guaranteed, flow_id, probe = op
            path = _MODEL_PATHS[index]
            bandwidth = slots * (capacity / size)
            if not all(topology.has_link(*link) for link in _model_links(path[2])):
                with pytest.raises((ResourceError, TopologyError)):
                    state.reserve(flow_id, *path, bandwidth, guaranteed=guaranteed)
                continue
            expected = _model_plan(held, cores, links, path, bandwidth, guaranteed,
                                   capacity, size)
            if probe:
                assert state.can_reserve(*path, bandwidth, guaranteed=guaranteed) == (
                    expected is not None
                )
            if expected is None:
                with pytest.raises(ResourceError):
                    state.reserve(flow_id, *path, bandwidth, guaranteed=guaranteed)
                continue
            reservation = state.reserve(flow_id, *path, bandwidth, guaranteed=guaranteed)
            # The lowest admissible starts, advanced one slot per hop.
            hops = _model_links(path[2]) if expected else []
            assert reservation.link_slots == {
                link: tuple(sorted((start + hop) % size for start in expected))
                for hop, link in enumerate(hops)
            }
            held.append(reservation)
        elif kind == "release":
            if not held:
                continue
            reservation = held.pop(op[1] % len(held))
            state.release(reservation)
            if reservation not in held:  # an equal record would release its twin
                with pytest.raises(ResourceError):
                    state.release(reservation)
        elif kind == "copy":
            snapshots.append((state.copy(f"copy-{len(snapshots)}"), _model_view(state, links)))
        else:
            # Hand out a live table: the link's state is materialised, not changed.
            state.slot_table(links[op[1] % len(links)])
        assert _model_view(state, links) == _model_expectation(
            held, cores, links, capacity, size
        )
        for duplicate, view in snapshots:
            assert _model_view(duplicate, links) == view


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


def test_select_least_cost_requires_mapped_cores(state, config):
    selector = PathSelector(state.topology, config)
    with pytest.raises(RoutingError):
        selector.select_least_cost(state, "a", "unmapped", mbps(10))


def test_select_least_cost_avoids_congested_path(state, config, params):
    selector = PathSelector(state.topology, config)
    # Congest the (1, 3) link with traffic from core c (on switch 1) to b.
    state.reserve("hot", "c", "b", (1, 3), params.link_capacity * 0.55)
    selection = selector.select_least_cost(state, "a", "b", mbps(200))
    assert selection is not None
    path, _ = selection
    assert path == (0, 2, 3)


def test_select_least_cost_respects_max_hops(state, config):
    selector = PathSelector(state.topology, config)
    assert selector.select_least_cost(state, "a", "b", mbps(10), max_hops=1) is None
    assert selector.select_least_cost(state, "a", "c", mbps(10), max_hops=1) is not None


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

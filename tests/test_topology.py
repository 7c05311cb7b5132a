"""Tests for the NoC topology model."""

import networkx as nx
import pytest
from hypothesis import given, strategies as st

from repro import TopologyError
from repro.noc.failures import FailureSet
from repro.noc.topology import Switch, Topology, mesh_dimensions_for, mesh_growth_schedule


def test_mesh_switch_and_link_counts():
    mesh = Topology.mesh(3, 4)
    assert mesh.switch_count == 12
    # Each undirected neighbour pair contributes two directed links.
    assert mesh.link_count == 2 * (3 * 3 + 2 * 4)
    assert mesh.kind == "mesh"
    assert mesh.dimensions == (3, 4)


def test_mesh_positions_follow_row_major_indexing():
    mesh = Topology.mesh(2, 3)
    assert mesh.switch(0).position == (0, 0)
    assert mesh.switch(4).position == (1, 1)
    assert mesh.switch(5).position == (1, 2)


def test_single_switch_topology():
    single = Topology.single_switch()
    assert single.switch_count == 1
    assert single.link_count == 0
    assert single.is_connected()
    assert single.diameter() == 0


def test_mesh_neighbors_and_degree():
    mesh = Topology.mesh(3, 3)
    center = 4
    assert set(mesh.neighbors(center)) == {1, 3, 5, 7}
    assert mesh.degree(center) == 4
    corner = 0
    assert mesh.degree(corner) == 2
    assert mesh.port_count(corner) == 3  # two mesh ports plus one NI port


def test_mesh_is_connected_and_diameter():
    mesh = Topology.mesh(3, 3)
    assert mesh.is_connected()
    assert mesh.diameter() == 4


def test_shortest_hop_count_is_manhattan_on_mesh():
    mesh = Topology.mesh(4, 4)
    assert mesh.shortest_hop_count(0, 15) == 6
    assert mesh.shortest_hop_count(5, 5) == 0


def _bfs_hops(topology, source, destination):
    return nx.shortest_path_length(topology.graph(), source, destination)


def _shapes_up_to_5x5():
    for rows in range(1, 6):
        for cols in range(1, 6):
            yield Topology.mesh(rows, cols)
            yield Topology.torus(rows, cols)
    for count in range(1, 26):
        yield Topology.ring(count)


def test_shortest_hop_count_closed_form_matches_bfs_up_to_5x5():
    for topology in _shapes_up_to_5x5():
        for source in range(topology.switch_count):
            for destination in range(topology.switch_count):
                expected = _bfs_hops(topology, source, destination)
                assert topology.shortest_hop_count(source, destination) == expected, (
                    topology.name, source, destination,
                )
                assert topology.hop_lower_bound(source, destination) == expected


def test_hop_lower_bound_never_exceeds_a_degraded_topologys_hops():
    cases = [
        Topology.mesh(4, 4).with_failures(FailureSet().mark_link_down(5, 6).mark_switch_down(9)),
        Topology.torus(4, 5).with_failures(FailureSet().mark_link_down(0, 4).mark_link_down(6, 7)),
        Topology.ring(7).with_failures(FailureSet().mark_link_down(0, 6)),
    ]
    for topology in cases:
        graph = topology.graph()
        for source in range(topology.switch_count):
            for destination in range(topology.switch_count):
                bound = topology.hop_lower_bound(source, destination)
                if nx.has_path(graph, source, destination):
                    hops = _bfs_hops(topology, source, destination)
                    assert bound <= hops
                    # a degraded topology's exact count is still the BFS one
                    assert topology.shortest_hop_count(source, destination) == hops
                else:
                    with pytest.raises(TopologyError):
                        topology.shortest_hop_count(source, destination)
    # the wraparound link 0<->6 is down, so the ring's bound undercuts
    assert cases[2].hop_lower_bound(0, 6) == 1 < cases[2].shortest_hop_count(0, 6) == 6


def test_hop_lower_bound_on_a_custom_topology_is_its_bfs_count():
    custom = Topology.custom([(0, 1), (1, 2), (3, 4)], name="two-islands")
    assert custom.hop_lower_bound(0, 2) == 2
    assert custom.hop_lower_bound(0, 4) == 0  # no path: any bound holds
    with pytest.raises(TopologyError):
        custom.shortest_hop_count(0, 4)


def test_torus_adds_wraparound_links():
    torus = Topology.torus(3, 3)
    mesh = Topology.mesh(3, 3)
    assert torus.link_count > mesh.link_count
    assert torus.has_link(0, 2) and torus.has_link(2, 0)
    assert torus.has_link(0, 6) and torus.has_link(6, 0)


def test_ring_topology():
    ring = Topology.ring(5)
    assert ring.switch_count == 5
    assert ring.link_count == 10
    assert ring.is_connected()
    assert ring.shortest_hop_count(0, 2) == 2


def test_ring_of_two_has_single_link_pair():
    ring = Topology.ring(2)
    assert ring.link_count == 2


def test_custom_topology_from_edges():
    custom = Topology.custom([(0, 1), (1, 2), (2, 0)], name="triangle")
    assert custom.switch_count == 3
    assert custom.link_count == 6
    assert custom.is_connected()


def test_custom_topology_requires_edges():
    with pytest.raises(TopologyError):
        Topology.custom([])


def test_invalid_mesh_dimensions():
    with pytest.raises(TopologyError):
        Topology.mesh(0, 3)


def test_unknown_switch_raises():
    mesh = Topology.mesh(2, 2)
    with pytest.raises(TopologyError):
        mesh.switch(99)
    with pytest.raises(TopologyError):
        mesh.neighbors(99)


def test_duplicate_switch_indices_rejected():
    with pytest.raises(TopologyError):
        Topology("bad", [Switch(0), Switch(0)], [])


def test_non_dense_switch_indices_rejected():
    with pytest.raises(TopologyError):
        Topology("bad", [Switch(0), Switch(2)], [])


def test_self_loop_link_rejected():
    with pytest.raises(TopologyError):
        Topology("bad", [Switch(0), Switch(1)], [(0, 0)])


def test_link_referencing_unknown_switch_rejected():
    with pytest.raises(TopologyError):
        Topology("bad", [Switch(0), Switch(1)], [(0, 5)])


def test_switch_row_col_require_position():
    unpositioned = Switch(3)
    with pytest.raises(TopologyError):
        _ = unpositioned.row


def test_average_port_count_mesh():
    mesh = Topology.mesh(2, 2)
    # Every switch of a 2x2 mesh has 2 mesh ports + 1 NI port.
    assert mesh.average_port_count() == pytest.approx(3.0)


# --------------------------------------------------------------------------- #
# growth schedule helpers
# --------------------------------------------------------------------------- #
def test_mesh_dimensions_for_prefers_square():
    assert mesh_dimensions_for(12) == (3, 4)
    assert mesh_dimensions_for(16) == (4, 4)
    assert mesh_dimensions_for(7) == (1, 7)


def test_mesh_dimensions_for_rejects_non_positive():
    with pytest.raises(TopologyError):
        mesh_dimensions_for(0)


def test_mesh_growth_schedule_starts_at_one_switch():
    schedule = mesh_growth_schedule(40)
    assert schedule[0] == (1, 1)
    assert schedule[1] == (1, 2)
    assert (2, 2) in schedule
    assert all(rows * cols <= 40 for rows, cols in schedule)


def test_mesh_growth_schedule_is_monotonic():
    schedule = mesh_growth_schedule(100)
    sizes = [rows * cols for rows, cols in schedule]
    assert sizes == sorted(sizes)
    assert len(sizes) == len(set(sizes))


@given(count=st.integers(min_value=1, max_value=500))
def test_mesh_dimensions_product_matches(count):
    rows, cols = mesh_dimensions_for(count)
    assert rows * cols == count
    assert rows <= cols


@given(rows=st.integers(min_value=1, max_value=6), cols=st.integers(min_value=1, max_value=6))
def test_mesh_is_always_connected(rows, cols):
    mesh = Topology.mesh(rows, cols)
    assert mesh.is_connected()
    assert mesh.switch_count == rows * cols

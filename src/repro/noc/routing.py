"""Candidate-path enumeration and least-cost path selection.

The unified mapper needs, for every (source switch, destination switch)
pair, a set of candidate paths ordered by cost.  Four enumeration policies
are supported:

* ``"xy"`` — the single dimension-ordered (X then Y) path; only valid on
  meshes/tori with grid positions.  Deterministic and deadlock-free but
  offers no path diversity.
* ``"minimal"`` — all shortest paths (up to a configurable cap).  This is
  the default: Æthereal GT traffic is contention-free by construction (TDMA
  slots are reserved end-to-end), so minimal adaptive path *selection* at
  design time cannot deadlock at run time.
* ``"west_first"`` — minimal paths filtered by the west-first turn model,
  which additionally guarantees deadlock freedom for best-effort traffic.
* ``"k_shortest"`` — shortest simple paths allowing a bounded detour beyond
  the minimal hop count, for heavily loaded networks where minimal paths
  run out of slots.

:meth:`PathSelector.select_least_cost` is the per-pair step of Algorithm 2
that both the constructive mapper and the fixed-placement evaluator run: it
ranks a pair's candidates with the group state's
:meth:`~repro.noc.resources.ResourceState.path_cost` and returns the
cheapest path on which :meth:`~repro.noc.resources.ResourceState.can_reserve`
finds pipelined slots, with those slots.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import networkx as nx

from repro.exceptions import RoutingError
from repro.noc.deadlock import is_west_first_path
from repro.noc.resources import INFEASIBLE_COST, ResourceState
from repro.noc.slot_table import slots_needed_cached
from repro.noc.topology import Topology
from repro.params import MapperConfig

__all__ = ["RoutingPolicy", "PathSelector", "xy_path"]


class RoutingPolicy:
    """Names of the supported candidate-path enumeration policies."""

    XY = "xy"
    MINIMAL = "minimal"
    WEST_FIRST = "west_first"
    K_SHORTEST = "k_shortest"

    ALL = (XY, MINIMAL, WEST_FIRST, K_SHORTEST)


def xy_path(topology: Topology, source: int, destination: int) -> Tuple[int, ...]:
    """The dimension-ordered (X-first, then Y) path on a mesh or torus.

    Moves along the column (X) dimension first, then along the row (Y)
    dimension, which is the classic deadlock-free deterministic routing
    function for meshes.  Raises :class:`RoutingError` when a failure
    removed one of its links.
    """
    path = _xy_route(topology, source, destination)
    for here, there in zip(path, path[1:]):
        if not topology.has_link(here, there):
            raise RoutingError(
                f"XY path {list(path)} uses missing link ({here}, {there}) on {topology.name!r}"
            )
    return path


def _xy_route(topology: Topology, source: int, destination: int) -> Tuple[int, ...]:
    """The XY switch sequence, whether or not its links survived."""
    src = topology.switch(source)
    dst = topology.switch(destination)
    if src.position is None or dst.position is None:
        raise RoutingError(
            f"XY routing needs grid positions; topology {topology.name!r} has none"
        )
    if topology.dimensions is None:
        raise RoutingError(f"XY routing needs mesh dimensions on {topology.name!r}")
    _, cols = topology.dimensions
    path = [source]
    row, col = src.position
    # X (column) dimension first.
    step = 1 if dst.col > col else -1
    while col != dst.col:
        col += step
        path.append(row * cols + col)
    # Then the Y (row) dimension.
    step = 1 if dst.row > row else -1
    while row != dst.row:
        row += step
        path.append(row * cols + col)
    return tuple(path)


#: Relative minimal-path cache: ``(Δrow, Δcol, limit) -> step sequences``.
#: Minimal paths on a mesh are translation-invariant — they depend only on
#: the offset between the endpoints — so the enumeration is done once per
#: offset (for any topology size, any mapper, any outer-loop attempt) and
#: instantiated per concrete pair with integer arithmetic.
_RELATIVE_STEPS_CACHE: Dict[Tuple[int, int, int], Tuple[Tuple[Tuple[int, int], ...], ...]] = {}


def _relative_minimal_steps(
    drow: int, dcol: int, limit: int
) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
    """Minimal step sequences from (0, 0) to (Δrow, Δcol), capped at ``limit``.

    Each sequence is a tuple of (row offset, col offset) waypoints starting
    at (0, 0).  Enumeration is an iterative depth-first walk (column steps
    explored before row steps, matching the historical recursive order) so
    that deep recursion and per-call list copies are avoided on large
    meshes.
    """
    key = (drow, dcol, limit)
    cached = _RELATIVE_STEPS_CACHE.get(key)
    if cached is not None:
        return cached
    row_step = 1 if drow >= 0 else -1
    col_step = 1 if dcol >= 0 else -1
    paths: List[Tuple[Tuple[int, int], ...]] = []
    stack: List[Tuple[int, int, Tuple[Tuple[int, int], ...]]] = [(0, 0, ((0, 0),))]
    while stack and len(paths) < limit:
        row, col, acc = stack.pop()
        if row == drow and col == dcol:
            paths.append(acc)
            continue
        # Pushed in reverse so the column branch is explored first.
        if row != drow:
            nxt = row + row_step
            stack.append((nxt, col, acc + ((nxt, col),)))
        if col != dcol:
            nxt = col + col_step
            stack.append((row, nxt, acc + ((row, nxt),)))
    result = tuple(paths)
    _RELATIVE_STEPS_CACHE[key] = result
    return result


def mesh_minimal_paths(
    topology: Topology,
    source: int,
    destination: int,
    limit: int,
) -> List[Tuple[int, ...]]:
    """All minimal (shortest) paths on a mesh, capped at ``limit``.

    Minimal paths on a mesh stay inside the bounding box of the endpoints
    and consist only of hops towards the destination, so they can be
    enumerated directly — far faster than generic k-shortest-path search on
    large meshes (the worst-case baseline grows meshes up to 20x20).  The
    enumeration itself is translation-invariant and served from a
    process-wide relative-offset cache.
    """
    src = topology.switch(source)
    dst = topology.switch(destination)
    if src.position is None or dst.position is None or topology.dimensions is None:
        raise RoutingError("mesh_minimal_paths needs a grid topology")
    _, cols = topology.dimensions
    steps = _relative_minimal_steps(dst.row - src.row, dst.col - src.col, limit)
    base_row, base_col = src.position
    paths = [
        tuple((base_row + dr) * cols + (base_col + dc) for dr, dc in path)
        for path in steps
    ]
    if topology.has_failures:
        # A degraded mesh keeps its grid shape but not all its links: only
        # paths whose every hop survived are candidates.  (Endpoint switches
        # being down is covered too — a downed switch has no links.)
        paths = [
            path for path in paths
            if all(topology.has_link(here, there)
                   for here, there in zip(path, path[1:]))
        ]
    return paths


class PathSelector:
    """Enumerates and ranks candidate paths on one topology.

    The selector caches candidate-path lists per (source switch, destination
    switch) pair because the mapper asks for the same pairs many times while
    it processes flows.
    """

    def __init__(self, topology: Topology, config: MapperConfig) -> None:
        if config.routing_policy not in RoutingPolicy.ALL:
            raise RoutingError(f"unknown routing policy {config.routing_policy!r}")
        self.topology = topology
        self.config = config
        self._lazy_graph: Optional[nx.DiGraph] = None
        self._cache: Dict[Tuple[int, int], Tuple[Tuple[int, ...], ...]] = {}

    @property
    def _graph(self) -> nx.DiGraph:
        # Built on first use: grid topologies with minimal routing (the
        # common case) never touch the generic graph, so each outer-loop
        # topology attempt skips the construction cost entirely.
        if self._lazy_graph is None:
            graph = nx.DiGraph()
            graph.add_nodes_from(sw.index for sw in self.topology.switches)
            graph.add_edges_from(self.topology.links)
            self._lazy_graph = graph
        return self._lazy_graph

    # ------------------------------------------------------------------ #
    # enumeration
    # ------------------------------------------------------------------ #
    def candidate_paths(self, source: int, destination: int) -> Tuple[Tuple[int, ...], ...]:
        """All candidate switch paths from ``source`` to ``destination``.

        The result always contains at least one path; for ``source ==
        destination`` it is the single-element path ``(source,)``.  Raises
        :class:`RoutingError` when the policy admits no path between the
        two switches (a failure cut them apart).
        """
        paths = self.admissible_paths(source, destination)
        if not paths:
            raise RoutingError(
                f"no path from switch {source} to switch {destination} "
                f"on {self.topology.name!r}"
            )
        return paths

    def admissible_paths(self, source: int, destination: int) -> Tuple[Tuple[int, ...], ...]:
        """:meth:`candidate_paths`, but ``()`` where the policy admits no path.

        The constructive mapper scores switch pairs it has not committed to
        yet, and a pair that a failure cut apart simply cannot host a flow.
        """
        key = (source, destination)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        self.topology.switch(source)
        self.topology.switch(destination)
        if source == destination:
            paths: Tuple[Tuple[int, ...], ...] = ((source,),)
        else:
            paths = tuple(self._enumerate(source, destination))
        self._cache[key] = paths
        return paths

    def _enumerate(self, source: int, destination: int) -> List[Tuple[int, ...]]:
        policy = self.config.routing_policy
        limit = self.config.max_paths_per_pair
        if policy == RoutingPolicy.XY:
            return self._surviving_xy_path(source, destination)
        grid = self.topology.kind == "mesh" and self.topology.dimensions is not None
        if grid and policy in (RoutingPolicy.MINIMAL, RoutingPolicy.WEST_FIRST):
            paths = mesh_minimal_paths(self.topology, source, destination, limit)
            if policy == RoutingPolicy.WEST_FIRST:
                filtered = [
                    path for path in paths if is_west_first_path(self.topology, path)
                ]
                paths = filtered or self._surviving_xy_path(source, destination)
            if paths or not self.topology.has_failures:
                return paths
            # Every minimal grid path hits a failed resource: fall through to
            # the generic search, which sees only surviving links and may
            # find a (non-minimal) detour around the failure.
        try:
            min_hops = nx.shortest_path_length(self._graph, source, destination)
        except nx.NetworkXNoPath:
            return []
        if policy in (RoutingPolicy.MINIMAL, RoutingPolicy.WEST_FIRST):
            max_hops = min_hops
        else:  # K_SHORTEST
            max_hops = min_hops + self.config.max_detour_hops
        paths: List[Tuple[int, ...]] = []
        generator = nx.shortest_simple_paths(self._graph, source, destination)
        for path in generator:
            if len(path) - 1 > max_hops:
                break
            candidate = tuple(path)
            if policy == RoutingPolicy.WEST_FIRST and not is_west_first_path(
                self.topology, candidate
            ):
                continue
            paths.append(candidate)
            if len(paths) >= limit:
                break
        if not paths and policy == RoutingPolicy.WEST_FIRST:
            # The turn model always admits at least the XY path — unless a
            # failure broke it, in which case the pair is simply unroutable
            # under west-first and candidate_paths reports no path.
            paths = self._surviving_xy_path(source, destination)
        return paths

    def _surviving_xy_path(self, source: int, destination: int) -> List[Tuple[int, ...]]:
        """The XY path as a one-path list, or ``[]`` where a failure broke it."""
        path = _xy_route(self.topology, source, destination)
        has_link = self.topology.has_link
        if all(has_link(here, there) for here, there in zip(path, path[1:])):
            return [path]
        return []

    # ------------------------------------------------------------------ #
    # selection
    # ------------------------------------------------------------------ #
    def select_least_cost(
        self,
        state: ResourceState,
        source_core: str,
        destination_core: str,
        source_switch: int,
        destination_switch: int,
        bandwidth: float,
        guaranteed: bool = True,
        max_hops: Optional[int] = None,
    ) -> Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
        """Steps 4–5 of Algorithm 2 for one core pair in one group's state.

        Returns the cheapest candidate path between the cores' switches on
        which the reservation succeeds, with its starting slots (``()`` for
        best-effort flows and same-switch paths), or ``None`` when no
        candidate within the hop budget ``max_hops`` can carry the flow.
        Candidates are ranked by :meth:`ResourceState.path_cost` and tried
        in (cost, path) order with :meth:`ResourceState.can_reserve`.  A pair
        with a single candidate skips the ranking: the reservation checks
        are a superset of the cost's feasibility checks, so they accept and
        reject exactly the same path.  Nothing is committed; the caller
        passes the answer to :meth:`ResourceState.reserve`.
        """
        paths = self.candidate_paths(source_switch, destination_switch)
        needed = slots_needed_cached(bandwidth, state.capacity, state.size) if guaranteed else 0
        if len(paths) == 1:
            path = paths[0]
            if max_hops is not None and len(path) - 1 > max_hops:
                return None
            starts = state.can_reserve(source_core, destination_core, path, bandwidth, needed)
            return None if starts is None else (path, starts)
        config = self.config
        ranked: List[Tuple[float, Tuple[int, ...]]] = []
        for path in paths:
            if max_hops is not None and len(path) - 1 > max_hops:
                continue
            cost = state.path_cost(path, bandwidth, needed, config)
            if cost != INFEASIBLE_COST:
                ranked.append((cost, path))
        ranked.sort()
        for _cost, path in ranked:
            starts = state.can_reserve(source_core, destination_core, path, bandwidth, needed)
            if starts is not None:
                return path, starts
        return None

    def clear_cache(self) -> None:
        """Drop the memoised candidate paths (rarely needed)."""
        self._cache.clear()

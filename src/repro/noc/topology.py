"""NoC topology model: switches, directed links and topology constructors.

A topology is a *structural* object: it knows which switches exist, how they
are positioned (for meshes/tori) and which directed links connect them.  It
deliberately carries no capacity or reservation state — capacities depend on
the operating point (frequency, link width) and reservations depend on the
use-case, both of which live in :class:`repro.noc.resources.ResourceState`.

The paper's evaluation uses meshes exclusively ("we assume that the topology
structure is a mesh, although the mapping design methodology is applicable to
any NoC topology"), so the mesh constructor is the primary one; torus, ring
and fully-custom topologies are provided because the methodology itself is
topology-agnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import networkx as nx

from repro.exceptions import TopologyError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.noc.failures import FailureSet

__all__ = ["Switch", "Link", "Topology", "mesh_dimensions_for", "mesh_growth_schedule"]


@dataclass(frozen=True)
class Switch:
    """A NoC switch (router).

    Parameters
    ----------
    index:
        Dense integer identifier, unique within the topology.
    position:
        Optional (row, column) grid coordinate; present for meshes and tori,
        ``None`` for irregular topologies.
    """

    index: int
    position: Optional[Tuple[int, int]] = None

    @property
    def row(self) -> int:
        """Grid row of the switch (raises for irregular topologies)."""
        if self.position is None:
            raise TopologyError(f"switch {self.index} has no grid position")
        return self.position[0]

    @property
    def col(self) -> int:
        """Grid column of the switch (raises for irregular topologies)."""
        if self.position is None:
            raise TopologyError(f"switch {self.index} has no grid position")
        return self.position[1]

    def __str__(self) -> str:  # pragma: no cover - trivial
        if self.position is not None:
            return f"S{self.index}({self.position[0]},{self.position[1]})"
        return f"S{self.index}"


#: A directed inter-switch link, identified by (source switch index,
#: destination switch index).
Link = Tuple[int, int]


class Topology:
    """A directed multigraph-free NoC topology of switches and links.

    Links are directed: a bidirectional physical channel is represented as
    two directed links (one per direction), because bandwidth and TDMA slots
    are reserved per direction.
    """

    def __init__(
        self,
        name: str,
        switches: Sequence[Switch],
        links: Iterable[Link],
        kind: str = "custom",
        dimensions: Optional[Tuple[int, int]] = None,
        failures: Optional["FailureSet"] = None,
    ) -> None:
        if not switches:
            raise TopologyError("a topology needs at least one switch")
        indices = [switch.index for switch in switches]
        if len(set(indices)) != len(indices):
            raise TopologyError("switch indices must be unique")
        if sorted(indices) != list(range(len(indices))):
            raise TopologyError("switch indices must be dense 0..N-1")
        self.name = name
        self.kind = kind
        self.dimensions = dimensions
        #: the failure set this topology was degraded with (``None`` for a
        #: pristine topology); downed switches stay *present* — indices must
        #: remain dense — but carry no links and reject core attachment
        self.failures = failures
        self._down_switches = frozenset(failures.switches) if failures is not None else frozenset()
        self._switches: Dict[int, Switch] = {switch.index: switch for switch in switches}
        self._graph = nx.DiGraph()
        self._graph.add_nodes_from(self._switches)
        for source, destination in links:
            self._add_link(source, destination)
        # Topologies are immutable after construction, so the sorted link
        # tuple is computed lazily once and reused (validation and the
        # link-load views walk it).
        self._links_cache: Optional[Tuple[Link, ...]] = None

    def _add_link(self, source: int, destination: int) -> None:
        if source not in self._switches or destination not in self._switches:
            raise TopologyError(
                f"link ({source}, {destination}) references an unknown switch"
            )
        if source == destination:
            raise TopologyError(f"self-loop link on switch {source} is not allowed")
        self._graph.add_edge(source, destination)

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def mesh(cls, rows: int, cols: int) -> "Topology":
        """A ``rows x cols`` 2-D mesh with bidirectional neighbour links."""
        if rows <= 0 or cols <= 0:
            raise TopologyError(f"mesh dimensions must be positive, got {rows}x{cols}")
        switches = [
            Switch(index=row * cols + col, position=(row, col))
            for row in range(rows)
            for col in range(cols)
        ]
        links: List[Link] = []
        for row in range(rows):
            for col in range(cols):
                here = row * cols + col
                if col + 1 < cols:
                    right = row * cols + (col + 1)
                    links.extend([(here, right), (right, here)])
                if row + 1 < rows:
                    down = (row + 1) * cols + col
                    links.extend([(here, down), (down, here)])
        return cls(
            name=f"mesh-{rows}x{cols}",
            switches=switches,
            links=links,
            kind="mesh",
            dimensions=(rows, cols),
        )

    @classmethod
    def torus(cls, rows: int, cols: int) -> "Topology":
        """A ``rows x cols`` 2-D torus (mesh plus wrap-around links)."""
        if rows <= 0 or cols <= 0:
            raise TopologyError(f"torus dimensions must be positive, got {rows}x{cols}")
        base = cls.mesh(rows, cols)
        links = set(base.links)
        for row in range(rows):
            if cols > 2:
                first = row * cols
                last = row * cols + (cols - 1)
                links.update([(first, last), (last, first)])
        for col in range(cols):
            if rows > 2:
                top = col
                bottom = (rows - 1) * cols + col
                links.update([(top, bottom), (bottom, top)])
        return cls(
            name=f"torus-{rows}x{cols}",
            switches=list(base.switches),
            links=sorted(links),
            kind="torus",
            dimensions=(rows, cols),
        )

    @classmethod
    def ring(cls, count: int) -> "Topology":
        """A bidirectional ring of ``count`` switches."""
        if count <= 0:
            raise TopologyError(f"ring size must be positive, got {count}")
        switches = [Switch(index=i) for i in range(count)]
        links: List[Link] = []
        if count > 1:
            for i in range(count):
                nxt = (i + 1) % count
                if count == 2 and i == 1:
                    break  # avoid duplicating the single pair of links
                links.extend([(i, nxt), (nxt, i)])
        return cls(name=f"ring-{count}", switches=switches, links=links, kind="ring")

    @classmethod
    def single_switch(cls) -> "Topology":
        """The degenerate one-switch topology Algorithm 2 starts from."""
        return cls(name="single-switch", switches=[Switch(index=0)], links=[], kind="mesh",
                   dimensions=(1, 1))

    @classmethod
    def custom(cls, edges: Iterable[Tuple[int, int]], name: str = "custom",
               bidirectional: bool = True) -> "Topology":
        """An arbitrary topology from switch-index edges.

        Switch indices are inferred from the edges and must form a dense
        0..N-1 range.  When ``bidirectional`` is true every edge contributes
        a link in each direction.
        """
        edge_list = list(edges)
        if not edge_list:
            raise TopologyError("a custom topology needs at least one edge")
        nodes = sorted({node for edge in edge_list for node in edge})
        switches = [Switch(index=node) for node in nodes]
        links: List[Link] = []
        for source, destination in edge_list:
            links.append((source, destination))
            if bidirectional:
                links.append((destination, source))
        return cls(name=name, switches=switches, links=sorted(set(links)), kind="custom")

    def with_failures(self, failures: "FailureSet") -> "Topology":
        """The degraded topology that survives a failure set.

        Failed links — and every link touching a failed switch — are removed;
        switches stay present (indices must remain dense) but a downed switch
        is isolated and rejects core attachment.  Grid kind, dimensions and
        positions are preserved so mesh-aware routing still applies to the
        surviving paths.  The name carries the failure set's content hash,
        which propagates the failure state into topology fingerprints,
        mapping fingerprints and engine-state store contexts.

        An empty failure set returns ``self`` — the pristine topology and its
        fingerprints are untouched.
        """
        failures.validate_for(self)
        if failures.is_empty:
            return self
        frozen = failures.copy()
        surviving = [
            link for link in self.links
            if not frozen.affects_link(*link)
        ]
        return Topology(
            name=f"{self.name}+f{frozen.content_hash[:8]}",
            switches=list(self.switches),
            links=surviving,
            kind=self.kind,
            dimensions=self.dimensions,
            failures=frozen,
        )

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def switches(self) -> Tuple[Switch, ...]:
        """All switches, ordered by index."""
        return tuple(self._switches[index] for index in sorted(self._switches))

    @property
    def switch_count(self) -> int:
        """Number of switches in the topology."""
        return len(self._switches)

    @property
    def links(self) -> Tuple[Link, ...]:
        """All directed inter-switch links."""
        if self._links_cache is None:
            self._links_cache = tuple(sorted(self._graph.edges()))
        return self._links_cache

    @property
    def link_count(self) -> int:
        """Number of directed inter-switch links."""
        return self._graph.number_of_edges()

    def switch(self, index: int) -> Switch:
        """The switch with the given index."""
        try:
            return self._switches[index]
        except KeyError:
            raise TopologyError(
                f"topology {self.name!r} has no switch {index} "
                f"(valid: 0..{self.switch_count - 1})"
            ) from None

    def has_link(self, source: int, destination: int) -> bool:
        """Whether a directed link from ``source`` to ``destination`` exists."""
        return self._graph.has_edge(source, destination)

    def neighbors(self, index: int) -> Tuple[int, ...]:
        """Switches reachable from ``index`` over one link."""
        self.switch(index)
        return tuple(sorted(self._graph.successors(index)))

    def degree(self, index: int) -> int:
        """Number of outgoing links of a switch (its routing arity)."""
        self.switch(index)
        return self._graph.out_degree(index)

    def port_count(self, index: int) -> int:
        """Total port count of a switch: inter-switch links plus one NI port.

        The area model charges per port; every switch is assumed to expose at
        least one network-interface port for locally attached cores in
        addition to its inter-switch ports.
        """
        return self.degree(index) + 1

    @property
    def has_failures(self) -> bool:
        """Whether this is a degraded topology (non-empty failure set)."""
        return self.failures is not None and not self.failures.is_empty

    def is_switch_down(self, index: int) -> bool:
        """Whether a switch is failed (present but unusable)."""
        return index in self._down_switches

    @property
    def alive_switches(self) -> Tuple[Switch, ...]:
        """The surviving switches, ordered by index."""
        if not self._down_switches:
            return self.switches
        return tuple(
            self._switches[index] for index in sorted(self._switches)
            if index not in self._down_switches
        )

    def is_connected(self) -> bool:
        """Whether every *surviving* switch can reach every other one.

        A pristine topology checks all switches; a degraded one checks the
        alive-switch subgraph (a downed switch is unreachable by definition
        and must not render the rest of the network "disconnected").
        """
        alive = [sw.index for sw in self.alive_switches]
        if len(alive) <= 1:
            return bool(alive)
        if self._down_switches:
            return nx.is_strongly_connected(self._graph.subgraph(alive))
        return nx.is_strongly_connected(self._graph)

    def shortest_hop_count(self, source: int, destination: int) -> int:
        """Minimum number of links between two switches.

        Closed form on a failure-free mesh, torus or ring; a breadth-first
        search on degraded and custom topologies.
        """
        self.switch(source)
        self.switch(destination)
        if source == destination:
            return 0
        if not self.has_failures:
            hops = self._shape_hop_count(source, destination)
            if hops is not None:
                return hops
        try:
            return nx.shortest_path_length(self._graph, source, destination)
        except nx.NetworkXNoPath:
            raise TopologyError(
                f"no path from switch {source} to switch {destination} in {self.name!r}"
            ) from None

    def hop_lower_bound(self, source: int, destination: int) -> int:
        """A hop count that no path between two switches undercuts.

        On a mesh, torus or ring it is the failure-free shape's closed form:
        failures only remove links, so a degraded topology's surviving paths
        are never shorter.  Custom topologies use :meth:`shortest_hop_count`,
        and a pair with no path at all gets 0.
        """
        self.switch(source)
        self.switch(destination)
        hops = self._shape_hop_count(source, destination)
        if hops is not None:
            return hops
        try:
            return nx.shortest_path_length(self._graph, source, destination)
        except nx.NetworkXNoPath:
            return 0

    def _shape_hop_count(self, source: int, destination: int) -> Optional[int]:
        """Shortest hop count on the failure-free shape, ``None`` for custom kinds."""
        if self.kind == "ring":
            gap = abs(source - destination)
            return min(gap, self.switch_count - gap)
        if self.kind not in ("mesh", "torus") or self.dimensions is None:
            return None
        first = self._switches[source].position
        second = self._switches[destination].position
        if first is None or second is None:
            return None
        rows = abs(first[0] - second[0])
        cols = abs(first[1] - second[1])
        if self.kind == "torus":
            total_rows, total_cols = self.dimensions
            rows = min(rows, total_rows - rows)
            cols = min(cols, total_cols - cols)
        return rows + cols

    def diameter(self) -> int:
        """Longest shortest-path hop count over all surviving switch pairs."""
        alive = [sw.index for sw in self.alive_switches]
        if len(alive) <= 1:
            return 0
        if not self.is_connected():
            raise TopologyError(f"topology {self.name!r} is not connected")
        graph = self._graph.subgraph(alive) if self._down_switches else self._graph
        return nx.diameter(graph.to_undirected(as_view=True))

    def graph(self) -> nx.DiGraph:
        """A read-only view of the underlying directed graph."""
        return self._graph.copy(as_view=True)

    def average_port_count(self) -> float:
        """Mean switch port count (used by the area and power models)."""
        return sum(self.port_count(sw.index) for sw in self.switches) / self.switch_count

    def __iter__(self) -> Iterator[Switch]:
        return iter(self.switches)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Topology(name={self.name!r}, switches={self.switch_count}, "
            f"links={self.link_count})"
        )


def mesh_dimensions_for(switch_count: int) -> Tuple[int, int]:
    """The most-square (rows, cols) mesh holding exactly ``switch_count`` switches.

    Picks the factorisation ``rows * cols == switch_count`` with the smallest
    aspect-ratio difference; prime counts therefore degenerate to ``1 x n``.
    """
    if switch_count <= 0:
        raise TopologyError(f"switch count must be positive, got {switch_count}")
    best: Tuple[int, int] = (1, switch_count)
    for rows in range(1, int(math.isqrt(switch_count)) + 1):
        if switch_count % rows == 0:
            cols = switch_count // rows
            if abs(rows - cols) < abs(best[0] - best[1]):
                best = (rows, cols)
    return best


def mesh_growth_schedule(max_switches: int) -> List[Tuple[int, int]]:
    """The sequence of near-square mesh sizes Algorithm 2's outer loop walks.

    Starting from a single switch, the schedule alternates between growing
    the column and the row dimension (1x1, 1x2, 2x2, 2x3, 3x3, ...), which is
    the standard way of growing a mesh while keeping it as square as
    possible.  The schedule stops at the last size not exceeding
    ``max_switches``.
    """
    if max_switches <= 0:
        raise TopologyError(f"max_switches must be positive, got {max_switches}")
    schedule: List[Tuple[int, int]] = []
    rows, cols = 1, 1
    while rows * cols <= max_switches:
        schedule.append((rows, cols))
        if cols == rows:
            cols += 1
        else:
            rows += 1
    return schedule

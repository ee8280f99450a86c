"""Mesh grid topology (paper Section 3.2 and Figure 13).

A ``width x height`` mesh of T' nodes, with a G node on every link between
adjacent T' nodes (the virtual wires) and a purifier/corrector/logical-qubit
cluster attached to every T' node.  The topology keeps an adjacency dict
(node -> neighbour -> link, in insertion order) for link lookups, a
bidirectional BFS for shortest paths and a connectivity check, while the
routing used by the paper — dimension order — lives in
:mod:`repro.network.routing`.

Beyond the paper's plain mesh, either dimension can *wrap around*
(``wrap_x`` / ``wrap_y``), which yields the other standard fabrics the
scenario engine sweeps over: a ring (1-D with wrap), a torus (2-D with both
wraps) and a line (1-D without).  A wrap link joins the first and last node
of a row or column; distances and dimension-order routes take the shorter
way around.  The named fabric constructors live in
:mod:`repro.network.fabrics`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional

from ..errors import ConfigurationError, RoutingError
from .geometry import Coordinate, iter_grid, manhattan_distance
from .nodes import ResourceAllocation


def is_wrap_step(a: Coordinate, b: Coordinate) -> bool:
    """True when ``a`` and ``b`` can only be joined by a wrap-around link.

    A wrap link is colinear, spans more than one cell and touches the zero
    edge of its dimension (it joins node 0 to the last node of a row or
    column); which widths actually provide it is the topology's concern.
    """
    dx, dy = abs(a.x - b.x), abs(a.y - b.y)
    if dy == 0 and dx > 1:
        return min(a.x, b.x) == 0
    if dx == 0 and dy > 1:
        return min(a.y, b.y) == 0
    return False


@dataclass(frozen=True)
class LinkId:
    """Identifier of the virtual wire between two adjacent T' nodes.

    Adjacency is either geometric (Manhattan distance 1) or via a wrap-around
    link of a ring/torus fabric (colinear, joining coordinate 0 to the far
    edge).  Anything else — diagonals, interior long jumps — is rejected,
    unless the link is declared *express*: the hierarchical fabrics
    (fat-tree, leaf-spine, dragonfly) wire hosts to switches and switches to
    switches across tiers, so their links are adjacent by construction of the
    fabric graph rather than by grid geometry.  ``express`` is excluded from
    equality/hashing: an express link and a grid link joining the same
    endpoints are the same physical wire.
    """

    a: Coordinate
    b: Coordinate
    express: bool = field(default=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise ConfigurationError(f"a link needs two distinct endpoints, got {self.a} twice")
        if (
            not self.express
            and manhattan_distance(self.a, self.b) != 1
            and not is_wrap_step(self.a, self.b)
        ):
            raise ConfigurationError(
                f"a link must join adjacent T' nodes, got {self.a} and {self.b}"
            )
        # Canonical orientation so LinkId(a, b) == LinkId(b, a).
        if (self.b.x, self.b.y) < (self.a.x, self.a.y):
            first, second = self.b, self.a
            object.__setattr__(self, "a", first)
            object.__setattr__(self, "b", second)

    @classmethod
    def between(cls, a: Coordinate, b: Coordinate) -> "LinkId":
        return cls(a, b)

    @property
    def horizontal(self) -> bool:
        return self.a.y == self.b.y

    @property
    def is_wrap(self) -> bool:
        """True for the long-way-around link of a ring or torus."""
        return not self.express and manhattan_distance(self.a, self.b) != 1

    @property
    def stable_name(self) -> str:
        """Canonical serialization-stable string form: ``(ax,ay)-(bx,by)``.

        Golden traces and JSON result records key per-link quantities by this
        string, so its format is a compatibility contract (pinned by tests)
        rather than a cosmetic repr; the canonical endpoint orientation makes
        it independent of construction order.
        """
        return f"({self.a.x},{self.a.y})-({self.b.x},{self.b.y})"

    def __str__(self) -> str:
        return self.stable_name


class MeshTopology:
    """A mesh of T' nodes with G nodes on links and P/C/LQ sites at nodes."""

    def __init__(
        self,
        width: int,
        height: int,
        allocation: ResourceAllocation | None = None,
        *,
        cells_per_hop: int = 600,
        wrap_x: bool = False,
        wrap_y: bool = False,
    ) -> None:
        if width < 1 or height < 1:
            raise ConfigurationError(f"mesh dimensions must be >= 1, got {width}x{height}")
        if cells_per_hop < 1:
            raise ConfigurationError(f"cells_per_hop must be >= 1, got {cells_per_hop}")
        self.width = width
        self.height = height
        self.allocation = allocation or ResourceAllocation()
        self.cells_per_hop = cells_per_hop
        # A wrap needs at least 3 nodes to add a distinct link; on 1 or 2
        # nodes the "long way around" already is the direct link.
        self.wrap_x = wrap_x and width >= 3
        self.wrap_y = wrap_y and height >= 3
        self._adj: Dict[Coordinate, Dict[Coordinate, LinkId]] = {}
        self._links: Dict[LinkId, None] = {}
        self._build()

    def _build(self) -> None:
        for coord in iter_grid(self.width, self.height):
            self._adj[coord] = {}
        for coord in iter_grid(self.width, self.height):
            for neighbour in coord.neighbours(self.width, self.height):
                if coord < neighbour:
                    self._add_link(coord, neighbour)
        if self.wrap_x:
            for y in range(self.height):
                self._add_link(Coordinate(0, y), Coordinate(self.width - 1, y))
        if self.wrap_y:
            for x in range(self.width):
                self._add_link(Coordinate(x, 0), Coordinate(x, self.height - 1))

    def _add_link(self, a: Coordinate, b: Coordinate, *, express: bool = False) -> None:
        link = LinkId(a, b, express=express)
        if link in self._links:
            # A silent re-add would double-register one physical wire — the
            # degenerate-ring hazard: on a 1-wide or 2-node wrapped dimension
            # the "long way around" *is* the direct link, so the wrap guards
            # above must keep such requests from ever reaching this point.
            raise ConfigurationError(
                f"link {link.stable_name} is already registered; "
                "one physical wire must not be added twice"
            )
        self._adj[a][b] = link
        self._adj[b][a] = link
        self._links[link] = None

    # -- structure ------------------------------------------------------------

    @property
    def node_count(self) -> int:
        return self.width * self.height

    @property
    def qubit_capacity(self) -> int:
        """How many LQ sites can host logical qubits.

        Every T' node of a mesh carries an LQ cluster; hierarchical fabrics
        override this to their host count, since switch tiers hold no qubits.
        """
        return self.node_count

    @property
    def link_count(self) -> int:
        return len(self._links)

    def nodes(self) -> Iterator[Coordinate]:
        """All T' node coordinates in row-major order."""
        return iter_grid(self.width, self.height)

    def links(self) -> Iterable[LinkId]:
        """All virtual-wire links."""
        return self._links.keys()

    def contains(self, coord: Coordinate) -> bool:
        return 0 <= coord.x < self.width and 0 <= coord.y < self.height

    def validate_node(self, coord: Coordinate) -> Coordinate:
        if not self.contains(coord):
            raise RoutingError(f"{coord} is outside the {self.width}x{self.height} mesh")
        return coord

    def are_adjacent(self, a: Coordinate, b: Coordinate) -> bool:
        return b in self._adj.get(a, {})

    def link_between(self, a: Coordinate, b: Coordinate) -> LinkId:
        link = self._adj.get(a, {}).get(b)
        if link is None:
            raise RoutingError(f"no link between {a} and {b}")
        return link

    # -- distances ----------------------------------------------------------------

    def hop_distance(self, a: Coordinate, b: Coordinate) -> int:
        """Hop distance between two T' nodes (shorter way around on wraps)."""
        self.validate_node(a)
        self.validate_node(b)
        dx = abs(a.x - b.x)
        dy = abs(a.y - b.y)
        if self.wrap_x:
            dx = min(dx, self.width - dx)
        if self.wrap_y:
            dy = min(dy, self.height - dy)
        return dx + dy

    def cell_distance(self, a: Coordinate, b: Coordinate) -> int:
        """Physical distance in ballistic cells between two T' nodes."""
        return self.hop_distance(a, b) * self.cells_per_hop

    def diameter_hops(self) -> int:
        """Longest hop distance on the fabric (corner to corner on a mesh)."""
        dx = self.width // 2 if self.wrap_x else self.width - 1
        dy = self.height // 2 if self.wrap_y else self.height - 1
        return dx + dy

    # -- resource accounting ------------------------------------------------------

    def total_teleporters(self) -> int:
        return self.node_count * self.allocation.teleporters_per_node

    def total_generators(self) -> int:
        return self.link_count * self.allocation.generators_per_node

    def total_purifiers(self) -> int:
        return self.node_count * self.allocation.purifiers_per_node

    def interconnect_area_units(self) -> int:
        """Area proxy: one unit per teleporter, generator and purifier."""
        return (
            self.total_teleporters() + self.total_generators() + self.total_purifiers()
        )

    @property
    def fabric(self) -> str:
        """Fabric family implied by the dimensions and wrap flags."""
        flat = self.height == 1
        if self.wrap_x and self.wrap_y:
            return "torus"
        if flat and self.wrap_x:
            return "ring"
        if flat and not self.wrap_x:
            return "line"
        if self.wrap_x or self.wrap_y:
            return "cylinder"
        return "mesh"

    def describe(self) -> str:
        return (
            f"MeshTopology {self.width}x{self.height} ({self.fabric}): "
            f"{self.node_count} T' nodes, {self.link_count} virtual wires, "
            f"allocation {self.allocation.label}, "
            f"{self.cells_per_hop} cells/hop"
        )

    # -- validation helpers ----------------------------------------------------------

    def shortest_path_length(self, a: Coordinate, b: Coordinate) -> int:
        """Graph-theoretic shortest path length (equals :meth:`hop_distance`)."""
        self.validate_node(a)
        self.validate_node(b)
        return len(self._bfs_path(a, b)) - 1

    def is_connected(self) -> bool:
        """True when a BFS from the first node reaches every node."""
        start = next(iter(self._adj))
        reached = [start]
        seen = {start}
        for node in reached:
            for neighbour in self._adj[node]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    reached.append(neighbour)
        return len(reached) == len(self._adj)

    def _bfs_path(self, source: Coordinate, target: Coordinate) -> List[Coordinate]:
        """A shortest path by bidirectional BFS (networkx's algorithm).

        Which of several equal-length paths comes back is part of the routing
        contract: it fixes switch-endpoint routes on the hierarchical fabrics.
        So the search follows networkx's ``bidirectional_shortest_path`` step
        for step: the side with the smaller fringe expands a whole level next
        (forward on a tie), neighbours come in insertion order, and the search
        stops at the first node both sides have reached.
        """
        if source == target:
            return [source]
        pred: Dict[Coordinate, Optional[Coordinate]] = {source: None}
        succ: Dict[Coordinate, Optional[Coordinate]] = {target: None}
        forward, reverse = [source], [target]
        while forward and reverse:
            expand_forward = len(forward) <= len(reverse)
            level, seen, other = (forward, pred, succ) if expand_forward else (reverse, succ, pred)
            fringe: List[Coordinate] = []
            for node in level:
                for neighbour in self._adj[node]:
                    if neighbour not in seen:
                        seen[neighbour] = node
                        fringe.append(neighbour)
                    if neighbour in other:
                        return _walk(pred, neighbour)[::-1] + _walk(succ, succ[neighbour])
            if expand_forward:
                forward = fringe
            else:
                reverse = fringe
        raise RoutingError(f"no path between {source} and {target}")


def _walk(links: Dict[Coordinate, Optional[Coordinate]], node: Optional[Coordinate]) -> List[Coordinate]:
    """Follow BFS parent links from ``node`` until the search root."""
    chain: List[Coordinate] = []
    while node is not None:
        chain.append(node)
        node = links[node]
    return chain


def square_mesh(side: int, allocation: ResourceAllocation | None = None, **kwargs) -> MeshTopology:
    """Convenience constructor for the paper's square grids (16x16 default)."""
    return MeshTopology(side, side, allocation, **kwargs)

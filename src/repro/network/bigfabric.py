"""Hierarchical datacenter-scale fabrics: fat-tree, leaf-spine, dragonfly.

The paper's interconnect study stops at low-dimensional meshes; these fabrics
are the thousand-node shapes the roadmap calls for, where *path choice* — not
just max-min rate allocation — decides contention.  All three lay their nodes
out on tiered coordinates:

* ``y = 0`` — hosts, one LQ cluster each (the only tier that holds logical
  qubits; :attr:`qubit_capacity` is the host count);
* ``y >= 1`` — switches (edge/aggregation/core for the fat-tree, leaves and
  spines for the Clos, routers for the dragonfly), pure forwarding elements.

``x`` is the index within a tier, so the row-major qubit placement of
:class:`~repro.network.layout.MachineLayout` lands every qubit on a host
without knowing anything about fabrics.  Inter-tier (and dragonfly
intra-tier) wires are *express* links — adjacent by construction of the
fabric graph rather than by grid geometry (see
:class:`~repro.network.topology.LinkId`) — and every hop that stays on one
tier services the X teleporter set while tier-crossing hops service Y,
exactly the Figure 6 router split the mesh fabrics use.

Unlike the single deterministic dimension-order route of the mesh family,
each fabric enumerates *all* candidate paths per endpoint pair
(:meth:`HierarchicalTopology.enumerate_paths`): every equal-cost minimal path
plus, on the dragonfly, the Valiant non-minimal detours through each other
group.  The :class:`~repro.network.routing.LoadBalancer` policies pick among
them at channel-open time; with no balancer configured the planner takes
``candidates[0]``, a fixed minimal path.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from ..errors import ConfigurationError, RoutingError
from .geometry import Coordinate
from .nodes import ResourceAllocation
from .routing import Path
from .topology import MeshTopology


class HierarchicalTopology(MeshTopology):
    """Common machinery of the tiered multi-path fabrics.

    Subclasses set their structural parameters before calling
    ``super().__init__`` (which triggers :meth:`_build`), implement
    :meth:`_build` by wiring hosts and switches with express links, and
    implement :meth:`_minimal_paths`/:meth:`_nonminimal_paths` in terms of
    host endpoints.  Everything the simulation stack consumes — node/link
    iteration, adjacency, hop distances, resource accounting — is inherited
    or derived from the fabric graph, so the machine, both transport
    backends and the verify harness treat these fabrics exactly like meshes.
    """

    #: Overridden by subclasses; used in descriptions and ``fabric``.
    family = "hierarchical"

    def __init__(
        self,
        host_count: int,
        tiers: int,
        allocation: ResourceAllocation | None = None,
        *,
        cells_per_hop: int = 600,
    ) -> None:
        self.host_count = host_count
        self._ordered_nodes: List[Coordinate] = []
        self._hop_cache: Dict[Tuple[Coordinate, Coordinate], int] = {}
        # width = host tier width, height = tier count: the layout's
        # row-major placement then puts qubits 1..host_count on tier 0.
        super().__init__(host_count, tiers, allocation, cells_per_hop=cells_per_hop)

    # -- structure ------------------------------------------------------------

    def _add_node(self, coord: Coordinate) -> None:
        self._adj[coord] = {}
        self._ordered_nodes.append(coord)

    @property
    def node_count(self) -> int:
        return len(self._ordered_nodes)

    @property
    def qubit_capacity(self) -> int:
        """Only hosts carry LQ clusters; switch tiers hold no qubits."""
        return self.host_count

    def nodes(self) -> Iterator[Coordinate]:
        """All nodes, hosts first, in deterministic construction order."""
        return iter(self._ordered_nodes)

    def contains(self, coord: Coordinate) -> bool:
        return coord in self._adj

    def host(self, index: int) -> Coordinate:
        """The ``index``-th host (0-based), i.e. LQ site ``index``."""
        if not 0 <= index < self.host_count:
            raise ConfigurationError(
                f"host index {index} out of range 0..{self.host_count - 1}"
            )
        return Coordinate(index, 0)

    def is_host(self, coord: Coordinate) -> bool:
        return coord.y == 0 and 0 <= coord.x < self.host_count

    def worst_case_endpoints(self) -> Tuple[Coordinate, Coordinate]:
        """The endpoint pair of the longest minimal route (first/last host)."""
        return self.host(0), self.host(self.host_count - 1)

    # -- distances ------------------------------------------------------------

    def hop_distance(self, a: Coordinate, b: Coordinate) -> int:
        """Hop distance on the fabric graph (memoized BFS, not Manhattan)."""
        self.validate_node(a)
        self.validate_node(b)
        key = (a, b) if (a.x, a.y) <= (b.x, b.y) else (b, a)
        cached = self._hop_cache.get(key)
        if cached is None:
            cached = len(self._bfs_path(key[0], key[1])) - 1
            self._hop_cache[key] = cached
        return cached

    # -- candidate enumeration -------------------------------------------------

    def enumerate_paths(self, source: Coordinate, destination: Coordinate) -> Tuple[Path, ...]:
        """All candidate paths: equal-cost minimal first, then non-minimal.

        The order is deterministic (a structural function of the endpoints),
        so ``candidates[0]`` is a stable policy-free default and every
        balancer's index choice replays identically across backends, runs and
        processes.  Host-to-host pairs get the fabric's full enumeration;
        switch endpoints (possible in service mode, where traffic may target
        any T' node) fall back to the single BFS shortest path.
        """
        self.validate_node(source)
        self.validate_node(destination)
        if source == destination:
            raise RoutingError(f"no path needed from {source} to itself")
        if not (self.is_host(source) and self.is_host(destination)):
            return (self._path(self._bfs_path(source, destination)),)
        minimal = self._minimal_paths(source, destination)
        return tuple(minimal) + tuple(self._nonminimal_paths(source, destination))

    def _minimal_paths(self, source: Coordinate, destination: Coordinate) -> List[Path]:
        raise NotImplementedError

    def _nonminimal_paths(self, source: Coordinate, destination: Coordinate) -> List[Path]:
        """Non-minimal candidates; empty unless the fabric offers detours."""
        return []

    def _path(self, nodes: "list[Coordinate] | tuple[Coordinate, ...]") -> Path:
        return Path(tuple(nodes), express=True)

    def describe(self) -> str:
        return (
            f"{type(self).__name__} ({self.fabric}): {self.host_count} hosts, "
            f"{self.node_count - self.host_count} switches, "
            f"{self.link_count} virtual wires, allocation {self.allocation.label}, "
            f"{self.cells_per_hop} cells/hop"
        )

    @property
    def fabric(self) -> str:
        return self.family


class FatTreeTopology(HierarchicalTopology):
    """A k-ary fat-tree: k pods of k/2 edge + k/2 aggregation switches,
    (k/2)^2 core switches, k^3/4 hosts (Al-Fares et al.'s rearrangeably
    non-blocking Clos).  Tiers: hosts (y=0), edge (y=1), aggregation (y=2),
    core (y=3).

    Between hosts in different pods there are (k/2)^2 equal-cost paths — one
    per (aggregation switch, core switch) choice — all of length 6; same-pod
    pairs have k/2 four-hop paths and same-edge pairs a single two-hop one.
    """

    family = "fat_tree"

    def __init__(
        self,
        arity: int,
        allocation: ResourceAllocation | None = None,
        *,
        cells_per_hop: int = 600,
    ) -> None:
        if arity < 2 or arity % 2:
            raise ConfigurationError(f"a fat-tree needs an even arity >= 2, got {arity}")
        self.arity = arity
        self.half = arity // 2
        self.pods = arity
        super().__init__(
            arity**3 // 4, 4, allocation, cells_per_hop=cells_per_hop
        )

    def _edge(self, index: int) -> Coordinate:
        return Coordinate(index, 1)

    def _agg(self, index: int) -> Coordinate:
        return Coordinate(index, 2)

    def _core(self, index: int) -> Coordinate:
        return Coordinate(index, 3)

    def _build(self) -> None:
        half, pods = self.half, self.pods
        for index in range(self.host_count):
            self._add_node(Coordinate(index, 0))
        for index in range(pods * half):
            self._add_node(self._edge(index))
        for index in range(pods * half):
            self._add_node(self._agg(index))
        for index in range(half * half):
            self._add_node(self._core(index))
        for index in range(self.host_count):
            self._add_link(Coordinate(index, 0), self._edge(index // half), express=True)
        for pod in range(pods):
            for i in range(half):
                for j in range(half):
                    self._add_link(
                        self._edge(pod * half + i), self._agg(pod * half + j), express=True
                    )
        for pod in range(pods):
            for j in range(half):
                for m in range(half):
                    self._add_link(
                        self._agg(pod * half + j), self._core(j * half + m), express=True
                    )

    def _minimal_paths(self, source: Coordinate, destination: Coordinate) -> List[Path]:
        half = self.half
        edge_a, edge_b = source.x // half, destination.x // half
        if edge_a == edge_b:
            return [self._path((source, self._edge(edge_a), destination))]
        pod_a, pod_b = edge_a // half, edge_b // half
        if pod_a == pod_b:
            return [
                self._path(
                    (
                        source,
                        self._edge(edge_a),
                        self._agg(pod_a * half + j),
                        self._edge(edge_b),
                        destination,
                    )
                )
                for j in range(half)
            ]
        return [
            self._path(
                (
                    source,
                    self._edge(edge_a),
                    self._agg(pod_a * half + j),
                    self._core(j * half + m),
                    self._agg(pod_b * half + j),
                    self._edge(edge_b),
                    destination,
                )
            )
            for j in range(half)
            for m in range(half)
        ]

    def diameter_hops(self) -> int:
        return 6


class LeafSpineTopology(HierarchicalTopology):
    """A two-tier Clos: every leaf connects to every spine.

    ``hosts_per_leaf / spines`` is the oversubscription ratio (1.0 =
    rearrangeably non-blocking).  Inter-leaf pairs have one four-hop
    candidate per spine; same-leaf pairs a single two-hop path.
    """

    family = "leaf_spine"

    def __init__(
        self,
        leaves: int,
        spines: int,
        hosts_per_leaf: int,
        allocation: ResourceAllocation | None = None,
        *,
        cells_per_hop: int = 600,
    ) -> None:
        if leaves < 2:
            raise ConfigurationError(f"a leaf-spine fabric needs >= 2 leaves, got {leaves}")
        if spines < 1:
            raise ConfigurationError(f"a leaf-spine fabric needs >= 1 spine, got {spines}")
        if hosts_per_leaf < 1:
            raise ConfigurationError(
                f"a leaf-spine fabric needs >= 1 host per leaf, got {hosts_per_leaf}"
            )
        self.leaves = leaves
        self.spines = spines
        self.hosts_per_leaf = hosts_per_leaf
        super().__init__(
            leaves * hosts_per_leaf, 3, allocation, cells_per_hop=cells_per_hop
        )

    @property
    def oversubscription(self) -> float:
        return self.hosts_per_leaf / self.spines

    def _leaf(self, index: int) -> Coordinate:
        return Coordinate(index, 1)

    def _spine(self, index: int) -> Coordinate:
        return Coordinate(index, 2)

    def _build(self) -> None:
        for index in range(self.host_count):
            self._add_node(Coordinate(index, 0))
        for index in range(self.leaves):
            self._add_node(self._leaf(index))
        for index in range(self.spines):
            self._add_node(self._spine(index))
        for index in range(self.host_count):
            self._add_link(
                Coordinate(index, 0), self._leaf(index // self.hosts_per_leaf), express=True
            )
        for leaf in range(self.leaves):
            for spine in range(self.spines):
                self._add_link(self._leaf(leaf), self._spine(spine), express=True)

    def _minimal_paths(self, source: Coordinate, destination: Coordinate) -> List[Path]:
        leaf_a = source.x // self.hosts_per_leaf
        leaf_b = destination.x // self.hosts_per_leaf
        if leaf_a == leaf_b:
            return [self._path((source, self._leaf(leaf_a), destination))]
        return [
            self._path(
                (source, self._leaf(leaf_a), self._spine(s), self._leaf(leaf_b), destination)
            )
            for s in range(self.spines)
        ]

    def diameter_hops(self) -> int:
        return 4


class DragonflyTopology(HierarchicalTopology):
    """Groups of fully-meshed routers with one global link per group pair.

    Routers sit on tier 1 (group ``g``'s routers at ``x = g*a .. g*a+a-1``),
    hosts on tier 0.  The global link between groups ``i < j`` attaches to
    router ``(j-1) % a`` of group ``i`` and router ``i % a`` of group ``j``
    (round-robin, so global links spread over a group's routers).  Between
    groups there is exactly one minimal path — via the direct global link —
    plus one Valiant non-minimal candidate per intermediate group, which is
    what lets the adaptive policy shed load off a hot global link.
    """

    family = "dragonfly"

    def __init__(
        self,
        groups: int,
        routers_per_group: int,
        hosts_per_router: int,
        allocation: ResourceAllocation | None = None,
        *,
        cells_per_hop: int = 600,
    ) -> None:
        if groups < 2:
            raise ConfigurationError(f"a dragonfly needs >= 2 groups, got {groups}")
        if routers_per_group < 1:
            raise ConfigurationError(
                f"a dragonfly needs >= 1 router per group, got {routers_per_group}"
            )
        if hosts_per_router < 1:
            raise ConfigurationError(
                f"a dragonfly needs >= 1 host per router, got {hosts_per_router}"
            )
        self.groups = groups
        self.routers_per_group = routers_per_group
        self.hosts_per_router = hosts_per_router
        super().__init__(
            groups * routers_per_group * hosts_per_router,
            2,
            allocation,
            cells_per_hop=cells_per_hop,
        )

    def _router(self, group: int, index: int) -> Coordinate:
        return Coordinate(group * self.routers_per_group + index, 1)

    def _router_of_host(self, host: Coordinate) -> Coordinate:
        return Coordinate(host.x // self.hosts_per_router, 1)

    def _group_of(self, router: Coordinate) -> int:
        return router.x // self.routers_per_group

    def _gateway(self, group: int, other: int) -> Coordinate:
        """The router of ``group`` carrying the global link toward ``other``."""
        index = (other - 1 if other > group else other) % self.routers_per_group
        return self._router(group, index)

    def _build(self) -> None:
        a = self.routers_per_group
        for index in range(self.host_count):
            self._add_node(Coordinate(index, 0))
        for index in range(self.groups * a):
            self._add_node(Coordinate(index, 1))
        for index in range(self.host_count):
            host = Coordinate(index, 0)
            self._add_link(host, self._router_of_host(host), express=True)
        for group in range(self.groups):
            for i in range(a):
                for j in range(i + 1, a):
                    self._add_link(self._router(group, i), self._router(group, j), express=True)
        for i in range(self.groups):
            for j in range(i + 1, self.groups):
                self._add_link(self._gateway(i, j), self._gateway(j, i), express=True)

    def _route_via_groups(
        self, source: Coordinate, destination: Coordinate, groups: "list[int]"
    ) -> Path:
        """Walk the group sequence, inserting intra-group hops as needed."""
        nodes: List[Coordinate] = [source, self._router_of_host(source)]
        for here, nxt in zip(groups, groups[1:]):
            exit_router = self._gateway(here, nxt)
            if nodes[-1] != exit_router:
                nodes.append(exit_router)
            nodes.append(self._gateway(nxt, here))
        last_router = self._router_of_host(destination)
        if nodes[-1] != last_router:
            nodes.append(last_router)
        nodes.append(destination)
        return self._path(nodes)

    def _minimal_paths(self, source: Coordinate, destination: Coordinate) -> List[Path]:
        router_a = self._router_of_host(source)
        router_b = self._router_of_host(destination)
        if router_a == router_b:
            return [self._path((source, router_a, destination))]
        group_a, group_b = self._group_of(router_a), self._group_of(router_b)
        if group_a == group_b:
            return [self._path((source, router_a, router_b, destination))]
        return [self._route_via_groups(source, destination, [group_a, group_b])]

    def _nonminimal_paths(self, source: Coordinate, destination: Coordinate) -> List[Path]:
        group_a = self._group_of(self._router_of_host(source))
        group_b = self._group_of(self._router_of_host(destination))
        if group_a == group_b:
            return []
        return [
            self._route_via_groups(source, destination, [group_a, via, group_b])
            for via in range(self.groups)
            if via not in (group_a, group_b)
        ]

    def diameter_hops(self) -> int:
        if self.groups > 1:
            return 3 + (2 if self.routers_per_group > 1 else 0)
        return 3 if self.routers_per_group > 1 else 2


__all__ = [
    "HierarchicalTopology",
    "FatTreeTopology",
    "LeafSpineTopology",
    "DragonflyTopology",
]

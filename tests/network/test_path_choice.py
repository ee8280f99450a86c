"""Pinned path choice and hop distances on the hierarchical fabrics.

Host-to-host candidates are enumerated structurally, but a switch endpoint
falls back to the fabric graph's BFS shortest path, and hop distances come
from the same search.  Among equal-length shortest paths the BFS picks one by
its expansion order (a bidirectional search that meets in the middle, over
neighbours in insertion order), so that order is part of the routing
contract: a different search or a different adjacency order picks different
paths and moves every trace that routes through a switch.  These digests
pin the full switch-endpoint path set and the hop-distance table of one
instance of each fabric; the literal paths make a failure readable.
"""

import hashlib

import pytest

from repro.network.fabrics import build_topology, list_topologies
from repro.network.geometry import Coordinate
from repro.network.routing import candidate_paths

#: The hierarchical fabrics pinned here, each built as ``build_topology(name, 4)``.
PINNED = ("dragonfly", "fat_tree", "leaf_spine")

#: SHA-256 of every switch-endpoint ``enumerate_paths`` result, per fabric.
SWITCH_PATHS_SHA256 = {
    "fat_tree": "f4a47e8a5ef775c3d0dbad19cb4b8d87855ab26f6a1dc9bc0b9a6af9b87d95a2",
    "leaf_spine": "93490e6129ff8c012d97245acb60cb3b03373bf0a1bd20afbe84abcdf12a1bd9",
    "dragonfly": "cefecf8e4e6bc206033795ff280f63a3fd9f96787a6e13296d030056ee091c22",
}

#: SHA-256 of ``hop_distance`` over every ordered node pair, per fabric.
HOP_DISTANCES_SHA256 = {
    "fat_tree": "cb580b886b4bba7f0160585294678aca8d3c729d9d1f36cc2f0a0d5e0c053d88",
    "leaf_spine": "8b0a1a290dd016626d108e1631e75580c5bb19d3280b5547789f523418719e8f",
    "dragonfly": "a729c436d5142f56b4c20fd84d755bb37ff3ae3c01fead92ed2122f506b85f35",
}


def _ordered_pairs(topology):
    nodes = list(topology.nodes())
    return [(a, b) for a in nodes for b in nodes if a != b]


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def switch_paths_digest(topology) -> str:
    lines = []
    for a, b in _ordered_pairs(topology):
        if topology.is_host(a) and topology.is_host(b):
            continue
        for path in topology.enumerate_paths(a, b):
            lines.append(f"{a}>{b}:" + " ".join(str(node) for node in path.nodes))
    return _digest(lines)


def hop_distances_digest(topology) -> str:
    return _digest(f"{a}>{b}:{topology.hop_distance(a, b)}" for a, b in _ordered_pairs(topology))


@pytest.mark.parametrize("name", PINNED)
def test_switch_endpoint_paths_are_pinned(name):
    assert switch_paths_digest(build_topology(name, 4)) == SWITCH_PATHS_SHA256[name]


@pytest.mark.parametrize("name", PINNED)
def test_hop_distances_are_pinned(name):
    assert hop_distances_digest(build_topology(name, 4)) == HOP_DISTANCES_SHA256[name]


@pytest.mark.parametrize(
    "name, source, destination, expected",
    [
        ("fat_tree", (0, 2), (3, 2), [(0, 2), (0, 3), (2, 2), (2, 1), (3, 2)]),
        ("fat_tree", (0, 2), (7, 2), [(0, 2), (0, 3), (6, 2), (6, 1), (7, 2)]),
        ("dragonfly", (0, 1), (7, 1), [(0, 1), (6, 1), (7, 1)]),
        ("dragonfly", (2, 1), (6, 1), [(2, 1), (7, 1), (6, 1)]),
    ],
)
def test_literal_switch_to_switch_paths(name, source, destination, expected):
    topology = build_topology(name, 4)
    (path,) = topology.enumerate_paths(Coordinate(*source), Coordinate(*destination))
    assert path.nodes == tuple(Coordinate(x, y) for x, y in expected)


@pytest.mark.parametrize("kind", list_topologies())
def test_hop_distance_matches_first_candidate_on_every_family(kind):
    topology = build_topology(kind, 4)
    assert topology.is_connected()
    for a, b in _ordered_pairs(topology):
        path = candidate_paths(a, b, topology)[0]
        assert topology.hop_distance(a, b) == len(path.nodes) - 1
        assert topology.shortest_path_length(a, b) == topology.hop_distance(a, b)
        for here, nxt in zip(path.nodes, path.nodes[1:]):
            assert topology.are_adjacent(here, nxt)

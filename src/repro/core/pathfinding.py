"""Shortest paths over the workstation graph.

BIPS "defines a weighted undirected connected graph that reflects the
topology of workstations inside the building ... and implements the
Dijkstra algorithm" (§2).  Because the wired topology is static, BIPS
precomputes all shortest paths off-line so that answering a navigation
query is a table lookup — both behaviours are reproduced here.

Dijkstra is implemented from first principles (binary-heap variant);
the tests cross-check it against networkx.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Optional

from repro.building.floorplan import FloorPlan

from .errors import UnknownRoomError


@dataclass(frozen=True)
class PathResult:
    """A shortest path: the room sequence and its total length."""

    rooms: tuple[str, ...]
    total_distance_m: float

    @property
    def hop_count(self) -> int:
        """Number of passages traversed."""
        return max(0, len(self.rooms) - 1)

    def describe(self) -> str:
        """Human-readable rendering, e.g. for the handheld display."""
        route = " -> ".join(self.rooms)
        return f"{route}  ({self.total_distance_m:.1f} m, {self.hop_count} hops)"


class Graph:
    """A weighted undirected graph with string-named nodes."""

    def __init__(self) -> None:
        self._adjacency: dict[str, dict[str, float]] = {}

    @classmethod
    def from_floorplan(cls, plan: FloorPlan) -> "Graph":
        """The BIPS workstation graph of a floor plan."""
        graph = cls()
        for room_id in plan.room_ids():
            graph.add_node(room_id)
        for passage in plan.passages:
            graph.add_edge(passage.room_a, passage.room_b, passage.distance_m)
        return graph

    def add_node(self, node: str) -> None:
        """Add a node; idempotent."""
        self._adjacency.setdefault(node, {})

    def add_edge(self, a: str, b: str, weight: float) -> None:
        """Add an undirected edge; both endpoints must exist."""
        if weight <= 0:
            raise ValueError(f"edge weight must be positive: {weight}")
        if a not in self._adjacency or b not in self._adjacency:
            raise UnknownRoomError(f"edge references unknown node: {a!r}-{b!r}")
        if a == b:
            raise ValueError(f"self-loop on {a!r}")
        self._adjacency[a][b] = weight
        self._adjacency[b][a] = weight

    @property
    def nodes(self) -> list[str]:
        """All node names."""
        return list(self._adjacency)

    def __contains__(self, node: str) -> bool:
        return node in self._adjacency

    # -- Dijkstra ------------------------------------------------------------

    def dijkstra(self, source: str) -> tuple[dict[str, float], dict[str, Optional[str]]]:
        """Single-source shortest paths.

        Returns ``(distance, predecessor)`` maps covering every node
        reachable from ``source``.
        """
        if source not in self._adjacency:
            raise UnknownRoomError(f"unknown source {source!r}")
        distance: dict[str, float] = {source: 0.0}
        predecessor: dict[str, Optional[str]] = {source: None}
        settled: set[str] = set()
        frontier: list[tuple[float, str]] = [(0.0, source)]
        while frontier:
            dist, node = heapq.heappop(frontier)
            if node in settled:
                continue
            settled.add(node)
            for neighbor, weight in self._adjacency[node].items():
                candidate = dist + weight
                if candidate < distance.get(neighbor, float("inf")):
                    distance[neighbor] = candidate
                    predecessor[neighbor] = node
                    heapq.heappush(frontier, (candidate, neighbor))
        return distance, predecessor


def _walk_back(
    target: str, distance: dict[str, float], predecessor: dict[str, Optional[str]]
) -> PathResult:
    """The path to ``target`` along one Dijkstra run's predecessor links."""
    rooms: list[str] = []
    cursor: Optional[str] = target
    while cursor is not None:
        rooms.append(cursor)
        cursor = predecessor[cursor]
    rooms.reverse()
    return PathResult(rooms=tuple(rooms), total_distance_m=distance[target])


class AllPairsPaths:
    """Precomputed shortest paths between every room pair.

    "The static nature of BIPS wired network allows us to compute
    off-line all the shortest paths ... Hence the computation of the
    shortest path has no impact on BIPS online activities" (§2).
    Every reachable pair's :class:`PathResult` is built once, here; a
    query reads it from the table and shares it.
    """

    def __init__(self, graph: Graph) -> None:
        self._graph = graph
        self._paths: dict[str, dict[str, PathResult]] = {}
        for node in graph.nodes:
            distance, predecessor = graph.dijkstra(node)
            self._paths[node] = {
                target: _walk_back(target, distance, predecessor) for target in distance
            }

    @classmethod
    def from_floorplan(cls, plan: FloorPlan) -> "AllPairsPaths":
        """Convenience constructor from a floor plan."""
        return cls(Graph.from_floorplan(plan))

    def path(self, source: str, target: str) -> Optional[PathResult]:
        """Shortest path by table lookup, or None if unreachable."""
        row = self._paths.get(source)
        if row is None:
            raise UnknownRoomError(f"unknown source {source!r}")
        path = row.get(target)
        if path is None and target not in self._graph:
            raise UnknownRoomError(f"unknown target {target!r}")
        return path

    def eccentricity(self, node: str) -> float:
        """Greatest shortest-path distance from ``node``.

        A node that cannot reach every other node has infinite
        eccentricity (``math.inf``) — unreachable rooms are a real
        deployment condition (a wing whose workstation graph was wired
        without a connecting passage), not a missing dictionary key.
        """
        row = self._paths.get(node)
        if row is None:
            raise UnknownRoomError(f"unknown node {node!r}")
        if len(row) < len(self._graph.nodes):
            return math.inf
        return max(path.total_distance_m for path in row.values())

    def diameter(self) -> float:
        """Longest shortest path in the building graph.

        ``math.inf`` for a disconnected graph.  Raises
        :class:`ValueError` on a graph with no nodes — there is no
        meaningful number to return, and letting ``max()`` raise its
        bare "empty sequence" error hid what was actually wrong.
        """
        nodes = self._graph.nodes
        if not nodes:
            raise ValueError("diameter is undefined for an empty graph")
        return max(self.eccentricity(node) for node in nodes)

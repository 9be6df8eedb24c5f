"""Tests for Dijkstra and the all-pairs precomputation."""

from __future__ import annotations

import itertools
import math
from typing import Callable, Optional, Sequence

import pytest

from repro.building.layouts import academic_department, multi_floor_department
from repro.core.errors import UnknownRoomError
from repro.core.pathfinding import AllPairsPaths, Graph, PathResult
from tests.layouts import linear_wing


def validate_against_reference(
    edges: Sequence[tuple[str, str, float]],
    nodes: Sequence[str],
    pairs: Sequence[tuple[str, str]],
    lookup: Callable[[str, str], Optional[PathResult]],
) -> list[tuple[str, str, Optional[float], Optional[float]]]:
    """Cross-check shortest paths against networkx on specific pairs.

    ``edges`` are the graph's ``(a, b, weight)`` edges and ``lookup``
    answers a pair.  An answer must join its endpoints along edges whose
    weights sum to its length, and that length must be networkx's.
    Returns the mismatching pairs as ``(source, target, ours,
    reference)``; an empty list means agreement.
    """
    import networkx as nx

    reference = nx.Graph()
    reference.add_nodes_from(nodes)
    weights: dict[frozenset, float] = {}
    for a, b, weight in edges:
        reference.add_edge(a, b, weight=weight)
        weights[frozenset((a, b))] = weight
    mismatches = []
    for source, target in pairs:
        ours = lookup(source, target)
        try:
            ref_distance = nx.shortest_path_length(reference, source, target, weight="weight")
        except nx.NetworkXNoPath:
            ref_distance = None
        ours_distance = ours.total_distance_m if ours is not None else None
        if ours is not None:
            rooms = ours.rooms
            walked = sum(weights.get(frozenset(hop), math.inf) for hop in zip(rooms, rooms[1:]))
            if (rooms[0], rooms[-1]) != (source, target) or abs(walked - ours_distance) > 1e-9:
                mismatches.append((source, target, ours_distance, ref_distance))
                continue
        if ours_distance is None and ref_distance is None:
            continue
        if (
            ours_distance is None
            or ref_distance is None
            or abs(ours_distance - ref_distance) > 1e-9
        ):
            mismatches.append((source, target, ours_distance, ref_distance))
    return mismatches


def plan_edges(plan) -> list[tuple[str, str, float]]:
    return [(p.room_a, p.room_b, p.distance_m) for p in plan.passages]


def diamond() -> Graph:
    """a-b-d is 3, a-c-d is 2.5: the cheaper path has more hops."""
    graph = Graph()
    for node in "abcd":
        graph.add_node(node)
    graph.add_edge("a", "b", 1.0)
    graph.add_edge("b", "d", 2.0)
    graph.add_edge("a", "c", 1.5)
    graph.add_edge("c", "d", 1.0)
    return graph


class TestGraph:
    def test_add_edge_requires_nodes(self):
        graph = Graph()
        graph.add_node("a")
        with pytest.raises(UnknownRoomError):
            graph.add_edge("a", "ghost", 1.0)

    def test_self_loop_rejected(self):
        graph = Graph()
        graph.add_node("a")
        with pytest.raises(ValueError):
            graph.add_edge("a", "a", 1.0)

    def test_non_positive_weight_rejected(self):
        graph = diamond()
        with pytest.raises(ValueError):
            graph.add_edge("a", "d", 0.0)

    def test_undirected(self):
        all_pairs = AllPairsPaths(diamond())
        assert all_pairs.path("a", "b").rooms == ("a", "b")
        assert all_pairs.path("b", "a").rooms == ("b", "a")
        assert all_pairs.path("b", "a").total_distance_m == 1.0

    def test_from_floorplan(self):
        plan = academic_department()
        graph = Graph.from_floorplan(plan)
        assert set(graph.nodes) == set(plan.room_ids())


class TestDijkstra:
    def test_picks_cheaper_longer_path(self):
        result = AllPairsPaths(diamond()).path("a", "d")
        assert result.rooms == ("a", "c", "d")
        assert result.total_distance_m == 2.5
        assert result.hop_count == 2

    def test_source_equals_target(self):
        result = AllPairsPaths(diamond()).path("a", "a")
        assert result.rooms == ("a",)
        assert result.total_distance_m == 0.0
        assert result.hop_count == 0

    def test_disconnected_returns_none(self):
        graph = diamond()
        graph.add_node("island")
        assert AllPairsPaths(graph).path("a", "island") is None

    def test_unknown_nodes_raise(self):
        with pytest.raises(UnknownRoomError):
            diamond().dijkstra("ghost")
        with pytest.raises(UnknownRoomError):
            AllPairsPaths(diamond()).path("a", "ghost")

    def test_distances_monotone_along_path(self):
        graph = Graph.from_floorplan(academic_department())
        distance, predecessor = graph.dijkstra("lab-1")
        for node, pred in predecessor.items():
            if pred is not None:
                assert distance[pred] < distance[node]

    def test_linear_wing_distance(self):
        result = AllPairsPaths.from_floorplan(linear_wing(6)).path("wing-0", "wing-5")
        assert result.total_distance_m == 50.0
        assert result.hop_count == 5

    def test_matches_networkx_on_department(self):
        plan = academic_department()
        all_pairs = AllPairsPaths.from_floorplan(plan)
        pairs = list(itertools.combinations(plan.room_ids(), 2))
        assert validate_against_reference(
            plan_edges(plan), plan.room_ids(), pairs, all_pairs.path
        ) == []

    def test_matches_networkx_on_random_graphs(self):
        from repro.sim.rng import RandomStream

        rng = RandomStream(12345, "graphs")
        for trial in range(10):
            graph = Graph()
            node_count = rng.randint(4, 12)
            nodes = [f"n{i}" for i in range(node_count)]
            for node in nodes:
                graph.add_node(node)
            edges = []
            # A random spanning tree plus extra chords keeps it connected.
            for i in range(1, node_count):
                parent = nodes[rng.randint(0, i - 1)]
                edges.append((nodes[i], parent, rng.uniform(0.5, 20.0)))
            joined = {frozenset(edge[:2]) for edge in edges}
            for _ in range(node_count):
                a, b = rng.sample(nodes, 2)
                if frozenset((a, b)) not in joined:
                    joined.add(frozenset((a, b)))
                    edges.append((a, b, rng.uniform(0.5, 20.0)))
            for a, b, weight in edges:
                graph.add_edge(a, b, weight)
            pairs = [tuple(rng.sample(nodes, 2)) for _ in range(15)]
            assert validate_against_reference(
                edges, nodes, pairs, AllPairsPaths(graph).path
            ) == []


class TestAllPairs:
    @pytest.mark.parametrize(
        "plan", [academic_department(), multi_floor_department(3)], ids=["department", "3-floor"]
    )
    def test_every_precomputed_path_matches_networkx(self, plan):
        all_pairs = AllPairsPaths.from_floorplan(plan)
        pairs = list(itertools.product(plan.room_ids(), repeat=2))
        assert validate_against_reference(
            plan_edges(plan), plan.room_ids(), pairs, all_pairs.path
        ) == []

    def test_lookup_returns_the_prebuilt_result(self):
        all_pairs = AllPairsPaths.from_floorplan(academic_department())
        assert all_pairs.path("lab-1", "lounge") is all_pairs.path("lab-1", "lounge")

    def test_lookup_matches_direct_dijkstra(self):
        plan = academic_department()
        graph = Graph.from_floorplan(plan)
        all_pairs = AllPairsPaths(graph)
        for source, target in itertools.combinations(plan.room_ids(), 2):
            distance, predecessor = graph.dijkstra(source)
            lookup = all_pairs.path(source, target)
            assert lookup.total_distance_m == distance[target]
            assert lookup.rooms[-2] == predecessor[target]

    def test_path_is_symmetric_in_length(self):
        all_pairs = AllPairsPaths.from_floorplan(academic_department())
        a = all_pairs.path("lab-1", "lounge").total_distance_m
        b = all_pairs.path("lounge", "lab-1").total_distance_m
        assert a == b

    def test_unreachable_distance_none(self):
        graph = diamond()
        graph.add_node("island")
        all_pairs = AllPairsPaths(graph)
        assert all_pairs.path("a", "island") is None

    def test_unknown_room_raises(self):
        all_pairs = AllPairsPaths.from_floorplan(academic_department())
        with pytest.raises(UnknownRoomError):
            all_pairs.path("ghost", "lab-1")
        with pytest.raises(UnknownRoomError):
            all_pairs.path("lab-1", "ghost")

    def test_diameter_and_eccentricity(self):
        all_pairs = AllPairsPaths.from_floorplan(linear_wing(6))
        assert all_pairs.diameter() == 50.0
        assert all_pairs.eccentricity("wing-0") == 50.0
        assert all_pairs.eccentricity("wing-3") == 30.0

    def test_path_describe(self):
        all_pairs = AllPairsPaths.from_floorplan(linear_wing(3))
        text = all_pairs.path("wing-0", "wing-2").describe()
        assert "wing-0 -> wing-1 -> wing-2" in text
        assert "20.0 m" in text


class TestDiameterEdgeCases:
    """Defined behaviour for degenerate graphs (empty / disconnected).

    ``diameter()`` used to raise ``max()``'s bare "empty sequence"
    ValueError on an empty graph and to *omit* unreachable nodes from
    eccentricity, silently reporting a finite diameter for a building
    whose graph was wired without a connecting passage.
    """

    def test_empty_graph_diameter_raises_with_message(self):
        all_pairs = AllPairsPaths(Graph())
        with pytest.raises(ValueError, match="empty graph"):
            all_pairs.diameter()

    def test_single_node_graph(self):
        graph = Graph()
        graph.add_node("lobby")
        all_pairs = AllPairsPaths(graph)
        assert all_pairs.diameter() == 0.0
        assert all_pairs.eccentricity("lobby") == 0.0

    def test_disconnected_eccentricity_is_infinite(self):
        graph = diamond()
        graph.add_node("island")
        all_pairs = AllPairsPaths(graph)
        assert all_pairs.eccentricity("a") == math.inf
        assert all_pairs.eccentricity("island") == math.inf

    def test_disconnected_diameter_is_infinite(self):
        graph = diamond()
        graph.add_node("island")
        assert AllPairsPaths(graph).diameter() == math.inf

    def test_connected_component_unaffected(self):
        # Adding then *connecting* the island restores finite values.
        graph = diamond()
        graph.add_node("island")
        graph.add_edge("d", "island", 1.0)
        all_pairs = AllPairsPaths(graph)
        assert all_pairs.diameter() == 3.5  # a-c-d-island
        assert all_pairs.eccentricity("island") == 3.5

    def test_eccentricity_unknown_node_raises(self):
        with pytest.raises(UnknownRoomError):
            AllPairsPaths(diamond()).eccentricity("ghost")

"""Property-based tests for GPSR over randomized topologies.

GPSR's contract on a connected unit-disk graph with a planarized
perimeter graph: every packet is delivered, along radio edges only, and
loops terminate.  Hypothesis drives random deployments and endpoint
pairs; shrinking gives minimal failing topologies if the invariant ever
breaks.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.topology import deploy_uniform
from repro.routing.gpsr import GPSRRouter
from tests.routing._planar import gabriel_graph


@st.composite
def connected_topologies(draw):
    """Small connected random deployments across a density range."""
    n = draw(st.integers(min_value=10, max_value=80))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    degree = draw(st.sampled_from([9.0, 14.0, 20.0]))
    return deploy_uniform(
        n, target_degree=degree, seed=seed, max_attempts=50
    )


@st.composite
def routed_pairs(draw):
    topology = draw(connected_topologies())
    src = draw(st.integers(min_value=0, max_value=topology.size - 1))
    dst = draw(st.integers(min_value=0, max_value=topology.size - 1))
    return topology, src, dst


class TestDeliveryProperties:
    @given(routed_pairs())
    @settings(max_examples=60, deadline=None)
    def test_connected_graphs_always_deliver(self, case):
        topology, src, dst = case
        router = GPSRRouter(topology)
        result = router.route(src, dst)
        assert result.delivered

    @given(routed_pairs())
    @settings(max_examples=60, deadline=None)
    def test_paths_use_radio_edges_only(self, case):
        topology, src, dst = case
        router = GPSRRouter(topology)
        path = router.route(src, dst).path
        for u, v in zip(path, path[1:]):
            assert v in topology.neighbors(u)

    @given(routed_pairs())
    @settings(max_examples=40, deadline=None)
    def test_path_at_least_straight_line_hops(self, case):
        """No path can beat distance / radio_range hops."""
        topology, src, dst = case
        router = GPSRRouter(topology)
        result = router.route(src, dst)
        if not result.delivered:
            return
        straight = math.dist(topology.position(src), topology.position(dst))
        assert result.hops >= math.floor(straight / topology.radio_range)

    @given(connected_topologies())
    @settings(max_examples=30, deadline=None)
    def test_gabriel_connectivity_preserved(self, topology):
        """The planarization GPSR leans on never disconnects the graph."""
        adjacency = gabriel_graph(topology)
        seen = {0}
        frontier = [0]
        while frontier:
            node = frontier.pop()
            for neighbor in adjacency[node]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        assert len(seen) == topology.size


class TestFailureProperties:
    @given(
        connected_topologies(),
        st.sets(st.integers(min_value=0, max_value=9), max_size=3),
    )
    @settings(max_examples=30, deadline=None)
    def test_routing_after_failures_avoids_dead_nodes(self, topology, victims):
        victims = {v for v in victims if v < topology.size}
        alive = [n for n in range(topology.size) if n not in victims]
        if len(alive) < 2 or not victims:
            return
        degraded = topology.without(sorted(victims))
        if not degraded.is_connected():
            return
        router = GPSRRouter(degraded)
        result = router.route(alive[0], alive[-1])
        assert result.delivered
        assert not set(result.path) & victims

"""Tests for Gabriel / RNG planarization."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.geometry import segments_properly_intersect
from repro.network.topology import Topology, deploy_uniform
from tests.routing._planar import gabriel_graph, planarize, rng_graph


def _is_connected(adjacency) -> bool:
    seen = {0}
    frontier = [0]
    while frontier:
        node = frontier.pop()
        for neighbor in adjacency[node]:
            if neighbor not in seen:
                seen.add(neighbor)
                frontier.append(neighbor)
    return len(seen) == len(adjacency)


def _edges(adjacency) -> set[tuple[int, int]]:
    return {
        (u, v) for u, nbrs in enumerate(adjacency) for v in nbrs if u < v
    }


class TestGabriel:
    def test_triangle_with_midpoint_witness(self):
        # Node 2 sits inside the circle with diameter (0, 1): edge dropped.
        topo = Topology([(0, 0), (10, 0), (5, 1)], radio_range=12)
        gg = gabriel_graph(topo)
        assert 1 not in gg[0]
        assert 2 in gg[0] and 2 in gg[1]

    def test_no_witness_keeps_edge(self):
        topo = Topology([(0, 0), (10, 0), (5, 8)], radio_range=15)
        gg = gabriel_graph(topo)
        assert 1 in gg[0]

    def test_subgraph_of_radio_graph(self, topo300):
        gg = gabriel_graph(topo300)
        assert _edges(gg) <= _edges(topo300.neighbor_table)

    def test_preserves_connectivity(self, topo300):
        assert _is_connected(gabriel_graph(topo300))

    def test_symmetry(self, topo300):
        gg = gabriel_graph(topo300)
        for u, neighbors in enumerate(gg):
            for v in neighbors:
                assert u in gg[v]

    def test_planarity_no_proper_crossings(self):
        topo = deploy_uniform(120, seed=6)
        gg = gabriel_graph(topo)
        edges = list(_edges(gg))
        positions = topo.positions
        for i, (a, b) in enumerate(edges):
            for c, d in edges[i + 1 :]:
                if {a, b} & {c, d}:
                    continue
                assert not segments_properly_intersect(
                    positions[a], positions[b], positions[c], positions[d]
                ), f"edges ({a},{b}) and ({c},{d}) cross"


class TestRng:
    def test_rng_subset_of_gabriel(self, topo300):
        assert _edges(rng_graph(topo300)) <= _edges(gabriel_graph(topo300))

    def test_preserves_connectivity(self, topo300):
        assert _is_connected(rng_graph(topo300))

    def test_lune_witness_drops_edge(self):
        # Node 2 is closer to both 0 and 1 than they are to each other.
        topo = Topology([(0, 0), (10, 0), (5, 2)], radio_range=12)
        rng = rng_graph(topo)
        assert 1 not in rng[0]


class TestPlanarize:
    def test_dispatch(self, topo300):
        assert planarize(topo300, "gabriel") == gabriel_graph(topo300)
        assert planarize(topo300, "rng") == rng_graph(topo300)
        assert planarize(topo300, "none") == list(topo300.neighbor_table)

    def test_unknown_kind(self, topo300):
        with pytest.raises(ConfigurationError):
            planarize(topo300, "voronoi")  # type: ignore[arg-type]

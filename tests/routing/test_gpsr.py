"""Tests for GPSR: greedy mode, perimeter recovery, delivery guarantees."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError, DeliveryError, RoutingError
from repro.network.topology import Topology, deploy_uniform
from repro.rng import derive
from repro.routing.gpsr import GPSRRouter


@pytest.fixture(scope="module")
def router300():
    return GPSRRouter(deploy_uniform(300, seed=1))


def _void_topology() -> Topology:
    """A horseshoe cul-de-sac: greedy dead-ends at the source immediately.

    Node 0 sits at the bottom of a "U" whose arms lead away from the
    destination (node 1, straight above) before curving back up; every
    neighbor of node 0 is farther from the destination than node 0 itself,
    so only perimeter mode can deliver.
    """
    positions = [(0.0, 0.0), (0.0, 40.0)]  # 0 = source, 1 = destination
    for sign in (-1.0, 1.0):
        positions.append((sign * 10.0, 0.0))
        positions.append((sign * 20.0, 0.0))
        for y in (10.0, 20.0, 30.0, 40.0):
            positions.append((sign * 20.0, y))
        positions.append((sign * 10.0, 40.0))
    return Topology(positions, radio_range=12.0)


class TestGreedy:
    def test_direct_neighbors(self, router300):
        topo = router300.topology
        src = 0
        dst = topo.neighbors(0)[0]
        assert router300.path(src, dst) == [src, dst]

    def test_self_route(self, router300):
        assert router300.path(5, 5) == [5]
        result = router300.route(5, 5)
        assert result.delivered and result.hops == 0

    def test_path_endpoints(self, router300):
        path = router300.path(0, 299)
        assert path[0] == 0 and path[-1] == 299

    def test_path_hops_are_radio_edges(self, router300):
        topo = router300.topology
        path = router300.path(3, 250)
        for u, v in zip(path, path[1:]):
            assert v in topo.neighbors(u)

    def test_greedy_progress_monotonic(self, router300):
        """In greedy-only delivery, distance to target strictly decreases."""
        import math

        topo = router300.topology
        result = router300.route(10, 200)
        if result.greedy_only:
            dest = topo.position(200)
            dists = [math.dist(topo.position(n), dest) for n in result.path]
            assert all(a > b for a, b in zip(dists, dists[1:]))

    def test_hops_matches_path(self, router300):
        assert router300.hops(0, 100) == len(router300.path(0, 100)) - 1

    def test_path_cache_returns_same(self, router300):
        assert router300.path(2, 222) is router300.path(2, 222)


class TestPerimeter:
    def test_routes_around_void(self):
        topo = _void_topology()
        router = GPSRRouter(topo)
        result = router.route(0, 1)
        assert result.delivered
        assert result.perimeter_hops > 0  # greedy alone cannot cross

    def test_void_path_is_valid(self):
        topo = _void_topology()
        router = GPSRRouter(topo)
        path = router.path(0, 1)
        for u, v in zip(path, path[1:]):
            assert v in topo.neighbors(u)

    def test_unreachable_reports_failure(self):
        # Two clusters out of radio range: delivery must fail cleanly.
        positions = [(0, 0), (5, 0), (100, 0), (105, 0)]
        router = GPSRRouter(Topology(positions, radio_range=10))
        result = router.route(0, 3)
        assert not result.delivered
        with pytest.raises(DeliveryError):
            router.path(0, 3)

    def test_degree_one_bounces_back(self):
        # A chain: the stub node's only planar neighbor is its parent.
        positions = [(0, 0), (10, 0), (20, 0), (30, 0)]
        router = GPSRRouter(Topology(positions, radio_range=12))
        assert router.path(0, 3) == [0, 1, 2, 3]


class TestDeliveryAtScale:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_all_pairs_sample_delivered(self, seed):
        topo = deploy_uniform(250, seed=seed)
        router = GPSRRouter(topo)
        rng = derive(seed, "pairs")
        for _ in range(120):
            src, dst = (int(x) for x in rng.integers(0, topo.size, 2))
            result = router.route(src, dst)
            assert result.delivered, f"{src}->{dst} failed"

    def test_sparse_network_delivery(self):
        # Density low enough that perimeter mode is exercised frequently.
        topo = deploy_uniform(200, target_degree=7.0, seed=4)
        router = GPSRRouter(topo)
        rng = derive(0, "sparse-pairs")
        perimeter_used = 0
        for _ in range(100):
            src, dst = (int(x) for x in rng.integers(0, topo.size, 2))
            result = router.route(src, dst)
            assert result.delivered
            perimeter_used += not result.greedy_only
        assert perimeter_used > 0  # the fixture actually exercises recovery

    def test_greedy_success_ratio(self):
        topo = deploy_uniform(200, seed=5)
        router = GPSRRouter(topo)
        samples = [(0, 100), (5, 150), (20, 199)]
        ratio = router.greedy_success_ratio(samples)
        assert 0.0 <= ratio <= 1.0

    def test_greedy_success_ratio_empty(self, router300):
        assert router300.greedy_success_ratio([]) == 1.0

    def test_failed_perimeter_walk_is_not_greedy_success(self):
        # Two clusters out of radio range: the walk enters perimeter mode,
        # bounces inside the source cluster and is dropped undelivered.
        positions = [(0, 0), (5, 0), (100, 0), (105, 0)]
        router = GPSRRouter(Topology(positions, radio_range=10))
        result = router.route(0, 3)
        assert not result.delivered
        assert result.modes == ("greedy", "perimeter", "perimeter")
        assert result.perimeter_hops == 2
        assert not result.greedy_only
        assert router.greedy_success_ratio([(0, 3)]) == 0.0
        assert router.greedy_success_ratio([(0, 1), (0, 3)]) == 0.5


class TestPointDelivery:
    def test_path_to_point_ends_at_closest(self, router300):
        topo = router300.topology
        target_point = topo.field.center
        path = router300.path_to_point(0, target_point)
        assert path[-1] == topo.closest_node(target_point)


class TestValidation:
    def test_bad_node_ids(self, router300):
        with pytest.raises(RoutingError):
            router300.route(0, 99999)
        with pytest.raises(RoutingError):
            router300.route(-1, 0)

    def test_bad_ttl_factor(self, topo300):
        with pytest.raises(ConfigurationError):
            GPSRRouter(topo300, ttl_factor=0)

"""Tests for the shared Deployment layer and its failure semantics."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.network.deployment import Deployment
from repro.network.messages import MessageCategory
from repro.network.instrumentation import CONSTRUCTION_COUNTERS
from repro.network.network import Network
from repro.network.topology import deploy_uniform
from repro.routing.gpsr import GPSRRouter
from tests.routing._planar import planarize


@pytest.fixture(scope="module")
def deployment() -> Deployment:
    return Deployment.deploy(300, seed=11)


class TestDeployment:
    def test_deploy_bundles_topology_and_router(self, deployment):
        assert deployment.size == 300
        assert deployment.router.topology is deployment.topology
        assert deployment.planarization == "gabriel"
        assert deployment.failed_nodes == frozenset()

    def test_wraps_existing_topology(self, topo300):
        wrapped = Deployment(topo300, planarization="rng")
        assert wrapped.topology is topo300
        assert wrapped.router.planarization_kind == "rng"

    def test_route_cache_shared_across_facades(self, deployment):
        net_a = Network(deployment=deployment).scope("a")
        net_b = Network(deployment=deployment).scope("b")
        before = deployment.router.cached_paths
        net_a.unicast(MessageCategory.INSERT, 0, 200)
        warmed = deployment.router.cached_paths
        assert warmed > before
        # The second facade reuses the warm cache instead of re-routing.
        net_b.unicast(MessageCategory.INSERT, 0, 200)
        assert deployment.router.cached_paths == warmed

    def test_counts_one_topology_build(self):
        CONSTRUCTION_COUNTERS.reset()
        Deployment.deploy(120, seed=5)
        assert CONSTRUCTION_COUNTERS.topology_deployments == 1

    def test_network_requires_exactly_one_substrate(self, topo300, deployment):
        with pytest.raises(ConfigurationError):
            Network()
        with pytest.raises(ConfigurationError):
            Network(topo300, deployment=deployment)


class TestFailNodes:
    def test_derivation_leaves_parent_untouched(self, deployment):
        failed = {5, 6, 7}
        degraded = deployment.fail_nodes(failed)
        assert degraded is not deployment
        assert degraded.failed_nodes == frozenset(failed)
        assert deployment.failed_nodes == frozenset()
        for node in failed:
            assert deployment.topology.is_alive(node)
            assert not degraded.topology.is_alive(node)

    def test_surviving_cached_paths_are_kept(self):
        deployment = Deployment.deploy(300, seed=12)
        router = deployment.router
        clean = router.path(0, 250)
        # Fail a node on that path; pick survivors well away from it.
        victim = clean[len(clean) // 2]
        keep_src, keep_dst = next(
            (s, d)
            for s in range(300)
            for d in range(299, 0, -1)
            if s != d and victim not in router.path(s, d)
        )
        kept = router.path(keep_src, keep_dst)
        degraded = deployment.fail_nodes([victim])
        # The surviving path is adopted verbatim (same object — no rework);
        # the path through the victim is evicted.
        assert degraded.router._path_cache[(keep_src, keep_dst)] is kept
        assert (0, 250) not in degraded.router._path_cache
        assert degraded.router.cached_paths < router.cached_paths

    def test_degraded_router_avoids_failed_nodes(self):
        deployment = Deployment.deploy(300, seed=13)
        clean = deployment.router.path(3, 280)
        victim = clean[len(clean) // 2]
        degraded = deployment.fail_nodes([victim])
        rerouted = degraded.router.path(3, 280)
        assert victim not in rerouted
        # Parent still routes through the now-failed node.
        assert deployment.router.path(3, 280) == clean


class TestIncrementalPlanarization:
    """Planar rows are computed on first read, at most once per router."""

    def test_greedy_route_computes_no_row(self):
        router = GPSRRouter(deploy_uniform(300, seed=23))
        CONSTRUCTION_COUNTERS.reset()
        result = router.route(0, 3)
        assert result.delivered and result.greedy_only
        assert CONSTRUCTION_COUNTERS.planar_rows == 0
        assert all(row is None for row in router.planar_adjacency)

    def test_router_repair_is_incremental(self):
        topology = deploy_uniform(300, seed=23)
        router = GPSRRouter(topology)
        CONSTRUCTION_COUNTERS.reset()
        # Destination 91 sits behind a void: these walks enter perimeter
        # mode, and routing them twice re-reads the same rows.
        for _ in range(2):
            for src in (49, 63, 105, 112, 161):
                assert router.route(src, 91).perimeter_hops > 0
        built = [u for u, row in enumerate(router.planar_adjacency) if row]
        assert 0 < len(built) < topology.size
        assert CONSTRUCTION_COUNTERS.planar_rows == len(built)
        full = planarize(topology)
        assert all(router.planar_adjacency[u] == full[u] for u in built)
        # The derived router starts with no rows and builds the degraded
        # topology's own, each once.
        degraded = router.without_nodes([7, 90])
        assert all(row is None for row in degraded.planar_adjacency)
        CONSTRUCTION_COUNTERS.reset()
        for _ in range(2):
            for src in (49, 63, 105, 112, 161):
                degraded.route(src, 91)
        rebuilt = [u for u, row in enumerate(degraded.planar_adjacency) if row]
        assert CONSTRUCTION_COUNTERS.planar_rows == len(rebuilt)
        degraded_full = planarize(topology.without(frozenset({7, 90})))
        assert all(degraded.planar_adjacency[u] == degraded_full[u] for u in rebuilt)

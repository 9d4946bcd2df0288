"""Tests for the ShardRouter: GPSR with per-tile forwarding decisions."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError, DeliveryError
from repro.network.deployment import Deployment
from repro.network.topology import deploy_uniform
from repro.routing.gpsr import GPSRRouter
from repro.shard.plan import ShardPlan
from repro.shard.router import ShardRouter


@pytest.fixture(scope="module")
def topo():
    return deploy_uniform(200, seed=5)


@pytest.fixture(scope="module")
def plan(topo):
    return ShardPlan.grid(topo.field, 4, halo=topo.radio_range)


class TestShardRouter:
    def test_narrow_halo_is_rejected(self, topo):
        narrow = ShardPlan.grid(topo.field, 4, halo=topo.radio_range / 2)
        with pytest.raises(ConfigurationError, match="halo"):
            ShardRouter(topo, narrow)

    def test_route_matches_monolithic(self, topo, plan):
        reference = GPSRRouter(topo)
        router = ShardRouter(topo, plan)
        for src, dst in [(0, 150), (12, 160), (5, 5)]:
            ours = router.route(src, dst)
            theirs = reference.route(src, dst)
            assert ours.path == theirs.path
            assert ours.delivered == theirs.delivered
            assert ours.perimeter_hops == theirs.perimeter_hops
            assert ours.modes == theirs.modes

    def test_validation_matches_monolithic(self, topo, plan):
        cases = [
            (ShardRouter(topo, plan), GPSRRouter(topo), (0, topo.size + 5)),
            (ShardRouter(topo, plan), GPSRRouter(topo), (-1, 3)),
            (ShardRouter(topo, plan), GPSRRouter(topo), (0, topo.size)),
            # A failed endpoint, on routers derived by without_nodes.
            (
                ShardRouter(topo, plan).without_nodes([7]),
                GPSRRouter(topo).without_nodes([7]),
                (7, 100),
            ),
        ]
        for router, reference, (src, dst) in cases:
            with pytest.raises(Exception) as sharded_err:
                router.route(src, dst)
            with pytest.raises(Exception) as mono_err:
                reference.route(src, dst)
            assert type(sharded_err.value) is type(mono_err.value)
            assert str(sharded_err.value) == str(mono_err.value)


class TestShardedDeployment:
    def test_deploy_matches_unsharded_topology(self):
        mono = Deployment.deploy(150, seed=9)
        sharded = mono.shard(4)
        fresh = Deployment.deploy(150, seed=9)
        assert (sharded.topology.positions == fresh.topology.positions).all()
        assert isinstance(sharded.router, ShardRouter)

    def test_fail_nodes_keeps_surviving_paths(self):
        sharded = Deployment.deploy(150, seed=9).shard(4)
        pairs = [(0, 140), (10, 100), (20, 60), (30, 90)]
        warm = {pair: sharded.router.path(*pair) for pair in pairs}
        failed = {warm[(0, 140)][len(warm[(0, 140)]) // 2]}
        degraded = sharded.fail_nodes(failed)
        assert isinstance(degraded.router, ShardRouter)
        assert degraded.router.plan is sharded.router.plan
        survivors = {
            pair: path for pair, path in warm.items() if failed.isdisjoint(path)
        }
        assert 0 < len(survivors) < len(warm)
        assert degraded.router.cached_paths == len(survivors)
        for pair, path in survivors.items():
            assert degraded.router.path(*pair) is path
        mono = Deployment.deploy(150, seed=9).fail_nodes(failed)
        for src, dst in pairs:
            try:
                expected = mono.router.route(src, dst)
            except DeliveryError as error:
                with pytest.raises(DeliveryError) as raised:
                    degraded.router.route(src, dst)
                assert str(raised.value) == str(error)
            else:
                got = degraded.router.route(src, dst)
                assert got.path == expected.path
                assert got.modes == expected.modes

    def test_deployment_shard_helper(self):
        mono = Deployment.deploy(150, seed=9)
        sharded = mono.shard(4)
        assert sharded.topology is mono.topology
        assert sharded.router.plan.shards == 4

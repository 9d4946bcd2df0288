"""Tests for the ShardEngine BSP exchange loop."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError, DeliveryError
from repro.network.topology import deploy_uniform
from repro.routing.gpsr import GPSRRouter
from repro.shard.deployment import ShardedDeployment
from repro.shard.engine import ShardEngine
from repro.shard.plan import ShardPlan
from repro.shard.router import ShardRouter


@pytest.fixture(scope="module")
def topo():
    return deploy_uniform(200, seed=5)


@pytest.fixture(scope="module")
def plan(topo):
    return ShardPlan.grid(topo.field, 4, halo=topo.radio_range)


class TestEngineBasics:
    def test_narrow_halo_is_rejected(self, topo):
        narrow = ShardPlan.grid(topo.field, 4, halo=topo.radio_range / 2)
        with pytest.raises(ConfigurationError, match="halo"):
            ShardEngine(topo, narrow)

    def test_results_in_request_order(self, topo, plan):
        engine = ShardEngine(topo, plan)
        pairs = [(0, 150), (7, 7), (42, 3)]
        done = engine.route_batch(pairs)
        assert [p.pid for p in done] == [0, 1, 2]
        assert done[1].status == "delivered"
        assert done[1].path == [7]

    def test_counters_advance(self, topo, plan):
        engine = ShardEngine(topo, plan)
        engine.route_batch([(0, 150), (3, 120)])
        assert engine.packets_routed == 2
        assert engine.exchange_rounds >= 1
        # With 4 tiles, at least one of these long routes crosses an
        # edge; boundary messages count emigrated packet headers.
        assert engine.boundary_messages >= 1

    def test_unknown_epoch_is_rejected(self, topo, plan):
        engine = ShardEngine(topo, plan)
        with pytest.raises(ConfigurationError, match="epoch"):
            engine.route_batch([(0, 1)], epoch=99)

    def test_derive_epoch_reuses_equal_sets(self, topo, plan):
        engine = ShardEngine(topo, plan)
        first = engine.derive_epoch(frozenset({3, 7}))
        again = engine.derive_epoch(frozenset({7, 3}))
        other = engine.derive_epoch(frozenset({4}))
        assert first == again
        assert other != first
        assert engine.derive_epoch(topo.excluded) == 0


class TestShardRouter:
    def test_route_matches_monolithic(self, topo, plan):
        reference = GPSRRouter(topo)
        router = ShardRouter(ShardEngine(topo, plan))
        for src, dst in [(0, 150), (12, 160), (5, 5)]:
            ours = router.route(src, dst)
            theirs = reference.route(src, dst)
            assert ours.path == theirs.path
            assert ours.delivered == theirs.delivered
            assert ours.perimeter_hops == theirs.perimeter_hops

    def test_validation_matches_monolithic(self, topo, plan):
        router = ShardRouter(ShardEngine(topo, plan))
        with pytest.raises(Exception) as sharded_err:
            router.route(0, topo.size + 5)
        reference = GPSRRouter(topo)
        with pytest.raises(Exception) as mono_err:
            reference.route(0, topo.size + 5)
        assert str(sharded_err.value) == str(mono_err.value)

    def test_prefetch_populates_path_cache(self, topo, plan):
        router = ShardRouter(ShardEngine(topo, plan))
        destinations = [150, 160, 170]
        router.prefetch(0, destinations)
        reference = GPSRRouter(topo)
        for dst in destinations:
            assert router.path(0, dst) == reference.path(0, dst)


class TestShardedDeployment:
    def test_deploy_matches_unsharded_topology(self):
        sharded = ShardedDeployment.deploy(150, shards=4, seed=9)
        from repro.network.deployment import Deployment

        mono = Deployment.deploy(150, seed=9)
        assert (sharded.topology.positions == mono.topology.positions).all()
        assert isinstance(sharded.router, ShardRouter)

    def test_fail_nodes_shares_engine(self):
        sharded = ShardedDeployment.deploy(150, shards=4, seed=9)
        degraded = sharded.fail_nodes([3, 50])
        assert degraded.engine is sharded.engine
        assert degraded.router.epoch != 0
        from repro.network.deployment import Deployment

        mono = Deployment.deploy(150, seed=9).fail_nodes([3, 50])
        for src, dst in [(0, 140), (10, 100)]:
            try:
                expected = mono.router.route(src, dst).path
            except DeliveryError as error:
                with pytest.raises(DeliveryError, match="routing|deliver"):
                    degraded.router.route(src, dst)
                del error
            else:
                assert degraded.router.route(src, dst).path == expected

    def test_deployment_shard_helper(self):
        from repro.network.deployment import Deployment

        mono = Deployment.deploy(150, seed=9)
        sharded = mono.shard(4)
        assert sharded.topology is mono.topology
        assert sharded.plan.shards == 4

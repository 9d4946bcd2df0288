"""Property tests: sharded execution equals the unsharded reference.

The satellite guarantee: on random topologies, GPSR routes and multicast
trees computed under *any* ShardPlan are identical to the monolithic
router for every cross-boundary pair — not statistically close, equal.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import DeliveryError
from repro.network.topology import deploy_uniform
from repro.routing.gpsr import GPSRRouter
from repro.routing.multicast import TreeBuilder
from repro.rng import derive
from repro.shard.engine import ShardEngine
from repro.shard.plan import ShardPlan
from repro.shard.router import ShardRouter


@st.composite
def sharded_topologies(draw):
    """A small random deployment plus a shard plan over its field."""
    n = draw(st.integers(min_value=12, max_value=48))
    seed = draw(st.integers(min_value=0, max_value=5_000))
    degree = draw(st.sampled_from([9.0, 14.0, 20.0]))
    shards = draw(st.sampled_from([2, 3, 4, 6]))
    topology = deploy_uniform(n, target_degree=degree, seed=seed, max_attempts=50)
    plan = ShardPlan.grid(topology.field, shards, halo=topology.radio_range)
    return topology, plan


def _outcome(router, src, dst):
    """Route outcome as comparable data (including failure identity)."""
    try:
        result = router.route(src, dst)
    except DeliveryError as error:
        return ("error", str(error), error.partial_path)
    return (result.delivered, result.path, result.perimeter_hops)


class TestRouteEquivalence:
    @given(sharded_topologies())
    @settings(max_examples=25, deadline=None)
    def test_every_cross_boundary_pair_routes_identically(self, case):
        topology, plan = case
        owner = plan.owner_of_nodes(topology.positions)
        reference = GPSRRouter(topology)
        router = ShardRouter(ShardEngine(topology, plan))
        for src in range(topology.size):
            for dst in range(topology.size):
                if src == dst or owner[src] == owner[dst]:
                    continue
                assert _outcome(router, src, dst) == _outcome(
                    reference, src, dst
                ), f"divergence on cross-boundary pair ({src}, {dst})"


class TestTreeEquivalence:
    @given(sharded_topologies(), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_multicast_trees_identical(self, case, pick):
        topology, plan = case
        rng = derive(pick, "tree-destinations")
        root = int(rng.integers(0, topology.size))
        count = min(topology.size - 1, 8)
        destinations = sorted(
            int(node)
            for node in rng.choice(topology.size, size=count, replace=False)
            if int(node) != root
        )
        reference = TreeBuilder(GPSRRouter(topology), root=root)
        reference.add_destinations(destinations)
        sharded = TreeBuilder(ShardRouter(ShardEngine(topology, plan)), root=root)
        sharded.add_destinations(destinations)
        ours = sharded.build()
        theirs = reference.build()
        assert ours.root == theirs.root
        assert ours.destinations == theirs.destinations
        assert ours.edges == theirs.edges

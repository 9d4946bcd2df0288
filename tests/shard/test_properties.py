"""Property tests: sharded execution equals the unsharded reference.

The sharding guarantee: on random topologies, GPSR routes and multicast
trees computed under *any* ShardPlan are identical to the monolithic
router for every cross-boundary pair — not statistically close, equal.
The draws cover what a tile decides differently from nothing else: both
planarizations, sparse (perimeter-heavy, possibly disconnected) fields,
and routers derived by ``without_nodes``.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import DeliveryError
from repro.network.topology import deploy_uniform
from repro.routing.gpsr import GPSRRouter
from repro.routing.multicast import TreeBuilder
from repro.rng import derive
from repro.shard.plan import ShardPlan
from repro.shard.router import ShardRouter


@st.composite
def sharded_topologies(draw):
    """A small random deployment plus a shard plan over its field.

    Degrees 6–8 are sparse enough that many routes use perimeter mode,
    so connectivity is not required there.
    """
    n = draw(st.integers(min_value=12, max_value=48))
    seed = draw(st.integers(min_value=0, max_value=5_000))
    degree = draw(st.sampled_from([6.0, 7.0, 8.0, 9.0, 14.0, 20.0]))
    shards = draw(st.sampled_from([2, 3, 4, 6]))
    topology = deploy_uniform(
        n,
        target_degree=degree,
        seed=seed,
        require_connected=degree > 8.0,
        max_attempts=50,
    )
    plan = ShardPlan.grid(topology.field, shards, halo=topology.radio_range)
    return topology, plan


def _outcome(router, src, dst):
    """Route outcome as comparable data (including failure identity)."""
    try:
        result = router.route(src, dst)
    except DeliveryError as error:
        return ("error", str(error), error.partial_path)
    return (result.delivered, result.path, result.perimeter_hops, result.modes)


class TestRouteEquivalence:
    @given(
        sharded_topologies(),
        st.sampled_from(["gabriel", "rng"]),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_every_cross_boundary_pair_routes_identically(
        self, case, planarization, pick
    ):
        topology, plan = case
        owner = plan.owner_of_nodes(topology.positions)
        reference = GPSRRouter(topology, planarization=planarization)
        router = ShardRouter(topology, plan, planarization=planarization)
        pairs = [
            (src, dst)
            for src in range(topology.size)
            for dst in range(topology.size)
            if src != dst and owner[src] != owner[dst]
        ]
        for src, dst in pairs:
            outcome = _outcome(router, src, dst)
            assert outcome == _outcome(
                reference, src, dst
            ), f"divergence on cross-boundary pair ({src}, {dst})"
            if outcome[0] is True:
                # Warm both path caches so the derived routers below start
                # from filtered caches, not empty ones.
                router.path(src, dst)
                reference.path(src, dst)
        rng = derive(pick, "failed-nodes")
        failed = {
            int(node)
            for node in rng.choice(
                topology.size, size=min(3, topology.size // 6), replace=False
            )
        }
        reference = reference.without_nodes(failed)
        router = router.without_nodes(failed)
        assert isinstance(router, ShardRouter)
        assert router.cached_paths == reference.cached_paths
        for src, dst in pairs:
            if src in failed or dst in failed:
                continue
            assert _outcome(router, src, dst) == _outcome(
                reference, src, dst
            ), f"divergence on ({src}, {dst}) after failing {sorted(failed)}"


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

        def tree(router):
            builder = TreeBuilder(router, root=root)
            try:
                builder.add_destinations(destinations)
            except DeliveryError as error:
                # Sparse draws may be disconnected: fail identically.
                return ("error", str(error), error.partial_path)
            built = builder.build()
            return (built.destinations, built.edges, built.depths)

        assert tree(ShardRouter(topology, plan)) == tree(GPSRRouter(topology))

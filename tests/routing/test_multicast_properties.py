"""Property-based tests for the multicast tree builder."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import DeliveryError
from repro.network.topology import deploy_uniform
from repro.routing.gpsr import GPSRRouter
from repro.routing.multicast import TreeBuilder

_topology = None
_router = None


def _env():
    global _topology, _router
    if _topology is None:
        _topology = deploy_uniform(200, seed=17)
        _router = GPSRRouter(_topology)
    return _topology, _router


destination_sets = st.lists(
    st.integers(min_value=0, max_value=199), min_size=1, max_size=25
)
roots = st.integers(min_value=0, max_value=199)


class TestTreeInvariants:
    @given(roots, destination_sets)
    @settings(max_examples=80, deadline=None)
    def test_is_a_tree(self, root, destinations):
        _, router = _env()
        builder = TreeBuilder(router, root)
        builder.add_destinations(destinations)
        tree = builder.build()
        parents: dict[int, int] = {}
        for parent, child in tree.edges:
            assert child not in parents, "two parents for one node"
            parents[child] = parent
        assert root not in parents
        assert len(tree.edges) == len(tree.nodes()) - 1

    @given(roots, destination_sets)
    @settings(max_examples=80, deadline=None)
    def test_destinations_reachable(self, root, destinations):
        _, router = _env()
        builder = TreeBuilder(router, root)
        builder.add_destinations(destinations)
        tree = builder.build()
        children = tree.children()
        reachable = {root}
        frontier = [root]
        while frontier:
            node = frontier.pop()
            for child in children.get(node, ()):
                reachable.add(child)
                frontier.append(child)
        assert set(destinations) <= reachable

    @given(roots, destination_sets)
    @settings(max_examples=60, deadline=None)
    def test_edges_are_radio_links(self, root, destinations):
        topology, router = _env()
        builder = TreeBuilder(router, root)
        builder.add_destinations(destinations)
        for parent, child in builder.build().edges:
            assert child in topology.neighbors(parent)

    @given(roots, destination_sets)
    @settings(max_examples=60, deadline=None)
    def test_cost_bounds(self, root, destinations):
        _, router = _env()
        builder = TreeBuilder(router, root)
        builder.add_destinations(destinations)
        tree = builder.build()
        unique = set(destinations) - {root}
        if not unique:
            assert tree.forward_cost == 0
            return
        per_dest = {d: router.hops(root, d) for d in unique}
        assert tree.forward_cost <= sum(per_dest.values())
        assert tree.forward_cost >= max(per_dest.values())
        assert tree.height() >= max(
            tree.depth_of(d) for d in unique
        ) if unique else True

    @given(roots, destination_sets)
    @settings(max_examples=60, deadline=None)
    def test_insertion_order_invariance_of_reachability(self, root, destinations):
        """Different add orders may yield different trees, but every
        order must produce a valid tree covering the same destinations."""
        _, router = _env()
        for ordering in (destinations, list(reversed(destinations))):
            builder = TreeBuilder(router, root)
            builder.add_destinations(ordering)
            tree = builder.build()
            assert set(tree.destinations) == set(ordering)

    @given(roots, destination_sets)
    @settings(max_examples=40, deadline=None)
    def test_height_bounds(self, root, destinations):
        """Height is bounded by the summed unicast path lengths.

        Max-unicast-hops is deliberately NOT asserted: grafting splices a
        new path at the deepest node already in the tree, which minimises
        added edges (the paper's message-count metric) but may route a
        destination through another destination's path and give it a
        *longer* tree depth than its direct unicast route.
        """
        _, router = _env()
        builder = TreeBuilder(router, root)
        builder.add_destinations(destinations)
        tree = builder.build()
        unique = set(destinations) - {root}
        assert tree.height() <= sum(router.hops(root, d) for d in unique)

    @given(roots, st.integers(min_value=0, max_value=199))
    @settings(max_examples=40, deadline=None)
    def test_single_destination_is_the_unicast_path(self, root, destination):
        """With one destination the tree IS the unicast path."""
        _, router = _env()
        builder = TreeBuilder(router, root)
        builder.add_destination(destination)
        tree = builder.build()
        hops = router.hops(root, destination) if destination != root else 0
        assert tree.height() == hops
        assert tree.forward_cost == hops


class _ForwardScanBuilder:
    """The forward-scan tree builder, frozen as an oracle.

    It walks each path from the root, remembers the last hop already in
    the tree as the splice point, and keeps the edge set it grafts.
    """

    def __init__(self, router: GPSRRouter, root: int) -> None:
        self.router = router
        self.root = root
        self.edges: set[tuple[int, int]] = set()
        self.destinations: list[int] = []
        self.parents: dict[int, int] = {}
        self.depths: dict[int, int] = {root: 0}

    def add_destination(self, node: int) -> None:
        depths = self.depths
        if node in depths:
            if node not in self.destinations:
                self.destinations.append(node)
            return
        path = self.router.path(self.root, node)
        splice_index = 0
        for index, hop in enumerate(path):
            if hop in depths:
                splice_index = index
        for parent, child in zip(path[splice_index:], path[splice_index + 1 :]):
            if child in depths:
                continue
            self.edges.add((parent, child))
            self.parents[child] = parent
            depths[child] = depths[parent] + 1
        self.destinations.append(node)


class TestBackwardSplice:
    @given(
        st.integers(min_value=20, max_value=90),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=5, max_value=8),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_equals_forward_scan(self, n, seed, degree, data):
        # Sparse fields route many paths through perimeter mode, where a
        # path leaves the tree and re-enters it.  Destinations repeat,
        # include the root, and include relays already in the tree.
        topology = deploy_uniform(
            n, seed=seed, target_degree=degree, require_connected=False
        )
        router = GPSRRouter(topology)
        root = data.draw(st.integers(min_value=0, max_value=n - 1))
        oracle = _ForwardScanBuilder(router, root)
        nodes: list[int] = []
        for _ in range(data.draw(st.integers(min_value=1, max_value=30))):
            choices = [
                st.integers(min_value=0, max_value=n - 1),
                st.just(root),
                st.sampled_from(sorted(oracle.depths)),
            ]
            if nodes:
                choices.append(st.sampled_from(nodes))
            node = data.draw(st.one_of(choices))
            try:
                router.path(root, node)
            except DeliveryError:
                continue
            oracle.add_destination(node)
            nodes.append(node)
        builder = TreeBuilder(router, root)
        builder.add_destinations(nodes)
        tree = builder.build()
        assert tree.parents == oracle.parents
        assert tree.depths == oracle.depths
        assert tree.destinations == tuple(oracle.destinations)
        assert tree.edges == frozenset(oracle.edges)
        assert tree.forward_cost == len(oracle.edges)
        assert tree.height() == max(oracle.depths.values())

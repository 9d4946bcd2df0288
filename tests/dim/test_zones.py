"""Tests for DIM's zone tree: partition validity, lookups, decomposition."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dim.index import DimIndex
from repro.dim.zones import Zone, ZoneTree
from repro.events.queries import RangeQuery
from repro.exceptions import ConfigurationError, DeliveryError, DimensionMismatchError
from repro.network.network import Network
from repro.network.topology import deploy_uniform

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)

#: Multiples of 1/64: every split midpoint of the first six levels per
#: axis (0.5, 0.25, 0.375, 0.5625, ...), and the unit interval's ends.
_DYADIC = [i / 64 for i in range(65)]


def _stack_descent(tree: ZoneTree, query: RangeQuery) -> list[Zone]:
    """The value-space descent ``zones_for_query`` used to run, frozen.

    A child's box differs from its parent's only on the split axis
    ``depth mod k``, so each child is tested on that axis alone.
    """
    if not tree.root.overlaps(query):
        return []
    bounds = query.bounds
    result: list[Zone] = []
    stack = [tree.root]
    while stack:
        zone = stack.pop()
        if zone.is_leaf:
            result.append(zone)
            continue
        assert zone.low is not None and zone.high is not None
        dim = zone.depth % tree.dimensions
        q_lo, q_hi = bounds[dim]
        for child in (zone.high, zone.low):
            lo, hi = child.value_box[dim]
            if not (hi < q_lo or q_hi < lo):
                stack.append(child)
    result.sort(key=lambda z: z.code)
    return result


@pytest.fixture(scope="module")
def tree():
    return ZoneTree(deploy_uniform(120, seed=3), dimensions=3)


class TestConstruction:
    def test_every_node_in_some_leaf(self, tree):
        residents = [n for leaf in tree.leaves for n in leaf.residents]
        assert sorted(residents) == list(range(tree.topology.size))

    def test_leaves_have_at_most_one_resident(self, tree):
        assert all(len(leaf.residents) <= 1 for leaf in tree.leaves)

    def test_owner_assigned_everywhere(self, tree):
        assert all(0 <= leaf.owner < tree.topology.size for leaf in tree.leaves)

    def test_resident_owns_own_zone(self, tree):
        for leaf in tree.leaves:
            if leaf.residents:
                assert leaf.owner == leaf.residents[0]

    def test_zone_count_scales_with_network(self):
        small = ZoneTree(deploy_uniform(50, seed=1), 3)
        large = ZoneTree(deploy_uniform(400, seed=1), 3)
        assert len(large) > len(small)

    def test_codes_are_prefix_free(self, tree):
        codes = [leaf.code for leaf in tree.leaves]
        codes.sort()
        for a, b in zip(codes, codes[1:]):
            assert not b.startswith(a), f"{a} is a prefix of {b}"

    def test_geo_split_alternates_axes(self, tree):
        root = tree.root
        assert root.low is not None
        # Depth 0 splits x: children share the y extent.
        assert root.low.geo.y_min == root.geo.y_min
        assert root.low.geo.y_max == root.geo.y_max
        assert root.low.geo.x_max == pytest.approx(
            (root.geo.x_min + root.geo.x_max) / 2
        )

    def test_rejects_bad_parameters(self):
        topo = deploy_uniform(20, seed=1, target_degree=8)
        with pytest.raises(ConfigurationError):
            ZoneTree(topo, dimensions=0)
        with pytest.raises(ConfigurationError):
            ZoneTree(topo, dimensions=3, max_depth=0)

    def test_max_depth_guard(self):
        # Coincident nodes cannot be separated: the guard must terminate.
        from repro.network.topology import Topology

        topo = Topology([(5.0, 5.0), (5.0, 5.0), (50.0, 50.0)], radio_range=100)
        tree = ZoneTree(topo, 2, max_depth=6)
        assert all(leaf.depth <= 6 for leaf in tree.leaves)


class TestValuePartition:
    @given(st.tuples(unit, unit, unit))
    @settings(max_examples=60)
    def test_every_value_vector_has_exactly_one_leaf(self, values):
        tree = _shared_tree()
        containing = [
            leaf for leaf in tree.leaves if leaf.contains_values(values)
        ]
        assert len(containing) == 1
        assert tree.leaf_for_values(values) is containing[0]

    def test_value_boxes_tile_unit_cube(self, tree):
        total = sum(
            (hi - lo) * (hi2 - lo2) * (hi3 - lo3)
            for ((lo, hi), (lo2, hi2), (lo3, hi3)) in (
                leaf.value_box for leaf in tree.leaves
            )
        )
        assert total == pytest.approx(1.0)

    def test_dimension_mismatch(self, tree):
        with pytest.raises(DimensionMismatchError):
            tree.leaf_for_values((0.5, 0.5))

    def test_leaf_by_code(self, tree):
        for leaf in tree.leaves[:10]:
            assert tree.leaf_by_code(leaf.code) is leaf

    def test_leaf_by_code_longer_than_tree(self, tree):
        leaf = tree.leaves[0]
        assert tree.leaf_by_code(leaf.code + "0101") is leaf


class TestQueryDecomposition:
    def test_full_cube_query_returns_all_leaves(self, tree):
        q = RangeQuery.partial(3, {})
        assert len(tree.zones_for_query(q)) == len(tree)

    def test_zones_cover_matching_leaf(self, tree):
        q = RangeQuery.of((0.2, 0.3), (0.25, 0.35), (0.21, 0.24))
        zones = {z.code for z in tree.zones_for_query(q)}
        # Any value inside the query must map to a returned zone.
        for values in [(0.2, 0.25, 0.21), (0.3, 0.35, 0.24), (0.25, 0.3, 0.22)]:
            assert tree.leaf_for_values(values).code in zones

    def test_disjoint_zones_pruned(self, tree):
        q = RangeQuery.of((0.0, 0.1), (0.0, 0.1), (0.0, 0.1))
        zones = tree.zones_for_query(q)
        assert len(zones) < len(tree)
        for zone in zones:
            assert zone.overlaps(q)

    def test_owners_deduplicated_and_sorted(self, tree):
        q = RangeQuery.partial(3, {0: (0.4, 0.6)})
        owners = tree.owners_for_query(q)
        assert owners == sorted(set(owners))

    def test_narrower_query_fewer_zones(self, tree):
        narrow = RangeQuery.of((0.4, 0.45), (0.4, 0.45), (0.4, 0.45))
        wide = RangeQuery.of((0.1, 0.9), (0.1, 0.9), (0.1, 0.9))
        assert len(tree.zones_for_query(narrow)) <= len(
            tree.zones_for_query(wide)
        )

    def test_dimension_mismatch(self, tree):
        with pytest.raises(DimensionMismatchError):
            tree.zones_for_query(RangeQuery.of((0.0, 1.0)))

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=2, max_value=60),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=5),
        st.data(),
    )
    def test_descent_equals_leaf_scan(self, n, seed, dimensions, data):
        # The leaf-box mask must select what both oracles select: a
        # whole-box test of every leaf, and the single-axis descent it
        # replaced.  Dyadic bounds land on split midpoints, where the
        # closed comparisons decide.
        topology = deploy_uniform(
            n, seed=seed, target_degree=8, require_connected=False
        )
        tree = ZoneTree(topology, dimensions)
        value = st.one_of(st.sampled_from(_DYADIC), unit)
        bounds = []
        for _ in range(dimensions):
            lo = data.draw(value)
            hi = lo if data.draw(st.booleans()) else data.draw(value)
            bounds.append(tuple(sorted((lo, hi))))
        query = RangeQuery(tuple(bounds))
        zones = tree.zones_for_query(query)
        expected = sorted(
            (z for z in tree.leaves if z.overlaps(query)), key=lambda z: z.code
        )
        assert zones == expected
        assert zones == _stack_descent(tree, query)
        try:
            plan = DimIndex(Network(topology), dimensions).plan_query(0, query)
        except DeliveryError:
            # A plan grafts its tree from the sink, so it fails only
            # when an owner is cut off from the sink.
            assert not topology.is_connected()
            return
        assert plan.destinations == tuple(sorted({z.owner for z in zones}))
        assert plan.cells == tuple(z.code for z in zones)

    def test_point_query_on_split_midpoints(self, tree):
        # A point on a split plane touches the leaves on both sides.
        for values in ((0.5, 0.5, 0.5), (0.25, 0.75, 0.125), (0.0, 1.0, 0.5625)):
            query = RangeQuery.point(*values)
            zones = tree.zones_for_query(query)
            assert zones == _stack_descent(tree, query)
            assert tree.leaf_for_values(values) in zones

    def test_iter_zones_contains_leaves(self, tree):
        all_zones = list(tree.iter_zones())
        leaf_codes = {leaf.code for leaf in tree.leaves}
        assert leaf_codes <= {z.code for z in all_zones}


_cached_tree = None


def _shared_tree() -> ZoneTree:
    """Module-level cache usable inside hypothesis bodies."""
    global _cached_tree
    if _cached_tree is None:
        _cached_tree = ZoneTree(deploy_uniform(120, seed=3), dimensions=3)
    return _cached_tree

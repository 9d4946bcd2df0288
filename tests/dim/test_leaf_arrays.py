"""DIM on flat per-leaf arrays equals the zone-by-zone reference.

``DimIndex.plan_query`` selects leaves with one mask over the tree's
per-axis bound rows, and its fold reads one row array per leaf index.
These tests rebuild each from the zone objects, one zone at a time, as
the code did before: the plan field for field (k = 1..5, point queries
on split midpoints, a box no leaf overlaps), the lossless and lossy
folds, ``events_in_zone`` and ``storage_distribution``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dim.index import DimIndex
from repro.events.event import Event
from repro.events.generators import generate_events
from repro.events.queries import RangeQuery
from repro.exceptions import DeliveryError
from repro.exec import Execution
from repro.network.network import Network
from repro.network.topology import deploy_uniform

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
#: Split midpoints of the first six levels per axis, and 0 and 1.
_DYADIC = [i / 64 for i in range(65)]


def _reference_plan(dim: DimIndex, sink: int, query: RangeQuery):
    zones = sorted(
        (zone for zone in dim.tree.leaves if zone.overlaps(query)),
        key=lambda zone: zone.code,
    )
    owners = tuple(sorted({zone.owner for zone in zones}))
    return (
        "dim",
        sink,
        query,
        tuple(zone.code for zone in zones),
        owners,
        ("dim", sink, owners),
        tuple(zones),
    )


def _plan_fields(plan):
    return (
        plan.system,
        plan.sink,
        plan.query,
        plan.cells,
        plan.destinations,
        plan.share_key,
        plan.detail.resolved,
    )


def _assert_plan_matches(dim: DimIndex, sink: int, query: RangeQuery) -> None:
    plan = dim.plan_query(sink, query)
    assert _plan_fields(plan) == _reference_plan(dim, sink, query)
    reference = _reference_plan(dim, sink, query)[6]
    assert all(a is b for a, b in zip(plan.detail.resolved, reference))
    node_ids = dim.tree.topology.node_ids
    assert all(owner is node_ids[owner] for owner in plan.destinations)
    assert dim.tree.zones_for_query(query) == list(plan.detail.resolved)
    assert dim.tree.owners_for_query(query) == list(plan.destinations)


def _reference_fold(dim: DimIndex, plan, answered):
    events = []
    unreachable_codes = []
    unreachable_owners = set()
    for zone in plan.detail.resolved:
        if zone.owner in answered:
            events.extend(e for e in dim.events_in_zone(zone.code) if plan.query.matches(e))
        else:
            unreachable_codes.append(zone.code)
            unreachable_owners.add(zone.owner)
    return events, tuple(unreachable_codes), tuple(sorted(unreachable_owners))


@st.composite
def _queries(draw, dimensions: int):
    value = st.one_of(st.sampled_from(_DYADIC), unit)
    bounds = []
    for _ in range(dimensions):
        kind = draw(st.sampled_from(["range", "point", "full"]))
        if kind == "full":
            bounds.append((0.0, 1.0))
            continue
        lo = draw(value)
        hi = lo if kind == "point" else draw(value)
        bounds.append(tuple(sorted((lo, hi))))
    return RangeQuery(tuple(bounds))


class TestPlan:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=2, max_value=80),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=5),
        st.data(),
    )
    def test_plan_equals_zone_scan(self, n, seed, dimensions, data):
        topology = deploy_uniform(n, seed=seed, target_degree=8, require_connected=False)
        dim = DimIndex(Network(topology), dimensions)
        sink = data.draw(st.integers(min_value=0, max_value=n - 1))
        query = data.draw(_queries(dimensions))
        try:
            _assert_plan_matches(dim, sink, query)
        except DeliveryError:
            # A plan grafts its tree from the sink, so it fails only
            # when an owner is cut off from the sink.
            assert not topology.is_connected()

    @pytest.mark.parametrize("dimensions", [1, 2, 3, 4, 5])
    def test_point_queries_on_split_midpoints(self, dimensions):
        # Past 256 nodes, so owner ids are not CPython's cached small ints.
        dim = DimIndex(Network(deploy_uniform(400, seed=6)), dimensions)
        for value in (0.0, 0.25, 0.5, 0.5625, 1.0):
            _assert_plan_matches(dim, 3, RangeQuery.point(*[value] * dimensions))

    def test_box_no_leaf_overlaps_plans_nothing(self):
        # Leaves tile the closed unit cube, so a valid query always
        # selects one; an inverted box, built past validation, selects
        # none.
        dim = DimIndex(Network(deploy_uniform(80, seed=2)), 2)
        query = RangeQuery.of((0.0, 1.0), (0.0, 1.0))
        object.__setattr__(query, "bounds", ((0.0, 1.0), (0.7, 0.3)))
        plan = dim.plan_query(0, query)
        assert _plan_fields(plan) == _reference_plan(dim, 0, query)
        assert plan.cells == plan.destinations == plan.detail.resolved == ()

    def test_single_leaf_plan(self):
        dim = DimIndex(Network(deploy_uniform(2, seed=1, require_connected=False)), 1)
        query = RangeQuery.of((0.1, 0.2))
        plan = dim.plan_query(0, query)
        assert len(plan.detail.resolved) == 1
        assert _plan_fields(plan) == _reference_plan(dim, 0, query)


@pytest.fixture(scope="module")
def loaded():
    network = Network(deploy_uniform(250, seed=9))
    dim = DimIndex(network, 3)
    for event in generate_events(900, 3, seed=12, sources=list(network.topology)):
        dim.insert(event)
    return dim


class TestFold:
    @settings(max_examples=40, deadline=None)
    @given(_queries(3), st.data())
    def test_lossless_and_lossy_folds(self, loaded, query, data):
        dim = loaded
        plan = dim.plan_query(0, query)
        owners = list(plan.destinations)
        answered = frozenset(
            data.draw(st.sets(st.sampled_from(owners))) if data.draw(st.booleans()) else owners
        )
        result = dim.fold_replies(plan, Execution(answered=answered))
        events, codes, nodes = _reference_fold(dim, plan, answered)
        assert result.events == events
        assert getattr(result, "unreachable_cells", ()) == codes
        assert getattr(result, "unreachable_nodes", ()) == nodes

    def test_events_in_zone_only_for_leaf_codes(self, loaded):
        dim = loaded
        leaf = max(dim.tree.leaves, key=lambda zone: len(dim.events_in_zone(zone.code)))
        assert dim.events_in_zone(leaf.code)
        for code in ("", leaf.code[:-1], leaf.code + "0", leaf.code + "1", "unknown"):
            assert dim.events_in_zone(code) == ()

    def test_storage_distribution_is_per_owner(self, loaded):
        dim = loaded
        expected: dict[int, int] = {}
        for leaf in dim.tree.leaves:
            count = len(dim.events_in_zone(leaf.code))
            if count:
                expected[leaf.owner] = expected.get(leaf.owner, 0) + count
        assert dim.storage_distribution() == expected
        assert sum(expected.values()) == dim.stored_events

    def test_insert_lands_in_its_leaf_rows(self):
        dim = DimIndex(Network(deploy_uniform(60, seed=3)), 2)
        event = Event.of(0.3, 0.8, source=1)
        dim.insert(event)
        leaf = dim.tree.leaf_for_values(event.values)
        assert dim.events_in_zone(leaf.code) == (event,)

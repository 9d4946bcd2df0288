"""``PoolSystem.plan_query`` equals the cell-by-cell planner it replaced.

The oracle below is the planner as it was before resolving moved onto the
cached Equation 1 tables: Algorithm 2 by scanning every cell, a
``Pool.cell_at`` per relevant cell and a ``segments_overlapping`` list per
stored cell, with each leg's tree grafted one destination at a time from
its splitter (``TreeBuilder.add_destination``, one GPSR path per call).
Every field of every plan must match it, trees included, and so must the
retry plan ``plan_retry`` builds from each (its ``cell_holders`` come from
the plan), in worlds drawn with split segments, a handed-off cell, failed
nodes (with and without replication), empty cells and queries whose
bounds sit on cell edges or on the closed top, 1.0.

DIM's and DIFS's plans (and DIM's retry plans) carry one tree from the
sink, which must equal the same one-path-at-a-time graft to their
destinations.
"""

from __future__ import annotations

from dataclasses import fields

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.replication import ReplicationPolicy
from repro.core.resolve import query_ranges_for_pool
from repro.core.sharing import SharingPolicy
from repro.core.system import PoolLegPlan, PoolSystem
from repro.dcs import PartialResult
from repro.difs.index import DifsIndex
from repro.dim.index import DimIndex
from repro.events.event import Event
from repro.events.queries import RangeQuery
from repro.exec import QueryPlan
from repro.network.network import Network
from repro.network.topology import deploy_uniform
from repro.routing.multicast import MulticastTree, TreeBuilder

from tests.core.test_resolve import scalar_relevant_offsets

SIDES = (1, 2, 5, 10, 13)


@pytest.fixture(scope="module")
def topo():
    return deploy_uniform(200, seed=4)


def oracle_plan(system: PoolSystem, sink: int, query: RangeQuery) -> QueryPlan:
    """The cell-scan ``plan_query``, frozen."""
    legs: list[PoolLegPlan] = []
    for pool in system.pools:
        offsets = scalar_relevant_offsets(query, pool.index, system.side_length)
        if not offsets:
            continue
        derived = query_ranges_for_pool(query, pool.index)
        cells = []
        destinations: dict[int, None] = {}
        cell_holders = []
        for ho, vo in offsets:
            cell = pool.cell_at(ho, vo)
            cells.append(cell)
            store = system._stores.get((pool.index, ho, vo))
            if store is None:
                node = system.index_node(cell)
                destinations[node] = None
                cell_holders.append((cell, frozenset((node,))))
                continue
            holders: set[int] = set()
            for segment in store.segments_overlapping(derived.vertical):
                destinations[segment.node] = None
                holders.add(segment.node)
            cell_holders.append((cell, frozenset(holders)))
        splitter = (
            system.splitter(sink, pool.index) if system.route_via_splitter else sink
        )
        legs.append(
            PoolLegPlan(
                pool=pool.index,
                splitter=splitter,
                offsets=tuple(offsets),
                cells=tuple(cells),
                vertical=derived.vertical,
                destinations=tuple(destinations),
                cell_holders=tuple(cell_holders),
                tree=oracle_tree(system, splitter, destinations),
            )
        )
    return _assemble(system, "pool", sink, query, tuple(legs))


def oracle_tree(system, root: int, destinations) -> MulticastTree:
    """The tree from ``root`` to ``destinations``, grafted one path at a time."""
    builder = TreeBuilder(system.network.router, root)
    for node in destinations:
        builder.add_destination(node)
    return builder.build()


def oracle_retry(system: PoolSystem, plan: QueryPlan, result) -> QueryPlan | None:
    """``plan_retry`` as a per-cell filter of ``plan``, trees grafted afresh."""
    missing = set(result.unreachable_cells)
    legs = []
    for leg in plan.detail:
        keep = [i for i, cell in enumerate(leg.cells) if cell in missing]
        if not keep:
            continue
        destinations: dict[int, None] = {}
        for i in keep:
            for node in sorted(leg.cell_holders[i][1]):
                destinations[node] = None
        legs.append(
            PoolLegPlan(
                pool=leg.pool,
                splitter=leg.splitter,
                offsets=tuple(leg.offsets[i] for i in keep),
                cells=tuple(leg.cells[i] for i in keep),
                vertical=leg.vertical,
                destinations=tuple(destinations),
                cell_holders=tuple(leg.cell_holders[i] for i in keep),
                tree=oracle_tree(system, leg.splitter, destinations),
            )
        )
    if not legs:
        return None
    return _assemble(system, "pool-retry", plan.sink, plan.query, tuple(legs))


def _assemble(system, tag, sink, query, legs) -> QueryPlan:
    return QueryPlan(
        system="pool",
        sink=sink,
        query=query,
        cells=tuple((leg.pool, ho, vo) for leg in legs for ho, vo in leg.offsets),
        destinations=tuple(
            dict.fromkeys(node for leg in legs for node in leg.destinations)
        ),
        share_key=(
            tag,
            sink,
            system.route_via_splitter,
            tuple((leg.pool, leg.splitter, leg.destinations) for leg in legs),
        ),
        detail=legs,
    )


def assert_same_plan(got: QueryPlan | None, want: QueryPlan | None) -> None:
    if want is None:
        assert got is None
        return
    for name in ("system", "sink", "query", "cells", "destinations", "share_key"):
        assert getattr(got, name) == getattr(want, name), name
    assert len(got.detail) == len(want.detail)
    for got_leg, want_leg in zip(got.detail, want.detail):
        for f in fields(PoolLegPlan):
            assert getattr(got_leg, f.name) == getattr(want_leg, f.name), f.name
        assert_same_tree(got_leg.tree, want_leg.tree)


def assert_same_tree(got: MulticastTree, want: MulticastTree) -> None:
    """Equal trees, down to the order their nodes were grafted in."""
    assert (got.root, got.destinations) == (want.root, want.destinations)
    assert list(got.parents.items()) == list(want.parents.items())
    assert list(got.depths.items()) == list(want.depths.items())


def edges(side: int) -> list[float]:
    """Every Equation 1 bound of a side-``side`` Pool."""
    return sorted(
        {ho / side for ho in range(side + 1)}
        | {vo * (ho + 1) / side**2 for ho in range(side) for vo in range(side + 1)}
    )


@st.composite
def worlds(draw):
    k = draw(st.integers(min_value=1, max_value=4))
    side = draw(st.sampled_from(SIDES))
    value = st.one_of(
        st.sampled_from(edges(side)), st.floats(min_value=0.0, max_value=1.0)
    )
    # Events in a narrow hot band pile into a few cells, so sharing splits.
    hot = draw(st.floats(min_value=0.0, max_value=0.95))
    hot_value = st.floats(min_value=hot, max_value=hot + 0.05)
    count = draw(st.integers(min_value=0, max_value=120))
    events = draw(
        st.lists(
            st.one_of(st.tuples(*[value] * k), st.tuples(*[hot_value] * k)),
            min_size=count,
            max_size=count,
        )
    )
    bounds = []
    for _ in range(k):
        lo, hi = sorted((draw(value), draw(value)))
        shape = draw(st.sampled_from(("range", "point", "open", "top")))
        if shape == "point":
            hi = lo
        elif shape == "open":
            lo, hi = 0.0, 1.0
        elif shape == "top":
            # A lower bound of 1.0 meets only the closed top cells.
            lo = hi = 1.0
        bounds.append((lo, hi))
    return {
        "k": k,
        "side": side,
        "events": events,
        "query": RangeQuery(tuple(bounds)),
        "sharing": draw(
            st.one_of(
                st.just(SharingPolicy()),
                st.builds(
                    SharingPolicy,
                    enabled=st.just(True),
                    capacity=st.integers(min_value=2, max_value=4),
                ),
            )
        ),
        "replicas": draw(st.integers(min_value=0, max_value=1)),
        "route_via_splitter": draw(st.booleans()),
        "seed": draw(st.integers(min_value=0, max_value=2**16)),
        "handoff": draw(st.booleans()),
        "failures": draw(st.integers(min_value=0, max_value=6)),
        "sink": draw(st.integers(min_value=0, max_value=199)),
    }


def build(topo, world) -> PoolSystem:
    system = PoolSystem(
        Network(topo),
        world["k"],
        side_length=world["side"],
        cell_size=3.0,
        seed=world["seed"],
        sharing=world["sharing"],
        replication=ReplicationPolicy(replicas=world["replicas"]),
        route_via_splitter=world["route_via_splitter"],
    )
    sources = list(topo)
    for i, values in enumerate(world["events"]):
        system.insert(Event(values, source=sources[i % len(sources)], seq=i))
    if world["handoff"] and system._stores:
        key = max(system._stores, key=lambda kv: system._stores[kv].total_events())
        system.handoff_cell(*key)
    if world["failures"]:
        holders = sorted(
            {s.node for store in system._stores.values() for s in store.segments}
            - {world["sink"]}
        )
        victims = holders[: world["failures"]]
        if victims:
            system.handle_failures(victims)
    return system


class TestPlanIdentity:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(worlds())
    def test_plan_and_retry_match_cell_scan(self, topo, world):
        system = build(topo, world)
        sink = world["sink"]
        if not system.network.topology.is_alive(sink):
            sink = next(iter(system.network.topology))
        query = world["query"]
        plan = system.plan_query(sink, query)
        want = oracle_plan(system, sink, query)
        assert_same_plan(plan, want)
        # Retry every other relevant cell, as a partial result names them.
        result = PartialResult(
            events=[],
            forward_cost=0,
            reply_cost=0,
            unreachable_cells=tuple(
                cell for leg in plan.detail for cell in leg.cells[::2]
            ),
            attempted_cells=len(plan.cells),
        )
        assert_same_plan(
            system.plan_retry(plan, result), oracle_retry(system, want, result)
        )

    def test_worlds_reach_split_segments(self, topo):
        """The sharing worlds really hold cells with several segments."""
        world = {
            "k": 2,
            "side": 5,
            "events": [(0.9, 0.3)] * 10 + [(0.95, 0.35)] * 10,
            "query": RangeQuery.of((0.0, 1.0), (0.0, 1.0)),
            "sharing": SharingPolicy(enabled=True, capacity=2),
            "replicas": 0,
            "route_via_splitter": True,
            "seed": 1,
            "handoff": True,
            "failures": 0,
            "sink": 0,
        }
        system = build(topo, world)
        assert any(len(s.segments) > 1 for s in system._stores.values())
        assert_same_plan(
            system.plan_query(0, world["query"]),
            oracle_plan(system, 0, world["query"]),
        )


class TestSinkTreePlans:
    @pytest.mark.parametrize("kind", [DimIndex, DifsIndex])
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(st.integers(min_value=0, max_value=199), st.data())
    def test_tree_is_the_graft_from_the_sink(self, topo, kind, sink, data):
        system = kind(Network(topo), 3)
        bounds = []
        for _ in range(3):
            lo, hi = sorted(data.draw(st.tuples(*[st.floats(0.0, 1.0)] * 2)))
            bounds.append((lo, hi))
        plan = system.plan_query(sink, RangeQuery(tuple(bounds)))
        assert_same_tree(plan.detail.tree, oracle_tree(system, sink, plan.destinations))
        if kind is DimIndex:
            result = PartialResult(
                events=[],
                forward_cost=0,
                reply_cost=0,
                unreachable_cells=plan.cells[::2],
                attempted_cells=len(plan.cells),
            )
            retry = system.plan_retry(plan, result)
            assert retry is not None
            assert_same_tree(
                retry.detail.tree, oracle_tree(system, sink, retry.destinations)
            )

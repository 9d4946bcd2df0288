"""Tests for the shared DCS protocol types."""

from __future__ import annotations

import pytest

from repro.aggregates import AggregateKind, AggregateState
from repro.baselines.external import ExternalStorage
from repro.baselines.flooding import LocalStorageFlooding
from repro.core.system import PoolSystem
from repro.dcs import (
    AggregateResult,
    DataCentricStore,
    InsertReceipt,
    QueryResult,
)
from repro.dim.index import DimIndex
from repro.events.event import Event
from repro.events.queries import RangeQuery
from repro.ght.ght import GeographicHashTable
from repro.network.messages import MessageCategory
from repro.network.network import Network
from repro.routing.multicast import graft


class TestQueryResult:
    def test_total_cost(self):
        result = QueryResult(events=[], forward_cost=7, reply_cost=5)
        assert result.total_cost == 12
        assert result.match_count == 0

    def test_match_count(self):
        result = QueryResult(
            events=[Event.of(0.1), Event.of(0.2)], forward_cost=0, reply_cost=0
        )
        assert result.match_count == 2

    def test_latency_from_depth(self):
        result = QueryResult(
            events=[], forward_cost=0, reply_cost=0, depth_hops=6
        )
        assert result.latency(hop_latency=0.01) == pytest.approx(0.12)
        assert result.latency(0.0) == 0.0


class TestAggregateResult:
    def test_value_and_count(self):
        state = AggregateState.of_events([Event.of(0.2), Event.of(0.4)], 0)
        result = AggregateResult(
            kind=AggregateKind.AVG,
            dimension=0,
            state=state,
            forward_cost=3,
            reply_cost=3,
        )
        assert result.value == pytest.approx(0.3)
        assert result.count == 2
        assert result.total_cost == 6


class TestProtocolConformance:
    """Every shipped storage system satisfies the structural protocol."""

    @pytest.fixture
    def systems(self, topo300):
        return [
            PoolSystem(Network(topo300), 3, seed=1),
            DimIndex(Network(topo300), 3),
            LocalStorageFlooding(Network(topo300), 3),
            ExternalStorage(Network(topo300), 3),
        ]

    def test_isinstance_protocol(self, systems):
        for system in systems:
            assert isinstance(system, DataCentricStore), type(system)

    def test_insert_then_query_shape(self, systems):
        event = Event.of(0.3, 0.6, 0.1, source=5)
        query = RangeQuery.of((0.25, 0.35), (0.55, 0.65), (0.05, 0.15))
        for system in systems:
            receipt = system.insert(event)
            assert isinstance(receipt, InsertReceipt)
            assert receipt.hops >= 0
            result = system.query(0, query)
            assert isinstance(result, QueryResult)
            assert result.match_count == 1
            assert result.total_cost >= 0

    def test_ght_is_not_a_range_store(self, topo300):
        # GHT deliberately lacks query(): it cannot express ranges.
        ght = GeographicHashTable(Network(topo300))
        assert not isinstance(ght, DataCentricStore)


class TestDepthHops:
    def test_depth_bounded_by_forward_cost(self, topo300):
        from repro.events.generators import generate_events

        pool = PoolSystem(Network(topo300), 3, seed=1)
        for event in generate_events(300, 3, seed=2, sources=list(topo300)):
            pool.insert(event)
        result = pool.query(0, RangeQuery.partial(3, {0: (0.6, 0.9)}))
        assert 0 < result.depth_hops <= result.forward_cost

    def test_dim_depth_bounded(self, topo300):
        from repro.events.generators import generate_events

        dim = DimIndex(Network(topo300), 3)
        for event in generate_events(300, 3, seed=2, sources=list(topo300)):
            dim.insert(event)
        result = dim.query(0, RangeQuery.partial(3, {0: (0.6, 0.9)}))
        assert 0 < result.depth_hops <= result.forward_cost

    def test_depth_at_least_farthest_destination(self, topo300):
        net = Network(topo300)
        tree = net.disseminate(
            MessageCategory.QUERY_FORWARD, graft(net.router, 0, [100, 200, 299])
        ).tree
        assert tree.height() >= max(
            net.router.hops(0, d) for d in (100, 200, 299)
        ) - 0  # tree paths are exactly the unicast paths here

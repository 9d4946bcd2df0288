"""Tests for the future-work extensions: aggregates, continuous, k-NN."""

from __future__ import annotations

import pytest

from repro.aggregates import AggregateKind, aggregate_events
from repro.core.continuous import ContinuousQueryService
from repro.core.knn import nearest_neighbors, value_distance
from repro.core.system import PoolSystem
from repro.dim.index import DimIndex
from repro.events.event import Event
from repro.events.generators import generate_events
from repro.events.queries import RangeQuery
from repro.exceptions import (
    ConfigurationError,
    DimensionMismatchError,
    QueryError,
    ValidationError,
)
from repro.network.network import Network
from repro.network.topology import deploy_uniform


@pytest.fixture
def loaded_world(topo300):
    pool = PoolSystem(Network(topo300), 3, seed=1)
    dim = DimIndex(Network(topo300), 3)
    events = generate_events(600, 3, seed=2, sources=list(topo300))
    for event in events:
        pool.insert(event)
        dim.insert(event)
    return pool, dim, events


class TestAggregateQueries:
    @pytest.mark.parametrize("kind", list(AggregateKind))
    def test_pool_aggregate_matches_centralized(self, loaded_world, kind):
        pool, _, events = loaded_world
        query = RangeQuery.of((0.2, 0.8), (0.1, 0.9), (0.0, 1.0))
        matching = [e for e in events if query.matches(e)]
        result = pool.aggregate(0, query, dimension=1, kind=kind)
        assert result.value == pytest.approx(
            aggregate_events(matching, 1, kind)
        )
        assert result.count == len(matching)

    def test_dim_aggregate_matches_centralized(self, loaded_world):
        _, dim, events = loaded_world
        query = RangeQuery.partial(3, {2: (0.5, 0.9)})
        matching = [e for e in events if query.matches(e)]
        result = dim.aggregate(0, query, dimension=2, kind=AggregateKind.AVG)
        assert result.value == pytest.approx(
            aggregate_events(matching, 2, AggregateKind.AVG)
        )

    def test_aggregate_cost_equals_query_cost(self, loaded_world):
        pool, _, _ = loaded_world
        query = RangeQuery.of((0.2, 0.6), (0.2, 0.6), (0.2, 0.6))
        query_result = pool.query(0, query)
        agg_result = pool.aggregate(0, query, kind=AggregateKind.COUNT)
        assert agg_result.total_cost == query_result.total_cost

    def test_tied_events_counted_once(self, topo300):
        """Section 4.1's single-copy rule keeps aggregates exact."""
        pool = PoolSystem(Network(topo300), 3, seed=1)
        pool.insert(Event.of(0.4, 0.4, 0.2, source=0))
        pool.insert(Event.of(0.4, 0.4, 0.2, source=100))
        result = pool.aggregate(
            0, RangeQuery.partial(3, {}), kind=AggregateKind.COUNT
        )
        assert result.value == 2

    def test_bad_dimension_rejected(self, loaded_world):
        pool, dim, _ = loaded_world
        query = RangeQuery.partial(3, {})
        with pytest.raises(ConfigurationError):
            pool.aggregate(0, query, dimension=5)
        with pytest.raises(ConfigurationError):
            dim.aggregate(0, query, dimension=-1)

    def test_empty_result_avg_raises_at_finalize(self, loaded_world):
        pool, _, _ = loaded_world
        nothing = RangeQuery.point(0.123456, 0.0, 0.0)
        result = pool.aggregate(0, nothing, kind=AggregateKind.AVG)
        if result.count == 0:
            with pytest.raises(QueryError):
                _ = result.value


class TestContinuousQueries:
    def test_notifications_pushed_for_matching_inserts(self, topo300):
        pool = PoolSystem(Network(topo300), 3, seed=1)
        service = ContinuousQueryService(pool)
        query = RangeQuery.partial(3, {0: (0.8, 1.0)})
        sub = service.register(sink=0, query=query)
        assert sub.registration_cost > 0
        hits = [e for e in generate_events(200, 3, seed=5, sources=list(topo300))
                if True]
        matched = 0
        for event in hits:
            pool.insert(event)
            if query.matches(event):
                matched += 1
        assert sub.notifications == matched
        assert len(sub.matched_events) == matched
        assert service.notify_cost() > 0

    def test_non_matching_inserts_ignored(self, topo300):
        pool = PoolSystem(Network(topo300), 3, seed=1)
        service = ContinuousQueryService(pool)
        sub = service.register(0, RangeQuery.of((0.9, 1.0), (0.0, 0.1), (0.0, 0.1)))
        pool.insert(Event.of(0.2, 0.15, 0.1, source=3))
        assert sub.notifications == 0

    def test_multiple_subscriptions_independent(self, topo300):
        pool = PoolSystem(Network(topo300), 3, seed=1)
        service = ContinuousQueryService(pool)
        sub_a = service.register(0, RangeQuery.partial(3, {0: (0.8, 1.0)}))
        sub_b = service.register(5, RangeQuery.partial(3, {1: (0.8, 1.0)}))
        pool.insert(Event.of(0.9, 0.85, 0.1, source=3))  # matches both
        pool.insert(Event.of(0.9, 0.1, 0.1, source=3))   # matches only A
        assert sub_a.notifications == 2
        assert sub_b.notifications == 1

    def test_unregister_stops_notifications(self, topo300):
        pool = PoolSystem(Network(topo300), 3, seed=1)
        service = ContinuousQueryService(pool)
        sub = service.register(0, RangeQuery.partial(3, {0: (0.8, 1.0)}))
        service.unregister(sub)
        pool.insert(Event.of(0.9, 0.2, 0.1, source=3))
        assert sub.notifications == 0
        assert not sub.active
        assert service.active_subscriptions == ()

    def test_double_unregister_raises(self, topo300):
        pool = PoolSystem(Network(topo300), 3, seed=1)
        service = ContinuousQueryService(pool)
        sub = service.register(0, RangeQuery.partial(3, {0: (0.8, 1.0)}))
        service.unregister(sub)
        with pytest.raises(QueryError):
            service.unregister(sub)

    def test_dimension_mismatch(self, topo300):
        pool = PoolSystem(Network(topo300), 3, seed=1)
        service = ContinuousQueryService(pool)
        with pytest.raises(DimensionMismatchError):
            service.register(0, RangeQuery.of((0.0, 1.0)))

    @pytest.mark.parametrize("via_splitter", [True, False])
    def test_registration_costs_the_one_shot_forward_phase(self, via_splitter):
        # The subscription is disseminated along the one-shot query's
        # legs, so it builds the same trees and is charged the same.
        topology = deploy_uniform(300, seed=5)
        pool = PoolSystem(
            Network(topology), 3, seed=5, route_via_splitter=via_splitter
        )
        for event in generate_events(300, 3, seed=2, sources=list(topology)):
            pool.insert(event)
        query = RangeQuery.partial(3, {0: (0.2, 0.6)})
        sub = ContinuousQueryService(pool).register(0, query)
        assert sub.registration_cost == pool.query(0, query).forward_cost

    def test_selective_query_costs_under_a_message_per_insert(self, topo300):
        # Only matching inserts pay a push, so a selective standing query
        # adds well under one NOTIFY per insert.
        pool = PoolSystem(Network(topo300), 3, seed=1)
        service = ContinuousQueryService(pool)
        sub = service.register(0, RangeQuery.partial(3, {0: (0.9, 1.0)}))
        events = generate_events(300, 3, seed=8, sources=list(topo300))
        for event in events:
            pool.insert(event)
        assert sub.notifications > 0
        assert service.notify_cost() < len(events)

    def test_local_match_costs_no_notify_message(self, topo300):
        pool = PoolSystem(Network(topo300), 3, seed=1)
        service = ContinuousQueryService(pool)
        query = RangeQuery.partial(3, {0: (0.8, 1.0)})
        # Sink == the holder of the event's cell: no radio push needed.
        event = Event.of(0.9, 0.2, 0.1)
        from repro.core.insertion import placement_for

        placement = placement_for(event, pool.side_length)
        holder = pool.index_node(
            pool.pools[placement.pool].cell_at(placement.ho, placement.vo)
        )
        sub = service.register(holder, query)
        before = service.notify_cost()
        pool.insert(event, source=holder)
        assert sub.notifications == 1
        assert service.notify_cost() == before


class TestNearestNeighbors:
    def test_matches_brute_force(self, loaded_world):
        pool, dim, events = loaded_world
        target = (0.42, 0.31, 0.77)
        for store in (pool, dim):
            result = nearest_neighbors(store, 0, target, k=5)
            expected = sorted(
                events, key=lambda e: (value_distance(e.values, target), e.values)
            )[:5]
            assert [e.values for e in result.neighbors] == [
                e.values for e in expected
            ]

    def test_pool_pruning_makes_knn_cheaper_than_dim(self, loaded_world):
        pool, dim, _ = loaded_world
        targets = [(0.3, 0.4, 0.5), (0.8, 0.2, 0.6), (0.55, 0.52, 0.1)]
        costs = {
            name: sum(
                nearest_neighbors(store, 0, target, k=5).total_cost
                for target in targets
            )
            for name, store in (("pool", pool), ("dim", dim))
        }
        assert costs["pool"] < costs["dim"]

    def test_distances_sorted(self, loaded_world):
        pool, _, _ = loaded_world
        result = nearest_neighbors(pool, 0, (0.5, 0.5, 0.5), k=8)
        distances = result.distances
        assert distances == sorted(distances)
        assert len(result.neighbors) == 8

    def test_expanding_rounds_accumulate_cost(self, loaded_world):
        pool, _, _ = loaded_world
        result = nearest_neighbors(
            pool, 0, (0.5, 0.5, 0.5), k=3, initial_radius=0.01
        )
        assert result.rounds == len(result.round_costs)
        assert result.total_cost == sum(result.round_costs)
        assert result.rounds >= 1

    def test_corner_target(self, loaded_world):
        pool, _, events = loaded_world
        result = nearest_neighbors(pool, 0, (1.0, 1.0, 1.0), k=2)
        expected = sorted(
            events, key=lambda e: (value_distance(e.values, (1, 1, 1)), e.values)
        )[:2]
        assert [e.values for e in result.neighbors] == [e.values for e in expected]

    def test_k_larger_than_store_raises(self, topo300):
        pool = PoolSystem(Network(topo300), 3, seed=1)
        pool.insert(Event.of(0.5, 0.4, 0.3, source=0))
        with pytest.raises(QueryError):
            nearest_neighbors(pool, 0, (0.5, 0.5, 0.5), k=5)

    def test_validation(self, loaded_world):
        pool, _, _ = loaded_world
        with pytest.raises(ValidationError):
            nearest_neighbors(pool, 0, (1.5, 0.5, 0.5), k=1)
        with pytest.raises(ValidationError):
            nearest_neighbors(pool, 0, (0.5, 0.5, 0.5), k=0)
        with pytest.raises(ValidationError):
            nearest_neighbors(pool, 0, (0.5, 0.5, 0.5), k=1, initial_radius=0)

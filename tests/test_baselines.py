"""Tests for the classical non-DCS baselines."""

from __future__ import annotations

import pytest

from repro.baselines.external import ExternalStorage
from repro.baselines.flooding import LocalStorageFlooding
from repro.events.event import Event
from repro.events.generators import exact_match_queries, generate_events
from repro.events.queries import RangeQuery
from repro.exceptions import DimensionMismatchError
from repro.network.messages import MessageCategory
from repro.network.network import Network


@pytest.fixture
def flooding(net300):
    system = LocalStorageFlooding(net300, 3)
    for event in generate_events(300, 3, seed=1, sources=list(net300.topology)):
        system.insert(event)
    return system


@pytest.fixture
def external(net300):
    system = ExternalStorage(net300, 3)
    for event in generate_events(300, 3, seed=1, sources=list(net300.topology)):
        system.insert(event)
    return system


class TestFlooding:
    def test_insert_is_free(self, net300):
        system = LocalStorageFlooding(net300, 3)
        receipt = system.insert(Event.of(0.5, 0.4, 0.3, source=17))
        assert receipt.hops == 0
        assert receipt.home_node == 17
        assert net300.stats.total == 0

    def test_query_forward_cost_is_network_size(self, flooding, net300):
        net300.reset_stats()
        result = flooding.query(0, RangeQuery.of((0.9, 1.0), (0.9, 1.0), (0.9, 1.0)))
        assert result.forward_cost == net300.size
        assert (
            net300.stats.count(MessageCategory.QUERY_FORWARD) == net300.size
        )

    def test_results_correct(self, flooding):
        events = generate_events(300, 3, seed=1)  # same values, no sources
        for query in exact_match_queries(10, 3, seed=2):
            expected = sorted(e.values for e in events if query.matches(e))
            got = sorted(e.values for e in flooding.query(0, query).events)
            assert got == expected

    def test_reply_cost_scales_with_responders(self, flooding):
        narrow = flooding.query(0, RangeQuery.point(0.123, 0.456, 0.789))
        wide = flooding.query(0, RangeQuery.partial(3, {}))
        assert narrow.reply_cost <= wide.reply_cost
        assert wide.forward_cost == narrow.forward_cost  # flood is flat

    def test_dimension_mismatch(self, flooding):
        with pytest.raises(DimensionMismatchError):
            flooding.insert(Event.of(0.5))
        with pytest.raises(DimensionMismatchError):
            flooding.query(0, RangeQuery.of((0.0, 1.0)))


class TestExternal:
    def test_default_sink_is_center_node(self, net300):
        system = ExternalStorage(net300, 3)
        assert system.sink == net300.closest_node(net300.topology.field.center)

    def test_insert_routes_to_sink(self, net300):
        system = ExternalStorage(net300, 3)
        receipt = system.insert(Event.of(0.5, 0.4, 0.3, source=0))
        assert receipt.home_node == system.sink
        assert receipt.hops == net300.router.hops(0, system.sink)

    def test_query_at_sink_is_free(self, external, net300):
        net300.reset_stats()
        result = external.query(external.sink, RangeQuery.partial(3, {}))
        assert result.total_cost == 0
        assert net300.stats.query_cost() == 0

    def test_query_from_elsewhere_pays_roundtrip(self, external):
        remote = 0 if external.sink != 0 else 1
        result = external.query(remote, RangeQuery.partial(3, {}))
        hops = external.network.router.hops(remote, external.sink)
        assert result.forward_cost == hops
        assert result.reply_cost == hops

    def test_results_correct(self, external):
        events = generate_events(300, 3, seed=1)
        for query in exact_match_queries(10, 3, seed=3):
            expected = sorted(e.values for e in events if query.matches(e))
            got = sorted(
                e.values for e in external.query(external.sink, query).events
            )
            assert got == expected

    def test_explicit_sink(self, net300):
        system = ExternalStorage(net300, 3, sink=7)
        assert system.sink == 7


class TestTradeoffShape:
    def test_the_dcs_motivation_holds(self, topo300):
        """Insert-heavy workloads ruin external storage; query-heavy
        workloads ruin flooding; Pool undercuts both — the premise of the
        whole DCS line of work, checked end to end."""
        from repro.core.system import PoolSystem

        events = generate_events(600, 3, seed=4, sources=list(topo300))
        queries = exact_match_queries(
            20, 3, range_sizes="exponential", seed=5
        )
        costs = {}
        for name, factory in (
            ("pool", lambda net: PoolSystem(net, 3, seed=1)),
            ("flooding", lambda net: LocalStorageFlooding(net, 3)),
            ("external", lambda net: ExternalStorage(net, 3)),
        ):
            net = Network(topo300)
            system = factory(net)
            insert_cost = sum(system.insert(e).hops for e in events)
            sink = net.closest_node(net.topology.field.center)
            query_cost = sum(system.query(sink, q).total_cost for q in queries)
            costs[name] = (insert_cost, query_cost)
        # Flooding: free writes, every query pays >= n messages.
        assert costs["flooding"][0] == 0
        assert costs["flooding"][1] > costs["pool"][1]
        assert costs["flooding"][1] >= 20 * topo300.size
        # External storage: free reads at the sink, every write pays a
        # cross-network unicast.
        assert costs["external"][1] == 0
        assert costs["external"][0] > 0
        # Query side: external < Pool < flooding.
        assert costs["external"][1] < costs["pool"][1] < costs["flooding"][1]
        # DCS sits between the extremes on the query side.
        total = {name: sum(pair) for name, pair in costs.items()}
        assert total["pool"] < total["flooding"]

"""Event-driven queries must match the synchronous accounting exactly.

Every equivalence class runs on Pool (with and without splitters), DIM
and DIFS, each over the same 350-node field; the property tests in
``test_protocol_properties.py`` draw other fields, loss rates and fault
plans.
"""

from __future__ import annotations

import pytest

from repro.core.protocol import run_query_on_simulator
from repro.core.system import PoolSystem
from repro.difs.index import DifsIndex
from repro.dim.index import DimIndex
from repro.events.generators import (
    exact_match_queries,
    generate_events,
    partial_match_queries,
)
from repro.events.queries import RangeQuery
from repro.exceptions import DimensionMismatchError, QueryError
from repro.network.messages import MessageCategory
from repro.network.network import Network
from repro.network.reliability import DropRule, FaultPlan, LossModel, ReliabilityLayer
from repro.network.simulator import Simulator
from repro.network.topology import deploy_uniform


def build_world(kind: str = "pool", *, route_via_splitter: bool = True):
    topology = deploy_uniform(350, seed=23)
    network = Network(topology)
    if kind == "dim":
        system = DimIndex(network, 3)
    elif kind == "difs":
        system = DifsIndex(network, 3)
    else:
        system = PoolSystem(
            network, 3, seed=23, route_via_splitter=route_via_splitter
        )
    events = generate_events(1050, 3, seed=24, sources=list(topology))
    for event in events:
        system.insert(event)
    simulator = Simulator(topology, hop_latency=0.01)
    return system, simulator, events


@pytest.fixture(scope="module")
def world():
    return build_world()


class TestEquivalence:
    def test_same_events_and_costs_exact_match(self, world):
        system, simulator, _ = world
        sink = system.network.closest_node(system.network.topology.field.center)
        for query in exact_match_queries(12, 3, seed=25):
            system.network.reset_stats()
            sync = system.query(sink, query)
            run = run_query_on_simulator(system, simulator, sink, query)
            assert sorted(e.values for e in run.events) == sorted(
                e.values for e in sync.events
            )
            assert run.forward_cost == sync.forward_cost, repr(query)
            assert run.reply_cost == sync.reply_cost, repr(query)

    def test_same_events_and_costs_partial_match(self, world):
        system, simulator, _ = world
        sink = 0
        for query in partial_match_queries(10, 3, unspecified=1, seed=26):
            system.network.reset_stats()
            sync = system.query(sink, query)
            run = run_query_on_simulator(system, simulator, sink, query)
            assert run.total_cost == sync.total_cost, repr(query)
            assert len(run.events) == sync.match_count

    def test_results_correct_vs_brute_force(self, world):
        system, simulator, events = world
        query = RangeQuery.partial(3, {2: (0.7, 0.85)})
        run = run_query_on_simulator(system, simulator, 0, query)
        truth = sorted(e.values for e in events if query.matches(e))
        assert sorted(e.values for e in run.events) == truth

    def test_latency_positive_and_finite(self, world):
        system, simulator, _ = world
        query = RangeQuery.partial(3, {0: (0.4, 0.6)})
        run = run_query_on_simulator(system, simulator, 0, query)
        assert run.completed_at > 0.0
        # Round trip cannot beat twice the deepest dissemination chain.
        sync = system.query(0, query)
        assert run.completed_at >= 2 * sync.depth_hops * simulator.hop_latency - 1e-9

    def test_pools_visited_matches_plan(self, world):
        system, simulator, _ = world
        fig4 = RangeQuery.of((0.2, 0.3), (0.25, 0.35), (0.21, 0.24))
        run = run_query_on_simulator(system, simulator, 0, fig4)
        sync = system.query(0, fig4)
        # One leg per Pool visited; DIM and DIFS plan a single leg.
        legs = sync.detail.pools_visited if isinstance(system, PoolSystem) else 1
        assert run.legs == legs

    def test_empty_query_costs_nothing(self, world):
        system, simulator, _ = world
        # A query whose derived ranges prune every pool.
        impossible = RangeQuery.of((0.9, 1.0), (0.0, 0.05), (0.0, 0.05))
        sync = system.query(0, impossible)
        run = run_query_on_simulator(system, simulator, 0, impossible)
        assert run.total_cost == sync.total_cost
        assert run.events == [] if sync.match_count == 0 else True


class TestEquivalenceWithoutSplitter(TestEquivalence):
    """The same checks with every tree rooted at the sink itself
    (``route_via_splitter=False``): the oracle must skip the splitter
    leg exactly as the synchronous accounting does."""

    @pytest.fixture(scope="class")
    def world(self):
        return build_world(route_via_splitter=False)


class TestEquivalenceDim(TestEquivalence):
    """The same checks on DIM: one tree from the sink to the zone owners."""

    @pytest.fixture(scope="class")
    def world(self):
        return build_world("dim")


class TestEquivalenceDifs(TestEquivalence):
    """The same checks on DIFS: one tree from the sink to the leaf nodes."""

    @pytest.fixture(scope="class")
    def world(self):
        return build_world("difs")


class TestValidation:
    def test_dimension_mismatch(self, world):
        system, simulator, _ = world
        with pytest.raises(DimensionMismatchError):
            run_query_on_simulator(
                system, simulator, 0, RangeQuery.of((0.0, 1.0))
            )

    def test_topology_mismatch(self, world):
        system, _, _ = world
        other = Simulator(deploy_uniform(50, seed=1, target_degree=8))
        with pytest.raises(QueryError):
            run_query_on_simulator(
                system, other, 0, RangeQuery.partial(3, {})
            )


class TestMidQueryFaults:
    def test_holder_dying_at_launch_degrades_gracefully(self):
        """A holder killed while the query is in flight silences its
        branch: the run completes with partial events and reports it."""
        topology = deploy_uniform(350, seed=23)
        network = Network(topology)
        system = PoolSystem(network, 3, seed=23)
        events = generate_events(1050, 3, seed=24, sources=list(topology))
        for event in events:
            system.insert(event)
        simulator = Simulator(topology, hop_latency=0.01)
        query = RangeQuery.partial(3, {})
        sync = system.query(0, query)
        assert sync.match_count > 0
        victim = next(
            segment.node
            for store in system._stores.values()
            for segment in store.segments
            if segment.rows and segment.node != 0
        )
        # Fires at t=0, before any message lands: the victim is dead by
        # the time the dissemination reaches it.
        simulator.schedule(0.0, lambda: simulator.nodes[victim].sleep())
        run = run_query_on_simulator(system, simulator, 0, query)
        assert not run.complete
        assert victim in run.unreachable_nodes
        sync_values = sorted(e.values for e in sync.events)
        run_values = sorted(e.values for e in run.events)
        assert len(run_values) < len(sync_values)
        assert all(v in sync_values for v in run_values)

    def test_run_with_no_faults_reports_complete(self, world):
        system, simulator, _ = world
        run = run_query_on_simulator(
            system, simulator, 0, RangeQuery.partial(3, {0: (0.4, 0.6)})
        )
        assert run.complete and run.unreachable_nodes == ()


class TestUnderReliabilityLayer:
    """The oracle's hops run the reliability layer's ARQ step, so loss,
    retransmissions and fault plans reach it exactly as they reach the
    synchronous path."""

    QUERY = RangeQuery.partial(3, {0: (0.4, 0.6)})

    @staticmethod
    def _layered(world, plan=None):
        system, _, _ = world
        rel = ReliabilityLayer(loss=LossModel(0.0), fault_plan=plan)
        simulator = Simulator(
            system.network.topology, hop_latency=0.01, reliability=rel
        )
        return system, simulator, rel

    def test_lossless_layer_changes_nothing(self, world):
        system, plain, _ = world
        baseline = run_query_on_simulator(system, plain, 0, self.QUERY)
        ledger = plain.stats.snapshot()
        _, simulator, rel = self._layered(world)
        run = run_query_on_simulator(system, simulator, 0, self.QUERY)
        assert simulator.stats.snapshot() == ledger
        assert sorted(e.values for e in run.events) == sorted(
            e.values for e in baseline.events
        )
        assert rel.attempted == rel.delivered == run.total_cost > 0

    def test_every_transmission_dropped_answers_nothing(self, world):
        system, simulator, rel = self._layered(
            world, FaultPlan(drops=(DropRule(every=1),))
        )
        run = run_query_on_simulator(system, simulator, 0, self.QUERY)
        assert not run.complete
        assert run.events == []
        assert rel.delivered == 0 and rel.failed_hops > 0

    def test_first_transmission_dropped_is_recovered(self, world):
        system, simulator, _ = self._layered(
            world, FaultPlan(drops=(DropRule(at=(0,)),))
        )
        run = run_query_on_simulator(system, simulator, 0, self.QUERY)
        assert simulator.stats.count(MessageCategory.RETRANSMIT) == 1
        assert simulator.stats.count(MessageCategory.ACK) == 1
        assert run.complete
        assert sorted(e.values for e in run.events) == sorted(
            e.values for e in system.query(0, self.QUERY).events
        )


class TestUnderReliabilityLayerDim(TestUnderReliabilityLayer):
    @pytest.fixture(scope="class")
    def world(self):
        return build_world("dim")


class TestUnderReliabilityLayerDifs(TestUnderReliabilityLayer):
    @pytest.fixture(scope="class")
    def world(self):
        return build_world("difs")

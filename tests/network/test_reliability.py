"""Tests for the lossy-link reliability layer.

Covers the loss model's determinism and zero-cost guarantee, ARQ
accounting (first attempts under the original category, retries under
RETRANSMIT, recovery ACKs), fault-plan parsing and scheduling, and the
reliability-aware dissemination/collection primitives on Network.
"""

from __future__ import annotations

import pytest

from repro.baselines.external import ExternalStorage
from repro.baselines.flooding import LocalStorageFlooding
from repro.core.system import PoolSystem
from repro.difs.index import DifsIndex
from repro.dim.index import DimIndex
from repro.events.generators import EventWorkload, QueryWorkload
from repro.exceptions import ConfigurationError, UnreachableError
from repro.network.messages import MessageCategory
from repro.network.network import Network
from repro.network.radio import MessageStats
from repro.network.reliability import (
    ArqPolicy,
    DropRule,
    FaultPlan,
    LinkDegradation,
    LossModel,
    NodeDeath,
    ReliabilityLayer,
)
from repro.network.topology import deploy_uniform
from repro.routing.multicast import graft
from repro.rng import derive


def _nonzero(stats):
    return {k: v for k, v in stats.snapshot().items() if v}


def _layer(loss_rate=0.0, *, seed=0, retry_limit=3, fault_plan=None):
    return ReliabilityLayer(
        loss=LossModel(loss_rate, seed=seed),
        arq=ArqPolicy(retry_limit=retry_limit),
        fault_plan=fault_plan,
    )


class TestLossModel:
    def test_rejects_bad_rates(self):
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(ConfigurationError):
                LossModel(bad)

    def test_same_seed_same_drop_sequence(self):
        a = LossModel(0.5, seed=derive(3, "loss"))
        b = LossModel(0.5, seed=derive(3, "loss"))
        seq_a = [a.drops(1, 2) for _ in range(32)]
        seq_b = [b.drops(1, 2) for _ in range(32)]
        assert seq_a == seq_b
        assert any(seq_a) and not all(seq_a)

    def test_links_have_independent_streams(self):
        model = LossModel(0.5, seed=7)
        # Drawing heavily on one link must not perturb a sibling link.
        for _ in range(100):
            model.drops(1, 2)
        tail = [model.drops(3, 4) for _ in range(16)]
        fresh = LossModel(0.5, seed=7)
        assert tail == [fresh.drops(3, 4) for _ in range(16)]

    def test_directed_links_are_distinct_streams(self):
        model = LossModel(0.5, seed=11)
        forward = [model.drops(1, 2) for _ in range(32)]
        reverse = [model.drops(2, 1) for _ in range(32)]
        assert forward != reverse

    def test_zero_rate_makes_no_draws(self):
        model = LossModel(0.0, seed=5)
        for _ in range(10):
            assert not model.drops(1, 2)
        # The zero path never consults (or creates) a link stream.
        assert model._streams == {}

    def test_distance_scaling_is_monotone(self):
        model = LossModel(0.4, distance_scaled=True)
        near = model.link_probability(4.0, 40.0)
        far = model.link_probability(40.0, 40.0)
        assert near < far == pytest.approx(0.4)
        # Without a distance the baseline applies unchanged.
        assert model.link_probability(None, 40.0) == 0.4


class TestArqPolicy:
    def test_backoff_grows_exponentially(self):
        policy = ArqPolicy(retry_limit=3, backoff_base=0.02, backoff_factor=2.0)
        assert policy.backoff(1) == pytest.approx(0.02)
        assert policy.backoff(2) == pytest.approx(0.04)
        assert policy.backoff(3) == pytest.approx(0.08)
        with pytest.raises(ValueError):
            policy.backoff(0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ArqPolicy(retry_limit=-1)
        with pytest.raises(ConfigurationError):
            ArqPolicy(backoff_base=0.0)
        with pytest.raises(ConfigurationError):
            ArqPolicy(backoff_factor=0.5)


class TestFaultPlan:
    def test_round_trip(self, tmp_path):
        plan = FaultPlan(
            deaths=(NodeDeath(at=5, nodes=(1, 2)),),
            degradations=(
                LinkDegradation(start=0, until=10, extra_loss=0.5),
                LinkDegradation(
                    start=2, until=4, extra_loss=0.9, links=((3, 4),)
                ),
            ),
            drops=(
                DropRule(category="insert", at=(0, 7)),
                DropRule(every=3, start=1, until=20),
            ),
        )
        path = tmp_path / "plan.json"
        import json

        path.write_text(json.dumps(plan.as_dict()), "utf-8")
        assert FaultPlan.load(str(path)) == plan
        assert FaultPlan.from_dict(plan.as_dict()) == plan

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            NodeDeath(at=-1, nodes=(0,))
        with pytest.raises(ConfigurationError):
            LinkDegradation(start=5, until=5, extra_loss=0.1)
        with pytest.raises(ConfigurationError):
            LinkDegradation(start=0, until=1, extra_loss=0.0)
        with pytest.raises(ConfigurationError):
            DropRule(every=0)
        with pytest.raises(ValueError):
            DropRule(category="not-a-category")
        with pytest.raises(ConfigurationError):
            FaultPlan.from_dict({"unknown-key": []})

    def test_drop_rule_matching(self):
        rule = DropRule(category="query_forward", every=2, start=4, until=10)
        hits = [
            tick
            for tick in range(12)
            if rule.matches(tick, MessageCategory.QUERY_FORWARD)
        ]
        assert hits == [4, 6, 8]
        assert not rule.matches(4, MessageCategory.INSERT)


class TestDeliverHop:
    def test_first_try_success_charges_only_the_category(self):
        rel = _layer()
        stats = MessageStats()
        assert rel.deliver_hop(MessageCategory.INSERT, 0, 1, stats)
        assert _nonzero(stats) == {"insert": 1}
        assert (rel.attempted, rel.delivered, rel.retransmissions, rel.acks) == (
            1,
            1,
            0,
            0,
        )

    def test_recovered_hop_adds_retransmit_and_ack(self):
        # Drop exactly the first transmission; the retry succeeds.
        rel = _layer(fault_plan=FaultPlan(drops=(DropRule(at=(0,)),)))
        stats = MessageStats()
        assert rel.deliver_hop(MessageCategory.QUERY_FORWARD, 0, 1, stats)
        assert _nonzero(stats) == {
            "query_forward": 1,
            "retransmit": 1,
            "ack": 1,
        }
        assert rel.retransmissions == 1 and rel.acks == 1
        # The ACK travels receiver -> sender.
        assert stats.per_node_transmissions().get(1) == 1

    def test_retry_exhaustion_fails_the_hop(self):
        rel = _layer(
            retry_limit=2, fault_plan=FaultPlan(drops=(DropRule(every=1),))
        )
        stats = MessageStats()
        assert not rel.deliver_hop(MessageCategory.INSERT, 0, 1, stats)
        # 1 first attempt + 2 retransmissions, no ACK: the hop never landed.
        assert _nonzero(stats) == {"insert": 1, "retransmit": 2}
        assert rel.failed_hops == 1 and rel.acks == 0
        assert rel.delivery_ratio == 0.0

    def test_scheduled_death_kills_receiver(self):
        rel = _layer(fault_plan=FaultPlan(deaths=(NodeDeath(at=0, nodes=(1,)),)))
        stats = MessageStats()
        assert not rel.deliver_hop(MessageCategory.INSERT, 0, 1, stats)
        assert not rel.is_alive(1)
        assert rel.failed_hops == 1

    def test_dead_sender_charges_nothing(self):
        rel = _layer(fault_plan=FaultPlan(deaths=(NodeDeath(at=0, nodes=(0,)),)))
        stats = MessageStats()
        rel.begin_transmission()  # fires the death
        assert not rel.deliver_hop(MessageCategory.INSERT, 0, 1, stats)
        assert stats.total == 0

    def test_death_callback_fires_once(self):
        seen: list[tuple[int, ...]] = []
        rel = _layer(fault_plan=FaultPlan(deaths=(NodeDeath(at=1, nodes=(5,)),)))
        rel.on_death = seen.append
        rel.begin_transmission()
        assert seen == []
        rel.begin_transmission()
        rel.begin_transmission()
        assert seen == [(5,)]

    def test_send_path_raises_with_partial_path(self):
        rel = _layer(
            retry_limit=0,
            fault_plan=FaultPlan(
                drops=(DropRule(at=(1,)),)  # second hop's first attempt
            ),
        )
        stats = MessageStats()
        with pytest.raises(UnreachableError) as info:
            rel.send_path(MessageCategory.INSERT, [0, 1, 2, 3], stats)
        assert info.value.partial_path == [0, 1]
        assert info.value.failed_hop == (1, 2)

    def test_snapshot_shape(self):
        rel = _layer(fault_plan=FaultPlan(deaths=(NodeDeath(at=0, nodes=(9,)),)))
        stats = MessageStats()
        rel.deliver_hop(MessageCategory.INSERT, 0, 1, stats)
        snap = rel.snapshot()
        assert snap["dead_nodes"] == [9]
        assert snap["attempted"] == 1 and snap["delivered"] == 1
        assert snap["delivery_ratio"] == 1.0


def _drive(store, events, queries, sink):
    for event in events:
        store.insert(event)
    return [store.query(sink, query) for query in queries]


def _build_all(network):
    return {
        "pool": PoolSystem(network.scope("pool"), 3, seed=4),
        "dim": DimIndex(network.scope("dim"), 3),
        "difs": DifsIndex(network.scope("difs"), 3),
        "flooding": LocalStorageFlooding(network.scope("flooding"), 3),
        "external": ExternalStorage(network.scope("external"), 3),
    }


class TestZeroCostAbstraction:
    def test_loss_zero_with_arq_is_byte_identical(self):
        """An enabled layer at loss 0 changes nothing: same ledger, same
        answers, message for message — the zero-cost acceptance bar."""
        topo = deploy_uniform(90, seed=21)
        events = EventWorkload(dimensions=3).generate(
            180, seed=derive(2, "events"), sources=list(topo)
        )
        queries = QueryWorkload(dimensions=3).generate(
            10, seed=derive(2, "queries")
        )
        sink = topo.closest_node(topo.field.center)

        plain_net = Network(topo)
        lossy_net = Network(topo, reliability=_layer(0.0))
        plain = _build_all(plain_net)
        lossy = _build_all(lossy_net)
        for name in plain:
            plain_results = _drive(plain[name], events, queries, sink)
            lossy_results = _drive(lossy[name], events, queries, sink)
            for a, b in zip(plain_results, lossy_results):
                assert a.total_cost == b.total_cost, name
                assert [e.values for e in a.events] == [
                    e.values for e in b.events
                ], name
                assert b.completeness == 1.0 and not b.is_partial
        assert plain_net.stats.snapshot() == lossy_net.stats.snapshot()
        rel = lossy_net.reliability
        assert rel.attempted == rel.delivered > 0
        assert rel.retransmissions == 0 and rel.acks == 0


class TestDisseminate:
    def test_lossless_matches_multicast_accounting(self):
        topo = deploy_uniform(60, seed=8)
        net = Network(topo)
        destinations = [5, 17, 42, 59]
        tree = graft(net.router, 0, destinations)
        delivery = net.disseminate(MessageCategory.QUERY_FORWARD, tree)
        assert delivery.complete
        assert set(destinations) <= delivery.reached
        assert net.stats.count(MessageCategory.QUERY_FORWARD) == len(
            delivery.tree.edges
        )
        answered, reply_cost = net.collect_up_tree(
            MessageCategory.QUERY_REPLY, delivery
        )
        assert answered == frozenset(delivery.tree.nodes())
        assert reply_cost == len(delivery.tree.edges)

    def test_pruned_subtree_is_never_attempted(self):
        topo = deploy_uniform(60, seed=8)
        # Drop every QUERY_FORWARD transmission: only the root is reached
        # and no edge beyond the first frontier retries into the void.
        rel = _layer(
            retry_limit=0,
            fault_plan=FaultPlan(drops=(DropRule(category="query_forward", every=1),)),
        )
        net = Network(topo, reliability=rel)
        tree = graft(net.router, 0, [5, 17, 42])
        delivery = net.disseminate(MessageCategory.QUERY_FORWARD, tree)
        assert delivery.reached == frozenset({0})
        assert not delivery.complete
        assert set(delivery.unreachable_destinations()) == {5, 17, 42}
        # Only edges out of node 0 were ever attempted.
        root_edges = [e for e in delivery.tree.edges if e[0] == 0]
        assert delivery.attempted_edges == len(root_edges)

    def test_lost_reply_silences_the_subtree(self):
        topo = deploy_uniform(60, seed=8)
        rel = _layer(
            retry_limit=0,
            fault_plan=FaultPlan(drops=(DropRule(category="query_reply", every=1),)),
        )
        net = Network(topo, reliability=rel)
        tree = graft(net.router, 0, [5, 17, 42])
        delivery = net.disseminate(MessageCategory.QUERY_FORWARD, tree)
        assert delivery.complete  # forwards were clean
        answered, _ = net.collect_up_tree(MessageCategory.QUERY_REPLY, delivery)
        # Every reply hop is dropped, so only the root's own answer counts.
        assert answered == frozenset({0})

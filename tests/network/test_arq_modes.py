"""One message, both execution modes: the ARQ hop must agree.

``Network.send_along`` (synchronous, ``ReliabilityLayer.deliver_hop``)
and ``Simulator.send`` (event-driven, the simulator's hop primitive) run
the same ``transmit``/``land`` step.  Over random fields, paths, loss
rates, retry budgets and fault plans they must deliver (or fail) at the
same hop, charge the same ledger and leave the layer in the same state.
"""

from __future__ import annotations

from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.exceptions import UnreachableError
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
from repro.network.simulator import Simulator
from repro.network.topology import Topology, deploy_uniform
from repro.routing.gpsr import GPSRRouter

CATEGORY = MessageCategory.INSERT
TICKS = st.integers(0, 24)


@lru_cache(maxsize=None)
def _field(n: int, seed: int, degree: int) -> Topology:
    return deploy_uniform(n, seed=seed, target_degree=degree)


@st.composite
def messages(draw):
    """A field, one GPSR path on it, and a fault plan aimed at that path."""
    n = draw(st.sampled_from([20, 45, 60, 80]))
    topology = _field(n, draw(st.integers(0, 8)), draw(st.sampled_from([10, 20])))
    src, dst = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    path = GPSRRouter(topology).path(src, dst)
    victims = st.sampled_from(path) | st.integers(0, n - 1)
    deaths = st.builds(
        NodeDeath, at=TICKS, nodes=st.lists(victims, max_size=3).map(tuple)
    )
    drops = st.builds(
        DropRule,
        category=st.sampled_from([None, CATEGORY.value, MessageCategory.ACK.value]),
        at=st.lists(TICKS, max_size=3).map(tuple),
        every=st.none() | st.integers(1, 5),
        start=TICKS,
        until=st.none() | st.integers(25, 40),
    )
    hops = list(zip(path, path[1:]))
    degradations = st.builds(
        lambda start, span, extra, links: LinkDegradation(
            start=start, until=start + span, extra_loss=extra, links=links
        ),
        TICKS,
        st.integers(1, 12),
        st.floats(0.05, 1.0),
        st.none() | st.lists(st.sampled_from(hops), min_size=1).map(tuple)
        if hops
        else st.none(),
    )
    plan = draw(
        st.none()
        | st.builds(
            FaultPlan,
            deaths=st.lists(deaths, max_size=3).map(tuple),
            degradations=st.lists(degradations, max_size=2).map(tuple),
            drops=st.lists(drops, max_size=2).map(tuple),
        )
    )
    return topology, src, dst, path, plan


def _layer(loss_rate, scaled, retry_limit, plan):
    return ReliabilityLayer(
        loss=LossModel(loss_rate, distance_scaled=scaled, seed=7),
        arq=ArqPolicy(retry_limit=retry_limit),
        fault_plan=plan,
    )


def _ledger(stats: MessageStats) -> dict[str, int]:
    return {c.value: stats.count(c) for c in MessageCategory}


def _layer_state(rel: ReliabilityLayer) -> tuple:
    return (
        rel.attempted,
        rel.delivered,
        rel.retransmissions,
        rel.acks,
        rel.failed_hops,
        rel.clock,
        frozenset(rel.dead),
    )


class TestOneMessageBothModes:
    @settings(max_examples=150, deadline=None)
    @given(
        message=messages(),
        loss_rate=st.sampled_from([0.0, 0.1, 0.3, 0.6]),
        scaled=st.booleans(),
        retry_limit=st.integers(0, 3),
    )
    @example(
        # A relay dies at the tick it would send: both modes must fail
        # the hop before charging it (2 charged hops, prefix 0-18-14).
        message=(
            _field(60, 8, 20),
            0,
            59,
            [0, 18, 14, 59],
            FaultPlan(deaths=(NodeDeath(at=2, nodes=(14,)),)),
        ),
        loss_rate=0.0,
        scaled=False,
        retry_limit=3,
    )
    def test_send_along_equals_simulator_send(
        self, message, loss_rate, scaled, retry_limit
    ):
        topology, src, dst, path, plan = message
        assert path == GPSRRouter(topology).path(src, dst)

        sync_rel = _layer(loss_rate, scaled, retry_limit, plan)
        network = Network(topology, reliability=sync_rel)
        try:
            network.send_along(CATEGORY, path)
            sync_reached = list(path)
        except UnreachableError as exc:
            sync_reached = exc.partial_path

        sim_rel = _layer(loss_rate, scaled, retry_limit, plan)
        sim = Simulator(topology, stats=MessageStats(), reliability=sim_rel)
        outcome: list[list[int]] = []
        sim.send(
            src,
            dst,
            CATEGORY,
            on_delivered=lambda m: outcome.append(list(path)),
            on_failed=lambda m, partial: outcome.append(partial),
        )
        sim.run()

        assert outcome == [sync_reached]
        assert _ledger(sim.stats) == _ledger(network.stats)
        assert _layer_state(sim_rel) == _layer_state(sync_rel)

    def test_relay_dying_as_it_sends_fails_after_two_hops(self):
        """The explicit example above, pinned on the synchronous side."""
        topology = _field(60, 8, 20)
        rel = _layer(0.0, False, 3, FaultPlan(deaths=(NodeDeath(at=2, nodes=(14,)),)))
        network = Network(topology, reliability=rel)
        with pytest.raises(UnreachableError) as failure:
            network.send_along(CATEGORY, [0, 18, 14, 59])
        assert failure.value.partial_path == [0, 18, 14]
        assert network.stats.count(CATEGORY) == 2
        assert rel.failed_hops == 1

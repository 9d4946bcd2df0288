"""Spans reconcile with the ledger.

A span's ``messages`` is what the ledger charged while it was open, so
under any channel — lossless, or lossy with ARQ retransmissions and
ACKs — a query's root span equals that query's ledger delta, and no span
charges less than its direct children together.  The grid covers every
registry system under a reliability layer at 0% and 30% loss with one
and three ARQ retries, plus the event-driven simulator run.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import build_system
from repro.bench.workloads import ExperimentConfig
from repro.core.protocol import run_query_on_simulator
from repro.core.system import PoolSystem
from repro.events.generators import EventWorkload, QueryWorkload
from repro.network.network import Network
from repro.network.reliability import ArqPolicy, LossModel, ReliabilityLayer
from repro.network.simulator import Simulator
from repro.network.topology import deploy_uniform
from repro.obs.profile import profile_span_dicts
from repro.rng import derive
from repro.telemetry.spans import Span, SpanRecorder

SYSTEMS = ["pool", "pool-direct", "dim", "difs", "flooding", "external"]


def _config() -> ExperimentConfig:
    return ExperimentConfig(
        name="reconcile",
        title="spans reconcile with the ledger",
        network_sizes=(150,),
        dimensions=2,
        event_workload=EventWorkload(dimensions=2),
        events_per_node=1,
        query_workloads=(QueryWorkload(dimensions=2),),
        query_count=8,
        trials=1,
        systems=tuple(SYSTEMS),
    )


def _assert_covers_children(span: Span) -> None:
    for node in span.walk():
        charged = sum(child.messages for child in node.children)
        assert node.messages >= charged, (node.name, node.messages, charged)


@pytest.mark.parametrize("retry_limit", [1, 3])
@pytest.mark.parametrize("loss_rate", [0.0, 0.3])
@pytest.mark.parametrize("name", SYSTEMS)
def test_query_spans_equal_the_ledger(topo300, name, loss_rate, retry_limit):
    config = _config()
    recorder = SpanRecorder(label=name)
    layer = ReliabilityLayer(
        loss=LossModel(loss_rate, seed=derive(9, "loss")),
        arq=ArqPolicy(retry_limit=retry_limit),
    )
    network = Network(topo300, telemetry=recorder, reliability=layer)
    system = build_system(name, network, config, seed=9)
    for event in config.event_workload.generate(
        150, seed=derive(9, "events"), sources=list(topo300)
    ):
        system.insert(event)
    sink = topo300.closest_node(topo300.field.center)
    queries = config.query_workloads[0].generate(
        config.query_count, seed=derive(9, "queries")
    )
    for query in queries:
        recorder.clear()
        before = network.stats.total
        system.query(sink, query)
        (root,) = recorder.roots
        assert root.name == "query"
        assert root.messages == network.stats.total - before
        _assert_covers_children(root)
    # And the capture's profile block folds without a clamp.
    profile_span_dicts(recorder.as_dicts())


def test_simulator_run_equals_the_simulator_ledger():
    topology = deploy_uniform(150, seed=23)
    system = PoolSystem(Network(topology), 2, seed=23)
    for event in EventWorkload(dimensions=2).generate(
        300, seed=24, sources=list(topology)
    ):
        system.insert(event)
    simulator = Simulator(topology, hop_latency=0.01)
    recorder = SpanRecorder(label="pool")
    for query in QueryWorkload(dimensions=2).generate(4, seed=25):
        recorder.clear()
        run = run_query_on_simulator(system, simulator, 0, query, recorder=recorder)
        (root,) = recorder.roots
        assert root.name == "distributed-query"
        assert root.messages == simulator.stats.total == run.total_cost
        _assert_covers_children(root)

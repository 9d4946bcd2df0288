"""Telemetry on and off drive the same query body.

Every instrumented operation has one body that opens its spans through
``open_span``: a real span with a recorder attached, the shared no-op
span without one.  These tests run identical seeded workloads both ways
— lossless and lossy, with and without the splitter leg — and require
identical result rows and identical message ledgers.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import run_experiment
from repro.bench.workloads import ExperimentConfig
from repro.core.system import PoolSystem
from repro.events.generators import EventWorkload, QueryWorkload, generate_events
from repro.events.queries import RangeQuery
from repro.network.network import Network
from repro.network.reliability import ArqPolicy, LossModel, ReliabilityLayer
from repro.telemetry.spans import SpanRecorder

LOSS_RATES = [0.0, 0.3]
ROUTES = [pytest.param(True, id="via-splitter"), pytest.param(False, id="from-sink")]


def _config(loss_rate: float, route_via_splitter: bool) -> ExperimentConfig:
    return ExperimentConfig(
        name="on-off",
        title="telemetry on/off equivalence",
        network_sizes=(150,),
        dimensions=2,
        event_workload=EventWorkload(dimensions=2),
        events_per_node=1,
        query_workloads=(
            QueryWorkload(dimensions=2, kind="exact", range_sizes="uniform"),
        ),
        query_count=6,
        trials=1,
        systems=("pool", "dim"),
        route_via_splitter=route_via_splitter,
        loss_rate=loss_rate,
        retry_limit=1,
    )


def _ledger(topology, recorder, *, loss_rate, route_via_splitter):
    reliability = None
    if loss_rate:
        reliability = ReliabilityLayer(
            loss=LossModel(loss_rate, seed=11), arq=ArqPolicy(retry_limit=1)
        )
    net = Network(topology, telemetry=recorder, reliability=reliability)
    system = PoolSystem(
        net, 2, cell_size=0.1, seed=7, route_via_splitter=route_via_splitter
    )
    for event in generate_events(120, 2, seed=3, sources=list(topology)):
        system.insert(event)
    results = [
        system.query(sink, RangeQuery(((lo, lo + 0.4), (0.1, 0.9))))
        for sink, lo in ((0, 0.2), (17, 0.5), (42, 0.0))
    ]
    return (
        net.stats.snapshot(),
        dict(net.stats.per_node_transmissions()),
        dict(net.stats.per_node_receptions()),
        [
            (r.forward_cost, r.reply_cost, r.depth_hops, r.completeness, r.events)
            for r in results
        ],
        reliability.snapshot() if reliability is not None else None,
    )


@pytest.mark.parametrize("route_via_splitter", ROUTES)
@pytest.mark.parametrize("loss_rate", LOSS_RATES)
class TestTelemetryOnOff:
    def test_rows_identical(self, loss_rate, route_via_splitter):
        config = _config(loss_rate, route_via_splitter)
        on = run_experiment(config, seed=5, telemetry=True)
        off = run_experiment(config, seed=5, telemetry=False)
        assert on.telemetry and not off.telemetry
        assert on.as_dict(include_timings=False) == off.as_dict(
            include_timings=False
        )

    def test_ledgers_identical(self, topo300, loss_rate, route_via_splitter):
        recorder = SpanRecorder(label="pool")
        on = _ledger(
            topo300,
            recorder,
            loss_rate=loss_rate,
            route_via_splitter=route_via_splitter,
        )
        off = _ledger(
            topo300,
            None,
            loss_rate=loss_rate,
            route_via_splitter=route_via_splitter,
        )
        assert any(span.name == "pool-fanout" for span in recorder.walk())
        assert on == off

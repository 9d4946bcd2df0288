"""Every storage system's fold against the scalar predicate.

Each system runs the same inserts and queries twice: once with the
columnar kernel (``EventTable._match``, behind ``select`` and
``matching_rows``) and once with that kernel swapped for a scalar loop
over ``RangeQuery.matches``.  The answers must
be the same events in the same order, under Pool sharing splits, Pool
node failures and lossy links.  Complete answers must also equal a brute
force over everything the system stores.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.baselines.external import ExternalStorage
from repro.baselines.flooding import LocalStorageFlooding
from repro.core.replication import ReplicationPolicy
from repro.core.sharing import SharingPolicy
from repro.core.system import PoolSystem
from repro.difs.index import DifsIndex
from repro.dim.index import DimIndex
from repro.events.generators import EventWorkload, QueryWorkload
from repro.events.queries import RangeQuery
from repro.events.table import EventTable
from repro.network.network import Network
from repro.network.reliability import ArqPolicy, LossModel, ReliabilityLayer
from repro.network.topology import deploy_uniform
from repro.rng import derive

SYSTEMS = {
    "pool": lambda net: PoolSystem(
        net, 3, seed=4, sharing=SharingPolicy(enabled=True, capacity=6)
    ),
    "dim": lambda net: DimIndex(net, 3),
    "difs": lambda net: DifsIndex(net, 3),
    "flooding": lambda net: LocalStorageFlooding(net, 3),
    "external": lambda net: ExternalStorage(net, 3),
}


def _scalar_match(table, query, row_lists):
    table._sync()
    rows = [
        row
        for rows in row_lists
        for row, event in zip(rows, table.events(rows))
        if query.matches(event)
    ]
    return np.array(rows, dtype=np.intp)


def _stored(system) -> list:
    if isinstance(system, PoolSystem):
        return system.all_events()
    return system._table.events(range(len(system._table)))


def _run(name: str, lossy: bool):
    topo = deploy_uniform(120, seed=17)
    reliability = (
        ReliabilityLayer(
            loss=LossModel(0.2, seed=derive(8, "loss")),
            arq=ArqPolicy(retry_limit=1),
        )
        if lossy
        else None
    )
    system = SYSTEMS[name](Network(topo, reliability=reliability))
    events = EventWorkload(dimensions=3, distribution="gaussian").generate(
        360, seed=derive(8, "events"), sources=list(topo)
    )
    for event in events:
        system.insert(event)
    sink = topo.closest_node(topo.field.center)
    if isinstance(system, PoolSystem):
        assert any(len(store.segments) > 1 for store in system._stores.values())
        load = system.storage_distribution()
        victims = sorted(
            (node for node in load if node != sink), key=lambda n: (-load[n], n)
        )[:2]
        report = system.handle_failures(victims)
        assert report.events_lost > 0
    queries = [
        *QueryWorkload(dimensions=3).generate(8, seed=derive(8, "exact")),
        *QueryWorkload(dimensions=3, kind="partial", unspecified=1).generate(
            8, seed=derive(8, "partial")
        ),
        # Point queries on stored values: every match sits on its bounds.
        *(RangeQuery.point(*event.values) for event in events[::40]),
        RangeQuery.partial(3, {}),
    ]
    return system, [system.query(sink, query) for query in queries], queries


def _key(result) -> list:
    return [(event.values, event.source, event.seq) for event in result.events]


@pytest.mark.parametrize("lossy", [False, True], ids=["lossless", "lossy"])
@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_fold_matches_scalar_reference(name, lossy, monkeypatch):
    system, columnar, queries = _run(name, lossy)
    stored = _stored(system)
    for query, result in zip(queries, columnar):
        truth = Counter(id(event) for event in stored if query.matches(event))
        got = Counter(id(event) for event in result.events)
        if result.is_partial:
            assert not got - truth
        else:
            assert got == truth
    assert any(result.match_count for result in columnar)
    if lossy and name != "external":
        assert any(result.is_partial for result in columnar)
    monkeypatch.setattr(EventTable, "_match", _scalar_match)
    _, scalar, _ = _run(name, lossy)
    assert [_key(result) for result in columnar] == [_key(result) for result in scalar]
    assert [type(result) for result in columnar] == [type(result) for result in scalar]
    assert [result.total_cost for result in columnar] == [
        result.total_cost for result in scalar
    ]


def _pool_fold_reference(system: PoolSystem, sink: int, query: RangeQuery) -> list:
    """Per-event ``matches`` over the planned segments, in fold order."""
    expected = []
    for leg in system.plan_query(sink, query).detail:
        for ho, vo in leg.offsets:
            store = system._stores.get((leg.pool, ho, vo))
            for segment in store.segments if store is not None else ():
                if segment.overlaps(*leg.vertical):
                    expected.extend(
                        event
                        for event in system._table.events(segment.rows)
                        if query.matches(event)
                    )
    return expected


@pytest.mark.parametrize("replicas", [0, 1], ids=["unreplicated", "replicated"])
@pytest.mark.parametrize("capacity", [2, 3, 4])
def test_pool_fold_through_splits_handoffs_and_failures(capacity, replicas):
    topo = deploy_uniform(120, seed=17)
    system = PoolSystem(
        Network(topo),
        2,
        seed=4,
        sharing=SharingPolicy(enabled=True, capacity=capacity),
        replication=ReplicationPolicy(replicas=replicas),
    )
    events = EventWorkload(dimensions=2, distribution="gaussian").generate(
        160, seed=derive(9, "events"), sources=list(topo)
    )
    sink = topo.closest_node(topo.field.center)
    queries = [
        *QueryWorkload(dimensions=2).generate(6, seed=derive(9, "exact")),
        *QueryWorkload(dimensions=2, kind="partial", unspecified=1).generate(
            4, seed=derive(9, "partial")
        ),
        *(RangeQuery.point(*event.values) for event in events[::53]),
        RangeQuery.partial(2, {}),
    ]

    def check() -> None:
        stored = system.all_events()
        assert len(stored) == system.stored_events
        for query in queries:
            result = system.query(sink, query)
            assert not result.is_partial
            got = [id(event) for event in result.events]
            assert got == [id(e) for e in _pool_fold_reference(system, sink, query)]
            assert Counter(got) == Counter(id(e) for e in stored if query.matches(e))

    for event in events[:80]:
        system.insert(event)
    check()
    for key in sorted(system._stores)[::4]:
        system.handoff_cell(*key)
    for event in events[80:]:
        system.insert(event)
    assert any(len(store.segments) > 1 for store in system._stores.values())
    check()
    load = system.storage_distribution()
    victims = sorted((n for n in load if n != sink), key=lambda n: (-load[n], n))[:2]
    report = system.handle_failures(victims)
    assert (report.events_lost > 0) == (not replicas)
    check()

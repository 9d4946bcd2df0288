"""The event-driven oracle against the synchronous path, on drawn worlds.

Pool (with and without splitters), DIM and DIFS each insert onto a small
random field (at most 150 nodes) and answer an exact and a 1-partial
query from a drawn sink, once through ``query()`` and once as message
passing on the simulator (:func:`run_query_on_simulator`):

* lossless: identical events and per-category ledger snapshots;
* per-link Bernoulli loss, with default ARQ or none: identical events,
  per-category counts and unanswered destinations, each side drawing
  from fresh loss streams of one seed.  The synchronous result's
  ``forward_cost`` and ``reply_cost`` equal its ledger's deltas.  A
  link's stream is drawn in the order the link is used, and Pool's
  legs run one after another synchronously but at once on the
  simulator: where two legs share a link, the sides draw its losses in
  a different order, so only the invariants below are checked there;
* fault plans (node deaths, dropped ticks): the two sides count
  transmissions in a different order, so the same tick hits different
  hops.  Each side's events are a subset of the lossless truth, its
  unanswered nodes are destinations of the plan, and a run with none
  unanswered returns the whole truth.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.protocol import run_query_on_simulator
from repro.core.system import PoolSystem
from repro.difs.index import DifsIndex
from repro.dim.index import DimIndex
from repro.events.generators import (
    exact_match_queries,
    generate_events,
    partial_match_queries,
)
from repro.network.network import Network
from repro.network.reliability import (
    ArqPolicy,
    DropRule,
    FaultPlan,
    LossModel,
    NodeDeath,
    ReliabilityLayer,
)
from repro.network.simulator import Simulator
from repro.network.topology import deploy_uniform

SYSTEMS = {
    "pool": lambda network, seed: PoolSystem(network, 3, seed=seed),
    "pool-at-sink": lambda network, seed: PoolSystem(
        network, 3, seed=seed, route_via_splitter=False
    ),
    "dim": lambda network, seed: DimIndex(network, 3),
    "difs": lambda network, seed: DifsIndex(network, 3),
}


@st.composite
def worlds(draw):
    """A loaded system on a random field, a sink and two queries."""
    name = draw(st.sampled_from(sorted(SYSTEMS)))
    size = draw(st.integers(min_value=40, max_value=150))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    topology = deploy_uniform(size, seed=seed, max_attempts=50)
    system = SYSTEMS[name](Network(topology), seed)
    for event in generate_events(2 * size, 3, seed=seed + 1, sources=list(topology)):
        system.insert(event)
    sink = draw(st.integers(min_value=0, max_value=size - 1))
    queries = [
        *exact_match_queries(1, 3, seed=seed + 2),
        *partial_match_queries(1, 3, unspecified=1, seed=seed + 3),
    ]
    return system, sink, queries


def _both(system, sink, query, layer=lambda: None):
    """``query`` synchronously and on the simulator, each under a fresh
    ``layer()``: each side's result and its nonzero ledger counts."""
    network = system.network
    network.reliability = layer()
    checkpoint = network.stats.checkpoint()
    try:
        sync = system.query(sink, query)
    finally:
        network.reliability = None
    sync_counts = {k: v for k, v in network.stats.delta(checkpoint).items() if v}
    simulator = Simulator(network.topology, reliability=layer())
    run = run_query_on_simulator(system, simulator, sink, query)
    run_counts = {k: v for k, v in simulator.stats.snapshot().items() if v}
    return sync, sync_counts, run, run_counts


def _values(events) -> list:
    return sorted(event.values for event in events)


def _legs_share_a_link(system, sink, query) -> bool:
    """Whether two legs of the query's plan send over one radio link."""
    seen: set[frozenset[int]] = set()
    for tree, _ in system.leg_answers(system.plan_query(sink, query)):
        path = system.network.router.path(sink, tree.root)
        links = {frozenset(hop) for hop in zip(path, path[1:])}
        links.update(frozenset(edge) for edge in tree.parents.items())
        if links & seen:
            return True
        seen |= links
    return False


def _assert_invariants(system, sink, query, sync, run) -> None:
    """Each side answers a subset of the lossless truth, names only the
    plan's destinations unanswered, and answers it all when none is."""
    truth = Counter(_values(system.query(sink, query).events))
    destinations = set(system.plan_query(sink, query).destinations)
    for events, unreachable in (
        (sync.events, getattr(sync, "unreachable_nodes", ())),
        (run.events, run.unreachable_nodes),
    ):
        assert not Counter(_values(events)) - truth
        assert set(unreachable) <= destinations
        if not unreachable:
            assert Counter(_values(events)) == truth
    assert run.complete == (not run.unreachable_nodes)


@settings(max_examples=10, deadline=None)
@given(worlds())
def test_lossless_oracle_equals_synchronous(world):
    system, sink, queries = world
    for query in queries:
        sync, sync_counts, run, run_counts = _both(system, sink, query)
        assert _values(run.events) == _values(sync.events)
        assert run_counts == sync_counts
        assert (run.forward_cost, run.reply_cost) == (sync.forward_cost, sync.reply_cost)
        assert run.complete


@settings(max_examples=12, deadline=None)
@given(
    worlds(),
    st.sampled_from((0.05, 0.2, 0.3)),
    st.sampled_from((ArqPolicy(), ArqPolicy(retry_limit=0))),
    st.integers(min_value=0, max_value=1_000),
)
def test_lossy_oracle_equals_synchronous(world, rate, arq, seed):
    system, sink, queries = world
    for query in queries:
        sync, sync_counts, run, run_counts = _both(
            system,
            sink,
            query,
            lambda: ReliabilityLayer(LossModel(rate, seed=seed), arq),
        )
        # The result's costs are what its ledger charged.
        assert sync.forward_cost == sync_counts.get("query_forward", 0)
        assert sync.reply_cost == sync_counts.get("query_reply", 0)
        if _legs_share_a_link(system, sink, query):
            _assert_invariants(system, sink, query, sync, run)
            continue
        assert _values(run.events) == _values(sync.events)
        assert run_counts == sync_counts
        assert run.unreachable_nodes == tuple(
            sorted(getattr(sync, "unreachable_nodes", ()))
        )


@st.composite
def fault_plans(draw, size: int):
    ticks = st.integers(min_value=0, max_value=60)
    deaths = draw(
        st.lists(
            st.builds(
                NodeDeath,
                at=ticks,
                nodes=st.tuples(st.integers(min_value=0, max_value=size - 1)),
            ),
            max_size=2,
        )
    )
    drops = draw(
        st.lists(
            st.builds(
                DropRule,
                category=st.sampled_from((None, "query_forward", "query_reply")),
                at=st.lists(ticks, max_size=4).map(tuple),
            ),
            max_size=2,
        )
    )
    return FaultPlan(deaths=tuple(deaths), drops=tuple(drops))


@settings(max_examples=12, deadline=None)
@given(worlds(), st.data())
def test_fault_plans_keep_the_invariants(world, data):
    system, sink, queries = world
    plan = data.draw(fault_plans(system.network.size))
    for query in queries:
        sync, _, run, _ = _both(
            system,
            sink,
            query,
            lambda: ReliabilityLayer(
                LossModel(0.0), ArqPolicy(retry_limit=1), fault_plan=plan
            ),
        )
        _assert_invariants(system, sink, query, sync, run)

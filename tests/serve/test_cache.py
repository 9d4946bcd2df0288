"""Plan/result cache: exact invalidation, sound under any interleaving."""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.sharing import SharingPolicy
from repro.core.system import PoolSystem
from repro.dim.index import DimIndex
from repro.events.event import Event
from repro.events.queries import RangeQuery
from repro.exec import QueryPlan
from repro.network.network import Network
from repro.network.topology import deploy_uniform
from repro.serve import QueryService
from repro.serve.cache import KEPT_PLANS, PlanResultCache
from repro.serve.report import OUTCOME_CACHE

from tests.core.test_plan_identity import assert_same_plan
from tests.serve._fakes import FakeSystem, make_request, make_schedule


def _plan(sink, query, cells, system="pool"):
    return QueryPlan(
        system=system,
        sink=sink,
        query=query,
        cells=tuple(cells),
        destinations=(1, 2),
        share_key=(system, sink, tuple(cells)),
    )


def _result():
    from repro.dcs import QueryResult

    return QueryResult(events=[], forward_cost=3, reply_cost=2)


QA = RangeQuery.partial(3, {0: (0.0, 0.5)})
QB = RangeQuery.partial(3, {0: (0.5, 1.0)})


class TestLookupStore:
    def test_miss_then_hit(self):
        cache = PlanResultCache()
        assert cache.lookup(0, QA) is None
        cache.store(_plan(0, QA, ["c1", "c2"]), _result(), cost=5)
        entry = cache.lookup(0, QA)
        assert entry is not None and entry.cost == 5
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate == 0.5

    def test_lookup_is_per_sink(self):
        cache = PlanResultCache()
        cache.store(_plan(0, QA, ["c1"]), _result(), cost=1)
        assert cache.lookup(1, QA) is None
        assert cache.lookup(0, QA) is not None

    def test_restore_replaces_the_index(self):
        cache = PlanResultCache()
        cache.store(_plan(0, QA, ["c1"]), _result(), cost=1)
        cache.store(_plan(0, QA, ["c2"]), _result(), cost=1)
        assert len(cache) == 1
        # The old cell no longer invalidates the entry; the new one does.
        assert cache.invalidate_cell("c1") == 0
        assert cache.invalidate_cell("c2") == 1


class TestInvalidation:
    def test_invalidates_exactly_the_touched_entries(self):
        cache = PlanResultCache()
        cache.store(_plan(0, QA, ["shared", "a-only"]), _result(), cost=1)
        cache.store(_plan(0, QB, ["shared", "b-only"]), _result(), cost=1)
        cache.store(_plan(1, QA, ["c-only"]), _result(), cost=1)
        assert cache.invalidate_cell("shared") == 2
        assert cache.lookup(0, QA) is None
        assert cache.lookup(0, QB) is None
        assert cache.lookup(1, QA) is not None  # untouched survives
        assert cache.invalidations == 2

    def test_unknown_cell_invalidates_nothing(self):
        cache = PlanResultCache()
        cache.store(_plan(0, QA, ["c1"]), _result(), cost=1)
        assert cache.invalidate_cell("elsewhere") == 0
        assert len(cache) == 1

    def test_invalidate_all(self):
        cache = PlanResultCache()
        cache.store(_plan(0, QA, ["c1"]), _result(), cost=1)
        cache.store(_plan(0, QB, ["c2"]), _result(), cost=1)
        assert cache.invalidate_all() == 2
        assert len(cache) == 0 and cache.cells_indexed() == 0


class TestKeptPlans:
    def test_invalidated_entry_keeps_its_plan(self):
        cache = PlanResultCache()
        plan = _plan(0, QA, ["c1", "c2"])
        cache.store(plan, _result(), cost=5, version=7)
        assert cache.invalidate_cell("c2") == 1
        assert cache.lookup(0, QA) is None
        assert cache.kept_plan(0, QA, 7) is plan
        # Kept plans are out of the invalidation index.
        assert cache.cells_indexed() == 0
        assert cache.invalidate_cell("c1") == 0

    def test_len_and_in_count_live_results_only(self):
        cache = PlanResultCache()
        cache.store(_plan(0, QA, ["c1"]), _result(), cost=1, version=0)
        cache.store(_plan(0, QB, ["c2"]), _result(), cost=1, version=0)
        cache.invalidate_cell("c1")
        assert len(cache) == 1
        assert (0, QA) not in cache and (0, QB) in cache
        assert cache.kept_plan(0, QA, 0) is not None
        # A fresh store brings the entry back to life, plan no longer kept.
        cache.store(_plan(0, QA, ["c1"]), _result(), cost=1, version=0)
        assert len(cache) == 2 and (0, QA) in cache
        assert cache.kept_plan(0, QA, 0) is None

    def test_version_change_or_no_version_forces_a_replan(self):
        cache = PlanResultCache()
        cache.store(_plan(0, QA, ["c1"]), _result(), cost=1, version=(0, 0))
        cache.store(_plan(0, QB, ["c1"]), _result(), cost=1)
        cache.invalidate_cell("c1")
        assert cache.kept_plan(0, QA, (0, 0)) is not None
        assert cache.kept_plan(0, QA, (1, 0)) is None
        # Stored without a version: never re-executed from its plan.
        assert cache.kept_plan(0, QB, None) is None
        assert cache.kept_plan(0, QB, (0, 0)) is None

    def test_bound_drops_the_oldest_kept_plan_first(self):
        cache = PlanResultCache()
        queries = [
            RangeQuery.partial(3, {0: (0.0, i / (KEPT_PLANS + 1))})
            for i in range(1, KEPT_PLANS + 2)
        ]
        # Every entry shares one cell, so one insert invalidates them all,
        # in the order they were stored.
        for query in queries:
            cache.store(_plan(0, query, ["hot", query]), _result(), cost=1, version=0)
        assert cache.invalidate_cell("hot") == KEPT_PLANS + 1
        assert cache.kept_plan(0, queries[0], 0) is None
        assert all(cache.kept_plan(0, q, 0) is not None for q in queries[1:])
        # One more invalidation evicts the next oldest.
        cache.store(_plan(1, QA, ["late"]), _result(), cost=1, version=0)
        cache.invalidate_cell("late")
        assert cache.kept_plan(0, queries[1], 0) is None
        assert cache.kept_plan(0, queries[2], 0) is not None
        assert cache.kept_plan(1, QA, 0) is not None

    def test_invalidate_all_drops_kept_plans(self):
        cache = PlanResultCache()
        cache.store(_plan(0, QA, ["c1"]), _result(), cost=1, version=0)
        cache.store(_plan(0, QB, ["c2"]), _result(), cost=1, version=0)
        cache.invalidate_cell("c1")
        assert cache.invalidate_all() == 1
        assert cache.kept_plan(0, QA, 0) is None


class _CountingFake(FakeSystem):
    def __init__(self):
        super().__init__()
        self.plans = 0

    def plan_query(self, sink, query):
        self.plans += 1
        return super().plan_query(sink, query)


class TestServiceReusesKeptPlans:
    def test_reuse_until_the_version_moves(self):
        system = _CountingFake()
        cache = PlanResultCache()
        with QueryService(system, cache=cache) as service:
            def ask(t):
                return service.run(make_schedule([make_request(t, float(t), query=QA)]))

            ask(0)
            assert (system.plans, system.executions) == (1, 1)
            cache.invalidate_cell("c")
            report = ask(1)
            # Re-executed with the kept plan: no planning, same charge.
            assert (system.plans, system.executions) == (1, 2)
            assert report.served[0].messages == system.cost
            system.layout_version = 1
            cache.invalidate_cell("c")
            ask(2)
            assert (system.plans, system.executions) == (2, 3)
            # Hit/miss counting is what it was without kept plans.
            assert (cache.hits, cache.misses) == (0, 3)

    def test_pool_handoff_forces_a_replan(self, net300):
        pool = PoolSystem(net300, 3, seed=11)
        query = RangeQuery.partial(3, {})
        pool.insert(Event.of(0.5, 0.4, 0.3, source=3))
        cache = PlanResultCache()
        planned = _record_calls(pool)["plan"]
        with QueryService(pool, cache=cache) as service:
            def ask(t):
                service.run(make_schedule([make_request(t, float(t), query=query)]))

            ask(0)
            version = pool.layout_version
            pool.insert(Event.of(0.5, 0.4, 0.3, source=5))
            assert pool.layout_version == version
            ask(1)
            assert len(planned) == 1
            key = next(iter(pool._stores))
            assert pool.handoff_cell(*key) is not None
            assert pool.layout_version != version
            pool.insert(Event.of(0.5, 0.4, 0.3, source=7))
            ask(2)
            assert len(planned) == 2
        pool.close()

    def test_dim_route_change_forces_a_replan(self, net300):
        """A kept DIM plan carries its tree: failing a relay expires it."""
        dim = DimIndex(net300, 3)
        query = RangeQuery.of((0.0, 0.1), (0.9, 1.0), (0.0, 0.1))
        event = Event.of(0.05, 0.95, 0.05, source=3)
        cache = PlanResultCache()
        calls = _record_calls(dim)
        with QueryService(dim, cache=cache) as service:
            def ask(t):
                service.run(make_schedule([make_request(t, float(t), query=query)]))

            ask(0)
            version = dim.layout_version
            dim.insert(event)
            ask(1)
            assert len(calls["plan"]) == 1
            kept = calls["execute"][-1]
            relays = set(kept.detail.tree.parents) - set(kept.destinations)
            victim = min(relays)
            dim.network.fail_nodes([victim])
            assert dim.layout_version != version
            dim.insert(event)
            ask(2)
            assert len(calls["plan"]) == 2
            fresh = calls["execute"][-1]
            assert fresh.destinations == kept.destinations
            assert victim not in fresh.detail.tree.depths
        dim.close()


class TestAttachment:
    def test_pool_insert_invalidates_covering_entry(self, net300):
        pool = PoolSystem(net300, 3, seed=11)
        cache = PlanResultCache()
        cache.attach(pool)
        query = RangeQuery.partial(3, {})  # covers every cell
        plan = pool.plan_query(0, query)
        cache.store(plan, pool.fold_replies(plan, pool.execute_plan(plan)), cost=9)
        assert cache.lookup(0, query) is not None
        cache.hits = cache.misses = 0
        pool.insert(Event.of(0.5, 0.5, 0.5, source=3))
        assert cache.lookup(0, query) is None  # insert evicted it
        cache.detach()
        assert pool.insert_listeners == []
        pool.close()

    def test_detach_is_idempotent_after_system_close(self, net300):
        pool = PoolSystem(net300, 3, seed=11)
        cache = PlanResultCache()
        cache.attach(pool)
        pool.close()  # system clears its listener list first
        cache.detach()  # must not raise
        cache.detach()


# --------------------------------------------------------------------- #
# Property: a cache hit is NEVER stale, whatever the interleaving.      #
# --------------------------------------------------------------------- #

_topology = None


def _topo():
    global _topology
    if _topology is None:
        _topology = deploy_uniform(120, seed=24)
    return _topology


# A handful of fixed queries (so repeats — and therefore hits — happen)
# and boundary-heavy events.
_QUERIES = [
    RangeQuery.partial(3, {}),
    RangeQuery.partial(3, {0: (0.0, 0.5)}),
    RangeQuery.partial(3, {1: (0.25, 0.75)}),
    RangeQuery.of((0.0, 1.0), (0.0, 0.3), (0.4, 1.0)),
]

unit = st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0])

# op < 4: ask query _QUERIES[op]; op == 4: insert the paired event.
interleavings = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4),
        st.tuples(unit, unit, unit),
    ),
    min_size=4,
    max_size=14,
)


class TestCoherenceProperty:
    @given(interleavings, st.sampled_from(["pool", "dim"]))
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_served_results_match_fresh_execution(self, ops, system_name):
        """Random insert/query interleavings never serve a stale result.

        After every step, a query served through the cache (hit or miss)
        must return exactly the events a from-scratch staged execution
        returns *at that moment* — i.e. insert-listener invalidation
        catches every write that could change a cached answer.
        """
        topology = _topo()
        network = Network(topology)
        if system_name == "pool":
            system = PoolSystem(network, 3, seed=1)
        else:
            system = DimIndex(network, 3)
        cache = PlanResultCache()
        cache.attach(system)
        source = 0
        for op, values in ops:
            if op == 4:
                system.insert(Event(values), source=source % topology.size)
                source += 1
                continue
            query = _QUERIES[op]
            entry = cache.lookup(0, query)
            if entry is None:
                plan = system.plan_query(0, query)
                result = system.fold_replies(plan, system.execute_plan(plan))
                cache.store(plan, result, cost=result.total_cost)
            else:
                result = entry.result
            fresh = system.query(0, query)
            assert sorted(e.values for e in result.events) == sorted(
                e.values for e in fresh.events
            )
        system.close()


# --------------------------------------------------------------------- #
# Property: a kept plan is reused only while it equals a fresh one.     #
# --------------------------------------------------------------------- #

_SINK = 0

_value = st.one_of(unit, st.floats(min_value=0.0, max_value=1.0))
# Each step changes the system, then serves one query.  Mostly inserts,
# so results are invalidated and plans kept; now and then a hot burst (a
# segment split), a handoff or a failure, or nothing at all.
_change = st.one_of(
    st.tuples(st.just("insert"), st.tuples(_value, _value, _value)),
    st.tuples(st.just("insert"), st.tuples(_value, _value, _value)),
    st.tuples(st.just("none"), st.none()),
    st.tuples(st.just("hot"), st.floats(min_value=0.0, max_value=1.0)),
    st.tuples(st.just("handoff"), st.integers(min_value=0, max_value=99)),
    st.tuples(st.just("fail"), st.integers(min_value=0, max_value=99)),
)
layout_ops = st.lists(
    st.tuples(_change, st.integers(min_value=0, max_value=len(_QUERIES) - 1)),
    min_size=4,
    max_size=24,
)


def _serve_and_check(system, cache, service, calls, t, query):
    """Serve one request; check any kept plan against a fresh one.

    ``calls`` records the service's ``plan_query`` and ``execute_plan``
    calls (see :func:`_record_calls`).  Returns whether the request
    re-executed a kept plan.
    """
    planned = len(calls["plan"])
    report = service.run(make_schedule([make_request(t, float(t), _SINK, query)]))
    served = report.served[0]
    reused = served.outcome != OUTCOME_CACHE and len(calls["plan"]) == planned
    entry = cache.lookup(_SINK, query)
    assert entry is not None
    fresh_plan = calls["plan_query"](_SINK, query)
    stats = system.network.stats
    before = stats.total
    fresh = system.fold_replies(fresh_plan, calls["execute_plan"](fresh_plan))
    fresh_charge = stats.total - before
    assert [e.values for e in entry.result.events] == [e.values for e in fresh.events]
    if served.outcome != OUTCOME_CACHE:
        assert served.messages == fresh_charge
    if reused:
        assert_same_plan(calls["execute"][-1], fresh_plan)
    return reused


def _record_calls(system):
    """Wrap the system's planner and executor to record what they are given."""
    calls = {
        "plan": [],
        "execute": [],
        "plan_query": system.plan_query,
        "execute_plan": system.execute_plan,
    }

    def plan_query(sink, query):
        calls["plan"].append(query)
        return calls["plan_query"](sink, query)

    def execute_plan(plan):
        calls["execute"].append(plan)
        return calls["execute_plan"](plan)

    system.plan_query = plan_query
    system.execute_plan = execute_plan
    return calls


class TestPlanReuseProperty:
    @given(layout_ops, st.integers(min_value=2, max_value=8))
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_reused_plans_equal_fresh_plans(self, ops, capacity):
        """Inserts (first ones into empty cells too), segment splits,
        handoffs and failures in any order: every re-executed kept plan
        equals a fresh ``plan_query`` field for field, trees included; the
        served result equals a fresh uncached execution's; and the charge
        equals the fresh plan's."""
        topology = _topo()
        system = PoolSystem(
            Network(topology),
            3,
            seed=1,
            side_length=5,
            sharing=SharingPolicy(enabled=True, capacity=capacity),
        )
        cache = PlanResultCache()
        calls = _record_calls(system)
        sources = iter(range(1, 10**6))

        def source():
            """The next alive sensor after the sink, round-robin."""
            while True:
                node = next(sources) % topology.size
                if node != _SINK and topology_alive(node):
                    return node

        topology_alive = system.network.topology.is_alive
        with QueryService(system, cache=cache) as service:
            for t, ((kind, arg), query) in enumerate(ops):
                if kind == "insert":
                    system.insert(Event(arg), source=source())
                elif kind == "hot":
                    # A burst into one cell, keys apart: sharing splits it.
                    for i in range(capacity + 1):
                        event = Event((arg, arg * (0.5 + 0.01 * i), 0.0))
                        system.insert(event, source=source())
                elif kind == "handoff":
                    keys = sorted(system._stores)
                    if keys:
                        system.handoff_cell(*keys[arg % len(keys)])
                elif kind == "fail":
                    failed = system.network.failed_nodes
                    holders = sorted(
                        {s.node for st_ in system._stores.values() for s in st_.segments}
                        - {_SINK}
                        - failed
                    )
                    if holders and len(failed) < 2:
                        system.handle_failures([holders[arg % len(holders)]])
                        topology_alive = system.network.topology.is_alive
                _serve_and_check(system, cache, service, calls, t, _QUERIES[query])
        system.close()

    def test_a_failure_that_loses_events_invalidates_their_cell(self):
        """Events lost with their holder are not served from the cache."""
        system = PoolSystem(Network(_topo()), 3, seed=1, side_length=5)
        cache = PlanResultCache()
        query = _QUERIES[3]
        with QueryService(system, cache=cache) as service:
            receipts = [
                system.insert(Event(values), source=source + 1)
                for source, values in enumerate([(0, 0, 0), (0, 0, 0), (0, 0, 0.75)])
            ]
            service.run(make_schedule([make_request(0, 0.0, _SINK, query)]))
            entry = cache.lookup(_SINK, query)
            assert [e.values for e in entry.result.events] == [(0.0, 0.0, 0.75)]
            # The holder of (0, 0, 0.75) has no replica: its event is lost.
            report = system.handle_failures([receipts[-1].home_node])
            assert report.events_lost == 1 and len(report.lossy_cells) == 1
            assert (_SINK, query) not in cache
            served = service.run(make_schedule([make_request(1, 1.0, _SINK, query)]))
            assert served.served[0].outcome != OUTCOME_CACHE
            assert cache.lookup(_SINK, query).result.events == []
        system.close()

    def test_first_insert_into_an_empty_cell_keeps_the_plan(self):
        """The one layout change that bumps nothing is reused, and equal."""
        system = PoolSystem(Network(_topo()), 3, seed=1, side_length=5)
        cache = PlanResultCache()
        calls = _record_calls(system)
        query = _QUERIES[0]
        with QueryService(system, cache=cache) as service:
            assert not _serve_and_check(system, cache, service, calls, 0, query)
            version = system.layout_version
            system.insert(Event((0.6, 0.3, 0.2)), source=5)
            assert system.layout_version == version and len(system._stores) == 1
            assert _serve_and_check(system, cache, service, calls, 1, query)
        system.close()

    def test_reuse_resumes_after_a_split_replans(self):
        """A split forces one re-plan; the new plan is then kept and reused."""
        system = PoolSystem(
            Network(_topo()),
            3,
            seed=1,
            side_length=5,
            sharing=SharingPolicy(enabled=True, capacity=2),
        )
        cache = PlanResultCache()
        calls = _record_calls(system)
        query = _QUERIES[0]
        with QueryService(system, cache=cache) as service:
            assert not _serve_and_check(system, cache, service, calls, 0, query)
            version = system.layout_version
            for source, second in ((3, 0.3), (4, 0.305), (5, 0.31)):
                system.insert(Event((0.6, second, 0.2)), source=source)
            assert system.layout_version != version
            assert any(len(store.segments) > 1 for store in system._stores.values())
            assert not _serve_and_check(system, cache, service, calls, 1, query)
            system.insert(Event((0.1, 0.05, 0.02)), source=6)
            assert _serve_and_check(system, cache, service, calls, 2, query)
        system.close()

"""Unit contracts of the staged plan → execute → fold pipeline."""

from __future__ import annotations

import pytest

from repro.baselines.external import ExternalStorage
from repro.baselines.flooding import LocalStorageFlooding
from repro.core.system import PoolSystem
from repro.difs.index import DifsIndex
from repro.dim.index import DimIndex
from repro.events.generators import exact_match_queries, generate_events
from repro.events.queries import RangeQuery
from repro.exceptions import DimensionMismatchError
from repro.exec import QueryPlan, StagedQuerySystem, run_staged

SYSTEM_FACTORIES = {
    "pool": lambda net: PoolSystem(net, 3, seed=11),
    "dim": lambda net: DimIndex(net, 3),
    "difs": lambda net: DifsIndex(net, 3),
    "flooding": lambda net: LocalStorageFlooding(net, 3),
    "external": lambda net: ExternalStorage(net, 3),
}


@pytest.fixture(params=sorted(SYSTEM_FACTORIES))
def loaded_system(request, net300):
    system = SYSTEM_FACTORIES[request.param](net300)
    for event in generate_events(250, 3, seed=3, sources=list(net300.topology)):
        system.insert(event)
    return system


QUERIES = exact_match_queries(6, 3, seed=5) + [
    RangeQuery.partial(3, {0: (0.2, 0.6)}),
    RangeQuery.partial(3, {}),
]


class TestProtocol:
    def test_every_system_satisfies_the_protocol(self, loaded_system):
        assert isinstance(loaded_system, StagedQuerySystem)

    def test_insert_listener_list_is_exposed(self, loaded_system):
        assert loaded_system.insert_listeners == []
        loaded_system.insert_listeners.append(lambda cell, event, holder: None)
        loaded_system.close()
        assert loaded_system.insert_listeners == []


class TestPlanStage:
    def test_planning_charges_zero_messages(self, loaded_system):
        stats = loaded_system.network.stats
        for query in QUERIES:
            before = stats.checkpoint()
            loaded_system.plan_query(0, query)
            assert all(v == 0 for v in stats.delta(before).values())

    def test_plans_are_hashable_and_deterministic(self, loaded_system):
        for query in QUERIES:
            first = loaded_system.plan_query(0, query)
            second = loaded_system.plan_query(0, query)
            assert isinstance(first, QueryPlan)
            assert first == second
            assert hash(first) == hash(second)
            assert first.share_key == second.share_key

    def test_cache_key_distinguishes_sink_and_query(self, loaded_system):
        narrow = RangeQuery.partial(3, {0: (0.1, 0.2)})
        wide = RangeQuery.partial(3, {0: (0.0, 1.0)})
        assert (
            loaded_system.plan_query(0, narrow).cache_key
            != loaded_system.plan_query(1, narrow).cache_key
        )
        assert (
            loaded_system.plan_query(0, narrow).cache_key
            != loaded_system.plan_query(0, wide).cache_key
        )

    def test_plans_resolve_at_least_one_cell(self, loaded_system):
        for query in QUERIES:
            assert loaded_system.plan_query(0, query).cells

    @pytest.mark.parametrize("dimensions", [2, 4])
    def test_plan_rejects_wrong_dimensionality(self, loaded_system, dimensions):
        # Planning is the public entry of the staged API: a mismatched
        # query must fail here, before execute_plan charges anything.
        stats = loaded_system.network.stats
        before = stats.checkpoint()
        with pytest.raises(DimensionMismatchError):
            loaded_system.plan_query(0, RangeQuery.partial(dimensions, {}))
        assert all(v == 0 for v in stats.delta(before).values())

    @pytest.mark.parametrize("name", sorted(SYSTEM_FACTORIES))
    def test_empty_system_rejects_wrong_dimensionality(self, net300, name):
        system = SYSTEM_FACTORIES[name](net300)
        for dimensions in (2, 4):
            with pytest.raises(DimensionMismatchError):
                system.plan_query(0, RangeQuery.partial(dimensions, {0: (0.1, 0.2)}))


class TestStagedComposition:
    def test_query_equals_manual_stage_chain(self, loaded_system):
        for query in QUERIES:
            plan = loaded_system.plan_query(0, query)
            manual = loaded_system.fold_replies(
                plan, loaded_system.execute_plan(plan)
            )
            wrapped = loaded_system.query(0, query)
            assert sorted(e.values for e in manual.events) == sorted(
                e.values for e in wrapped.events
            )
            assert manual.total_cost == wrapped.total_cost

    def test_run_staged_rejects_wrong_dimensionality(self, loaded_system):
        stats = loaded_system.network.stats
        before = stats.checkpoint()
        with pytest.raises(DimensionMismatchError):
            run_staged(loaded_system, 0, RangeQuery.partial(2, {}))
        assert all(v == 0 for v in stats.delta(before).values())


class TestInsertListeners:
    def test_listener_cell_is_plan_native(self, net300):
        """The cell a listener reports must be findable in future plans.

        That alignment is what makes cache invalidation by cell set
        sound: here an all-covering query's plan must list the cell every
        stored event's listener reported (Pool reports ``Placement``,
        normalized to the plan's ``(pool, ho, vo)`` triple).
        """
        from repro.serve.cache import _native_cell

        for name, factory in sorted(SYSTEM_FACTORIES.items()):
            system = factory(net300.scope(f"listen-{name}"))
            seen = []
            system.insert_listeners.append(
                lambda cell, event, holder: seen.append(_native_cell(cell))
            )
            for event in generate_events(40, 3, seed=9, sources=list(net300.topology)):
                system.insert(event)
            assert seen, name
            plan = system.plan_query(0, RangeQuery.partial(3, {}))
            missing = [cell for cell in seen if cell not in plan.cell_set]
            assert not missing, (name, missing[:3])
            system.close()

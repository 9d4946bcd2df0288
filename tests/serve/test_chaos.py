"""Chaos scenarios, retry-plan restriction, and partial-result merging."""

from __future__ import annotations

import json

import pytest

from repro.bench.serve_bench import run_serve
from repro.core.system import PoolSystem
from repro.dcs import PartialResult, QueryResult
from repro.dim.index import DimIndex
from repro.events.event import Event
from repro.events.generators import generate_events
from repro.events.queries import RangeQuery
from repro.exceptions import ConfigurationError
from repro.network.reliability import (
    ArqPolicy,
    FaultPlan,
    LossModel,
    ReliabilityLayer,
)
from repro.rng import derive
from repro.serve import (
    ChaosSpec,
    PlanResultCache,
    QueryService,
    ServeRequest,
    ServeSchedule,
    generate_fault_plan,
    merge_partial_results,
)
from repro.serve.chaos import _main as chaos_main

QUERY = RangeQuery.partial(3, {0: (0.2, 0.8)})


class TestChaosSpec:
    def test_negative_counts_are_rejected(self):
        with pytest.raises(ConfigurationError):
            ChaosSpec(deaths=-1)
        with pytest.raises(ConfigurationError):
            ChaosSpec(degradations=-1)

    def test_window_must_fit_the_horizon(self):
        with pytest.raises(ConfigurationError):
            ChaosSpec(horizon_ticks=100, window_ticks=101)
        with pytest.raises(ConfigurationError):
            ChaosSpec(extra_loss=0.0)

    def test_as_dict_roundtrips_the_fields(self):
        spec = ChaosSpec(deaths=3, degradations=2, horizon_ticks=500)
        assert ChaosSpec(**spec.as_dict()) == spec


class TestGenerateFaultPlan:
    SPEC = ChaosSpec(deaths=3, degradations=2, horizon_ticks=1000)

    def test_same_seed_same_plan(self):
        nodes = range(50)
        one = generate_fault_plan(self.SPEC, nodes=nodes, seed=7)
        two = generate_fault_plan(self.SPEC, nodes=nodes, seed=7)
        assert one.as_dict() == two.as_dict()

    def test_different_seeds_differ(self):
        nodes = range(50)
        one = generate_fault_plan(self.SPEC, nodes=nodes, seed=7)
        two = generate_fault_plan(self.SPEC, nodes=nodes, seed=8)
        assert one.as_dict() != two.as_dict()

    def test_protected_nodes_never_die(self):
        protect = (0, 1, 2)
        plan = generate_fault_plan(
            ChaosSpec(deaths=10), nodes=range(25), seed=3, protect=protect
        )
        killed = [n for death in plan.deaths for n in death.nodes]
        assert not set(killed) & set(protect)
        # A node dies at most once per scenario.
        assert len(killed) == len(set(killed))

    def test_faults_stay_within_the_horizon(self):
        plan = generate_fault_plan(self.SPEC, nodes=range(50), seed=5)
        assert all(1 <= d.at < 1000 for d in plan.deaths)
        for window in plan.degradations:
            assert window.until - window.start == self.SPEC.window_ticks
            assert window.extra_loss == self.SPEC.extra_loss

    def test_empty_spec_is_an_empty_plan(self):
        plan = generate_fault_plan(ChaosSpec(), nodes=range(10), seed=0)
        assert plan.deaths == () and plan.degradations == ()

    def test_cli_writes_loadable_fault_plan_json(self, tmp_path):
        out = tmp_path / "plan.json"
        rc = chaos_main(
            [
                "--seed", "4", "--nodes", "60", "--deaths", "2",
                "--degradations", "1", "--protect", "0", "--out", str(out),
            ]
        )
        assert rc == 0
        data = json.loads(out.read_text())
        plan = FaultPlan.from_dict(data)
        assert len(plan.deaths) == 2 and len(plan.degradations) == 1
        expected = generate_fault_plan(
            ChaosSpec(deaths=2, degradations=1),
            nodes=range(60),
            seed=4,
            protect=(0,),
        )
        assert plan.as_dict() == expected.as_dict()


def _partial(**overrides):
    fields = dict(
        events=[], forward_cost=10, reply_cost=5, depth_hops=4,
        visited_nodes=(1, 2), attempted_cells=4, answered_cells=2,
        unreachable_cells=("a", "b"), unreachable_nodes=(7, 8),
    )
    fields.update(overrides)
    return PartialResult(**fields)


class TestMergePartialResults:
    def test_complete_base_is_returned_untouched(self):
        base = QueryResult(events=[], forward_cost=3, reply_cost=1, depth_hops=2)
        patch = _partial()
        assert merge_partial_results(base, patch) is base

    def test_full_patch_restores_a_plain_result(self):
        base = _partial()
        patch = QueryResult(
            events=[], forward_cost=6, reply_cost=2, depth_hops=5,
            visited_nodes=(2, 3),
        )
        merged = merge_partial_results(base, patch)
        assert type(merged) is QueryResult
        assert merged.completeness == 1.0
        assert merged.forward_cost == 16 and merged.reply_cost == 7
        assert merged.depth_hops == 5
        assert merged.visited_nodes == (1, 2, 3)

    def test_partial_patch_keeps_the_remaining_gap(self):
        base = _partial()
        patch = _partial(
            forward_cost=4, reply_cost=0, attempted_cells=2, answered_cells=1,
            unreachable_cells=("b",), unreachable_nodes=(8,),
        )
        merged = merge_partial_results(base, patch)
        assert isinstance(merged, PartialResult)
        assert merged.answered_cells == 3 and merged.attempted_cells == 4
        assert merged.unreachable_cells == ("b",)
        assert merged.unreachable_nodes == (8,)
        assert merged.forward_cost == 14

    def test_events_are_deduplicated_preserving_order(self):
        base = _partial(events=["e1", "e2"])
        patch = QueryResult(
            events=["e2", "e3"], forward_cost=0, reply_cost=0, depth_hops=1
        )
        merged = merge_partial_results(base, patch)
        assert merged.events == ["e1", "e2", "e3"]

    def test_equal_readings_from_two_sensors_both_survive(self):
        # Event equality ignores source and seq; the merge must not.
        first = Event.of(0.5, 0.5, 0.5, source=1)
        second = Event.of(0.5, 0.5, 0.5, source=2)
        base = _partial(events=[first, second])
        patch = QueryResult(events=[], forward_cost=0, reply_cost=0, depth_hops=1)
        merged = merge_partial_results(base, patch)
        assert merged.match_count == 2
        assert merged.events[0] is first and merged.events[1] is second

    def test_redelivered_events_drop_once_each(self):
        # Only the patch's re-deliveries of base objects go, with
        # multiplicity; an equal but distinct object is a new match.
        shared = Event.of(0.2, 0.2, 0.2, source=1)
        twin = Event.of(0.2, 0.2, 0.2, source=3)
        fresh = Event.of(0.7, 0.1, 0.1, source=4)
        base = _partial(events=[shared, shared])
        patch = QueryResult(
            events=[shared, shared, shared, twin, fresh],
            forward_cost=0,
            reply_cost=0,
            depth_hops=1,
        )
        merged = merge_partial_results(base, patch)
        assert [id(e) for e in merged.events] == [
            id(shared), id(shared), id(shared), id(twin), id(fresh)
        ]

    def test_answered_count_never_exceeds_attempted(self):
        # Pool's cross-pool cell collision can over-retry; the merged
        # completeness must still cap at 1.0 of the *base* attempt.
        base = _partial(attempted_cells=3, answered_cells=2)
        patch = _partial(
            attempted_cells=3, answered_cells=3,
            unreachable_cells=(), unreachable_nodes=(),
        )
        merged = merge_partial_results(base, patch)
        # min(2 + 3, 3) answered of 3 attempted: fully restored.
        assert type(merged) is QueryResult
        assert merged.completeness == 1.0


@pytest.fixture
def pool(net300):
    system = PoolSystem(net300, 3, seed=11)
    for event in generate_events(300, 3, seed=3, sources=list(net300.topology)):
        system.insert(event)
    yield system
    system.close()


class TestRetryPlans:
    def test_pool_retry_plan_covers_only_missing_cells(self, pool):
        plan = pool.plan_query(0, QUERY)
        leg = plan.detail[0]
        missing_cell, missing_nodes = leg.cell_holders[0]
        result = _partial(
            attempted_cells=len(plan.cells),
            answered_cells=len(plan.cells) - 1,
            unreachable_cells=(missing_cell,),
            unreachable_nodes=tuple(sorted(missing_nodes)),
        )
        retry = pool.plan_retry(plan, result)
        assert retry is not None
        assert retry.share_key[0] == "pool-retry"
        # Only the missing cell's offsets survive, so the retry is a
        # strict subset of the original dissemination.
        assert all(cell == missing_cell for _, cell in _pool_cells(retry))
        assert set(retry.destinations) <= set(plan.destinations)
        assert len(retry.destinations) < len(plan.destinations)

    def test_pool_retry_is_none_when_nothing_is_missing(self, pool):
        plan = pool.plan_query(0, QUERY)
        complete = QueryResult(
            events=[], forward_cost=1, reply_cost=1, depth_hops=1
        )
        assert pool.plan_retry(plan, complete) is None
        empty = _partial(unreachable_cells=(), unreachable_nodes=())
        assert pool.plan_retry(plan, empty) is None

    def test_dim_retry_plan_targets_only_missing_zones(self, net300):
        index = DimIndex(net300, dimensions=3)
        for event in generate_events(200, 3, seed=5, sources=list(net300.topology)):
            index.insert(event)
        plan = index.plan_query(0, QUERY)
        zones = plan.detail.resolved
        assert len(zones) > 1
        missing = zones[0]
        result = _partial(
            attempted_cells=len(zones),
            answered_cells=len(zones) - 1,
            unreachable_cells=(missing.code,),
            unreachable_nodes=(missing.owner,),
        )
        retry = index.plan_retry(plan, result)
        assert retry is not None
        assert retry.share_key[0] == "dim-retry"
        assert retry.cells == (missing.code,)
        assert retry.destinations == (missing.owner,)
        index.close()


def _pool_cells(plan):
    """(pool, Cell) pairs from a Pool retry plan's leg detail."""
    return [
        (leg.pool, cell) for leg in plan.detail for cell in leg.cells
    ]


class TestCachePoisoningRegression:
    def test_partial_results_never_serve_later_cache_hits(self, pool, net300):
        """Regression: a lossy run must not poison the plan/result cache.

        Under 15% link loss the first two executions come back partial;
        they must be stored but *skipped* by lookups, so the first
        complete execution is what later requests hit.
        """
        layer = ReliabilityLayer(
            LossModel(0.15, seed=derive(0, "test-loss")), ArqPolicy(1)
        )
        layer.bind(net300.topology)
        net300.reliability = layer
        pool.network.reliability = layer
        requests = tuple(
            ServeRequest(request_id=i, time=float(i), sink=0, query=QUERY)
            for i in range(6)
        )
        cache = PlanResultCache()
        service = QueryService(pool, cache=cache)
        report = service.run(ServeSchedule(requests=requests, duration=7.0))
        service.close()
        outcomes = [s.outcome for s in report.served]
        assert outcomes == [
            "partial", "partial", "executed", "cache", "cache", "cache"
        ]
        assert cache.incomplete_skips == 2
        for served in report.served:
            if served.outcome == "cache":
                assert served.completeness == 1.0
                assert served.matches == report.served[2].matches


CHAOS_ARGS = dict(
    seed=0,
    size=100,
    duration=10.0,
    rate=3.0,
    pattern="bursts",
    systems=("pool",),
    loss_rate=0.08,
    chaos_deaths=2,
    chaos_degradations=1,
    queue_capacity=4,
    deadline_s=1.0,
    retry_budget=4,
    breaker_threshold=3,
)


class TestServeChaosDeterminism:
    def test_chaotic_run_reports_robust_schema_and_conditions(self):
        outcome = run_serve(**CHAOS_ARGS)
        assert outcome.robust
        payload = outcome.as_dict()
        assert payload["schema"] == "serve-run/2"
        conditions = payload["conditions"]
        assert conditions["loss_rate"] == 0.08
        assert conditions["chaos"]["deaths"] == 2
        assert len(conditions["fault_plan"]["deaths"]) == 2
        report = outcome.rows[0].cached
        assert report.offered == report.executed + report.cache_hits + (
            report.coalesced + report.partials + report.timeouts
            + report.shed + report.rejected + report.stale_served
        )
        assert 0.0 <= report.goodput <= 1.0

    def test_default_run_stays_on_schema_one(self):
        outcome = run_serve(
            seed=0, size=100, duration=5.0, rate=2.0, systems=("pool",)
        )
        assert not outcome.robust
        payload = outcome.as_dict()
        assert payload["schema"] == "serve-run/1"
        assert "conditions" not in payload

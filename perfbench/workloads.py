"""The three benchmark workloads and the round loop that drives them.

Every workload is a closed loop with one client: one process, one
thread, and the next call is issued only when the previous one returned.
A run is a sequence of *rounds*.  Each round builds everything afresh
(deployment, systems, service) and replays the same inputs, so rounds
are repeats of one another: the ledger must read the same in every
round, and set-up time is sampled once per round.  Rounds continue until
the timed phases add up to ``--seconds`` (at least :data:`MIN_ROUNDS`).

With tracing on, odd rounds install :class:`~measure.Tracer` wrappers
around the public methods of the objects they build; even rounds stay
untraced and give the reference for the tracing overhead.
"""

from __future__ import annotations

import gc
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, ClassVar

from measure import (
    CheckFailed,
    Meter,
    Totals,
    Tracer,
    brute_force,
    check_answer,
    percentile,
)
from repro.bench.harness import build_system
from repro.bench.workloads import ExperimentConfig
from repro.events.generators import EventWorkload, QueryWorkload
from repro.network.deployment import Deployment
from repro.network.network import Network
from repro.rng import derive
from repro.serve import PlanResultCache, QueryService, build_schedule
from repro.serve.report import OUTCOME_CACHE, OUTCOME_COALESCED, OUTCOME_EXECUTED
from repro.serve.schedule import ServeSchedule

__all__ = ["WORKLOADS", "MIN_ROUNDS", "RunResult", "run", "per_layer_names"]

#: Set-up is sampled once per round; three samples give a median.
MIN_ROUNDS = 3

#: Seed of each workload's fixed scenario: the field, Pool's pivots, the
#: query streams and the serve schedule.  ``--seed`` draws the events.
#: Pinning the scenario keeps seed-to-seed spread down to the event data:
#: with a fresh field per seed, ingest-3000's set-up time moved by up to
#: 45% and its hops per insert by 11% across four seeds.
SCENARIO_SEED = 2007

#: The paper's Section 5.1 parameters: radio range 40 m, ~20 neighbours,
#: alpha = 5 m, l = 10, 3-d events.
CONFIG = ExperimentConfig(
    name="perfbench",
    title="repository benchmark",
    query_workloads=(QueryWorkload(dimensions=3),),
)

#: Events per node, as in the paper's experiments.
EVENTS_PER_NODE = 3

#: The Figure 6/7 query shapes, issued round-robin in every query stream.
QUERY_MIX = (
    QueryWorkload(dimensions=3, kind="exact", range_sizes="uniform"),
    QueryWorkload(dimensions=3, kind="partial", unspecified=1),
    QueryWorkload(dimensions=3, kind="partial", unspecified=2),
)

SERVED_OK = (OUTCOME_EXECUTED, OUTCOME_CACHE, OUTCOME_COALESCED)


def _deploy(nodes: int, layers: dict[str, list[float]]) -> Deployment:
    """Deploy the pinned field and force lazy planarization, timing both."""
    started = perf_counter()
    deployment = Deployment.deploy(
        nodes,
        radio_range=CONFIG.radio_range,
        target_degree=CONFIG.target_degree,
        seed=derive(SCENARIO_SEED, "perfbench-topology", nodes),
    )
    placed = perf_counter()
    deployment.router.planar_adjacency
    layers["deploy.topology_s"].append(placed - started)
    layers["deploy.planarize_s"].append(perf_counter() - placed)
    return deployment


def _query_stream(count: int, key: str) -> list[Any]:
    """``count`` distinct queries cycling through :data:`QUERY_MIX`."""
    per_kind = [
        workload.generate(
            -(-count // len(QUERY_MIX)), seed=derive(SCENARIO_SEED, key, i)
        )
        for i, workload in enumerate(QUERY_MIX)
    ]
    return [per_kind[i % len(QUERY_MIX)][i // len(QUERY_MIX)] for i in range(count)]


def _events(count: int, nodes: int, seed: int, key: str) -> list[Any]:
    return EventWorkload(dimensions=3).generate(
        count, seed=derive(seed, key), sources=range(nodes)
    )


def _sink(deployment: Deployment) -> int:
    """The base-station sink: the node nearest the field centre."""
    topology = deployment.topology
    return topology.closest_node(topology.field.center)


def _install(tracer: Tracer, system: Any) -> None:
    """Wrap a storage system's public staged methods and its facade."""
    system.insert = tracer.wrap("insert", system.insert)
    system.plan_query = tracer.wrap(
        "plan", system.plan_query, lambda plan: len(plan.cells)
    )
    system.execute_plan = tracer.wrap(
        "execute", system.execute_plan, lambda execution: execution.total_cost
    )
    system.fold_replies = tracer.wrap(
        "fold", system.fold_replies, lambda result: len(result.events)
    )
    system.network.disseminate = tracer.wrap(
        "multicast", system.network.disseminate
    )


def _trace_router(tracer: Tracer, deployment: Deployment) -> None:
    deployment.router.path = tracer.wrap("gpsr.path", deployment.router.path)


@dataclass
class Round:
    """One round's timed phase: raw and calibrated call seconds."""

    raw_s: float
    scaled_s: float


class _Client:
    """The single closed-loop client of one round.

    Creating it starts the round: the meter takes its first speed probe.
    """

    def __init__(
        self, totals: Totals, tracer: Tracer, counters: Counter[str]
    ) -> None:
        self.totals = totals
        self.tracer = tracer
        self.counters = counters
        self.meter = Meter(totals)
        self.insert_msgs = 0
        self.inserts = 0
        self.query_msgs = 0
        self.queries = 0
        self._raw = self._scaled = 0.0

    def start_timing(self) -> None:
        """Collect garbage and freeze survivors, then open the timed phase."""
        gc.collect()
        gc.freeze()
        self._raw, self._scaled = self.meter.raw_s, self.meter.scaled_s

    def stop_timing(self) -> Round:
        self.meter.flush()
        gc.unfreeze()
        meter = self.meter
        return Round(meter.raw_s - self._raw, meter.scaled_s - self._scaled)

    @property
    def ledger(self) -> tuple[int, int, int, int]:
        return (self.insert_msgs, self.inserts, self.query_msgs, self.queries)

    def insert_all(
        self, system: Any, events: list[Any], stored: list[Any], label: str
    ) -> int:
        """Timed inserts, one call at a time; returns the receipts' hops."""
        meter = self.meter
        insert = system.insert
        router = system.network.router
        paths_before = router.cached_paths
        receipts = []
        for event in events:
            started = perf_counter()
            receipts.append(insert(event))
            meter.insert(started, perf_counter())
        self.counters[f"{label}.new_paths"] += router.cached_paths - paths_before
        self.counters[f"{label}.inserts"] += len(receipts)
        totals = self.totals
        hops = 0
        for event, receipt in zip(events, receipts):
            totals.attempted += 1
            if receipt.delivered:
                stored.append(event)
            else:
                totals.failed += 1
            hops += receipt.hops
        totals.insert_msgs += hops
        self.insert_msgs += hops
        self.inserts += len(receipts)
        return hops

    def query_all(
        self, system: Any, sink: int, queries: list[Any], check_every: int
    ) -> tuple[int, list[tuple[Any, Any]]]:
        """Timed plan -> execute -> fold per query.

        Returns the messages the results account for and sampled
        ``(query, result)`` pairs for the answer check.
        """
        meter = self.meter
        plan_query = system.plan_query
        execute_plan = system.execute_plan
        fold_replies = system.fold_replies
        results = []
        for query in queries:
            started = perf_counter()
            plan = plan_query(sink, query)
            results.append(fold_replies(plan, execute_plan(plan)))
            meter.query(started, perf_counter())
        totals = self.totals
        cost = 0
        for result in results:
            cost += result.total_cost
            totals.attempted += 1
            if result.is_partial:
                totals.failed += 1
        totals.query_msgs += cost
        self.query_msgs += cost
        self.queries += len(queries)
        samples = [
            (queries[i], results[i]) for i in range(0, len(queries), check_every)
        ]
        return cost, samples


def _check_samples(
    label: str, samples: list[tuple[Any, Any]], stored: list[Any]
) -> None:
    for i, (query, result) in enumerate(samples):
        check_answer(f"{label} sample {i}", result, brute_force(stored, query))


def _check_ledger(label: str, system: Any, checkpoint: Any, expected: int) -> None:
    charged = sum(system.network.stats.delta(checkpoint).values())
    if charged != expected:
        raise CheckFailed(
            f"{label}: ledger charged {charged} messages, results and "
            f"receipts account for {expected}"
        )


# --------------------------------------------------------------------- #
# query-fig7                                                            #
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class QueryFig7:
    """Read path at the paper's Figure 7 size, routes warm, no repeats.

    The initial load is part of set-up and gives the insert metrics.
    """

    nodes: int = 900
    queries: int = 1800
    warmup_queries: int = 90
    check_every: int = 60
    systems: ClassVar = ("pool", "dim")
    insert_phase: ClassVar = "load"

    def inputs(self, seed: int) -> dict[str, Any]:
        return {
            "events": _events(
                EVENTS_PER_NODE * self.nodes, self.nodes, seed, "fig7-events"
            ),
            "warmup": _query_stream(self.warmup_queries, "fig7-warmup"),
            "queries": _query_stream(self.queries, "fig7-queries"),
        }

    def round(
        self,
        inputs: dict[str, Any],
        client: _Client,
        traced: bool,
        check: bool,
        layers: dict[str, list[float]],
    ) -> Round:
        tracer = client.tracer
        deployment = _deploy(self.nodes, layers)
        client.meter.lap()
        if traced:
            _trace_router(tracer, deployment)
        router = deployment.router
        root = Network(deployment=deployment)
        sink = _sink(deployment)
        systems: dict[str, Any] = {}
        checkpoints: dict[str, Any] = {}
        stored: dict[str, list[Any]] = {}
        expected: dict[str, int] = {}
        # The load is timed too: keep full collections off the field.
        gc.collect()
        gc.freeze()
        for name in self.systems:
            system = build_system(name, root.scope(name), CONFIG, SCENARIO_SEED)
            if traced:
                _install(tracer, system)
            systems[name] = system
            checkpoints[name] = system.network.stats.checkpoint()
            stored[name] = []
            tracer.context = ("load", name)
            expected[name] = client.insert_all(
                system, inputs["events"], stored[name], name
            )
        client.meter.flush()
        tracer.context = ("warmup", "-")
        warmup_s = 0.0
        for name, system in systems.items():
            warm_started = perf_counter()
            for source, dest in _warm_routes(name, system, sink):
                router.path(source, dest)
            warmup_s += perf_counter() - warm_started
            client.meter.lap()
            for query in inputs["warmup"]:
                expected[name] += system.query(sink, query).total_cost
            client.meter.lap()
        layers["deploy.route_warmup_s"].append(warmup_s)
        client.meter.setup_done()
        client.start_timing()
        samples: dict[str, list[tuple[Any, Any]]] = {}
        for name, system in systems.items():
            tracer.context = ("timed", name)
            cost, samples[name] = client.query_all(
                system, sink, inputs["queries"], self.check_every
            )
            expected[name] += cost
        timed = client.stop_timing()
        tracer.context = ("check", "-")
        for name, system in systems.items():
            _check_ledger(name, system, checkpoints[name], expected[name])
            if check:
                _check_samples(name, samples[name], stored[name])
        return timed


def _warm_routes(name: str, system: Any, sink: int) -> list[tuple[int, int]]:
    """Every route a query from ``sink`` can take.

    Pool disseminates sink -> splitter, then splitter -> index nodes;
    DIM disseminates sink -> zone owners.
    """
    if name == "pool":
        index_nodes = sorted(system.index_nodes())
        routes = []
        for pool in range(system.dimensions):
            splitter = system.splitter(sink, pool)
            routes.append((sink, splitter))
            routes.extend((splitter, node) for node in index_nodes)
        return routes
    return [(sink, owner) for owner in sorted({leaf.owner for leaf in system.tree.leaves})]


# --------------------------------------------------------------------- #
# ingest-3000                                                           #
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Ingest3000:
    """Write path at the paper's largest Figure 6 size, routes cold."""

    nodes: int = 3000
    queries: int = 270
    check_every: int = 18
    systems: ClassVar = ("pool", "dim")
    insert_phase: ClassVar = "timed"

    def inputs(self, seed: int) -> dict[str, Any]:
        return {
            "events": _events(
                EVENTS_PER_NODE * self.nodes, self.nodes, seed, "ingest-events"
            ),
            "queries": _query_stream(self.queries, "ingest-queries"),
        }

    def round(
        self,
        inputs: dict[str, Any],
        client: _Client,
        traced: bool,
        check: bool,
        layers: dict[str, list[float]],
    ) -> Round:
        tracer = client.tracer
        systems: dict[str, tuple[Any, int]] = {}
        for name in self.systems:
            # A deployment per system: both insert against a cold cache.
            deployment = _deploy(self.nodes, layers)
            client.meter.lap()
            if traced:
                _trace_router(tracer, deployment)
            system = build_system(
                name, Network(deployment=deployment), CONFIG, SCENARIO_SEED
            )
            client.meter.lap()
            if traced:
                _install(tracer, system)
            systems[name] = (system, _sink(deployment))
        client.meter.setup_done()
        checkpoints = {
            name: system.network.stats.checkpoint()
            for name, (system, _) in systems.items()
        }
        client.start_timing()
        outcomes = {}
        for name, (system, sink) in systems.items():
            stored: list[Any] = []
            tracer.context = ("timed", name)
            hops = client.insert_all(system, inputs["events"], stored, name)
            cost, samples = client.query_all(
                system, sink, inputs["queries"], self.check_every
            )
            outcomes[name] = (system, hops + cost, samples, stored)
        timed = client.stop_timing()
        tracer.context = ("check", "-")
        for name, (system, expected, samples, stored) in outcomes.items():
            _check_ledger(name, system, checkpoints[name], expected)
            if check:
                _check_samples(name, samples, stored)
        return timed


# --------------------------------------------------------------------- #
# serve-diurnal-rw                                                      #
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class ServeDiurnalRW:
    """Pool behind the cached, coalescing service; reads beside writes.

    The diurnal schedule is cut into arrival windows of ``window_s``
    simulated seconds; the client hands each non-empty window to one
    ``QueryService.run`` call, and after every window inserts one fresh
    event, whose insert listeners invalidate cache entries.
    """

    nodes: int = 900
    duration_s: float = 2000.0
    rate: float = 4.0
    check_every_windows: int = 25
    window_s: ClassVar = 0.2
    unique_queries: ClassVar = 8
    sinks: ClassVar = 3
    systems: ClassVar = ("pool",)
    insert_phase: ClassVar = "timed"

    @property
    def windows(self) -> int:
        return round(self.duration_s / self.window_s)

    def inputs(self, seed: int) -> dict[str, Any]:
        return {
            "events": _events(
                EVENTS_PER_NODE * self.nodes, self.nodes, seed, "serve-events"
            ),
            "fresh": _events(self.windows, self.nodes, seed, "serve-fresh-events"),
            "windows": self._windows(),
        }

    def _sinks(self, topology: Any) -> list[int]:
        """The base station plus quadrant centres, deduplicated."""
        field = topology.field
        points = [
            field.center,
            (field.x_min + field.width * 0.25, field.y_min + field.height * 0.25),
            (field.x_min + field.width * 0.75, field.y_min + field.height * 0.75),
            (field.x_min + field.width * 0.25, field.y_min + field.height * 0.75),
            (field.x_min + field.width * 0.75, field.y_min + field.height * 0.25),
        ]
        nodes = dict.fromkeys(topology.closest_node(tuple(p)) for p in points)
        return list(nodes)[: self.sinks]

    def _windows(self) -> list[list[Any]]:
        """The pinned diurnal schedule, cut into arrival windows."""
        topology = _deploy(self.nodes, defaultdict(list)).topology
        schedule = build_schedule(
            workload=QueryWorkload(dimensions=3, kind="exact", range_sizes="exponential"),
            sinks=self._sinks(topology),
            duration=self.duration_s,
            rate=self.rate,
            seed=derive(SCENARIO_SEED, "serve-schedule"),
            pattern="diurnal",
            repeat_fraction=0.75,
            unique_queries=self.unique_queries,
        )
        windows: list[list[Any]] = [[] for _ in range(self.windows)]
        for request in schedule.requests:
            index = min(int(request.time / self.window_s), self.windows - 1)
            windows[index].append(request)
        return windows

    def round(
        self,
        inputs: dict[str, Any],
        client: _Client,
        traced: bool,
        check: bool,
        layers: dict[str, list[float]],
    ) -> Round:
        tracer = client.tracer
        totals = client.totals
        counters = client.counters
        meter = client.meter
        deployment = _deploy(self.nodes, layers)
        meter.lap()
        if traced:
            _trace_router(tracer, deployment)
        system = build_system("pool", Network(deployment=deployment), CONFIG, SCENARIO_SEED)
        checkpoint = system.network.stats.checkpoint()
        stored: list[Any] = []
        load_hops = 0
        for event in inputs["events"]:
            receipt = system.insert(event)
            if not receipt.delivered:
                raise CheckFailed("serve: the initial load lost an event")
            load_hops += receipt.hops
            stored.append(event)
            meter.lap()
        cache = PlanResultCache()
        service = QueryService(
            system,
            name="pool",
            cache=cache,
            batch_window=self.window_s,
            hop_latency=0.01,
            slo_target_s=0.5,
        )
        if traced:
            _install(tracer, system)
            service.run = tracer.wrap(
                "serve.run", service.run, lambda report: len(report.served)
            )
            cache.invalidate_cell = tracer.wrap(
                "cache.invalidate", cache.invalidate_cell
            )
        meter.setup_done()
        hits, misses, invalidations = cache.hits, cache.misses, cache.invalidations
        fresh = iter(inputs["fresh"])
        served_messages = 0
        check_messages = 0
        client.start_timing()
        tracer.context = ("timed", "pool")
        try:
            for index, requests in enumerate(inputs["windows"]):
                if requests:
                    call = perf_counter()
                    report = service.run(
                        ServeSchedule(requests=tuple(requests), duration=self.window_s)
                    )
                    ended = perf_counter()
                    meter.batch(call, ended)
                    meter.query(call, ended, len(requests))
                    for served in report.served:
                        totals.attempted += 1
                        served_messages += served.messages
                        counters[f"serve.{served.outcome}"] += 1
                        if served.outcome not in SERVED_OK:
                            totals.failed += 1
                    if check and index % self.check_every_windows == 0:
                        tracer.context = ("check", "-")
                        check_messages += _check_window(
                            system, requests, report, stored
                        )
                        tracer.context = ("timed", "pool")
                client.insert_all(system, [next(fresh)], stored, "pool")
        finally:
            timed = client.stop_timing()
            service.close()
        tracer.context = ("check", "-")
        requests_served = sum(len(requests) for requests in inputs["windows"])
        totals.query_msgs += served_messages
        client.query_msgs += served_messages
        client.queries += requests_served
        counters["cache.hits"] += cache.hits - hits
        counters["cache.lookups"] += cache.hits + cache.misses - hits - misses
        counters["cache.invalidations"] += cache.invalidations - invalidations
        _check_ledger(
            "serve",
            system,
            checkpoint,
            load_hops + client.insert_msgs + served_messages + check_messages,
        )
        return timed


def _check_window(
    system: Any, requests: list[Any], report: Any, stored: list[Any]
) -> int:
    """Check one served window against brute force; returns messages spent.

    Every request's match count must equal a scan of the events stored
    so far; a cache hit is also re-executed fresh and its events compared.
    """
    spent = 0
    served = {entry.request_id: entry for entry in report.served}
    for request in requests:
        entry = served[request.request_id]
        expected = brute_force(stored, request.query)
        if entry.matches != sum(expected.values()):
            raise CheckFailed(
                f"serve request {request.request_id} ({entry.outcome}): "
                f"{entry.matches} matches, brute force {sum(expected.values())}"
            )
        if entry.outcome == OUTCOME_CACHE:
            plan = system.plan_query(request.sink, request.query)
            result = system.fold_replies(plan, system.execute_plan(plan))
            spent += result.total_cost
            check_answer(f"serve cache hit {request.request_id}", result, expected)
    return spent


WORKLOADS: dict[str, Callable[[], Any]] = {
    "query-fig7": QueryFig7,
    "ingest-3000": Ingest3000,
    "serve-diurnal-rw": ServeDiurnalRW,
}


# --------------------------------------------------------------------- #
# The run loop and its metrics                                          #
# --------------------------------------------------------------------- #


@dataclass
class RunResult:
    """One run's metrics plus the counts the result line needs."""

    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    rounds: int
    layer_table: list[str]
    #: Median calibration factor: reference speed / measured speed.
    speed_factor: float


def run(workload: Any, seed: int, seconds: float, trace: bool) -> RunResult:
    """Run rounds of ``workload`` until ``seconds`` of timed phase, then report."""
    inputs = workload.inputs(seed)
    totals = Totals()
    tracer = Tracer()
    counters: Counter[str] = Counter()
    layers: dict[str, list[float]] = defaultdict(list)
    timed: dict[bool, list[Round]] = {True: [], False: []}
    untraced_batches: list[float] = []
    rounds = 0
    while rounds < MIN_ROUNDS or sum(r.raw_s for rs in timed.values() for r in rs) < seconds:
        traced = trace and rounds % 2 == 1
        batches_before = len(totals.batch_us)
        client = _Client(totals, tracer, counters)
        timed[traced].append(
            workload.round(inputs, client, traced, rounds == 0, layers)
        )
        totals.close_round(client.ledger)
        if not traced:
            untraced_batches.extend(totals.batch_us[batches_before:])
        rounds += 1
        gc.collect()
    if trace:
        metrics = _per_layer(
            workload, tracer, counters, layers, totals, timed, untraced_batches
        )
        table = _layer_table(tracer, sum(r.raw_s for r in timed[True]))
    else:
        metrics, table = totals.end_to_end(), []
    return RunResult(
        metrics, totals.attempted, totals.failed, rounds, table,
        _median(totals.factors),
    )


#: Per-system layer metrics, in report order: name -> unit.
SYSTEM_LAYERS = {
    "insert.self_us": "us",
    "gpsr.path_us": "us",
    "gpsr.new_paths_per_insert": "count",
    "plan.us": "us",
    "plan.cells_per_query": "count",
    "execute.us": "us",
    "execute.msgs": "count",
    "multicast.disseminate_us": "us",
    "fold.us": "us",
    "fold.events_returned": "count",
}

#: Layer metrics reported once per workload: name -> unit.
GLOBAL_LAYERS = {
    "deploy.topology_s": "s",
    "deploy.planarize_s": "s",
    "deploy.route_warmup_s": "s",
    "cache.hit_ratio": "ratio",
    "cache.invalidations_per_insert": "count",
    "cache.invalidate_us": "us",
    "serve.executions_per_request": "ratio",
    "serve.self_us_per_request": "us",
    "serve.batch_us_p50": "us",
    "serve.batch_us_p99": "us",
    "fail_ratio": "ratio",
    "residual_share": "ratio",
    "trace.overhead_share": "ratio",
}

ALL_SYSTEMS = ("pool", "dim")


def per_layer_names() -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    names = {
        f"{system}.{layer}": unit
        for system in ALL_SYSTEMS
        for layer, unit in SYSTEM_LAYERS.items()
    }
    names.update(GLOBAL_LAYERS)
    return names


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    return ordered[len(ordered) // 2] if ordered else 0.0


def _per_layer(
    workload: Any,
    tracer: Tracer,
    counters: Counter[str],
    layers: dict[str, list[float]],
    totals: Totals,
    timed: dict[bool, list[Round]],
    untraced_batches: list[float],
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the traced rounds (raw, uncalibrated seconds).

    A metric of a layer the workload does not run reads 0.
    """
    self_s, inclusive, calls, amount = (
        tracer.self_s, tracer.inclusive_s, tracer.calls, tracer.amount,
    )
    values: dict[str, float] = dict.fromkeys(per_layer_names(), 0.0)
    for system in workload.systems:
        phase = workload.insert_phase

        def us_per_call(layer: str, per: str | None = None) -> float:
            """Inclusive microseconds of ``layer`` per call of ``per``."""
            key = ("timed", system, layer)
            return _ratio(inclusive[key] * 1e6, calls[("timed", system, per or layer)])

        def amount_per_call(layer: str) -> float:
            key = ("timed", system, layer)
            return _ratio(amount[key], calls[key])

        requests = amount[("timed", system, "serve.run")]
        operations = calls[("timed", system, "insert")] + (
            requests or calls[("timed", system, "plan")]
        )
        values[f"{system}.insert.self_us"] = _ratio(
            self_s[(phase, system, "insert")] * 1e6, calls[(phase, system, "insert")]
        )
        values[f"{system}.gpsr.path_us"] = _ratio(
            inclusive[("timed", system, "gpsr.path")] * 1e6, operations
        )
        values[f"{system}.gpsr.new_paths_per_insert"] = _ratio(
            counters[f"{system}.new_paths"], counters[f"{system}.inserts"]
        )
        values[f"{system}.plan.us"] = us_per_call("plan")
        values[f"{system}.plan.cells_per_query"] = amount_per_call("plan")
        values[f"{system}.execute.us"] = us_per_call("execute")
        values[f"{system}.execute.msgs"] = amount_per_call("execute")
        values[f"{system}.multicast.disseminate_us"] = us_per_call("multicast", "execute")
        values[f"{system}.fold.us"] = us_per_call("fold")
        values[f"{system}.fold.events_returned"] = amount_per_call("fold")
    values["deploy.topology_s"] = _median(layers["deploy.topology_s"])
    values["deploy.planarize_s"] = _median(layers["deploy.planarize_s"])
    values["deploy.route_warmup_s"] = _median(layers["deploy.route_warmup_s"])
    requests = amount[("timed", "pool", "serve.run")]
    if requests:
        served = sum(v for k, v in counters.items() if k.startswith("serve."))
        values["cache.hit_ratio"] = _ratio(counters["cache.hits"], counters["cache.lookups"])
        values["cache.invalidations_per_insert"] = _ratio(
            counters["cache.invalidations"], counters["pool.inserts"]
        )
        values["cache.invalidate_us"] = _ratio(
            inclusive[("timed", "pool", "cache.invalidate")] * 1e6,
            calls[("timed", "pool", "insert")],
        )
        values["serve.executions_per_request"] = _ratio(
            counters[f"serve.{OUTCOME_EXECUTED}"], served
        )
        values["serve.self_us_per_request"] = _ratio(
            self_s[("timed", "pool", "serve.run")] * 1e6, requests
        )
        values["serve.batch_us_p50"] = percentile(untraced_batches, 0.50)
        values["serve.batch_us_p99"] = percentile(untraced_batches, 0.99)
    values["fail_ratio"] = _ratio(totals.failed, totals.attempted)
    traced_raw = sum(r.raw_s for r in timed[True])
    values["residual_share"] = _ratio(
        traced_raw - tracer.total_self("timed"), traced_raw
    )
    # Calibrated seconds per round, so host speed drift between the
    # traced and untraced rounds does not read as tracing cost.
    traced_mean = sum(r.scaled_s for r in timed[True]) / len(timed[True])
    untraced_mean = sum(r.scaled_s for r in timed[False]) / len(timed[False])
    values["trace.overhead_share"] = traced_mean / untraced_mean - 1.0
    units = per_layer_names()
    return {name: (values[name], units[name]) for name in units}


def _layer_table(tracer: Tracer, traced_raw: float) -> list[str]:
    """Calls, inclusive and self seconds per (phase, system, layer).

    ``self%`` is the share of the traced timed phase; load-phase rows
    (query-fig7's inserts, part of set-up) show none.
    """
    lines = [
        f"{'phase':6} {'system':6} {'layer':18} {'calls':>9} {'incl_s':>9} "
        f"{'self_s':>9} {'self%':>6}"
    ]
    for key in sorted(k for k in tracer.self_s if k[0] in ("load", "timed")):
        phase, system, layer = key
        share = (
            f"{100 * _ratio(tracer.self_s[key], traced_raw):6.1f}"
            if phase == "timed"
            else ""
        )
        lines.append(
            f"{phase:6} {system:6} {layer:18} {tracer.calls[key]:9d} "
            f"{tracer.inclusive_s[key]:9.3f} {tracer.self_s[key]:9.3f} {share:>6}"
        )
    residual = traced_raw - tracer.total_self("timed")
    lines.append(
        f"{'timed':6} {'-':6} {'residual':18} {'':9} {'':9} {residual:9.3f} "
        f"{100 * _ratio(residual, traced_raw):6.1f}"
    )
    return lines

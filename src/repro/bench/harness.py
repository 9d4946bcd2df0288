"""The experiment runner.

For every ``(network size, trial)`` pair the runner builds one shared
:class:`~repro.network.deployment.Deployment` — the topology is built
exactly once per cell, and each GPSR route and planar row at most once —
and feeds the *same* events and queries to every system under test.
Each system runs on its own scoped :class:`~repro.network.network.Network`
facade over that deployment, so accounting never bleeds between systems
while the expensive routing state warms up across all of them.  Per query it
records the paper's metric — query-forward plus query-reply messages —
and aggregates means over queries and trials.

Cells are independent, which is what makes the grid embarrassingly
parallel: ``run_experiment(..., jobs=N)`` fans the ``(size, trial)``
cells out over a :class:`concurrent.futures.ProcessPoolExecutor` and
merges the per-cell samples back in deterministic cell order, so a
parallel run emits exactly the rows of a serial run.

The runner is deterministic from a single seed: topology, events and
queries derive independent RNG streams via :func:`repro.rng.derive`, and
the derivation keys include ``(size, trial)`` so a cell's artifacts never
depend on which worker (or in which order) it executes.
"""

from __future__ import annotations

import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable

from repro.baselines.external import ExternalStorage
from repro.baselines.flooding import LocalStorageFlooding
from repro.bench.workloads import ExperimentConfig
from repro.core.sharing import SharingPolicy
from repro.core.system import PoolSystem
from repro.dcs import DataCentricStore
from repro.difs.index import DifsIndex
from repro.dim.index import DimIndex
from repro.exceptions import ConfigurationError
from repro.network.deployment import Deployment
from repro.network.network import Network
from repro.network.reliability import ArqPolicy, LossModel, ReliabilityLayer
from repro.network.topology import Topology
from repro.obs.recorder import FlightRecorder
from repro.rng import derive
from repro.telemetry.export import collect_system_record
from repro.telemetry.spans import SpanRecorder

__all__ = ["ResultRow", "ExperimentResult", "run_experiment", "build_system"]

ProgressFn = Callable[[str], None]


@dataclass(slots=True)
class ResultRow:
    """Aggregated measurements for one (size, workload, system) cell."""

    size: int
    workload: str
    system: str
    trials: int
    queries: int
    mean_cost: float
    std_cost: float
    mean_forward: float
    mean_reply: float
    mean_matches: float
    mean_insert_hops: float
    mean_visited_nodes: float
    mean_depth_hops: float = 0.0
    # Reliability view (populated only when the run used a lossy channel):
    # mean per-query completeness and delivered-vs-attempted hop
    # transmissions summed over the cell's queries.
    mean_completeness: float = 1.0
    attempted_messages: int = 0
    delivered_messages: int = 0
    # Wall-clock trajectory (seconds, means over trials).  Not part of
    # the deterministic row identity: two runs of the same seed agree on
    # every field above but naturally differ here.
    build_seconds: float = 0.0
    insert_seconds: float = 0.0
    query_seconds: float = 0.0

    def as_dict(
        self, *, include_timings: bool = True
    ) -> dict[str, float | int | str | dict[str, float]]:
        """JSON-ready view of the row.

        ``include_timings=False`` drops the wall-clock sub-object,
        leaving exactly the seed-deterministic fields — the form the
        serial-vs-parallel equivalence tests compare.
        """
        payload: dict[str, float | int | str | dict[str, float]] = {
            "size": self.size,
            "workload": self.workload,
            "system": self.system,
            "trials": self.trials,
            "queries": self.queries,
            "mean_cost": round(self.mean_cost, 2),
            "std_cost": round(self.std_cost, 2),
            "mean_forward": round(self.mean_forward, 2),
            "mean_reply": round(self.mean_reply, 2),
            "mean_matches": round(self.mean_matches, 2),
            "mean_insert_hops": round(self.mean_insert_hops, 2),
            "mean_visited_nodes": round(self.mean_visited_nodes, 2),
            "mean_depth_hops": round(self.mean_depth_hops, 2),
        }
        if self.attempted_messages:
            # Only lossy runs carry the reliability fields, so lossless
            # exports stay byte-identical to pre-reliability baselines.
            payload["mean_completeness"] = round(self.mean_completeness, 6)
            payload["attempted_messages"] = self.attempted_messages
            payload["delivered_messages"] = self.delivered_messages
        if include_timings:
            payload["timings"] = {
                "build_seconds": round(self.build_seconds, 6),
                "insert_seconds": round(self.insert_seconds, 6),
                "query_seconds": round(self.query_seconds, 6),
            }
        return payload


@dataclass(slots=True)
class ExperimentResult:
    """All rows of one experiment, with series accessors for assertions."""

    name: str
    title: str
    paper_claim: str
    rows: list[ResultRow] = field(default_factory=list)
    #: Telemetry records (one per (size, trial, system) cell-slice, in
    #: fixed cell order) when the run was launched with ``telemetry=True``;
    #: empty otherwise.  Export with
    #: :func:`repro.telemetry.export.write_telemetry_jsonl`.
    telemetry: list[dict[str, Any]] = field(default_factory=list)

    def series(self, system: str, workload: str | None = None) -> list[tuple[int, float]]:
        """``(size, mean_cost)`` points for one system (and workload)."""
        return [
            (row.size, row.mean_cost)
            for row in self.rows
            if row.system == system
            and (workload is None or row.workload == workload)
        ]

    def by_workload(self, system: str, size: int) -> list[tuple[str, float]]:
        """``(workload, mean_cost)`` categories at a fixed size."""
        return [
            (row.workload, row.mean_cost)
            for row in self.rows
            if row.system == system and row.size == size
        ]

    def cell(self, system: str, size: int, workload: str) -> ResultRow:
        for row in self.rows:
            if (
                row.system == system
                and row.size == size
                and row.workload == workload
            ):
                return row
        raise KeyError(f"no row for ({system}, {size}, {workload!r})")

    def as_dict(self, *, include_timings: bool = True) -> dict[str, object]:
        return {
            "name": self.name,
            "title": self.title,
            "paper_claim": self.paper_claim,
            "rows": [
                row.as_dict(include_timings=include_timings) for row in self.rows
            ],
        }


def build_system(
    name: str, network: Network, config: ExperimentConfig, seed: int
) -> DataCentricStore:
    """Instantiate a system under test by registry name.

    Names: ``"pool"`` (paper configuration), ``"pool-direct"`` (forwarding
    tree rooted at the sink instead of the splitter — ablation),
    ``"pool-l<N>"`` (side length override, e.g. ``pool-l20``), ``"dim"``
    (the paper's baseline), ``"difs"`` (single-attribute predecessor),
    ``"flooding"`` and ``"external"`` (the classical non-DCS extremes).

    Every system scopes its own ledger off ``network`` at construction,
    so one facade (over one shared deployment) can host all of them.
    """
    if name == "dim":
        return DimIndex(network, config.dimensions)
    if name == "difs":
        return DifsIndex(network, config.dimensions)
    if name == "flooding":
        return LocalStorageFlooding(network, config.dimensions)
    if name == "external":
        return ExternalStorage(network, config.dimensions)
    if name == "pool" or name.startswith("pool-"):
        side_length = config.side_length
        route_via_splitter = config.route_via_splitter
        if name == "pool-direct":
            route_via_splitter = False
        elif name.startswith("pool-l"):
            try:
                side_length = int(name[len("pool-l") :])
            except ValueError:
                raise ConfigurationError(
                    f"bad side-length system name {name!r}"
                ) from None
        elif name != "pool":
            raise ConfigurationError(f"unknown system under test {name!r}")
        sharing = (
            SharingPolicy(enabled=True, capacity=config.sharing_capacity)
            if config.sharing_capacity is not None
            else SharingPolicy()
        )
        return PoolSystem(
            network,
            config.dimensions,
            cell_size=config.cell_size,
            side_length=side_length,
            seed=derive(seed, "pivots"),
            sharing=sharing,
            route_via_splitter=route_via_splitter,
        )
    raise ConfigurationError(f"unknown system under test {name!r}")


def _sink_node(topology: Topology) -> int:
    """The query sink: the node nearest the field center (base station)."""
    return topology.closest_node(topology.field.center)


def _make_reliability(
    config: ExperimentConfig, seed: int, size: int, trial: int
) -> ReliabilityLayer | None:
    """One reliability layer per system run, or ``None`` on perfect links.

    The loss stream derives from ``(seed, size, trial)`` — not from the
    system name — so every system under test faces the *same* channel
    conditions, and the layer is rebuilt per system so counters and
    fault-plan deaths never bleed between systems.
    """
    if config.loss_rate == 0.0 and config.fault_plan is None:
        return None
    return ReliabilityLayer(
        loss=LossModel(config.loss_rate, seed=derive(seed, "loss", size, trial)),
        arq=ArqPolicy(retry_limit=config.retry_limit),
        fault_plan=config.fault_plan,
    )


@dataclass(slots=True)
class _CellSamples:
    """Per-query samples accumulated across trials for one result cell."""

    costs: list[float] = field(default_factory=list)
    forwards: list[float] = field(default_factory=list)
    replies: list[float] = field(default_factory=list)
    matches: list[float] = field(default_factory=list)
    visited: list[float] = field(default_factory=list)
    insert_hops: list[float] = field(default_factory=list)
    depths: list[float] = field(default_factory=list)
    completeness: list[float] = field(default_factory=list)
    attempted: list[int] = field(default_factory=list)
    delivered: list[int] = field(default_factory=list)
    build_s: list[float] = field(default_factory=list)
    insert_s: list[float] = field(default_factory=list)
    query_s: list[float] = field(default_factory=list)

    def merge(self, other: "_CellSamples") -> None:
        """Append ``other``'s samples (one grid cell) onto this one."""
        self.costs.extend(other.costs)
        self.forwards.extend(other.forwards)
        self.replies.extend(other.replies)
        self.matches.extend(other.matches)
        self.visited.extend(other.visited)
        self.insert_hops.extend(other.insert_hops)
        self.depths.extend(other.depths)
        self.completeness.extend(other.completeness)
        self.attempted.extend(other.attempted)
        self.delivered.extend(other.delivered)
        self.build_s.extend(other.build_s)
        self.insert_s.extend(other.insert_s)
        self.query_s.extend(other.query_s)


# Per-(size, trial) grid-cell output: samples keyed by (workload label,
# system name) plus the cell's telemetry records.
_CellResult = tuple[dict[tuple[str, str], "_CellSamples"], list[dict[str, Any]]]


def _run_cell(
    config: ExperimentConfig,
    seed: int,
    size: int,
    trial: int,
    progress: ProgressFn | None = None,
    *,
    telemetry: bool = False,
) -> _CellResult:
    """Run one (size, trial) grid cell: every system, every workload.

    One deployment is built here and shared by all systems through scoped
    facades.  Top-level so the process pool can pickle it; all RNG
    streams derive from ``(seed, size, trial)``, making the result
    independent of which worker runs the cell.

    With ``telemetry=True``, each system gets a
    :class:`~repro.telemetry.spans.SpanRecorder` on its facade and the
    second element carries one JSON-ready record per system (in
    ``config.systems`` order — the fixed order the harness merges in).
    """
    build_started = perf_counter()
    deployment = Deployment.deploy(
        size,
        radio_range=config.radio_range,
        target_degree=config.target_degree,
        seed=derive(seed, "topology", size, trial),
    )
    build_seconds = perf_counter() - build_started
    return _run_cell_systems(
        config,
        seed,
        size,
        trial,
        progress,
        telemetry=telemetry,
        deployment=deployment,
        build_seconds=build_seconds,
    )


def _run_cell_systems(
    config: ExperimentConfig,
    seed: int,
    size: int,
    trial: int,
    progress: ProgressFn | None = None,
    *,
    telemetry: bool,
    deployment: Deployment,
    build_seconds: float,
) -> _CellResult:
    """The body of :func:`_run_cell` once the deployment exists."""
    root = Network(deployment=deployment)
    sink = _sink_node(deployment.topology)
    events = config.event_workload.generate(
        config.events_per_node * size,
        seed=derive(seed, "events", size, trial),
        sources=list(deployment.topology),
    )
    query_sets = [
        (
            workload.describe(),
            workload.generate(
                config.query_count,
                seed=derive(seed, "queries", size, trial, wi),
            ),
        )
        for wi, workload in enumerate(config.query_workloads)
    ]
    samples: dict[tuple[str, str], _CellSamples] = {}
    records: list[dict[str, Any]] = []
    for system_name in config.systems:
        if progress is not None:
            progress(
                f"[{config.name}] n={size} trial={trial + 1}/"
                f"{config.trials} system={system_name}"
            )
        facade = root.scope(system_name)
        recorder: SpanRecorder | None = None
        if telemetry:
            recorder = SpanRecorder(label=system_name)
            # Set before the system scopes its own ledger off the facade
            # so the recorder propagates to every scope below.
            facade.telemetry = recorder
        if telemetry and config.flight_recorder:
            # Same placement rule; one ring per system so packet ids are
            # a per-system sequence (the replay CLI's key).
            facade.flight_recorder = FlightRecorder()
        reliability = _make_reliability(config, seed, size, trial)
        if reliability is not None:
            # Same placement rule as the recorder: the layer must be on
            # the facade before the system scopes its own network off it.
            reliability.bind(deployment.topology)
            facade.reliability = reliability
        system = build_system(system_name, facade, config, seed)
        insert_started = perf_counter()
        insert_hops = [system.insert(event).hops for event in events]
        insert_seconds = perf_counter() - insert_started
        mean_insert = (
            sum(insert_hops) / len(insert_hops) if insert_hops else 0.0
        )
        for workload_label, queries in query_sets:
            cell = samples.setdefault(
                (workload_label, system_name), _CellSamples()
            )
            cell.insert_hops.append(mean_insert)
            cell.build_s.append(build_seconds)
            cell.insert_s.append(insert_seconds)
            query_started = perf_counter()
            for query in queries:
                attempted_before = delivered_before = 0
                if reliability is not None:
                    attempted_before = reliability.attempted
                    delivered_before = reliability.delivered
                result = system.query(sink, query)
                cell.costs.append(result.total_cost)
                cell.forwards.append(result.forward_cost)
                cell.replies.append(result.reply_cost)
                cell.matches.append(result.match_count)
                cell.visited.append(len(result.visited_nodes))
                cell.depths.append(result.depth_hops)
                if reliability is not None:
                    cell.completeness.append(result.completeness)
                    cell.attempted.append(
                        reliability.attempted - attempted_before
                    )
                    cell.delivered.append(
                        reliability.delivered - delivered_before
                    )
            cell.query_s.append(perf_counter() - query_started)
        if telemetry:
            records.append(
                collect_system_record(
                    experiment=config.name,
                    size=size,
                    trial=trial,
                    system=system_name,
                    network=facade,
                    store=system,
                    recorder=recorder,
                )
            )
        # Teardown: detach insert listeners (continuous-query services,
        # serve caches) so they cannot leak across trials when the
        # deployment is reused.
        closer = getattr(system, "close", None)
        if closer is not None:
            closer()
    return samples, records


def _run_cell_task(
    args: tuple[ExperimentConfig, int, int, int, bool],
) -> _CellResult:
    """Process-pool entry point (single-argument for ``submit``)."""
    config, seed, size, trial, telemetry = args
    return _run_cell(config, seed, size, trial, telemetry=telemetry)


def run_experiment(
    config: ExperimentConfig,
    *,
    seed: int = 0,
    jobs: int = 1,
    progress: ProgressFn | None = None,
    telemetry: bool = False,
) -> ExperimentResult:
    """Run ``config`` and return aggregated rows.

    Deterministic for a fixed ``seed`` *regardless of* ``jobs``: the
    (size, trial) cells are independent, and the merge happens in fixed
    cell order, so ``jobs=4`` emits exactly the rows of ``jobs=1`` (only
    the wall-clock timing fields differ).  ``progress`` (if given)
    receives one human-readable line per (size, trial, system) step in
    serial mode, or one per completed cell in parallel mode.

    With ``telemetry=True`` the result additionally carries one telemetry
    record per (size, trial, system) in
    :attr:`ExperimentResult.telemetry`.  Workers return the records as
    plain dicts with their samples and the merge below walks cells in the
    same fixed order as the rows, so the telemetry export is also
    byte-identical across ``jobs`` values.
    """
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    cells = [
        (size, trial)
        for size in config.network_sizes
        for trial in range(config.trials)
    ]
    if jobs == 1:
        cell_results = [
            _run_cell(config, seed, size, trial, progress, telemetry=telemetry)
            for size, trial in cells
        ]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [
                pool.submit(
                    _run_cell_task, (config, seed, size, trial, telemetry)
                )
                for size, trial in cells
            ]
            cell_results: list[_CellResult] = []
            for (size, trial), future in zip(cells, futures):
                cell_results.append(future.result())
                if progress is not None:
                    progress(
                        f"[{config.name}] n={size} trial={trial + 1}/"
                        f"{config.trials} done"
                    )
    samples: dict[tuple[int, str, str], _CellSamples] = {}
    telemetry_records: list[dict[str, Any]] = []
    for (size, _trial), (cell_result, cell_records) in zip(cells, cell_results):
        telemetry_records.extend(cell_records)
        for (workload_label, system_name), cell in cell_result.items():
            samples.setdefault(
                (size, workload_label, system_name), _CellSamples()
            ).merge(cell)
    rows: list[ResultRow] = []
    for size in config.network_sizes:
        for workload in config.query_workloads:
            label = workload.describe()
            for system_name in config.systems:
                cell = samples[(size, label, system_name)]
                rows.append(
                    ResultRow(
                        size=size,
                        workload=label,
                        system=system_name,
                        trials=config.trials,
                        queries=len(cell.costs),
                        mean_cost=statistics.fmean(cell.costs),
                        std_cost=(
                            statistics.pstdev(cell.costs)
                            if len(cell.costs) > 1
                            else 0.0
                        ),
                        mean_forward=statistics.fmean(cell.forwards),
                        mean_reply=statistics.fmean(cell.replies),
                        mean_matches=statistics.fmean(cell.matches),
                        mean_insert_hops=statistics.fmean(cell.insert_hops),
                        mean_visited_nodes=statistics.fmean(cell.visited),
                        mean_depth_hops=statistics.fmean(cell.depths),
                        mean_completeness=(
                            statistics.fmean(cell.completeness)
                            if cell.completeness
                            else 1.0
                        ),
                        attempted_messages=sum(cell.attempted),
                        delivered_messages=sum(cell.delivered),
                        build_seconds=statistics.fmean(cell.build_s),
                        insert_seconds=statistics.fmean(cell.insert_s),
                        query_seconds=statistics.fmean(cell.query_s),
                    )
                )
    return ExperimentResult(
        name=config.name,
        title=config.title,
        paper_claim=config.paper_claim,
        rows=rows,
        telemetry=telemetry_records,
    )

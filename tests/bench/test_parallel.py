"""Determinism of the experiment runner across execution modes.

The acceptance bar for the parallel runner: a fixed seed must produce
identical result rows whether the (size, trial) grid runs serially or
fanned out over worker processes, and sharing one deployment across
systems must not change what any system measures.
"""

from __future__ import annotations

from unittest import mock

from repro.bench.harness import run_experiment
from repro.bench.workloads import ExperimentConfig
from repro.core.system import PoolSystem
from repro.dim.index import DimIndex
from repro.events.generators import EventWorkload, QueryWorkload
from repro.network.deployment import Deployment
from repro.network.instrumentation import CONSTRUCTION_COUNTERS
from repro.network.network import Network
from repro.rng import derive
from repro.routing import gpsr
from repro.routing.planarization import planar_row


def _small_config(**overrides) -> ExperimentConfig:
    defaults = dict(
        name="par",
        title="parallel determinism probe",
        network_sizes=(100, 140),
        query_workloads=(
            QueryWorkload(dimensions=3, kind="exact", range_sizes="exponential"),
        ),
        query_count=4,
        trials=2,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestParallelDeterminism:
    def test_jobs_do_not_change_rows(self):
        config = _small_config()
        serial = run_experiment(config, seed=7, jobs=1)
        parallel = run_experiment(config, seed=7, jobs=4)
        assert [r.as_dict(include_timings=False) for r in serial.rows] == [
            r.as_dict(include_timings=False) for r in parallel.rows
        ]

    def test_parallel_progress_reports_cells(self):
        lines: list[str] = []
        run_experiment(_small_config(), seed=0, jobs=2, progress=lines.append)
        assert len(lines) == 4  # one per (size, trial) cell
        assert all("done" in line for line in lines)


class TestSharedDeploymentEquivalence:
    def test_systems_measure_same_on_shared_and_private(self):
        """Two systems on one deployment == each on a private network."""
        seed = 9
        deployment = Deployment.deploy(140, seed=derive(seed, "topo"))
        events = EventWorkload(dimensions=3).generate(
            200, seed=derive(seed, "events"), sources=list(deployment.topology)
        )
        queries = QueryWorkload(dimensions=3).generate(
            8, seed=derive(seed, "queries")
        )
        sink = deployment.topology.closest_node(deployment.topology.field.center)

        def drive(system):
            for event in events:
                system.insert(event)
            return [system.query(sink, q).total_cost for q in queries]

        shared = Network(deployment=deployment)
        shared_pool = drive(
            PoolSystem(shared.scope("pool"), 3, seed=derive(seed, "pivots"))
        )
        shared_dim = drive(DimIndex(shared.scope("dim"), 3))

        private_pool = drive(
            PoolSystem(
                Network(deployment.topology), 3, seed=derive(seed, "pivots")
            )
        )
        private_dim = drive(DimIndex(Network(deployment.topology), 3))

        assert shared_pool == private_pool
        assert shared_dim == private_dim

    def test_scoped_ledgers_do_not_bleed(self):
        deployment = Deployment.deploy(100, seed=3)
        root = Network(deployment=deployment)
        pool_net = root.scope("pool")
        dim_net = root.scope("dim")
        pool = PoolSystem(pool_net, 3, seed=1)
        dim = DimIndex(dim_net, 3)
        events = EventWorkload(dimensions=3).generate(
            60, seed=5, sources=list(deployment.topology)
        )
        for event in events:
            pool.insert(event)
        assert pool_net.stats.total > 0
        assert dim_net.stats.total == 0
        for event in events:
            dim.insert(event)
        # The root facade reads the aggregate of both scopes.
        assert root.stats.total == pool_net.stats.total + dim_net.stats.total


class TestConstructionCounters:
    def test_one_deployment_per_cell(self):
        """One topology per (size, trial); no planar row built twice."""
        CONSTRUCTION_COUNTERS.reset()
        # Sparse enough that perimeter walks read some planar rows.
        config = _small_config(target_degree=12.0)
        # Each computed row with its topology (held, so ids stay unique).
        computed: list[tuple[object, int]] = []

        def recording_row(topology, u, kind):
            computed.append((topology, u))
            return planar_row(topology, u, kind)

        with mock.patch.object(gpsr, "planar_row", recording_row):
            run_experiment(config, seed=2, jobs=1)
        cells = len(config.network_sizes) * config.trials
        assert CONSTRUCTION_COUNTERS.topology_deployments == cells
        # Planar rows are built on first read (perimeter mode may never
        # fire), each at most once per cell.
        assert 0 < CONSTRUCTION_COUNTERS.planar_rows == len(computed)
        keys = [(id(topology), u) for topology, u in computed]
        assert len(keys) == len(set(keys))


class TestLossyDeterminism:
    def test_lossy_rows_identical_across_jobs(self):
        """Per-link loss streams depend only on per-link attempt order,
        so a lossy sweep's rows (completeness included) are identical
        whether cells run serially or in worker processes."""
        from repro.network.reliability import DropRule, FaultPlan, NodeDeath

        config = _small_config(
            loss_rate=0.25,
            retry_limit=2,
            fault_plan=FaultPlan(
                deaths=(NodeDeath(at=400, nodes=(3,)),),
                drops=(DropRule(category="query_forward", at=(450,)),),
            ),
        )
        serial = run_experiment(config, seed=11, jobs=1)
        parallel = run_experiment(config, seed=11, jobs=4)
        assert [r.as_dict(include_timings=False) for r in serial.rows] == [
            r.as_dict(include_timings=False) for r in parallel.rows
        ]
        assert any(r.attempted_messages for r in serial.rows)
        assert any(r.mean_completeness < 1.0 for r in serial.rows) or all(
            r.delivered_messages <= r.attempted_messages for r in serial.rows
        )

    def test_lossy_telemetry_identical_across_jobs(self):
        # Two trials, so jobs=2 really merges records from two workers.
        config = _small_config(loss_rate=0.25, network_sizes=(100,))
        serial = run_experiment(config, seed=11, jobs=1, telemetry=True)
        parallel = run_experiment(config, seed=11, jobs=2, telemetry=True)
        assert {record["trial"] for record in serial.telemetry} == {0, 1}
        assert serial.telemetry == parallel.telemetry
        assert all("reliability" in record for record in serial.telemetry)

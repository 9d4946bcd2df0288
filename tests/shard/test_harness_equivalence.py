"""End-to-end shards-1-vs-K equivalence through the experiment harness.

The acceptance bar for sharded routing: result rows, ledgers and
telemetry of a ``--shards K`` run are *byte-identical* to ``--shards 1``
for the same seed — under perfect links and under a lossy channel.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import run_experiment
from repro.bench.workloads import ExperimentConfig
from repro.events.generators import QueryWorkload
from repro.telemetry.export import write_telemetry_jsonl


def _config(shards: int = 1, **overrides) -> ExperimentConfig:
    defaults = dict(
        name="shard-equivalence",
        title="shard equivalence smoke",
        network_sizes=(150,),
        events_per_node=1,
        query_count=6,
        trials=2,
        systems=("pool", "dim"),
        query_workloads=(
            QueryWorkload(
                dimensions=3,
                kind="exact",
                range_sizes="uniform",
                label="exact/uniform",
            ),
        ),
        shards=shards,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def _rows(result) -> list[dict]:
    return [row.as_dict(include_timings=False) for row in result.rows]


class TestRowEquivalence:
    def test_shards_4_rows_equal_shards_1(self):
        mono = run_experiment(_config(1), seed=3, telemetry=True)
        sharded = run_experiment(_config(4), seed=3, telemetry=True)
        assert _rows(sharded) == _rows(mono)

    def test_lossy_rows_equal_too(self):
        mono = run_experiment(_config(1, loss_rate=0.15), seed=3)
        sharded = run_experiment(_config(4, loss_rate=0.15), seed=3)
        assert _rows(sharded) == _rows(mono)


class TestTelemetryByteEquivalence:
    def test_jsonl_exports_identical(self, tmp_path):
        mono = run_experiment(_config(1), seed=3, telemetry=True)
        sharded = run_experiment(_config(4), seed=3, telemetry=True)
        mono_path = tmp_path / "mono.jsonl"
        sharded_path = tmp_path / "sharded.jsonl"
        write_telemetry_jsonl(mono_path, mono.telemetry, seed=3)
        write_telemetry_jsonl(sharded_path, sharded.telemetry, seed=3)
        assert mono_path.read_bytes() == sharded_path.read_bytes()


@pytest.mark.parametrize("jobs", [1, 2])
def test_jobs_and_shards_compose(jobs):
    """--jobs N and --shards K stack without breaking determinism."""
    mono = run_experiment(_config(1), seed=6, jobs=1)
    sharded = run_experiment(_config(2), seed=6, jobs=jobs)
    assert _rows(sharded) == _rows(mono)

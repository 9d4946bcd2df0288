"""End-to-end shards-1-vs-K equivalence through the experiment harness.

The acceptance bar for the shard-aware engine: result rows, ledgers and
telemetry of a ``--shards K`` run are *byte-identical* to ``--shards 1``
for the same seed — under perfect links and under a lossy channel.
"""

from __future__ import annotations

import json

import pytest

from repro.bench.harness import run_experiment
from repro.bench.workloads import ExperimentConfig
from repro.events.generators import QueryWorkload
from repro.shard.merge import merge_shard_records
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
    def test_jsonl_exports_identical_after_merge(self, tmp_path):
        mono = run_experiment(_config(1), seed=3, telemetry=True)
        sharded = run_experiment(_config(4), seed=3, telemetry=True)
        # Sharded records carry a "sharding" block and shard_id span tags.
        assert any("sharding" in record for record in sharded.telemetry)
        assert not any("sharding" in record for record in mono.telemetry)
        mono_path = tmp_path / "mono.jsonl"
        sharded_path = tmp_path / "sharded.jsonl"
        write_telemetry_jsonl(
            mono_path, merge_shard_records(mono.telemetry), seed=3
        )
        write_telemetry_jsonl(
            sharded_path, merge_shard_records(sharded.telemetry), seed=3
        )
        assert mono_path.read_bytes() == sharded_path.read_bytes()

    def test_merge_is_idempotent_on_unsharded_records(self):
        mono = run_experiment(_config(1), seed=5, telemetry=True)
        once = merge_shard_records(mono.telemetry)
        twice = merge_shard_records(once)
        assert json.dumps(once, sort_keys=True) == json.dumps(
            twice, sort_keys=True
        )

    def test_sharding_block_shape(self):
        sharded = run_experiment(_config(4), seed=3, telemetry=True)
        block = sharded.telemetry[0]["sharding"]
        assert block["plan"]["shards"] == 4
        assert block["exchange_rounds"] >= 1
        assert block["packets_routed"] >= 1


class TestShardIdTags:
    def test_fanout_spans_are_tagged_and_merge_strips_them(self):
        sharded = run_experiment(_config(4), seed=3, telemetry=True)

        def spans(record):
            stack = list(record["spans"])
            while stack:
                span = stack.pop()
                yield span
                stack.extend(span.get("children", ()))

        tagged = [
            span
            for record in sharded.telemetry
            for span in spans(record)
            if span.get("name") == "cell-fanout"
        ]
        assert tagged, "expected cell-fanout spans in the telemetry"
        assert all("shard_id" in span.get("attrs", {}) for span in tagged)
        merged = merge_shard_records(sharded.telemetry)
        for record in merged:
            for span in spans(record):
                assert "shard_id" not in span.get("attrs", {})


@pytest.mark.parametrize("jobs", [1, 2])
def test_jobs_and_shards_compose(jobs):
    """--jobs N and --shards K stack without breaking determinism."""
    mono = run_experiment(_config(1), seed=6, jobs=1)
    sharded = run_experiment(_config(2), seed=6, jobs=jobs)
    assert _rows(sharded) == _rows(mono)

"""Pinned lossy Pool + DIM telemetry capture.

``fixtures/capture_lossy.jsonl`` pins the span trees a lossy channel
produces: ``delivery-failure`` leaves for unreachable splitters and
``reply-aggregation`` spans carrying an ``answered`` attribute.  The test
re-runs the same seeded experiment and compares the export byte for
byte, so any drift in the instrumented query path fails here first.

The fixture was regenerated when spans began reading their message
count off the ledger: span ``messages`` now include the ARQ
retransmissions and ACKs the ledger charged, so every span covers its
children.  Only span ``messages`` and the ``profile`` rows moved.

Regenerate (only when the span layout legitimately changes) with::

    PYTHONPATH=src python -m tests.telemetry.test_lossy_capture
"""

from __future__ import annotations

from pathlib import Path

from repro.bench.harness import run_experiment
from repro.bench.workloads import ExperimentConfig
from repro.events.generators import EventWorkload, QueryWorkload
from repro.telemetry.export import read_telemetry_jsonl, write_telemetry_jsonl

FIXTURE = Path(__file__).parent / "fixtures" / "capture_lossy.jsonl"

SEED = 0


def lossy_config() -> ExperimentConfig:
    """Pool and DIM on 150 nodes over a 30%-loss channel, one ARQ retry."""
    return ExperimentConfig(
        name="lossy-capture",
        title="lossy Pool + DIM telemetry capture",
        network_sizes=(150,),
        dimensions=2,
        event_workload=EventWorkload(dimensions=2),
        events_per_node=1,
        query_workloads=(
            QueryWorkload(dimensions=2, kind="exact", range_sizes="uniform"),
        ),
        query_count=6,
        trials=1,
        systems=("pool", "dim"),
        loss_rate=0.3,
        retry_limit=1,
    )


def capture(path: Path) -> Path:
    """Run the pinned experiment with telemetry on and export it."""
    result = run_experiment(lossy_config(), seed=SEED, telemetry=True)
    return write_telemetry_jsonl(path, result.telemetry, seed=SEED)


def _spans(records, name):
    stack = [span for record in records for span in record["spans"]]
    while stack:
        span = stack.pop()
        stack.extend(span.get("children", ()))
        if span["name"] == name:
            yield span


class TestLossyCapture:
    def test_recapture_is_byte_identical(self, tmp_path):
        out = capture(tmp_path / "lossy.jsonl")
        assert out.read_bytes() == FIXTURE.read_bytes()

    def test_fixture_covers_the_lossy_span_shapes(self):
        _, records = read_telemetry_jsonl(FIXTURE)
        assert [r["system"] for r in records] == ["pool", "dim"]
        assert list(_spans(records, "delivery-failure"))
        assert any(
            "answered" in span.get("attrs", {})
            for span in _spans(records, "reply-aggregation")
        )


if __name__ == "__main__":
    print(f"wrote {capture(FIXTURE)}")

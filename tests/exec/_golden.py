"""Shared configuration for the byte-identity golden fixtures.

The fixtures under ``tests/exec/fixtures/`` pin the ``ResultRow`` JSON of
a small five-system experiment as produced by the *pre-refactor*
monolithic ``query()`` implementations.  The staged plan/execute/fold
pipeline must reproduce them byte-for-byte — lossless and lossy, serial
and parallel.

Regenerate (only when the accounting model itself legitimately changes)
with::

    PYTHONPATH=src python -m tests.exec._golden
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.bench.harness import run_experiment
from repro.bench.workloads import ExperimentConfig
from repro.events.generators import QueryWorkload

FIXTURES = Path(__file__).parent / "fixtures"

GOLDEN_SEED = 20260807


def golden_config(*, loss_rate: float = 0.0) -> ExperimentConfig:
    """The pinned five-system experiment: small but exercises every path."""
    return ExperimentConfig(
        name="golden",
        title="byte-identity golden (all five systems)",
        network_sizes=(150,),
        dimensions=3,
        events_per_node=2,
        query_workloads=(
            QueryWorkload(dimensions=3, kind="exact", range_sizes="uniform"),
            QueryWorkload(
                dimensions=3, kind="partial", unspecified=(2,), label="1-partial"
            ),
        ),
        query_count=8,
        trials=2,
        systems=("pool", "dim", "difs", "flooding", "external"),
        loss_rate=loss_rate,
    )


def golden_rows(
    *, loss_rate: float = 0.0, jobs: int = 1
) -> list[dict[str, object]]:
    """Seed-deterministic row dicts (timings stripped) for one variant."""
    result = run_experiment(
        golden_config(loss_rate=loss_rate),
        seed=GOLDEN_SEED,
        jobs=jobs,
    )
    payload = result.as_dict(include_timings=False)
    rows = payload["rows"]
    assert isinstance(rows, list)
    return rows


def fixture_path(name: str) -> Path:
    return FIXTURES / f"golden_{name}.json"


def load_fixture(name: str) -> list[dict[str, object]]:
    with open(fixture_path(name), encoding="utf-8") as handle:
        loaded = json.load(handle)
    assert isinstance(loaded, list)
    return loaded


def _write(name: str, rows: list[dict[str, object]]) -> None:
    with open(fixture_path(name), "w", encoding="utf-8") as handle:
        json.dump(rows, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main() -> None:
    FIXTURES.mkdir(exist_ok=True)
    _write("lossless", golden_rows())
    _write("lossy", golden_rows(loss_rate=0.15))
    print(f"fixtures regenerated under {FIXTURES}")


if __name__ == "__main__":
    main()

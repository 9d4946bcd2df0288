"""The 10⁴-node scale demo: ``python -m repro.bench.scale_demo``.

One 10⁴-node grid cell — more than 10× the paper's 900-node maximum —
timed single-process against a fixed wall-clock budget.  The record goes
to ``results/BENCH_scale_demo.json``.
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

__all__ = ["BUDGET_SECONDS", "RECORD_PATH", "run_scale_demo", "main"]

RECORD_PATH = Path("results") / "BENCH_scale_demo.json"

#: Wall-clock budget for the cell on a shared 2-core x86-64 host: with
#: planar rows built on first read, five runs took 1.35–1.83 s (median
#: 1.70 s); the budget is that median plus about 30% for host noise.
BUDGET_SECONDS = 2.2


def _scale_config(size: int) -> ExperimentConfig:
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
    )


def run_scale_demo(size: int = 10_000) -> dict[str, Any]:
    """Time the 10⁴-node grid cell in one process against the budget."""
    started = perf_counter()
    _run_cell(_scale_config(size), 0, size, 0)
    seconds = round(perf_counter() - started, 2)
    return {
        "size": size,
        "budget_seconds": BUDGET_SECONDS,
        "seconds": seconds,
        "under_budget": seconds < BUDGET_SECONDS,
    }


def main() -> int:
    demo = run_scale_demo()
    RECORD_PATH.parent.mkdir(parents=True, exist_ok=True)
    RECORD_PATH.write_text(json.dumps(demo, indent=2, sort_keys=True) + "\n", "utf-8")
    print(
        f"scale demo: {demo['size']} nodes: {demo['seconds']:.2f}s vs "
        f"budget {demo['budget_seconds']:.2f}s "
        f"({'UNDER' if demo['under_budget'] else 'OVER'} budget)"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

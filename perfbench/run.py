"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload query-fig7 --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics and a layer table.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit code
is 1 when an answer, ledger or determinism check fails, and 2 when the
program under test cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# Pin native thread pools before numpy or scipy load: one client thread.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under test at {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    from measure import CheckFailed
    from workloads import WORKLOADS, run

    if args.workload not in WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}"
        )
    workload = WORKLOADS[args.workload]()
    try:
        outcome = run(workload, args.seed, args.seconds, bool(args.trace))
    except CheckFailed as failure:
        print(f"perfbench: CHECK FAILED: {failure}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    for line in outcome.layer_table:
        print(line)
    print(
        f"{args.workload}: {outcome.rounds} rounds; times calibrated by a "
        f"median factor of {outcome.speed_factor:.3f} (reference / host speed)"
    )
    for name, (value, unit) in outcome.metrics.items():
        print(f"{name:36} {value:14.4f} {unit}")
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

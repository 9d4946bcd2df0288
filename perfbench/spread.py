"""Run-to-run spread of the end-to-end metrics, per workload.

Runs ``perfbench/run.py`` once per seed, each run in its own process,
one after another, and prints for every end-to-end metric its median,
quartiles and the spread (third minus first quartile, as a share of the
median) next to the bound ``BENCHMARK.json`` allows.  ``--sets 2``
repeats the seed list and also reports how far the second set's median
moved from the first's in the worse direction.

Usage, from the repository root::

    python3 perfbench/spread.py --workload query-fig7 --seeds 1-10
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = (int(part) for part in text.split("-"))
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


def _one_run(workload: str, seed: int, seconds: int) -> dict[str, float]:
    completed = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    if completed.returncode != 0:
        raise SystemExit(
            f"{workload} seed {seed} exited {completed.returncode}:\n"
            f"{completed.stderr}"
        )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: {result}")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8'")
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = spec["end_to_end"]
    seeds = _seeds(args.seeds)
    sets: list[list[dict[str, float]]] = []
    for index in range(args.sets):
        runs = []
        for seed in seeds:
            runs.append(_one_run(args.workload, seed, spec["run_seconds"]))
            print(f"set {index} seed {seed}: " + json.dumps(runs[-1]), flush=True)
        sets.append(runs)
    print(f"\n{args.workload}: {len(seeds)} seeds x {args.sets} set(s)")
    print(
        f"{'metric':16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} "
        f"{'bound':>6} {'<b/3':>5} {'drift':>7}"
    )
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        values = [run[name] for run in sets[0]]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        drift = ""
        if len(sets) > 1:
            second = statistics.median(run[name] for run in sets[1])
            first = statistics.median(values)
            worse = (second - first) if metric["better"] == "lower" else (first - second)
            drift = f"{worse / first:7.3f}"
        print(
            f"{name:16} {median:12.4f} {q1:12.4f} {q3:12.4f} {spread:7.3f} "
            f"{bound:6.2f} {'yes' if spread < bound / 3 else 'NO':>5} {drift:>7}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())

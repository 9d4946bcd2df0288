"""Perf gate: run the repository benchmark and compare it with its history.

Usage, from the repository root::

    python tools/perf_gate.py                  # compare with the newest row
    python tools/perf_gate.py --record LABEL   # append a history row

For every workload in ``BENCHMARK.json`` the gate runs ``perfbench/run.py
--trace 0`` in its own process, with the ``seed`` and ``seconds`` stored
in ``results/BENCH_perfbench.json``, and compares each end-to-end metric
with the newest ``history`` row of that file:

- ``msgs_per_insert`` and ``msgs_per_query`` must match exactly;
- a time or throughput metric fails only when it is worse than its
  ``bound`` both as calibrated and as raw.  The raw value undoes the
  median calibration factor ``run.py`` prints, so a slower runner alone
  (raw worse, calibrated flat) or calibration jitter alone (calibrated
  worse, raw flat) does not fail;
- any other metric (``peak_rss_mb``) fails when worse than its bound;
- a wrong answer (``correct`` false or ``failed`` > 0) fails at once.

A workload with a suspect metric is rerun once, keeping the better value
of each.  ``--record`` appends a row with the label, the commit, the
``src/`` ``.py`` line count, each workload's metrics and its ``--trace 1``
layer table; earlier rows are never rewritten.  The compare mode prints
the line count beside the newest row's, for information only.  Exit
status 0 is a pass, 1 a failure.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
HISTORY = ROOT / "results" / "BENCH_perfbench.json"
SCHEMA = "bench-perfbench/1"
EXACT = ("msgs_per_insert", "msgs_per_query")
_FACTOR = re.compile(r"median factor of ([0-9.]+)")

Measured = dict[str, tuple[float, float]]


def perfbench(workload: str, seed: int, seconds: float, trace: int) -> str:
    """Standard output of one ``perfbench/run.py`` process."""
    completed = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=1200, check=False,
    )
    sys.stderr.write(completed.stderr)
    return completed.stdout


def parse(stdout: str) -> dict[str, Any]:
    """A run's result line, plus its calibration factor and layer table."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"correct": False, "attempted": 0, "failed": 1, "metrics": {}}
    for index, line in enumerate(lines):
        found = _FACTOR.search(line)
        if found:
            result["speed_factor"] = float(found.group(1))
            result["layer_table"] = lines[:index]
            break
    return result


#: Calibrated to raw, per time unit: undo ``calibrated = raw * factor``
#: for a duration and ``calibrated = raw / factor`` for a rate.
_RAW = {
    "s": lambda value, factor: value / factor,
    "us": lambda value, factor: value / factor,
    "1/s": lambda value, factor: value * factor,
}


def measure(spec: dict[str, Any], values: dict[str, float], factor: float) -> Measured:
    """``name -> (calibrated, raw)`` for every end-to-end metric."""
    out: Measured = {}
    for metric in spec["end_to_end"]:
        value = values[metric["name"]]
        raw = _RAW.get(metric["unit"], lambda value, factor: value)
        out[metric["name"]] = (value, raw(value, factor))
    return out


def _worse(metric: dict[str, Any], old: float, new: float) -> bool:
    if metric["better"] == "lower":
        return new > old * (1.0 + metric["bound"])
    return new < old * (1.0 - metric["bound"])


def compare(spec: dict[str, Any], baseline: Measured, now: Measured) -> list[str]:
    """Every metric of ``now`` that fails against ``baseline`` (empty = pass)."""
    problems = []
    for metric in spec["end_to_end"]:
        name = metric["name"]
        (old, old_raw), (new, new_raw) = baseline[name], now[name]
        if name in EXACT:
            failed = new != old
        else:  # without a time unit, raw is the calibrated value
            failed = _worse(metric, old, new) and _worse(metric, old_raw, new_raw)
        if failed:
            problems.append(
                f"{name}: {new:.6g} vs {old:.6g} (raw {new_raw:.6g} vs {old_raw:.6g}); "
                + ("must match exactly" if name in EXACT else f"bound {metric['bound']:.0%}")
            )
    return problems


def better(spec: dict[str, Any], first: Measured, second: Measured) -> Measured:
    """The better calibrated and the better raw value of each metric."""
    out: Measured = {}
    for metric in spec["end_to_end"]:
        pick = min if metric["better"] == "lower" else max
        (a, a_raw), (b, b_raw) = first[metric["name"]], second[metric["name"]]
        out[metric["name"]] = (pick(a, b), pick(a_raw, b_raw))
    return out


def load(path: Path) -> dict[str, Any]:
    payload = json.loads(path.read_text(encoding="utf-8"))
    if payload.get("schema") != SCHEMA:
        raise ValueError(f"{path}: expected schema {SCHEMA!r}, got {payload.get('schema')!r}")
    return payload


def _run(history: dict[str, Any], workload: str, trace: int) -> dict[str, Any]:
    return parse(perfbench(workload, history["seed"], history["seconds"], trace))


def _wrong(result: dict[str, Any]) -> list[str]:
    """A wrong answer or a failed check: never noise, so never retried."""
    if result["correct"] and result["failed"] == 0:
        return []
    return [f"correct={result['correct']} failed={result['failed']}"]


def _values(result: dict[str, Any]) -> dict[str, float]:
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def _gate(
    spec: dict[str, Any], history: dict[str, Any], workload: str, baseline: Measured
) -> tuple[Measured, list[str]]:
    """One workload's metrics and problems, after at most one rerun."""
    now: Measured = {}
    problems: list[str] = []
    for attempt in range(2):
        if attempt:
            print(f"{workload}: suspect, rerunning: " + "; ".join(problems))
        result = _run(history, workload, 0)
        problems = _wrong(result)
        if problems:
            break
        measured = measure(spec, _values(result), result["speed_factor"])
        now = better(spec, now, measured) if now else measured
        problems = compare(spec, baseline, now)
        if not problems:
            break
    return now, problems


def src_lines() -> int:
    """Lines of the ``.py`` files under ``src/`` (what ``wc -l`` counts)."""
    return sum(path.read_bytes().count(b"\n") for path in (ROOT / "src").rglob("*.py"))


def _commit() -> str:
    completed = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
    )
    return completed.stdout.strip() or "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python tools/perf_gate.py", description=__doc__)
    parser.add_argument("--record", metavar="LABEL", help="append a history row")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    history = load(HISTORY)
    workloads = [entry["name"] for entry in spec["workloads"]]
    if args.record:
        row: dict[str, Any] = {
            "label": args.record,
            "commit": _commit(),
            "src_lines": src_lines(),
            "workloads": {},
        }
        for workload in workloads:
            result, traced = _run(history, workload, 0), _run(history, workload, 1)
            problems = _wrong(result) + _wrong(traced)
            if problems:
                raise SystemExit(f"FAIL {workload}: {problems[0]}; nothing recorded")
            row["workloads"][workload] = {
                "speed_factor": result["speed_factor"],
                "metrics": _values(result),
                "layer_table": traced["layer_table"],
            }
            print(f"{workload}: {json.dumps(_values(result), sort_keys=True)}")
        history["history"].append(row)
        HISTORY.write_text(json.dumps(history, indent=2) + "\n", encoding="utf-8")
        print(f"appended {args.record!r} to {HISTORY}")
        return 0
    if not history["history"]:
        raise SystemExit(f"{HISTORY}: no history row to compare with; run --record")
    newest = history["history"][-1]
    print(f"baseline: {newest['label']} ({newest['commit'][:12]})")
    print(f"src/ .py lines: {src_lines()} (was {newest.get('src_lines', 'not recorded')})")
    exit_code = 0
    for workload in workloads:
        base = newest["workloads"][workload]
        baseline = measure(spec, base["metrics"], base["speed_factor"])
        now, problems = _gate(spec, history, workload, baseline)
        for name, (value, raw) in now.items():
            old, old_raw = baseline[name]
            print(
                f"{workload:17} {name:14} {value:13.4f} (was {old:13.4f})"
                f"  raw {raw:13.4f} (was {old_raw:13.4f})"
            )
        for problem in problems:
            print(f"FAIL {workload}: {problem}")
        exit_code = exit_code or int(bool(problems))
    print("perf gate: " + ("FAIL" if exit_code else "pass"))
    return exit_code


if __name__ == "__main__":
    sys.exit(main())

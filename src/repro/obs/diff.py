"""Capture diffing with regression attribution.

Usage::

    python -m repro.obs.diff baseline.jsonl candidate.jsonl
    python -m repro.obs.diff baseline.jsonl candidate.jsonl --threshold 1.1
    python -m repro.obs.diff baseline.jsonl candidate.jsonl --json verdict.json

Aligns the two captures' records by ``(experiment, size, trial,
system)`` and each aligned pair's span trees by *path* (the name chain
from the root down), then reports which subtree's **self** cost grew:
work units always, wall-clock seconds when both captures carry timed
spans.  Exit status: ``0`` when nothing regressed (a capture diffed
against itself is empty), ``1`` when at least one subtree exceeded the
threshold, ``2`` on usage errors.  A subtree only the candidate has
regresses from zero once its self work reaches ``MIN_WU_DELTA``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.obs.profile import SpanCost, fold_span_tree
from repro.telemetry.export import read_telemetry_jsonl

__all__ = [
    "DEFAULT_THRESHOLD",
    "align_records",
    "diff_records",
    "render_verdict",
    "main",
]

#: A subtree regresses when candidate self-cost exceeds baseline × this.
DEFAULT_THRESHOLD = 1.25

#: Work-unit deltas below this are noise, not regressions (a single extra
#: hop on a boundary-length path should not fail CI).
MIN_WU_DELTA = 4

RecordKey = tuple[str, int, int, str]


def _record_key(record: Mapping[str, Any]) -> RecordKey:
    return (
        str(record.get("experiment", "")),
        int(record.get("size", 0)),
        int(record.get("trial", 0)),
        str(record.get("system", "")),
    )


def align_records(
    baseline: Sequence[Mapping[str, Any]],
    candidate: Sequence[Mapping[str, Any]],
) -> tuple[
    list[tuple[RecordKey, Mapping[str, Any], Mapping[str, Any]]],
    list[RecordKey],
    list[RecordKey],
]:
    """Pair records by cell-slice key; returns (pairs, only_base, only_cand)."""
    base_by_key = {_record_key(record): record for record in baseline}
    cand_by_key = {_record_key(record): record for record in candidate}
    pairs = [
        (key, base_by_key[key], cand_by_key[key])
        for key in sorted(base_by_key)
        if key in cand_by_key
    ]
    only_base = [key for key in sorted(base_by_key) if key not in cand_by_key]
    only_cand = [key for key in sorted(cand_by_key) if key not in base_by_key]
    return pairs, only_base, only_cand


def _subtree_costs(record: Mapping[str, Any]) -> dict[tuple[str, ...], dict[str, Any]]:
    """Aggregate a record's span occurrences by path (the subtree key)."""
    buckets: dict[tuple[str, ...], dict[str, Any]] = {}
    costs: list[SpanCost] = []
    system = str(record.get("system", ""))
    for span in record.get("spans", ()):
        costs.extend(fold_span_tree(span, default_system=system))
    for cost in costs:
        bucket = buckets.setdefault(
            cost.path,
            {"count": 0, "self_wu": 0, "self_seconds": None, "phase": cost.phase},
        )
        bucket["count"] += 1
        bucket["self_wu"] += cost.self_wu
        if cost.self_seconds is not None:
            bucket["self_seconds"] = (
                bucket["self_seconds"] or 0.0
            ) + cost.self_seconds
    return buckets


def _compare(
    metric: str,
    baseline: float,
    candidate: float,
    *,
    threshold: float,
    min_delta: float,
) -> dict[str, Any] | None:
    delta = candidate - baseline
    if delta < min_delta:
        return None
    if candidate <= baseline * threshold:
        return None
    ratio = candidate / baseline if baseline > 0 else float("inf")
    return {
        "metric": metric,
        "baseline": round(baseline, 6),
        "candidate": round(candidate, 6),
        "delta": round(delta, 6),
        "ratio": round(ratio, 4) if ratio != float("inf") else None,
    }


def diff_records(
    baseline: Sequence[Mapping[str, Any]],
    candidate: Sequence[Mapping[str, Any]],
    *,
    threshold: float = DEFAULT_THRESHOLD,
) -> dict[str, Any]:
    """The machine-readable verdict of a baseline-vs-candidate diff.

    ``regressions`` lists every (cell-slice, span path) whose self work
    units — or self seconds, when both sides measured them — grew past
    ``threshold``, sorted by shrinking delta so the guiltiest subtree
    leads.  ``clean`` is true when nothing regressed *and* the record
    sets align exactly.
    """
    pairs, only_base, only_cand = align_records(baseline, candidate)
    regressions: list[dict[str, Any]] = []
    for key, base_record, cand_record in pairs:
        base_costs = _subtree_costs(base_record)
        cand_costs = _subtree_costs(cand_record)
        for path in sorted(cand_costs):
            cand_bucket = cand_costs[path]
            # A subtree that only the candidate has grew from nothing.
            base_bucket = base_costs.get(
                path, {"self_wu": 0, "self_seconds": None, "phase": cand_bucket["phase"]}
            )
            found = _compare(
                "self_wu",
                float(base_bucket["self_wu"]),
                float(cand_bucket["self_wu"]),
                threshold=threshold,
                min_delta=float(MIN_WU_DELTA),
            )
            if found is None and (
                base_bucket["self_seconds"] is not None
                and cand_bucket["self_seconds"] is not None
            ):
                found = _compare(
                    "self_seconds",
                    base_bucket["self_seconds"],
                    cand_bucket["self_seconds"],
                    threshold=threshold,
                    min_delta=1e-6,
                )
            if found is not None:
                experiment, size, trial, system = key
                regressions.append(
                    {
                        "experiment": experiment,
                        "size": size,
                        "trial": trial,
                        "system": system,
                        "phase": base_bucket["phase"],
                        "path": "/".join(path),
                        **found,
                    }
                )
    regressions.sort(key=lambda r: (-r["delta"], r["path"]))
    return {
        "schema": "obs-diff/1",
        "threshold": threshold,
        "aligned_records": len(pairs),
        "only_in_baseline": ["/".join(str(p) for p in key) for key in only_base],
        "only_in_candidate": ["/".join(str(p) for p in key) for key in only_cand],
        "regressions": regressions,
        "clean": not regressions and not only_base and not only_cand,
    }


def render_verdict(verdict: dict[str, Any]) -> str:
    """Human-readable attribution report for one verdict."""
    lines: list[str] = []
    if verdict["clean"]:
        lines.append(
            f"obs.diff: clean ({verdict['aligned_records']} aligned record(s), "
            "no subtree regressed)"
        )
        return "\n".join(lines)
    for side, keys in (
        ("baseline", verdict["only_in_baseline"]),
        ("candidate", verdict["only_in_candidate"]),
    ):
        for key in keys:
            lines.append(f"only in {side}: {key}")
    regressions = verdict["regressions"]
    if regressions:
        guilty = regressions[0]
        lines.append(
            f"guiltiest subtree: {guilty['system']} {guilty['path']} "
            f"({guilty['metric']} {guilty['baseline']} -> {guilty['candidate']}"
            + (f", x{guilty['ratio']}" if guilty["ratio"] is not None else "")
            + ")"
        )
        for entry in regressions:
            lines.append(
                f"  {entry['experiment']} n={entry['size']} trial={entry['trial']} "
                f"{entry['system']} {entry['path']}: {entry['metric']} "
                f"{entry['baseline']} -> {entry['candidate']} "
                f"(+{entry['delta']})"
            )
    else:
        lines.append("record sets differ but no aligned subtree regressed")
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.diff",
        description="diff two telemetry captures and attribute regressions",
    )
    parser.add_argument("baseline", help="baseline telemetry JSONL export")
    parser.add_argument("candidate", help="candidate telemetry JSONL export")
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help=f"regression ratio (default {DEFAULT_THRESHOLD})",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the machine-readable verdict as JSON",
    )
    args = parser.parse_args(argv)
    if args.threshold <= 1.0:
        print("--threshold must be > 1.0", file=sys.stderr)
        return 2
    _, baseline_records = read_telemetry_jsonl(args.baseline)
    _, candidate_records = read_telemetry_jsonl(args.candidate)
    verdict = diff_records(
        baseline_records, candidate_records, threshold=args.threshold
    )
    if args.json:
        Path(args.json).write_text(
            json.dumps(verdict, sort_keys=True, separators=(",", ":")) + "\n",
            "utf-8",
        )
    print(render_verdict(verdict))
    return 0 if verdict["clean"] else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

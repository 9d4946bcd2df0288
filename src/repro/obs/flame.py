"""Flamegraph export: telemetry capture -> Chrome trace / speedscope.

Usage::

    python -m repro.obs.flame capture.jsonl
    python -m repro.obs.flame capture.jsonl --trace out.trace.json
    python -m repro.obs.flame capture.jsonl --speedscope out.speedscope.json

Both documents lay spans on a **synthetic deterministic timeline**: one
tick per work unit (one-hop message transmission), spans of a record
placed sequentially and children nested inside their parent.  The
resulting files are pure functions of the capture's deterministic fields
— byte-stable across ``--jobs`` — and open directly in
``chrome://tracing`` / Perfetto and https://www.speedscope.app.  When
the capture carries wall-clock spans the work-unit geometry is
unchanged; measured seconds ride along as event ``args`` so the two
currencies never mix.

Chrome trace mapping: one process per ``(experiment, size, trial)``
cell, one thread per system, ``"X"`` (complete) events with
``ts``/``dur`` in work units.  Speedscope mapping: one evented profile
per record with ``unit: "none"``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.obs.profile import fold_span_tree
from repro.telemetry.export import read_telemetry_jsonl

__all__ = [
    "chrome_trace",
    "speedscope_document",
    "main",
]


def _width(span: Mapping[str, Any]) -> int:
    """Timeline ticks a span takes, the one geometry both documents use.

    Its work units, but at least one tick (so zero-cost spans stay
    visible) and at least its children's widths (so children packed
    sequentially from the span's start always fit inside it).
    """
    children = sum(_width(child) for child in span.get("children", ()))
    return max(1, int(span.get("messages", 0)), children)


def _span_events(
    span: Mapping[str, Any],
    *,
    start: int,
    pid: int,
    tid: int,
    system: str,
) -> tuple[list[dict[str, Any]], int]:
    """Lay one span tree out as Chrome ``X`` events; returns its width.

    The span occupies ``[start, start + _width(span))`` and its children
    are packed sequentially from ``start``.
    """
    fold = fold_span_tree(span, default_system=system)
    width = _width(span)
    args: dict[str, Any] = {
        "self_wu": fold[0].self_wu,
        "total_wu": fold[0].total_wu,
        "messages": int(span.get("messages", 0)),
    }
    if span.get("seconds") is not None:
        args["seconds"] = float(span["seconds"])
    events: list[dict[str, Any]] = [
        {
            "name": str(span.get("name", "")),
            "cat": str(span.get("phase", "")),
            "ph": "X",
            "ts": start,
            "dur": width,
            "pid": pid,
            "tid": tid,
            "args": args,
        }
    ]
    cursor = start
    for child in span.get("children", ()):
        child_events, child_width = _span_events(
            child, start=cursor, pid=pid, tid=tid, system=system
        )
        events.extend(child_events)
        cursor += child_width
    return events, width


def chrome_trace(records: Sequence[Mapping[str, Any]]) -> dict[str, Any]:
    """Fold a capture into one Chrome Trace Event JSON document."""
    events: list[dict[str, Any]] = []
    cell_pids: dict[tuple[str, int, int], int] = {}
    system_tids: dict[str, int] = {}
    for record in records:
        cell = (
            str(record.get("experiment", "")),
            int(record.get("size", 0)),
            int(record.get("trial", 0)),
        )
        pid = cell_pids.setdefault(cell, len(cell_pids) + 1)
        system = str(record.get("system", ""))
        tid = system_tids.setdefault(system, len(system_tids) + 1)
        cursor = 0
        for span in record.get("spans", ()):
            span_events, width = _span_events(
                span, start=cursor, pid=pid, tid=tid, system=system
            )
            events.extend(span_events)
            cursor += width
    metadata: list[dict[str, Any]] = []
    for cell, pid in sorted(cell_pids.items(), key=lambda item: item[1]):
        experiment, size, trial = cell
        metadata.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": f"{experiment} n={size} trial={trial}"},
            }
        )
    for system, tid in sorted(system_tids.items(), key=lambda item: item[1]):
        for pid in sorted(cell_pids.values()):
            metadata.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": system},
                }
            )
    return {
        "traceEvents": metadata + events,
        "displayTimeUnit": "ms",
        "otherData": {
            "exporter": "repro.obs.flame",
            "unit": "work units (one-hop transmissions)",
        },
    }


def _speedscope_walk(
    span: Mapping[str, Any],
    *,
    start: int,
    frames: dict[str, int],
    events: list[dict[str, Any]],
) -> int:
    """Emit open/close events for one span tree; returns its width."""
    width = _width(span)
    label = f"{span.get('phase', '')}:{span.get('name', '')}"
    frame = frames.setdefault(label, len(frames))
    events.append({"type": "O", "frame": frame, "at": start})
    cursor = start
    for child in span.get("children", ()):
        cursor += _speedscope_walk(child, start=cursor, frames=frames, events=events)
    events.append({"type": "C", "frame": frame, "at": start + width})
    return width


def speedscope_document(records: Sequence[Mapping[str, Any]]) -> dict[str, Any]:
    """Fold a capture into one speedscope file (evented profiles)."""
    frames: dict[str, int] = {}
    profiles: list[dict[str, Any]] = []
    for record in records:
        events: list[dict[str, Any]] = []
        cursor = 0
        system = str(record.get("system", ""))
        for span in record.get("spans", ()):
            cursor += _speedscope_walk(span, start=cursor, frames=frames, events=events)
        if not events:
            continue
        name = (
            f"{record.get('experiment', '')} n={record.get('size', 0)} "
            f"trial={record.get('trial', 0)} {system}"
        )
        profiles.append(
            {
                "type": "evented",
                "name": name,
                "unit": "none",
                "startValue": 0,
                "endValue": cursor,
                "events": events,
            }
        )
    frame_list = [
        {"name": label}
        for label, _index in sorted(frames.items(), key=lambda item: item[1])
    ]
    return {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "exporter": "repro.obs.flame",
        "name": "repro telemetry capture",
        "shared": {"frames": frame_list},
        "profiles": profiles,
    }


def _dump(payload: dict[str, Any]) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.flame",
        description="export a telemetry capture as Chrome trace + speedscope",
    )
    parser.add_argument("capture", help="telemetry JSONL export to fold")
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="Chrome Trace Event JSON output (default: CAPTURE stem + .trace.json)",
    )
    parser.add_argument(
        "--speedscope",
        metavar="PATH",
        default=None,
        help="speedscope output (default: CAPTURE stem + .speedscope.json)",
    )
    args = parser.parse_args(argv)
    capture = Path(args.capture)
    _header, records = read_telemetry_jsonl(capture)
    trace_path = Path(args.trace) if args.trace else capture.with_suffix(".trace.json")
    speedscope_path = (
        Path(args.speedscope)
        if args.speedscope
        else capture.with_suffix(".speedscope.json")
    )
    trace = chrome_trace(records)
    trace_path.write_text(_dump(trace), "utf-8")
    speedscope_path.write_text(_dump(speedscope_document(records)), "utf-8")
    span_events = sum(1 for e in trace["traceEvents"] if e.get("ph") == "X")
    print(f"chrome trace written to {trace_path} ({span_events} span events)")
    print(f"speedscope written to {speedscope_path}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

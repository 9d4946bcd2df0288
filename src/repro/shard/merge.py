"""Deterministic telemetry normalization for sharded runs.

Shard-tagged telemetry is folded here in *sorted key order*, never in
dict insertion order, so a merged export cannot depend on the order in
which tiles produced it — the ``shards-1-vs-K`` byte-equality guarantee
(``tools/repro_lint`` rule REP006 enforces this on this module).

Run as a module to normalize a telemetry export for comparison::

    python -m repro.shard.merge sharded.jsonl merged.jsonl

The output of a ``--shards K`` export, after merging, is byte-identical
to a ``--shards 1`` export of the same seed
(``tests/integration/test_determinism.py`` asserts this).
"""

from __future__ import annotations

import sys
from typing import Any, Mapping, Sequence

__all__ = ["merge_shard_records", "main"]


def _strip_span(span: dict[str, Any]) -> dict[str, Any]:
    """A copy of one span dict without shard tags (recursively)."""
    out: dict[str, Any] = {}
    for key in sorted(span):
        if key == "attrs":
            attrs = {
                name: value
                for name, value in sorted(span["attrs"].items())
                if name != "shard_id"
            }
            if attrs:
                out["attrs"] = attrs
        elif key == "children":
            out["children"] = [_strip_span(child) for child in span["children"]]
        else:
            out[key] = span[key]
    return out


def _normalize_flight(block: Mapping[str, Any]) -> dict[str, Any]:
    """The flight-recorder block with events in canonical (pid, seq) order.

    The recorder already exports in this order (events are appended in
    main-process program order and sorted on export), so this is an
    idempotent no-op on well-formed blocks — it exists so the merge
    *defines* the canonical order rather than trusting the producer.
    """
    out = {key: block[key] for key in sorted(block) if key != "events"}
    out["events"] = sorted(
        block.get("events", ()),
        key=lambda event: (event.get("pid", 0), event.get("seq", 0)),
    )
    return out


def merge_shard_records(
    records: Sequence[Mapping[str, Any]],
) -> list[dict[str, Any]]:
    """Normalize telemetry records to their unsharded form.

    Drops the per-record ``sharding`` block and every span's ``shard_id``
    attribute — the only fields a ``--shards K`` run adds — leaving
    exactly the record a ``--shards 1`` run emits, and re-sorts any
    ``flight_recorder`` event ring into canonical ``(pid, seq)`` order.
    Records without shard tags pass through unchanged, so merging is
    idempotent and safe to apply to both sides of a comparison.
    """
    merged: list[dict[str, Any]] = []
    for record in records:
        out: dict[str, Any] = {}
        for key in sorted(record):
            if key == "sharding":
                continue
            if key == "spans":
                out["spans"] = [_strip_span(span) for span in record["spans"]]
            elif key == "flight_recorder":
                out["flight_recorder"] = _normalize_flight(record["flight_recorder"])
            else:
                out[key] = record[key]
        merged.append(out)
    return merged


def main(argv: Sequence[str] | None = None) -> int:
    """Normalize a telemetry JSONL export: ``merge IN.jsonl OUT.jsonl``."""
    from repro.telemetry.export import read_telemetry_jsonl, write_telemetry_jsonl

    arguments = list(sys.argv[1:] if argv is None else argv)
    if len(arguments) != 2:
        print(
            "usage: python -m repro.shard.merge IN.jsonl OUT.jsonl",
            file=sys.stderr,
        )
        return 2
    header, records = read_telemetry_jsonl(arguments[0])
    header_fields = {
        key: header[key]
        for key in sorted(header)
        if key not in ("schema", "records", "shards")
    }
    write_telemetry_jsonl(
        arguments[1], merge_shard_records(records), **header_fields
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""Telemetry collection and deterministic JSONL export (``telemetry/2``).

One record per ``(experiment, size, trial, system)`` cell-slice, holding
that system's span trees, span summary, per-span-kind profile,
metrics-registry snapshot and per-node load/energy maps — plus, when the
run used ``--flight-recorder``, the bounded per-hop event ring.  The
experiment runner collects records inside each worker (they are plain
dicts, so they pickle alongside the result samples) and merges them in
fixed cell order — which is what makes a ``--jobs N`` export
byte-identical to ``--jobs 1``.

File format: JSON Lines.  The first line is a header carrying the schema
tag (``telemetry/2``) and run parameters; every following line is one
record.  All dumps use sorted keys and compact separators so identical
payloads serialize identically.

Schema history: ``telemetry/2`` added the ``profile`` block (the
deterministic span-kind fold :mod:`repro.obs.profile` computes) and the
optional ``flight_recorder`` block to ``telemetry/1``.
:func:`read_telemetry_jsonl` accepts only the current schema.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, TYPE_CHECKING

from repro.exceptions import ValidationError
from repro.obs.profile import profile_span_dicts
from repro.telemetry.metrics import HotspotStats, MetricsRegistry
from repro.telemetry.spans import SpanRecorder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.network import Network

__all__ = [
    "TELEMETRY_SCHEMA",
    "collect_system_record",
    "write_telemetry_jsonl",
    "read_telemetry_jsonl",
    "validate_record",
]

#: The versioned schema tag carried by every export (header line).
TELEMETRY_SCHEMA = "telemetry/2"


def _node_map(mapping: dict[int, int | float], *, digits: int | None = None) -> dict[str, Any]:
    """Per-node map with string keys (JSON) in deterministic node order."""
    out: dict[str, Any] = {}
    for node in sorted(mapping):
        value = mapping[node]
        out[str(node)] = round(value, digits) if digits is not None else value
    return out


def collect_system_record(
    *,
    experiment: str,
    size: int,
    trial: int,
    system: str,
    network: "Network",
    store: Any,
    recorder: SpanRecorder | None,
) -> dict[str, Any]:
    """Snapshot one system's telemetry after a cell finished running.

    ``network`` is the system's scoped facade (its ledger aggregates the
    scopes the system created beneath it); ``store`` is the system under
    test, consulted for its per-node storage distribution when it has
    one.  The returned dict is JSON-ready and seed-deterministic — span
    wall-clock is excluded (``Span.as_dict`` default).
    """
    stats = network.stats
    tx = dict(stats.per_node_transmissions())
    rx = dict(stats.per_node_receptions())
    radio_load = {
        node: tx.get(node, 0) + rx.get(node, 0) for node in sorted(set(tx) | set(rx))
    }
    distribution = getattr(store, "storage_distribution", None)
    storage: dict[int, int] = dict(distribution()) if callable(distribution) else {}
    energy = network.energy_model.per_node_remaining(stats)
    registry = MetricsRegistry.from_stats(
        stats, energy_model=network.energy_model, storage=storage
    )
    reliability = network.reliability
    if reliability is not None:
        # The delivery summary only appears when a reliability layer is
        # active, so lossless exports stay byte-identical to the seed.
        registry.counter("arq_retransmissions_total").inc(
            reliability.retransmissions
        )
        registry.counter("arq_acks_total").inc(reliability.acks)
        registry.counter("hops_failed_total").inc(reliability.failed_hops)
        registry.gauge("delivery_ratio").set(reliability.delivery_ratio)
    record: dict[str, Any] = {
        "kind": "system",
        "experiment": experiment,
        "size": size,
        "trial": trial,
        "system": system,
        "messages": {
            category: count
            for category, count in sorted(stats.snapshot().items())
            if count
        },
        "per_node": {
            "tx": _node_map(tx),
            "rx": _node_map(rx),
            "storage": _node_map(storage),
            "energy": _node_map(energy, digits=9),
        },
        "hotspot": {
            "radio": HotspotStats.from_load(radio_load).as_dict(),
            "storage": HotspotStats.from_load(storage).as_dict(),
        },
        "metrics": registry.as_dict(),
        "spans": recorder.as_dicts() if recorder is not None else [],
        "span_summary": recorder.summary() if recorder is not None else [],
    }
    if recorder is not None:
        # The deterministic span-kind fold (telemetry/2): precomputed so
        # report tooling and the perf tripwire read it without re-walking
        # trees, and byte-stable because it derives only from the spans.
        record["profile"] = [
            entry.as_dict()
            for entry in profile_span_dicts(record["spans"], default_system=system)
        ]
    flight = getattr(network, "flight_recorder", None)
    if flight is not None:
        # Only --flight-recorder runs carry the ring, so default captures
        # stay byte-identical to a build without the recorder.
        record["flight_recorder"] = flight.as_dict()
    if reliability is not None:
        record["reliability"] = reliability.snapshot()
    return record


def validate_record(record: dict[str, Any]) -> dict[str, Any]:
    """Check the minimal shape of one telemetry record; returns it."""
    if not isinstance(record, dict):
        raise ValidationError(f"telemetry record must be an object, got {type(record).__name__}")
    for key in ("kind", "system"):
        if key not in record:
            raise ValidationError(f"telemetry record missing {key!r}: {record!r:.120}")
    return record


def _dump(payload: dict[str, Any]) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def write_telemetry_jsonl(
    path: str | Path,
    records: list[dict[str, Any]],
    **header_fields: Any,
) -> Path:
    """Write a header line plus one line per record; returns the path."""
    path = Path(path)
    header = {"schema": TELEMETRY_SCHEMA, "records": len(records), **header_fields}
    lines = [_dump(header)]
    lines.extend(_dump(validate_record(record)) for record in records)
    path.write_text("\n".join(lines) + "\n", "utf-8")
    return path


def read_telemetry_jsonl(
    path: str | Path,
) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    """Load ``(header, records)``; rejects any schema but
    :data:`TELEMETRY_SCHEMA`."""
    text = Path(path).read_text("utf-8")
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValidationError(f"{path}: empty telemetry file")
    header = json.loads(lines[0])
    schema = header.get("schema") if isinstance(header, dict) else None
    if schema != TELEMETRY_SCHEMA:
        raise ValidationError(
            f"expected schema {TELEMETRY_SCHEMA!r}, got {schema!r}; "
            "refusing to guess"
        )
    records = [validate_record(json.loads(line)) for line in lines[1:]]
    return header, records

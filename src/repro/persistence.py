"""JSON persistence for deployments, workloads and results.

Reproducibility plumbing a downstream user needs: snapshot a deployed
topology (so a bug report pins the exact node placement, not just a
seed), dump/reload event and query workloads, and round-trip experiment
results.  Everything is plain JSON — diff-able, versioned, no pickle.

Schema versioning: every document carries ``{"schema": "<kind>/1"}``;
loaders reject unknown kinds/versions instead of guessing.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.bench.harness import ExperimentResult, ResultRow
from repro.events.event import Event
from repro.events.queries import RangeQuery
from repro.exceptions import ValidationError
from repro.geometry import Rect
from repro.network.topology import Topology

__all__ = [
    "topology_to_dict",
    "topology_from_dict",
    "events_to_dict",
    "events_from_dict",
    "queries_to_dict",
    "queries_from_dict",
    "result_from_dict",
    "save_json",
    "load_json",
]


def _check_schema(payload: dict[str, Any], expected: str) -> None:
    schema = payload.get("schema")
    if schema != expected:
        raise ValidationError(
            f"expected schema {expected!r}, got {schema!r}; refusing to guess"
        )


# --------------------------------------------------------------------- #
# Topology                                                              #
# --------------------------------------------------------------------- #


def topology_to_dict(topology: Topology) -> dict[str, Any]:
    """Serialize a topology (positions, range, field, failures)."""
    return {
        "schema": "topology/1",
        "radio_range": topology.radio_range,
        "field": list(topology.field),
        "excluded": sorted(topology.excluded),
        "positions": [[float(x), float(y)] for x, y in topology.positions],
    }


def topology_from_dict(payload: dict[str, Any]) -> Topology:
    """Reconstruct a topology snapshot (ids and failures preserved)."""
    _check_schema(payload, "topology/1")
    return Topology(
        payload["positions"],
        radio_range=payload["radio_range"],
        field=Rect(*payload["field"]),
        excluded=frozenset(int(n) for n in payload.get("excluded", ())),
    )


# --------------------------------------------------------------------- #
# Events and queries                                                    #
# --------------------------------------------------------------------- #


def events_to_dict(events: list[Event]) -> dict[str, Any]:
    """Serialize an event workload (values, sources, sequence numbers)."""
    return {
        "schema": "events/1",
        "events": [
            {
                "values": list(event.values),
                "source": event.source,
                "seq": event.seq,
            }
            for event in events
        ],
    }


def events_from_dict(payload: dict[str, Any]) -> list[Event]:
    """Reconstruct an event workload."""
    _check_schema(payload, "events/1")
    return [
        Event(
            tuple(item["values"]),
            source=item.get("source"),
            seq=item.get("seq", 0),
        )
        for item in payload["events"]
    ]


def queries_to_dict(queries: list[RangeQuery]) -> dict[str, Any]:
    """Serialize a query workload."""
    return {
        "schema": "queries/1",
        "queries": [[list(bound) for bound in query.bounds] for query in queries],
    }


def queries_from_dict(payload: dict[str, Any]) -> list[RangeQuery]:
    """Reconstruct a query workload."""
    _check_schema(payload, "queries/1")
    return [
        RangeQuery(tuple((lo, hi) for lo, hi in bounds))
        for bounds in payload["queries"]
    ]


# --------------------------------------------------------------------- #
# Experiment results                                                    #
# --------------------------------------------------------------------- #


def result_from_dict(payload: dict[str, Any]) -> ExperimentResult:
    """Rebuild an :class:`ExperimentResult` from ``as_dict()`` output."""
    rows: list[ResultRow] = []
    for row in payload["rows"]:
        timings = row.get("timings", {})
        rows.append(
            ResultRow(
                size=int(row["size"]),
                workload=str(row["workload"]),
                system=str(row["system"]),
                trials=int(row["trials"]),
                queries=int(row["queries"]),
                mean_cost=float(row["mean_cost"]),
                std_cost=float(row["std_cost"]),
                mean_forward=float(row["mean_forward"]),
                mean_reply=float(row["mean_reply"]),
                mean_matches=float(row["mean_matches"]),
                mean_insert_hops=float(row["mean_insert_hops"]),
                mean_visited_nodes=float(row["mean_visited_nodes"]),
                mean_depth_hops=float(row.get("mean_depth_hops", 0.0)),
                build_seconds=float(timings.get("build_seconds", 0.0)),
                insert_seconds=float(timings.get("insert_seconds", 0.0)),
                query_seconds=float(timings.get("query_seconds", 0.0)),
            )
        )
    return ExperimentResult(
        name=str(payload["name"]),
        title=str(payload["title"]),
        paper_claim=str(payload.get("paper_claim", "")),
        rows=rows,
    )


# --------------------------------------------------------------------- #
# Files                                                                 #
# --------------------------------------------------------------------- #


def save_json(payload: dict[str, Any], path: str | Path) -> Path:
    """Write a document to disk (pretty-printed, stable key order)."""
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True), "utf-8")
    return path


def load_json(path: str | Path) -> dict[str, Any]:
    """Read a document from disk."""
    return json.loads(Path(path).read_text("utf-8"))

"""Fold span trees into a per-span-kind profile.

A profile entry aggregates every span of one ``(system, phase, name)``
kind across a capture slice: how often it ran, and its *self* and
*total* cost in two currencies —

* **work units** — the one-hop message transmissions charged to the
  span, the deterministic cost currency every byte-identity guarantee
  covers.  A span's ``messages`` is the ledger's charge while it was
  open, so it already includes its descendants: ``total_wu`` is that
  count and ``self_wu`` is the part no direct child itemizes.  A capture
  whose children charge more than their parent did not come from the
  ledger, and folding it raises :class:`~repro.exceptions.ValidationError`.
* **seconds** — wall-clock, present only when the capture was taken with
  timings included (``Span.as_dict(include_timings=True)``).  Kept in
  separate, clearly-named fields so deterministic and wall-clock views
  never mix.

These entries are the substrate for the flamegraph exporter
(:mod:`repro.obs.flame`) and the capture diff (:mod:`repro.obs.diff`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

from repro.exceptions import ValidationError

__all__ = [
    "ProfileEntry",
    "SpanCost",
    "fold_span_tree",
    "profile_span_dicts",
    "profile_records",
]


@dataclass(frozen=True, slots=True)
class SpanCost:
    """Inclusive/exclusive cost of one span occurrence (one tree node)."""

    system: str
    phase: str
    name: str
    path: tuple[str, ...]
    self_wu: int
    total_wu: int
    self_seconds: float | None = None
    total_seconds: float | None = None


@dataclass(frozen=True, slots=True)
class ProfileEntry:
    """Aggregated cost of one span kind across a capture slice."""

    system: str
    phase: str
    name: str
    count: int
    self_wu: int
    total_wu: int
    self_seconds: float | None = None
    total_seconds: float | None = None

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready view; wall-clock fields only when measured."""
        payload: dict[str, Any] = {
            "system": self.system,
            "phase": self.phase,
            "name": self.name,
            "count": self.count,
            "self_wu": self.self_wu,
            "total_wu": self.total_wu,
        }
        if self.self_seconds is not None:
            payload["self_seconds"] = round(self.self_seconds, 6)
        if self.total_seconds is not None:
            payload["total_seconds"] = round(self.total_seconds, 6)
        return payload


def fold_span_tree(
    span: Mapping[str, Any],
    *,
    default_system: str = "",
    prefix: tuple[str, ...] = (),
) -> list[SpanCost]:
    """Walk one span dict tree into per-occurrence costs, depth-first.

    ``total_wu`` is the span's own ``messages`` (inclusive by
    construction) and ``self_wu`` is ``messages - sum of direct child
    messages``; a span whose direct children charge more than it raises
    :class:`~repro.exceptions.ValidationError`.  ``seconds``, when the
    capture carries them, fold the same way but clamp at zero, because
    rounded wall-clock windows can overlap by a tick.
    """
    children: Sequence[Mapping[str, Any]] = span.get("children", ())
    path = prefix + (str(span.get("name", "")),)
    costs: list[SpanCost] = []
    child_messages = 0
    child_total_seconds = 0.0
    child_seconds = 0.0
    timed_children = 0
    for child in children:
        child_costs = fold_span_tree(
            child, default_system=default_system, prefix=path
        )
        costs.extend(child_costs)
        top = child_costs[0]  # first entry of a fold is the subtree root
        child_messages += top.total_wu
        if top.total_seconds is not None:
            child_total_seconds += top.total_seconds
            timed_children += 1
        child_seconds += float(child.get("seconds", 0.0))
    messages = int(span.get("messages", 0))
    if child_messages > messages:
        raise ValidationError(
            f"span {'/'.join(path)!r} charges {messages} messages but its "
            f"children charge {child_messages}"
        )
    seconds = span.get("seconds")
    self_seconds: float | None = None
    total_seconds: float | None = None
    if seconds is not None:
        self_seconds = max(0.0, float(seconds) - child_seconds)
        total_seconds = max(float(seconds), child_total_seconds)
    elif timed_children:
        # Untimed parent over timed children: inherit the inclusive sum so
        # the timed subtrees stay visible in time-based views.
        total_seconds = child_total_seconds
        self_seconds = 0.0
    system = span.get("system") or default_system
    root = SpanCost(
        system=str(system),
        phase=str(span.get("phase", "")),
        name=str(span.get("name", "")),
        path=path,
        self_wu=messages - child_messages,
        total_wu=messages,
        self_seconds=self_seconds,
        total_seconds=total_seconds,
    )
    return [root] + costs


def _aggregate(costs: Iterable[SpanCost]) -> list[ProfileEntry]:
    """Sum per-occurrence costs into per-kind entries, sorted by key."""
    buckets: dict[tuple[str, str, str], dict[str, Any]] = {}
    for cost in costs:
        key = (cost.system, cost.phase, cost.name)
        bucket = buckets.setdefault(
            key,
            {
                "count": 0,
                "self_wu": 0,
                "total_wu": 0,
                "self_seconds": None,
                "total_seconds": None,
            },
        )
        bucket["count"] += 1
        bucket["self_wu"] += cost.self_wu
        bucket["total_wu"] += cost.total_wu
        if cost.self_seconds is not None:
            bucket["self_seconds"] = (bucket["self_seconds"] or 0.0) + cost.self_seconds
        if cost.total_seconds is not None:
            bucket["total_seconds"] = (
                bucket["total_seconds"] or 0.0
            ) + cost.total_seconds
    entries: list[ProfileEntry] = []
    for key in sorted(buckets):
        system, phase, name = key
        bucket = buckets[key]
        entries.append(
            ProfileEntry(
                system=system,
                phase=phase,
                name=name,
                count=bucket["count"],
                self_wu=bucket["self_wu"],
                total_wu=bucket["total_wu"],
                self_seconds=bucket["self_seconds"],
                total_seconds=bucket["total_seconds"],
            )
        )
    return entries


def profile_span_dicts(
    spans: Sequence[Mapping[str, Any]], *, default_system: str = ""
) -> list[ProfileEntry]:
    """Profile a list of span dict trees (one record's ``spans`` block)."""
    costs: list[SpanCost] = []
    for span in spans:
        costs.extend(fold_span_tree(span, default_system=default_system))
    return _aggregate(costs)


def profile_records(records: Iterable[Mapping[str, Any]]) -> list[ProfileEntry]:
    """Profile every record of a capture into one merged entry list.

    Folds each record's raw ``spans`` trees; the ``profile`` block a
    ``telemetry/2`` record carries is the same fold, precomputed, so the
    entries match it.
    """
    costs: list[SpanCost] = []
    for record in records:
        system = str(record.get("system", ""))
        for span in record.get("spans", ()):
            costs.extend(fold_span_tree(span, default_system=system))
    return _aggregate(costs)

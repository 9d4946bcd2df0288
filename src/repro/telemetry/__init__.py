"""First-class observability for the reproduction.

Three cooperating pieces, all off by default and free when disabled:

* :mod:`repro.telemetry.spans` — a query-lifecycle span API.  A
  :class:`SpanRecorder` attached to a :class:`~repro.network.network.Network`
  facade collects nested spans (sink → splitter → cell fan-out →
  aggregated replies) carrying phase, system label, message cost, node
  set and wall-clock.  A span's message cost is read off the
  :class:`~repro.network.radio.MessageStats` ledger it was opened with
  (the charges made while it was open), never counted by hand.
  Instrumented code opens spans through :func:`open_span`, which yields
  a shared no-op span when no recorder is attached.
* :mod:`repro.telemetry.metrics` — a metrics registry (counters, gauges,
  histograms) layered on the :class:`~repro.network.radio.MessageStats`
  scope tree, with derived hotspot statistics (max/mean load, Gini
  coefficient, top-k nodes) and per-node residual-energy maps.
* :mod:`repro.telemetry.export` — deterministic JSONL export under the
  versioned ``telemetry/2`` schema (span trees, metrics, per-span-kind
  ``profile`` blocks and the optional ``flight_recorder`` ring), merged
  in fixed cell order by the parallel experiment runner so ``--jobs 1``
  and ``--jobs N`` emit byte-identical files (wall-clock excluded,
  mirroring the result rows' ``include_timings=False``).

The analysis layer over these captures — flamegraph export, capture
diffing, latency percentiles, per-hop flight-recorder replay — lives in
:mod:`repro.obs`.

See ``docs/OBSERVABILITY.md`` for the full story.
"""

from repro.telemetry.export import (
    TELEMETRY_SCHEMA,
    collect_system_record,
    read_telemetry_jsonl,
    write_telemetry_jsonl,
)
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    HotspotStats,
    MetricsRegistry,
    gini,
)
from repro.telemetry.spans import Span, SpanRecorder, open_span

__all__ = [
    "Span",
    "SpanRecorder",
    "open_span",
    "Counter",
    "Gauge",
    "Histogram",
    "HotspotStats",
    "MetricsRegistry",
    "gini",
    "TELEMETRY_SCHEMA",
    "collect_system_record",
    "read_telemetry_jsonl",
    "write_telemetry_jsonl",
]

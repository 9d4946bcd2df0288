"""Trace-analysis and profiling over telemetry captures (``repro.obs``).

The telemetry layer (``repro/telemetry/``) *captures* what happened —
span trees, metrics, per-node load maps.  This package turns a capture
into an answer:

* :mod:`repro.obs.profile` — fold span trees into a per-span-kind
  profile (call counts, self/total work units, optional wall-clock);
* :mod:`repro.obs.flame` — export a capture as Chrome Trace Event JSON
  and speedscope documents (``python -m repro.obs.flame capture.jsonl``);
* :mod:`repro.obs.diff` — align two captures and attribute a regression
  to the span subtree whose self-cost grew
  (``python -m repro.obs.diff baseline.jsonl candidate.jsonl``);
* :mod:`repro.obs.percentiles` — per-(system, size) latency/cost
  percentiles, the substrate for SLO reporting
  (``pool-bench report capture.jsonl --percentiles``);
* :mod:`repro.obs.recorder` — the opt-in per-hop flight recorder ring
  wired through the GPSR/ARQ send path (``pool-bench --flight-recorder``);
* :mod:`repro.obs.route` — replay one recorded packet's route
  (``python -m repro.obs.route capture.jsonl <packet-id>``).

Everything here is an *analysis* layer: work-unit outputs are pure
functions of a capture (byte-stable across ``--jobs``),
and wall-clock fields are segregated — they only appear when the capture
was taken with timings enabled, never in the deterministic default form.

Only the leaf modules that the runtime layers need (the recorder and the
profile folding) are re-exported here; the CLI-facing modules import
:mod:`repro.telemetry.export` and are loaded on demand to keep the
import graph acyclic.
"""

from __future__ import annotations

from repro.obs.profile import ProfileEntry, profile_records, profile_span_dicts
from repro.obs.recorder import FlightRecorder

__all__ = [
    "FlightRecorder",
    "ProfileEntry",
    "profile_records",
    "profile_span_dicts",
]

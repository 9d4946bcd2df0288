"""Whole-program static analysis for the reproduction's invariants.

Where :mod:`repro_lint.rules` checks one file at a time, this package
builds a project-wide module/call graph and runs *interprocedural*,
dataflow-aware checks over it — the three REP10x rule families:

========  ==============================================================
REP101    Ledger conservation: every computed route is charged to the
          message ledger exactly once (no uncharged sends, no double
          charges), across helper-function boundaries.
REP102    RNG-stream collisions: two ``derive(seed, ...)`` call sites
          whose key tuples can produce the same stream.
REP103    Wall-clock taint: host-time readings (including the otherwise
          legal ``time.perf_counter``) flowing into the simulated
          serving layer (``SimClock``, schedules, caches, SLO reports).
========  ==============================================================

Entry point: :func:`repro_lint.analysis.engine.run_analysis`, surfaced on
the CLI as ``python -m repro_lint --analyze``.
"""

from repro_lint.analysis.engine import AnalysisResult, run_analysis
from repro_lint.analysis.rules import ANALYSIS_RULES, ANALYSIS_RULE_SUMMARIES

__all__ = [
    "AnalysisResult",
    "run_analysis",
    "ANALYSIS_RULES",
    "ANALYSIS_RULE_SUMMARIES",
]

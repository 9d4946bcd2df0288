"""Registry of the interprocedural REP10x rule families.

Each rule is ``rule(ctx: AnalysisContext) -> list[Violation]`` — unlike
the per-file REP00x rules it sees the whole project: parsed modules,
the call graph and the constant-propagation results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro_lint.analysis.callgraph import CallGraph
from repro_lint.analysis.constprop import ConstEnv
from repro_lint.analysis.ledger import check_ledger_conservation
from repro_lint.analysis.project import Project
from repro_lint.analysis.rngstreams import check_rng_streams
from repro_lint.analysis.taint import check_wallclock_taint
from repro_lint.config import Config
from repro_lint.rules import Violation

__all__ = [
    "AnalysisContext",
    "ANALYSIS_RULES",
    "ANALYSIS_RULE_SUMMARIES",
]


@dataclass
class AnalysisContext:
    """Everything a whole-program rule gets to look at."""

    project: Project
    graph: CallGraph
    consts: ConstEnv
    config: Config


AnalysisRuleFn = Callable[[AnalysisContext], "list[Violation]"]

ANALYSIS_RULE_SUMMARIES: dict[str, str] = {
    "REP101": "computed hop path not charged to the ledger exactly once",
    "REP102": "two derive() call sites can produce the same RNG stream",
    "REP103": "wall-clock reading flows into the simulated serve layer",
}

ANALYSIS_RULES: dict[str, AnalysisRuleFn] = {
    "REP101": check_ledger_conservation,
    "REP102": check_rng_streams,
    "REP103": check_wallclock_taint,
}

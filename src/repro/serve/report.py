"""Throughput / latency / SLO reporting for the serving layer.

Every number here is derived from *simulated* time and the deterministic
message ledger, so a serve report is byte-identical across runs — it can
be diffed in CI like any other capture.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "ServedQuery",
    "ServeReport",
    "render_serve_table",
    "render_robustness_table",
    "COMPLETE_OUTCOMES",
    "TERMINAL_OUTCOMES",
]

#: How a request was satisfied.
OUTCOME_EXECUTED = "executed"
OUTCOME_CACHE = "cache"
OUTCOME_COALESCED = "coalesced"
#: Overload/fault terminal outcomes (the robustness layer).
OUTCOME_PARTIAL = "partial"  # executed, but some cells stayed unreachable
OUTCOME_TIMEOUT = "timeout"  # deadline passed (queued or completed late)
OUTCOME_SHED = "shed"  # dropped by the bounded queue or an open breaker
OUTCOME_REJECTED = "rejected"  # malformed request, never executed
OUTCOME_STALE = "stale"  # complete-but-invalidated cache entry (breaker open)

#: Outcomes that answered the query fully and count toward goodput.
COMPLETE_OUTCOMES = frozenset(
    {OUTCOME_EXECUTED, OUTCOME_CACHE, OUTCOME_COALESCED}
)

#: Every terminal outcome a request can end in (exactly one each).
TERMINAL_OUTCOMES = frozenset(
    {
        OUTCOME_EXECUTED,
        OUTCOME_CACHE,
        OUTCOME_COALESCED,
        OUTCOME_PARTIAL,
        OUTCOME_TIMEOUT,
        OUTCOME_SHED,
        OUTCOME_REJECTED,
        OUTCOME_STALE,
    }
)


@dataclass(slots=True)
class ServedQuery:
    """Accounting for one served request."""

    request_id: int
    sink: int
    submitted_at: float
    served_at: float
    outcome: str  # a TERMINAL_OUTCOMES member
    messages: int  # ledger messages charged on behalf of this request
    saved_messages: int  # messages an uncached/uncoalesced run would charge
    depth_hops: int
    matches: int
    latency_s: float  # queue wait + simulated radio round trip
    #: Fraction of query-relevant cells that answered (< 1.0 only for
    #: partial outcomes under loss/faults).
    completeness: float = 1.0
    #: Partial-result re-executions spent on this request.
    retries: int = 0

    def as_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "request_id": self.request_id,
            "sink": self.sink,
            "submitted_at": round(self.submitted_at, 6),
            "served_at": round(self.served_at, 6),
            "outcome": self.outcome,
            "messages": self.messages,
            "saved_messages": self.saved_messages,
            "depth_hops": self.depth_hops,
            "matches": self.matches,
            "latency_s": round(self.latency_s, 6),
        }
        # Robustness fields appear only when they deviate from the
        # lossless defaults, keeping clean-run exports byte-identical to
        # the pre-admission serving layer.
        if self.completeness < 1.0:
            payload["completeness"] = round(self.completeness, 6)
        if self.retries:
            payload["retries"] = self.retries
        return payload


def _percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile over a pre-sorted sample (0.0 if empty)."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1, round(p * (len(sorted_values) - 1))))
    return sorted_values[rank]


@dataclass(slots=True)
class ServeReport:
    """One service run's aggregate accounting."""

    system: str
    duration: float  # simulated seconds the schedule spanned
    slo_target_s: float
    served: list[ServedQuery] = field(default_factory=list)
    messages_total: int = 0  # everything the ledger charged during serving
    #: Serialized robustness configuration (admission/retry/breaker) when
    #: any of it is active; ``None`` keeps the legacy report shape.
    policy: dict[str, Any] | None = None
    #: Circuit-breaker trip count (0 when no breaker is configured).
    breaker_trips: int = 0

    # -- derived ------------------------------------------------------- #

    @property
    def requests(self) -> int:
        return len(self.served)

    @property
    def offered(self) -> int:
        """Every request the schedule submitted (each ends in exactly one
        terminal outcome, so this equals ``len(served)``)."""
        return len(self.served)

    @property
    def cache_hits(self) -> int:
        return sum(1 for s in self.served if s.outcome == OUTCOME_CACHE)

    @property
    def coalesced(self) -> int:
        return sum(1 for s in self.served if s.outcome == OUTCOME_COALESCED)

    @property
    def executed(self) -> int:
        return sum(1 for s in self.served if s.outcome == OUTCOME_EXECUTED)

    @property
    def partials(self) -> int:
        return sum(1 for s in self.served if s.outcome == OUTCOME_PARTIAL)

    @property
    def timeouts(self) -> int:
        return sum(1 for s in self.served if s.outcome == OUTCOME_TIMEOUT)

    @property
    def shed(self) -> int:
        return sum(1 for s in self.served if s.outcome == OUTCOME_SHED)

    @property
    def rejected(self) -> int:
        return sum(1 for s in self.served if s.outcome == OUTCOME_REJECTED)

    @property
    def stale_served(self) -> int:
        return sum(1 for s in self.served if s.outcome == OUTCOME_STALE)

    @property
    def goodput(self) -> float:
        """SLO-met complete answers / offered requests.

        A request contributes only when it was answered *fully* (an
        executed, cached or coalesced outcome with completeness 1.0)
        *within* the SLO latency target.  Shed, timed-out, rejected,
        partial and stale-served requests all count against goodput —
        the honest denominator is everything the workload offered.
        """
        if not self.served:
            return 1.0
        good = sum(
            1
            for s in self.served
            if s.outcome in COMPLETE_OUTCOMES
            and s.completeness >= 1.0
            and s.latency_s <= self.slo_target_s
        )
        return good / len(self.served)

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.requests if self.requests else 0.0

    @property
    def saved_messages(self) -> int:
        return sum(s.saved_messages for s in self.served)

    @property
    def throughput(self) -> float:
        """Requests per simulated second."""
        return self.requests / self.duration if self.duration > 0 else 0.0

    def latency_percentile(self, p: float) -> float:
        return _percentile(sorted(s.latency_s for s in self.served), p)

    @property
    def slo_attainment(self) -> float:
        """Fraction of requests served within the SLO latency target."""
        if not self.served:
            return 1.0
        within = sum(1 for s in self.served if s.latency_s <= self.slo_target_s)
        return within / len(self.served)

    @property
    def robust(self) -> bool:
        """Whether the robustness block belongs in the export.

        True when any overload/fault policy was configured, or when any
        request ended in a robustness outcome (chaos without admission
        control still reports goodput honestly).  False on a default
        lossless run, whose export must stay byte-identical to the
        pre-admission serving layer.
        """
        if self.policy is not None:
            return True
        return any(s.outcome not in COMPLETE_OUTCOMES for s in self.served)

    def as_dict(self, *, include_requests: bool = True) -> dict[str, Any]:
        """JSON-ready view (deterministic; the CI artifact format).

        A :attr:`robust` report is the serve-report/2 shape: everything
        from v1 plus the overload/fault accounting (goodput, terminal-
        outcome counters, the active policy and breaker trips).  Key
        order is irrelevant: every export is dumped with sorted keys.
        """
        robust = self.robust
        payload: dict[str, Any] = {
            "schema": "serve-report/2" if robust else "serve-report/1",
            "system": self.system,
            "duration_s": round(self.duration, 6),
            "requests": self.requests,
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "coalesced": self.coalesced,
            "hit_rate": round(self.hit_rate, 6),
            "messages_total": self.messages_total,
            "saved_messages": self.saved_messages,
            "throughput_rps": round(self.throughput, 6),
            "latency_p50_s": round(self.latency_percentile(0.50), 6),
            "latency_p95_s": round(self.latency_percentile(0.95), 6),
            "latency_p99_s": round(self.latency_percentile(0.99), 6),
            "slo_target_s": round(self.slo_target_s, 6),
            "slo_attainment": round(self.slo_attainment, 6),
        }
        if robust:
            payload.update(
                offered=self.offered,
                partial=self.partials,
                timeouts=self.timeouts,
                shed=self.shed,
                rejected=self.rejected,
                stale_served=self.stale_served,
                goodput=round(self.goodput, 6),
                breaker_trips=self.breaker_trips,
                policy=self.policy,
            )
        if include_requests:
            payload["served"] = [s.as_dict() for s in self.served]
        return payload


def render_robustness_table(reports: list[ServeReport]) -> str:
    """Overload/fault outcome summary, one row per (robust) report.

    Rendered by the CLI *in addition to* the classic serve table whenever
    a run carried robustness outcomes, so default runs keep their exact
    historical stdout.
    """
    header = (
        f"{'system':<10} {'offered':>7} {'ok':>5} {'part':>5} {'shed':>5} "
        f"{'tmo':>5} {'rej':>5} {'stale':>5} {'trips':>5} {'goodput':>8} "
        f"{'p95 ms':>8}"
    )
    lines = [header, "-" * len(header)]
    for report in reports:
        ok = report.executed + report.cache_hits + report.coalesced
        lines.append(
            f"{report.system:<10} {report.offered:>7} {ok:>5} "
            f"{report.partials:>5} {report.shed:>5} {report.timeouts:>5} "
            f"{report.rejected:>5} {report.stale_served:>5} "
            f"{report.breaker_trips:>5} {100 * report.goodput:>7.1f}% "
            f"{1000 * report.latency_percentile(0.95):>8.2f}"
        )
    return "\n".join(lines)


def render_serve_table(
    rows: list[tuple[ServeReport, ServeReport]],
) -> str:
    """Human-readable serve summary.

    ``rows`` pairs each system's cached run with its uncached control run
    of the same schedule; the messages-saved column is the measured
    difference between the two ledgers, not an estimate.
    """
    header = (
        f"{'system':<10} {'req':>5} {'hits':>5} {'hit%':>6} {'coal':>5} "
        f"{'msgs':>8} {'uncached':>9} {'saved':>8} {'p50 ms':>8} "
        f"{'p95 ms':>8} {'slo%':>6}"
    )
    lines = [header, "-" * len(header)]
    for report, control in rows:
        saved = control.messages_total - report.messages_total
        lines.append(
            f"{report.system:<10} {report.requests:>5} "
            f"{report.cache_hits:>5} {100 * report.hit_rate:>5.1f}% "
            f"{report.coalesced:>5} {report.messages_total:>8} "
            f"{control.messages_total:>9} {saved:>8} "
            f"{1000 * report.latency_percentile(0.50):>8.2f} "
            f"{1000 * report.latency_percentile(0.95):>8.2f} "
            f"{100 * report.slo_attainment:>5.1f}%"
        )
    return "\n".join(lines)

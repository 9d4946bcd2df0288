"""Scripted fake system + schedule helpers shared by the serve tests."""

from __future__ import annotations

from repro.dcs import PartialResult, QueryResult
from repro.exec import Execution, QueryPlan
from repro.serve import ServeRequest, ServeSchedule


def make_request(i, t, sink=0, query=None, deadline_s=None):
    return ServeRequest(
        request_id=i, time=t, sink=sink, query=query, deadline_s=deadline_s
    )


def make_schedule(requests):
    duration = max(r.time for r in requests) + 1.0
    return ServeSchedule(requests=tuple(requests), duration=duration)


class _Stats:
    """Minimal ledger: one counter, checkpoint/delta like MessageStats."""

    def __init__(self):
        self.total = 0

    def checkpoint(self):
        return self.total

    def delta(self, before):
        return {"query": self.total - before}


class _Net:
    def __init__(self):
        self.stats = _Stats()
        self.telemetry = None


class FakeSystem:
    """Scripted staged system.

    Every execution charges ``cost`` messages; each fold pops the next
    entry of ``outcomes`` ("ok" or "partial"; exhausted = "ok").  The
    per-request service time is ``2 * depth * hop_latency``, which the
    admitted loop's occupancy model turns into queueing.
    """

    dimensions = 3
    layout_version = 0

    def __init__(self, outcomes=(), cost=10, depth=5):
        self.network = _Net()
        self.insert_listeners = []
        self.outcomes = list(outcomes)
        self.cost = cost
        self.depth = depth
        self.executions = 0

    def plan_query(self, sink, query):
        return QueryPlan(
            system="fake",
            sink=sink,
            query=query,
            cells=("c",),
            destinations=(1,),
            share_key=("fake", sink, query),
        )

    def execute_plan(self, plan):
        self.network.stats.total += self.cost
        self.executions += 1
        return Execution(
            forward_cost=self.cost, depth_hops=self.depth, answered=frozenset({1})
        )

    def fold_replies(self, plan, execution):
        kind = self.outcomes.pop(0) if self.outcomes else "ok"
        if kind == "ok":
            return QueryResult(
                events=[], forward_cost=self.cost, reply_cost=0,
                depth_hops=self.depth,
            )
        return PartialResult(
            events=[], forward_cost=self.cost, reply_cost=0,
            depth_hops=self.depth,
            attempted_cells=2, answered_cells=1,
            unreachable_cells=("c",), unreachable_nodes=(1,),
        )

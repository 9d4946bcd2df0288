"""Distributed execution of Pool queries on the discrete-event simulator.

The benchmark harness accounts for queries synchronously (GPSR paths and
forwarding trees are deterministic).  This module is the proof that the
accounting corresponds to a real protocol: it runs the *same* query as
asynchronous message passing —

1. the sink unicasts the query to each Pool's splitter, hop by hop
   (skipped when the system roots its trees at the sink,
   ``route_via_splitter=False``);
2. the splitter disseminates it down the forwarding tree, one radio
   transmission per tree edge, children in parallel;
3. each holder answers from local storage; a node sends its (aggregated)
   reply upstream only once all of its subtree's replies arrived —
   in-network aggregation exactly as Section 3.2.3 describes;
4. the splitter relays the Pool's combined answer back to the sink.

Every hop is a :meth:`Simulator.hop` (legs are :meth:`Simulator.send_path`
walks of them), so the oracle runs under the simulator's reliability
layer: loss, ARQ retries and fault-plan deaths reach it exactly as they
reach the synchronous path, and a failed hop silences its branch.
``tests/core/test_protocol.py`` asserts that, lossless, the events and
the per-category message counts equal :meth:`PoolSystem.query`'s
synchronous result, message for message, and checks the lossy cases.

The query packet carries its forwarding tree (source routing), which is
how small dissemination trees are shipped in practice; holders do not
need global knowledge.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.system import PoolLegPlan, PoolSystem
from repro.events.event import Event
from repro.events.queries import RangeQuery
from repro.exceptions import DimensionMismatchError, QueryError
from repro.network.messages import MessageCategory
from repro.network.simulator import Simulator
from repro.routing.multicast import MulticastTree, TreeBuilder
from repro.telemetry.spans import open_span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.spans import SpanRecorder

__all__ = ["DistributedQueryRun", "run_query_on_simulator"]


@dataclass(slots=True)
class DistributedQueryRun:
    """Outcome of one event-driven query execution.

    ``unreachable_nodes`` lists tree nodes whose answers never made it to
    the sink (a relay or holder died while the query was in flight); the
    run still completes gracefully with whatever the surviving branches
    returned.
    """

    events: list[Event]
    forward_cost: int
    reply_cost: int
    completed_at: float
    pools_visited: int
    unreachable_nodes: tuple[int, ...] = ()

    @property
    def total_cost(self) -> int:
        return self.forward_cost + self.reply_cost

    @property
    def complete(self) -> bool:
        """Did every launched branch deliver its answer?"""
        return not self.unreachable_nodes


@dataclass(slots=True)
class _PoolRun:
    """Mutable per-Pool execution state (reply aggregation bookkeeping)."""

    tree: MulticastTree
    children: dict[int, list[int]]
    pending: dict[int, int] = field(default_factory=dict)
    partials: dict[int, list[Event]] = field(default_factory=dict)
    failed: set[int] = field(default_factory=set)
    done: bool = False


class _Execution:
    """Drives one query across all Pools and collects the grand reply."""

    def __init__(
        self,
        system: PoolSystem,
        simulator: Simulator,
        sink: int,
        query: RangeQuery,
        recorder: "SpanRecorder | None" = None,
    ) -> None:
        self.system = system
        self.simulator = simulator
        self.sink = sink
        self.query = query
        self.recorder = recorder
        self.events: list[Event] = []
        self.outstanding_pools = 0
        self.pools_visited = 0
        self.completed_at = 0.0
        self.unreachable: set[int] = set()

    # ---------------------------- dissemination ----------------------- #

    def start(self) -> None:
        # The facade's own plan, so the oracle walks exactly the legs
        # (splitter, destinations, cells) the synchronous query charges.
        legs: tuple[PoolLegPlan, ...] = self.system.plan_query(
            self.sink, self.query
        ).detail
        self.outstanding_pools = self.pools_visited = len(legs)
        for leg in legs:
            holders_rows: dict[int, list[array[int]]] = {}
            for ho, vo in leg.offsets:
                store = self.system._stores.get((leg.pool, ho, vo))
                if store is None:
                    continue
                for segment in store.segments_overlapping(leg.vertical):
                    holders_rows.setdefault(segment.node, []).append(
                        segment.rows
                    )
            # Each holder answers from its own storage.
            holders_events = {
                node: self.system._table.select(self.query, rows)
                for node, rows in holders_rows.items()
            }
            self._launch_pool(leg.splitter, list(leg.destinations), holders_events)

    def _launch_pool(
        self,
        splitter: int,
        destinations: list[int],
        holders_events: dict[int, list[Event]],
    ) -> None:
        sim = self.simulator
        builder = TreeBuilder(sim.router, splitter)
        builder.add_destinations(destinations)
        tree = builder.build()
        if self.recorder is not None:
            # One launch marker per Pool.  Its messages are charged
            # later, as events fire, so they count toward the enclosing
            # ``distributed-query`` span rather than this instant.
            self.recorder.record(
                "pool-dissemination",
                phase="simulate",
                nodes=tree.depths,
                splitter=splitter,
                destinations=len(destinations),
            )
        run = _PoolRun(tree=tree, children=tree.children())
        # pending = own children count; a node replies upstream once all
        # of its children replied (leaves reply immediately).
        for node in tree.depths:
            run.pending[node] = len(run.children.get(node, ()))
            run.partials[node] = list(holders_events.get(node, ()))
        sink_path = sim.router.path(self.sink, splitter)

        parents = tree.parents

        def finish_pool(pool_events: list[Event]) -> None:
            if run.done:
                return
            run.done = True
            self.events.extend(pool_events)
            self.outstanding_pools -= 1
            if self.outstanding_pools == 0:
                self.completed_at = sim.now

        def silence_pool(_prefix: list[int]) -> None:
            # The sink->splitter leg (or the combined answer's way home)
            # failed: every contributor of this pool goes unanswered.
            self.unreachable.update(tree.depths)
            finish_pool([])

        def subtree_nodes(node: int) -> list[int]:
            reached = [node]
            stack = [node]
            while stack:
                for child in run.children.get(stack.pop(), ()):
                    reached.append(child)
                    stack.append(child)
            return reached

        def fail_branch(node: int) -> None:
            # A relay/holder died, or a hop ran out of retries, with the
            # query in flight: its whole subtree's answers are lost, but
            # the rest of the tree (and the other pools) still resolve —
            # graceful degradation, not a DeliveryError.
            if node in run.failed:
                return
            branch = subtree_nodes(node)
            run.failed.update(branch)
            self.unreachable.update(branch)
            parent = parents.get(node)
            if parent is None:
                finish_pool([])
            else:
                child_done(parent)

        def child_done(parent: int) -> None:
            run.pending[parent] -= 1
            if run.pending[parent] == 0 and parent not in run.failed:
                reply_up(parent)

        def disseminate(node: int) -> None:
            if not sim.nodes[node].alive:
                fail_branch(node)
                return
            kids = run.children.get(node, ())
            if not kids and run.pending[node] == 0:
                reply_up(node)
                return
            for child in kids:
                sim.hop(
                    MessageCategory.QUERY_FORWARD, node, child,
                    lambda c=child: disseminate(c), lambda c=child: fail_branch(c),
                )

        def reply_up(node: int) -> None:
            if node in run.failed:
                return
            parent = parents.get(node)
            if parent is None:
                if not sim.nodes[node].alive:
                    fail_branch(node)
                    return
                # Splitter -> sink relay of the aggregated pool answer.
                sim.send_path(
                    MessageCategory.QUERY_REPLY, sink_path[::-1],
                    lambda: finish_pool(run.partials[node]), silence_pool,
                )
                return

            def merged() -> None:
                run.partials[parent].extend(run.partials[node])
                child_done(parent)

            def lost() -> None:
                # A dead parent takes its whole branch down; a hop lost
                # to a live parent silences only this child's subtree.
                fail_branch(node if sim.nodes[parent].alive else parent)

            sim.hop(MessageCategory.QUERY_REPLY, node, parent, merged, lost)

        sim.send_path(
            MessageCategory.QUERY_FORWARD, sink_path,
            lambda: disseminate(splitter), silence_pool,
        )


def run_query_on_simulator(
    system: PoolSystem,
    simulator: Simulator,
    sink: int,
    query: RangeQuery,
    *,
    recorder: "SpanRecorder | None" = None,
) -> DistributedQueryRun:
    """Execute ``query`` as asynchronous message passing; returns the run.

    The simulator must share the topology the system was built on.  The
    run's costs come out of ``simulator.stats`` (reset here so the counts
    are exactly this query's).  With ``recorder`` given, the whole run is
    wrapped in a ``distributed-query`` span charged off
    ``simulator.stats``, with one nested ``pool-dissemination`` leaf per
    Pool launched.
    """
    if query.dimensions != system.dimensions:
        raise DimensionMismatchError(system.dimensions, query.dimensions, "query")
    if simulator.topology is not system.network.topology:
        raise QueryError(
            "simulator and PoolSystem must share the same topology object"
        )
    simulator.stats.reset()
    execution = _Execution(system, simulator, sink, query, recorder)
    with open_span(
        recorder, "distributed-query", ledger=simulator.stats, phase="simulate", sink=sink
    ) as root:
        execution.start()
        simulator.run()
        root.annotate(pools_visited=execution.pools_visited)
    if execution.outstanding_pools:
        raise QueryError(
            f"{execution.outstanding_pools} pool(s) never replied; "
            "the event queue drained early"
        )
    return DistributedQueryRun(
        events=execution.events,
        forward_cost=simulator.stats.count(MessageCategory.QUERY_FORWARD),
        reply_cost=simulator.stats.count(MessageCategory.QUERY_REPLY),
        completed_at=execution.completed_at,
        pools_visited=execution.pools_visited,
        unreachable_nodes=tuple(sorted(execution.unreachable)),
    )

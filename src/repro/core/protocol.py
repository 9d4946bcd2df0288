"""Distributed execution of tree-system queries on the discrete-event simulator.

The benchmark harness accounts for queries synchronously (GPSR paths and
forwarding trees are deterministic).  This module is the proof that the
accounting corresponds to a real protocol: it runs the *same* plan of a
Pool, DIM or DIFS system as asynchronous message passing, leg by leg
(one leg per Pool; DIM and DIFS plan a single leg) —

1. the sink unicasts the query to the leg's tree root, hop by hop.  A
   Pool's splitter roots its leg; DIM and DIFS root their tree at the
   sink, as Pool does with ``route_via_splitter=False``, so that path
   is the sink alone and costs nothing;
2. the root disseminates the query down the leg's planned tree, one
   radio transmission per tree edge, children in parallel;
3. each holder answers from local storage
   (the system's ``leg_answers``); a node sends its (aggregated) reply
   upstream only once all of its subtree's replies arrived —
   in-network aggregation exactly as Section 3.2.3 describes;
4. the root relays the leg's combined answer back to the sink.

Every hop is a :meth:`Simulator.hop` (legs are :meth:`Simulator.send_path`
walks of them), so the oracle runs under the simulator's reliability
layer: loss, ARQ retries and fault-plan deaths reach it exactly as they
reach the synchronous path, and a failed hop silences its branch.
``tests/core/test_protocol.py`` asserts that, lossless, the events and
the per-category message counts equal the system's synchronous
``query``, message for message, and checks the lossy cases.

The query packet carries its forwarding tree (source routing), which is
how small dissemination trees are shipped in practice; holders do not
need global knowledge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.system import PoolSystem
from repro.difs.index import DifsIndex
from repro.dim.index import DimIndex
from repro.events.event import Event
from repro.events.queries import RangeQuery
from repro.exceptions import DimensionMismatchError, QueryError
from repro.network.messages import MessageCategory
from repro.network.simulator import Simulator
from repro.routing.multicast import MulticastTree
from repro.telemetry.spans import open_span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.spans import SpanRecorder

__all__ = ["DistributedQueryRun", "run_query_on_simulator"]

#: The systems whose plans carry forwarding trees.
TreeSystem = PoolSystem | DimIndex | DifsIndex


@dataclass(slots=True)
class DistributedQueryRun:
    """Outcome of one event-driven query execution.

    ``unreachable_nodes`` lists the destinations whose answers never
    made it to the sink (a relay or holder died, or a hop ran out of
    retries, while the query was in flight): the synchronous result's
    ``unreachable_nodes``.  The run still completes gracefully with
    whatever the surviving branches returned.
    """

    events: list[Event]
    forward_cost: int
    reply_cost: int
    completed_at: float
    #: Legs launched: the Pools visited, or 1 for DIM and DIFS.
    legs: int
    unreachable_nodes: tuple[int, ...] = ()

    @property
    def total_cost(self) -> int:
        return self.forward_cost + self.reply_cost

    @property
    def complete(self) -> bool:
        """Did every launched branch deliver its answer?"""
        return not self.unreachable_nodes


class _Execution:
    """Drives one query's legs and collects the grand reply."""

    def __init__(
        self, simulator: Simulator, sink: int, recorder: "SpanRecorder | None"
    ) -> None:
        self.simulator = simulator
        self.sink = sink
        self.recorder = recorder
        self.events: list[Event] = []
        self.outstanding_legs = 0
        self.completed_at = 0.0
        self.unreachable: set[int] = set()

    def launch(
        self, tree: MulticastTree, holders_events: dict[int, list[Event]]
    ) -> None:
        """Start one leg: the sink -> root path, then ``tree`` from its root."""
        sim = self.simulator
        root = tree.root
        self.outstanding_legs += 1
        if self.recorder is not None:
            # One launch marker per leg.  Its messages are charged
            # later, as events fire, so they count toward the enclosing
            # ``distributed-query`` span rather than this instant.
            self.recorder.record(
                "tree-dissemination",
                phase="simulate",
                nodes=tree.depths,
                root=root,
                destinations=len(tree.destinations),
            )
        children = tree.children()
        # pending = own children count; a node replies upstream once all
        # of its children replied (leaves reply immediately).
        pending = {node: len(children.get(node, ())) for node in tree.depths}
        partials = {node: list(holders_events.get(node, ())) for node in tree.depths}
        failed: set[int] = set()
        done = False
        sink_path = sim.router.path(self.sink, root)
        parents = tree.parents
        destinations = frozenset(tree.destinations)

        def finish_leg(leg_events: list[Event]) -> None:
            nonlocal done
            if done:
                return
            done = True
            self.events.extend(leg_events)
            self.outstanding_legs -= 1
            if self.outstanding_legs == 0:
                self.completed_at = sim.now

        def silence_leg(_prefix: list[int]) -> None:
            # The sink->root path (or the combined answer's way home)
            # failed: every contributor of this leg goes unanswered.
            self.unreachable.update(tree.destinations)
            finish_leg([])

        def subtree_nodes(node: int) -> list[int]:
            reached = [node]
            stack = [node]
            while stack:
                for child in children.get(stack.pop(), ()):
                    reached.append(child)
                    stack.append(child)
            return reached

        def fail_branch(node: int) -> None:
            # A relay/holder died, or a hop ran out of retries, with the
            # query in flight: its whole subtree's answers are lost, but
            # the rest of the tree (and the other legs) still resolve —
            # graceful degradation, not a DeliveryError.
            if node in failed:
                return
            branch = subtree_nodes(node)
            failed.update(branch)
            self.unreachable.update(n for n in branch if n in destinations)
            parent = parents.get(node)
            if parent is None:
                finish_leg([])
            else:
                child_done(parent)

        def child_done(parent: int) -> None:
            pending[parent] -= 1
            if pending[parent] == 0 and parent not in failed:
                reply_up(parent)

        def disseminate(node: int) -> None:
            if not sim.nodes[node].alive:
                fail_branch(node)
                return
            kids = children.get(node, ())
            if not kids and pending[node] == 0:
                reply_up(node)
                return
            for child in kids:
                sim.hop(
                    MessageCategory.QUERY_FORWARD, node, child,
                    lambda c=child: disseminate(c), lambda c=child: fail_branch(c),
                )

        def reply_up(node: int) -> None:
            if node in failed:
                return
            parent = parents.get(node)
            if parent is None:
                if not sim.nodes[node].alive:
                    fail_branch(node)
                    return
                # Root -> sink relay of the leg's aggregated answer.
                sim.send_path(
                    MessageCategory.QUERY_REPLY, sink_path[::-1],
                    lambda: finish_leg(partials[node]), silence_leg,
                )
                return

            def merged() -> None:
                partials[parent].extend(partials[node])
                child_done(parent)

            def lost() -> None:
                # A dead parent takes its whole branch down; a hop lost
                # to a live parent silences only this child's subtree.
                fail_branch(node if sim.nodes[parent].alive else parent)

            sim.hop(MessageCategory.QUERY_REPLY, node, parent, merged, lost)

        sim.send_path(
            MessageCategory.QUERY_FORWARD, sink_path,
            lambda: disseminate(root), silence_leg,
        )


def run_query_on_simulator(
    system: TreeSystem,
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
    ``simulator.stats``, with one nested ``tree-dissemination`` leaf per
    leg launched.
    """
    if query.dimensions != system.dimensions:
        raise DimensionMismatchError(system.dimensions, query.dimensions, "query")
    if simulator.topology is not system.network.topology:
        raise QueryError(
            "simulator and system must share the same topology object"
        )
    simulator.stats.reset()
    # The system's own plan, so the oracle walks exactly the trees the
    # synchronous query charges.
    legs = system.leg_answers(system.plan_query(sink, query))
    execution = _Execution(simulator, sink, recorder)
    with open_span(
        recorder, "distributed-query", ledger=simulator.stats, phase="simulate", sink=sink
    ) as root:
        for tree, holders_events in legs:
            execution.launch(tree, holders_events)
        simulator.run()
        root.annotate(legs=len(legs))
    if execution.outstanding_legs:
        raise QueryError(
            f"{execution.outstanding_legs} leg(s) never replied; "
            "the event queue drained early"
        )
    return DistributedQueryRun(
        events=execution.events,
        forward_cost=simulator.stats.count(MessageCategory.QUERY_FORWARD),
        reply_cost=simulator.stats.count(MessageCategory.QUERY_REPLY),
        completed_at=execution.completed_at,
        legs=len(legs),
        unreachable_nodes=tuple(sorted(execution.unreachable)),
    )

"""The staged query pipeline: plan → execute → fold.

Every system under test implements the :class:`StagedQuerySystem`
protocol:

* ``plan_query(sink, query)`` — **pure resolving**.  Computes the
  relevant cell set and the dissemination targets; charges zero
  messages; returns a hashable :class:`~repro.exec.plan.QueryPlan`.
* ``execute_plan(plan)`` — **message-charging dissemination and
  collection**.  Walks the plan's forwarding trees, charges the ledger
  and returns an :class:`Execution` naming which holders answered and
  what the transport cost.
* ``fold_replies(plan, execution)`` — **reply aggregation**.  Reads the
  qualifying events from the answered holders' stores and folds them
  into the system's :class:`~repro.dcs.QueryResult`, degrading to a
  partial result when holders were unreachable.

``query(sink, query)`` on every system is a thin wrapper over
:func:`run_staged`, which chains the three stages under the query
lifecycle telemetry span — byte-identical accounting to the historical
monolithic implementations (pinned by ``tests/exec/test_golden.py``).

The split is what the serving layer builds on: plans are cached and
invalidated by cell set, executions are shared across a batch of
concurrent queries with equal share keys, and folds stay per-query.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Hashable, Protocol, runtime_checkable

from repro.dcs import QueryResult
from repro.events.event import Event
from repro.events.queries import RangeQuery
from repro.exceptions import DimensionMismatchError
from repro.exec.plan import QueryPlan
from repro.network.messages import MessageCategory
from repro.telemetry.spans import open_span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.network import Network
    from repro.routing.multicast import MulticastTree

__all__ = [
    "Execution",
    "SinkTree",
    "SinkTreeSystem",
    "StagedQuerySystem",
    "InsertListener",
    "run_staged",
    "check_query_dimensions",
]

#: Uniform insert-notification signature: ``(cell, event, holder)`` where
#: ``cell`` is the system's native cell identity (the same identity the
#: system's plans list in :attr:`QueryPlan.cells`).
InsertListener = Callable[[Hashable, Event, int], None]


@dataclass(slots=True)
class Execution:
    """Outcome of the message-charging stage of one plan.

    ``answered`` is the set of destination nodes whose aggregated reply
    reached the sink — every destination on a lossless facade, a subset
    under the reliability layer.  ``detail`` carries system-specific raw
    outcomes (per-Pool leg transcripts, flooding responder scans, ...)
    that the fold stage consumes.
    """

    forward_cost: int = 0
    reply_cost: int = 0
    depth_hops: int = 0
    answered: frozenset[int] = field(default_factory=frozenset)
    detail: Any = None

    @property
    def total_cost(self) -> int:
        """Messages charged by this execution."""
        return self.forward_cost + self.reply_cost


@runtime_checkable
class StagedQuerySystem(Protocol):
    """What the staged pipeline (and the serving layer) requires."""

    #: Event dimensionality ``k`` the system was configured for.
    dimensions: int
    #: Called after every successfully stored event with
    #: ``(native_cell, event, holder_node)`` — the cache-invalidation hook.
    insert_listeners: list[InsertListener]

    @property
    def network(self) -> "Network": ...

    @property
    def layout_version(self) -> Hashable:
        """Changes whenever a fresh :meth:`plan_query` could differ.

        Plans depend only on the query, the store layout and the routes,
        never on the stored events; the serving layer re-executes a kept
        plan while this reads the same.  Systems whose plans read only
        static structure keep a constant.
        """
        ...

    def plan_query(self, sink: int, query: RangeQuery) -> QueryPlan:
        """Pure resolving: zero messages, hashable plan."""
        ...

    def execute_plan(self, plan: QueryPlan) -> Execution:
        """Charge the plan's dissemination + collection; report answers."""
        ...

    def fold_replies(self, plan: QueryPlan, execution: Execution) -> QueryResult:
        """Aggregate the answered holders' events into a result."""
        ...

    def query_span_attrs(self, result: QueryResult) -> dict[str, Any]:
        """System-specific attributes for the query lifecycle span."""
        ...


@dataclass(frozen=True, slots=True)
class SinkTree:
    """``QueryPlan.detail`` of a system answered over one tree from its sink.

    DIM and DIFS resolve at the sink and graft one tree from it to the
    plan's destinations.  ``resolved`` is the system's own resolving
    output (DIM's zones; DIFS's ranges, leaves and leaf nodes).
    """

    resolved: Any
    tree: "MulticastTree"


class SinkTreeSystem:
    """What DIM and DIFS share: plans carry a :class:`SinkTree`, and
    execution sends that tree and collects the replies up it."""

    network: "Network"
    insert_listeners: list[InsertListener]

    def query(self, sink: int, query: RangeQuery) -> QueryResult:
        """Resolve at ``sink``, send the plan's tree, fold the answers.

        Thin compatibility wrapper over the staged pipeline
        (:meth:`plan_query` / :meth:`execute_plan` / :meth:`fold_replies`).
        """
        return run_staged(self, sink, query)  # type: ignore[arg-type]

    def close(self) -> None:
        """Detach external hooks so the deployment can be reused."""
        self.insert_listeners.clear()

    @property
    def layout_version(self) -> int:
        """Plans hold trees grafted over this facade's routes, so they
        expire when :meth:`Network.fail_nodes` changes them."""
        return self.network.router_version

    def execute_plan(self, plan: QueryPlan) -> Execution:
        """Send the plan's tree from the sink; collect the replies."""
        if plan.is_local:
            # Everything is local to the sink: no radio traffic.
            return Execution(answered=frozenset(plan.destinations))
        network = self.network
        delivery = network.disseminate(MessageCategory.QUERY_FORWARD, plan.detail.tree)
        answered, reply_cost = network.collect_up_tree(
            MessageCategory.QUERY_REPLY, delivery
        )
        return Execution(
            forward_cost=delivery.attempted_edges,
            reply_cost=reply_cost,
            depth_hops=delivery.tree.height(),
            answered=answered,
        )


def check_query_dimensions(dimensions: int, query: RangeQuery) -> None:
    """Reject a query whose dimensionality differs from the system's."""
    if query.dimensions != dimensions:
        raise DimensionMismatchError(dimensions, query.dimensions, "query")


def run_staged(
    system: StagedQuerySystem, sink: int, query: RangeQuery
) -> QueryResult:
    """Chain plan → execute → fold under the query telemetry span.

    This is the body of every system's ``query()`` compatibility wrapper:
    the dimension check happens *before* the span opens (as the
    monolithic implementations did), and the span's message total is
    what the system's ledger charged for the query.  With telemetry off
    the span is the shared no-op, so the body is the same either way.
    """
    check_query_dimensions(system.dimensions, query)
    network = system.network
    with open_span(
        network.telemetry, "query", ledger=network.stats, phase="query", sink=sink
    ) as span:
        plan = system.plan_query(sink, query)
        result = system.fold_replies(plan, system.execute_plan(plan))
        span.add_nodes(result.visited_nodes)
        span.annotate(**system.query_span_attrs(result))
        return result

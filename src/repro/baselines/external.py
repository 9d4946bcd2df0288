"""External storage: ship everything to the sink.

The other classical extreme: every detected event is immediately routed
to a well-known sink node (the "warehouse"), so queries cost nothing but
insertion pays a full cross-network unicast per event — prohibitive when
events are plentiful and queries rare, which is the trade-off analysis in
the GHT paper that DCS systems are built on.
"""

from __future__ import annotations

from typing import Callable

from repro.dcs import InsertReceipt, QueryResult, resolve_result
from repro.events.event import Event
from repro.events.queries import RangeQuery
from repro.events.table import EventTable, row_array
from repro.exceptions import DimensionMismatchError, UnreachableError
from repro.exec import (
    WAREHOUSE_CELL,
    Execution,
    QueryPlan,
    check_query_dimensions,
    run_staged,
)
from repro.network.messages import MessageCategory
from repro.network.network import Network

__all__ = ["ExternalStorage"]


class ExternalStorage:
    """Ship-to-sink baseline over a :class:`Network`.

    Parameters
    ----------
    network:
        Communication substrate.
    dimensions:
        Event dimensionality ``k``.
    sink:
        The warehouse node; defaults to the node nearest the field center
        (where a base station would sit).
    """

    #: Every plan is the one warehouse cell.
    layout_version = 0

    def __init__(
        self, network: Network, dimensions: int, *, sink: int | None = None
    ) -> None:
        self.network = network.scope("external")
        self.dimensions = dimensions
        self.sink = (
            sink
            if sink is not None
            else network.closest_node(network.topology.field.center)
        )
        # Every event the warehouse holds, and their row ids 0..n-1.
        self._table = EventTable(dimensions)
        self._rows = row_array()
        # Called after every delivered event with
        # (WAREHOUSE_CELL, event, warehouse_node): the warehouse is the
        # single cell, so every insert invalidates every cached plan.
        self.insert_listeners: list[Callable[[str, Event, int], None]] = []

    # ------------------------------------------------------------------ #
    # DataCentricStore protocol                                          #
    # ------------------------------------------------------------------ #

    def insert(self, event: Event, source: int | None = None) -> InsertReceipt:
        """Route the event from its detector to the warehouse node."""
        if event.dimensions != self.dimensions:
            raise DimensionMismatchError(self.dimensions, event.dimensions)
        src = source if source is not None else event.source
        if src is None:
            src = self.sink
        try:
            path = self.network.unicast(MessageCategory.INSERT, src, self.sink)
        except UnreachableError as err:
            return InsertReceipt(
                home_node=self.sink,
                hops=max(len(err.partial_path) - 1, 0),
                detail="warehouse",
                delivered=False,
            )
        self._rows.append(self._table.append(event))
        for listener in self.insert_listeners:
            listener(WAREHOUSE_CELL, event, self.sink)
        return InsertReceipt(
            home_node=self.sink, hops=len(path) - 1, detail="warehouse"
        )

    def query(self, sink: int, query: RangeQuery) -> QueryResult:
        """Scan the warehouse; only non-warehouse sinks pay transport.

        Thin compatibility wrapper over the staged pipeline
        (:meth:`plan_query` / :meth:`execute_plan` / :meth:`fold_replies`).
        """
        return run_staged(self, sink, query)

    def plan_query(self, sink: int, query: RangeQuery) -> QueryPlan:
        """Every plan points at the single warehouse cell."""
        check_query_dimensions(self.dimensions, query)
        return QueryPlan(
            system="external",
            sink=sink,
            query=query,
            cells=(WAREHOUSE_CELL,),
            destinations=(self.sink,),
            share_key=("external", sink, self.sink),
        )

    def execute_plan(self, plan: QueryPlan) -> Execution:
        """Query to the warehouse, one aggregated reply back."""
        sink = plan.sink
        forward_cost = 0
        reply_cost = 0
        warehouse_answered = True
        if sink != self.sink:
            # The query travels to the warehouse and one aggregated reply
            # comes back.
            try:
                path = self.network.unicast(
                    MessageCategory.QUERY_FORWARD, sink, self.sink
                )
            except UnreachableError as err:
                forward_cost = max(len(err.partial_path) - 1, 0)
                warehouse_answered = False
                path = None
            if path is not None:
                forward_cost = len(path) - 1
                try:
                    self.network.send_along(
                        MessageCategory.QUERY_REPLY, list(reversed(path))
                    )
                    reply_cost = forward_cost
                except UnreachableError as err:
                    reply_cost = max(len(err.partial_path) - 1, 0)
                    warehouse_answered = False
        return Execution(
            forward_cost=forward_cost,
            reply_cost=reply_cost,
            answered=frozenset((self.sink,)) if warehouse_answered else frozenset(),
        )

    def fold_replies(self, plan: QueryPlan, execution: Execution) -> QueryResult:
        """Scan the warehouse store — only if its reply made it back."""
        query: RangeQuery = plan.query
        warehouse_answered = self.sink in execution.answered
        events = (
            self._table.select(query, [self._rows])
            if warehouse_answered
            else []
        )
        return resolve_result(
            events=events,
            forward_cost=execution.forward_cost,
            reply_cost=execution.reply_cost,
            visited_nodes=(self.sink,),
            detail="warehouse",
            attempted_cells=1,
            answered_cells=1 if warehouse_answered else 0,
            unreachable_cells=() if warehouse_answered else ("warehouse",),
            unreachable_nodes=() if warehouse_answered else (self.sink,),
        )

    def query_span_attrs(self, result: QueryResult) -> dict[str, object]:
        """External-storage attributes for the query lifecycle span."""
        return {"matches": result.match_count}

    def close(self) -> None:
        """Detach external hooks so the deployment can be reused."""
        self.insert_listeners.clear()

    @property
    def stored_events(self) -> int:
        """Total events held at the warehouse."""
        return len(self._table)

    def storage_distribution(self) -> dict[int, int]:
        """Everything piles onto the warehouse node — the point of the
        baseline, and the worst possible hotspot profile."""
        if not len(self._table):
            return {}
        return {self.sink: len(self._table)}

"""Local storage with query flooding.

The zero-infrastructure baseline: a sensor stores its own readings, so
insertion is free, and a query must reach *every* node because any node
might hold a match.  Flooding cost model: each node rebroadcasts the
query once (the standard controlled-flood), i.e. ``n`` transmissions;
every node holding at least one qualifying event unicasts its matches
back to the sink over GPSR.

This is exactly the regime the DCS line of work (GHT §1, DIM §1, Pool §1)
argues against for large networks: query cost scales linearly with ``n``
regardless of selectivity.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from typing import Callable

from repro.dcs import InsertReceipt, QueryResult, resolve_result
from repro.events.event import Event
from repro.events.queries import RangeQuery
from repro.events.table import EventTable, row_array
from repro.exceptions import DimensionMismatchError
from repro.exceptions import UnreachableError
from repro.exec import (
    ALL_CELLS,
    Execution,
    QueryPlan,
    check_query_dimensions,
    run_staged,
)
from repro.network.messages import MessageCategory
from repro.network.network import Network

__all__ = ["LocalStorageFlooding"]


class LocalStorageFlooding:
    """Store-locally / flood-queries baseline over a :class:`Network`."""

    #: Every plan is the whole network.
    layout_version = 0

    def __init__(self, network: Network, dimensions: int) -> None:
        self.network = network.scope("flooding")
        self.dimensions = dimensions
        # Row ids held per detecting node, and each row's holder.
        self._table = EventTable(dimensions)
        self._storage: defaultdict[int, array[int]] = defaultdict(row_array)
        self._holders: list[int] = []
        # Called after every stored event with (ALL_CELLS, event, node):
        # with no index, any node may answer any query, so every insert
        # invalidates every cached plan.
        self.insert_listeners: list[Callable[[str, Event, int], None]] = []

    # ------------------------------------------------------------------ #
    # DataCentricStore protocol                                          #
    # ------------------------------------------------------------------ #

    def insert(self, event: Event, source: int | None = None) -> InsertReceipt:
        """Keep the event at its detecting node — zero messages."""
        if event.dimensions != self.dimensions:
            raise DimensionMismatchError(self.dimensions, event.dimensions)
        src = source if source is not None else event.source
        if src is None:
            src = 0
        self._storage[src].append(self._table.append(event))
        self._holders.append(src)
        for listener in self.insert_listeners:
            listener(ALL_CELLS, event, src)
        return InsertReceipt(home_node=src, hops=0, detail="local")

    def query(self, sink: int, query: RangeQuery) -> QueryResult:
        """Flood the query, collect matches from every holding node.

        Thin compatibility wrapper over the staged pipeline
        (:meth:`plan_query` / :meth:`execute_plan` / :meth:`fold_replies`).
        """
        return run_staged(self, sink, query)

    def plan_query(self, sink: int, query: RangeQuery) -> QueryPlan:
        """Flooding has no index: the "plan" is the whole network.

        The share key includes the query itself — the reply legs depend
        on which nodes hold matches, so only literal repeats of the same
        query produce interchangeable executions.
        """
        check_query_dimensions(self.dimensions, query)
        return QueryPlan(
            system="flooding",
            sink=sink,
            query=query,
            cells=(ALL_CELLS,),
            destinations=(),
            share_key=("flooding", sink, query),
        )

    def execute_plan(self, plan: QueryPlan) -> Execution:
        """Flood, then pay one GPSR reply leg per responding node.

        The responder scan happens here (not at planning) because the
        reply messages are data-dependent: which nodes unicast back is
        decided by their stored matches at execution time.  One kernel
        call scans every node's rows, chained in storage order, so the
        matches come out grouped by holder in that order.
        """
        query: RangeQuery = plan.query
        sink = plan.sink
        # Controlled flood: one broadcast per node reaches everyone.  A
        # broadcast is not acknowledged hop-by-hop, so the flood itself
        # is unaffected by unicast loss; only the GPSR reply legs are.
        forward_cost = self.network.size
        self.network.stats.record(MessageCategory.QUERY_FORWARD, forward_cost)
        holders = self._holders
        matched = self._table.matching_rows(query, self._storage.values())
        responders = list(dict.fromkeys(holders[row] for row in matched))
        reply_cost = 0
        lost_responders: list[int] = []
        for node in responders:
            if node == sink:
                continue
            try:
                path = self.network.unicast(MessageCategory.QUERY_REPLY, node, sink)
            except UnreachableError as err:
                # This responder's matches never reached the sink.
                reply_cost += max(len(err.partial_path) - 1, 0)
                lost_responders.append(node)
                continue
            reply_cost += len(path) - 1
        if lost_responders:
            lost = set(lost_responders)
            matched = [row for row in matched if holders[row] not in lost]
        events = self._table.events(matched)
        return Execution(
            forward_cost=forward_cost,
            reply_cost=reply_cost,
            answered=frozenset(responders) - frozenset(lost_responders),
            detail=(tuple(events), tuple(responders), tuple(lost_responders)),
        )

    def fold_replies(self, plan: QueryPlan, execution: Execution) -> QueryResult:
        """Assemble the result from the execution's responder scan."""
        events, responders, lost_responders = execution.detail
        return resolve_result(
            events=list(events),
            forward_cost=execution.forward_cost,
            reply_cost=execution.reply_cost,
            visited_nodes=tuple(sorted(responders)),
            detail="flood",
            attempted_cells=len(responders),
            answered_cells=len(responders) - len(lost_responders),
            unreachable_cells=tuple(sorted(lost_responders)),
            unreachable_nodes=tuple(sorted(lost_responders)),
        )

    def query_span_attrs(self, result: QueryResult) -> dict[str, object]:
        """Flooding attributes for the query lifecycle span."""
        return {"matches": result.match_count}

    def close(self) -> None:
        """Detach external hooks so the deployment can be reused."""
        self.insert_listeners.clear()

    @property
    def stored_events(self) -> int:
        """Total events currently stored."""
        return len(self._table)

    def storage_distribution(self) -> dict[int, int]:
        """Events per node — trivially the detection distribution."""
        return {node: len(rows) for node, rows in self._storage.items() if rows}

"""DIM as a runnable data-centric storage system.

Glues the :class:`~repro.dim.zones.ZoneTree` to a
:class:`~repro.network.network.Network`: events route to their zone owner
with GPSR, range queries fan out along a merged forwarding tree to every
overlapping zone owner and the qualifying events aggregate back to the
sink.  Implements the :class:`~repro.dcs.DataCentricStore` protocol so the
benchmark harness can drive DIM and Pool identically.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

from repro.aggregates import AggregateKind, AggregateState
from repro.dcs import (
    AggregateResult,
    InsertReceipt,
    PartialResult,
    QueryResult,
    resolve_result,
)
from repro.exceptions import ConfigurationError
from repro.dim.zones import Zone, ZoneTree
from repro.events.event import Event
from repro.events.queries import RangeQuery
from repro.events.table import EventTable, row_array
from repro.exceptions import DimensionMismatchError, UnreachableError
from repro.exec import Execution, QueryPlan, run_staged
from repro.network.messages import MessageCategory
from repro.network.network import Network

__all__ = ["DimIndex", "DimQueryDetail"]


@dataclass(slots=True)
class DimQueryDetail:
    """DIM-specific query diagnostics attached to a query result."""

    zone_codes: tuple[str, ...]
    owner_nodes: tuple[int, ...]

    @property
    def zones_visited(self) -> int:
        return len(self.zone_codes)


class DimIndex:
    """The DIM baseline over a deployed network.

    Parameters
    ----------
    network:
        Communication substrate.
    dimensions:
        Event dimensionality ``k``.
    """

    #: Plans read only the zone tree, fixed at construction.
    layout_version = 0

    def __init__(self, network: Network, dimensions: int) -> None:
        self.network = network.scope("dim")
        self.dimensions = dimensions
        self.tree = ZoneTree(network.topology, dimensions)
        # Row ids of the events stored per leaf zone code (a physical
        # node may own several zones; zone granularity keeps queries
        # precise).
        self._table = EventTable(dimensions)
        self._storage: defaultdict[str, array[int]] = defaultdict(row_array)
        # Called after every successfully stored event with
        # (zone_code, event, owner_node) — zone codes are the native cell
        # identity DIM plans resolve to, so the serve-layer cache
        # invalidates on exactly the zones a cached plan covers.
        self.insert_listeners: list[Callable[[str, Event, int], None]] = []

    # ------------------------------------------------------------------ #
    # DataCentricStore protocol                                          #
    # ------------------------------------------------------------------ #

    def insert(self, event: Event, source: int | None = None) -> InsertReceipt:
        """Route ``event`` from its detecting node to its zone owner."""
        if event.dimensions != self.dimensions:
            raise DimensionMismatchError(self.dimensions, event.dimensions)
        leaf = self.tree.leaf_for_values(event.values)
        src = source if source is not None else event.source
        if src is None:
            src = leaf.owner  # locally detected at the owner: zero hops
        try:
            path = self.network.unicast(MessageCategory.INSERT, src, leaf.owner)
        except UnreachableError as err:
            return InsertReceipt(
                home_node=leaf.owner,
                hops=max(len(err.partial_path) - 1, 0),
                detail=leaf.code,
                delivered=False,
            )
        self._storage[leaf.code].append(self._table.append(event))
        for listener in self.insert_listeners:
            listener(leaf.code, event, leaf.owner)
        return InsertReceipt(
            home_node=leaf.owner, hops=len(path) - 1, detail=leaf.code
        )

    def query(self, sink: int, query: RangeQuery) -> QueryResult:
        """Execute a range query issued at ``sink``.

        1. Decompose the query into overlapping leaf zones (value k-d
           descent — done at the sink, which knows the zone structure).
        2. Forward the query to every distinct zone owner along a merged
           GPSR tree.
        3. Each owner filters its zone storage; replies aggregate back up
           the same tree.

        Thin compatibility wrapper over the staged pipeline
        (:meth:`plan_query` / :meth:`execute_plan` / :meth:`fold_replies`).
        """
        return run_staged(self, sink, query)

    def plan_query(self, sink: int, query: RangeQuery) -> QueryPlan:
        """Pure resolving: the overlapping leaf zones, at the sink, zero messages."""
        zones = self.tree.zones_for_query(query)
        owners = sorted({zone.owner for zone in zones})
        return QueryPlan(
            system="dim",
            sink=sink,
            query=query,
            cells=tuple(zone.code for zone in zones),
            destinations=tuple(owners),
            share_key=("dim", sink, tuple(owners)),
            detail=tuple(zones),
        )

    def execute_plan(self, plan: QueryPlan) -> Execution:
        """Disseminate to the distinct zone owners; collect the replies."""
        if plan.is_local:
            # Everything is local to the sink: no radio traffic.
            return Execution(answered=frozenset(plan.destinations))
        delivery = self.network.disseminate(
            MessageCategory.QUERY_FORWARD, plan.sink, list(plan.destinations)
        )
        answered, reply_cost = self.network.collect_up_tree(
            MessageCategory.QUERY_REPLY, delivery
        )
        return Execution(
            forward_cost=delivery.attempted_edges,
            reply_cost=reply_cost,
            depth_hops=delivery.tree.height(),
            answered=answered,
        )

    def fold_replies(self, plan: QueryPlan, execution: Execution) -> QueryResult:
        """Fold the answered zones' qualifying events into the result."""
        query: RangeQuery = plan.query
        zones: tuple[Zone, ...] = plan.detail
        owners = list(plan.destinations)
        detail = DimQueryDetail(
            zone_codes=tuple(plan.cells),
            owner_nodes=tuple(owners),
        )
        storage = self._storage
        if plan.is_local:
            return QueryResult(
                events=self._table.select(
                    query, [rows for zone in zones if (rows := storage.get(zone.code))]
                ),
                forward_cost=0,
                reply_cost=0,
                visited_nodes=tuple(owners),
                detail=detail,
            )
        answered = execution.answered
        # A zone answers only when its owner's reply reached the sink.
        answered_rows: list[array[int]] = []
        unreachable_codes: list[str] = []
        unreachable_owners: set[int] = set()
        for zone in zones:
            if zone.owner in answered:
                rows = storage.get(zone.code)
                if rows:
                    answered_rows.append(rows)
            else:
                unreachable_codes.append(zone.code)
                unreachable_owners.add(zone.owner)
        return resolve_result(
            events=self._table.select(query, answered_rows),
            forward_cost=execution.forward_cost,
            reply_cost=execution.reply_cost,
            visited_nodes=tuple(owners),
            detail=detail,
            depth_hops=execution.depth_hops,
            attempted_cells=len(zones),
            answered_cells=len(zones) - len(unreachable_codes),
            unreachable_cells=tuple(unreachable_codes),
            # ``owners`` is sorted, so the sorted subset keeps its order.
            unreachable_nodes=tuple(sorted(unreachable_owners)),
        )

    def plan_retry(
        self, plan: QueryPlan, result: QueryResult
    ) -> QueryPlan | None:
        """A restricted plan covering only a partial result's missing zones.

        Zone codes are unique, so the retry disseminates to exactly the
        owners whose replies were lost — nothing an answered zone already
        delivered is re-fetched.  Returns ``None`` when nothing is
        missing.
        """
        if not isinstance(result, PartialResult) or not result.unreachable_cells:
            return None
        missing = set(result.unreachable_cells)
        zones: tuple[Zone, ...] = plan.detail
        kept = tuple(zone for zone in zones if zone.code in missing)
        if not kept:
            return None
        owners = sorted({zone.owner for zone in kept})
        return QueryPlan(
            system="dim",
            sink=plan.sink,
            query=plan.query,
            cells=tuple(zone.code for zone in kept),
            destinations=tuple(owners),
            share_key=("dim-retry", plan.sink, tuple(owners)),
            detail=kept,
        )

    def query_span_attrs(self, result: QueryResult) -> dict[str, object]:
        """DIM attributes for the query lifecycle span."""
        return {
            "zones_visited": result.detail.zones_visited,
            "matches": result.match_count,
        }

    def close(self) -> None:
        """Detach external hooks so the deployment can be reused."""
        self.insert_listeners.clear()

    def aggregate(
        self,
        sink: int,
        query: RangeQuery,
        *,
        dimension: int = 0,
        kind: AggregateKind = AggregateKind.COUNT,
    ) -> AggregateResult:
        """In-network aggregate over the query's zones (same tree cost)."""
        if not 0 <= dimension < self.dimensions:
            raise ConfigurationError(
                f"aggregate dimension {dimension} outside 0..{self.dimensions - 1}"
            )
        result = self.query(sink, query)
        state = AggregateState.of_events(result.events, dimension)
        return AggregateResult(
            kind=kind,
            dimension=dimension,
            state=state,
            forward_cost=result.forward_cost,
            reply_cost=result.reply_cost,
            detail=result.detail,
        )

    # ------------------------------------------------------------------ #
    # Introspection                                                      #
    # ------------------------------------------------------------------ #

    @property
    def stored_events(self) -> int:
        """Total events currently stored."""
        return len(self._table)

    def events_in_zone(self, code: str) -> tuple[Event, ...]:
        """Events stored under one zone code."""
        return tuple(self._table.events(self._storage.get(code, ())))

    def storage_distribution(self) -> dict[int, int]:
        """Events per *physical node* — the hotspot metric.

        Skewed workloads concentrate events in few zones, and therefore on
        few owners; this is the imbalance the paper's Section 1 holds
        against DIM.
        """
        per_node: dict[int, int] = {}
        for leaf in self.tree.leaves:
            count = len(self._storage.get(leaf.code, ()))
            if count:
                per_node[leaf.owner] = per_node.get(leaf.owner, 0) + count
        return per_node

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DimIndex(k={self.dimensions}, zones={len(self.tree)}, "
            f"events={len(self._table)})"
        )

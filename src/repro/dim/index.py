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
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable

from repro.aggregates import AggregateKind
from repro.dcs import (
    AggregateResult,
    InsertReceipt,
    PartialResult,
    QueryResult,
    aggregate_query,
    resolve_result,
)
from repro.dim.zones import Zone, ZoneTree
from repro.events.event import Event
from repro.events.queries import RangeQuery
from repro.events.table import EventTable, row_array
from repro.exceptions import DimensionMismatchError, UnreachableError
from repro.exec import Execution, QueryPlan
from repro.exec.stages import SinkTree, SinkTreeSystem
from repro.network.messages import MessageCategory
from repro.network.network import Network
from repro.routing.multicast import MulticastTree, graft

__all__ = ["DimIndex", "DimQueryDetail"]


@dataclass(slots=True)
class DimQueryDetail:
    """DIM-specific query diagnostics attached to a query result."""

    zone_codes: tuple[str, ...]
    owner_nodes: tuple[int, ...]

    @property
    def zones_visited(self) -> int:
        return len(self.zone_codes)


class DimIndex(SinkTreeSystem):
    """The DIM baseline over a deployed network.

    Parameters
    ----------
    network:
        Communication substrate.
    dimensions:
        Event dimensionality ``k``.
    """

    def __init__(self, network: Network, dimensions: int) -> None:
        self.network = network.scope("dim")
        self.dimensions = dimensions
        self.tree = ZoneTree(network.topology, dimensions)
        # Row ids of the events stored per leaf, by leaf index (a
        # physical node may own several zones; zone granularity keeps
        # queries precise).
        self._table = EventTable(dimensions)
        self._rows: list[array[int]] = [row_array() for _ in range(len(self.tree))]
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
        self._rows[leaf.index].append(self._table.append(event))
        for listener in self.insert_listeners:
            listener(leaf.code, event, leaf.owner)
        return InsertReceipt(
            home_node=leaf.owner, hops=len(path) - 1, detail=leaf.code
        )

    def plan_query(self, sink: int, query: RangeQuery) -> QueryPlan:
        """Pure resolving: the overlapping leaf zones, at the sink, zero messages.

        One mask over the tree's leaf arrays selects the leaf indices;
        the owners are their sorted unique owners, and the zones and
        codes come from one gather.  The tree from the sink to the
        owners is grafted here, so a kept plan sends it again as is.
        """
        tree = self.tree
        indices = tree.leaf_indices(query)
        owners = tree.owners_of(indices)
        picks = indices.tolist()
        if len(picks) > 1:
            gather = itemgetter(*picks)
            zones, codes = gather(tree.leaves), gather(tree.codes)
        else:
            zones = tuple(map(tree.leaves.__getitem__, picks))
            codes = tuple(map(tree.codes.__getitem__, picks))
        return QueryPlan(
            system="dim",
            sink=sink,
            query=query,
            cells=codes,
            destinations=owners,
            share_key=("dim", sink, owners),
            detail=SinkTree(zones, graft(self.network.router, sink, owners)),
        )

    def leg_answers(
        self, plan: QueryPlan
    ) -> list[tuple[MulticastTree, dict[int, list[Event]]]]:
        """The plan's one leg: its tree, and each zone owner's answer from
        its own zones (not :meth:`fold_replies`, which the oracle checks)."""
        held = ((zone.owner, self._rows[zone.index]) for zone in plan.detail.resolved)
        return [(plan.detail.tree, self._table.select_by_holder(plan.query, held))]

    def fold_replies(self, plan: QueryPlan, execution: Execution) -> QueryResult:
        """Fold the answered zones' qualifying events into the result."""
        query: RangeQuery = plan.query
        zones: tuple[Zone, ...] = plan.detail.resolved
        owners = list(plan.destinations)
        detail = DimQueryDetail(
            zone_codes=tuple(plan.cells),
            owner_nodes=tuple(owners),
        )
        storage = self._rows
        # A zone answers only when its owner's reply reached the sink (a
        # local plan's execution answers for every owner).
        answered = execution.answered
        unreachable_codes: list[str] = []
        unreachable_owners: set[int] = set()
        if answered.issuperset(owners):
            answered_rows = [rows for zone in zones if (rows := storage[zone.index])]
        else:
            answered_rows = []
            for zone in zones:
                if zone.owner in answered:
                    rows = storage[zone.index]
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
        zones: tuple[Zone, ...] = plan.detail.resolved
        kept = tuple(zone for zone in zones if zone.code in missing)
        if not kept:
            return None
        owners = tuple(sorted({zone.owner for zone in kept}))
        return QueryPlan(
            system="dim",
            sink=plan.sink,
            query=plan.query,
            cells=tuple(zone.code for zone in kept),
            destinations=owners,
            share_key=("dim-retry", plan.sink, owners),
            detail=SinkTree(kept, graft(self.network.router, plan.sink, owners)),
        )

    def query_span_attrs(self, result: QueryResult) -> dict[str, object]:
        """DIM attributes for the query lifecycle span."""
        return {
            "zones_visited": result.detail.zones_visited,
            "matches": result.match_count,
        }

    def aggregate(
        self,
        sink: int,
        query: RangeQuery,
        *,
        dimension: int = 0,
        kind: AggregateKind = AggregateKind.COUNT,
    ) -> AggregateResult:
        """In-network aggregate over the query's zones (same tree cost)."""
        return aggregate_query(self, sink, query, dimension, kind)

    # ------------------------------------------------------------------ #
    # Introspection                                                      #
    # ------------------------------------------------------------------ #

    @property
    def stored_events(self) -> int:
        """Total events currently stored."""
        return len(self._table)

    def events_in_zone(self, code: str) -> tuple[Event, ...]:
        """Events stored under one leaf zone code (``()`` for any other code)."""
        zone = self.tree.leaf_by_code(code)
        if zone.code != code or zone.low is not None:
            return ()
        return tuple(self._table.events(self._rows[zone.index]))

    def storage_distribution(self) -> dict[int, int]:
        """Events per *physical node* — the hotspot metric.

        Skewed workloads concentrate events in few zones, and therefore on
        few owners; this is the imbalance the paper's Section 1 holds
        against DIM.
        """
        per_node: dict[int, int] = {}
        for leaf, rows in zip(self.tree.leaves, self._rows):
            count = len(rows)
            if count:
                per_node[leaf.owner] = per_node.get(leaf.owner, 0) + count
        return per_node

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DimIndex(k={self.dimensions}, zones={len(self.tree)}, "
            f"events={len(self._table)})"
        )

"""Common interface for data-centric storage (DCS) systems.

Pool, DIM and GHT all follow the same life cycle — events are inserted at
a home node determined by their *content*, and queries are forwarded to
the nodes whose content could match — so the benchmark harness drives them
through one protocol.  The receipt/result records double as the accounting
surface: every operation reports exactly which messages it cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Protocol, runtime_checkable

from repro.aggregates import AggregateKind, AggregateState
from repro.events.event import Event
from repro.events.queries import RangeQuery
from repro.exceptions import ConfigurationError

__all__ = [
    "InsertReceipt",
    "QueryResult",
    "PartialResult",
    "resolve_result",
    "AggregateResult",
    "aggregate_query",
    "DataCentricStore",
]


@dataclass(slots=True)
class InsertReceipt:
    """Outcome of storing one event.

    Attributes
    ----------
    home_node:
        Physical node id now holding the event.
    hops:
        One-hop transmissions spent routing the event there.
    detail:
        System-specific placement info (Pool cell, DIM zone code, ...).
    delivered:
        False when a lossy network dropped the event before it reached a
        home node (the ARQ budget of some hop was exhausted); the event
        is *not* stored anywhere and ``home_node`` is the intended home.
    """

    home_node: int
    hops: int
    detail: Any = None
    delivered: bool = True


@dataclass(slots=True)
class QueryResult:
    """Outcome of processing one query.

    ``forward_cost + reply_cost`` is the paper's query-processing metric:
    "the cost of forwarding the query to the query-relevant index nodes
    plus the cost of retrieving the qualifying events" (Section 5).
    """

    events: list[Event]
    forward_cost: int
    reply_cost: int
    visited_nodes: tuple[int, ...] = ()
    detail: Any = None
    #: Critical-path hops of the dissemination (deepest sink-to-holder
    #: chain).  Round-trip latency ≈ 2 * depth_hops * per-hop latency.
    depth_hops: int = 0

    @property
    def total_cost(self) -> int:
        """Total messages charged to this query."""
        return self.forward_cost + self.reply_cost

    def latency(self, hop_latency: float = 0.01) -> float:
        """Estimated wall-clock round trip given a per-hop latency."""
        return 2.0 * self.depth_hops * hop_latency

    @property
    def match_count(self) -> int:
        """Number of qualifying events returned."""
        return len(self.events)

    @property
    def completeness(self) -> float:
        """Fraction of query-relevant cells that answered (1.0 here)."""
        return 1.0

    @property
    def is_partial(self) -> bool:
        """Did any query-relevant cell fail to answer?"""
        return False


@dataclass(slots=True)
class PartialResult(QueryResult):
    """A query that resolved gracefully despite unreachable cells.

    When the reliability layer exhausts a hop's retry budget mid-query —
    a splitter that cannot be reached, a forwarding-tree branch that died
    in flight, a reply hop that stayed lossy — the query does *not* raise
    :class:`~repro.exceptions.DeliveryError`.  It resolves to this
    subtype carrying whatever the reachable cells answered, plus an
    honest account of what is missing.  ``events`` contains only matches
    from cells whose replies actually reached the sink.

    ``unreachable_cells`` uses each system's native cell identity (Pool
    ``Cell``, DIM zone code, DIFS leaf range, responder node id, ...).
    """

    unreachable_cells: tuple[Any, ...] = ()
    unreachable_nodes: tuple[int, ...] = ()
    attempted_cells: int = 0
    answered_cells: int = 0

    @property
    def completeness(self) -> float:
        """Fraction of query-relevant cells that answered."""
        if self.attempted_cells == 0:
            return 1.0
        return self.answered_cells / self.attempted_cells

    @property
    def is_partial(self) -> bool:
        return True


def resolve_result(
    *,
    events: list[Event],
    forward_cost: int,
    reply_cost: int,
    visited_nodes: tuple[int, ...] = (),
    detail: Any = None,
    depth_hops: int = 0,
    attempted_cells: int,
    answered_cells: int,
    unreachable_cells: tuple[Any, ...] = (),
    unreachable_nodes: tuple[int, ...] = (),
) -> QueryResult:
    """Build a :class:`QueryResult`, degrading to :class:`PartialResult`.

    Storage systems funnel their query outcomes through this helper so
    the "everything answered" case keeps returning the plain result type
    (bitwise-compatible with the lossless stack) while any shortfall
    yields a partial result with the unreachable sets attached.
    """
    if (
        answered_cells >= attempted_cells
        and not unreachable_cells
        and not unreachable_nodes
    ):
        return QueryResult(
            events=events,
            forward_cost=forward_cost,
            reply_cost=reply_cost,
            visited_nodes=visited_nodes,
            detail=detail,
            depth_hops=depth_hops,
        )
    return PartialResult(
        events=events,
        forward_cost=forward_cost,
        reply_cost=reply_cost,
        visited_nodes=visited_nodes,
        detail=detail,
        depth_hops=depth_hops,
        unreachable_cells=tuple(unreachable_cells),
        unreachable_nodes=tuple(unreachable_nodes),
        attempted_cells=attempted_cells,
        answered_cells=answered_cells,
    )


@dataclass(slots=True)
class AggregateResult:
    """Outcome of an in-network aggregate query (Section 3.2.3).

    The partial states merge at branch points of the reply tree (each
    tree edge carries one fixed-size partial instead of raw events), so
    the message cost equals the range query's tree cost while the reply
    payloads shrink from O(matches) to O(1).
    """

    kind: AggregateKind
    dimension: int
    state: AggregateState
    forward_cost: int
    reply_cost: int
    detail: Any = None

    @property
    def value(self) -> float:
        """The finalized aggregate."""
        return self.state.finalize(self.kind)

    @property
    def count(self) -> int:
        """Number of qualifying events folded into the state."""
        return self.state.count

    @property
    def total_cost(self) -> int:
        return self.forward_cost + self.reply_cost


def aggregate_query(
    store: "DataCentricStore",
    sink: int,
    query: RangeQuery,
    dimension: int,
    kind: AggregateKind,
) -> AggregateResult:
    """Pool's and DIM's ``aggregate``: the range query, its qualifying
    events folded into one :class:`AggregateState` over ``dimension``."""
    if not 0 <= dimension < store.dimensions:
        raise ConfigurationError(
            f"aggregate dimension {dimension} outside 0..{store.dimensions - 1}"
        )
    result = store.query(sink, query)
    return AggregateResult(
        kind=kind,
        dimension=dimension,
        state=AggregateState.of_events(result.events, dimension),
        forward_cost=result.forward_cost,
        reply_cost=result.reply_cost,
        detail=result.detail,
    )


@runtime_checkable
class DataCentricStore(Protocol):
    """What the benchmark harness requires of a storage system."""

    #: Event dimensionality ``k`` the system was configured for.
    dimensions: int

    def insert(self, event: Event, source: int | None = None) -> InsertReceipt:
        """Store ``event``; ``source`` overrides ``event.source``."""
        ...

    def query(self, sink: int, query: RangeQuery) -> QueryResult:
        """Resolve and execute ``query`` issued at node ``sink``."""
        ...

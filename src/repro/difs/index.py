"""A DIFS-style distributed single-attribute range index.

DIFS [Greenstein et al. 2003] builds a tree of *index nodes* over value
ranges of one attribute: the root covers ``[0, 1)``, each node splits its
range into ``b`` children, and every node is placed in the field by
hashing its range (GHT-style), which spreads index load across the
network.  Events insert into the leaf covering their value (plus
histogram updates up the tree); a range query decomposes into O(b·log n)
*canonical ranges* — the maximal tree nodes fully inside the query — and
visits only their index nodes.

Faithful simplifications (documented):

* Real DIFS maintains histograms at interior nodes and stores event
  pointers at leaves; we store the events at the leaves directly and
  charge interior-node updates as messages, which preserves the
  communication pattern the comparison cares about.
* Real DIFS hashes a node to multiple locations by geographic scope; we
  use one hashed location per index node (the single-root variant of the
  paper).

For multi-dimensional queries DIFS can only index one attribute: the
query's other dimensions are filtered *after* retrieval, which is exactly
the weakness (Section 1 of the Pool paper) that motivated DIM and Pool.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

from repro.dcs import InsertReceipt, QueryResult, resolve_result
from repro.events.event import Event
from repro.events.queries import RangeQuery
from repro.events.table import EventTable, row_array
from repro.exceptions import (
    ConfigurationError,
    DimensionMismatchError,
    UnreachableError,
)
from repro.exec import Execution, QueryPlan, check_query_dimensions
from repro.exec.stages import SinkTree, SinkTreeSystem
from repro.ght.ght import GeographicHashTable
from repro.network.messages import MessageCategory
from repro.network.network import Network
from repro.routing.multicast import MulticastTree, graft

__all__ = ["DifsIndex", "DifsQueryDetail"]


@dataclass(frozen=True, slots=True)
class _IndexRange:
    """One tree node: the value range ``[lo, hi)`` at a given depth."""

    lo: float
    hi: float
    depth: int

    def contains(self, value: float) -> bool:
        if self.lo <= value < self.hi:
            return True
        # Top boundary: 1.0 belongs to the last range of each level.
        return value == 1.0 == self.hi

    def key(self) -> tuple[str, float, float, int]:
        return ("difs", self.lo, self.hi, self.depth)


@dataclass(slots=True)
class DifsQueryDetail:
    """DIFS-specific diagnostics for a query result."""

    canonical_ranges: tuple[tuple[float, float], ...]
    index_nodes: tuple[int, ...]
    post_filtered: int  # events fetched but discarded by other dimensions


class DifsIndex(SinkTreeSystem):
    """A DIFS-style index over one attribute of k-dimensional events.

    Parameters
    ----------
    network:
        Communication substrate.
    dimensions:
        Event dimensionality ``k``.
    attribute:
        Which dimension (0-based) the tree indexes.
    branching:
        Children per tree node (DIFS's ``b``; must be >= 2).
    depth:
        Leaf depth; the value space splits into ``branching ** depth``
        leaves.
    """

    def __init__(
        self,
        network: Network,
        dimensions: int,
        *,
        attribute: int = 0,
        branching: int = 4,
        depth: int = 3,
    ) -> None:
        if dimensions < 1:
            raise ConfigurationError(f"dimensions must be >= 1, got {dimensions}")
        if not 0 <= attribute < dimensions:
            raise ConfigurationError(
                f"attribute {attribute} outside 0..{dimensions - 1}"
            )
        if branching < 2:
            raise ConfigurationError(f"branching must be >= 2, got {branching}")
        if depth < 1:
            raise ConfigurationError(f"depth must be >= 1, got {depth}")
        self.network = network.scope("difs")
        self.dimensions = dimensions
        self.attribute = attribute
        self.branching = branching
        self.depth = depth
        self._ght = GeographicHashTable(self.network, salt="difs")
        # Row ids of the events stored under each leaf range.
        self._table = EventTable(dimensions)
        self._storage: defaultdict[tuple[float, float], array[int]] = defaultdict(row_array)
        # Called after every stored event with ((lo, hi), event, leaf_node)
        # — leaf ranges are the native cell identity DIFS plans resolve
        # to, so the serve-layer cache invalidates on exactly the leaves
        # a cached plan covers.
        self.insert_listeners: list[
            Callable[[tuple[float, float], Event, int], None]
        ] = []

    # ------------------------------------------------------------------ #
    # Tree geometry                                                      #
    # ------------------------------------------------------------------ #

    def leaf_width(self) -> float:
        """Value width of one leaf range."""
        return 1.0 / (self.branching**self.depth)

    def leaf_for_value(self, value: float) -> _IndexRange:
        """The leaf range covering ``value``."""
        leaves = self.branching**self.depth
        index = min(int(value * leaves), leaves - 1)
        width = self.leaf_width()
        return _IndexRange(index * width, (index + 1) * width, self.depth)

    def index_node_of(self, index_range: _IndexRange) -> int:
        """Physical node hosting a tree node (hashed placement)."""
        return self._ght.home_node(index_range.key())

    def ancestors(self, leaf: _IndexRange) -> list[_IndexRange]:
        """The leaf's ancestors up to (excluding) the root."""
        out: list[_IndexRange] = []
        lo, hi, depth = leaf.lo, leaf.hi, leaf.depth
        while depth > 1:
            depth -= 1
            width = 1.0 / (self.branching**depth)
            slot = int(lo / width + 1e-9)
            lo, hi = slot * width, (slot + 1) * width
            out.append(_IndexRange(lo, hi, depth))
        return out

    def canonical_ranges(self, lo: float, hi: float) -> list[_IndexRange]:
        """Maximal tree nodes fully covered by ``[lo, hi]``.

        The classic canonical-range decomposition: walk levels top-down,
        taking a node when its whole range fits inside the query, and
        recursing into partially covered nodes; at leaf level, partially
        covered leaves are taken too (their events get filtered).
        """
        result: list[_IndexRange] = []
        stack = [
            _IndexRange(i / self.branching, (i + 1) / self.branching, 1)
            for i in range(self.branching)
        ]
        while stack:
            node = stack.pop()
            # Nodes are half-open [lo, hi) but the query is closed [lo, hi]:
            # a node starting exactly at the query's upper bound still
            # holds the boundary value and must not be pruned.  Nodes
            # ending at 1.0 are closed at the top (value 1.0 clamps in).
            disjoint_below = node.hi <= lo and not (node.hi == 1.0 and lo == 1.0)
            if disjoint_below or node.lo > hi:
                continue
            if lo <= node.lo and node.hi <= hi:
                result.append(node)
                continue
            if node.depth == self.depth:
                result.append(node)  # partial leaf: post-filter
                continue
            width = (node.hi - node.lo) / self.branching
            for i in range(self.branching):
                stack.append(
                    _IndexRange(
                        node.lo + i * width,
                        node.lo + (i + 1) * width,
                        node.depth + 1,
                    )
                )
        result.sort(key=lambda r: r.lo)
        return result

    # ------------------------------------------------------------------ #
    # DataCentricStore protocol                                          #
    # ------------------------------------------------------------------ #

    def insert(self, event: Event, source: int | None = None) -> InsertReceipt:
        """Store the event at its leaf's index node; update ancestors.

        Cost: one GPSR unicast to the leaf node plus one histogram-update
        unicast from the leaf to each ancestor index node (the DIFS
        communication pattern).
        """
        if event.dimensions != self.dimensions:
            raise DimensionMismatchError(self.dimensions, event.dimensions)
        value = event.values[self.attribute]
        leaf = self.leaf_for_value(value)
        leaf_node = self.index_node_of(leaf)
        src = source if source is not None else event.source
        if src is None:
            src = leaf_node
        try:
            path = self.network.unicast(MessageCategory.INSERT, src, leaf_node)
        except UnreachableError as err:
            return InsertReceipt(
                home_node=leaf_node,
                hops=max(len(err.partial_path) - 1, 0),
                detail=(leaf.lo, leaf.hi),
                delivered=False,
            )
        hops = len(path) - 1
        previous = leaf_node
        for ancestor in self.ancestors(leaf):
            ancestor_node = self.index_node_of(ancestor)
            try:
                update = self.network.unicast(
                    MessageCategory.INSERT, previous, ancestor_node
                )
            except UnreachableError as err:
                # A lost histogram update leaves the ancestor stale, but
                # the event itself is safely stored at the leaf.
                hops += max(len(err.partial_path) - 1, 0)
                break
            hops += len(update) - 1
            previous = ancestor_node
        self._storage[(leaf.lo, leaf.hi)].append(self._table.append(event))
        for listener in self.insert_listeners:
            listener((leaf.lo, leaf.hi), event, leaf_node)
        return InsertReceipt(
            home_node=leaf_node, hops=hops, detail=(leaf.lo, leaf.hi)
        )

    def plan_query(self, sink: int, query: RangeQuery) -> QueryPlan:
        """Pure resolving: canonical decomposition at the sink, zero messages.

        Also grafts the tree from the sink to the leaf index nodes.
        """
        check_query_dimensions(self.dimensions, query)
        lo, hi = query.bounds[self.attribute]
        ranges = self.canonical_ranges(lo, hi)
        # Visit the leaf nodes under every canonical range (data lives at
        # leaves; interior hits fan out to their leaf descendants).
        leaf_ranges: list[_IndexRange] = []
        for node in ranges:
            leaf_ranges.extend(self._leaves_under(node))
        leaf_nodes = tuple(self.index_node_of(leaf) for leaf in leaf_ranges)
        destinations = tuple(sorted(set(leaf_nodes)))
        return QueryPlan(
            system="difs",
            sink=sink,
            query=query,
            cells=tuple((leaf.lo, leaf.hi) for leaf in leaf_ranges),
            destinations=destinations,
            share_key=("difs", sink, destinations),
            detail=SinkTree(
                (tuple((r.lo, r.hi) for r in ranges), tuple(leaf_ranges), leaf_nodes),
                graft(self.network.router, sink, destinations),
            ),
        )

    def leg_answers(
        self, plan: QueryPlan
    ) -> list[tuple[MulticastTree, dict[int, list[Event]]]]:
        """The plan's one leg: its tree, and each leaf node's answer from its
        own leaves (not :meth:`fold_replies`, which the oracle checks)."""
        _, leaf_ranges, leaf_nodes = plan.detail.resolved
        storage = self._storage
        held = (
            (node, rows)
            for leaf, node in zip(leaf_ranges, leaf_nodes)
            if (rows := storage.get((leaf.lo, leaf.hi)))
        )
        return [(plan.detail.tree, self._table.select_by_holder(plan.query, held))]

    def fold_replies(self, plan: QueryPlan, execution: Execution) -> QueryResult:
        """Fetch + post-filter matches from the leaves whose node answered."""
        query: RangeQuery = plan.query
        canonical, leaf_ranges, leaf_nodes = plan.detail.resolved
        destinations = list(plan.destinations)
        answered = execution.answered
        # A leaf answers only when its index node's reply reached the sink
        # (a local plan's execution answers for every node).
        answered_leaves = [
            leaf
            for leaf, node in zip(leaf_ranges, leaf_nodes)
            if node in answered
        ]
        events, fetched = self._fetch(answered_leaves, query)
        return resolve_result(
            events=events,
            forward_cost=execution.forward_cost,
            reply_cost=execution.reply_cost,
            visited_nodes=tuple(destinations),
            detail=DifsQueryDetail(
                canonical_ranges=canonical,
                index_nodes=tuple(destinations),
                post_filtered=fetched - len(events),
            ),
            depth_hops=execution.depth_hops,
            attempted_cells=len(leaf_ranges),
            answered_cells=len(answered_leaves),
            unreachable_cells=tuple(
                (leaf.lo, leaf.hi)
                for leaf, node in zip(leaf_ranges, leaf_nodes)
                if node not in answered
            ),
            unreachable_nodes=tuple(
                node for node in destinations if node not in answered
            ),
        )

    def query_span_attrs(self, result: QueryResult) -> dict[str, object]:
        """DIFS attributes for the query lifecycle span."""
        return {
            "post_filtered": result.detail.post_filtered,
            "matches": result.match_count,
        }

    def _fetch(
        self, leaf_ranges: list[_IndexRange], query: RangeQuery
    ) -> tuple[list[Event], int]:
        """Retrieve and post-filter matches held under ``leaf_ranges``."""
        stored = [rows for leaf in leaf_ranges if (rows := self._storage.get((leaf.lo, leaf.hi)))]
        return (
            self._table.select(query, stored),
            sum(map(len, stored)),
        )

    def _leaves_under(self, node: _IndexRange) -> list[_IndexRange]:
        if node.depth == self.depth:
            return [node]
        width = self.leaf_width()
        first = round(node.lo / width)
        last = round(node.hi / width)
        return [
            _IndexRange(i * width, (i + 1) * width, self.depth)
            for i in range(first, last)
        ]

    # ------------------------------------------------------------------ #
    # Introspection                                                      #
    # ------------------------------------------------------------------ #

    @property
    def stored_events(self) -> int:
        """Total events currently stored."""
        return len(self._table)

    def storage_distribution(self) -> dict[int, int]:
        """Events per *physical node* — the hotspot metric.

        Hashed placement spreads leaf index nodes uniformly, but a skewed
        workload still piles events onto the few leaves covering the hot
        value range; this surfaces that imbalance per hosting node.
        """
        per_node: dict[int, int] = {}
        for (lo, hi), rows in self._storage.items():
            if not rows:
                continue
            node = self.index_node_of(_IndexRange(lo, hi, self.depth))
            per_node[node] = per_node.get(node, 0) + len(rows)
        return per_node

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DifsIndex(attr={self.attribute}, b={self.branching}, "
            f"depth={self.depth}, events={len(self._table)})"
        )

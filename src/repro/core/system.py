"""``PoolSystem`` — the runnable Pool data-centric store (Section 3).

Ties every piece of the scheme to a deployed network:

* pivot-cell placement and the k Pool layouts (Section 2),
* index-node election per cell (nearest node to the cell center),
* Algorithm 1 insertion over GPSR, with the Section 4.1 tie rule,
* Theorem 3.2 / Algorithm 2 query resolving at the sink,
* splitter-based query forwarding trees with reply aggregation
  (Section 3.2.3),
* the Section 4.2 workload-sharing mechanism.

Implements the :class:`~repro.dcs.DataCentricStore` protocol.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field, replace
from typing import Callable, cast

from repro.core.grid import Cell, Grid
from repro.core.insertion import Placement, candidate_placements
from repro.core.pool import PoolLayout, choose_pivots
from repro.core.ranges import vertical_range
from repro.core.resolve import query_ranges, query_ranges_for_pool, resolve_pool
from repro.aggregates import AggregateKind
from repro.core.replication import FailureReport, ReplicationPolicy
from repro.core.sharing import CellStore, SharingPolicy
from repro.dcs import (
    AggregateResult,
    InsertReceipt,
    PartialResult,
    QueryResult,
    aggregate_query,
    resolve_result,
)
from repro.events.event import Event
from repro.events.queries import RangeQuery
from repro.events.table import EventTable
from repro.exceptions import (
    ConfigurationError,
    DimensionMismatchError,
    UnreachableError,
)
from repro.exec import Execution, QueryPlan, check_query_dimensions, run_staged
from repro.geometry import distance_sq
from repro.ght.ght import GeographicHashTable
from repro.network.messages import MessageCategory
from repro.network.network import Network
from repro.routing.multicast import MulticastTree, graft
from repro.rng import SeedLike, derive
from repro.telemetry.spans import open_span

__all__ = [
    "PoolSystem",
    "PoolPlan",
    "PoolQueryDetail",
    "PoolLegPlan",
    "PoolLegExecution",
]


@dataclass(slots=True)
class PoolPlan:
    """The per-Pool slice of a query's forwarding plan."""

    pool: int
    splitter: int
    cells: tuple[Cell, ...]
    index_nodes: tuple[int, ...]
    sink_to_splitter_hops: int = 0
    tree_edges: int = 0
    #: Critical-path hops: sink -> splitter -> deepest relevant cell.
    depth_hops: int = 0

    @property
    def forward_cost(self) -> int:
        return self.sink_to_splitter_hops + self.tree_edges


@dataclass(slots=True)
class PoolQueryDetail:
    """Pool-specific diagnostics attached to a query result."""

    plans: list[PoolPlan] = field(default_factory=list)

    @property
    def pools_visited(self) -> int:
        return len(self.plans)


@dataclass(frozen=True, slots=True)
class PoolLegPlan:
    """One Pool's slice of a resolved :class:`~repro.exec.QueryPlan`.

    Pure Theorem 3.2 / Algorithm 2 output: the relevant cells, the
    vertical range the holders must overlap, the physical destinations
    (insertion-ordered, deduplicated) the splitter tree must reach, and
    that tree, grafted from ``splitter`` over cached GPSR paths.  Carries
    no message accounting — that lives in the matching
    :class:`PoolLegExecution`.
    """

    pool: int
    splitter: int
    offsets: tuple[tuple[int, int], ...]
    cells: tuple[Cell, ...]
    vertical: tuple[float, float]
    destinations: tuple[int, ...]
    #: Per relevant cell: the holder nodes whose replies must all reach
    #: the sink for the cell to count as answered (the elected index node
    #: for cells with no store yet).
    cell_holders: tuple[tuple[Cell, frozenset[int]], ...]
    #: The merged forwarding tree from ``splitter`` to ``destinations``.
    #: Compared, but left out of the hash: a tree is a pair of dicts.
    tree: MulticastTree = field(hash=False)


@dataclass(frozen=True, slots=True)
class PoolLegExecution:
    """Transport outcome of forwarding one Pool leg (Section 3.2.3)."""

    pool: int
    sink_to_splitter_hops: int
    tree_edges: int
    depth_hops: int
    answered: frozenset[int]

    @property
    def forward_cost(self) -> int:
        return self.sink_to_splitter_hops + self.tree_edges


class PoolSystem:
    """The Pool scheme over a deployed :class:`Network`.

    Parameters
    ----------
    network:
        Communication substrate (topology + GPSR + accounting).
    dimensions:
        Event dimensionality ``k`` — also the number of Pools.
    cell_size:
        Grid cell side α in meters (paper default 5 m).
    side_length:
        Pool side ``l`` in cells (paper default 10).
    pivots:
        Explicit pivot cells (for reproducing the paper's worked examples);
        drawn randomly when omitted.
    seed:
        Seed for pivot placement.
    sharing:
        Workload-sharing policy; disabled by default like the paper's
        baseline experiments.
    route_via_splitter:
        Keep the paper's sink → splitter → cells forwarding (default).
        ``False`` builds the tree straight from the sink — an ablation.
    """

    def __init__(
        self,
        network: Network,
        dimensions: int,
        *,
        cell_size: float = 5.0,
        side_length: int = 10,
        pivots: list[Cell] | None = None,
        seed: SeedLike = None,
        sharing: SharingPolicy | None = None,
        replication: ReplicationPolicy | None = None,
        route_via_splitter: bool = True,
    ) -> None:
        if dimensions < 1:
            raise ConfigurationError(f"dimensions must be >= 1, got {dimensions}")
        # Own ledger scope over the (possibly shared) deployment: sibling
        # systems on the same facade never see this system's traffic.
        self.network = network.scope("pool")
        self.dimensions = dimensions
        self.side_length = side_length
        self.sharing = sharing or SharingPolicy()
        self.replication = replication or ReplicationPolicy()
        self.route_via_splitter = route_via_splitter
        self.grid = Grid(network.topology.field, cell_size)
        if pivots is None:
            pivots = choose_pivots(
                self.grid,
                dimensions,
                side_length,
                seed=derive(seed, "pool-pivots"),
            )
        if len(pivots) != dimensions:
            raise ConfigurationError(
                f"need {dimensions} pivot cells, got {len(pivots)}"
            )
        self.pools = [
            PoolLayout(index=i, pivot=pivot, side_length=side_length)
            for i, pivot in enumerate(pivots)
        ]
        for pool in self.pools:
            top = pool.cell_at(side_length - 1, side_length - 1)
            if not self.grid.contains(pool.pivot) or not self.grid.contains(top):
                raise ConfigurationError(
                    f"{pool!r} does not fit the {self.grid.columns}x"
                    f"{self.grid.rows} grid"
                )
        self._index_node_cache: dict[Cell, int] = {}
        self._splitter_cache: dict[tuple[int, int], int] = {}
        self._stores: dict[tuple[int, int, int], CellStore] = {}
        # Every stored event; cell segments keep its row ids.
        self._table = EventTable(dimensions)
        self._event_count = 0
        # Per-node stored-event counts, kept current so workload sharing
        # can pick lightly loaded delegates (real nodes learn neighbor
        # load from beacon piggybacks).
        self._node_load: dict[int, int] = {}
        # Called after every successful insert with
        # (placement, event, holder_node); used by the continuous-query
        # service to push notifications (see repro.core.continuous).
        self.insert_listeners: list[Callable[[Placement, Event, int], None]] = []
        # Called by handle_failures with the key of each cell that lost
        # events (no replica survived); result caches drop those answers.
        self.loss_listeners: list[Callable[[tuple[int, int, int]], object]] = []
        # Replica nodes per cell key (elected lazily, re-elected on
        # failure); replicas hold a synchronous full copy of their cell.
        self._replica_nodes: dict[tuple[int, int, int], tuple[int, ...]] = {}
        # Bumped by every change to the segment layout or the elected roles.
        self._layout_epoch = 0

    @property
    def layout_version(self) -> tuple[int, int]:
        """Changes whenever a fresh :meth:`plan_query` could differ.

        A plan reads the segment layout, the elected index nodes and
        splitters, and the GPSR paths its trees graft over.  Segment
        splits (:meth:`_maybe_share`), :meth:`handoff_cell` and
        :meth:`handle_failures` bump the first half; every
        ``Network.fail_nodes`` bumps the second.  The first insert into
        an empty cell bumps nothing: the new store's one segment spans
        the cell and is held by the cell's index node, which is exactly
        the holder the plan named for the empty cell.
        """
        return (self._layout_epoch, self.network.router_version)

    # ------------------------------------------------------------------ #
    # Roles                                                              #
    # ------------------------------------------------------------------ #

    def index_node(self, cell: Cell) -> int:
        """The physical node serving as the cell's index node.

        The node closest to the cell center; under the paper's dense-
        deployment assumption this node lies inside the cell, and under
        sparse deployments it is the node GPSR would deliver to anyway
        (DESIGN.md "Known deviations").
        """
        cached = self._index_node_cache.get(cell)
        if cached is None:
            cached = self.network.closest_node(self.grid.center(cell))
            self._index_node_cache[cell] = cached
        return cached

    def splitter(self, sink: int, pool: int) -> int:
        """The Pool's index node closest to the sink (Section 3.2.3)."""
        key = (sink, pool)
        cached = self._splitter_cache.get(key)
        if cached is not None:
            return cached
        sink_pos = self.network.position(sink)
        layout = self.pools[pool]
        best_node = -1
        best_d = float("inf")
        for cell in layout.cells():
            node = self.index_node(cell)
            d = distance_sq(self.network.position(node), sink_pos)
            if d < best_d:
                best_d = d
                best_node = node
        self._splitter_cache[key] = best_node
        return best_node

    def publish_pivots(self, ght: GeographicHashTable, src: int) -> int:
        """Register every Pool's pivot location in a GHT (Algorithm 1 l.4).

        Benchmarks treat Pool layouts as predeployed configuration (the
        paper: "the Pools of the system are predefined"), but the lookup
        path exists and is exercised in tests/examples.  Returns the
        messages spent publishing.
        """
        before = ght.network.stats.count(MessageCategory.DHT)
        for pool in self.pools:
            center = self.grid.center(pool.pivot)
            ght.put(src, ("pool-pivot", pool.index), (pool.pivot, center))
        return ght.network.stats.count(MessageCategory.DHT) - before

    # ------------------------------------------------------------------ #
    # Insertion (Algorithm 1)                                            #
    # ------------------------------------------------------------------ #

    def insert(self, event: Event, source: int | None = None) -> InsertReceipt:
        """Store ``event`` per Theorem 3.1 + the Section 4.1 tie rule."""
        if event.dimensions != self.dimensions:
            raise DimensionMismatchError(self.dimensions, event.dimensions)
        src = source if source is not None else event.source
        order = event.dimension_order()
        placement = self._choose_placement(event, src, order)
        cell = self.pools[placement.pool].cell_at(placement.ho, placement.vo)
        primary = self.index_node(cell)
        if src is None:
            src = primary  # detected at the index node itself: zero hops
        try:
            path = self.network.unicast(MessageCategory.INSERT, src, primary)
        except UnreachableError as err:
            # Lossy network ate the event en route: nothing is stored.
            return InsertReceipt(
                home_node=primary,
                hops=max(len(err.partial_path) - 1, 0),
                detail=placement,
                delivered=False,
            )
        hops = len(path) - 1
        store = self._store_for(placement)
        v_key = min(event.values[order[1 if len(order) > 1 else 0]], store.v_range[1])
        segment = store.segment_for(v_key)
        if segment.node != primary:
            # Delegated sub-range: the index node forwards one more leg.
            try:
                extra = self.network.unicast(
                    MessageCategory.INSERT, primary, segment.node
                )
            except UnreachableError as err:
                return InsertReceipt(
                    home_node=segment.node,
                    hops=hops + max(len(err.partial_path) - 1, 0),
                    detail=placement,
                    delivered=False,
                )
            hops += len(extra) - 1
        segment.add(self._table.append(event), v_key)
        self._node_load[segment.node] = self._node_load.get(segment.node, 0) + 1
        self._event_count += 1
        hops += self._replicate(placement, segment.node)
        self._maybe_share(store, placement)
        for listener in self.insert_listeners:
            listener(placement, event, segment.node)
        return InsertReceipt(home_node=segment.node, hops=hops, detail=placement)

    def _choose_placement(
        self, event: Event, src: int | None, order: tuple[int, ...]
    ) -> Placement:
        """§4.1: among tied candidates, pick the cell closest to the source."""
        candidates = candidate_placements(event, self.side_length, order)
        if len(candidates) == 1 or src is None:
            return candidates[0]
        src_pos = self.network.position(src)
        return min(
            candidates,
            key=lambda p: (
                distance_sq(
                    self.grid.center(self.pools[p.pool].cell_at(p.ho, p.vo)),
                    src_pos,
                ),
                p.pool,
            ),
        )

    def _store_for(self, placement: Placement) -> CellStore:
        key = (placement.pool, placement.ho, placement.vo)
        store = self._stores.get(key)
        if store is None:
            cell = self.pools[placement.pool].cell_at(placement.ho, placement.vo)
            store = CellStore(
                primary_node=self.index_node(cell),
                v_range=vertical_range(
                    placement.ho, placement.vo, self.side_length
                ),
            )
            self._stores[key] = store
        return store

    # ------------------------------------------------------------------ #
    # Replication and failure handling (hardening beyond the paper)      #
    # ------------------------------------------------------------------ #

    def _replica_nodes_for(
        self, key: tuple[int, int, int], store: CellStore
    ) -> tuple[int, ...]:
        """The cell's replica nodes: nearest alive non-holders."""
        if not self.replication.enabled:
            return ()
        cached = self._replica_nodes.get(key)
        topology = self.network.topology
        holders = set(store.holders()) | {store.primary_node}
        if (
            cached is not None
            and all(topology.is_alive(n) for n in cached)
            and not set(cached) & holders
        ):
            return cached
        pool_i, ho, vo = key
        center = self.grid.center(self.pools[pool_i].cell_at(ho, vo))
        radius = max(2 * self.grid.cell_size, topology.radio_range)
        candidates: list[int] = []
        while len(candidates) < self.replication.replicas:
            candidates = [
                node
                for node in topology.nodes_within(center, radius)
                if node not in holders
            ]
            if radius > topology.field.width + topology.field.height:
                break
            radius *= 2.0
        candidates.sort(key=lambda n: distance_sq(self.network.position(n), center))
        chosen = tuple(candidates[: self.replication.replicas])
        self._replica_nodes[key] = chosen
        return chosen

    def _replicate(self, placement: Placement, holder: int) -> int:
        """Copy the just-stored event to the cell's replicas; returns hops."""
        if not self.replication.enabled:
            return 0
        key = (placement.pool, placement.ho, placement.vo)
        store = self._stores[key]
        hops = 0
        for replica in self._replica_nodes_for(key, store):
            try:
                path = self.network.unicast(
                    MessageCategory.REPLICATE, holder, replica
                )
            except UnreachableError as err:
                # One replica copy lost; others still attempted.
                hops += max(len(err.partial_path) - 1, 0)
                continue
            hops += len(path) - 1
        return hops

    def handle_failures(self, failed: list[int] | set[int]) -> FailureReport:
        """Remove failed nodes and repair the index (roles + data).

        1. Degrade the radio graph (``Network.fail_nodes``); GPSR now
           routes around the holes.
        2. Re-elect index nodes and splitters lazily (caches cleared) —
           the election rule ("closest alive node to the cell center") is
           unchanged, so survivors agree without coordination.
        3. Reassign every segment held by a dead node to the cell's new
           index node.  If the cell has an alive replica, the segment's
           events transfer from it (``REPLICATE`` messages, batched);
           otherwise those events are lost, reported, and each cell that
           lost some is passed to every ``loss_listeners`` entry.
        4. Re-seed replicas for cells whose replica nodes died (full-copy
           transfer from an alive holder).
        """
        failed_set = set(failed)
        self._layout_epoch += 1
        self.network.fail_nodes(sorted(failed_set))
        self._index_node_cache.clear()
        self._splitter_cache.clear()
        topology = self.network.topology
        report = FailureReport(failed_nodes=frozenset(failed_set))
        for node in sorted(failed_set):
            self._node_load.pop(node, None)
        for key, store in self._stores.items():
            pool_i, ho, vo = key
            cell = self.pools[pool_i].cell_at(ho, vo)
            old_replicas = self._replica_nodes.get(key, ())
            alive_replicas = [n for n in old_replicas if topology.is_alive(n)]
            for segment in store.segments:
                if topology.is_alive(segment.node):
                    continue
                new_holder = self.index_node(cell)
                report.segments_reassigned += 1
                if self.replication.enabled and alive_replicas:
                    source = alive_replicas[0]
                    hops = self.network.router.hops(source, new_holder)
                    messages = self.replication.transfer_messages(
                        max(len(segment), 1), hops
                    )
                    self.network.stats.record(MessageCategory.REPLICATE, messages)
                    report.recovery_messages += messages
                    report.events_recovered += len(segment)
                    self._node_load[new_holder] = (
                        self._node_load.get(new_holder, 0) + len(segment)
                    )
                else:
                    report.events_lost += len(segment)
                    self._event_count -= len(segment)
                    if len(segment):
                        report.lossy_cells.append(key)
                    del segment.rows[:]
                    segment.keys.clear()
                segment.node = new_holder
            if not topology.is_alive(store.primary_node):
                store.primary_node = self.index_node(cell)
            # Re-seed replicas lost to the failure — or *promoted*: when
            # the re-elected index node was itself a replica, keeping it
            # in the replica set would leave the cell with a duplicate
            # holder/replica (and one failure away from losing both).
            holders_now = set(store.holders()) | {store.primary_node}
            surviving = [n for n in alive_replicas if n not in holders_now]
            if self.replication.enabled and len(surviving) < len(old_replicas):
                self._replica_nodes.pop(key, None)
                new_replicas = self._replica_nodes_for(key, store)
                fresh = [n for n in new_replicas if n not in surviving]
                if fresh:
                    source = store.primary_node
                    total = store.total_events()
                    for replica in fresh:
                        hops = self.network.router.hops(source, replica)
                        messages = self.replication.transfer_messages(
                            max(total, 1), hops
                        )
                        self.network.stats.record(
                            MessageCategory.REPLICATE, messages
                        )
                        report.recovery_messages += messages
                        report.replicas_reseeded += 1
        for key in dict.fromkeys(report.lossy_cells):
            for listener in self.loss_listeners:
                listener(key)
        return report

    # ------------------------------------------------------------------ #
    # Workload sharing (Section 4.2)                                     #
    # ------------------------------------------------------------------ #

    def _maybe_share(self, store: CellStore, placement: Placement) -> None:
        if not self.sharing.enabled:
            return
        cell = self.pools[placement.pool].cell_at(placement.ho, placement.vo)
        for segment in list(store.segments):
            if len(segment) <= self.sharing.capacity:
                continue
            delegate = self._find_delegate(cell, store)
            if delegate is None:
                continue
            source_node = segment.node
            upper = store.split_segment(segment, delegate)
            if upper is None:
                continue
            self._layout_epoch += 1
            moved = len(upper)
            self._node_load[source_node] = (
                self._node_load.get(source_node, 0) - moved
            )
            self._node_load[delegate] = self._node_load.get(delegate, 0) + moved
            hops = self.network.router.hops(source_node, delegate)
            self.network.stats.record(
                MessageCategory.SHARING,
                self.sharing.transfer_messages(moved, hops),
            )

    def _find_delegate(self, cell: Cell, store: CellStore) -> int | None:
        """Least-loaded nearby node not already holding part of the cell.

        Real index nodes learn neighbor load from beacon piggybacks; the
        load-aware choice is what lets sharing actually flatten a hotspot
        instead of re-concentrating it on the node that already serves the
        adjacent hot cells.
        """
        center = self.grid.center(cell)
        radius = max(
            self.sharing.search_radius_cells * self.grid.cell_size,
            self.network.topology.radio_range,
        )
        holders = set(store.holders())
        field = self.network.topology.field
        max_radius = field.width + field.height
        candidates: list[int] = []
        # The configured radius may hold no free node at sparse densities;
        # widen until one turns up (a real node would escalate through its
        # multi-hop neighborhood the same way).
        while not candidates and radius <= max_radius:
            candidates = [
                node
                for node in self.network.topology.nodes_within(center, radius)
                if node not in holders
            ]
            radius *= 2.0
        if not candidates:
            return None
        return min(
            candidates,
            key=lambda n: (
                self._node_load.get(n, 0),
                distance_sq(self.network.position(n), center),
            ),
        )

    def handoff_cell(self, pool: int, ho: int, vo: int) -> int | None:
        """Energy rotation: move a whole cell to a fresh node, old one sleeps.

        Returns the new holder, or ``None`` when no candidate exists.
        Charges ``SHARING`` messages for the state transfer.
        """
        store = self._stores.get((pool, ho, vo))
        if store is None:
            return None
        cell = self.pools[pool].cell_at(ho, vo)
        new_node = self._find_delegate(cell, store)
        if new_node is None:
            return None
        self._layout_epoch += 1
        hops = self.network.router.hops(store.primary_node, new_node)
        old_node = store.primary_node
        moved = 0
        for segment in store.segments:
            if segment.node == old_node:
                moved += store.handoff_segment(segment, new_node)
        if moved:
            self._node_load[old_node] = self._node_load.get(old_node, 0) - moved
            self._node_load[new_node] = self._node_load.get(new_node, 0) + moved
        self.network.stats.record(
            MessageCategory.SHARING,
            self.sharing.transfer_messages(max(moved, 1), hops),
        )
        store.primary_node = new_node
        return new_node

    # ------------------------------------------------------------------ #
    # Query processing (Section 3.2)                                     #
    # ------------------------------------------------------------------ #

    def query(self, sink: int, query: RangeQuery) -> QueryResult:
        """Resolve, forward and answer ``query`` from node ``sink``.

        Per Pool with at least one relevant cell: the sink unicasts the
        query to the Pool's splitter, the splitter fans out to every
        relevant cell's holder along a merged GPSR tree, and the replies
        aggregate back over the same edges (Section 3.2.3).

        Thin compatibility wrapper over the staged pipeline
        (:meth:`plan_query` / :meth:`execute_plan` / :meth:`fold_replies`).
        """
        return run_staged(self, sink, query)

    def plan_query(self, sink: int, query: RangeQuery) -> QueryPlan:
        """Pure resolving (Theorem 3.2 / Algorithm 2): zero messages.

        Per Pool with at least one relevant cell, derives the horizontal/
        vertical ranges, lists the relevant cells, names the physical
        holders (ordered-deduplicated) the splitter tree must reach and
        grafts that tree — everything the sink computes locally before any
        radio traffic.  A plan stays valid while :attr:`layout_version`
        reads the same.
        """
        check_query_dimensions(self.dimensions, query)
        tel = self.network.telemetry
        side = self.side_length
        stores = self._stores
        keys: list[tuple[int, int, int]] = []
        legs: list[PoolLegPlan] = []
        for pool, derived in zip(self.pools, query_ranges(query)):
            windows = resolve_pool(derived, side, recorder=tel)
            if not windows:
                continue
            v_lo, v_hi = derived.vertical
            # Each column's relevant cells are one slice of the layout's
            # flat tables, so cells, keys and offsets are copied, not built.
            offsets: list[tuple[int, int]] = []
            cells: list[Cell] = []
            leg_keys: list[tuple[int, int, int]] = []
            for ho, rows in windows:
                window = slice(ho * side + rows.start, ho * side + rows.stop)
                offsets.extend(pool.offsets[window])
                cells.extend(pool.cells_by_offset[window])
                leg_keys.extend(pool.keys_by_offset[window])
            destinations: dict[int, None] = {}
            cell_holders: list[tuple[Cell, frozenset[int]]] = []
            for cell, key in zip(cells, leg_keys):
                store = stores.get(key)
                if store is None:
                    node = self.index_node(cell)
                    destinations[node] = None
                    cell_holders.append((cell, frozenset((node,))))
                    continue
                nodes: list[int] = []
                for segment in store.segments:
                    if segment.overlaps(v_lo, v_hi):
                        destinations[segment.node] = None
                        nodes.append(segment.node)
                cell_holders.append((cell, frozenset(nodes)))
            keys.extend(leg_keys)
            splitter = (
                self.splitter(sink, pool.index) if self.route_via_splitter else sink
            )
            holders = tuple(destinations)
            legs.append(
                PoolLegPlan(
                    pool=pool.index,
                    splitter=splitter,
                    offsets=tuple(offsets),
                    cells=tuple(cells),
                    vertical=derived.vertical,
                    destinations=holders,
                    cell_holders=tuple(cell_holders),
                    tree=graft(self.network.router, splitter, holders),
                )
            )
        return self._assemble_plan("pool", sink, query, tuple(keys), tuple(legs))

    def _assemble_plan(
        self,
        tag: str,
        sink: int,
        query: RangeQuery,
        keys: tuple[tuple[int, int, int], ...],
        legs: tuple[PoolLegPlan, ...],
    ) -> QueryPlan:
        """The :class:`QueryPlan` over ``legs``, its share key tagged ``tag``.

        ``keys`` are the legs' ``(pool, ho, vo)`` cell keys, leg by leg.
        """
        return QueryPlan(
            system="pool",
            sink=sink,
            query=query,
            cells=keys,
            destinations=tuple(
                dict.fromkeys(node for leg in legs for node in leg.destinations)
            ),
            share_key=(
                tag,
                sink,
                self.route_via_splitter,
                tuple((leg.pool, leg.splitter, leg.destinations) for leg in legs),
            ),
            detail=legs,
        )

    def execute_plan(self, plan: QueryPlan) -> Execution:
        """Charge the plan's splitter trees; report which holders answered.

        Aggregated replies retrace the forwarding tree, so losslessly the
        reply cost mirrors the forward cost leg for leg; under loss it
        counts the reply hops each leg attempted.
        """
        leg_plans: tuple[PoolLegPlan, ...] = plan.detail
        leg_execs: list[PoolLegExecution] = []
        forward_cost = 0
        reply_cost = 0
        for leg in leg_plans:
            leg_exec, replies = self._forward(plan.sink, leg)
            leg_execs.append(leg_exec)
            forward_cost += leg_exec.forward_cost
            reply_cost += replies
        return Execution(
            forward_cost=forward_cost,
            reply_cost=reply_cost,
            # Pools are queried in parallel: latency is the worst pool.
            depth_hops=max((ex.depth_hops for ex in leg_execs), default=0),
            answered=frozenset(
                node for ex in leg_execs for node in ex.answered
            ),
            detail=tuple(leg_execs),
        )

    def leg_answers(
        self, plan: QueryPlan
    ) -> list[tuple[MulticastTree, dict[int, list[Event]]]]:
        """Per leg of ``plan``: its splitter tree, and each holder's stored answer.

        Each holder answers from its own segments that overlap the leg's
        vertical range, without :meth:`fold_replies`: the event-driven
        oracle (:mod:`repro.core.protocol`) checks the fold against this.
        """
        legs = []
        for leg in cast("tuple[PoolLegPlan, ...]", plan.detail):
            stores = [self._stores.get((leg.pool, ho, vo)) for ho, vo in leg.offsets]
            held = (
                (segment.node, segment.rows)
                for store in stores
                if store is not None
                for segment in store.segments_overlapping(leg.vertical)
            )
            legs.append((leg.tree, self._table.select_by_holder(plan.query, held)))
        return legs

    def fold_replies(self, plan: QueryPlan, execution: Execution) -> QueryResult:
        """Aggregate answered holders' matches into the query result.

        Matches are read here — not at planning time — so a cached plan
        folds against current cell contents, and queries coalesced onto a
        shared execution each fold their own cell set.  A holder whose
        reply never reached the sink contributes nothing.
        """
        query: RangeQuery = plan.query
        detail = PoolQueryDetail()
        answered_rows: list[array[int]] = []
        visited: list[int] = []
        attempted_cells = 0
        answered_cells = 0
        unreachable_cells: list[Cell] = []
        unreachable_nodes: dict[int, None] = {}
        stores = self._stores
        leg_plans: tuple[PoolLegPlan, ...] = plan.detail
        # ``plan.cells`` lists every leg's store keys, leg after leg.
        keys = iter(cast("tuple[tuple[int, int, int], ...]", plan.cells))
        for leg, leg_exec in zip(leg_plans, execution.detail):
            answered = leg_exec.answered
            v_lo, v_hi = leg.vertical
            detail.plans.append(
                PoolPlan(
                    pool=leg.pool,
                    splitter=leg.splitter,
                    cells=leg.cells,
                    index_nodes=leg.destinations,
                    sink_to_splitter_hops=leg_exec.sink_to_splitter_hops,
                    tree_edges=leg_exec.tree_edges,
                    depth_hops=leg_exec.depth_hops,
                )
            )
            visited.extend(leg.destinations)
            attempted_cells += len(leg.cell_holders)
            # ``cell_holders`` goes first: zip stops on it without drawing
            # the next leg's first key.
            for (cell, cell_nodes), key in zip(leg.cell_holders, keys):
                if cell_nodes <= answered:
                    answered_cells += 1
                else:
                    unreachable_cells.append(cell)
                    for node in sorted(cell_nodes - answered):
                        unreachable_nodes[node] = None
                store = stores.get(key)
                if store is None:
                    continue
                for segment in store.segments:
                    if segment.node in answered and segment.overlaps(v_lo, v_hi):
                        answered_rows.append(segment.rows)
        return resolve_result(
            events=self._table.select(query, answered_rows),
            forward_cost=execution.forward_cost,
            reply_cost=execution.reply_cost,
            visited_nodes=tuple(visited),
            detail=detail,
            depth_hops=execution.depth_hops,
            attempted_cells=attempted_cells,
            answered_cells=answered_cells,
            unreachable_cells=tuple(unreachable_cells),
            unreachable_nodes=tuple(unreachable_nodes),
        )

    def plan_retry(
        self, plan: QueryPlan, result: QueryResult
    ) -> QueryPlan | None:
        """A restricted plan covering only a partial result's missing cells.

        The serving layer's retry path calls this so a re-execution
        disseminates only to the unreachable cells' holders instead of
        re-charging the whole splitter tree.  Cell membership is tested
        against the flat unreachable set; the same ``Cell`` coordinates
        can in principle appear in two Pools, in which case an answered
        twin is retried too — an over-approximation that costs a few
        extra (honestly charged) messages but never loses data, since
        retry folds are merged with event dedup.  Returns ``None`` when
        nothing is missing (the caller keeps the original result).
        """
        if not isinstance(result, PartialResult) or not result.unreachable_cells:
            return None
        missing = set(result.unreachable_cells)
        leg_plans: tuple[PoolLegPlan, ...] = plan.detail
        keys: list[tuple[int, int, int]] = []
        legs: list[PoolLegPlan] = []
        for leg in leg_plans:
            keep = [i for i, cell in enumerate(leg.cells) if cell in missing]
            if not keep:
                continue
            cell_holders = tuple(leg.cell_holders[i] for i in keep)
            destinations: dict[int, None] = {}
            for _, cell_nodes in cell_holders:
                for node in sorted(cell_nodes):
                    destinations[node] = None
            offsets = tuple(leg.offsets[i] for i in keep)
            keys.extend((leg.pool, ho, vo) for ho, vo in offsets)
            holders = tuple(destinations)
            legs.append(
                replace(
                    leg,
                    offsets=offsets,
                    cells=tuple(leg.cells[i] for i in keep),
                    destinations=holders,
                    cell_holders=cell_holders,
                    tree=graft(self.network.router, leg.splitter, holders),
                )
            )
        if not legs:
            return None
        return self._assemble_plan(
            "pool-retry", plan.sink, plan.query, tuple(keys), tuple(legs)
        )

    def query_span_attrs(self, result: QueryResult) -> dict[str, object]:
        """Pool attributes for the query lifecycle span."""
        attrs: dict[str, object] = {
            "pools_visited": result.detail.pools_visited,
            "matches": result.match_count,
        }
        if self.network.reliability is not None:
            attrs["completeness"] = round(result.completeness, 6)
        return attrs

    def close(self) -> None:
        """Detach external hooks so the deployment can be reused.

        Insert listeners reference whatever registered them (continuous-
        query services, serve-layer caches); clearing them on teardown
        keeps a reused :class:`Deployment` from notifying dead consumers.
        """
        self.insert_listeners.clear()
        self.loss_listeners.clear()

    def explain(self, sink: int, query: RangeQuery) -> str:
        """A human-readable query plan — computed locally, zero messages.

        Shows, per Pool, the Theorem 3.2 derived ranges, the relevant
        cells, the splitter and the physical holders a real execution
        would visit.  Useful for debugging workloads and for teaching the
        scheme; the plan text is stable for a fixed topology and seed.
        Cells and holders come from :meth:`plan_query`'s legs, so the
        text shows exactly what a query would plan; with telemetry
        attached, that planning records its zero-message ``resolve`` span
        per Pool, as a query's would.
        """
        before = self.network.stats.total
        legs = {leg.pool: leg for leg in self.plan_query(sink, query).detail}
        lines = [f"plan for {query} at sink {sink}:"]
        for pool in self.pools:
            derived = query_ranges_for_pool(query, pool.index)
            header = (
                f"  P{pool.index + 1} (pivot {pool.pivot!r}): "
                f"R_H=[{derived.horizontal[0]:.3g}, {derived.horizontal[1]:.3g}] "
                f"R_V=[{derived.vertical[0]:.3g}, {derived.vertical[1]:.3g}]"
            )
            leg = legs.get(pool.index)
            if leg is None:
                lines.append(header + " -> pruned")
                continue
            lines.append(header)
            splitter = self.splitter(sink, pool.index)
            lines.append(f"    splitter: node {splitter}")
            for (ho, vo), cell in zip(leg.offsets, leg.cells):
                store = self._stores.get((pool.index, ho, vo))
                if store is None:
                    holders = f"node {self.index_node(cell)} (empty)"
                else:
                    parts = [
                        f"node {segment.node} x{len(segment)}"
                        for segment in store.segments_overlapping(leg.vertical)
                    ]
                    holders = ", ".join(parts) if parts else "no overlapping segment"
                lines.append(f"    {cell!r} (HO={ho}, VO={vo}): {holders}")
        # Planning must never have caused traffic.
        assert self.network.stats.total == before
        return "\n".join(lines)

    def aggregate(
        self,
        sink: int,
        query: RangeQuery,
        *,
        dimension: int = 0,
        kind: AggregateKind = AggregateKind.COUNT,
    ) -> AggregateResult:
        """In-network aggregate over the query's qualifying events.

        Partial :class:`~repro.aggregates.AggregateState` values fold at
        each holder, merge at branch points of the reply tree and at each
        Pool's splitter (Section 3.2.3), and finalize at the sink.  The
        single-copy rule of Section 4.1 makes the result exact — no event
        is double counted even when its greatest value ties across
        dimensions.

        Message cost equals the corresponding range query's cost: the
        same forwarding tree, with O(1)-size replies.
        """
        return aggregate_query(self, sink, query, dimension, kind)

    def _forward(
        self, sink: int, leg_plan: PoolLegPlan
    ) -> tuple[PoolLegExecution, int]:
        """Charge the forwarding and reply messages for a Pool.

        Returns the leg's transport outcome (hop counts plus the set of
        tree nodes whose aggregated reply actually reached the sink) and
        the reply hops attempted: up the tree, then splitter → sink.  On
        a lossless facade that is every destination; under a reliability
        layer an unreachable splitter (or a lost splitter→sink reply)
        empties the set and the fold degrades the whole Pool to
        unanswered.

        Span tree per Pool (Section 3.2.3): ``pool-fanout`` wrapping
        ``sink-to-splitter`` (the unicast leg), ``cell-fanout`` (opened by
        :meth:`Network.disseminate` for the leg's planned tree) and
        ``reply-aggregation`` (the
        replies retracing the tree, then splitter → sink).  Every span
        reads its messages off the ledger.  Under a reliability layer a
        ``delivery-failure`` event span marks an unreachable splitter,
        and ``reply-aggregation`` gains an ``answered`` attribute.
        """
        tel = self.network.telemetry
        stats = self.network.stats
        rel = self.network.reliability
        pool = leg_plan.pool
        with open_span(tel, "pool-fanout", ledger=stats, phase="forward", pool=pool) as pool_span:
            if self.route_via_splitter:
                splitter = leg_plan.splitter
                with open_span(
                    tel, "sink-to-splitter", ledger=stats, phase="forward", pool=pool
                ) as leg:
                    try:
                        path = self.network.unicast(
                            MessageCategory.QUERY_FORWARD, sink, splitter
                        )
                    except UnreachableError as err:
                        # Hops reached; one more, the failed hop, was sent.
                        hops = len(err.partial_path) - 1
                        leg.add_nodes(err.partial_path)
                        if tel is not None:
                            tel.record(
                                "delivery-failure",
                                phase="forward",
                                pool=pool,
                                unreachable=splitter,
                            )
                        return PoolLegExecution(
                            pool=pool,
                            sink_to_splitter_hops=hops + 1,
                            tree_edges=0,
                            depth_hops=hops,
                            answered=frozenset(),
                        ), 0
                    leg.add_nodes(path)
                sink_hops = len(path) - 1
            else:
                sink_hops = 0
                path = [sink]
            delivery = self.network.disseminate(
                MessageCategory.QUERY_FORWARD, leg_plan.tree
            )
            tree = delivery.tree
            with open_span(
                tel, "reply-aggregation", ledger=stats, phase="reply", pool=pool
            ) as reply:
                # Aggregated replies: back down the tree, then splitter -> sink.
                answered, replies = self.network.collect_up_tree(
                    MessageCategory.QUERY_REPLY, delivery
                )
                try:
                    self.network.send_along(
                        MessageCategory.QUERY_REPLY, list(reversed(path))
                    )
                    replies += sink_hops
                except UnreachableError as err:
                    answered = frozenset()
                    # The reached prefix's hops, and the hop that failed.
                    replies += len(err.partial_path)
                if rel is not None:
                    reply.annotate(answered=len(answered))
                reply.add_nodes(tree.depths)
            pool_span.add_nodes(leg_plan.destinations)
        return PoolLegExecution(
            pool=pool,
            sink_to_splitter_hops=sink_hops,
            tree_edges=delivery.attempted_edges,
            depth_hops=sink_hops + tree.height(),
            answered=answered,
        ), replies

    # ------------------------------------------------------------------ #
    # Introspection                                                      #
    # ------------------------------------------------------------------ #

    @property
    def stored_events(self) -> int:
        """Total events currently stored across all Pools."""
        return self._event_count

    def all_events(self) -> list[Event]:
        """Every stored event (ground truth for correctness tests)."""
        return self._table.events(
            row for store in self._stores.values() for row in store.all_rows()
        )

    def storage_distribution(self) -> dict[int, int]:
        """Events per physical node — the hotspot metric."""
        per_node: dict[int, int] = {}
        for store in self._stores.values():
            for segment in store.segments:
                if segment.rows:
                    per_node[segment.node] = (
                        per_node.get(segment.node, 0) + len(segment.rows)
                    )
        return per_node

    def index_nodes(self) -> set[int]:
        """All physical nodes elected index node of some Pool cell.

        Its size is at most ``k·l²`` regardless of network size — the
        scalability property of Section 1.
        """
        return {
            self.index_node(cell)
            for pool in self.pools
            for cell in pool.cells()
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PoolSystem(k={self.dimensions}, l={self.side_length}, "
            f"events={self._event_count})"
        )

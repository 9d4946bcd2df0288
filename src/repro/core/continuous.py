"""Continuous (standing) queries over a Pool system.

The paper's closing section names "continuous monitoring" as the
capability being added to Pool next; this module provides it on top of
the published machinery, using the same Theorem 3.2 resolution:

1. **Register** — the sink resolves the standing query's relevant cells
   (Algorithm 2) and disseminates a subscription along the usual
   splitter trees (one-time cost, identical tree to a one-shot query's
   forward phase).
2. **Match at insert** — each subscribed cell holder checks newly stored
   events against its registered queries locally (zero messages).
3. **Notify** — a qualifying new event is pushed from its holder to the
   subscribing sink over GPSR (``NOTIFY`` messages).

Because insertion places an event only in cells that Algorithm 2 lists as
relevant for any query the event satisfies (the resolve-covers-placement
invariant), a subscription registered at the relevant cells can never
miss a future event — the same soundness argument as one-shot queries.

Limitation mirroring the paper's design: a subscription is anchored to
the cells relevant *at registration time*; cells split by workload
sharing inherit their ancestors' subscriptions (handled in
:meth:`ContinuousQueryService._on_insert` by matching on the cell, not
the holder).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.core.insertion import Placement
from repro.core.system import PoolSystem
from repro.events.event import Event
from repro.events.queries import RangeQuery
from repro.exceptions import QueryError
from repro.network.messages import MessageCategory

__all__ = ["Subscription", "ContinuousQueryService"]


@dataclass(slots=True)
class Subscription:
    """One registered standing query."""

    sub_id: int
    sink: int
    query: RangeQuery
    #: (pool, ho, vo) triples the subscription is anchored to.
    cells: frozenset[tuple[int, int, int]]
    registration_cost: int = 0
    notifications: int = 0
    matched_events: list[Event] = field(default_factory=list)
    active: bool = True


class ContinuousQueryService:
    """Standing-query layer over one :class:`PoolSystem`.

    Construct it once per system; it hooks the system's insert path::

        service = ContinuousQueryService(pool)
        sub = service.register(sink=0, query=RangeQuery.partial(3, {0: (0.9, 1.0)}))
        ...  # inserts now push matching events to node 0
        service.unregister(sub)
    """

    def __init__(self, system: PoolSystem) -> None:
        self.system = system
        self._ids = itertools.count(1)
        self._subscriptions: dict[int, Subscription] = {}
        # cell -> subscription ids anchored there.
        self._by_cell: dict[tuple[int, int, int], set[int]] = {}
        self._closed = False
        system.insert_listeners.append(self._on_insert)

    def close(self) -> None:
        """Detach the insert hook from the system.  Idempotent.

        Without this, every service constructed over a system left its
        ``_on_insert`` registered forever — on a reused deployment the
        dead services kept matching (and charging NOTIFY messages for)
        later trials' inserts.  Call it when the service is done; the
        system's own ``close()`` also severs the hook from its side.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self.system.insert_listeners.remove(self._on_insert)
        except ValueError:
            # The system already tore its listener list down.
            pass

    # ------------------------------------------------------------------ #
    # Registration                                                       #
    # ------------------------------------------------------------------ #

    def register(self, sink: int, query: RangeQuery) -> Subscription:
        """Install a standing query; returns the live subscription.

        Costs one query-forward dissemination (sink → splitters →
        relevant cells) recorded under ``QUERY_FORWARD``.
        """
        network = self.system.network
        before = network.stats.count(MessageCategory.QUERY_FORWARD)
        cells: set[tuple[int, int, int]] = set()
        # The one-shot forward phase's legs, each sent down the tree its
        # plan already grafted: the subscription tree is that query's tree.
        for leg in self.system.plan_query(sink, query).detail:
            if self.system.route_via_splitter:
                network.unicast(MessageCategory.QUERY_FORWARD, sink, leg.splitter)
            network.disseminate(MessageCategory.QUERY_FORWARD, leg.tree)
            cells.update((leg.pool, ho, vo) for ho, vo in leg.offsets)
        cost = network.stats.count(MessageCategory.QUERY_FORWARD) - before
        subscription = Subscription(
            sub_id=next(self._ids),
            sink=sink,
            query=query,
            cells=frozenset(cells),
            registration_cost=cost,
        )
        self._subscriptions[subscription.sub_id] = subscription
        for cell in sorted(cells):
            self._by_cell.setdefault(cell, set()).add(subscription.sub_id)
        return subscription

    def unregister(self, subscription: Subscription) -> None:
        """Tear down a subscription (local bookkeeping; the cancel message
        would retrace the registration tree — charged the same way)."""
        stored = self._subscriptions.pop(subscription.sub_id, None)
        if stored is None:
            raise QueryError(f"subscription {subscription.sub_id} is not active")
        stored.active = False
        for cell in stored.cells:
            anchored = self._by_cell.get(cell)
            if anchored is not None:
                anchored.discard(stored.sub_id)
                if not anchored:
                    del self._by_cell[cell]
        # The cancellation retraces the registration paths.
        self.system.network.stats.record(
            MessageCategory.QUERY_FORWARD, stored.registration_cost
        )

    @property
    def active_subscriptions(self) -> tuple[Subscription, ...]:
        return tuple(self._subscriptions.values())

    # ------------------------------------------------------------------ #
    # Insert hook                                                        #
    # ------------------------------------------------------------------ #

    def _on_insert(self, placement: Placement, event: Event, holder: int) -> None:
        cell_key = (placement.pool, placement.ho, placement.vo)
        sub_ids = self._by_cell.get(cell_key)
        if not sub_ids:
            return
        for sub_id in tuple(sub_ids):
            subscription = self._subscriptions[sub_id]
            if not subscription.query.matches(event):
                continue
            subscription.notifications += 1
            subscription.matched_events.append(event)
            if holder != subscription.sink:
                self.system.network.unicast(
                    MessageCategory.NOTIFY, holder, subscription.sink
                )

    # ------------------------------------------------------------------ #
    # Accounting                                                         #
    # ------------------------------------------------------------------ #

    def notify_cost(self) -> int:
        """Total NOTIFY messages pushed so far (from the shared ledger)."""
        return self.system.network.stats.count(MessageCategory.NOTIFY)

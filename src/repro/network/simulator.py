"""A small discrete-event simulation kernel with a beacon protocol.

The benchmark harness measures message counts synchronously (GPSR paths
are deterministic), but the library also ships a genuine event-driven
simulator so that protocol *dynamics* can be exercised: periodic beacons
building neighbor tables, hop-by-hop packet delivery with per-hop latency,
node sleep states.  The simulator reuses the exact same router and stats
ledger, and the test suite asserts that hop-by-hop delivery through the
kernel costs exactly what the synchronous accounting predicts.

Design notes
------------
* The event queue is a binary heap of ``(time, seq, callback)``; ``seq``
  breaks ties FIFO so runs are deterministic.
* Radio broadcast (beacons) costs one transmission regardless of the
  number of listeners — that is how real low-power radios behave and how
  the paper's "periodic exchange of beacon messages" should be priced.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable

from repro.exceptions import ConfigurationError, DeliveryError
from repro.network.messages import Message, MessageCategory
from repro.network.node import SimNode
from repro.network.radio import MessageStats
from repro.network.reliability import ReliabilityLayer
from repro.network.topology import Topology
from repro.routing.gpsr import GPSRRouter

__all__ = ["Simulator", "SimNode", "BeaconProtocol"]


@dataclass(order=True)
class _ScheduledEvent:
    time: float
    seq: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)


class Simulator:
    """Discrete-event kernel over a :class:`Topology`.

    Parameters
    ----------
    topology:
        The deployed network; one :class:`SimNode` is materialized per
        physical node.
    hop_latency:
        Simulated seconds per radio hop.
    stats:
        Optional shared ledger (pass the :class:`Network` facade's ledger
        to unify accounting); a private one is created otherwise.
    reliability:
        Optional :class:`ReliabilityLayer`: per-hop loss draws, ARQ
        retransmissions with exponential backoff (real simulated-time
        delays here), and fault-plan node deaths, which put the
        corresponding :class:`SimNode` to sleep mid-run.
    """

    def __init__(
        self,
        topology: Topology,
        *,
        hop_latency: float = 0.01,
        stats: MessageStats | None = None,
        reliability: ReliabilityLayer | None = None,
        router: GPSRRouter | None = None,
    ) -> None:
        if hop_latency <= 0:
            raise ConfigurationError(f"hop_latency must be positive: {hop_latency}")
        self.topology = topology
        self.hop_latency = hop_latency
        self.stats = stats if stats is not None else MessageStats()
        # The router indirection: callers may inject a shared router (the
        # deployment's warmed cache, or a ShardRouter computing paths on
        # shard tiles) instead of this private per-simulator one.
        if router is not None and router.topology is not topology:
            raise ConfigurationError(
                "injected router must route over the simulator's topology"
            )
        self.router = router if router is not None else GPSRRouter(topology)
        self.now = 0.0
        self.nodes = [
            SimNode(node_id, topology.position(node_id)) for node_id in topology
        ]
        self._queue: list[_ScheduledEvent] = []
        self._seq = itertools.count()
        self._events_processed = 0
        self.reliability = reliability
        if reliability is not None:
            reliability.bind(topology)
            if reliability.on_death is None:
                reliability.on_death = self._kill_nodes

    def _kill_nodes(self, nodes: tuple[int, ...]) -> None:
        """Fault-plan deaths take effect in the simulated world too."""
        for node_id in nodes:
            self.nodes[node_id].sleep()

    # ------------------------------------------------------------------ #
    # Scheduling                                                         #
    # ------------------------------------------------------------------ #

    def schedule(self, delay: float, callback: Callable[[], None]) -> _ScheduledEvent:
        """Run ``callback`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise ConfigurationError(f"delay must be non-negative, got {delay}")
        event = _ScheduledEvent(self.now + delay, next(self._seq), callback)
        heapq.heappush(self._queue, event)
        return event

    def cancel(self, event: _ScheduledEvent) -> None:
        """Cancel a scheduled event (lazy removal)."""
        event.cancelled = True

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        """Process events in time order.

        Stops when the queue drains, when the next event is past ``until``,
        or after ``max_events`` callbacks.  Returns events processed.
        """
        processed = 0
        while self._queue:
            if max_events is not None and processed >= max_events:
                break
            if until is not None and self._queue[0].time > until:
                break
            event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self.now = event.time
            event.callback()
            processed += 1
        if until is not None and self.now < until:
            self.now = until
        self._events_processed += processed
        return processed

    # ------------------------------------------------------------------ #
    # Radio                                                              #
    # ------------------------------------------------------------------ #

    def broadcast(self, src: int, message: Message) -> None:
        """One-hop broadcast: every radio neighbor receives the message.

        Costs a single transmission (shared medium).
        """
        self.stats.record(message.category, sender=src)
        for neighbor in self.topology.neighbors(src):
            node = self.nodes[neighbor]
            self.schedule(self.hop_latency, lambda n=node, m=message: n.deliver(m))

    def send(
        self,
        src: int,
        dst: int,
        category: MessageCategory,
        payload: object = None,
        on_delivered: Callable[[Message], None] | None = None,
        on_failed: Callable[[Message, list[int]], None] | None = None,
    ) -> Message:
        """Send a unicast message hop by hop along the GPSR path.

        Each hop is one scheduled radio transmission; the destination
        node's handler (and ``on_delivered``) fire at arrival time.
        Liveness is re-checked when each hop *lands*, so a relay that
        dies after the message was scheduled never forwards it.  A hop
        that cannot deliver (dead relay/destination, or ARQ budget
        exhausted under a reliability layer) calls ``on_failed`` with the
        reached prefix — or raises :class:`DeliveryError` when no handler
        was given.
        """
        message = Message(category=category, src=src, dst=dst, payload=payload)
        path = self.router.path(src, dst)
        if len(path) < 2:
            self.schedule(0.0, lambda: self._arrive(message, on_delivered, on_failed, path))
            return message
        self._forward_along(message, path, 0, on_delivered, on_failed)
        return message

    def _forward_along(
        self,
        message: Message,
        path: list[int],
        index: int,
        on_delivered: Callable[[Message], None] | None,
        on_failed: Callable[[Message, list[int]], None] | None = None,
        attempt: int = 0,
    ) -> None:
        if index == len(path) - 1:
            self._arrive(message, on_delivered, on_failed, path)
            return
        sender, receiver = path[index], path[index + 1]
        if not self.nodes[sender].alive:
            self._fail(
                message,
                path[: index + 1],
                on_failed,
                f"node {sender} is asleep; message {message.msg_id} dropped",
            )
            return
        rel = self.reliability
        charge = message.category if attempt == 0 else MessageCategory.RETRANSMIT
        self.stats.record(charge, sender=sender, receiver=receiver)
        lost = False
        if rel is not None:
            tick = rel.begin_transmission()
            rel.attempted += 1
            if attempt > 0:
                rel.retransmissions += 1
            lost = rel.transmission_lost(tick, message.category, sender, receiver)

        def at_arrival() -> None:
            # Liveness decided when the hop lands, not when it was
            # scheduled: a relay that died in flight cannot forward.
            if lost or not self.nodes[receiver].alive:
                if rel is not None and attempt < rel.arq.retry_limit:
                    self.schedule(
                        rel.arq.backoff(attempt + 1),
                        lambda: self._forward_along(
                            message, path, index, on_delivered, on_failed, attempt + 1
                        ),
                    )
                else:
                    if rel is not None:
                        rel.failed_hops += 1
                    self._fail(
                        message,
                        path[: index + 1],
                        on_failed,
                        f"hop {sender}->{receiver} undeliverable; "
                        f"message {message.msg_id} dropped",
                    )
                return
            if rel is not None:
                rel.delivered += 1
                if attempt > 0:
                    self.stats.record(
                        MessageCategory.ACK, sender=receiver, receiver=sender
                    )
                    rel.acks += 1
            self._forward_along(message, path, index + 1, on_delivered, on_failed)

        self.schedule(self.hop_latency, at_arrival)

    def _fail(
        self,
        message: Message,
        partial: list[int],
        on_failed: Callable[[Message, list[int]], None] | None,
        reason: str,
    ) -> None:
        if on_failed is not None:
            on_failed(message, list(partial))
            return
        raise DeliveryError(reason, list(partial))

    def _arrive(
        self,
        message: Message,
        on_delivered: Callable[[Message], None] | None,
        on_failed: Callable[[Message, list[int]], None] | None = None,
        path: list[int] | None = None,
    ) -> None:
        assert message.dst is not None
        node = self.nodes[message.dst]
        if not node.alive:
            self._fail(
                message,
                path if path is not None else [message.dst],
                on_failed,
                f"destination {message.dst} died before message "
                f"{message.msg_id} arrived",
            )
            return
        node.deliver(message)
        if on_delivered is not None:
            on_delivered(message)


class BeaconProtocol:
    """Periodic neighbor beacons (the paper's Section 2 assumption).

    Every node broadcasts its ``(id, position)`` each ``interval`` seconds
    with a per-node random phase; receivers refresh their neighbor tables
    and evict entries older than ``timeout``.  After one full interval,
    every node's *discovered* table equals the topology's ground truth —
    asserted in the integration tests.
    """

    def __init__(
        self,
        simulator: Simulator,
        *,
        interval: float = 10.0,
        timeout: float | None = None,
        jitter: float = 0.1,
    ) -> None:
        if interval <= 0:
            raise ConfigurationError(f"interval must be positive, got {interval}")
        self.simulator = simulator
        self.interval = interval
        self.timeout = timeout if timeout is not None else 3.0 * interval
        self.jitter = jitter
        self.running = False

    def start(self, seed: int = 0) -> None:
        """Schedule the first beacon of every node (deterministic phases)."""
        self.running = True
        for node in self.simulator.nodes:
            phase = ((node.node_id * 2654435761 + seed) % 1000) / 1000.0
            delay = phase * self.jitter * self.interval
            self.simulator.schedule(delay, lambda n=node: self._beacon(n))

    def stop(self) -> None:
        """Stop beaconing: pending beacon events become no-ops.

        Without this, the self-rescheduling beacons keep the event queue
        non-empty forever and an unbounded ``Simulator.run()`` never
        returns.
        """
        self.running = False

    def _beacon(self, node: SimNode) -> None:
        if not self.running:
            return
        sim = self.simulator
        if node.alive:
            message = Message(
                category=MessageCategory.BEACON,
                src=node.node_id,
                payload=(node.node_id, node.position),
            )
            sim.stats.record(MessageCategory.BEACON, sender=node.node_id)
            for neighbor_id in sim.topology.neighbors(node.node_id):
                neighbor = sim.nodes[neighbor_id]
                if neighbor.alive:
                    neighbor.hear_beacon(node.node_id, node.position, sim.now)
            node.evict_stale_neighbors(sim.now, self.timeout)
        sim.schedule(self.interval, lambda: self._beacon(node))

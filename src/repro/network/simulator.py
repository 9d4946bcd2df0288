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
* A unicast hop is the reliability layer's ARQ step (``transmit`` now,
  ``land`` one ``hop_latency`` later), the same step the synchronous
  ``deliver_hop`` loops over.
* Radio broadcast (beacons) costs one transmission regardless of the
  number of listeners — that is how real low-power radios behave and how
  the paper's "periodic exchange of beacon messages" should be priced.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.exceptions import ConfigurationError, DeliveryError
from repro.network.messages import Message, MessageCategory
from repro.network.node import SimNode
from repro.network.radio import MessageStats
from repro.network.reliability import ArqPolicy, LossModel, ReliabilityLayer
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
    ) -> None:
        if hop_latency <= 0:
            raise ConfigurationError(f"hop_latency must be positive: {hop_latency}")
        self.topology = topology
        self.hop_latency = hop_latency
        self.stats = stats if stats is not None else MessageStats()
        self.router = GPSRRouter(topology)
        self.now = 0.0
        self.nodes = [
            SimNode(node_id, topology.position(node_id)) for node_id in topology
        ]
        self._queue: list[_ScheduledEvent] = []
        self._seq = itertools.count()
        self.reliability = reliability
        if reliability is not None:
            reliability.bind(topology)
            if reliability.on_death is None:
                reliability.on_death = self._kill_nodes
        lossless = ReliabilityLayer(LossModel(0.0), ArqPolicy(retry_limit=0))
        self._arq = reliability if reliability is not None else lossless

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
        return processed

    # ------------------------------------------------------------------ #
    # Radio                                                              #
    # ------------------------------------------------------------------ #

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

        The destination node's handler (and ``on_delivered``) fire at
        arrival time.  A hop that cannot deliver (see :meth:`hop`) calls
        ``on_failed`` with the reached prefix — or raises
        :class:`DeliveryError` when no handler was given.
        """
        message = Message(category=category, src=src, dst=dst, payload=payload)
        path = self.router.path(src, dst)

        def failed(partial: list[int]) -> None:
            if on_failed is None:
                raise DeliveryError(
                    f"message {message.msg_id} dropped at node {partial[-1]}", partial
                )
            on_failed(message, partial)

        def delivered() -> None:
            node = self.nodes[dst]
            if not node.alive:
                failed(path)
                return
            node.deliver(message)
            if on_delivered is not None:
                on_delivered(message)

        if len(path) < 2:
            self.schedule(0.0, delivered)
        else:
            self.send_path(category, path, delivered, failed)
        return message

    def send_path(
        self,
        category: MessageCategory,
        path: Sequence[int],
        on_delivered: Callable[[], None],
        on_failed: Callable[[list[int]], None],
    ) -> None:
        """Walk ``path`` one :meth:`hop` at a time.

        ``on_delivered()`` fires when the last hop lands (at once for a
        one-node path); ``on_failed(prefix)`` when a hop fails, with the
        prefix of ``path`` the message reached.
        """

        def walk(index: int) -> None:
            if index == len(path) - 1:
                on_delivered()
                return
            self.hop(
                category, path[index], path[index + 1],
                lambda: walk(index + 1),
                lambda: on_failed(list(path[: index + 1])),
            )

        walk(0)

    def hop(
        self,
        category: MessageCategory,
        sender: int,
        receiver: int,
        on_landed: Callable[[], None],
        on_failed: Callable[[], None],
        attempt: int = 0,
    ) -> None:
        """One radio hop under the reliability layer's ARQ step.

        Each attempt is transmitted now, lands ``hop_latency`` later and,
        if lost, is retried after ``arq.backoff``.  The sender must also
        be awake when it sends and the receiver when the frame lands, so
        a relay that dies with the frame in the air never forwards it.
        Without a layer the hop runs lossless with no retries.
        """
        arq, nodes = self._arq, self.nodes
        arrived = arq.transmit(
            category, sender, receiver, attempt, self.stats,
            sender_alive=nodes[sender].alive,
        )
        if arrived is None:
            on_failed()
            return

        def land() -> None:
            arrived_awake = arrived and nodes[receiver].alive
            outcome = arq.land(sender, receiver, attempt, arrived_awake, self.stats)
            if outcome is None:
                self.schedule(
                    arq.arq.backoff(attempt + 1),
                    lambda: self.hop(
                        category, sender, receiver, on_landed, on_failed, attempt + 1
                    ),
                )
            elif outcome:
                on_landed()
            else:
                on_failed()

        self.schedule(self.hop_latency, land)


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

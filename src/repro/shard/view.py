"""One shard's local world: a halo-padded topology view plus GPSR state.

A :class:`ShardWorkerState` is what the engine holds for one tile at one
failure epoch: a :class:`Topology` over the *global*
position array with every non-member marked excluded, and a memoizing
:class:`GPSRRouter` over that view.  Three properties make the view
sufficient:

* excluded nodes have empty neighbor rows and appear in nobody else's
  row, so an owned node's neighbor table equals the global one (all its
  neighbors are within one radio range, hence inside the halo);
* planarization treats excluded nodes as dead witnesses, and every
  Gabriel/RNG witness of an edge incident to an owned node also lies
  within one radio range of it, hence inside the halo;
* ``topology.size`` counts all ids, so the TTL budget equals the global
  router's.

Tiles therefore make bit-equal forwarding decisions for the nodes they
own, and only for those — packets whose current node is owned elsewhere
are emigrated, never stepped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.geometry import Point, Rect
from repro.network.topology import Topology
from repro.routing.gpsr import GPSRRouter, PacketState
from repro.routing.planarization import PlanarizationKind
from repro.shard.plan import ShardPlan

__all__ = ["ShardPacket", "FinishedPacket", "ShardWorkerState"]


@dataclass(slots=True)
class ShardPacket:
    """One in-flight routing request, handed between tiles at boundaries.

    ``pid`` is the engine-assigned packet index (stable across exchange
    rounds — the deterministic processing order); ``ttl_left`` counts the
    remaining TTL slots so the hop budget is global, not per-shard.
    """

    pid: int
    src: int
    dst: int
    current: int
    previous: int | None
    ttl_left: int
    path: list[int]
    state: PacketState


@dataclass(slots=True)
class FinishedPacket:
    """Terminal outcome of one packet: delivered, undelivered or TTL."""

    pid: int
    status: str  # "delivered" | "undelivered" | "ttl"
    path: list[int]
    perimeter_hops: int = 0
    #: Per-hop forwarding modes (aligned with ``path``), carried across
    #: tile boundaries so the shard router's mode cache matches the
    #: monolithic router's byte for byte.
    modes: tuple[str, ...] = ()


class _MemoGPSR(GPSRRouter):
    """A GPSR router that memoizes greedy next-hop decisions.

    Greedy forwarding is Markovian — the choice depends only on
    ``(current, dest)``, never on packet history — so the memo returns
    exactly what the scan would.  Index-node destinations repeat across
    thousands of inserts, which is where the sharded engine's single-box
    speedup comes from (perimeter decisions depend on the full header and
    are never memoized).  Since the base scan runs on plain floats the
    memo saves less: on a 2-core host the 10⁴-node scale demo ran
    2.49–2.63 s sharded against 2.64–3.38 s single-process, where the
    numpy-row scan gave 2.90–4.10 s against 7.09–7.52 s.
    """

    def __init__(
        self, topology: Topology, *, planarization: PlanarizationKind
    ) -> None:
        super().__init__(topology, planarization=planarization)
        self._greedy_memo: dict[tuple[int, Point], int | None] = {}

    def _greedy_next(self, current: int, dest: Point) -> int | None:
        key = (current, dest)
        try:
            return self._greedy_memo[key]
        except KeyError:
            nxt = super()._greedy_next(current, dest)
            self._greedy_memo[key] = nxt
            return nxt


@dataclass(slots=True)
class _AdvanceResult:
    """Output of one tile advance call within one exchange round."""

    finished: list[FinishedPacket] = field(default_factory=list)
    emigrants: list[ShardPacket] = field(default_factory=list)


class ShardWorkerState:
    """One tile's topology view and router at one failure epoch."""

    def __init__(
        self,
        positions: np.ndarray,
        radio_range: float,
        field_rect: Rect,
        plan: ShardPlan,
        shard_id: int,
        *,
        planarization: PlanarizationKind = "gabriel",
        excluded: frozenset[int] = frozenset(),
    ) -> None:
        self.plan = plan
        self.shard_id = shard_id
        owner = plan.owner_of_nodes(positions)
        members = plan.member_mask(shard_id, positions)
        self.owned: np.ndarray = owner == shard_id
        local_excluded = frozenset(
            int(n) for n in np.flatnonzero(~members)
        ) | frozenset(excluded)
        self.alive_members = len(positions) - len(local_excluded)
        self.router: GPSRRouter | None = None
        if self.alive_members > 0:
            view = Topology(
                positions, radio_range, field=field_rect, excluded=local_excluded
            )
            self.router = _MemoGPSR(view, planarization=planarization)

    def owns(self, node: int) -> bool:
        """Whether this shard is responsible for stepping ``node``."""
        return bool(self.owned[node])

    def advance(self, packets: list[ShardPacket]) -> _AdvanceResult:
        """Step every packet until it finishes or leaves this tile.

        Packets are processed in list order (the engine passes them in
        ``pid`` order) and each iteration replays one slot of the
        monolithic ``GPSRRouter.route`` loop: TTL check, destination
        check, then one :meth:`GPSRRouter.forward_one` decision.  A hop
        onto a node owned by another shard stops the local walk *before*
        the next slot is consumed — the owning shard performs that slot —
        so the global iteration sequence is identical to the monolithic
        loop's.
        """
        result = _AdvanceResult()
        router = self.router
        assert router is not None, "advance() on a shard with no alive members"
        for packet in packets:
            while True:
                if not self.owns(packet.current):
                    result.emigrants.append(packet)
                    break
                if packet.ttl_left == 0:
                    result.finished.append(
                        FinishedPacket(packet.pid, "ttl", packet.path)
                    )
                    break
                packet.ttl_left -= 1
                if packet.current == packet.dst:
                    result.finished.append(
                        FinishedPacket(
                            packet.pid,
                            "delivered",
                            packet.path,
                            packet.state.perimeter_hops,
                            tuple(packet.state.modes),
                        )
                    )
                    break
                outcome, nxt = router.forward_one(
                    packet.current, packet.previous, packet.state
                )
                if outcome == "stay":
                    continue
                if outcome == "drop":
                    result.finished.append(
                        FinishedPacket(
                            packet.pid,
                            "undelivered",
                            packet.path,
                            packet.state.perimeter_hops,
                            tuple(packet.state.modes),
                        )
                    )
                    break
                assert nxt is not None
                packet.previous, packet.current = packet.current, nxt
                packet.path.append(nxt)
        return result

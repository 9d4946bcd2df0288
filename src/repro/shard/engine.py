"""Deterministic bulk-synchronous packet exchange across shard tiles.

The :class:`ShardEngine` drives a batch of routing requests to completion
in *exchange rounds*: each round, every shard advances the packets whose
current node it owns (in packet-id order) until they finish or step onto
another tile; the emigrants are then exchanged and the next round begins.
Rounds are a deterministic logical clock — the same requests on the same
plan always produce the same round/boundary-message counts — and the
per-packet decisions are byte-equal to the monolithic router because both
run the *same* :meth:`~repro.routing.gpsr.GPSRRouter.forward_one` code
over views with identical neighbor tables (see :mod:`repro.shard.view`).
Every tile runs in this process; only GPSR path computation is sharded.
"""

from __future__ import annotations

from repro.exceptions import ConfigurationError
from repro.geometry import Point
from repro.network.topology import Topology
from repro.routing.gpsr import PacketState
from repro.routing.planarization import PlanarizationKind
from repro.shard.plan import ShardPlan
from repro.shard.view import FinishedPacket, ShardPacket, ShardWorkerState

__all__ = ["ShardEngine"]


class ShardEngine:
    """Routes packet batches over K shard tiles, byte-equal to 1 tile.

    Parameters
    ----------
    topology:
        The *global* deployed field (epoch 0).  Failure epochs derive
        further excluded sets via :meth:`derive_epoch`.
    plan:
        The spatial tiling; its halo must be at least the radio range for
        the equivalence guarantee to hold (checked here).
    """

    def __init__(
        self,
        topology: Topology,
        plan: ShardPlan,
        *,
        planarization: PlanarizationKind = "gabriel",
        ttl_factor: int = 4,
    ) -> None:
        if plan.halo < topology.radio_range:
            raise ConfigurationError(
                f"halo {plan.halo} is narrower than the radio range "
                f"{topology.radio_range}; boundary decisions would diverge"
            )
        self.topology = topology
        self.plan = plan
        self.planarization: PlanarizationKind = planarization
        self.ttl = ttl_factor * topology.size + 16
        self._owner = plan.owner_of_nodes(topology.positions)
        self._epochs: dict[int, frozenset[int]] = {0: topology.excluded}
        self._states: dict[tuple[int, int], ShardWorkerState] = {}
        #: Deterministic counters: BSP rounds consumed and packet headers
        #: exchanged across tile edges (the "boundary messages").
        self.exchange_rounds = 0
        self.boundary_messages = 0
        self.packets_routed = 0

    # ------------------------------------------------------------------ #
    # Epochs (failure sets)                                              #
    # ------------------------------------------------------------------ #

    def derive_epoch(self, excluded: frozenset[int]) -> int:
        """Register (or find) the epoch for a global failure set."""
        for epoch in sorted(self._epochs):
            if self._epochs[epoch] == excluded:
                return epoch
        epoch = max(self._epochs) + 1
        self._epochs[epoch] = excluded
        return epoch

    # ------------------------------------------------------------------ #
    # Routing                                                            #
    # ------------------------------------------------------------------ #

    def route_batch(
        self, pairs: list[tuple[int, int]], *, epoch: int = 0
    ) -> list[FinishedPacket]:
        """Route every ``(src, dst)`` request; outcomes in request order.

        Endpoint validation is the caller's job (the shard router mirrors
        ``GPSRRouter`` error behavior); this method only runs the BSP
        exchange loop.
        """
        if epoch not in self._epochs:
            raise ConfigurationError(f"unknown failure epoch {epoch}")
        results: list[FinishedPacket | None] = [None] * len(pairs)
        pending: dict[int, list[ShardPacket]] = {}
        for pid, (src, dst) in enumerate(pairs):
            if src == dst:
                results[pid] = FinishedPacket(pid, "delivered", [src])
                continue
            x, y = self.topology.positions[dst]
            packet = ShardPacket(
                pid=pid,
                src=src,
                dst=dst,
                current=src,
                previous=None,
                ttl_left=self.ttl,
                path=[src],
                state=PacketState(dest=Point(float(x), float(y))),
            )
            pending.setdefault(int(self._owner[src]), []).append(packet)
        self.packets_routed += len(pairs)
        while pending:
            self.exchange_rounds += 1
            emigrants: list[ShardPacket] = []
            for shard in sorted(pending):
                result = self._state(shard, epoch).advance(pending[shard])
                for done in result.finished:
                    results[done.pid] = done
                emigrants.extend(result.emigrants)
            self.boundary_messages += len(emigrants)
            pending = {}
            for packet in emigrants:
                pending.setdefault(
                    int(self._owner[packet.current]), []
                ).append(packet)
            for bucket in pending.values():
                bucket.sort(key=lambda p: p.pid)
        out: list[FinishedPacket] = []
        for pid, done in enumerate(results):
            assert done is not None, f"packet {pid} neither finished nor pending"
            out.append(done)
        return out

    def _state(self, shard: int, epoch: int) -> ShardWorkerState:
        key = (epoch, shard)
        state = self._states.get(key)
        if state is None:
            state = ShardWorkerState(
                self.topology.positions,
                self.topology.radio_range,
                self.topology.field,
                self.plan,
                shard,
                planarization=self.planarization,
                excluded=self._epochs[epoch],
            )
            self._states[key] = state
        return state

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardEngine(shards={self.plan.shards}, "
            f"rounds={self.exchange_rounds}, boundary={self.boundary_messages})"
        )

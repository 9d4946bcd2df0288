"""The shard router: GPSR whose forwarding decisions run on tiles.

:class:`ShardRouter` is a :class:`~repro.routing.gpsr.GPSRRouter` that
overrides one method, :meth:`~ShardRouter.forward_one`: the decision at
node ``current`` is handed to the router of the tile that owns
``current``.  Everything else — :meth:`route`, :meth:`path`, the TTL
budget, endpoint validation, error messages and the copy-on-write
:meth:`without_nodes` — is inherited, so every consumer that holds a
router works unchanged.

A tile router works over a halo-padded view of the field: the global
position array with every non-member excluded.  Three facts make the
view sufficient for the nodes the tile owns:

* excluded nodes have empty neighbor rows and appear in nobody else's
  row, so an owned node's neighbor table equals the global one (all its
  neighbors are within one radio range, hence inside the halo);
* planarization treats excluded nodes as dead witnesses, and every
  Gabriel/RNG witness of an edge incident to an owned node also lies
  within one radio range of it, hence inside the halo;
* greedy and perimeter decisions read only the current node's neighbor
  table and the packet header.

Each tile therefore decides exactly as the global router would, while
memoizing greedy next hops and planarizing only its own area.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.geometry import Point
from repro.network.topology import Topology
from repro.routing.gpsr import GPSRRouter, PacketState, StepOutcome
from repro.routing.planarization import PlanarizationKind
from repro.shard.plan import ShardPlan

__all__ = ["ShardRouter"]


class _MemoGPSR(GPSRRouter):
    """A GPSR router that memoizes greedy next-hop decisions.

    Greedy forwarding is Markovian — the choice depends only on
    ``(current, dest)``, never on packet history — so the memo returns
    exactly what the scan would.  Index-node destinations repeat across
    thousands of inserts, which is where a tile's single-box speedup
    comes from (perimeter decisions depend on the full header and are
    never memoized).
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


class ShardRouter(GPSRRouter):
    """A GPSR router whose forwarding decisions run on shard tiles.

    Parameters
    ----------
    topology:
        The global deployed field (failed nodes already excluded).
    plan:
        The spatial tiling; its halo must be at least the radio range for
        tile decisions to equal global ones (checked here).
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
        super().__init__(
            topology, planarization=planarization, ttl_factor=ttl_factor
        )
        self.plan = plan
        self._owner: list[int] = plan.owner_of_nodes(topology.positions).tolist()
        # Tile routers, built on first use: a tile no packet enters is
        # never planarized.
        self._tiles: dict[int, GPSRRouter] = {}

    def forward_one(
        self, current: int, previous: int | None, state: PacketState
    ) -> tuple[StepOutcome, int | None]:
        """The decision at ``current``, made by the tile that owns it."""
        shard = self._owner[current]
        tile = self._tiles.get(shard)
        if tile is None:
            tile = self._tiles[shard] = self._tile(shard)
        return tile.forward_one(current, previous, state)

    def _tile(self, shard: int) -> GPSRRouter:
        """A memoizing router over ``shard``'s halo-padded view."""
        topology = self.topology
        members = self.plan.member_mask(shard, topology.positions)
        view = Topology(
            topology.positions,
            topology.radio_range,
            field=topology.field,
            excluded=topology.excluded.union(
                int(node) for node in np.flatnonzero(~members)
            ),
        )
        return _MemoGPSR(view, planarization=self.planarization_kind)

    def _derive(self, topology: Topology) -> "ShardRouter":
        return ShardRouter(
            topology,
            self.plan,
            planarization=self.planarization_kind,
            ttl_factor=self.ttl_factor,
        )

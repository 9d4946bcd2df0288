"""Sharded routing: one deployment, K spatial tiles, one GPSR loop.

This package spatially partitions a deployment's field into a grid of
tiles (:class:`~repro.shard.plan.ShardPlan`); each tile holds its own
nodes plus a boundary *halo* one radio range wide.  The
:class:`~repro.shard.router.ShardRouter` runs the ordinary GPSR loop and
hands each forwarding decision to the tile that owns the packet's
current node.  Every tile runs in the calling process.

Because a tile's halo contains every neighbor and every planarization
witness of its owned nodes, each tile decision is *exactly* the decision
the global router would make — sharded routes, multicast trees, ledgers
and telemetry are byte-identical to the single-tile run, not
approximately so (see ``docs/ARCHITECTURE.md`` § Sharded execution).
"""

from __future__ import annotations

from repro.shard.plan import ShardPlan
from repro.shard.router import ShardRouter

__all__ = ["ShardPlan", "ShardRouter"]

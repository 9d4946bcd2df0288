"""Shard-aware simulation engine: one deployment, K spatial tiles.

This package spatially partitions a deployment's field into a grid of tiles
(:class:`~repro.shard.plan.ShardPlan`); each tile holds only its own
nodes plus a boundary *halo* one radio range wide
(:class:`~repro.shard.view.ShardWorkerState`).  Packets are advanced by
whichever tile owns their current node; a GPSR forwarding step that
crosses a tile edge emigrates the packet header to the neighboring tile
in a deterministic bulk-synchronous exchange round
(:class:`~repro.shard.engine.ShardEngine`).  Every tile runs in the
calling process: only GPSR path computation is sharded.

Because a shard's halo contains every neighbor and every planarization
witness of its owned nodes, each local forwarding decision is *exactly*
the decision the global router would make — sharded routes, multicast
trees, ledgers and telemetry are byte-identical to the single-process
run, not approximately so (see ``docs/ARCHITECTURE.md`` § Sharding).
"""

from __future__ import annotations

from typing import Any

from repro.shard.deployment import ShardedDeployment
from repro.shard.engine import ShardEngine
from repro.shard.plan import ShardPlan
from repro.shard.router import ShardRouter

__all__ = [
    "ShardEngine",
    "ShardPlan",
    "ShardRouter",
    "ShardedDeployment",
    "merge_shard_records",
]


def __getattr__(name: str) -> Any:
    # Lazy so ``python -m repro.shard.merge`` does not import the merge
    # module twice (package import + runpy) and warn about it.
    if name == "merge_shard_records":
        from repro.shard import merge

        return getattr(merge, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

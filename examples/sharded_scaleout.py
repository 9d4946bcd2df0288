#!/usr/bin/env python3
"""Shard one deployment across tiles — same answers, less wall-clock.

Sharding spatially partitions ONE deployment's routing into K tiles,
all run in the calling process: each tile owns the nodes inside it and
sees a radio-range halo around them.  The GPSR loop is the ordinary
one; each forwarding decision is made by the tile that owns the
packet's current node.

The contract demonstrated here:

1. The shard plan tiles the field; every node has exactly one owner.
2. Routes, hop-for-hop, are identical to the monolithic router — even
   for pairs that cross tile boundaries (the halo guarantees each owner
   sees every neighbor of its nodes, so greedy/perimeter decisions are
   made with full local knowledge).
3. On a full harness cell at scale, the tiles' greedy memo beats the
   monolithic router while producing the *same result rows* — run
   ``python -m repro.bench.scale_demo`` for the 10^4-node version
   recorded in results/BENCH_scale_demo.json.

Run:  python examples/sharded_scaleout.py
"""

from __future__ import annotations

from time import perf_counter

from repro.bench.harness import run_experiment
from repro.bench.workloads import ExperimentConfig
from repro.events.generators import QueryWorkload
from repro.exceptions import DeliveryError
from repro.network.deployment import Deployment
from repro.rng import derive

SHARDS = 4
ROUTE_NODES = 900
ROUTES = 400
CELL_NODES = 5000


def pinned_pairs(size: int, count: int) -> list[tuple[int, int]]:
    rng = derive(0, "example", "sharded-scaleout", size)
    pairs: list[tuple[int, int]] = []
    while len(pairs) < count:
        src = int(rng.integers(0, size))
        dst = int(rng.integers(0, size))
        if src != dst:
            pairs.append((src, dst))
    return pairs


def route_outcome(router, src: int, dst: int):
    try:
        result = router.route(src, dst)
    except DeliveryError as error:
        return ("error", str(error))
    return (result.delivered, tuple(result.path), result.perimeter_hops)


def show_equivalence() -> None:
    mono = Deployment.deploy(ROUTE_NODES, seed=7)
    pairs = pinned_pairs(ROUTE_NODES, ROUTES)

    sharded = mono.shard(SHARDS)
    plan = sharded.router.plan
    print(f"field {mono.topology.field.width:.0f}x"
          f"{mono.topology.field.height:.0f} split into "
          f"{plan.tiles_x}x{plan.tiles_y} tiles "
          f"(halo {plan.halo:.0f} = radio range)")
    owner = plan.owner_of_nodes(mono.topology.positions)
    for shard in range(plan.shards):
        print(f"  shard {shard}: owns {int((owner == shard).sum())} "
              f"of {ROUTE_NODES} nodes")

    reference = [route_outcome(mono.router, s, d) for s, d in pairs]
    ours = [route_outcome(sharded.router, s, d) for s, d in pairs]
    crossing = sum(1 for s, d in pairs if owner[s] != owner[d])
    identical = sum(1 for a, b in zip(reference, ours) if a == b)
    print(f"\n{ROUTES} routes ({crossing} cross a tile boundary): "
          f"{identical}/{ROUTES} identical to the monolithic router")
    assert identical == ROUTES, "sharded routing diverged!"


def cell_config(shards: int) -> ExperimentConfig:
    return ExperimentConfig(
        name="example-scaleout",
        title="sharded scale-out demo",
        network_sizes=(CELL_NODES,),
        events_per_node=1,
        query_count=30,
        trials=1,
        systems=("pool",),
        query_workloads=(
            QueryWorkload(
                dimensions=3,
                kind="exact",
                range_sizes="uniform",
                label="exact/uniform",
            ),
        ),
        shards=shards,
    )


def show_scaleout() -> None:
    print(f"\nfull harness cell, {CELL_NODES} nodes, pool system:")
    start = perf_counter()
    mono = run_experiment(cell_config(1), seed=0)
    mono_seconds = perf_counter() - start

    start = perf_counter()
    sharded = run_experiment(cell_config(SHARDS), seed=0)
    shard_seconds = perf_counter() - start

    mono_rows = [row.as_dict(include_timings=False) for row in mono.rows]
    shard_rows = [row.as_dict(include_timings=False) for row in sharded.rows]
    assert shard_rows == mono_rows, "sharded harness rows diverged!"
    print(f"  result rows: identical ({len(mono_rows)} rows)")
    print(f"  wall-clock: monolithic {mono_seconds:.2f}s, "
          f"{SHARDS} shards {shard_seconds:.2f}s "
          f"({mono_seconds / shard_seconds:.1f}x)")


def main() -> None:
    show_equivalence()
    show_scaleout()


if __name__ == "__main__":
    main()

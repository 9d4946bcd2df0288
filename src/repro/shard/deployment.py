"""A drop-in :class:`Deployment` whose router executes on shard tiles.

:class:`ShardedDeployment` subclasses the monolithic
:class:`~repro.network.deployment.Deployment`, so every consumer — the
:class:`~repro.network.network.Network` facade, the harness, the systems
under test — takes it unchanged; the only difference is that its router
is a :class:`~repro.shard.router.ShardRouter` over a shared
:class:`~repro.shard.engine.ShardEngine`.  One engine (and its tile
states) serves the base deployment *and* every failure-derived
deployment, keyed by failure epoch, mirroring the copy-on-write failure
semantics of the monolithic stack.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.network.deployment import Deployment
from repro.network.topology import Topology, deploy_uniform
from repro.rng import SeedLike
from repro.routing.planarization import PlanarizationKind
from repro.shard.engine import ShardEngine
from repro.shard.plan import ShardPlan
from repro.shard.router import ShardRouter

__all__ = ["ShardedDeployment"]


class ShardedDeployment(Deployment):
    """A deployment spatially partitioned across shard tiles."""

    __slots__ = ("plan", "engine")

    def __init__(
        self,
        topology: Topology,
        plan: ShardPlan,
        *,
        planarization: PlanarizationKind = "gabriel",
        engine: ShardEngine | None = None,
        router: ShardRouter | None = None,
    ) -> None:
        self.plan = plan
        self.engine = (
            engine
            if engine is not None
            else ShardEngine(topology, plan, planarization=planarization)
        )
        super().__init__(
            topology,
            planarization=planarization,
            router=router if router is not None else ShardRouter(self.engine),
        )

    @classmethod
    def deploy(  # type: ignore[override]
        cls,
        size: int,
        *,
        shards: int,
        radio_range: float = 40.0,
        target_degree: float = 20.0,
        seed: SeedLike = None,
        planarization: PlanarizationKind = "gabriel",
    ) -> "ShardedDeployment":
        """Deploy a paper-style uniform field, partitioned into ``shards``.

        The topology draw is identical to :meth:`Deployment.deploy` for
        the same arguments and seed — sharding only changes *where* the
        forwarding loop runs, never what is deployed.
        """
        topology = deploy_uniform(
            size,
            radio_range=radio_range,
            target_degree=target_degree,
            seed=seed,
        )
        return cls.partition(topology, shards, planarization=planarization)

    @classmethod
    def partition(
        cls,
        topology: Topology,
        shards: int,
        *,
        planarization: PlanarizationKind = "gabriel",
    ) -> "ShardedDeployment":
        """Partition an existing topology (halo = its radio range)."""
        plan = ShardPlan.grid(topology.field, shards, halo=topology.radio_range)
        return cls(topology, plan, planarization=planarization)

    # ------------------------------------------------------------------ #
    # Failures                                                           #
    # ------------------------------------------------------------------ #

    def fail_nodes(
        self, nodes: Sequence[int] | Iterable[int]
    ) -> "ShardedDeployment":
        """Copy-on-write failure derivation sharing the engine.

        Same contract as :meth:`Deployment.fail_nodes`; the derived
        deployment routes through the same engine under a new failure
        epoch, so tile views rebuild against the same excluded set.
        """
        assert isinstance(self.router, ShardRouter)
        router = self.router.without_nodes(tuple(nodes))
        return ShardedDeployment(
            router.topology,
            self.plan,
            planarization=self.planarization,
            engine=self.engine,
            router=router,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedDeployment({self.topology!r}, shards={self.plan.shards})"
        )

"""The shared deployment layer: one topology, one router, many consumers.

A :class:`Deployment` bundles the expensive per-cell artifacts of an
experiment — the deployed :class:`~repro.network.topology.Topology` and a
shared :class:`~repro.routing.gpsr.GPSRRouter` whose route cache and
planar rows (each built on its first read) warm up across every
consumer — behind an immutable handle.
The benchmark harness builds exactly one per ``(size, trial)`` cell and
every system and workload in that cell runs against it through its own
scoped :class:`~repro.network.network.Network` facade, so nothing is
re-derived per system and accounting never bleeds between them.

Failures are copy-on-write: :meth:`fail_nodes` returns a *derived*
deployment whose router keeps every cached path avoiding the dead nodes
and builds the planar rows of the surviving subgraph on first read,
leaving the parent deployment (and any facade still holding it)
untouched.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.network.topology import Topology, deploy_uniform
from repro.rng import SeedLike
from repro.routing.gpsr import GPSRRouter
from repro.routing.planarization import PlanarizationKind

__all__ = ["Deployment"]


class Deployment:
    """An immutable (topology, planarization, route cache) bundle.

    Parameters
    ----------
    topology:
        The deployed sensor field.
    planarization:
        Planar subgraph GPSR perimeter mode uses.
    router:
        An existing router to adopt (used by :meth:`fail_nodes` when
        deriving a degraded deployment); built fresh when omitted.
    """

    __slots__ = ("topology", "planarization", "router")

    def __init__(
        self,
        topology: Topology,
        *,
        planarization: PlanarizationKind = "gabriel",
        router: GPSRRouter | None = None,
    ) -> None:
        self.topology = topology
        self.planarization: PlanarizationKind = planarization
        self.router = (
            router
            if router is not None
            else GPSRRouter(topology, planarization=planarization)
        )

    @classmethod
    def deploy(
        cls,
        size: int,
        *,
        radio_range: float = 40.0,
        target_degree: float = 20.0,
        seed: SeedLike = None,
        planarization: PlanarizationKind = "gabriel",
    ) -> "Deployment":
        """Deploy a paper-style uniform field and wrap it (one per cell)."""
        topology = deploy_uniform(
            size,
            radio_range=radio_range,
            target_degree=target_degree,
            seed=seed,
        )
        return cls(topology, planarization=planarization)

    # ------------------------------------------------------------------ #
    # Failures                                                           #
    # ------------------------------------------------------------------ #

    def fail_nodes(self, nodes: Sequence[int] | Iterable[int]) -> "Deployment":
        """A derived deployment with ``nodes`` removed from the radio graph.

        The receiver is unchanged — facades that scoped off the same
        deployment keep routing over the healthy field.  The derived
        router evicts only cached paths traversing a dead node and builds
        the surviving subgraph's planar rows on first read (see
        :meth:`GPSRRouter.without_nodes`).
        """
        router = self.router.without_nodes(tuple(nodes))
        return Deployment(
            router.topology, planarization=self.planarization, router=router
        )

    @property
    def failed_nodes(self) -> frozenset[int]:
        """Ids removed from the radio graph so far."""
        return self.topology.excluded

    # ------------------------------------------------------------------ #
    # Introspection                                                      #
    # ------------------------------------------------------------------ #

    @property
    def size(self) -> int:
        """Number of sensor nodes ever deployed."""
        return self.topology.size

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Deployment({self.topology!r}, planarization={self.planarization!r}, "
            f"cached_paths={self.router.cached_paths})"
        )

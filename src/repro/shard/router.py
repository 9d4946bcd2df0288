"""The ShardRouter indirection: GPSR's interface, the engine's execution.

:class:`ShardRouter` subclasses :class:`~repro.routing.gpsr.GPSRRouter`
so every consumer that holds a router — the :class:`Network` facade, the
multicast tree builder, the systems' ``hops`` accounting, the simulator —
works unchanged; only :meth:`route` is reimplemented to dispatch packets
through a :class:`~repro.shard.engine.ShardEngine` instead of stepping
them in a local loop.  Errors, TTL budget, memoized paths and the
copy-on-write failure derivation all mirror the monolithic router
(same messages, same cache-eviction rule), so swapping routers is
observationally invisible — which is exactly the sharding guarantee.
"""

from __future__ import annotations

from typing import Iterable

from repro.exceptions import DeliveryError
from repro.network.topology import Topology
from repro.routing.gpsr import GPSRRouter, RouteResult
from repro.shard.engine import ShardEngine
from repro.shard.plan import ShardPlan
from repro.shard.view import FinishedPacket

__all__ = ["ShardRouter"]


class ShardRouter(GPSRRouter):
    """A GPSR-compatible router that computes paths tile by tile.

    Parameters
    ----------
    engine:
        The shared exchange engine (owns the tile states).
    topology:
        The epoch's global topology view; defaults to the engine's base
        topology (epoch 0).  Derived (failure) routers pass the degraded
        topology plus the matching engine epoch.
    """

    def __init__(
        self,
        engine: ShardEngine,
        *,
        topology: Topology | None = None,
        epoch: int = 0,
        ttl_factor: int = 4,
    ) -> None:
        super().__init__(
            topology if topology is not None else engine.topology,
            planarization=engine.planarization,
            ttl_factor=ttl_factor,
        )
        self.engine = engine
        self.epoch = epoch
        # Failures discovered by prefetch, replayed by path() in graft
        # order so batched routing raises exactly where lazy routing does.
        self._prefetch_failures: dict[tuple[int, int], FinishedPacket] = {}

    @property
    def plan(self) -> ShardPlan:
        """The spatial tiling this router executes over."""
        return self.engine.plan

    # ------------------------------------------------------------------ #
    # GPSR API, re-routed through the engine                             #
    # ------------------------------------------------------------------ #

    def route(self, src: int, dst: int) -> RouteResult:
        """One request through the exchange engine (monolithic semantics)."""
        self._validate_node(src)
        self._validate_node(dst)
        if src == dst:
            return RouteResult([src], delivered=True)
        done = self.engine.route_batch([(src, dst)], epoch=self.epoch)[0]
        return self._to_result(src, dst, done)

    def path(self, src: int, dst: int) -> list[int]:
        """Memoized path with prefetch-failure replay (same errors)."""
        if src != dst and (src, dst) not in self._path_cache:
            failure = self._prefetch_failures.get((src, dst))
            if failure is not None:
                self._raise_failure(src, dst, failure)
        return super().path(src, dst)

    def prefetch(self, root: int, destinations: Iterable[int]) -> None:
        """Route a whole destination batch in shared exchange rounds.

        Delivered paths land in the ordinary path cache; failures are
        parked and re-raised by :meth:`path` when (and if) the consumer
        actually asks for that pair, preserving lazy error order.
        Endpoints the monolithic router would reject are skipped so
        validation also happens lazily.
        """
        pairs: list[tuple[int, int]] = []
        for node in destinations:
            dst = int(node)
            key = (root, dst)
            if root == dst or key in self._path_cache:
                continue
            if key in self._prefetch_failures:
                continue
            if not (
                self.topology.is_alive(root) and self.topology.is_alive(dst)
            ):
                continue
            pairs.append(key)
        if not pairs:
            return
        for (src, dst), done in zip(
            pairs, self.engine.route_batch(pairs, epoch=self.epoch)
        ):
            if done.status == "delivered":
                self._path_cache[(src, dst)] = done.path
                self._mode_cache[(src, dst)] = done.modes
            else:
                self._prefetch_failures[(src, dst)] = done

    def without_nodes(self, failed: Iterable[int]) -> "ShardRouter":
        """A derived router over the degraded field, same engine.

        Mirrors :meth:`GPSRRouter.without_nodes`: surviving cached paths
        are kept, and the engine registers (or reuses) a failure epoch so
        tiles rebuild their halo views against the same excluded set.
        """
        failed_set = frozenset(int(n) for n in failed)
        topology = self.topology.without(failed_set)
        clone = ShardRouter(
            self.engine,
            topology=topology,
            epoch=self.engine.derive_epoch(topology.excluded),
            ttl_factor=self.ttl_factor,
        )
        clone._path_cache = {
            key: path
            for key, path in self._path_cache.items()
            if failed_set.isdisjoint(path)
        }
        clone._mode_cache = {
            key: self._mode_cache[key]
            for key in clone._path_cache
            if key in self._mode_cache
        }
        return clone

    # ------------------------------------------------------------------ #
    # Outcome translation                                                #
    # ------------------------------------------------------------------ #

    def _to_result(self, src: int, dst: int, done: FinishedPacket) -> RouteResult:
        if done.status == "delivered":
            return RouteResult(
                done.path,
                delivered=True,
                perimeter_hops=done.perimeter_hops,
                modes=done.modes,
            )
        if done.status == "undelivered":
            return RouteResult(done.path, delivered=False, modes=done.modes)
        raise DeliveryError(
            f"TTL ({self.ttl}) exceeded routing {src} -> {dst}", done.path
        )

    def _raise_failure(self, src: int, dst: int, done: FinishedPacket) -> None:
        if done.status == "ttl":
            raise DeliveryError(
                f"TTL ({self.ttl}) exceeded routing {src} -> {dst}", done.path
            )
        raise DeliveryError(f"GPSR could not deliver {src} -> {dst}", done.path)

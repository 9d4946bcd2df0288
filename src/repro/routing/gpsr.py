"""Greedy Perimeter Stateless Routing (Karp & Kung, MobiCom 2000).

The paper assumes GPSR as the routing substrate ("the underlying routing
protocol in Pool is the existing greedy perimeter stateless routing
algorithm", Section 2), as do DIM and GHT.  This module implements the
full protocol:

* **Greedy mode** — forward to the neighbor strictly closest to the
  destination, when one is closer than the current node.
* **Perimeter mode** — on a greedy dead end, traverse faces of the
  planarized graph with the right-hand rule, changing faces where the
  traversed edge crosses the ``Lf -> destination`` segment, and returning
  to greedy as soon as a node closer than the entry point ``Lp`` is
  reached.

Every forwarding decision uses only the current node's neighbor table and
the packet header (mode, destination, ``Lp``, ``Lf``), exactly like the
real protocol; the router object merely plays all node roles in turn and
records the traversed path so the accounting layer can count hops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Literal, Sequence

import numpy as np

from repro.exceptions import ConfigurationError, DeliveryError, RoutingError
from repro.geometry import (
    Point,
    angle_of,
    ccw_angle_from,
    segment_intersection_point,
)
from repro.network.topology import Topology
from repro.routing.planarization import PlanarizationKind, planar_row

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.routing.multicast import TreeMemo

__all__ = ["GPSRRouter", "PacketState", "RouteResult", "StepOutcome"]

_GREEDY: Literal["greedy"] = "greedy"
_PERIMETER: Literal["perimeter"] = "perimeter"

#: Destinations whose greedy memo a router keeps; past this the oldest
#: destination's memo is dropped.  Pool's index nodes (a few dozen per
#: field) always fit, while a DIM field, whose zone owners each receive
#: only a few packets, stays bounded in memory.
MEMO_DESTINATIONS = 256

#: Fewest cold destinations :meth:`GPSRRouter.paths` walks in lockstep;
#: below it each is routed through :meth:`GPSRRouter.path`.  A lockstep
#: step costs a handful of numpy calls whatever the walk count, while a
#: scalar walk costs per hop, so the lockstep wins from about 16 walks
#: up.  Medians on random pairs of the 3,000-node perfbench field, cold
#: routers (shared 2-core x86-64 host, Python 3.11), whole walks
#: including the paths' conversion to lists:
#:
#: =====  ===========  =============
#: walks  scalar (µs)  lockstep (µs)
#: =====  ===========  =============
#:     8          621            966
#:    12          870          1,031
#:    16          892            774
#:    24        1,573          1,179
#:    32        2,129          1,323
#:    64        4,369          1,895
#:   256       16,839          3,964
#: =====  ===========  =============
LOCKSTEP_DESTINATIONS = 16

#: Outcome of one :meth:`GPSRRouter.forward_one` step.  ``"hop"`` forwards
#: the packet to the returned neighbor, ``"stay"`` re-enters greedy mode
#: without transmitting (it still consumes one TTL slot, mirroring the
#: ``continue`` in the classic loop), ``"drop"`` means the destination is
#: unreachable from the current node.
StepOutcome = Literal["hop", "stay", "drop"]


@lru_cache(maxsize=None)
def _greedy_modes(hops: int) -> tuple[str, ...]:
    """The modes of an all-greedy walk of ``hops`` hops, one tuple per count.

    Nearly every route is all-greedy, so its cached modes share these
    tuples instead of holding a copy each.
    """
    return (_GREEDY,) * hops


@dataclass(slots=True)
class RouteResult:
    """Outcome of routing one packet.

    Attributes
    ----------
    path:
        Node ids visited, starting with the source.  ``len(path) - 1`` is
        the hop (message) count.
    delivered:
        Whether the packet reached its target node.
    perimeter_hops:
        How many hops were forwarded in perimeter mode (0 for pure greedy
        delivery — the common case at the paper's density).
    modes:
        The forwarding mode of each hop, aligned with
        ``path[i] -> path[i + 1]`` — the per-hop signal the flight
        recorder exports (empty for legacy constructions).
    """

    path: list[int]
    delivered: bool
    perimeter_hops: int = 0
    modes: tuple[str, ...] = ()

    @property
    def hops(self) -> int:
        """Number of one-hop transmissions used."""
        return max(0, len(self.path) - 1)

    @property
    def greedy_only(self) -> bool:
        """Whether greedy forwarding sufficed end to end."""
        return self.perimeter_hops == 0


@dataclass(slots=True)
class PacketState:
    """The GPSR packet-header fields that drive forwarding decisions.

    This *is* the wire header of a GPSR packet (mode, destination,
    ``Lp``, ``Lf``, traversed-edge memory, perimeter hop count): together
    with the current and previous node it is everything a forwarding
    decision reads.  :meth:`GPSRRouter.route` creates one at a packet's
    first greedy dead end; a greedy-only walk never needs one.
    """

    dest: Point
    mode: str = _GREEDY
    entry: Point | None = None  # Lp: location where perimeter mode started
    face_point: Point | None = None  # Lf: where the packet entered this face
    traversed: set[tuple[int, int]] = field(default_factory=set)
    perimeter_hops: int = 0
    #: Mode of each hop taken so far: ``route`` pads the greedy hops in
    #: before each perimeter step, and ``forward_one`` appends its own.
    modes: list[str] = field(default_factory=list)


class GPSRRouter:
    """Stateless geographic router over a fixed :class:`Topology`.

    Parameters
    ----------
    topology:
        The physical network.
    planarization:
        Which planar subgraph perimeter mode uses (``"gabriel"`` is GPSR's
        default; ``"rng"`` is sparser; ``"none"`` disables planarization
        and is only safe on graphs that are already planar).
    ttl_factor:
        Packets are dropped (``DeliveryError``) after
        ``ttl_factor * n + 16`` hops — a safety net against pathological
        perimeter loops on disconnected graphs.
    """

    def __init__(
        self,
        topology: Topology,
        *,
        planarization: PlanarizationKind = "gabriel",
        ttl_factor: int = 4,
    ) -> None:
        if ttl_factor < 1:
            raise ConfigurationError(f"ttl_factor must be >= 1, got {ttl_factor}")
        self.topology = topology
        self.planarization_kind = planarization
        self.ttl_factor = ttl_factor
        self.ttl = ttl_factor * topology.size + 16
        # Planar rows by node, each computed on its first read (None
        # until then): only nodes a perimeter walk visits need one.
        self._planar: list[tuple[int, ...] | None] = [None] * topology.size
        self._path_cache: dict[tuple[int, int], list[int]] = {}
        # Per-hop forwarding modes of each cached path, filled alongside
        # it; consulted by the flight recorder via hop_modes().
        self._mode_cache: dict[tuple[int, int], tuple[str, ...]] = {}
        # Greedy next hop per (destination node, current node): a greedy
        # decision reads only the current node's neighbor table and the
        # destination, so the memo returns exactly what the scan would.
        self._greedy_memo: dict[int, dict[int, int | None]] = {}
        # Padded neighbour matrix and coordinate columns of the lockstep
        # walk, built on the first lockstep.
        self._lockstep_tables: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        #: The trees grafted over this router's paths, made by the first
        #: :func:`~repro.routing.multicast.graft`.  A tree reads only
        #: cached paths, which never change, so it stays valid as long
        #: as the router; :meth:`without_nodes` starts a new memo.
        self.tree_memo: TreeMemo | None = None

    # ------------------------------------------------------------------ #
    # Public API                                                         #
    # ------------------------------------------------------------------ #

    @property
    def planar_adjacency(self) -> list[tuple[int, ...] | None]:
        """The planar rows read so far (``None``: not yet); builds nothing."""
        return self._planar

    def planar_neighbors(self, node: int) -> tuple[int, ...]:
        """``node``'s planar row, computed on its first read."""
        row = self._planar[node]
        if row is None:
            row = self._planar[node] = planar_row(
                self.topology, node, self.planarization_kind
            )
        return row

    @property
    def path_cache(self) -> dict[tuple[int, int], list[int]]:
        """The memoized paths by ``(src, dst)``; read it, never write it.

        A tree build probes it inline, so a warm destination costs one
        dict lookup and no call.
        """
        return self._path_cache

    @property
    def cached_paths(self) -> int:
        """Number of memoized node-to-node paths (cache-reuse metric)."""
        return len(self._path_cache)

    def without_nodes(self, failed: Iterable[int]) -> "GPSRRouter":
        """A router over the topology with ``failed`` nodes removed.

        This is the cheap failure path: instead of discarding all routing
        state, the derived router keeps every cached path that does not
        traverse a failed node (paths between survivors stay valid — the
        forwarding decisions that produced them never consulted the dead
        nodes).

        The greedy memo and the planar rows start empty: neighbor tables
        change, so a memoized next hop may be dead or no longer the
        closest neighbor, and a failed witness may restore an edge.  A
        row computed on the degraded topology is that topology's row.
        The receiver is left untouched, so deployments sharing it are
        unaffected (copy-on-write failure semantics).
        """
        failed_set = frozenset(int(n) for n in failed)
        clone = GPSRRouter(
            self.topology.without(failed_set),
            planarization=self.planarization_kind,
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

    def path(self, src: int, dst: int) -> list[int]:
        """Node path from ``src`` to ``dst``; raises on delivery failure.

        Paths are deterministic for a fixed topology, so they are memoized;
        the multicast tree builder leans on this for prefix sharing.
        """
        if src == dst:
            return [src]
        key = (src, dst)
        cached = self._path_cache.get(key)
        if cached is not None:
            return cached
        result = self.route(src, dst)
        if not result.delivered:
            raise DeliveryError(
                f"GPSR could not deliver {src} -> {dst}", result.path
            )
        self._path_cache[key] = result.path
        self._mode_cache[key] = result.modes
        return result.path

    def paths(self, src: int, destinations: Sequence[int]) -> list[list[int]]:
        """The :meth:`path` from ``src`` to each destination, in order.

        Equal to ``[self.path(src, d) for d in destinations]``: the same
        paths and modes, cached in destination order, and on a
        :class:`RoutingError` or :class:`DeliveryError` the same error
        with the same cache keys.  When at least
        :data:`LOCKSTEP_DESTINATIONS` distinct, uncached, routable
        destinations remain, they are first walked together in greedy
        mode (:meth:`_lockstep`); a walk that dead-ends, and every
        destination below the threshold, goes through :meth:`path`.
        """
        cache = self._path_cache
        walked: dict[int, list[int]] = {}
        alive = self.topology.is_alive
        if alive(src):
            cold = {
                dst: None
                for dst in destinations
                if dst != src and (src, dst) not in cache and alive(dst)
            }
            if len(cold) >= LOCKSTEP_DESTINATIONS:
                walked = self._lockstep(src, list(cold))
        modes = self._mode_cache
        result = []
        for dst in destinations:
            key = (src, dst)
            path = cache.get(key)
            if path is None:
                path = walked.get(dst)
                if path is None:
                    path = self.path(src, dst)
                else:
                    cache[key] = path
                    modes[key] = _greedy_modes(len(path) - 1)
            result.append(path)
        return result

    def hops(self, src: int, dst: int) -> int:
        """Hop count of :meth:`path`."""
        return len(self.path(src, dst)) - 1

    def hop_modes(self, src: int, dst: int) -> tuple[str, ...] | None:
        """Per-hop forwarding modes of the cached ``src -> dst`` path.

        ``None`` when the pair was never routed through :meth:`path`
        (the flight recorder then records hops with an unknown mode
        rather than forcing a route).  Aligned with the cached path:
        entry ``i`` is the mode of the ``path[i] -> path[i + 1]`` hop.
        """
        return self._mode_cache.get((src, dst))

    def path_to_point(self, src: int, point: tuple[float, float]) -> list[int]:
        """Route toward a geographic location; ends at its closest node.

        This is the location-addressed delivery primitive used by GHT and
        by Pool's "route the event to (a, b)" (Algorithm 1, step 6): the
        home node of a location is the network node closest to it.
        """
        target = self.topology.closest_node(point)
        return self.path(src, target)

    def forward_one(
        self, current: int, previous: int | None, state: PacketState
    ) -> tuple[StepOutcome, int | None]:
        """One perimeter-mode decision; :meth:`route` takes greedy hops.

        Called once per TTL slot at a greedy dead end (``state.mode``
        still greedy) and along a perimeter walk.  It reads only
        ``current``'s planar row and the packet header, so any router
        whose view holds ``current``'s neighbors (and their planarization
        witnesses) decides the same.
        """
        if state.mode == _GREEDY:
            # Enter perimeter mode (Lp = Lf = here) on the first edge
            # counterclockwise about ``current`` from the line to dest.
            here = Point(*self.topology.coords[current])
            state.mode = _PERIMETER
            state.entry = state.face_point = here
            nxt = self._rhr_neighbor(current, angle_of(here, state.dest))
        else:
            x, y = self.topology.coords[current]
            tx, ty = state.dest
            assert state.entry is not None
            ex, ey = state.entry
            dx, dy = x - tx, y - ty
            edx, edy = ex - tx, ey - ty
            if dx * dx + dy * dy < edx * edx + edy * edy:
                # Progress past the dead-end point: back to greedy.
                state.mode = _GREEDY
                state.traversed.clear()
                return "stay", None
            assert previous is not None
            nxt = self._perimeter_next(current, previous, state)
        if nxt is None:
            return "drop", None
        edge = (current, nxt)
        if edge in state.traversed:
            # Completed a full face walk without progress: the
            # destination is unreachable from here.
            return "drop", None
        state.traversed.add(edge)
        state.perimeter_hops += 1
        state.modes.append(_PERIMETER)
        return "hop", nxt

    def route(self, src: int, dst: int) -> RouteResult:
        """Run the GPSR forwarding loop from ``src`` to node ``dst``.

        A greedy hop is a probe of the destination's next-hop memo or, on
        a miss, the neighbor scan inlined over plain-float coordinates
        (it dominates the write path; the strict ``<`` keeps the first
        best neighbor in table order).  The first dead end creates the
        packet header and each perimeter slot calls :meth:`forward_one`.
        """
        self._validate_node(src)
        self._validate_node(dst)
        if src == dst:
            return RouteResult([src], delivered=True)
        memos = self._greedy_memo
        memo = memos.get(dst)
        if memo is None:
            if len(memos) >= MEMO_DESTINATIONS:
                del memos[next(iter(memos))]
            memo = memos[dst] = {}
        probe = memo.get
        coords = self.topology.coords
        table = self.topology.neighbor_table
        tx, ty = coords[dst]
        path = [src]
        current = src
        state: PacketState | None = None
        for _ in range(self.ttl):
            if current == dst:
                break
            if state is None or state.mode == _GREEDY:
                nxt = probe(current, -1)
                if nxt == -1:
                    x, y = coords[current]
                    dx = x - tx
                    dy = y - ty
                    best_d = dx * dx + dy * dy
                    nxt = None
                    for neighbor in table[current]:
                        x, y = coords[neighbor]
                        dx = x - tx
                        dy = y - ty
                        d = dx * dx + dy * dy
                        if d < best_d:
                            nxt = neighbor
                            best_d = d
                    memo[current] = nxt
                if nxt is not None:
                    current = nxt
                    path.append(nxt)
                    continue
                if state is None:
                    state = PacketState(dest=Point(tx, ty))
            state.modes += [_GREEDY] * (len(path) - 1 - len(state.modes))
            outcome, nxt = self.forward_one(
                current, path[-2] if len(path) > 1 else None, state
            )
            if outcome == "drop":
                break
            if outcome == "hop":
                assert nxt is not None
                current = nxt
                path.append(nxt)
        else:
            raise DeliveryError(
                f"TTL ({self.ttl}) exceeded routing {src} -> {dst}", path
            )
        if state is None:
            return RouteResult(path, delivered=True, modes=_greedy_modes(len(path) - 1))
        state.modes += [_GREEDY] * (len(path) - 1 - len(state.modes))
        return RouteResult(
            path,
            delivered=current == dst,
            perimeter_hops=state.perimeter_hops,
            modes=tuple(state.modes),
        )

    def greedy_success_ratio(self, samples: list[tuple[int, int]]) -> float:
        """Fraction of ``(src, dst)`` pairs delivered without perimeter mode.

        Used by the routing-validation ablation experiment.  A pair that
        is never delivered does not count as a greedy success, even when
        its walk dropped before taking a perimeter hop.
        """
        if not samples:
            return 1.0
        results = (self.route(s, d) for s, d in samples)
        ok = sum(1 for r in results if r.delivered and r.greedy_only)
        return ok / len(samples)

    def _lockstep(self, src: int, destinations: list[int]) -> dict[int, list[int]]:
        """Greedy walks from ``src`` to distinct live ``destinations``, together.

        Each step advances every unfinished walk by one hop, with one
        numpy pass over the current nodes' padded neighbour rows.  It
        takes the same ``dx*dx + dy*dy`` in float64 as :meth:`route`'s
        scan, and ``argmin`` takes the first minimum, which is the
        scan's strict ``<`` in neighbour-table order.  A walk advances
        only while that minimum is strictly below its current node's
        distance, so each step is the scan's greedy hop.  Returns the
        path of every walk that reached its destination (all-greedy,
        ids from ``topology.node_ids``); a walk that dead-ends is left
        out, for :meth:`path` to route with perimeter mode.
        """
        neighbours, xs, ys = self._tables()
        target = np.array(destinations, dtype=np.intp)
        tx = xs[target]
        ty = ys[target]
        walk = np.arange(len(destinations))
        current = np.full(len(destinations), src, dtype=np.intp)
        dx = xs[src] - tx
        dy = ys[src] - ty
        here = dx * dx + dy * dy
        hops = np.zeros(len(destinations), dtype=np.intp)
        steps: list[tuple[np.ndarray, np.ndarray]] = []
        while walk.size:
            rows = neighbours[current]
            dx = xs[rows] - tx[:, None]
            dy = ys[rows] - ty[:, None]
            dist = dx * dx + dy * dy
            pick = dist.argmin(axis=1)
            lanes = np.arange(walk.size)
            best = dist[lanes, pick]
            nxt = rows[lanes, pick]
            moved = best < here
            steps.append((walk[moved], nxt[moved]))
            arrived = moved & (nxt == target)
            hops[walk[arrived]] = len(steps)
            going = moved & ~arrived
            walk = walk[going]
            current = nxt[going]
            target = target[going]
            tx = tx[going]
            ty = ty[going]
            here = best[going]
        grid = np.zeros((len(steps), len(destinations)), dtype=np.intp)
        for step, (lanes, nodes) in enumerate(steps):
            grid[step, lanes] = nodes
        columns = grid.T.tolist()
        node_id = self.topology.node_ids.__getitem__
        return {
            destinations[lane]: [src, *map(node_id, columns[lane][:count])]
            for lane, count in enumerate(hops.tolist())
            if count
        }

    def _tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The lockstep's padded neighbour matrix and coordinate columns.

        Row ``u`` holds ``u``'s neighbour-table row, padded with the
        sentinel id ``n``, whose coordinates are infinite: its distance
        is ``inf``, never strictly below a node's, so it is never taken.
        """
        if self._lockstep_tables is None:
            table = self.topology.neighbor_table
            size = len(table)
            degrees = np.fromiter(map(len, table), dtype=np.intp, count=size)
            neighbours = np.full((size, max(int(degrees.max()), 1)), size, dtype=np.intp)
            filled = np.arange(neighbours.shape[1]) < degrees[:, None]
            neighbours[filled] = np.fromiter(
                chain.from_iterable(table), dtype=np.intp, count=int(degrees.sum())
            )
            xs = np.append(self.topology.positions[:, 0], np.inf)
            ys = np.append(self.topology.positions[:, 1], np.inf)
            self._lockstep_tables = (neighbours, xs, ys)
        return self._lockstep_tables

    # ------------------------------------------------------------------ #
    # Forwarding rules                                                   #
    # ------------------------------------------------------------------ #

    def _perimeter_next(
        self, current: int, previous: int, state: PacketState
    ) -> int | None:
        """Right-hand-rule successor with GPSR's face-change test."""
        coords = self.topology.coords
        here = coords[current]
        reference = angle_of(here, coords[previous])
        nxt = self._rhr_neighbor(current, reference)
        if nxt is None:
            return None
        # Face change: while the chosen edge crosses Lf->D closer to D,
        # advance Lf to the crossing and take the next edge ccw instead.
        assert state.face_point is not None
        tx, ty = state.dest
        for _ in range(len(self.planar_neighbors(current)) + 1):
            crossing = segment_intersection_point(
                here, coords[nxt], state.face_point, state.dest
            )
            if crossing is None:
                break
            cx, cy = crossing
            fx, fy = state.face_point
            cdx, cdy = cx - tx, cy - ty
            fdx, fdy = fx - tx, fy - ty
            if cdx * cdx + cdy * cdy >= fdx * fdx + fdy * fdy - 1e-12:
                break
            state.face_point = crossing
            reference = angle_of(here, coords[nxt])
            nxt = self._rhr_neighbor(current, reference)
            if nxt is None:
                return None
        return nxt

    def _rhr_neighbor(self, current: int, reference_angle: float) -> int | None:
        """Planar neighbor with the smallest ccw sweep from ``reference``.

        A sweep of exactly zero counts as a full turn, so the edge the
        reference points along is considered last — this is what makes a
        degree-one node bounce the packet straight back, as GPSR requires.
        """
        neighbors = self.planar_neighbors(current)
        if not neighbors:
            return None
        coords = self.topology.coords
        here = coords[current]
        best: int | None = None
        best_sweep = math.inf
        for neighbor in neighbors:
            sweep = ccw_angle_from(
                reference_angle, angle_of(here, coords[neighbor])
            )
            if sweep < best_sweep:
                best = neighbor
                best_sweep = sweep
        return best

    # ------------------------------------------------------------------ #
    # Helpers                                                            #
    # ------------------------------------------------------------------ #

    def _validate_node(self, node: int) -> None:
        if not 0 <= node < self.topology.size:
            raise RoutingError(
                f"node id {node} outside topology of size {self.topology.size}"
            )
        if not self.topology.is_alive(node):
            raise RoutingError(f"node {node} has failed and cannot route")

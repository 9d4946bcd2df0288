"""Differential test: GPSR forwarding against a frozen numpy-row reference.

The router's forwarding decisions and the planarization witness tests
read ``Topology.coords`` (plain Python floats), and its ``route()`` takes
greedy hops inline.  The oracle below is a frozen copy of the earlier
implementation: its own loop makes one ``forward_one`` call per TTL
slot, greedy or perimeter, over rows of the numpy ``positions`` array
and ``np.float64`` distances, with no next-hop memo.  Both must take the
same hop at every step: equal paths, per-hop modes, perimeter hop counts
and delivery flags from ``route()``, equal ``hop_modes`` after
``path()``, and equal planar rows (the router's built one at a time on
first read), over random, sparse (perimeter-heavy), grid (exact distance
ties) and failure-degraded topologies, under both Gabriel and RNG
planarization.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import DeliveryError
from repro.geometry import Point, angle_of, ccw_angle_from, midpoint
from repro.geometry import segment_intersection_point
from repro.network.topology import Topology, deploy_grid, deploy_uniform
from repro.routing.gpsr import (
    _GREEDY,
    _PERIMETER,
    GPSRRouter,
    PacketState,
    RouteResult,
    StepOutcome,
)
from tests.routing._planar import planarize

# --------------------------------------------------------------------- #
# Frozen reference: numpy-row forwarding and planarization              #
# --------------------------------------------------------------------- #


def _distance_sq(a, b):
    dx = a[0] - b[0]
    dy = a[1] - b[1]
    return dx * dx + dy * dy


def _gabriel_keeps(topology: Topology, u: int, v: int) -> bool:
    positions = topology.positions
    pu, pv = positions[u], positions[v]
    mid = midpoint(pu, pv)
    radius_sq = _distance_sq(pu, pv) / 4.0
    for w in topology._tree.query_ball_point(list(mid), radius_sq**0.5 + 1e-9):
        if w == u or w == v or not topology.is_alive(int(w)):
            continue
        if _distance_sq(positions[w], mid) < radius_sq - 1e-12:
            return False
    return True


def _rng_keeps(topology: Topology, u: int, v: int) -> bool:
    positions = topology.positions
    pu, pv = positions[u], positions[v]
    d_uv_sq = _distance_sq(pu, pv)
    for w in topology._tree.query_ball_point(list(pu), d_uv_sq**0.5 + 1e-9):
        if w == u or w == v or not topology.is_alive(int(w)):
            continue
        pw = positions[w]
        if (
            _distance_sq(pu, pw) < d_uv_sq - 1e-12
            and _distance_sq(pv, pw) < d_uv_sq - 1e-12
        ):
            return False
    return True


def _reference_planarize(topology: Topology, kind: str) -> list[tuple[int, ...]]:
    keeps = _gabriel_keeps if kind == "gabriel" else _rng_keeps
    kept: list[list[int]] = [[] for _ in range(topology.size)]
    for u in range(topology.size):
        for v in topology.neighbors(u):
            if v > u and keeps(topology, u, v):
                kept[u].append(v)
                kept[v].append(u)
    return [tuple(sorted(adj)) for adj in kept]


class _ReferenceGPSR(GPSRRouter):
    """GPSR whose every forwarding decision indexes numpy position rows.

    Its ``route`` is the frozen step loop: one ``forward_one`` call per
    TTL slot, greedy hops included, with no next-hop memo.
    """

    def __init__(self, topology: Topology, *, planarization: str) -> None:
        super().__init__(topology, planarization=planarization)
        self._planar = _reference_planarize(topology, planarization)

    def route(self, src: int, dst: int) -> RouteResult:
        self._validate_node(src)
        self._validate_node(dst)
        if src == dst:
            return RouteResult([src], delivered=True)
        state = PacketState(dest=self.topology.position(dst))
        path = [src]
        current = src
        previous: int | None = None
        for _ in range(self.ttl):
            if current == dst:
                return RouteResult(
                    path,
                    delivered=True,
                    perimeter_hops=state.perimeter_hops,
                    modes=tuple(state.modes),
                )
            outcome, nxt = self.forward_one(current, previous, state)
            if outcome == "stay":
                continue
            if outcome == "drop":
                return RouteResult(
                    path,
                    delivered=False,
                    perimeter_hops=state.perimeter_hops,
                    modes=tuple(state.modes),
                )
            assert nxt is not None
            previous, current = current, nxt
            path.append(current)
        raise DeliveryError(
            f"TTL ({self.ttl}) exceeded routing {src} -> {dst}", path
        )

    def forward_one(
        self, current: int, previous: int | None, state: PacketState
    ) -> tuple[StepOutcome, int | None]:
        if state.mode == _GREEDY:
            nxt = self._greedy_next(current, state.dest)
            if nxt is None:
                self._enter_perimeter(state, current)
                nxt = self._perimeter_first_edge(current, state)
                if nxt is None:
                    return "drop", None
        else:
            here = Point(*self.topology.positions[current])
            if _distance_sq(here, state.dest) < _distance_sq(
                state.entry, state.dest
            ):
                state.mode = _GREEDY
                state.traversed.clear()
                return "stay", None
            nxt = self._perimeter_next(current, previous, state)
            if nxt is None:
                return "drop", None
        if state.mode == _PERIMETER:
            edge = (current, nxt)
            if edge in state.traversed:
                return "drop", None
            state.traversed.add(edge)
            state.perimeter_hops += 1
        state.modes.append(state.mode)
        return "hop", nxt

    def _greedy_next(self, current: int, dest: Point) -> int | None:
        positions = self.topology.positions
        best = None
        best_d = _distance_sq(positions[current], dest)
        for neighbor in self.topology.neighbors(current):
            d = _distance_sq(positions[neighbor], dest)
            if d < best_d:
                best = neighbor
                best_d = d
        return best

    def _enter_perimeter(self, state: PacketState, current: int) -> None:
        x, y = self.topology.positions[current]
        here = Point(float(x), float(y))
        state.mode = _PERIMETER
        state.entry = here
        state.face_point = here
        state.traversed.clear()

    def _perimeter_first_edge(self, current: int, state: PacketState) -> int | None:
        x, y = self.topology.positions[current]
        reference = angle_of(Point(float(x), float(y)), state.dest)
        return self._rhr_neighbor(current, reference)

    def _perimeter_next(
        self, current: int, previous: int, state: PacketState
    ) -> int | None:
        positions = self.topology.positions
        here = Point(*positions[current])
        reference = angle_of(here, positions[previous])
        nxt = self._rhr_neighbor(current, reference)
        if nxt is None:
            return None
        for _ in range(len(self.planar_adjacency[current]) + 1):
            crossing = segment_intersection_point(
                here, Point(*positions[nxt]), state.face_point, state.dest
            )
            if crossing is None:
                break
            if _distance_sq(crossing, state.dest) >= _distance_sq(
                state.face_point, state.dest
            ) - 1e-12:
                break
            state.face_point = crossing
            reference = angle_of(here, positions[nxt])
            nxt = self._rhr_neighbor(current, reference)
            if nxt is None:
                return None
        return nxt

    def _rhr_neighbor(self, current: int, reference_angle: float) -> int | None:
        neighbors = self.planar_adjacency[current]
        if not neighbors:
            return None
        x, y = self.topology.positions[current]
        here = Point(float(x), float(y))
        positions = self.topology.positions
        best = None
        best_sweep = math.inf
        for neighbor in neighbors:
            sweep = ccw_angle_from(
                reference_angle, angle_of(here, positions[neighbor])
            )
            if sweep < best_sweep:
                best = neighbor
                best_sweep = sweep
        return best


# --------------------------------------------------------------------- #
# Cases                                                                 #
# --------------------------------------------------------------------- #

_KINDS = st.sampled_from(["gabriel", "rng"])


@st.composite
def random_topologies(draw):
    n = draw(st.integers(min_value=8, max_value=90))
    degree = draw(st.sampled_from([9.0, 14.0, 20.0]))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return deploy_uniform(n, target_degree=degree, seed=seed, max_attempts=50)


@st.composite
def sparse_topologies(draw):
    """Degree ~6-7: frequent greedy dead ends, possibly disconnected."""
    n = draw(st.integers(min_value=20, max_value=120))
    degree = draw(st.floats(min_value=6.0, max_value=7.0))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return deploy_uniform(
        n, target_degree=degree, seed=seed, require_connected=False
    )


@st.composite
def grid_topologies(draw):
    """Unjittered grids: many neighbors tie exactly on distance."""
    columns = draw(st.integers(min_value=2, max_value=9))
    rows = draw(st.integers(min_value=2, max_value=9))
    reach = draw(st.sampled_from([1.05, 1.5, 2.1]))
    return deploy_grid(columns, rows, 10.0, radio_range=10.0 * reach)


def _pairs(draw, topology: Topology, count: int) -> list[tuple[int, int]]:
    alive = sorted(topology)
    nodes = st.sampled_from(alive)
    return [(draw(nodes), draw(nodes)) for _ in range(count)]


def _outcome(router: GPSRRouter, src: int, dst: int):
    """``route()``'s outcome, then the modes ``path()`` caches for the pair."""
    try:
        result = router.route(src, dst)
    except DeliveryError as exc:
        return ("ttl", exc.args)
    routed = (result.path, result.modes, result.perimeter_hops, result.delivered)
    try:
        router.path(src, dst)
    except DeliveryError as exc:
        return routed, ("undelivered", exc.args)
    # The reference inherits ``path()``, so check its mode cache here.
    assert src == dst or router.hop_modes(src, dst) == result.modes
    return routed, router.hop_modes(src, dst)


def _rows(router: GPSRRouter) -> list[tuple[int, ...]]:
    """Every planar row of ``router``, computing the ones not read yet."""
    return [router.planar_neighbors(u) for u in range(router.topology.size)]


def _assert_same_forwarding(
    topology: Topology, kind: str, pairs: list[tuple[int, int]]
) -> None:
    router = GPSRRouter(topology, planarization=kind)
    reference = _ReferenceGPSR(topology, planarization=kind)
    for src, dst in pairs:
        assert _outcome(router, src, dst) == _outcome(reference, src, dst)
    assert _rows(router) == reference.planar_adjacency
    assert reference.planar_adjacency == planarize(topology, kind)


class TestKernelMatchesReference:
    @given(random_topologies(), _KINDS, st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_topologies(self, topology, kind, data):
        pairs = _pairs(data.draw, topology, 6)
        _assert_same_forwarding(topology, kind, pairs)

    @given(sparse_topologies(), _KINDS, st.data())
    @settings(max_examples=40, deadline=None)
    def test_sparse_topologies(self, topology, kind, data):
        pairs = _pairs(data.draw, topology, 8)
        _assert_same_forwarding(topology, kind, pairs)

    @given(grid_topologies(), _KINDS, st.data())
    @settings(max_examples=40, deadline=None)
    def test_grid_ties(self, topology, kind, data):
        pairs = _pairs(data.draw, topology, 8)
        _assert_same_forwarding(topology, kind, pairs)

    @given(sparse_topologies(), _KINDS, st.data())
    @settings(max_examples=30, deadline=None)
    def test_without_nodes(self, topology, kind, data):
        """The failure path: a derived router matches a fresh reference."""
        alive = sorted(topology)
        failed = data.draw(
            st.sets(st.sampled_from(alive), min_size=1, max_size=len(alive) // 4)
        )
        router = GPSRRouter(topology, planarization=kind)
        for src, dst in _pairs(data.draw, topology, 4):
            # Cached paths carried across; rows read here stay behind.
            _outcome(router, src, dst)
        degraded = router.without_nodes(failed)
        reference = _ReferenceGPSR(degraded.topology, planarization=kind)
        for src, dst in _pairs(data.draw, degraded.topology, 6):
            assert _outcome(degraded, src, dst) == _outcome(reference, src, dst)
        assert _rows(degraded) == reference.planar_adjacency

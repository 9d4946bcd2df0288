"""Planar subgraphs of the radio graph for GPSR's perimeter mode.

GPSR recovers from greedy dead-ends by traversing faces of a *planar*
subgraph of the connectivity graph.  Both planarizations from the GPSR
paper are provided:

* **Gabriel graph (GG)** — keep edge ``(u, v)`` iff the open disk with
  diameter ``uv`` contains no other node.
* **Relative neighborhood graph (RNG)** — keep ``(u, v)`` iff no witness
  ``w`` satisfies ``max(d(u, w), d(v, w)) < d(u, v)``.  RNG ⊆ GG.

Both constructions famously preserve connectivity of the unit-disk graph,
which the test suite verifies on random deployments.

Whether an edge is kept depends only on the alive nodes near it, so a
node's planar row can be computed on its own (:func:`planar_row`).
GPSR computes a row the first time a perimeter walk reads it; most
nodes never need theirs.
"""

from __future__ import annotations

from typing import Literal

from repro.exceptions import ConfigurationError
from repro.geometry import distance_sq
from repro.network.instrumentation import CONSTRUCTION_COUNTERS
from repro.network.topology import Topology

__all__ = ["planar_row", "PlanarizationKind"]

PlanarizationKind = Literal["gabriel", "rng", "none"]


def _gabriel_keeps(
    coords: list[tuple[float, float]], u: int, v: int, nearby: list[int]
) -> bool:
    """Whether edge ``(u, v)`` survives Gabriel planarization.

    The edge survives iff no other alive node of ``nearby`` lies strictly
    inside the circle having ``uv`` as diameter.  The float steps are
    :func:`~repro.geometry.midpoint`'s and
    :func:`~repro.geometry.distance_sq`'s, inlined: a row makes about
    degree² of these tests.
    """
    ux, uy = coords[u]
    vx, vy = coords[v]
    mx = (ux + vx) / 2.0
    my = (uy + vy) / 2.0
    dx = ux - vx
    dy = uy - vy
    limit = (dx * dx + dy * dy) / 4.0 - 1e-12
    for w in nearby:
        wx, wy = coords[w]
        dx = wx - mx
        dy = wy - my
        if dx * dx + dy * dy < limit and w != u and w != v:
            return False
    return True


def _rng_keeps(
    coords: list[tuple[float, float]], u: int, v: int, nearby: list[int]
) -> bool:
    """Whether edge ``(u, v)`` survives RNG planarization.

    The edge survives iff no alive witness ``w`` of ``nearby`` is closer
    to both endpoints than they are to each other (the "lune" is empty).
    """
    pu, pv = coords[u], coords[v]
    limit = distance_sq(pu, pv) - 1e-12
    for w in nearby:
        if w == u or w == v:
            continue
        pw = coords[w]
        if distance_sq(pu, pw) < limit and distance_sq(pv, pw) < limit:
            return False
    return True


def planar_row(
    topology: Topology, u: int, kind: PlanarizationKind = "gabriel"
) -> tuple[int, ...]:
    """``u``'s kept neighbours in the ``kind`` planarization, sorted.

    Each edge is tested in canonical ``(min, max)`` order, so both ends
    of an edge make the same float decision and rows computed one at a
    time agree with each other.  Every witness of an edge ``(u, v)`` is
    closer to ``u`` than ``v`` is, so one KD-tree ball of the radio
    range (plus a slack far above float rounding) around ``u`` holds
    the candidates of every edge in the row.  ``"none"`` keeps every
    radio neighbour.
    """
    if kind not in ("gabriel", "rng", "none"):
        raise ConfigurationError(f"unknown planarization {kind!r}")
    CONSTRUCTION_COUNTERS.planar_rows += 1
    neighbors = topology.neighbors(u)
    if kind == "none":
        return neighbors
    coords = topology.coords
    is_alive = topology.is_alive
    ball = topology._tree.query_ball_point(coords[u], topology.radio_range + 1e-9)
    nearby = [w for w in ball if is_alive(w)]
    keeps = _gabriel_keeps if kind == "gabriel" else _rng_keeps
    return tuple(
        v for v in neighbors if keeps(coords, min(u, v), max(u, v), nearby)
    )


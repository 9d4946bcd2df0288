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

Node failures never *remove* a kept edge (witnesses only disappear), so
:func:`update_after_failures` repairs an existing planarization instead
of rebuilding it: only edges whose endpoints both sit within radio range
of a failed node can change status, because any witness of an edge lies
inside the edge's disk/lune and hence within one radio range of both
endpoints.
"""

from __future__ import annotations

from typing import Iterable, Literal

from repro.exceptions import ConfigurationError
from repro.geometry import distance_sq, midpoint
from repro.network.instrumentation import CONSTRUCTION_COUNTERS
from repro.network.topology import Topology

__all__ = [
    "gabriel_graph",
    "rng_graph",
    "planarize",
    "update_after_failures",
    "PlanarizationKind",
]

PlanarizationKind = Literal["gabriel", "rng", "none"]


def _gabriel_keeps(topology: Topology, u: int, v: int) -> bool:
    """Whether edge ``(u, v)`` survives Gabriel planarization.

    The edge survives iff no other alive node lies strictly inside the
    circle having ``uv`` as diameter.  Witness candidates are found with a
    KD-tree ball query around the edge midpoint, so one test costs
    ``O(witnesses)`` instead of ``O(N)``.
    """
    coords = topology.coords
    pu, pv = coords[u], coords[v]
    mid = midpoint(pu, pv)
    radius_sq = distance_sq(pu, pv) / 4.0
    # query_ball_point uses closed balls; shrink epsilon handled by the
    # strict comparison below.
    tree = topology._tree  # shared KD-tree; read-only use
    for w in tree.query_ball_point(list(mid), radius_sq**0.5 + 1e-9):
        if w == u or w == v or not topology.is_alive(int(w)):
            continue
        if distance_sq(coords[w], mid) < radius_sq - 1e-12:
            return False
    return True


def _rng_keeps(topology: Topology, u: int, v: int) -> bool:
    """Whether edge ``(u, v)`` survives RNG planarization.

    The edge survives iff there is no alive witness ``w`` closer to both
    endpoints than they are to each other (the "lune" is empty).
    """
    coords = topology.coords
    pu, pv = coords[u], coords[v]
    d_uv_sq = distance_sq(pu, pv)
    # Any lune witness lies within d(u, v) of u.
    tree = topology._tree
    for w in tree.query_ball_point(list(pu), d_uv_sq**0.5 + 1e-9):
        if w == u or w == v or not topology.is_alive(int(w)):
            continue
        pw = coords[w]
        if (
            distance_sq(pu, pw) < d_uv_sq - 1e-12
            and distance_sq(pv, pw) < d_uv_sq - 1e-12
        ):
            return False
    return True


def _edge_keeps(topology: Topology, u: int, v: int, kind: PlanarizationKind) -> bool:
    if kind == "gabriel":
        return _gabriel_keeps(topology, u, v)
    if kind == "rng":
        return _rng_keeps(topology, u, v)
    if kind == "none":
        return True
    raise ConfigurationError(f"unknown planarization {kind!r}")


def gabriel_graph(topology: Topology) -> list[tuple[int, ...]]:
    """Gabriel subgraph of the radio graph, as per-node adjacency tuples."""
    return _build(topology, "gabriel")


def rng_graph(topology: Topology) -> list[tuple[int, ...]]:
    """Relative-neighborhood subgraph of the radio graph."""
    return _build(topology, "rng")


def _build(topology: Topology, kind: PlanarizationKind) -> list[tuple[int, ...]]:
    kept: list[list[int]] = [[] for _ in range(topology.size)]
    for u in range(topology.size):
        for v in topology.neighbors(u):
            if v <= u:
                continue
            if _edge_keeps(topology, u, v, kind):
                kept[u].append(v)
                kept[v].append(u)
    return [tuple(sorted(adj)) for adj in kept]


def planarize(
    topology: Topology, kind: PlanarizationKind = "gabriel"
) -> list[tuple[int, ...]]:
    """Planarized adjacency of ``topology`` by name.

    ``"none"`` returns the full radio adjacency — useful for measuring how
    often perimeter mode would need planarity at all.
    """
    if kind not in ("gabriel", "rng", "none"):
        raise ConfigurationError(f"unknown planarization {kind!r}")
    CONSTRUCTION_COUNTERS.planarizations += 1
    if kind == "none":
        return list(topology.neighbor_table)
    return _build(topology, kind)


def update_after_failures(
    old_adjacency: list[tuple[int, ...]],
    new_topology: Topology,
    failed: Iterable[int],
    kind: PlanarizationKind = "gabriel",
) -> list[tuple[int, ...]]:
    """Repair a planarization after ``failed`` nodes left the radio graph.

    ``old_adjacency`` is the planar adjacency of the topology *before* the
    failure; ``new_topology`` is the degraded topology (same node ids,
    ``failed`` excluded).  Returns adjacency identical to a full
    ``planarize(new_topology, kind)`` but touching only the affected
    neighborhood:

    * rows of failed nodes empty out, and failed ids leave every row;
    * kept edges between survivors stay kept (a failure only removes
      witnesses, never adds them);
    * previously blocked edges can resurface only when a failed node was
      their witness — and every witness of an edge lies within one radio
      range of *both* endpoints, so only nodes within radio range of a
      failed node need their rows re-derived.
    """
    failed_set = frozenset(int(n) for n in failed)
    if kind == "none":
        return list(new_topology.neighbor_table)
    CONSTRUCTION_COUNTERS.planar_updates += 1
    coords = new_topology.coords
    affected: set[int] = set()
    for w in sorted(failed_set):
        affected.update(new_topology.nodes_within(coords[w], new_topology.radio_range))
    rows: list[tuple[int, ...]] = [
        ()
        if not new_topology.is_alive(u)
        else tuple(v for v in old_adjacency[u] if v not in failed_set)
        for u in range(new_topology.size)
    ]
    recomputed: dict[int, tuple[int, ...]] = {}
    for u in sorted(affected):
        recomputed[u] = tuple(
            sorted(
                v
                for v in new_topology.neighbors(u)
                if _edge_keeps(new_topology, u, v, kind)
            )
        )
    for u, row in recomputed.items():
        rows[u] = row
    return rows

"""Whole-graph planarizations, the reference for GPSR's per-row build.

Routing computes one planar row at a time (:func:`planar_row`), on the
first perimeter walk that reads it.  These helpers build every row at
once, so tests can compare the rows a router built with the full
Gabriel or RNG subgraph of the same topology.
"""

from __future__ import annotations

from repro.network.topology import Topology
from repro.routing.planarization import PlanarizationKind, planar_row


def planarize(
    topology: Topology, kind: PlanarizationKind = "gabriel"
) -> list[tuple[int, ...]]:
    """Every row of the ``kind`` planarization of ``topology``."""
    return [planar_row(topology, u, kind) for u in range(topology.size)]


def gabriel_graph(topology: Topology) -> list[tuple[int, ...]]:
    """Gabriel subgraph of the radio graph, as per-node adjacency tuples."""
    return planarize(topology, "gabriel")


def rng_graph(topology: Topology) -> list[tuple[int, ...]]:
    """Relative-neighborhood subgraph of the radio graph."""
    return planarize(topology, "rng")

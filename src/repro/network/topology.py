"""Physical network layout: node positions, radio range, neighbor tables.

The paper's deployment model (Section 5.1): sensor nodes placed uniformly
in a square field, radio range 40 m, density tuned so each node has about
20 neighbors.  :func:`deploy_uniform` solves for the field side length that
achieves a requested average degree and returns a ready :class:`Topology`.

The topology is immutable after construction.  Neighbor lookups use a
``scipy.spatial.cKDTree`` so building a 3000-node network stays fast.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np
from scipy.spatial import cKDTree

from repro.exceptions import ConfigurationError, TopologyError
from repro.geometry import Point, Rect
from repro.network.instrumentation import CONSTRUCTION_COUNTERS
from repro.rng import SeedLike, ensure_generator

__all__ = ["Topology", "deploy_uniform", "deploy_grid"]


class Topology:
    """An immutable snapshot of node positions and radio connectivity.

    Parameters
    ----------
    positions:
        ``(n, 2)`` array of node coordinates in meters.  Node ids are the
        row indices ``0..n-1``.
    radio_range:
        Maximum one-hop distance in meters (disk model).
    field:
        The deployment rectangle.  Defaults to the positions' bounding box.
    """

    def __init__(
        self,
        positions: np.ndarray | Sequence[tuple[float, float]],
        radio_range: float,
        field: Rect | None = None,
        excluded: frozenset[int] = frozenset(),
    ) -> None:
        positions = np.asarray(positions, dtype=float)
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise TopologyError(
                f"positions must be an (n, 2) array, got shape {positions.shape}"
            )
        if len(positions) == 0:
            raise TopologyError("a topology needs at least one node")
        if radio_range <= 0:
            raise ConfigurationError(f"radio_range must be positive, got {radio_range}")
        if len(excluded) >= len(positions):
            raise TopologyError("cannot exclude every node")
        self._positions = positions
        self._positions.setflags(write=False)
        self.radio_range = float(radio_range)
        #: Node ids removed from the radio graph (failed/retired nodes).
        #: Ids are never renumbered, so higher layers keep their handles.
        self.excluded = frozenset(excluded)
        if field is None:
            x_min, y_min = positions.min(axis=0)
            x_max, y_max = positions.max(axis=0)
            field = Rect(float(x_min), float(y_min), float(x_max), float(y_max))
        self.field = field
        self._tree = cKDTree(positions)
        self._neighbors: list[tuple[int, ...]] | None = None

    # ------------------------------------------------------------------ #
    # Node access                                                        #
    # ------------------------------------------------------------------ #

    @property
    def size(self) -> int:
        """Number of node ids ever deployed (including excluded ones)."""
        return len(self._positions)

    @property
    def alive_count(self) -> int:
        """Number of nodes currently in the radio graph."""
        return self.size - len(self.excluded)

    def is_alive(self, node: int) -> bool:
        """Whether a node id is part of the radio graph."""
        return 0 <= node < self.size and node not in self.excluded

    def __len__(self) -> int:
        return len(self._positions)

    def __iter__(self) -> Iterator[int]:
        """Iterate over *alive* node ids."""
        return (n for n in range(len(self._positions)) if n not in self.excluded)

    def without(self, failed: Sequence[int] | frozenset[int]) -> "Topology":
        """A copy of this topology with ``failed`` removed from the graph.

        Node ids are preserved (no renumbering); the failed nodes simply
        stop appearing in neighbor tables, closest-node answers and
        iteration.  The underlying position array is shared.
        """
        failed_set = frozenset(failed) | self.excluded
        for node in sorted(failed_set):
            if not 0 <= node < self.size:
                raise TopologyError(f"cannot fail unknown node {node}")
        return Topology(
            self._positions,
            self.radio_range,
            field=self.field,
            excluded=failed_set,
        )

    @property
    def positions(self) -> np.ndarray:
        """Read-only ``(n, 2)`` position array."""
        return self._positions

    @cached_property
    def coords(self) -> list[tuple[float, float]]:
        """Node positions as ``(x, y)`` Python-float tuples, built once.

        The forwarding hot path (GPSR's greedy and perimeter decisions,
        planarization witness tests) reads these instead of indexing
        ``positions``: each numpy row index allocates an array view and
        every arithmetic step on its ``np.float64`` items dispatches
        through numpy's scalar machinery.  ``tolist()`` yields the exact
        binary64 values, and float ``-``, ``*`` and ``+`` are the same
        IEEE-754 operations numpy performs, so every distance computed
        from these tuples is bit-equal to the numpy-row one.
        """
        return [(x, y) for x, y in self._positions.tolist()]

    @cached_property
    def node_ids(self) -> tuple[int, ...]:
        """``tuple(range(size))``: one shared ``int`` object per node id.

        Ids that come out of numpy (``tolist()``) are fresh objects, 28
        bytes each; code that keeps many of them (plan owners, routed
        paths) maps them through this tuple so every stored id is the
        same object.
        """
        return tuple(range(self.size))

    def position(self, node: int) -> Point:
        """Position of a node id as a :class:`Point`."""
        return Point(*self.coords[node])

    # ------------------------------------------------------------------ #
    # Connectivity                                                       #
    # ------------------------------------------------------------------ #

    def neighbors(self, node: int) -> tuple[int, ...]:
        """Ids of all nodes within radio range of ``node`` (excl. itself)."""
        return self.neighbor_table[node]

    @property
    def neighbor_table(self) -> list[tuple[int, ...]]:
        """Neighbor lists for every node, computed once and cached.

        Excluded (failed) nodes have empty rows and appear in nobody
        else's row.
        """
        if self._neighbors is None:
            pairs = self._tree.query_pairs(self.radio_range, output_type="ndarray")
            lists: list[list[int]] = [[] for _ in range(self.size)]
            dead = self.excluded
            for u, v in pairs:
                u = int(u)
                v = int(v)
                if u in dead or v in dead:
                    continue
                lists[u].append(v)
                lists[v].append(u)
            self._neighbors = [tuple(sorted(adj)) for adj in lists]
        return self._neighbors

    @cached_property
    def average_degree(self) -> float:
        """Mean number of neighbors per alive node."""
        table = self.neighbor_table
        alive = [n for n in range(self.size) if n not in self.excluded]
        return sum(len(table[n]) for n in alive) / len(alive)

    def closest_node(self, point: tuple[float, float]) -> int:
        """Id of the alive node geographically closest to ``point``.

        This is the "home node" rule shared by GHT and by our index-node
        assignment: the node a location-addressed packet is delivered to.
        """
        if not self.excluded:
            _, index = self._tree.query([point[0], point[1]])
            return int(index)
        k = min(self.size, 8)
        while True:
            _, indices = self._tree.query([point[0], point[1]], k=k)
            for index in np.atleast_1d(indices):
                if int(index) not in self.excluded:
                    return int(index)
            if k >= self.size:  # pragma: no cover - excluded < size always
                raise TopologyError("no alive node found")
            k = min(self.size, k * 4)

    def nodes_within(self, point: tuple[float, float], radius: float) -> list[int]:
        """All alive node ids within ``radius`` of ``point``."""
        return [
            int(i)
            for i in self._tree.query_ball_point(list(point), radius)
            if int(i) not in self.excluded
        ]

    def is_connected(self) -> bool:
        """Whether alive nodes form a single radio component (BFS)."""
        table = self.neighbor_table
        start = next(iter(self))
        seen = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for neighbor in table[node]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return len(seen) == self.alive_count

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Topology(n={self.size}, radio_range={self.radio_range}, "
            f"field={self.field.width:.0f}x{self.field.height:.0f}m)"
        )


def field_side_for_degree(
    n: int, radio_range: float, target_degree: float
) -> float:
    """Square field side length giving ``target_degree`` average neighbors.

    With uniform density ``rho = n / side^2``, the expected number of
    neighbors (ignoring border effects) is ``rho * pi * r^2``; solving for
    the side length yields ``side = sqrt(n * pi * r^2 / degree)``.
    """
    if target_degree <= 0:
        raise ConfigurationError(
            f"target_degree must be positive, got {target_degree}"
        )
    return math.sqrt(n * math.pi * radio_range**2 / target_degree)


def deploy_uniform(
    n: int,
    *,
    radio_range: float = 40.0,
    target_degree: float = 20.0,
    seed: SeedLike = None,
    require_connected: bool = True,
    max_attempts: int = 20,
) -> Topology:
    """Place ``n`` nodes uniformly at random (the paper's deployment).

    The field is a square sized by :func:`field_side_for_degree`.  When
    ``require_connected`` is set the deployment is re-drawn (new RNG draws
    from the same stream) until the radio graph is connected; at the
    paper's density (~20 neighbors) the first draw virtually always is.
    """
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    CONSTRUCTION_COUNTERS.topology_deployments += 1
    rng = ensure_generator(seed)
    side = field_side_for_degree(n, radio_range, target_degree)
    field = Rect(0.0, 0.0, side, side)
    last: Topology | None = None
    for _ in range(max_attempts):
        positions = rng.random((n, 2)) * side
        topology = Topology(positions, radio_range, field)
        if not require_connected or topology.is_connected():
            return topology
        last = topology
    if last is None:  # pragma: no cover - max_attempts >= 1 always
        raise TopologyError("no deployment attempted")
    raise TopologyError(
        f"could not draw a connected {n}-node deployment in {max_attempts} "
        f"attempts (degree target {target_degree} may be too sparse)"
    )


def deploy_grid(
    columns: int,
    rows: int,
    spacing: float,
    *,
    radio_range: float | None = None,
    jitter: float = 0.0,
    seed: SeedLike = None,
) -> Topology:
    """A regular grid deployment, mostly for deterministic tests.

    ``radio_range`` defaults to ``1.5 * spacing`` so the grid is connected
    with diagonal links; ``jitter`` adds uniform noise in
    ``[-jitter, +jitter]`` per coordinate.
    """
    if columns < 1 or rows < 1:
        raise ConfigurationError("grid needs at least one column and one row")
    if spacing <= 0:
        raise ConfigurationError(f"spacing must be positive, got {spacing}")
    rng = ensure_generator(seed)
    xs, ys = np.meshgrid(np.arange(columns) * spacing, np.arange(rows) * spacing)
    positions = np.column_stack([xs.ravel(), ys.ravel()]).astype(float)
    if jitter:
        positions += rng.uniform(-jitter, jitter, positions.shape)
    if radio_range is None:
        radio_range = 1.5 * spacing
    field = Rect(
        float(positions[:, 0].min()),
        float(positions[:, 1].min()),
        float(positions[:, 0].max()),
        float(positions[:, 1].max()),
    )
    return Topology(positions, radio_range, field)

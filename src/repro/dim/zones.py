"""DIM zones: matched k-d splits of the field and of the value space.

DIM recursively halves the deployment field (alternately by x and y) until
every region contains at most one sensor; a region's binary *zone code*
records the left/right choices.  The **same** code simultaneously denotes
a box in the k-dimensional value space: bit ``i`` of the code halves value
dimension ``i mod k``.  This double meaning is the whole trick — an
event's values determine a code, the code determines a region, and GPSR
delivers to whoever owns that region.

Zone-code ↔ value-range convention
----------------------------------
We use the *straight* binary descent (bit 0 = lower half on both sides of
the correspondence).  The paper's Figure 1(b) additionally applies DIM's
locality-preserving reflection inside some subtrees, whose exact
convention the Pool paper does not define (it cites DIM and "omits the
details"); the two conventions produce isomorphic partitions and
identical message counts — see DESIGN.md "Known deviations".

Empty zones
-----------
A split can isolate a region containing no sensor.  Such a leaf is
*adopted* by the network node closest to the region's center — the node a
GPSR packet addressed into the empty region would be delivered to, which
is how real DIM handles empty zones (the neighboring node on the
enclosing perimeter stores on the zone's behalf).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.events.queries import RangeQuery
from repro.exceptions import ConfigurationError, DimensionMismatchError
from repro.geometry import Rect
from repro.network.topology import Topology

__all__ = ["Zone", "ZoneTree"]

ValueBox = tuple[tuple[float, float], ...]


@dataclass(slots=True)
class Zone:
    """One node of the zone tree.

    Attributes
    ----------
    code:
        Binary zone code (``""`` for the root).
    geo:
        Geographic region this code addresses.
    value_box:
        The k-dimensional value hyper-rectangle this code addresses.
    owner:
        For leaves: the node id responsible for the zone.  ``-1`` on
        internal zones.
    residents:
        Node ids physically inside ``geo`` (leaves have 0 or 1 except when
        the depth guard triggers on near-coincident nodes).
    index:
        For leaves: the leaf's position in code order, which indexes the
        tree's leaf arrays and DIM's per-leaf storage.  ``-1`` on
        internal zones.
    """

    code: str
    geo: Rect
    value_box: ValueBox
    owner: int = -1
    residents: tuple[int, ...] = ()
    index: int = -1
    low: "Zone | None" = None
    high: "Zone | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.low is None

    @property
    def depth(self) -> int:
        return len(self.code)

    def overlaps(self, query: RangeQuery) -> bool:
        """Whether the zone's value box intersects the query box (closed)."""
        for (lo, hi), (q_lo, q_hi) in zip(self.value_box, query.bounds):
            if hi < q_lo or q_hi < lo:
                return False
        return True

    def contains_values(self, values: tuple[float, ...]) -> bool:
        """Whether a value vector falls inside this zone's value box.

        Boxes are half-open ``[lo, hi)`` per dimension except at the top of
        the unit interval, so every value vector belongs to exactly one
        leaf.
        """
        for (lo, hi), v in zip(self.value_box, values):
            if v < lo:
                return False
            if v > hi or (v == hi and hi < 1.0):
                return False
        return True


def _split_value_box(box: ValueBox, dim: int) -> tuple[ValueBox, ValueBox]:
    lo, hi = box[dim]
    mid = (lo + hi) / 2.0
    low = box[:dim] + ((lo, mid),) + box[dim + 1 :]
    high = box[:dim] + ((mid, hi),) + box[dim + 1 :]
    return low, high


class ZoneTree:
    """The complete DIM zone partition for one deployment.

    Parameters
    ----------
    topology:
        The deployed network; the tree splits until every zone holds at
        most one node.
    dimensions:
        Event dimensionality ``k``.
    max_depth:
        Split-depth guard for (nearly) coincident nodes.
    """

    def __init__(
        self, topology: Topology, dimensions: int, *, max_depth: int = 48
    ) -> None:
        if dimensions < 1:
            raise ConfigurationError(f"dimensions must be >= 1, got {dimensions}")
        if max_depth < 1:
            raise ConfigurationError(f"max_depth must be >= 1, got {max_depth}")
        self.topology = topology
        self.dimensions = dimensions
        self.max_depth = max_depth
        root_box: ValueBox = tuple((0.0, 1.0) for _ in range(dimensions))
        self.root = Zone(
            code="",
            geo=topology.field,
            value_box=root_box,
            residents=tuple(range(topology.size)),
        )
        leaves: list[Zone] = []
        self._build(self.root, leaves)
        # Flat per-leaf arrays.  ``_build`` appends leaves low half first,
        # and no leaf code is a prefix of another, so leaf order (each
        # leaf's ``index``) is code order.  The value-box bounds are
        # ``(k, leaves)`` arrays, one contiguous row per axis.
        self._leaves = tuple(leaves)
        boxes = np.array([leaf.value_box for leaf in leaves], dtype=np.float64)
        self._lo, self._hi = boxes.transpose(2, 1, 0).copy()
        #: Owner node id of each leaf, by leaf index.
        self.owners = np.array([leaf.owner for leaf in leaves], dtype=np.intp)
        #: Zone code of each leaf, by leaf index.
        self.codes: tuple[str, ...] = tuple(leaf.code for leaf in leaves)

    # ------------------------------------------------------------------ #
    # Construction                                                       #
    # ------------------------------------------------------------------ #

    def _build(self, zone: Zone, leaves: list[Zone]) -> None:
        if len(zone.residents) <= 1 or zone.depth >= self.max_depth:
            self._finalize_leaf(zone, leaves)
            return
        depth = zone.depth
        if depth % 2 == 0:
            geo_low, geo_high = zone.geo.split_x()
            axis = 0
        else:
            geo_low, geo_high = zone.geo.split_y()
            axis = 1
        value_low, value_high = _split_value_box(zone.value_box, depth % self.dimensions)
        positions = self.topology.positions
        geo_mid = (geo_low.x_max, geo_low.y_max)[axis]
        low_residents = tuple(
            n for n in zone.residents if positions[n][axis] < geo_mid
        )
        high_residents = tuple(
            n for n in zone.residents if positions[n][axis] >= geo_mid
        )
        zone.low = Zone(
            code=zone.code + "0",
            geo=geo_low,
            value_box=value_low,
            residents=low_residents,
        )
        zone.high = Zone(
            code=zone.code + "1",
            geo=geo_high,
            value_box=value_high,
            residents=high_residents,
        )
        self._build(zone.low, leaves)
        self._build(zone.high, leaves)

    def _finalize_leaf(self, zone: Zone, leaves: list[Zone]) -> None:
        if zone.residents:
            # The resident closest to the zone center owns it (ties by id).
            center = zone.geo.center
            zone.owner = min(
                zone.residents,
                key=lambda n: (
                    (self.topology.positions[n][0] - center.x) ** 2
                    + (self.topology.positions[n][1] - center.y) ** 2,
                    n,
                ),
            )
        else:
            # Empty zone: adopted by the nearest node (GPSR's delivery
            # target for packets addressed into the region).
            zone.owner = self.topology.closest_node(zone.geo.center)
        zone.index = len(leaves)
        leaves.append(zone)

    # ------------------------------------------------------------------ #
    # Lookups                                                            #
    # ------------------------------------------------------------------ #

    @property
    def leaves(self) -> tuple[Zone, ...]:
        """All leaf zones (the actual partition), in code order."""
        return self._leaves

    def __len__(self) -> int:
        return len(self._leaves)

    def leaf_for_values(self, values: tuple[float, ...]) -> Zone:
        """The unique leaf whose value box contains ``values``.

        This *is* DIM's event-to-zone hash: descend the tree taking the
        lower/upper half of dimension ``depth mod k`` at each level.
        """
        if len(values) != self.dimensions:
            raise DimensionMismatchError(self.dimensions, len(values), "event")
        zone = self.root
        depth = 0
        while zone.low is not None:
            dim = depth % self.dimensions
            lo, hi = zone.value_box[dim]
            assert zone.high is not None
            zone = zone.high if values[dim] >= (lo + hi) / 2.0 else zone.low
            depth += 1
        return zone

    def leaf_by_code(self, code: str) -> Zone:
        """The leaf (or deepest existing ancestor zone) for a code string."""
        zone = self.root
        for bit in code:
            if zone.is_leaf:
                break
            assert zone.low is not None and zone.high is not None
            zone = zone.high if bit == "1" else zone.low
        return zone

    def leaf_indices(self, query: RangeQuery) -> np.ndarray:
        """Indices of the leaves whose value box overlaps ``query``, ascending.

        This is DIM's range-query decomposition: the value-space k-d
        descent, pruning subtrees disjoint from the query hyper-rectangle.
        The number of selected zones grows with network size for a fixed
        query — the scalability weakness the paper's Figure 6
        demonstrates.

        The descent reaches a leaf exactly when the leaf's own box
        overlaps the query on every axis (an ancestor's interval on an
        axis contains the leaf's), so one closed test per axis over the
        leaf-box rows, the comparison of :meth:`Zone.overlaps`, selects
        the same zones.  An axis the query leaves at ``[0, 1]`` is
        skipped: every leaf box lies inside the unit interval.  Leaf
        indices are in code order.
        """
        if query.dimensions != self.dimensions:
            raise DimensionMismatchError(self.dimensions, query.dimensions, "query")
        lo_rows = self._lo
        hi_rows = self._hi
        mask: np.ndarray | None = None
        for axis, (q_lo, q_hi) in enumerate(query.bounds):
            if q_lo <= 0.0 and q_hi >= 1.0:
                continue
            hit = (hi_rows[axis] >= q_lo) & (lo_rows[axis] <= q_hi)
            mask = hit if mask is None else mask & hit
        if mask is None:
            return np.arange(len(self._leaves))
        return np.flatnonzero(mask)

    def zones_for_query(self, query: RangeQuery) -> list[Zone]:
        """All leaf zones whose value box overlaps ``query``, in code order."""
        leaves = self._leaves
        return [leaves[i] for i in self.leaf_indices(query).tolist()]

    def iter_zones(self) -> Iterator[Zone]:
        """Depth-first iteration over every zone (internal and leaf)."""
        stack = [self.root]
        while stack:
            zone = stack.pop()
            yield zone
            if not zone.is_leaf:
                assert zone.low is not None and zone.high is not None
                stack.append(zone.high)
                stack.append(zone.low)

    def owners_of(self, indices: np.ndarray) -> tuple[int, ...]:
        """Sorted unique owners of the leaves at ``indices``.

        The ids are the topology's shared ``node_ids`` objects, not the
        fresh ints numpy's ``tolist`` makes.
        """
        owners = np.sort(self.owners[indices])
        if owners.size > 1:
            owners = owners[np.concatenate(([True], owners[1:] != owners[:-1]))]
        return tuple(map(self.topology.node_ids.__getitem__, owners.tolist()))

    def owners_for_query(self, query: RangeQuery) -> list[int]:
        """Deduplicated, sorted owner node ids of the query's zones."""
        return list(self.owners_of(self.leaf_indices(query)))
